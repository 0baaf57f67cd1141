"""Finitely described spectral measures and range-dimension queries.

A model is a compactly supported projection-valued measure described by
atoms (eigenvalues with multiplicity), continuous pieces (segments, circular
arcs, convex 2-D regions carrying infinite mass on every positive-measure
subset), and accumulating sequences given by an explicit prefix plus
approach data for the tail.

The central query is the dimension of the measure's range over a half
closed-half plane, a closed half plane, or an open half plane.  Because the
tail of a sequence family is only known through its approach data, dimension
queries internally produce an interval (lo, hi, fuzzy) where ``fuzzy`` marks
an unknown finite surplus; the public ``dim_ran_*`` functions insist on an
exact value and raise :class:`UncertainGeometry` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (
    EigFailure,
    InsufficientDimension,
    NotNormal,
    UncertainGeometry,
)
from .geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    HalfClosedHalfPlane,
    TolerancePolicy,
    canonical_dir,
    require_finite,
    snap_dir,
    trig_dir,
)

INF = math.inf

# Flavor indices for the direction sweep.
HAP, HAM, HBP, HBM, CA, CB, OA, OB = range(8)

_MAX_PREFIX = 10_000

# The sweep kernel sums finite multiplicities as float64; below this total
# every bucket sum is exact, whatever the order of summation.
_MAX_FINITE_TOTAL = 2**53


def _count(mult, what: str) -> int:
    """A finite multiplicity as an int; booleans and fractions raise."""
    try:
        m = None if isinstance(mult, (bool, np.bool_)) else int(mult)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m is None or m != mult or m < 1:
        raise ValueError(f"{what} must be a positive integer, got {mult!r}")
    return m


def _check_mult(mult) -> float:
    if mult == INF:
        return INF
    return float(_count(mult, "finite multiplicity"))


@dataclass(frozen=True)
class Atom:
    location: complex
    mult: float  # positive integer as float, or INF

    def __post_init__(self):
        require_finite(self.location, "atom location")
        object.__setattr__(self, "mult", _check_mult(self.mult))


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def __post_init__(self):
        require_finite(self.a)
        require_finite(self.b)
        if self.a == self.b:
            raise ValueError("segment must have positive length")


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self):
        require_finite(self.center, "arc center")
        if not self.radius > 0:
            raise ValueError("arc radius must be positive")
        if not (self.theta0 < self.theta1 <= self.theta0 + 2 * math.pi + 1e-12):
            raise ValueError("need theta0 < theta1 <= theta0 + 2*pi")


@dataclass(frozen=True)
class Region:
    polygon: ConvexPolygon

    def __post_init__(self):
        if self.polygon.area() <= 0:
            raise ValueError("region must have positive area")


Piece = Segment | Arc | Region


@dataclass(frozen=True)
class SequenceFamily:
    """An accumulating eigenvalue sequence: explicit prefix + tail descriptor.

    Tail terms sit at ``limit + r_n * e^{i*approach_angle} * (1 + o(1))`` with
    r_n decreasing below the last prefix distance; ``approach_side`` gives the
    sign of the transverse offset (side of ``e^{i(approach_angle + pi/2)}``).
    """

    prefix: tuple[tuple[complex, int], ...]
    limit: complex
    approach_angle: float
    approach_side: str  # "above" | "below" | "on"
    tail_mult: int = 1

    def __post_init__(self):
        require_finite(self.limit, "family limit")
        if self.approach_side not in ("above", "below", "on"):
            raise ValueError("approach_side must be 'above', 'below' or 'on'")
        object.__setattr__(self, "tail_mult", _count(self.tail_mult, "tail_mult"))
        if len(self.prefix) > _MAX_PREFIX:
            raise ValueError(f"prefix longer than {_MAX_PREFIX} terms")
        prefix = tuple(
            (require_finite(p), _count(m, "prefix multiplicity")) for p, m in self.prefix
        )
        object.__setattr__(self, "prefix", prefix)
        last = INF
        for p, _ in prefix:
            d = abs(p - self.limit)
            if d == 0:
                raise ValueError("prefix point coincides with the limit")
            if d >= last:
                raise ValueError("prefix distances to the limit must strictly decrease")
            last = d
        self._check_approach()

    def _check_approach(self):
        u = complex(math.cos(self.approach_angle), math.sin(self.approach_angle))
        for p, _ in self.prefix[-3:]:
            rel = (p - self.limit) / abs(p - self.limit)
            dev = abs(math.atan2((rel * u.conjugate()).imag, (rel * u.conjugate()).real))
            if dev > 0.5:
                raise ValueError(
                    "late prefix directions deviate from approach_angle by "
                    f"{dev:.3f} rad"
                )
            trans = (rel * u.conjugate()).imag
            if self.approach_side == "above" and trans < -1e-12:
                raise ValueError("prefix transverse offsets contradict side 'above'")
            if self.approach_side == "below" and trans > 1e-12:
                raise ValueError("prefix transverse offsets contradict side 'below'")

    @property
    def min_prefix_distance(self) -> float:
        if not self.prefix:
            return INF
        return abs(self.prefix[-1][0] - self.limit)


def _piece_max_abs(piece: Piece) -> float:
    if isinstance(piece, Segment):
        return max(abs(piece.a), abs(piece.b))
    if isinstance(piece, Arc):
        cands = [
            abs(piece.center + piece.radius * complex(math.cos(t), math.sin(t)))
            for t in (piece.theta0, piece.theta1)
        ]
        if piece.center != 0:
            phi = math.atan2(piece.center.imag, piece.center.real)
            if _angle_in(phi, piece.theta0, piece.theta1):
                cands.append(abs(piece.center) + piece.radius)
        else:
            cands.append(piece.radius)
        return max(cands)
    return max(abs(v) for v in piece.polygon.vertices)


def _angle_in(x: float, lo: float, hi: float) -> bool:
    return (x - lo) % (2 * math.pi) <= hi - lo


@dataclass(frozen=True)
class SpectralMeasureModel:
    atoms: tuple[Atom, ...] = ()
    pieces: tuple[Piece, ...] = ()
    families: tuple[SequenceFamily, ...] = ()
    support_radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "families", tuple(self.families))
        if not self.support_radius > 0:
            raise ValueError("support_radius must be positive")
        if not (self.atoms or self.pieces or self.families):
            raise ValueError("model must carry at least one component")
        slack = self.support_radius + 1e-9
        if self.max_abs() > slack:
            raise ValueError("support exceeds the declared support_radius")
        finite = sum(int(a.mult) for a in self.atoms if a.mult != INF)
        finite += sum(m for f in self.families for _, m in f.prefix)
        if finite >= _MAX_FINITE_TOTAL:
            raise ValueError(f"finite multiplicities total {finite}, at least 2**53")

    def max_abs(self) -> float:
        vals = [abs(a.location) for a in self.atoms]
        vals += [_piece_max_abs(p) for p in self.pieces]
        for f in self.families:
            vals += [abs(p) for p, _ in f.prefix]
            d = f.min_prefix_distance
            vals.append(abs(f.limit) + (d if d < INF else 0.0))
        return max(vals)

    @property
    def total_dim(self) -> float:
        if self.pieces or self.families:
            return INF
        return sum(a.mult for a in self.atoms)

    @cached_property
    def _point_data(self):
        xs, ys, ws = [], [], []
        for a in self.atoms:
            xs.append(a.location.real)
            ys.append(a.location.imag)
            ws.append(a.mult)
        for f in self.families:
            for p, m in f.prefix:
                xs.append(p.real)
                ys.append(p.imag)
                ws.append(float(m))
        return (
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            np.asarray(ws, dtype=np.float64),
        )

    @cached_property
    def _direction_template(self):
        """The anchor-independent entries of ``core.critical_directions``.

        Entries in sweep order: atom locations; segment ends, snapped arc
        ends and polygon vertices; family limits, prefixes and approach
        directions.  Returns the points (taken relative to the anchor per
        call) and the approach directions (fixed), each with their positions
        in that order, and the circles whose tangents from the anchor follow
        the entries before them: every arc, and the clearance circle of
        every family with a prefix.
        """
        entries: list[tuple[complex, bool]] = []  # (value, is a direction)
        circles: list[tuple[complex, float, float]] = []  # (center, radius, position)
        for a in self.atoms:
            entries.append((a.location, False))
        for piece in self.pieces:
            if isinstance(piece, Segment):
                entries += [(piece.a, False), (piece.b, False)]
            elif isinstance(piece, Arc):
                for t in (piece.theta0, piece.theta1):
                    end = piece.center + piece.radius * complex(*snap_dir(math.cos(t), math.sin(t)))
                    entries.append((end, False))
                circles.append((piece.center, piece.radius, len(entries) - 0.5))
            else:
                entries += [(v, False) for v in piece.polygon.vertices]
        for fam in self.families:
            entries.append((fam.limit, False))
            entries += [(p, False) for p, _ in fam.prefix]
            entries.append((complex(*trig_dir(fam.approach_angle)), True))
            if fam.prefix:
                # the tail counts as zero only on lines clearing the limit by
                # twice the last prefix distance (see _add_tail_masks)
                circles.append((fam.limit, 2 * fam.min_prefix_distance, len(entries) - 0.5))
        z = np.array([v for v, _ in entries], dtype=complex)
        is_dir = np.array([d for _, d in entries], dtype=bool)
        pos = np.arange(len(entries), dtype=np.float64)
        return (
            (z.real[~is_dir], z.imag[~is_dir], pos[~is_dir]),
            (z.real[is_dir], z.imag[is_dir], pos[is_dir]),
            tuple(circles),
        )


def transform_model(model: SpectralMeasureModel, a: complex, b: complex) -> SpectralMeasureModel:
    """The model of a*T + b (affine image of every component)."""
    a = complex(a)
    b = complex(b)
    if a == 0:
        raise ValueError("scale factor must be nonzero")
    rot = math.atan2(a.imag, a.real)
    atoms = tuple(Atom(a * at.location + b, at.mult) for at in model.atoms)
    pieces = []
    for p in model.pieces:
        if isinstance(p, Segment):
            pieces.append(Segment(a * p.a + b, a * p.b + b))
        elif isinstance(p, Arc):
            pieces.append(Arc(a * p.center + b, abs(a) * p.radius, p.theta0 + rot, p.theta1 + rot))
        else:
            pieces.append(Region(ConvexPolygon(tuple(a * v + b for v in p.polygon.vertices))))
    families = tuple(
        SequenceFamily(
            tuple((a * p + b, m) for p, m in f.prefix),
            a * f.limit + b,
            f.approach_angle + rot,
            f.approach_side,
            f.tail_mult,
        )
        for f in model.families
    )
    return SpectralMeasureModel(
        atoms, tuple(pieces), families, abs(a) * model.support_radius + abs(b) + 1e-12
    )


# ---------------------------------------------------------------------------
# Direction sweep: range dimensions for every half-plane flavor at an anchor
# ---------------------------------------------------------------------------


@dataclass
class DirectionSweep:
    """Dim intervals for all 8 half-plane flavors over a pencil of lines.

    Arrays are (8, m): rows HAP/HAM/HBP/HBM are the half closed-half plane
    variants (open side A or B, forward or backward ray), CA/CB the closed
    sides, OA/OB the open sides.  ``hi`` excludes the unknown finite surplus
    flagged by ``fuzzy``.
    """

    vx: np.ndarray
    vy: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    fuzzy: np.ndarray


def direction_sweep(
    model: SpectralMeasureModel,
    anchor: complex,
    vx: np.ndarray,
    vy: np.ndarray,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> DirectionSweep:
    """Classify the model against every line (vx[i], vy[i]) through anchor.

    Directions must be canonical (see :func:`hrnr.geometry.canonical_dir`);
    side A is the open side of the canonical-left normal (-vy, vx).
    """
    anchor = complex(anchor)
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    m = vx.shape[0]
    eps = tol.eps_geom
    L = np.hypot(vx, vy)
    epsl = eps * L

    px, py, w = model._point_data
    buckets = kernels.atom_side_sweep(px - anchor.real, py - anchor.imag, w, vx, vy, eps)
    a_, b_, rp, rm, an, un = (buckets[:, i] for i in range(6))

    lo = np.zeros((8, m))
    lo[HAP] = a_ + rp + an
    lo[HAM] = a_ + rm + an
    lo[HBP] = b_ + rp + an
    lo[HBM] = b_ + rm + an
    lo[CA] = a_ + rp + rm + an
    lo[CB] = b_ + rp + rm + an
    lo[OA] = a_
    lo[OB] = b_
    hi = lo + un[None, :]
    fuzzy = np.zeros((8, m), dtype=bool)

    inf_masks = np.zeros((8, m), dtype=bool)
    for piece in model.pieces:
        _add_piece_masks(inf_masks, piece, anchor, vx, vy, L, epsl)
    for fam in model.families:
        _add_tail_masks(inf_masks, fuzzy, fam, anchor, vx, vy, L, epsl)

    lo[inf_masks] = INF
    hi[inf_masks] = INF
    return DirectionSweep(vx, vy, lo, hi, fuzzy)


def _side_vals(pt: complex, anchor: complex, vx, vy):
    dx = pt.real - anchor.real
    dy = pt.imag - anchor.imag
    return vx * dy - vy * dx, vx * dx + vy * dy


def _add_piece_masks(inf_masks, piece, anchor, vx, vy, L, epsl):
    if isinstance(piece, Segment):
        sa, ta = _side_vals(piece.a, anchor, vx, vy)
        sb, tb = _side_vals(piece.b, anchor, vx, vy)
        inf_a = np.maximum(sa, sb) > epsl
        inf_b = np.minimum(sa, sb) < -epsl
        collinear = (np.abs(sa) <= epsl) & (np.abs(sb) <= epsl)
        ov_p = np.maximum(ta, tb) > epsl
        ov_m = np.minimum(ta, tb) < -epsl
        inf_masks[HAP] |= inf_a | (collinear & ov_p)
        inf_masks[HAM] |= inf_a | (collinear & ov_m)
        inf_masks[HBP] |= inf_b | (collinear & ov_p)
        inf_masks[HBM] |= inf_b | (collinear & ov_m)
        inf_masks[CA] |= inf_a | collinear
        inf_masks[CB] |= inf_b | collinear
        inf_masks[OA] |= inf_a
        inf_masks[OB] |= inf_b
    elif isinstance(piece, Arc):
        sc, _ = _side_vals(piece.center, anchor, vx, vy)
        psi = np.arctan2(vy, vx)
        u0 = piece.theta0 - psi
        u1 = piece.theta1 - psi
        width = piece.theta1 - piece.theta0
        s0, s1 = np.sin(u0), np.sin(u1)
        has_top = np.mod(math.pi / 2 - u0, 2 * math.pi) <= width
        has_bot = np.mod(-math.pi / 2 - u0, 2 * math.pi) <= width
        maxsin = np.where(has_top, 1.0, np.maximum(s0, s1))
        minsin = np.where(has_bot, -1.0, np.minimum(s0, s1))
        rL = piece.radius * L
        inf_a = sc + rL * maxsin > epsl
        inf_b = -(sc + rL * minsin) > epsl
        for f in (HAP, HAM, CA, OA):
            inf_masks[f] |= inf_a
        for f in (HBP, HBM, CB, OB):
            inf_masks[f] |= inf_b
    else:  # Region
        sv = np.stack([_side_vals(v, anchor, vx, vy)[0] for v in piece.polygon.vertices])
        inf_a = sv.max(axis=0) > epsl
        inf_b = -sv.min(axis=0) > epsl
        for f in (HAP, HAM, CA, OA):
            inf_masks[f] |= inf_a
        for f in (HBP, HBM, CB, OB):
            inf_masks[f] |= inf_b


def _add_tail_masks(inf_masks, fuzzy, fam, anchor, vx, vy, L, epsl):
    """Tail of a sequence family against every line of the pencil.

    Away from the limit the only sound resolutions are "limit strictly
    inside" (infinite tail) and "limit strictly outside with the prefix
    reaching half the clearance" (zero tail); in between the tail count is
    finite but unknown.  On a line through the limit the declared approach
    data decides.
    """
    sL, tL = _side_vals(fam.limit, anchor, vx, vy)
    cphi = math.cos(fam.approach_angle)
    sphi = math.sin(fam.approach_angle)
    c_raw = vx * sphi - vy * cphi  # approach direction against the A-side normal
    u_raw = vx * cphi + vy * sphi  # approach direction along the line
    d_min = fam.min_prefix_distance

    near_line = np.abs(sL) <= epsl
    for sigma, flavors in ((1.0, (HAP, HAM, CA, OA)), (-1.0, (HBP, HBM, CB, OB))):
        s = sigma * sL
        c = sigma * c_raw
        strictly_in = s > epsl
        strictly_out = s < -epsl
        resolved = strictly_out & (d_min * L <= 0.5 * np.abs(sL))
        unresolved = strictly_out & ~resolved

        trans_c = near_line & (c > epsl)
        par = near_line & (np.abs(c) <= epsl)
        if fam.approach_side == "above":
            par_in = par & (sigma * u_raw > 0)
        elif fam.approach_side == "below":
            par_in = par & (sigma * u_raw < 0)
        else:
            par_in = np.zeros_like(par)

        base_inf = strictly_in | trans_c | par_in
        for f in flavors:
            inf_masks[f] |= base_inf
            fuzzy[f] |= unresolved

        if fam.approach_side == "on":
            on_line = par
            # tail lies on the boundary line itself
            closed_f = CA if sigma > 0 else CB
            inf_masks[closed_f] |= on_line
            anchored = np.abs(tL) <= epsl
            along = np.where(anchored, u_raw, tL)
            hp, hm = (HAP, HAM) if sigma > 0 else (HBP, HBM)
            inf_masks[hp] |= on_line & (along > 0)
            inf_masks[hm] |= on_line & (along < 0)


# ---------------------------------------------------------------------------
# Public dimension queries
# ---------------------------------------------------------------------------


def _flavor_for(normal: tuple[float, float], hchp_ray: int | None, mode: str):
    nx, ny = normal
    dx, dy = canonical_dir(-ny, nx)
    # A-side normal is (-dy, dx); does the instance normal agree with it?
    side_a = (-dy) * nx + dx * ny > 0
    if mode == "hchp":
        if side_a:
            flavor = HAP if hchp_ray > 0 else HAM
        else:
            flavor = HBP if hchp_ray > 0 else HBM
    elif mode == "closed":
        flavor = CA if side_a else CB
    else:
        flavor = OA if side_a else OB
    return dx, dy, flavor


def _dim_range(model, anchor, normal, ray, mode, tol):
    dx, dy, flavor = _flavor_for(normal, ray, mode)
    sweep = direction_sweep(model, anchor, np.array([dx]), np.array([dy]), tol)
    return sweep.lo[flavor, 0], sweep.hi[flavor, 0], bool(sweep.fuzzy[flavor, 0])


def _exact_dim(lo, hi, fz, what) -> float:
    if fz or lo != hi:
        raise UncertainGeometry(
            f"{what}: dimension only bracketed to [{lo}, {hi}{'+' if fz else ''}]"
        )
    return lo


def dim_ran_hchp(
    model: SpectralMeasureModel,
    H: HalfClosedHalfPlane,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> float:
    """dim ran E(H) for a half closed-half plane; int-valued float or inf."""
    lo, hi, fz = _dim_range(model, H.anchor, H.normal, H.ray_sign, "hchp", tol)
    return _exact_dim(lo, hi, fz, "dim_ran_hchp")


def dim_ran_closed(
    model: SpectralMeasureModel,
    P: ClosedHalfPlane,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> float:
    """dim ran E over the closed half plane (full boundary line included)."""
    lo, hi, fz = _dim_range(model, P.anchor, P.normal, None, "closed", tol)
    return _exact_dim(lo, hi, fz, "dim_ran_closed")


def dim_ran_open(
    model: SpectralMeasureModel,
    P: ClosedHalfPlane,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> float:
    """dim ran E over the *open* side {<z - anchor, n> > 0} of P's line."""
    lo, hi, fz = _dim_range(model, P.anchor, P.normal, None, "open", tol)
    return _exact_dim(lo, hi, fz, "dim_ran_open")


# ---------------------------------------------------------------------------
# 1-D pushforwards and the k-th support level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealFamily:
    prefix: tuple[tuple[float, float], ...]  # (position, mult)
    limit: float


@dataclass(frozen=True)
class RealSpectralModel:
    atoms: tuple[tuple[float, float], ...] = ()  # (position, mult), mult may be INF
    intervals: tuple[tuple[float, float], ...] = ()  # carry infinite mass
    families: tuple[RealFamily, ...] = ()
    support_radius: float = 1.0

    @property
    def total_dim(self) -> float:
        if self.intervals or self.families:
            return INF
        return sum(m for _, m in self.atoms)


def _proj(z: complex, c: float, s: float) -> float:
    # Re(e^{i theta} z) with c = cos(theta), s = sin(theta)
    return c * z.real - s * z.imag


def pushforward(model: SpectralMeasureModel, theta: float) -> RealSpectralModel:
    """Image of the measure under z -> Re(e^{i theta} z)."""
    c, s = snap_dir(math.cos(theta), math.sin(theta))
    atoms = [(_proj(a.location, c, s), a.mult) for a in model.atoms]
    intervals = []
    for p in model.pieces:
        intervals.append(_piece_interval(p, theta, c, s))
    families = [
        RealFamily(tuple((_proj(p, c, s), float(m)) for p, m in f.prefix), _proj(f.limit, c, s))
        for f in model.families
    ]
    return RealSpectralModel(
        tuple(atoms), tuple(intervals), tuple(families), model.support_radius
    )


def _piece_interval(piece: Piece, theta: float, c: float, s: float):
    if isinstance(piece, Segment):
        xa, xb = _proj(piece.a, c, s), _proj(piece.b, c, s)
        return (min(xa, xb), max(xa, xb))
    if isinstance(piece, Arc):
        # Re(e^{i theta}(center + r e^{i phi})) = proj(center) + r cos(theta + phi),
        # expanded through the snapped rotation so axis-aligned cases stay exact
        xc = _proj(piece.center, c, s)
        cands = [
            c * math.cos(phi) - s * math.sin(phi)
            for phi in (piece.theta0, piece.theta1)
        ]
        if _angle_in(-theta, piece.theta0, piece.theta1):
            cands.append(1.0)
        if _angle_in(math.pi - theta, piece.theta0, piece.theta1):
            cands.append(-1.0)
        return (xc + piece.radius * min(cands), xc + piece.radius * max(cands))
    xs = [_proj(v, c, s) for v in piece.polygon.vertices]
    return (min(xs), max(xs))


def _is_finite_rank(k) -> bool:
    """k is a positive integer; booleans are not ranks."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1


def lambda_k_sup(rm: RealSpectralModel, k: int) -> float:
    """sup{ b : dim ran E[b, inf) >= k } by a right-to-left multiplicity scan."""
    if not _is_finite_rank(k):
        raise ValueError("k must be a positive integer")
    if rm.total_dim < k:
        raise InsufficientDimension(f"total dimension {rm.total_dim} < k={k}")
    best = -INF
    for hi_ in (iv[1] for iv in rm.intervals):
        best = max(best, hi_)
    finite: list[tuple[float, float]] = []
    for x, m in rm.atoms:
        if m == INF:
            best = max(best, x)
        else:
            finite.append((x, m))
    for f in rm.families:
        best = max(best, f.limit)
        finite.extend(f.prefix)
    finite.sort(key=lambda t: -t[0])
    acc = 0.0
    for x, m in finite:
        if x <= best:
            break
        acc += m
        if acc >= k:
            best = max(best, x)
            break
    return best


def lambda_k_inf(rm: RealSpectralModel, k: int) -> float:
    """inf{ a : dim ran E(-inf, a] >= k } (mirror of :func:`lambda_k_sup`)."""
    mirrored = RealSpectralModel(
        tuple((-x, m) for x, m in rm.atoms),
        tuple((-b, -a) for a, b in rm.intervals),
        tuple(RealFamily(tuple((-x, m) for x, m in f.prefix), -f.limit) for f in rm.families),
        rm.support_radius,
    )
    return -lambda_k_sup(mirrored, k)


# ---------------------------------------------------------------------------
# Normal matrices
# ---------------------------------------------------------------------------


def require_normal(M: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """M as a complex square array; NotNormal unless ||MM* - M*M||_F is
    within eps_eig * max(1, ||M||_F^2)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    fro2 = float(np.linalg.norm(M, "fro")) ** 2
    comm = np.linalg.norm(M @ M.conj().T - M.conj().T @ M, "fro")
    if comm > tol.eps_eig * max(1.0, fro2):
        raise NotNormal(f"commutator norm {comm:.3e} exceeds tolerance")
    return M


def normal_eigvals(M: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a normal matrix (checked by :func:`require_normal`)."""
    M = require_normal(M, tol)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc


def from_normal_matrix(
    M: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL
) -> SpectralMeasureModel:
    """Atom model of a normal matrix: clustered eigenvalues with multiplicity."""
    eigvals = normal_eigvals(M, tol)
    atoms = _cluster(eigvals, tol.eps_eig)
    radius = float(max(abs(eigvals))) + 1.0 if len(eigvals) else 1.0
    return SpectralMeasureModel(atoms=atoms, support_radius=radius)


def _cluster(vals: np.ndarray, eps: float) -> tuple[Atom, ...]:
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= eps:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(vals[i]))
    atoms = [Atom(sum(g) / len(g), len(g)) for g in groups.values()]
    atoms.sort(key=lambda a: (a.location.real, a.location.imag))
    return tuple(atoms)
