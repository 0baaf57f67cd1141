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
    NotNormal,
    RankExceedsDimension,
    UncertainGeometry,
)
from .geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    HalfClosedHalfPlane,
    canonical_dir,
    require_finite,
    require_finite_real,
    snap_dir,
    snap_dirs,
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
    """A finite multiplicity as an int; booleans, fractions and counts past
    the float range (weights are summed as floats) raise."""
    try:
        m = None if isinstance(mult, (bool, np.bool_)) else int(mult)
        float(m)  # OverflowError past the float range
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
        object.__setattr__(self, "location", require_finite(self.location, "atom location"))
        object.__setattr__(self, "mult", _check_mult(self.mult))


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", require_finite(self.a, "segment end"))
        object.__setattr__(self, "b", require_finite(self.b, "segment end"))
        if self.a == self.b:
            raise ValueError("segment must have positive length")


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self):
        object.__setattr__(self, "center", require_finite(self.center, "arc center"))
        for name in ("radius", "theta0", "theta1"):
            object.__setattr__(self, name, require_finite_real(getattr(self, name), f"arc {name}"))
        if not self.radius > 0:
            raise ValueError("arc radius must be positive")
        if not (self.theta0 < self.theta1 <= self.theta0 + 2 * math.pi + 1e-12):
            raise ValueError("need theta0 < theta1 <= theta0 + 2*pi")


@dataclass(frozen=True)
class Region:
    polygon: ConvexPolygon

    def __post_init__(self):
        for v in self.polygon.vertices:
            require_finite(v, "region vertex")
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
        object.__setattr__(self, "limit", require_finite(self.limit, "family limit"))
        object.__setattr__(self, "approach_angle", require_finite_real(self.approach_angle, "approach_angle"))
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


def _angle_in(x, lo: float, hi: float):
    """x (a float or an array) lies on the arc from lo to hi, mod 2 pi."""
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
        object.__setattr__(self, "support_radius", require_finite_real(self.support_radius, "support_radius"))
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

    @cached_property
    def total_dim(self) -> float:
        # cached: every membership call checks its rank against it
        if self.pieces or self.families:
            return INF
        return sum(a.mult for a in self.atoms)

    @cached_property
    def _level_tables(self) -> dict:
        """The k-th support level tables of ``core.member_many``, by rank,
        each built on its rank's first query."""
        return {}

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
    a = require_finite(a, "scale factor")
    b = require_finite(b, "shift")
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
    anchor,
    vx: np.ndarray,
    vy: np.ndarray,
) -> DirectionSweep:
    """Classify the model against every line (vx[i], vy[i]) through its
    anchor: one complex anchor for every line, or an array of them, one per
    line.

    Directions must be canonical (see :func:`hrnr.geometry.canonical_dir`);
    side A is the open side of the canonical-left normal (-vy, vx).  Each
    line's dimensions are those of a sweep with its anchor alone, bit for
    bit.  The kernel and the masks see each direction scaled by the power
    of two that puts its larger component in [0.5, 1): every sign test is
    homogeneous in (vx, vy), and no product overflows below about 1e307.
    """
    if np.ndim(anchor):
        anchor = np.asarray(anchor, dtype=complex)
        ax, ay = np.ascontiguousarray(anchor.real), np.ascontiguousarray(anchor.imag)
    else:
        anchor = complex(anchor)
        ax, ay = anchor.real, anchor.imag
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    m = vx.shape[0]
    e = np.frexp(np.maximum(np.abs(vx), np.abs(vy)))[1]
    ux, uy = np.ldexp(vx, -e), np.ldexp(vy, -e)
    eps = DEFAULT_TOL.eps_geom
    L = np.hypot(ux, uy)
    epsl = eps * L

    px, py, w = model._point_data
    buckets = kernels.atom_side_sweep(px, py, w, ux, uy, ax, ay)
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
        _add_piece_masks(inf_masks, piece, ax, ay, ux, uy, L, epsl)
    for fam in model.families:
        _add_tail_masks(inf_masks, fuzzy, fam, ax, ay, ux, uy, L, epsl)

    lo[inf_masks] = INF
    hi[inf_masks] = INF
    return DirectionSweep(vx, vy, lo, hi, fuzzy)


def _side_vals(pt: complex, ax, ay, vx, vy):
    """Side and along-line values of pt against each line through its
    anchor (ax, ay): scalars, or arrays with one anchor per line."""
    dx = pt.real - ax
    dy = pt.imag - ay
    return vx * dy - vy * dx, vx * dx + vy * dy


def _add_piece_masks(inf_masks, piece, ax, ay, vx, vy, L, epsl):
    if isinstance(piece, Segment):
        sa, ta = _side_vals(piece.a, ax, ay, vx, vy)
        sb, tb = _side_vals(piece.b, ax, ay, vx, vy)
        inf_a = np.maximum(sa, sb) > epsl
        inf_b = np.minimum(sa, sb) < -epsl
        # a segment along the line adds to the closed flavors and to the
        # half-closed ones whose ray it overlaps
        collinear = (np.abs(sa) <= epsl) & (np.abs(sb) <= epsl)
        ov_p = collinear & (np.maximum(ta, tb) > epsl)
        ov_m = collinear & (np.minimum(ta, tb) < -epsl)
        for f, mask in ((HAP, ov_p), (HBP, ov_p), (HAM, ov_m), (HBM, ov_m), (CA, collinear), (CB, collinear)):
            inf_masks[f] |= mask
    elif isinstance(piece, Arc):
        sc, _ = _side_vals(piece.center, ax, ay, vx, vy)
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
    else:  # Region
        sv = np.stack([_side_vals(v, ax, ay, vx, vy)[0] for v in piece.polygon.vertices])
        inf_a = sv.max(axis=0) > epsl
        inf_b = -sv.min(axis=0) > epsl
    for f in (HAP, HAM, CA, OA):
        inf_masks[f] |= inf_a
    for f in (HBP, HBM, CB, OB):
        inf_masks[f] |= inf_b


def _add_tail_masks(inf_masks, fuzzy, fam, ax, ay, vx, vy, L, epsl):
    """Tail of a sequence family against every line of the pencil.

    Away from the limit the only sound resolutions are "limit strictly
    inside" (infinite tail) and "limit strictly outside with the prefix
    reaching half the clearance" (zero tail); in between the tail count is
    finite but unknown.  On a line through the limit the declared approach
    data decides.
    """
    sL, tL = _side_vals(fam.limit, ax, ay, vx, vy)
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


def flavor_plane(sweep: DirectionSweep, flavor: int, i: int, anchor: complex):
    """The plane of ``flavor`` on line i of a sweep at ``anchor``, the
    inverse of the flavor lookup of the ``dim_ran_*`` queries: a
    :class:`HalfClosedHalfPlane` for HAP, HAM, HBP and HBM, and for CA, CB,
    OA and OB a :class:`ClosedHalfPlane` whose normal points into the
    flavor's side (the open flavors are the interior of that plane)."""
    vx, vy = float(sweep.vx[i]), float(sweep.vy[i])
    nx, ny = (-vy, vx) if flavor in (HAP, HAM, CA, OA) else (vy, -vx)
    angle = math.atan2(ny, nx) % (2 * math.pi)
    if flavor in (CA, CB, OA, OB):
        return ClosedHalfPlane(anchor, angle, normal=(nx, ny))
    return HalfClosedHalfPlane(anchor, angle, 1 if flavor in (HAP, HBP) else -1, normal=(nx, ny))


def _dim_range(model, anchor, normal, ray, mode):
    dx, dy, flavor = _flavor_for(normal, ray, mode)
    sweep = direction_sweep(model, anchor, np.array([dx]), np.array([dy]))
    return sweep.lo[flavor, 0], sweep.hi[flavor, 0], bool(sweep.fuzzy[flavor, 0])


def _exact_dim(lo, hi, fz, what) -> float:
    if fz or lo != hi:
        raise UncertainGeometry(
            f"{what}: dimension only bracketed to [{lo}, {hi}{'+' if fz else ''}]"
        )
    return lo


def dim_ran_hchp(model: SpectralMeasureModel, H: HalfClosedHalfPlane) -> float:
    """dim ran E(H) for a half closed-half plane; int-valued float or inf."""
    lo, hi, fz = _dim_range(model, H.anchor, H.normal, H.ray_sign, "hchp")
    return _exact_dim(lo, hi, fz, "dim_ran_hchp")


def dim_ran_closed(model: SpectralMeasureModel, P: ClosedHalfPlane) -> float:
    """dim ran E over the closed half plane (full boundary line included)."""
    lo, hi, fz = _dim_range(model, P.anchor, P.normal, None, "closed")
    return _exact_dim(lo, hi, fz, "dim_ran_closed")


def dim_ran_open(model: SpectralMeasureModel, P: ClosedHalfPlane) -> float:
    """dim ran E over the *open* side {<z - anchor, n> > 0} of P's line."""
    lo, hi, fz = _dim_range(model, P.anchor, P.normal, None, "open")
    return _exact_dim(lo, hi, fz, "dim_ran_open")


# ---------------------------------------------------------------------------
# The k-th support levels
# ---------------------------------------------------------------------------


def _is_count(n) -> bool:
    """n is an integer; booleans are not counts."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _check_finite_rank(k, dim: float) -> int:
    """k as an int, for a finite rank 1 <= k <= dim: RankExceedsDimension
    when k exceeds dim (k = inf against a finite dim included), ValueError
    for anything else that is not a positive integer."""
    if k == INF and dim != INF:
        raise RankExceedsDimension(f"rank inf exceeds the finite dimension {int(dim)}")
    if not (_is_count(k) and k >= 1):
        raise ValueError(f"rank must be a positive integer, got {k!r}")
    if k > dim:
        raise RankExceedsDimension(f"rank {k} exceeds the dimension {int(dim)}")
    return int(k)


def support_levels(model: SpectralMeasureModel, k, xis) -> np.ndarray:
    """The k-th level h_k(xi) = sup{ b : dim ran E{Re(e^{i xi} z) >= b} >= k }
    for every direction xi, as an array.

    Each level is the larger of the essential level, the highest projection
    of a piece, a family limit or an infinite atom, and the first finite
    point mass (finite atom or prefix point), in descending order of
    projection with ties in model order, whose cumulative multiplicity
    reaches k.  Of equal values (zeros of either sign) the first is kept:
    pieces, infinite atoms and family limits in model order, then that
    point.  Directions are snapped (:func:`hrnr.geometry.snap_dirs`), and
    the finite points are scored a chunk of directions at a time, within
    ``kernels.BATCH_PAIRS`` direction-point pairs.

    Each multiplicity is at least 1, so that point is among the k largest
    projections of its direction.  Of n points, these are selected by k
    ``argmax`` passes when 8 k < n, and otherwise by a stable sort of the
    whole row (:func:`_kth_point`).  Ties need no fallback: ``argmax``
    returns the first of equal values, +0.0 and -0.0 included, which is
    the one the stable sort puts first, so both give the same level bit for
    bit.  The choice depends on n and k only.
    """
    k = _check_finite_rank(k, model.total_dim)
    xis = np.asarray(xis, dtype=np.float64)
    c, s = snap_dirs(np.cos(xis), np.sin(xis))

    def proj(z):
        return c * z.real - s * z.imag

    def above(best, x):
        return np.where(x > best, x, best)

    tops = []
    for piece in model.pieces:
        if isinstance(piece, Segment):
            tops += [proj(piece.a), proj(piece.b)]
        elif isinstance(piece, Arc):
            # Re(e^{i xi}(center + r e^{i phi})) = proj(center) + r cos(xi + phi),
            # expanded through the snapped rotation so axis-aligned cases stay exact
            top = c * math.cos(piece.theta0) - s * math.sin(piece.theta0)
            top = above(top, c * math.cos(piece.theta1) - s * math.sin(piece.theta1))
            top = np.where(_angle_in(-xis, piece.theta0, piece.theta1) & (1.0 > top), 1.0, top)
            tops.append(proj(piece.center) + piece.radius * top)
        else:
            tops += [proj(v) for v in piece.polygon.vertices]
    tops += [proj(a.location) for a in model.atoms if a.mult == INF]
    tops += [proj(f.limit) for f in model.families]
    best = np.full(xis.shape, -INF)
    for top in tops:
        best = above(best, top)

    px, py, w = model._point_data
    if len(px) and w.sum() >= k:
        rows = max(1, kernels.BATCH_PAIRS // len(px))
        # two buffers for every chunk: freed arrays of this size go back to
        # the OS, and new ones fault in again page by page
        x, sy = (np.empty((min(rows, len(xis)), len(px))) for _ in range(2))
        for start in range(0, len(xis), rows):
            part = slice(start, start + rows)
            m = len(c[part])
            np.multiply(c[part, None], px, out=x[:m])
            x[:m] -= np.multiply(s[part, None], py, out=sy[:m])
            best[part] = above(best[part], _kth_point(x[:m], w, k))
    return best


def _kth_point(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Per row of projections x (overwritten), the first point, in
    descending order of projection with ties in column order, at which the
    cumulative multiplicity w reaches k; w sums to at least k.

    An infinite multiplicity reaches k at once, but such an atom lies at
    or below the essential level, as does every point after it.  The bound
    8 k < n keeps the k ``argmax`` passes cheaper than the sort, which
    overtakes them near k = n / 6 at 25 points and k = n / 3 at 800.
    """
    r = np.arange(x.shape[0])
    if 8 * k < x.shape[1]:
        order, top = [], []
        for _ in range(k):
            order.append(x.argmax(axis=1))
            top.append(x[r, order[-1]])
            x[r, order[-1]] = -INF
        reach = np.cumsum(w[np.stack(order, axis=1)], axis=1) >= k
        return np.stack(top, axis=1)[r, reach.argmax(axis=1)]
    order = np.argsort(-x, axis=1, kind="stable")
    reach = np.cumsum(w[order], axis=1) >= k
    return x[r, order[r, reach.argmax(axis=1)]]


# ---------------------------------------------------------------------------
# Normal matrices
# ---------------------------------------------------------------------------


def _finite_square_matrix(M: np.ndarray) -> np.ndarray:
    """M as a complex square array; ValueError unless every entry is finite."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def require_normal(M: np.ndarray) -> np.ndarray:
    """M as a finite complex square array; NotNormal unless ||MM* - M*M||_F
    is within eps_eig * max(1, ||M||_F^2)."""
    M = _finite_square_matrix(M)
    # tested on S = M / 2**e with 2**e just above the largest entry part, so
    # no square overflows; both sides scale by exactly 4**-e, and the test
    # decides as on M whenever no product of S underflows.  Entries below 1
    # need no scale, and S is M itself, with no copy of a large matrix
    big = max(np.abs(M.real).max(initial=0.0), np.abs(M.imag).max(initial=0.0))
    e = max(math.frexp(big)[1], 0)
    S = M * 2.0**-e if e else M
    fro2 = float(np.linalg.norm(S, "fro")) ** 2
    comm = float(np.linalg.norm(S @ S.conj().T - S.conj().T @ S, "fro"))
    tol = DEFAULT_TOL.eps_eig * max(4.0**-e, fro2)
    if not comm <= tol:
        raise NotNormal(f"commutator norm is {comm / tol:.3e} times the tolerance")
    return M


def from_normal_matrix(M: np.ndarray) -> SpectralMeasureModel:
    """Atom model of a normal matrix (checked by :func:`require_normal`):
    clustered eigenvalues with multiplicity."""
    M = require_normal(M)
    try:
        eigvals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    atoms = _cluster(eigvals)
    radius = float(max(abs(eigvals))) + 1.0 if len(eigvals) else 1.0
    return SpectralMeasureModel(atoms=atoms, support_radius=radius)


def _cluster(vals: np.ndarray) -> tuple[Atom, ...]:
    """Single-linkage clusters of the values at distance eps = eps_eig, as
    atoms at their means, sorted by location.

    Values within eps of each other differ by at most eps in real part, so
    only the pairs within a 2 * eps window of the real parts in sorted order
    take the distance test (``np.hypot``, which rounds like ``abs`` of a
    complex scalar).
    """
    eps = DEFAULT_TOL.eps_eig
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(vals.real, kind="stable")
    re = vals.real[order]
    ends = np.searchsorted(re, re + 2 * eps, side="right")
    for a in np.flatnonzero(ends > np.arange(n) + 1):
        i, js = int(order[a]), order[a + 1 : ends[a]]
        d = vals[js] - vals[i]
        for j in js[np.hypot(d.real, d.imag) <= eps]:
            parent[find(i)] = find(int(j))
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(vals[i]))
    atoms = [Atom(sum(g) / len(g), len(g)) for g in groups.values()]
    atoms.sort(key=lambda a: (a.location.real, a.location.imag))
    return tuple(atoms)
