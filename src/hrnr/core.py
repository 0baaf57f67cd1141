"""Membership, region reconstruction and boundary structure of the rank-k
numerical range of a normal operator given by a spectral-measure model.

A point lambda belongs to the rank-k range iff every half closed-half plane
anchored at lambda captures measure of dimension >= k.  The dimension, as a
function of the line direction at a fixed anchor, is piecewise constant with
breakpoints only at a finite set of critical directions (toward atoms, piece
extremities, family limits and prefix points, approach angles, and tangents
to arcs and to the circle inside which a family tail stays unresolved);
membership is decided by sweeping those directions and the midpoints between
them, which together represent every cell on which each flavor's dimension
is constant.

Every decision here (membership, the region's boundary report, boundary
kind, and the closed witness planes of the Wu check and of exclusion
certificates) takes one path, ``_decide``: a table of the model's k-th
support levels (:func:`_level_check`) calls IN every point it certifies,
one kernel row decides OUT a point it puts well outside (:func:`_table_out`),
and the rest are swept, one direction build and one sweep per chunk of
points, :func:`sweep_decision` deciding each requested set of plane flavors
per point.  The table goes first only on models where one point's sweep
costs more than its 1,024 directions.  :func:`hrnr.spectral.flavor_plane`
turns the flavor and direction that decided an OUT verdict into its plane
where the caller reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import NotSelfAdjoint, UncertainGeometry
from .geometry import (
    DEFAULT_TOL,
    ConvexPolygon,
    HalfClosedHalfPlane,
    Verdict,
    _grid,
    canonical_dirs,
    halfplane_intersection,
    require_finite,
    snap_dirs,
    support_lines,
)
from .spectral import (
    HAM,
    HAP,
    HBM,
    HBP,
    INF,
    OA,
    OB,
    Segment,
    SpectralMeasureModel,
    _check_finite_rank,
    _is_count,
    direction_sweep,
    flavor_plane,
    support_levels,
)

RANK_INF = INF

_TANGENT_SLACK = 1e-7

# Directions of the k-th support level table of _decide, which certifies
# interior points and picks the line of an exterior point's OUT
# (see _level_check): 1024 certify nearly as many points as a finer grid,
# for one table build of about 4-5 ms at n = 800 atoms.
_LEVEL_DIRS = 1024


class BoundaryKind(Enum):
    BOUNDARY_IN = "boundary-in"
    INTERIOR = "interior"
    NOT_MEMBER = "not-member"


@dataclass(frozen=True)
class MembershipVerdict:
    value: Verdict
    witness: HalfClosedHalfPlane | None = None
    witness_dim: float | None = None


@dataclass(frozen=True)
class RegionEstimate:
    k: int
    support_samples: tuple[tuple[float, float], ...]
    polygon: ConvexPolygon
    # the polygon's vertices, then the midpoint of each edge in edges() order
    boundary_report: tuple[tuple[complex, Verdict], ...]


def _check_rank(model: SpectralMeasureModel, k) -> float:
    """k as a float: inf on an infinite-dimensional model, else a finite
    rank within the model's dimension (see ``_check_finite_rank``)."""
    if k == RANK_INF and model.total_dim == INF:
        return INF
    return float(_check_finite_rank(k, model.total_dim))


def critical_directions(
    model: SpectralMeasureModel, anchors
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical direction vectors of every breakpoint line through each
    anchor, plus the midpoints between consecutive breakpoints.

    ``anchors`` is a sequence of complex points.  Returns flat ``vx, vy``
    and ``row``, the anchor index of each direction; the directions of one
    anchor are contiguous, anchors in order, and bit for bit those of a
    call with that anchor alone.

    Per anchor, the breakpoints come in a fixed order: the model's cached
    template (``SpectralMeasureModel._direction_template``: atoms, piece
    extremities, family limits, prefix points and approach directions),
    taken relative to the anchor with exact zeros dropped, with the tangents
    from the anchor to each arc circle and tail clearance circle after the
    entries of their component, then the midpoints.  A
    midpoint lies within a few ulps of the bisector of two lines
    consecutive by ``np.arctan2`` (the last and the first turned by pi), and
    is kept where the sweep's own sign tests put it strictly between them:
    a half turn takes the quarter turn, exactly collinear lines bound none,
    and a cell without one is a few ulps wide.  No breakpoint is merged
    away, so one anchor has at most twice as many directions as
    breakpoints, or one direction when it has none.
    """
    anchors = [complex(a) for a in anchors]
    n = len(anchors)
    (px, py, ppos), (fx, fy, fpos), circles = model._direction_template
    ax = np.array([a.real for a in anchors], dtype=np.float64)
    ay = np.array([a.imag for a in anchors], dtype=np.float64)

    # template points relative to each anchor, exact zeros dropped: row
    # major, so in order of anchor and position
    dx, dy = px - ax[:, None], py - ay[:, None]
    nonzero = (dx != 0.0) | (dy != 0.0)
    vx, vy = canonical_dirs(dx[nonzero], dy[nonzero])
    row, col = np.nonzero(nonzero)
    parts = []
    if len(fx):
        parts.append((np.tile(fx, n), np.tile(fy, n), np.tile(fpos, n), np.arange(n).repeat(len(fx))))
    if circles:
        parts.append(_tangents(ax, ay, circles))
    if parts:
        vx, vy, pos, row = (np.concatenate(p) for p in zip((vx, vy, ppos[col], row), *parts))
        # by anchor, then position; lexsort is stable, so the tangents of
        # one circle keep their order
        order = np.lexsort((pos, row))
        vx, vy, row = vx[order], vy[order], row[order]

    # per anchor, in the order of the line angles (a key only): the vectors
    # scaled exactly by powers of two, so that no product overflows, and
    # their unit vectors
    order = np.lexsort((np.arctan2(vy, vx), row))
    e = np.frexp(np.maximum(np.abs(vx), np.abs(vy)))[1]
    sx, sy = np.ldexp(vx, -e)[order], np.ldexp(vy, -e)[order]
    ux, uy = (sx, sy) / np.hypot(sx, sy)
    # beside each line the next, and beside an anchor's last its first
    # turned by pi
    counts = np.bincount(row, minlength=n)
    ends = np.cumsum(counts)[counts > 0]
    following = np.arange(1, len(vx) + 1)
    following[ends - 1] = ends - counts[counts > 0]
    turn = np.ones(len(vx))
    turn[ends - 1] = -1.0
    nx, ny = turn * sx[following], turn * sy[following]
    wx, wy = turn * ux[following], turn * uy[following]
    # u + w plus w - u turned a quarter turn clockwise is 2 (cos phi/2 +
    # sin phi/2) >= 2 times the bisector of a cell phi in [0, pi] wide, so
    # a few ulps off it at any width; kept where the float cross products
    # with the scaled vectors, the sweep's own sign tests, put it inside
    mx, my = ux + wx + (wy - uy), uy + wy + (ux - wx)
    mid = (sx * my > sy * mx) & (mx * ny > my * nx)
    mx, my = canonical_dirs(mx[mid], my[mid])

    # an anchor without breakpoints takes one direction: its dimensions do
    # not depend on the direction
    empty = np.flatnonzero(counts == 0)
    vx, vy = np.concatenate((vx, mx, np.ones(len(empty)))), np.concatenate((vy, my, np.zeros(len(empty))))
    row = np.concatenate((row, row[mid], empty))
    # breakpoints, then midpoints, then the lone directions: stably by anchor
    order = np.argsort(row, kind="stable")
    return vx[order], vy[order], row[order]


def _tangents(ax: np.ndarray, ay: np.ndarray, circles):
    """Canonical directions of the lines through each anchor tangent to each
    (center, radius, position) circle, with the position and anchor index
    of each, in the order (anchor, circle, [touching, beta + delta,
    beta - delta]).  An anchor within ``_TANGENT_SLACK`` of the circle has
    the touching line, normal to the radius; an anchor outside it the two
    tangents at beta +- delta around the direction beta to the center; the
    center itself has none.  The tangents are the unit vector toward the
    center turned by +- delta, with sin delta = r / d and cos delta =
    sqrt((1 - sin delta)(1 + sin delta)) at distance d > r."""
    center = np.array([c for c, _, _ in circles], dtype=complex)
    radius = np.array([r for _, r, _ in circles], dtype=np.float64)
    pos = np.array([p for _, _, p in circles], dtype=np.float64)
    rx, ry = center.real - ax[:, None], center.imag - ay[:, None]
    d = np.hypot(rx, ry)  # abs of the complex difference, bit for bit
    touch = (d != 0.0) & (np.abs(d - radius) <= _TANGENT_SLACK * np.maximum(1.0, radius))
    cross = d > radius
    have = np.stack((touch, cross, cross), axis=-1)
    tx, ty = np.zeros(have.shape), np.zeros(have.shape)
    tx[touch, 0], ty[touch, 0] = canonical_dirs(-ry[touch], rx[touch])
    ux, uy = rx[cross] / d[cross], ry[cross] / d[cross]
    sin = np.broadcast_to(radius, d.shape)[cross] / d[cross]
    cos = np.sqrt((1.0 - sin) * (1.0 + sin))
    for slot, s in ((1, sin), (2, -sin)):
        tx[cross, slot], ty[cross, slot] = canonical_dirs(cos * ux - s * uy, cos * uy + s * ux)
    row, circle, _ = np.nonzero(have)
    return tx[have], ty[have], pos[circle], row


def sweep_decision(sweep, flavors, k: float, row: np.ndarray):
    """The decision over the planes of the given flavors, per anchor of a
    sweep whose directions belong to anchors 0, 1, ... (``row``, in
    ascending order and with every anchor present, as
    :func:`critical_directions` returns them).

    Per anchor: OUT with (flavor, direction index) of the first plane whose
    dimension is certainly below k, ordered by (unsure, hi, flavor, index),
    so a plane whose dimension is exact wins over a bracketed one; IN when
    every plane is certainly at least k; UNCERTAIN otherwise.  Returns the
    list of verdicts and the lists of flavors and indices into the sweep
    (None where the verdict is not OUT).
    """
    lo, hi, fz = sweep.lo[flavors], sweep.hi[flavors], sweep.fuzzy[flavors]
    # a fuzzy surplus is finite, so it never reaches an infinite rank
    below = np.isfinite(hi) if k == INF else (~fz) & (hi < k)
    n = int(row[-1]) + 1 if len(row) else 0
    flavor, index = [None] * n, [None] * n
    if below.any():
        r, i = np.divmod(np.flatnonzero(below), below.shape[1])
        unsure = fz[r, i] | (lo[r, i] != hi[r, i])
        seg = row[i]
        j = np.lexsort((i, r, hi[r, i], unsure, seg))
        seg = seg[j]
        j = j[np.concatenate(([True], seg[1:] != seg[:-1]))]  # the first plane per anchor
        for a, f, d in zip(row[i[j]].tolist(), r[j].tolist(), i[j].tolist()):
            flavor[a], index[a] = flavors[f], d
    values = [Verdict.OUT] * n
    if None in flavor:
        short = set(row[~(lo >= k).all(axis=0)].tolist())
        for a, f in enumerate(flavor):
            if f is None:
                values[a] = Verdict.UNCERTAIN if a in short else Verdict.IN
    return values, flavor, index


_HCHP = [HAP, HAM, HBP, HBM]


def _decide(model: SpectralMeasureModel, kf: float, points: list[complex], flavor_sets):
    """Per point, one (verdict, plane, dim) per (flavors, witness) pair of
    ``flavor_sets``: the :func:`sweep_decision` over those flavors at the
    point and, when ``witness`` is true and the verdict is OUT, the plane
    (:func:`hrnr.spectral.flavor_plane`) and the dimension bound of a line
    that decides it; plane and dim are None otherwise, so a caller that
    reads only a verdict builds no plane for it.

    At a finite rank, where one point's sweep may hold more pairs than
    ``_LEVEL_DIRS`` (``SpectralMeasureModel._anchor_pairs``), the level
    table goes first: a point it certifies is IN for every set
    (:func:`_level_check`), and a point it puts well outside is OUT from
    one kernel row that decides every set OUT by a plane of exact dimension
    (:func:`_table_out`).  The rest are swept (:func:`_decide_by_sweep`).
    """
    out = [None] * len(points)
    if kf != INF and points and model._anchor_pairs > _LEVEL_DIRS:
        inside, far, dirs = ((Verdict.IN, None, None),) * len(flavor_sets), [], []
        for i, check in enumerate(_level_check(model, int(kf), points)):
            if check is Verdict.IN:
                out[i] = inside
            elif check is not None:
                far.append(i)
                dirs.append(check)
        if far:
            for i, row in zip(far, _table_out(model, kf, [points[i] for i in far], dirs, flavor_sets)):
                out[i] = row
    rest = [i for i, decided in enumerate(out) if decided is None]
    if rest:
        for i, decided in zip(rest, _decide_by_sweep(model, kf, [points[i] for i in rest], flavor_sets)):
            out[i] = decided
    return out


def _decide_by_sweep(model: SpectralMeasureModel, kf: float, points: list[complex], flavor_sets):
    """:func:`_decide` by the sweep alone, each point's decisions bit for
    bit those of the point alone.  The points go in chunks of as many as
    keep ``SpectralMeasureModel._anchor_pairs`` pairs each within
    ``kernels.BATCH_PAIRS`` (at least one), one direction build and one
    sweep per chunk; a chunk of one point sweeps with that point shared by
    every direction."""
    out = []
    step = max(1, kernels.BATCH_PAIRS // model._anchor_pairs)
    for start in range(0, len(points), step):
        chunk = points[start : start + step]
        vx, vy, row = critical_directions(model, chunk)
        anchor = chunk[0] if len(chunk) == 1 else np.array(chunk, dtype=complex)[row]
        sweep = direction_sweep(model, anchor, vx, vy)
        per_set = []
        for flavors, witness in flavor_sets:
            values, flavor, index = sweep_decision(sweep, flavors, kf, row)
            per_set.append([
                (value, flavor_plane(sweep, f, i, z), float(sweep.hi[f, i]))
                if witness and value is Verdict.OUT
                else (value, None, None)
                for z, value, f, i in zip(chunk, values, flavor, index)
            ])
        out.extend(zip(*per_set))
    return out


def _level_check(model: SpectralMeasureModel, k: int, points: list[complex]) -> list[Verdict | int | None]:
    """Per point z, what the model's k-th support level table proves:
    ``Verdict.IN``; the index j of a table direction whose line through z
    is expected to decide OUT (:func:`_table_out` sweeps it); or None, for
    a point left to the sweep.  With the margin m = min_j [h_k(xi_j)
    - Re(e^{i xi_j} z)], z is IN when m exceeds (R + |z|) pi / J +
    4 eps_geom, and gets the first arg-min j when m lies below
    -(4 eps_geom + 1e-11 (R + |z|)).

    The table holds the snapped directions xi_j = 2 pi j / J, J =
    ``_LEVEL_DIRS``, their k-th levels (one
    :func:`hrnr.spectral.support_levels` call) and R = ``model.max_abs()``.
    It is built on the rank's first call and remembered on the model.

    IN.  f(xi) = h_k(xi) - Re(e^{i xi} z) moves by at most (R + |z|)
    |xi - xi'| between directions, and every xi lies within pi / J of the
    grid, so f exceeds 4 eps_geom everywhere: on each side of each line
    through z the k-th level lies beyond the eps band, so the finite point
    masses reaching k fall in the clear side bucket, or a piece, an infinite
    atom or a family limit crosses it and sets that side's mask infinite.
    So each open side has lo >= k, and so has every half closed-half and
    closed plane, which holds one: the IN of :func:`sweep_decision` for
    every set of flavors.  The chord bound 2 sin(pi / 2J) falls short of
    pi / J by about 1e-9 (R + |z|), which covers the rounding of the table
    and of the sweep.

    OUT.  Let l be the line through z normal to xi_j.  Every p with
    Re(e^{i xi_j} p) <= h_k(xi_j), pieces, infinite atoms and family limits
    included, lies at least |m| from l on one side of it, and the measure
    above h_k(xi_j) has dimension below k.  The sweep takes the
    breakpoints of z (directions toward atoms, prefix points, segment ends,
    region vertices and family limits, arc ends, and tangents to arc
    circles and tail clearance circles) and the midpoint of each cell
    between two of them.  Within a cell no point crosses the line, nor does
    a segment, region or arc, and the line meets a clearance circle
    throughout or nowhere; the distance |p - z| |sin(theta - theta_p)| of a
    point is concave in the line angle theta, and so is its minimum over a
    segment, region or arc.  So at the midpoint of the cell holding l,
    every such p lies at least |m| / 2 > 2 eps_geom from the line, on the
    same side; a cell without a midpoint is a few ulps wide, and at either
    of its lines every such p lies at least |m| less a few ulps of
    (R + |z|) from it.  The sweep's band is at most 2 eps_geom wide in
    distance: it scales each direction v to a length of at least 1/2 and
    tests |v x (p - z)| against eps_geom |v|, which is eps_geom in
    distance.  Every such p then falls on the clear far side, and each
    plane of the other side, half closed-half, closed or open, holds only
    the measure above h_k(xi_j), with hi below k and, the tails resolved as
    at l, no fuzzy bound: the sweep returns OUT too for every set, though
    its witness may be another plane, of smaller hi.  A row that
    :func:`_table_out` accepts certifies itself anyway: its planes lie
    through z with exact dimension below k.  The 1e-11 (R + |z|) covers
    the rounding: about 2e-15 (R + |z|) in the table, the projection of z
    and the sweep's side values, and a few ulps of angle, times R + |z|,
    from a midpoint (within a few ulps of the bisector at any cell width)
    or from a line of a cell without one.  The argument covers point
    masses, finite and infinite, with that rounding, and pieces and family
    tails in exact arithmetic; the differential tests on the region_wu pool
    hold the float arithmetic of their masks to :func:`_decide_by_sweep`.
    """
    tables = model._level_tables
    if k not in tables:
        xis = _grid(_LEVEL_DIRS)
        c, s = snap_dirs(np.cos(xis), np.sin(xis))
        tables[k] = (c, s, support_levels(model, k, xis), model.max_abs())
    c, s, levels, radius = tables[k]
    step, eps = math.pi / _LEVEL_DIRS, DEFAULT_TOL.eps_geom
    out = []
    for z in points:
        gap = levels - (c * z.real - s * z.imag)
        m, scale = float(gap.min()), radius + abs(z)
        if m > scale * step + 4 * eps:
            out.append(Verdict.IN)
        elif m < -(4 * eps + 1e-11 * scale):
            out.append(int(gap.argmin()))
        else:
            out.append(None)
    return out


def _table_out(model: SpectralMeasureModel, kf: float, points: list[complex], dirs: list[int], flavor_sets):
    """Per point z with table direction j (:func:`_level_check`), the
    decisions of :func:`_decide` from the line through z normal to xi_j
    alone, or None where it does not decide every set OUT by a plane of
    exact dimension: such a plane lies through z with dimension ``dim``
    below k, so the row certifies itself, and a plane only bracketed (a
    point mass in the eps band of the line) is left to the sweep.  One
    sweep with one anchor per line per chunk of at most
    ``kernels.BATCH_PAIRS`` pairs, then :func:`sweep_decision` and
    :func:`hrnr.spectral.flavor_plane` as in :func:`_decide_by_sweep`.
    """
    c, s, _, _ = model._level_tables[int(kf)]
    step = max(1, kernels.BATCH_PAIRS // max(1, len(model._point_data[0])))
    out = []
    for start in range(0, len(points), step):
        chunk, j = points[start : start + step], dirs[start : start + step]
        # the line direction is the normal (cos xi_j, -sin xi_j) turned by pi / 2
        vx, vy = canonical_dirs(s[j], c[j])
        sweep = direction_sweep(model, np.array(chunk, dtype=complex), vx, vy)
        row = np.arange(len(chunk))
        per_set = [sweep_decision(sweep, flavors, kf, row)[:2] for flavors, _ in flavor_sets]
        for a, z in enumerate(chunk):
            picks = [flavor[a] for values, flavor in per_set if values[a] is Verdict.OUT]
            exact = len(picks) == len(per_set) and all(sweep.lo[f, a] == sweep.hi[f, a] for f in picks)
            out.append(tuple(
                (Verdict.OUT, flavor_plane(sweep, f, a, z), float(sweep.hi[f, a])) if witness else (Verdict.OUT, None, None)
                for f, (_, witness) in zip(picks, flavor_sets)
            ) if exact else None)
    return out


def member_many(model: SpectralMeasureModel, k, points) -> list[MembershipVerdict]:
    """:func:`member` at every point, in order, from one :func:`_decide`
    call: the verdict and witness of each point alone, but for a point the
    level table decides OUT, whose witness has exact dimension
    ``witness_dim`` below k, not always the least of all planes through it.
    """
    kf = _check_rank(model, k)
    points = [require_finite(z, "point") for z in points]
    return [MembershipVerdict(*hchp) for (hchp,) in _decide(model, kf, points, [(_HCHP, True)])]


def member(model: SpectralMeasureModel, k, lam: complex) -> MembershipVerdict:
    """Decide lambda against the rank-k range through :func:`_decide`, as
    :func:`member_many` does with one point (called directly, since most
    calls end at the level table).  OUT verdicts carry a witness half
    closed-half plane whose measure dimension ``witness_dim`` is certainly
    below k."""
    kf = _check_rank(model, k)
    ((hchp,),) = _decide(model, kf, [require_finite(lam, "point")], [(_HCHP, True)])
    return MembershipVerdict(*hchp)


def region(model: SpectralMeasureModel, k: int, n_angles: int) -> RegionEstimate:
    """Closure-level reconstruction: intersect the support half planes
    Re(e^{i xi} mu) <= h_k(xi) over the uniform grid xi = 2 pi j / n_angles,
    their levels from one :func:`hrnr.spectral.support_levels` call, then
    classify sampled boundary points pointwise."""
    if not (_is_count(n_angles) and n_angles >= 8):
        raise ValueError(f"n_angles must be an integer of at least 8, got {n_angles!r}")
    k = _check_finite_rank(k, model.total_dim)
    xis = _grid(n_angles).tolist()
    levels = support_levels(model, k, xis).tolist()
    poly = halfplane_intersection(support_lines(xis, levels), model.support_radius)
    points = _boundary_points(poly)
    # verdicts only: the boundary report reads no witness plane
    verdicts = _decide(model, float(k), points, [(_HCHP, False)])
    report = [(z, value) for z, ((value, _, _),) in zip(points, verdicts)]
    return RegionEstimate(k, tuple(zip(xis, levels)), poly, tuple(report))


def _boundary_points(poly: ConvexPolygon) -> list[complex]:
    pts = list(poly.vertices)
    for a, b in poly.edges():
        pts.append(0.5 * (a + b))
    return pts


def selfadjoint_interval(model: SpectralMeasureModel, k: int) -> tuple[float, float] | None:
    """[a, b] with a/b the k-th spectral levels from the left/right; the
    rank-k range of a self-adjoint operator is exactly this interval.
    Returns None when the levels cross (empty range, e.g. k = n with
    distinct simple eigenvalues)."""
    eps = DEFAULT_TOL.eps_geom
    for a in model.atoms:
        if abs(a.location.imag) > eps:
            raise NotSelfAdjoint(f"atom at {a.location} is off the real axis")
    for piece in model.pieces:
        if isinstance(piece, Segment):
            if abs(piece.a.imag) > eps or abs(piece.b.imag) > eps:
                raise NotSelfAdjoint("segment leaves the real axis")
        else:
            raise NotSelfAdjoint("arcs and regions always carry off-axis mass")
    for fam in model.families:
        off = [abs(fam.limit.imag)] + [abs(p.imag) for p, _ in fam.prefix]
        if max(off) > eps or abs(math.sin(fam.approach_angle)) > 1e-9 or fam.approach_side != "on":
            raise NotSelfAdjoint("family leaves the real axis")
    # the level from the left is minus the level in direction pi
    b, neg_a = support_levels(model, k, [0.0, math.pi]).tolist()
    a = -neg_a
    if a > b:
        return None
    return (a, b)


def is_boundary(model: SpectralMeasureModel, k: int, lam: complex) -> BoundaryKind:
    """For members: boundary iff some open half plane at lambda is deficient."""
    kf = _check_rank(model, k)
    lam = require_finite(lam, "point")
    verdicts = _decide(model, kf, [lam], [(_HCHP, False), ([OA, OB], False)])[0]
    (hchp, _, _), (open_side, _, _) = verdicts
    if hchp is Verdict.OUT:
        return BoundaryKind.NOT_MEMBER
    if hchp is Verdict.UNCERTAIN:
        raise UncertainGeometry("membership itself is uncertain at this point")
    if open_side is Verdict.OUT:
        return BoundaryKind.BOUNDARY_IN
    if open_side is Verdict.IN:
        return BoundaryKind.INTERIOR
    raise UncertainGeometry("open-side dimensions are unresolved at this point")
