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

Every decision here (membership, boundary kind, and the closed witness
planes of the Wu check and of exclusion certificates) takes one path:
``_decide`` builds the directions of a chunk of points and sweeps them once,
:func:`sweep_decision` decides each requested set of plane flavors per
point, and :func:`hrnr.spectral.flavor_plane` turns the flavor and direction
that decided an OUT verdict into its plane where the caller reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations

import numpy as np

from .errors import EigFailure, NotSelfAdjoint, UncertainGeometry
from .geometry import (
    DEFAULT_TOL,
    ConvexPolygon,
    HalfClosedHalfPlane,
    Verdict,
    _grid,
    _intersect_lines,
    canonical_dirs,
    convex_hull,
    require_finite,
    snap_dirs,
    support_lines,
    trig_dirs,
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
    normal_eigvals,
    support_levels,
)

RANK_INF = INF

_TANGENT_SLACK = 1e-7


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
    model: SpectralMeasureModel,
    anchors,
    extra_angles=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical direction vectors of every breakpoint line through each
    anchor, plus the midpoints between consecutive breakpoints.

    ``anchors`` is a sequence of complex points and ``extra_angles``, when
    given, holds one sequence of extra line angles per anchor.  Returns
    flat ``vx, vy`` and ``row``, the anchor index of each direction; the
    directions of one anchor are contiguous, anchors in order, and bit for
    bit those of a call with that anchor alone.

    Per anchor, the breakpoints come in a fixed order: the model's cached
    template (``SpectralMeasureModel._direction_template``: atoms, piece
    extremities, family limits, prefix points and approach directions),
    taken relative to the anchor with exact zeros dropped, with the tangents
    from the anchor to each arc circle and tail clearance circle after the
    entries of their component, then the extra angles, then the midpoints.
    Lines whose angles mod pi round to the same 12 decimals keep their first
    direction.

    Breakpoint angles come from ``math.atan2``, because ``np.arctan2`` can
    differ in the last bit and they fix the midpoints.  Rounded angles can
    only be equal within about 1e-12, so only the angles within 2e-12 of
    another (midpoint angles located by ``np.arctan2``) are rounded, by
    Python's ``round`` of the ``math.atan2`` angle: ``np.round`` multiplies
    by 1e12 first and can round the other way.
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
    if extra_angles is not None:
        # after every template entry of their anchor, in the given order
        counts = [len(e) for e in extra_angles]
        ex, ey = trig_dirs(np.fromiter(chain.from_iterable(extra_angles), np.float64, sum(counts)))
        parts.append((ex, ey, np.full(len(ex), np.inf), np.arange(n).repeat(counts)))
    if parts:
        vx, vy, pos, row = (np.concatenate(p) for p in zip((vx, vy, ppos[col], row), *parts))
        # by anchor, then position; lexsort is stable, so the tangents of
        # one circle keep their order
        order = np.lexsort((pos, row))
        vx, vy, row = vx[order], vy[order], row[order]

    # per anchor: the angles in ascending order, each paired with the next
    # one, the largest with the smallest plus pi, and the midpoints of the
    # pairs; row is sorted, so the regrouped angles keep it (one anchor
    # needs no regrouping, which keeps its build as cheap as before)
    angles = _angles(vx, vy)
    counts = np.bincount(row, minlength=n)
    if n == 1:
        breaks = np.sort(angles)
        following = np.concatenate([breaks[1:], breaks[:1] + math.pi])
    else:
        by = np.argsort(angles)
        breaks = angles[by[np.argsort(row[by], kind="stable")]]
        ends = np.cumsum(counts)[counts > 0]
        following = np.empty_like(breaks)
        following[:-1] = breaks[1:]
        following[ends - 1] = breaks[ends - counts[counts > 0]] + math.pi
    mid = following - breaks > 1e-12
    mx, my = trig_dirs((0.5 * (breaks + following))[mid])

    approx = np.concatenate([angles, np.arctan2(my, mx) % math.pi])
    vx, vy, row = np.concatenate([vx, mx]), np.concatenate([vy, my]), np.concatenate([row, row[mid]])
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        # an anchor without breakpoints takes one direction: its dimensions
        # do not depend on the direction
        zx, zy = trig_dirs(np.zeros(len(empty)))
        vx, vy = np.concatenate([vx, zx]), np.concatenate([vy, zy])
        approx, row = np.concatenate([approx, np.zeros(len(empty))]), np.concatenate([row, empty])
    if n > 1:
        # breakpoints, then midpoints, then the lone directions: stably by anchor
        order = np.argsort(row, kind="stable")
        vx, vy, approx, row = vx[order], vy[order], approx[order], row[order]

    # only angles within 2e-12 of another can share a rounded key; those of
    # other anchors only add candidates, since the keys include the anchor
    by = np.argsort(approx)
    close = np.flatnonzero(approx[by[1:]] - approx[by[:-1]] <= 2e-12)
    keep = np.ones(len(vx), dtype=bool)
    keep[by[close]] = keep[by[close + 1]] = False
    near = np.flatnonzero(~keep)
    keys = zip(row[near].tolist(), [round(a, 12) for a in _angles(vx[near], vy[near]).tolist()])
    first = dict(zip(reversed(list(keys)), reversed(near.tolist())))  # earliest index per key
    keep[list(first.values())] = True
    return vx[keep], vy[keep], row[keep]


def _angles(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Line angles in [0, pi), by ``math.atan2``."""
    return np.fromiter(map(math.atan2, vy.tolist(), vx.tolist()), np.float64, len(vx)) % math.pi


def _tangents(ax: np.ndarray, ay: np.ndarray, circles):
    """Canonical directions of the lines through each anchor tangent to each
    (center, radius, position) circle, with the position and anchor index
    of each, in the order (anchor, circle, [touching, beta + delta,
    beta - delta]).  An anchor within ``_TANGENT_SLACK`` of the circle has
    the touching line, normal to the radius; an anchor outside it the two
    tangents at beta +- delta around the direction beta to the center; the
    center itself has none.  Angles, cosines and sines come from ``math``,
    as in :func:`_angles`, so the directions do not depend on numpy's
    vectorized trigonometry."""
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
    beta = np.fromiter(map(math.atan2, ry[cross].tolist(), rx[cross].tolist()), np.float64)
    ratio = np.minimum(1.0, np.broadcast_to(radius, d.shape)[cross] / d[cross])
    delta = np.fromiter(map(math.asin, ratio.tolist()), np.float64)
    for slot, phi in ((1, beta + delta), (2, beta - delta)):
        phi = phi.tolist()
        cos = np.fromiter(map(math.cos, phi), np.float64, len(phi))
        sin = np.fromiter(map(math.sin, phi), np.float64, len(phi))
        tx[cross, slot], ty[cross, slot] = canonical_dirs(*snap_dirs(cos, sin))
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
        r, i = np.nonzero(below)
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

# Batched sweeps take their anchors in chunks whose directions times points
# stay within this many pairs, which bounds the working memory of the
# kernel's dense body to a few MB; an anchor that alone exceeds it is swept
# by itself, through the shared-anchor kernel.
BATCH_PAIRS = 1 << 16


def _anchor_chunks(model: SpectralMeasureModel, n_extra: list[int]):
    """Slices of consecutive anchors, given each anchor's number of extra
    angles, whose direction-point pairs stay within ``BATCH_PAIRS``.

    An anchor has at most twice as many directions as breakpoints (each
    breakpoint adds at most one midpoint), and at most three tangents per
    circle; that bound is counted, since the directions are not built yet.
    """
    (px, _, _), (fx, _, _), circles = model._direction_template
    base = len(px) + len(fx) + 3 * len(circles)
    points = max(1, len(model._point_data[0]))
    start, total = 0, 0
    for a, extra in enumerate(n_extra):
        pairs = max(1, 2 * (base + extra)) * points
        if a > start and total + pairs > BATCH_PAIRS:
            yield slice(start, a)
            start, total = a, 0
        total += pairs
    if start < len(n_extra):
        yield slice(start, len(n_extra))


def _decide(
    model: SpectralMeasureModel, kf: float, points: list[complex], flavor_sets, extra_angles=None
):
    """Per point, one (verdict, plane, dim) per (flavors, witness) pair of
    ``flavor_sets``: the :func:`sweep_decision` over those flavors at the
    point and, when ``witness`` is true and the verdict is OUT, the plane
    (:func:`hrnr.spectral.flavor_plane`) and the dimension bound of the line
    that decided it; plane and dim are None otherwise, so a caller that
    reads only a verdict builds no plane for it.

    The points go in chunks (see ``BATCH_PAIRS``), one direction build and
    one sweep per chunk; ``extra_angles``, when given, holds one sequence of
    extra line angles per point.  A chunk of one point sweeps with that
    point shared by every direction.
    """
    n_extra = [0] * len(points) if extra_angles is None else [len(e) for e in extra_angles]
    out = []
    for part in _anchor_chunks(model, n_extra):
        chunk = points[part]
        extra = None if extra_angles is None else extra_angles[part]
        vx, vy, row = critical_directions(model, chunk, extra)
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


def member_many(model: SpectralMeasureModel, k, points) -> list[MembershipVerdict]:
    """:func:`member` at every point, in order, with one direction build,
    one sweep and one decision per chunk of points (see ``BATCH_PAIRS``).
    Each verdict, witness included, is bit for bit that of the point alone.
    """
    kf = _check_rank(model, k)
    points = [require_finite(z, "point") for z in points]
    return [MembershipVerdict(*hchp) for (hchp,) in _decide(model, kf, points, [(_HCHP, True)])]


def member(model: SpectralMeasureModel, k, lam: complex) -> MembershipVerdict:
    """Decide lambda against the rank-k range by the critical-direction sweep.

    OUT verdicts carry a witness half closed-half plane whose measure
    dimension is certainly below k.
    """
    return member_many(model, k, [lam])[0]


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
    poly = _intersect_lines(support_lines(xis, levels), model.support_radius)
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


def matrix_lambda_k(M: np.ndarray, k: int, xi: float) -> float:
    """k-th largest eigenvalue of Re(e^{i xi} M)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    k = _check_finite_rank(k, n)
    H = 0.5 * (np.exp(1j * xi) * M + np.exp(-1j * xi) * M.conj().T)
    try:
        evals = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return float(evals[n - k])


def ckz_member(M: np.ndarray, k: int, lam: complex) -> Verdict:
    """Finite-matrix oracle: lambda is in the rank-k range iff it lies in the
    convex hull of every (n-k+1)-subset of the eigenvalues."""
    lam = require_finite(lam, "point")
    eigvals = [complex(v) for v in normal_eigvals(M)]
    n = len(eigvals)
    k = _check_finite_rank(k, n)
    saw_uncertain = False
    for idx in combinations(range(n), n - k + 1):
        hull = convex_hull([eigvals[i] for i in idx])
        v = hull.classify(lam)
        if v is Verdict.OUT:
            return Verdict.OUT
        if v is Verdict.UNCERTAIN:
            saw_uncertain = True
    return Verdict.UNCERTAIN if saw_uncertain else Verdict.IN


def decompose_excluding(
    model: SpectralMeasureModel, k: int, lam: complex
) -> tuple[HalfClosedHalfPlane, int] | None:
    """Witness split for excluded points: H with dim ran E(H) = r < k, so the
    operator decomposes into an (<= k-1)-dimensional block with numerical
    range inside H and a complement block supported in H's complement.
    Returns None when lambda is a member."""
    verdict = member(model, k, lam)
    if verdict.value is Verdict.IN:
        return None
    if verdict.value is Verdict.UNCERTAIN:
        raise UncertainGeometry("membership undecided; no certified witness")
    return verdict.witness, int(verdict.witness_dim)
