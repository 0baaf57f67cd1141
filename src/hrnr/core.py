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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import (
    EigFailure,
    InsufficientDimension,
    NotSelfAdjoint,
    RankExceedsDimension,
    UncertainGeometry,
)
from .geometry import (
    DEFAULT_TOL,
    ConvexPolygon,
    HalfClosedHalfPlane,
    Verdict,
    canonical_dir,
    canonical_dirs,
    convex_hull,
    halfplane_intersection,
    require_finite,
    support_plane,
    trig_dir,
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
    Region,
    Segment,
    SpectralMeasureModel,
    _is_count,
    _is_finite_rank,
    direction_sweep,
    lambda_k_inf,
    lambda_k_sup,
    normal_eigvals,
    pushforward,
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
    boundary_report: tuple[tuple[complex, Verdict], ...]


def _check_rank(model: SpectralMeasureModel, k) -> float:
    if k == RANK_INF:
        if model.total_dim != INF:
            raise RankExceedsDimension("rank inf requires an infinite-dimensional model")
        return INF
    if not _is_finite_rank(k):
        raise ValueError(f"rank must be a positive integer or inf, got {k!r}")
    if model.total_dim < k:
        raise RankExceedsDimension(f"rank {k} exceeds total dimension {model.total_dim}")
    return float(k)


def _check_matrix_rank(k, n: int) -> None:
    """ValueError unless k is a rank 1 <= k <= n of an n x n matrix."""
    if not (_is_finite_rank(k) and k <= n):
        raise ValueError(f"need an integer rank 1 <= k <= {n}, got {k!r}")


def critical_directions(
    model: SpectralMeasureModel,
    anchor: complex,
    extra_angles: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical direction vectors of every breakpoint line through anchor,
    plus the midpoints between consecutive breakpoints.

    The breakpoints come in a fixed order: the model's cached template
    (``SpectralMeasureModel._direction_template``: atoms, piece extremities,
    family limits, prefix points and approach directions), taken relative to
    the anchor with exact zeros dropped, with the tangents from the anchor to
    each arc circle and tail clearance circle after the entries of their
    component, then ``extra_angles``, then the midpoints.  Lines whose
    angles mod pi round to the same 12 decimals keep their first direction.

    Breakpoint angles come from ``math.atan2``, because ``np.arctan2`` can
    differ in the last bit and they fix the midpoints.  Rounded angles can
    only be equal within about 1e-12, so only the angles within 2e-12 of
    another (midpoint angles located by ``np.arctan2``) are rounded, by
    Python's ``round`` of the ``math.atan2`` angle: ``np.round`` multiplies
    by 1e12 first and can round the other way.
    """
    (px, py, ppos), (fx, fy, fpos), circles = model._direction_template
    vx, vy = px - anchor.real, py - anchor.imag
    nonzero = (vx != 0.0) | (vy != 0.0)
    tangents, tpos = [], []
    for center, radius, pos in circles:
        n = len(tangents)
        _add_tangents(tangents, anchor, center, radius)
        tpos += [pos] * (len(tangents) - n)
    tx, ty = np.array(tangents, dtype=np.float64).reshape(-1, 2).T
    order = np.argsort(np.concatenate([ppos[nonzero], fpos, tpos]), kind="stable")
    vx, vy = canonical_dirs(vx[nonzero], vy[nonzero])
    vx, vy = np.concatenate([vx, fx, tx])[order], np.concatenate([vy, fy, ty])[order]
    if len(extra_angles):
        ex, ey = trig_dirs(np.asarray(extra_angles, dtype=np.float64))
        vx, vy = np.concatenate([vx, ex]), np.concatenate([vy, ey])
    if not len(vx):
        # no breakpoint: the dimension does not depend on the direction
        return trig_dirs(np.zeros(1))

    angles = _angles(vx, vy)
    breaks = np.sort(angles)
    following = np.concatenate([breaks[1:], breaks[:1] + math.pi])
    mx, my = trig_dirs((0.5 * (breaks + following))[following - breaks > 1e-12])
    vx, vy = np.concatenate([vx, mx]), np.concatenate([vy, my])

    # only angles within 2e-12 of another can share a rounded key
    approx = np.concatenate([angles, np.arctan2(my, mx) % math.pi])
    by_angle = np.argsort(approx)
    close = np.flatnonzero(approx[by_angle[1:]] - approx[by_angle[:-1]] <= 2e-12)
    keep = np.ones(len(vx), dtype=bool)
    keep[by_angle[close]] = keep[by_angle[close + 1]] = False
    near = np.flatnonzero(~keep)
    keys = [round(a, 12) for a in _angles(vx[near], vy[near]).tolist()]
    first = dict(zip(reversed(keys), reversed(near.tolist())))  # earliest index per key
    keep[list(first.values())] = True
    return vx[keep], vy[keep]


def _angles(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Line angles in [0, pi), by ``math.atan2``."""
    return np.fromiter(map(math.atan2, vy.tolist(), vx.tolist()), np.float64, len(vx)) % math.pi


def _add_tangents(vecs, anchor: complex, center: complex, radius: float):
    """Directions of the lines through anchor tangent to the circle."""
    rel = center - anchor
    d = abs(rel)
    if d == 0.0:
        return
    if abs(d - radius) <= _TANGENT_SLACK * max(1.0, radius):
        vecs.append(canonical_dir(-rel.imag, rel.real))
    if d > radius:
        beta = math.atan2(rel.imag, rel.real)
        delta = math.asin(min(1.0, radius / d))
        for phi in (beta + delta, beta - delta):
            vecs.append(trig_dir(phi))


def _witness_from(sweep, flavor: int, i: int, anchor: complex) -> HalfClosedHalfPlane:
    vx, vy = float(sweep.vx[i]), float(sweep.vy[i])
    if flavor in (HAP, HAM):
        nx, ny = -vy, vx
    else:
        nx, ny = vy, -vx
    ray = 1 if flavor in (HAP, HBP) else -1
    return HalfClosedHalfPlane(
        anchor, math.atan2(ny, nx) % (2 * math.pi), ray, normal=(nx, ny)
    )


def sweep_decision(sweep, flavors, k: float) -> tuple[Verdict, int | None, int | None]:
    """The decision over the planes of the given flavors in a sweep.

    OUT with (flavor, direction index) of the first plane whose dimension is
    certainly below k, ordered by (unsure, hi, flavor, index), so a plane
    whose dimension is exact wins over a bracketed one; IN when every plane
    is certainly at least k; UNCERTAIN otherwise.
    """
    lo, hi, fz = sweep.lo[flavors], sweep.hi[flavors], sweep.fuzzy[flavors]
    # a fuzzy surplus is finite, so it never reaches an infinite rank
    below = np.isfinite(hi) if k == INF else (~fz) & (hi < k)
    if below.any():
        r, i = np.nonzero(below)
        unsure = fz[r, i] | (lo[r, i] != hi[r, i])
        j = np.lexsort((i, r, hi[r, i], unsure))[0]
        return Verdict.OUT, flavors[r[j]], int(i[j])
    if bool((lo >= k).all()):
        return Verdict.IN, None, None
    return Verdict.UNCERTAIN, None, None


_HCHP = [HAP, HAM, HBP, HBM]


def member(model: SpectralMeasureModel, k, lam: complex) -> MembershipVerdict:
    """Decide lambda against the rank-k range by the critical-direction sweep.

    OUT verdicts carry a witness half closed-half plane whose measure
    dimension is certainly below k.
    """
    kf = _check_rank(model, k)
    lam = require_finite(lam, "point")
    vx, vy = critical_directions(model, lam)
    sweep = direction_sweep(model, lam, vx, vy)
    value, f, i = sweep_decision(sweep, _HCHP, kf)
    if value is Verdict.OUT:
        return MembershipVerdict(value, _witness_from(sweep, f, i, lam), float(sweep.hi[f, i]))
    return MembershipVerdict(value)


def member_infinity(model: SpectralMeasureModel, lam: complex) -> MembershipVerdict:
    return member(model, RANK_INF, lam)


def region(model: SpectralMeasureModel, k: int, n_angles: int) -> RegionEstimate:
    """Closure-level reconstruction: intersect the support half planes
    Re(e^{i xi} mu) <= h(xi) over a uniform direction grid, then classify
    sampled boundary points pointwise."""
    if not (_is_count(n_angles) and n_angles >= 8):
        raise ValueError(f"n_angles must be an integer of at least 8, got {n_angles!r}")
    if not _is_finite_rank(k):
        raise ValueError("region needs a finite rank k >= 1")
    if model.total_dim < k:
        raise InsufficientDimension(f"rank {k} exceeds total dimension")
    samples = []
    for j in range(n_angles):
        xi = 2 * math.pi * j / n_angles
        samples.append((xi, lambda_k_sup(pushforward(model, xi), int(k))))
    planes = [support_plane(xi, h) for xi, h in samples]
    poly = halfplane_intersection(planes, bound=model.support_radius)
    report = []
    for z in _boundary_points(poly):
        report.append((z, member(model, int(k), z).value))
    return RegionEstimate(int(k), tuple(samples), poly, tuple(report))


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
    if not _is_finite_rank(k):
        raise ValueError("k must be a positive integer")
    if model.total_dim < k:
        raise InsufficientDimension(f"rank {k} exceeds total dimension")
    rm = pushforward(model, 0.0)
    a = lambda_k_inf(rm, int(k))
    b = lambda_k_sup(rm, int(k))
    if a > b:
        return None
    return (a, b)


def is_boundary(model: SpectralMeasureModel, k: int, lam: complex) -> BoundaryKind:
    """For members: boundary iff some open half plane at lambda is deficient."""
    kf = _check_rank(model, k)
    lam = require_finite(lam, "point")
    vx, vy = critical_directions(model, lam)
    sweep = direction_sweep(model, lam, vx, vy)
    value, _, _ = sweep_decision(sweep, _HCHP, kf)
    if value is Verdict.OUT:
        return BoundaryKind.NOT_MEMBER
    if value is Verdict.UNCERTAIN:
        raise UncertainGeometry("membership itself is uncertain at this point")
    value, _, _ = sweep_decision(sweep, [OA, OB], kf)
    if value is Verdict.OUT:
        return BoundaryKind.BOUNDARY_IN
    if value is Verdict.IN:
        return BoundaryKind.INTERIOR
    raise UncertainGeometry("open-side dimensions are unresolved at this point")


def matrix_lambda_k(M: np.ndarray, k: int, xi: float) -> float:
    """k-th largest eigenvalue of Re(e^{i xi} M)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    _check_matrix_rank(k, n)
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
    _check_matrix_rank(k, n)
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
