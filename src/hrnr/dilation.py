"""Unitary dilations of contractions and the range-equality machinery.

Every contraction T dilates to a unitary on a doubled space via the Halmos
block construction; rotating the defect blocks by a phase alpha yields a
one-parameter family.  For strict contractions the family
(I (+) V) Halmos(T, 0) (I (+) W) over unitary V, W is exactly the set of all
unitary dilations on the doubled space.  The intersection of the
dilations' rank-k ranges is built for a normal contraction only; a
contraction that is not normal raises NotNormal.

For a normal contraction T the equality proof is constructive: a point
outside the closure of the rank-k range is separated from it in some
direction xi, and the block dilation that splits off the fewer than k
eigenvalues beyond the separating level through 2x2 scalar dilations, and
carries the rest by a Halmos block rotated by xi, excludes the point.  It
is assembled in one array pass: the 2x2 blocks of all eigenvalues, the
scalar dilations among them in one closed form, make four diagonals, and
four n x n products with the eigenvectors give its four blocks.  One
Hermitian eigensolve certifies the exclusion: if P U P = lam P for a rank-k
projection P, then P Re(e^{i xi} U) P = Re(e^{i xi} lam) P, so by Cauchy
interlacing the k-th largest eigenvalue of Re(e^{i xi} U) is at least
Re(e^{i xi} lam), for any square U, normal or not.  By the same
interlacing no dilation has a rank-k level below T's own L_k(xi), and the
block dilation that splits off exactly the eigenvalues beyond L_k(xi)
attains it, so the planes Re(e^{i xi} z) <= L_k(xi) at the breakpoints of
L_k cut out the intersection of the dilations' ranges exactly.  One scan
per (T, k) gives those breakpoints together with their levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .core import (
    _HCHP,
    RegionEstimate,
    _check_rank,
    _decide,
)
from .errors import (
    AtomNotStrictContraction,
    CoincidentEndpoints,
    EigFailure,
    InvariantViolation,
    NoSeparatingAngle,
    NotContraction,
    NotOnSegment,
    NotStrictContraction,
    NoWuWitness,
)
from .geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    Verdict,
    _grid,
    halfplane_intersection,
    require_finite,
    require_finite_real,
    support_lines,
)
from .spectral import (
    CA,
    CB,
    INF,
    SpectralMeasureModel,
    _check_finite_rank,
    _finite_square_matrix,
    _is_count,
    dim_ran_closed,
    require_normal,
)

# Evenly spaced directions joined to the tie normals of a normal
# contraction, so that no gap between consecutive plane normals reaches pi.
_FLOOR_ANGLES = 8

# A pair normal is a breakpoint of L_k when the pair projects within this
# of L_k there: the tie test of the plane directions.
_TIE = 1e-12

# Interior samples per polygon edge in a Wu check, besides the vertices.
WU_SAMPLES_PER_EDGE = 9


class WuVerdict(Enum):
    EQUALITY_PREDICTED = "equality-predicted"
    STRICT_CONTAINMENT_PREDICTED = "strict-containment-predicted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DilationArtifact:
    matrix: np.ndarray
    alpha: float
    unitarity_residual: float
    compression_residual: float
    defect_rank: int


@dataclass(frozen=True)
class ExclusionCertificate:
    point: complex
    plane: ClosedHalfPlane
    scalar_dilations: tuple[tuple[complex, complex, complex, float], ...]  # (d, xi, eta, t)
    beta: float
    mu: float
    certified_dim: int


@dataclass(frozen=True)
class WuEvidence:
    point: complex
    witness: ClosedHalfPlane | None
    dim: float | None
    note: str | None = None


@dataclass(frozen=True)
class WuReport:
    """The prediction and its evidence, one entry per excluded sample, plus
    the samples that gave none: those within 10 eps_geom of a point mass
    (not swept) and those whose membership is UNCERTAIN."""

    verdict: WuVerdict
    evidence: tuple[WuEvidence, ...]
    skipped_near_eigenvalue: int = 0
    uncertain_samples: int = 0


def _op_norm(T: np.ndarray) -> float:
    return float(np.linalg.norm(T, 2))


def _check_norm(norm: float) -> float:
    """NotContraction when the operator norm exceeds 1 + eps_eig."""
    if norm > 1.0 + DEFAULT_TOL.eps_eig:
        raise NotContraction(f"operator norm {norm:.6f} exceeds 1")
    return norm


def _require_contraction(T: np.ndarray) -> tuple[np.ndarray, float]:
    """T as a finite complex square array, and its operator norm;
    NotContraction when the norm exceeds 1 + eps_eig."""
    T = _finite_square_matrix(T)
    return T, _check_norm(_op_norm(T))


def _residuals(U: np.ndarray, T: np.ndarray) -> tuple[float, float]:
    """Unitarity and compression residuals (Frobenius) of a dilation U of T."""
    n = T.shape[0]
    unit = float(np.linalg.norm(U.conj().T @ U - np.eye(2 * n), "fro"))
    comp = float(np.linalg.norm(U[:n, :n] - T, "fro"))
    return unit, comp


def _require_residuals(unit: float, comp: float, limit: float = DEFAULT_TOL.eps_unitary) -> None:
    """EigFailure naming both residuals unless each is at most limit (a NaN
    residual is not): the one residual check of every dilation built here."""
    if not (unit <= limit and comp <= limit):
        raise EigFailure(
            f"dilation residuals too large (unitarity {unit:.2e}, compression {comp:.2e})"
        )


def _defect_rank(s: np.ndarray) -> int:
    """The number of singular values s whose defect 1 - s^2 exceeds eps_eig:
    a singular value of 1 computed a few ulps off leaves a defect of about
    1e-16, which is rounding, not defect."""
    return int(np.count_nonzero(1.0 - s * s > DEFAULT_TOL.eps_eig))


def halmos(T: np.ndarray, alpha: float = 0.0) -> DilationArtifact:
    """Rotated Halmos dilation [[T, -e^{-ia}D_*],[e^{-ia}D, e^{-2ia}T*]].

    One SVD T = W diag(s) Vh gives the norm check, the defects
    D = Vh* diag(sqrt(1 - s^2)) Vh and D_* = W diag(sqrt(1 - s^2)) W*, and
    the defect rank.
    """
    alpha = require_finite_real(alpha, "alpha")
    T = _finite_square_matrix(T)
    try:
        W, s, Vh = np.linalg.svd(T)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    _check_norm(float(np.max(s, initial=0.0)))
    defect = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    dt = (Vh.conj().T * defect) @ Vh
    dts = (W * defect) @ W.conj().T
    ph = np.exp(-1j * alpha)
    U = np.block([[T, -ph * dts], [ph * dt, ph * ph * T.conj().T]])
    unit, comp = _residuals(U, T)
    _require_residuals(unit, comp)
    return DilationArtifact(U, alpha, unit, comp, _defect_rank(s))


def scalar_dilation(d: complex, xi: complex, eta: complex) -> np.ndarray:
    """2x2 unitary with top-left entry d and eigenvalues {xi, eta} on the
    circle: :func:`_scalar_blocks` applied to one value, with its checks."""
    d, xi, eta = require_finite(d, "d"), require_finite(xi, "xi"), require_finite(eta, "eta")
    (a,), (b,), (e,) = _scalar_blocks(np.array([d]), np.array([xi]), np.array([eta]))
    return np.array([[a, b], [b, e]])


def _scalar_blocks(d: np.ndarray, xi: np.ndarray, eta: np.ndarray):
    """Entries (a, b, e) of the 2x2 unitaries [[a, b], [b, e]] with top-left
    entry d and eigenvalues {xi, eta} on the circle, one per entry of the
    arrays d, xi and eta, in closed form: with t = |d - eta| / |xi - eta|,
    a = t xi + (1 - t) eta, b = sqrt(t (1 - t)) (xi - eta) and
    e = (1 - t) xi + t eta, the entries of q diag(xi, eta) q^T for the
    rotation q = [[sqrt t, -sqrt(1 - t)], [sqrt(1 - t), sqrt t]].

    NotOnSegment unless xi and eta are unimodular and d lies on the chord
    [xi, eta], CoincidentEndpoints when xi and eta coincide, each to within
    eps_geom; InvariantViolation when a misses d by more than
    10 eps_geom max(1, |d|).
    """
    eps = DEFAULT_TOL.eps_geom
    chord = xi - eta
    length = _modulus(chord)
    rel = d - eta
    t = _modulus(rel) / np.maximum(length, eps)  # CoincidentEndpoints where length <= eps
    s = np.minimum(t, 1.0)
    a = s * xi + (1.0 - s) * eta
    unimodular = (np.abs(_modulus(xi) - 1.0) > eps) | (np.abs(_modulus(eta) - 1.0) > eps)
    coincide = length <= eps
    off_line = np.abs(rel.real * chord.imag - rel.imag * chord.real) > eps * length
    beyond = t > 1.0 + eps
    missed = ~(_modulus(a - d) <= 10 * eps * np.maximum(1.0, _modulus(d)))
    if (unimodular | coincide | off_line | beyond | missed).any():
        if unimodular.any():
            raise NotOnSegment("xi and eta must be unimodular")
        if coincide.any():
            raise CoincidentEndpoints("xi and eta coincide")
        if off_line.any():
            raise NotOnSegment("d is not on the segment [xi, eta]")
        if beyond.any():
            raise NotOnSegment("d lies outside the segment [xi, eta]")
        j = int(np.argmax(missed))
        raise InvariantViolation(f"top-left entry {a[j]} misses d = {d[j]}")
    return a, np.sqrt(s * (1.0 - s)) * chord, (1.0 - s) * xi + s * eta


def excluding_dilation_matrix(T: np.ndarray, k: int, lam: complex) -> DilationArtifact:
    """A unitary dilation of the normal contraction T whose rank-k range
    verifiably excludes lam.

    The direction xi of :func:`_separating_direction` separates lam from
    the rank-k support level by the largest margin.  The block dilation at
    xi splits off the eigenvalues beyond the midpoint of that margin (fewer
    than k of them) through 2x2 scalar dilations and carries the rest by a
    Halmos block rotated by xi, so at most k - 1 of its eigenvalues project
    beyond the midpoint; for k = 1 it is the rotated Halmos dilation at xi.
    The exclusion is certified by interlacing at xi: a rank-k projection P
    with P U P = lam P compresses Re(e^{i xi} U) to Re(e^{i xi} lam) P, so
    the k-th largest eigenvalue of Re(e^{i xi} U), which any square U has,
    is at least Re(e^{i xi} lam) when lam lies in the rank-k range of U.
    NoSeparatingAngle, naming xi, that level and Re(e^{i xi} lam), unless
    the level lies below Re(e^{i xi} lam) by more than eps_geom; a strict
    gap keeps lam out of the closure too.
    """
    lam = require_finite(lam, "point")
    T = _finite_square_matrix(T)
    k = _check_finite_rank(k, T.shape[0])
    T, _, vals, V, xis, levels = _analysis(T.shape, T.tobytes(), k)
    xi, margin = _separating_direction(vals, k, lam, xis, levels)
    if margin <= DEFAULT_TOL.eps_geom:
        raise NoSeparatingAngle(f"best margin {margin:.3e} does not clear eps_geom")
    target = np.real(np.exp(1j * xi) * lam)
    cut = target - 0.5 * margin
    art = _block_dilation(T, vals, V, xi, np.real(np.exp(1j * xi) * vals) >= cut)
    A = np.exp(1j * xi) * art.matrix
    level = np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-k]
    if not level < target - DEFAULT_TOL.eps_geom:
        raise NoSeparatingAngle(
            f"the block dilation does not verifiably exclude the point: at xi = {xi:.12g} "
            f"its rank-{k} level {level:.12g} is not below Re(e^(i xi) lam) = {target:.12g} "
            "by more than eps_geom"
        )
    return art


def _separating_direction(
    vals: np.ndarray, k: int, lam: complex, breakpoints: np.ndarray, levels: np.ndarray
) -> tuple[float, float]:
    """The direction xi maximizing the margin Re(e^{i xi} lam) - L_k(xi),
    given the breakpoints of L_k and L_k at them (:func:`_breakpoints`),
    and that margin.

    Between two breakpoints of L_k the margin is Re(e^{i xi} (lam - d))
    for one eigenvalue d, so its maximum lies at a breakpoint or at some
    -arg(lam - d): those candidates are scored, and only the n directions
    -arg(lam - d) need their levels.
    """
    candidates = -np.angle(lam - vals)
    xis = np.concatenate([breakpoints, candidates])
    levels = np.concatenate([levels, _support_levels(vals, k, candidates)])
    margins = np.real(np.exp(1j * xis) * lam) - levels
    j = int(np.argmax(margins))
    return float(xis[j]), float(margins[j])


def _pair_normals(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The directions xi where two distinct eigenvalues d_i, d_j (i < j)
    project equally, pi/2 - arg(d_i - d_j) for every pair and then that
    plus pi for every pair, and the index i of each."""
    n = vals.shape[0]
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    diff = vals[i] - vals[j]
    distinct = diff != 0
    cross = math.pi / 2 - np.angle(diff[distinct])
    first = i[distinct]
    return np.concatenate([cross, cross + math.pi]), np.concatenate([first, first])


def _breakpoints(vals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of L_k(xi), the k-th largest Re(e^{i xi} d) over the
    eigenvalues d, and L_k at them, from one :func:`_support_levels` call:
    _FLOOR_ANGLES evenly spaced directions, then the pair normals
    (:func:`_pair_normals`) at which the pair's projection lies within
    _TIE of L_k, i.e. where the tie group of the pair covers rank k; none
    when k > n, where L_k is not defined.

    L_k changes the eigenvalue it follows only at such a normal, so between
    two consecutive breakpoints, which lie less than pi apart, it follows
    one eigenvalue d.
    """
    if k > vals.shape[0]:
        return np.empty(0), np.empty(0)
    normals, first = _pair_normals(vals)
    xis = np.concatenate([_grid(_FLOOR_ANGLES), normals])
    levels = _support_levels(vals, k, xis)
    own = np.real(np.exp(1j * normals) * vals[first])
    keep = np.concatenate([np.ones(_FLOOR_ANGLES, bool), np.abs(own - levels[_FLOOR_ANGLES:]) <= _TIE])
    return xis[keep], levels[keep]


def excluding_certificate(
    model: SpectralMeasureModel,
    k: int,
    lam: complex,
    plane: ClosedHalfPlane | None = None,
) -> ExclusionCertificate:
    """Symbolic exclusion of a boundary point: a closed half plane H through
    lam with dim ran E(H) = r < k, one 2x2 scalar dilation per unit of atom
    multiplicity inside H, and a rotation/bound pair confining the rest.

    A witness plane may be supplied (its line must pass through lam and its
    dimension must be certainly below k); otherwise the critical-direction
    sweep picks one.
    """
    lam = require_finite(lam, "point")
    kf = _check_rank(model, k)
    if plane is not None:
        if abs(_plane_offset(plane, lam)) > DEFAULT_TOL.eps_geom:
            raise ValueError("supplied plane's line does not pass through the point")
        dim = dim_ran_closed(model, plane)
        if not dim < k:
            raise NoWuWitness(f"supplied plane has dim {dim}, not below {k}")
    else:
        ((value, plane, dim),) = _decide(model, kf, [lam], [([CA, CB], True)])[0]
        if value is not Verdict.OUT:
            raise NoWuWitness(
                "no critical-direction closed half plane through the point is deficient"
            )
    nx, ny = plane.normal
    scale = math.hypot(nx, ny)
    eps = DEFAULT_TOL.eps_geom

    entries = []
    total = 0
    points = [(a.location, int(a.mult) if a.mult != INF else None) for a in model.atoms]
    for fam in model.families:
        points.extend((p, m) for p, m in fam.prefix)
    eta = complex(-nx / scale, -ny / scale)
    for loc, mult in points:
        s = nx * (loc.real - lam.real) + ny * (loc.imag - lam.imag)
        if s < -eps * scale:
            continue
        if mult is None:
            raise NoWuWitness("an infinite atom sits inside the witness plane")
        if abs(loc) >= 1.0 - eps:
            raise AtomNotStrictContraction(f"atom at {loc} is not strictly inside the disk")
        xi = complex(_far_points(np.array([loc]), eta)[0])
        t = abs(loc - eta) / abs(xi - eta)
        s_xi = nx * (xi.real - lam.real) + ny * (xi.imag - lam.imag)
        if s_xi < -eps * scale:
            raise InvariantViolation("chord endpoint left the witness plane")
        entries.extend([(loc, xi, eta, t)] * mult)
        total += mult
    if total != int(dim):
        raise InvariantViolation(
            f"witness dimension {dim} is not the atom count {total} inside the plane"
        )

    beta = (-math.atan2(ny, nx)) % (2 * math.pi)
    mu = math.cos(beta) * lam.real - math.sin(beta) * lam.imag
    return ExclusionCertificate(lam, plane, tuple(entries), beta, mu, total)


def _plane_offset(plane: ClosedHalfPlane, z: complex) -> float:
    nx, ny = plane.normal
    sc = math.hypot(nx, ny)
    return (nx * (z.real - plane.anchor.real) + ny * (z.imag - plane.anchor.imag)) / sc


def wu_check(model: SpectralMeasureModel, k: int, region_est: RegionEstimate) -> WuReport:
    """Predict whether the rank-k range equals the intersection of its
    unitary dilations' ranges: every excluded boundary sample must admit a
    deficient *closed* half plane through it.

    The samples are the polygon's vertices and WU_SAMPLES_PER_EDGE interior
    points of each edge.  Samples within 10 eps_geom of a point mass are
    skipped and counted.  The rest are swept in chunks, one direction build
    and one sweep per chunk (see ``kernels.BATCH_PAIRS``), each sample over
    its critical directions: the half closed-half planes decide whether it
    is excluded, and the closed half planes of the same sweep give its
    witness.  Samples whose membership is UNCERTAIN give no evidence and
    are counted.  ValueError unless the estimate is of rank k.
    """
    eps = DEFAULT_TOL.eps_geom
    if model.max_abs() >= 1.0 + eps:
        raise NotStrictContraction("spectral mass leaves the closed unit disk")
    kf = _check_rank(model, k)
    if region_est.k != kf:
        raise ValueError(f"the region estimate is of rank {region_est.k}, not {k}")
    px, py, _ = model._point_data
    samples = _edge_samples(region_est.polygon)
    zs = np.array(samples, dtype=complex)
    near = np.hypot(zs.real[:, None] - px, zs.imag[:, None] - py) <= 10 * eps
    # inside the tolerance ball of an eigenvalue: unresolvable artifact
    points = [z for z, skip in zip(samples, near.any(axis=1).tolist()) if not skip]
    evidence = []
    uncertain = 0
    saw_failure = False
    saw_unresolved = False
    for z, ((value, _, _), (closed, plane, dim)) in zip(
        points, _decide(model, kf, points, [(_HCHP, False), ([CA, CB], True)])
    ):
        uncertain += value is Verdict.UNCERTAIN
        if value is not Verdict.OUT:
            # a member, or UNCERTAIN within tolerance of the boundary: no evidence
            continue
        if closed is Verdict.OUT:
            evidence.append(WuEvidence(z, plane, dim))
        elif closed is Verdict.IN:
            saw_failure = True
            evidence.append(
                WuEvidence(z, None, None, "every critical closed half plane has dim >= k")
            )
        else:
            saw_unresolved = True
            evidence.append(WuEvidence(z, None, None, "unresolved dimensions"))
    if saw_failure:
        verdict = WuVerdict.STRICT_CONTAINMENT_PREDICTED
    elif saw_unresolved:
        verdict = WuVerdict.INCONCLUSIVE
    else:
        verdict = WuVerdict.EQUALITY_PREDICTED
    return WuReport(verdict, tuple(evidence), len(samples) - len(points), uncertain)


def _edge_samples(poly: ConvexPolygon) -> list[complex]:
    """The polygon's vertices, then WU_SAMPLES_PER_EDGE evenly spaced
    interior points of each edge."""
    out = list(poly.vertices)
    for a, b in poly.edges():
        for i in range(WU_SAMPLES_PER_EDGE):
            t = (i + 1) / (WU_SAMPLES_PER_EDGE + 1)
            out.append(a + t * (b - a))
    return out


# ---------------------------------------------------------------------------
# Intersection of dilation ranges
# ---------------------------------------------------------------------------


def _support_levels(eigs: np.ndarray, k: int, xis: np.ndarray) -> np.ndarray:
    """k-th largest of Re(e^{i xi} eigs) for every xi (1 <= k <= len(eigs)),
    a chunk of directions at a time within ``kernels.BATCH_PAIRS``
    direction-eigenvalue pairs."""
    n = eigs.shape[0]
    rows = max(1, kernels.BATCH_PAIRS // n)
    out = np.empty(xis.shape[0])
    for start in range(0, xis.shape[0], rows):
        proj = np.real(np.exp(1j * xis[start : start + rows])[:, None] * eigs[None, :])
        proj.sort(axis=1)
        out[start : start + rows] = proj[:, n - k]
    return out


def _unitary_eigendecomposition(T):
    """(vals, V) with T = V diag(vals) V* and V unitary; NotNormal unless T
    passes the normality gate."""
    T = require_normal(T)
    try:
        vals, vecs = np.linalg.eig(T)
        u, _, vh = np.linalg.svd(vecs)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return vals, u @ vh


@functools.lru_cache(maxsize=1)
def _analysis(shape: tuple[int, ...], data: bytes, k: int):
    """(T, norm, vals, V, breakpoints, levels) for the complex matrix T
    with that shape and those bytes and the rank k, every array read-only:
    T and its operator norm (:func:`_require_contraction`), its unitary
    eigendecomposition (:func:`_unitary_eigendecomposition`) and the
    breakpoints of L_k with L_k at them (:func:`_breakpoints`).

    The last result is remembered, so a caller that builds both the
    excluding dilation and the dilation-range intersection of one (T, k)
    eigensolves T and scans its pair normals once; a failure is not.
    """
    T, norm = _require_contraction(np.frombuffer(data, dtype=complex).reshape(shape))
    vals, V = _unitary_eigendecomposition(T)
    xis, levels = _breakpoints(vals, k)
    for a in (vals, V, xis, levels):
        a.flags.writeable = False
    return T, norm, vals, V, xis, levels


def _block_dilation(T, vals, V, xi, top) -> DilationArtifact:
    """Unitary dilation of T = V diag(vals) V* splitting off the eigenvalues
    selected by the mask ``top`` through 2x2 scalar dilations and carrying
    the rest by a Halmos block rotated by xi; EigFailure when its unitarity
    or compression residual exceeds eps_unitary.

    Every split-off eigenvalue d pairs with eta = -e^{-i xi}, the lowest
    point of the unit circle in direction xi, and with the second point
    where the line through eta and d meets the circle (d itself when d is
    unimodular, -eta when that point lies within eps_geom of eta); both
    eigenvalues of the Halmos block of any other eigenvalue d project to
    Re(e^{i xi} d) in direction xi.

    Eigenvalue j contributes the 2x2 block [[a_j, b_j], [c_j, e_j]]: the
    rotated Halmos entries (d, -e^{-i xi} D, e^{-i xi} D, e^{-2i xi} conj d),
    D = sqrt(1 - |d|^2), or the closed form of :func:`_scalar_blocks`.  So
    the dilation is [[V diag(a) V*, V diag(b) V*], [V diag(c) V*,
    V diag(e) V*]], four n x n products.  It differs from the conjugation
    of the 2n x 2n block array by kron(I_2, V) by rounding only: at most
    about 5e-16 per entry on the benchmark's excluding dilations.
    """
    ph = complex(np.exp(-1j * xi))
    eta = -ph
    defect = np.sqrt(np.clip(1.0 - np.abs(vals) ** 2, 0.0, None))
    a = vals.copy()
    b = -ph * defect
    c = ph * defect
    e = ph * ph * np.conj(vals)
    if top.any():
        d = vals[top]
        a[top], b[top], e[top] = _scalar_blocks(d, _far_points(d, eta), eta)
        c[top] = b[top]
    n = vals.shape[0]
    Vh = V.conj().T
    U = np.empty((2 * n, 2 * n), dtype=complex)
    U[:n, :n] = (V * a) @ Vh
    U[:n, n:] = (V * b) @ Vh
    U[n:, :n] = (V * c) @ Vh
    U[n:, n:] = (V * e) @ Vh
    unit, comp = _residuals(U, T)
    _require_residuals(unit, comp)
    return DilationArtifact(U, float(xi), unit, comp, _defect_rank(np.abs(vals)))


def _far_points(d: np.ndarray, eta: complex) -> np.ndarray:
    """For each d, the second point where the line through eta and d meets
    the unit circle, or -eta where that point lies within eps_geom of eta
    (as it does when d = eta).  |d - eta|^2 is float_power's, which rounds
    as libm's pow does and not always as x * x does, so the far points of
    the scalar dilations are those the earlier per-eigenvalue assembly,
    kept as a test oracle, computed."""
    rel = d - eta
    sq = np.float_power(_modulus(rel), 2)
    s = -2.0 * (rel.real * eta.real + rel.imag * eta.imag) / np.where(sq > 0, sq, 1.0)
    far = eta + s * rel
    return np.where(_modulus(far - eta) <= DEFAULT_TOL.eps_geom, -eta, far)


def _modulus(z):
    """|z| as Python's abs rounds it, which numpy's complex abs need not:
    t = |d - eta| / |xi - eta| near 1 sets sqrt(1 - t), so an ulp of t
    moves a scalar dilation's off-diagonal entries by about 1e-8."""
    return np.hypot(z.real, z.imag)


def dilation_intersection(
    T: np.ndarray,
    k: int,
    n_samples: int = 0,
    n_alpha: int = 0,
) -> ConvexPolygon:
    """Intersect the rank-k ranges of the unitary dilations of the normal
    contraction T through their support planes; NotNormal when T fails the
    normality gate.

    The planes are Re(e^{i xi} z) <= L_k(xi) at the breakpoints of L_k
    (:func:`_breakpoints`): the normals where two eigenvalues tie at the
    k-th level, plus _FLOOR_ANGLES evenly spaced ones.  By interlacing no
    unitary dilation has a rank-k level below T's own L_k, and the block
    dilation that splits off exactly the eigenvalues beyond L_k(xi)
    attains it, so these planes are the whole intersection.  The plane of
    any direction between two consecutive breakpoints contains the cone at
    d that their two planes cut out, so they are exact, and since the half
    planes Re(e^{i xi} z) <= L_k(xi) cut out the rank-k range of T (Li &
    Sze, Proc. AMS 136, 2008), the polygon is Lambda_k(T) up to rounding,
    and empty when k > n.

    One block dilation per T gates them all: the rotated Halmos blocks of
    every eigenvalue through V at xi = 0, whose residuals differ from those
    of any split dilation by rounding only, checked against eps_unitary
    less 16 n ulps of rounding allowance; EigFailure when it fails.

    n_samples and n_alpha act on nothing.  They are still checked as counts
    (ValueError otherwise) because the benchmark's dilation_lab workload
    passes them positionally; they go with its revision (ROADMAP item 7).
    """
    T = _finite_square_matrix(T)
    k = _check_finite_rank(k, 2 * T.shape[0])
    if not (_is_count(n_samples) and _is_count(n_alpha) and n_samples >= 0 and n_alpha >= 0):
        raise ValueError(
            f"need integers n_samples >= 0 and n_alpha >= 0, got {n_samples!r} and {n_alpha!r}"
        )
    T, norm, vals, V, xis, levels = _analysis(T.shape, T.tobytes(), k)
    n = vals.shape[0]
    gate = _block_dilation(T, vals, V, 0.0, np.zeros(n, dtype=bool))
    limit = DEFAULT_TOL.eps_unitary - 16 * n * np.finfo(float).eps
    _require_residuals(gate.unitarity_residual, gate.compression_residual, limit)
    if k > n:
        return ConvexPolygon()
    return halfplane_intersection(support_lines(xis, levels), norm + 1.0)
