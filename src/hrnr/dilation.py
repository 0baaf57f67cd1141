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
carries the rest by a Halmos block rotated by xi, excludes the point.  One
Hermitian eigensolve certifies the exclusion: if P U P = lam P for a rank-k
projection P, then P Re(e^{i xi} U) P = Re(e^{i xi} lam) P, so by Cauchy
interlacing the k-th largest eigenvalue of Re(e^{i xi} U) is at least
Re(e^{i xi} lam), for any square U, normal or not.  The block construction
fixes the spectrum, so the rank-k levels of the block dilations need no
eigensolve, and since by interlacing no dilation has a rank-k level below
T's own, these dilations alone give the intersection of the dilations'
ranges; their planes at the directions where two eigenvalues tie at the
k-th level give it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import core
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
    _intersect_lines,
    require_finite,
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
    _is_finite_rank,
    dim_ran_closed,
    require_normal,
)

# Evenly spaced directions joined to the tie normals of a normal
# contraction, so that no gap between consecutive plane normals reaches pi.
_FLOOR_ANGLES = 8

# Projections closer than this count as tied: the split threshold of the
# block dilations and the tie test of their plane directions.
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


@dataclass(frozen=True)
class ConjectureResult:
    condition_holds: bool
    theta: float | None = None


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
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
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
    return DilationArtifact(U, float(alpha), unit, comp, _defect_rank(s))


def scalar_dilation(d: complex, xi: complex, eta: complex) -> np.ndarray:
    """2x2 unitary with top-left entry d and eigenvalues {xi, eta} on the circle."""
    d, xi, eta = require_finite(d, "d"), require_finite(xi, "xi"), require_finite(eta, "eta")
    eps = DEFAULT_TOL.eps_geom
    if abs(abs(xi) - 1.0) > eps or abs(abs(eta) - 1.0) > eps:
        raise NotOnSegment("xi and eta must be unimodular")
    chord = xi - eta
    if abs(chord) <= eps:
        raise CoincidentEndpoints("xi and eta coincide")
    rel = d - eta
    cross = rel.real * chord.imag - rel.imag * chord.real
    if abs(cross) > eps * abs(chord):
        raise NotOnSegment("d is not on the segment [xi, eta]")
    t = abs(rel) / abs(chord)
    if t > 1.0 + eps:
        raise NotOnSegment("d lies outside the segment [xi, eta]")
    t = min(1.0, t)
    q = np.array([[math.sqrt(t), -math.sqrt(1.0 - t)], [math.sqrt(1.0 - t), math.sqrt(t)]])
    U = q @ np.diag([xi, eta]).astype(complex) @ q.T
    if not abs(U[0, 0] - d) <= 10 * eps * max(1.0, abs(d)):
        raise InvariantViolation(f"top-left entry {U[0, 0]} misses d = {d}")
    return U


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
    T, _ = _require_contraction(T)
    vals, V = _unitary_eigendecomposition(T)
    k = _check_finite_rank(k, vals.shape[0])
    xi, margin = _separating_direction(vals, k, lam)
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


def _separating_direction(vals: np.ndarray, k: int, lam: complex) -> tuple[float, float]:
    """The direction xi maximizing the margin Re(e^{i xi} lam) - L_k(xi)
    (see :func:`_breakpoints`), and that margin.

    Between two breakpoints of L_k the margin is Re(e^{i xi} (lam - d))
    for one eigenvalue d, so its maximum lies at a breakpoint or at some
    -arg(lam - d): those candidates are scored.
    """
    xis = np.concatenate([_breakpoints(vals, k), -np.angle(lam - vals)])
    margins = np.real(np.exp(1j * xis) * lam) - _support_levels(vals, k, xis)
    j = int(np.argmax(margins))
    return float(xis[j]), float(margins[j])


def _pair_normals(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The directions xi where two distinct eigenvalues d_i, d_j (i < j)
    project equally, pi/2 - arg(d_i - d_j) for every pair and then that
    plus pi for every pair, and the index i of each."""
    i, j = np.triu_indices(vals.shape[0], 1)
    diff = vals[i] - vals[j]
    distinct = diff != 0
    cross = math.pi / 2 - np.angle(diff[distinct])
    first = i[distinct]
    return np.concatenate([cross, cross + math.pi]), np.concatenate([first, first])


def _breakpoints(vals: np.ndarray, k: int) -> np.ndarray:
    """Breakpoints of L_k(xi), the k-th largest Re(e^{i xi} d) over the
    eigenvalues d: _FLOOR_ANGLES evenly spaced directions, then the pair
    normals (:func:`_pair_normals`) at which the pair's projection lies
    within _TIE of L_k, i.e. where the tie group of the pair covers rank k;
    the floor alone when k > n.

    L_k changes the eigenvalue it follows only at such a normal, so between
    two consecutive breakpoints, which lie less than pi apart, it follows
    one eigenvalue d.

    For the eigenvalues of the last decomposition (the ``vals`` array that
    :func:`_unitary_eigendecomposition` returned) the breakpoints of the
    last k are kept beside it and returned, read-only, on the next call.
    """
    entry = next((e for e in _LAST_DECOMPOSITION.values() if e[0] is vals), None)
    if entry is not None and entry[2] == k:
        return entry[3]
    xis = _grid(_FLOOR_ANGLES)
    if k <= vals.shape[0]:
        normals, first = _pair_normals(vals)
        own = np.real(np.exp(1j * normals) * vals[first])
        xis = np.concatenate([xis, normals[np.abs(own - _support_levels(vals, k, normals)) <= _TIE]])
    if entry is not None:
        xis.flags.writeable = False
        entry[2:] = k, xis
    return xis


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
        xi = _second_circle_intersection(eta, loc)
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


def _second_circle_intersection(eta: complex, d: complex) -> complex:
    rel = d - eta
    a = abs(rel) ** 2
    if a == 0.0:
        return -eta
    b = (rel * eta.conjugate()).real
    s = -2.0 * b / a
    return eta + s * rel


def wu_check(model: SpectralMeasureModel, k: int, region_est: RegionEstimate) -> WuReport:
    """Predict whether the rank-k range equals the intersection of its
    unitary dilations' ranges: every excluded boundary sample must admit a
    deficient *closed* half plane through it.

    The samples are the polygon's vertices and WU_SAMPLES_PER_EDGE interior
    points of each edge.  Samples within 10 eps_geom of a point mass are
    skipped and counted.  The rest are swept in chunks, one direction build
    and one sweep per chunk (see ``core.BATCH_PAIRS``), each sample over
    the critical directions plus the direction of its edge: the half
    closed-half planes decide whether it is excluded, and the closed half
    planes of the same sweep give its witness.  Samples whose membership
    is UNCERTAIN give no evidence and are counted.
    """
    eps = DEFAULT_TOL.eps_geom
    if model.max_abs() >= 1.0 + eps:
        raise NotStrictContraction("spectral mass leaves the closed unit disk")
    kf = _check_rank(model, k)
    px, py, _ = model._point_data
    samples = _edge_samples(region_est.polygon, WU_SAMPLES_PER_EDGE)
    zs = np.array([z for z, _ in samples], dtype=complex)
    near = np.hypot(zs.real[:, None] - px, zs.imag[:, None] - py) <= 10 * eps
    # inside the tolerance ball of an eigenvalue: unresolvable artifact
    swept = [s for s, skip in zip(samples, near.any(axis=1).tolist()) if not skip]
    points = [z for z, _ in swept]
    extra = [() if edge_angle is None else (edge_angle,) for _, edge_angle in swept]
    evidence = []
    uncertain = 0
    saw_failure = False
    saw_unresolved = False
    for z, ((value, _, _), (closed, plane, dim)) in zip(
        points, _decide(model, kf, points, [(_HCHP, False), ([CA, CB], True)], extra)
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
    return WuReport(verdict, tuple(evidence), len(samples) - len(swept), uncertain)


def _edge_samples(poly: ConvexPolygon, per_edge: int):
    out = []
    for v in poly.vertices:
        out.append((v, None))
    for a, b in poly.edges():
        ang = math.atan2((b - a).imag, (b - a).real)
        for i in range(per_edge):
            t = (i + 1) / (per_edge + 1)
            out.append((a + t * (b - a), ang))
    return out


def conjecture_check(
    T: np.ndarray,
    k: int,
    lam: complex,
    n_theta: int,
) -> ConjectureResult:
    """Scan rotations for Re(e^{i theta}T - lam) having fewer than k
    eigenvalues above -eps; reports the first angle where that holds.

    This evaluates the conjectured exclusion condition only; nothing is
    asserted about its sufficiency for dilation-range equality.
    """
    lam = require_finite(lam, "point")
    if not (_is_finite_rank(k) and _is_count(n_theta) and n_theta >= 1):
        raise ValueError(f"need integers k >= 1 and n_theta >= 1, got {k!r} and {n_theta!r}")
    T = _finite_square_matrix(T)
    if _op_norm(T) >= 1.0 - DEFAULT_TOL.eps_eig:
        raise NotStrictContraction("need a strict contraction")
    for theta in _grid(n_theta).tolist():
        A = np.exp(1j * theta) * T - lam * np.eye(T.shape[0])
        S = 0.5 * (A + A.conj().T)
        if np.count_nonzero(np.linalg.eigvalsh(S) >= -DEFAULT_TOL.eps_eig) < k:
            return ConjectureResult(True, theta)
    return ConjectureResult(False, None)


# ---------------------------------------------------------------------------
# Intersection of dilation ranges
# ---------------------------------------------------------------------------


def _support_levels(eigs: np.ndarray, k: int, xis: np.ndarray) -> np.ndarray:
    """k-th largest of Re(e^{i xi} eigs) for every xi (1 <= k <= len(eigs)),
    a chunk of directions at a time within ``core.BATCH_PAIRS``
    direction-eigenvalue pairs."""
    n = eigs.shape[0]
    rows = max(1, core.BATCH_PAIRS // n)
    out = np.empty(xis.shape[0])
    for start in range(0, xis.shape[0], rows):
        proj = np.real(np.exp(1j * xis[start : start + rows])[:, None] * eigs[None, :])
        proj.sort(axis=1)
        out[start : start + rows] = proj[:, n - k]
    return out


# The last decomposition, keyed by the shape and bytes of its complex
# matrix, as [vals, V, k, breakpoints]: the L_k breakpoints of vals at the
# last k (None before the first), see _breakpoints.  One entry, so a caller
# that builds both the excluding dilation and the dilation-range
# intersection of one (T, k) eigensolves T and scores its pair normals once.
_LAST_DECOMPOSITION: dict = {}


def _unitary_eigendecomposition(T):
    """(vals, V) with T = V diag(vals) V* and V unitary; NotNormal unless T
    passes the normality gate.

    The result of the last call is remembered and returned, read-only, for
    a matrix with the same shape and entries; a failure is not remembered.
    """
    T = _finite_square_matrix(T)
    key = (T.shape, T.tobytes())
    hit = _LAST_DECOMPOSITION.get(key)
    if hit is not None:
        return hit[0], hit[1]
    T = require_normal(T)
    try:
        vals, vecs = np.linalg.eig(T)
        u, _, vh = np.linalg.svd(vecs)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    V = u @ vh
    vals.flags.writeable = False
    V.flags.writeable = False
    _LAST_DECOMPOSITION.clear()
    _LAST_DECOMPOSITION[key] = [vals, V, None, None]
    return vals, V


def _block_dilation(T, vals, V, xi, top) -> DilationArtifact:
    """Unitary dilation of T = V diag(vals) V* splitting off the eigenvalues
    selected by the mask ``top`` through 2x2 scalar dilations and carrying
    the rest by a Halmos block rotated by xi; EigFailure when its unitarity
    or compression residual exceeds eps_unitary.

    Every split-off eigenvalue d pairs with eta = -e^{-i xi}, the lowest
    point of the unit circle in direction xi, and with the second point
    where the line through eta and d meets the circle (d itself when d is
    unimodular); both eigenvalues of the Halmos block of any other
    eigenvalue d project to Re(e^{i xi} d) in direction xi.
    """
    n = vals.shape[0]
    ph = np.exp(-1j * xi)
    eta = -ph
    defect = np.sqrt(np.clip(1.0 - np.abs(vals) ** 2, 0.0, None))
    U_t = np.zeros((2 * n, 2 * n), dtype=complex)
    for i, d in enumerate(vals):
        if top[i]:
            far = _second_circle_intersection(eta, complex(d))
            if abs(far - eta) <= DEFAULT_TOL.eps_geom:
                far = -eta
            U_t[i::n, i::n] = scalar_dilation(d, far, eta)
        else:
            U_t[i::n, i::n] = [[d, -ph * defect[i]], [ph * defect[i], ph * ph * np.conj(d)]]
    big = np.kron(np.eye(2), V)
    U = big @ U_t @ big.conj().T
    unit, comp = _residuals(U, T)
    _require_residuals(unit, comp)
    return DilationArtifact(U, float(xi), unit, comp, _defect_rank(np.abs(vals)))


def _block_dilation_levels(T, vals, V, k, xis):
    """Rank-k levels, per direction xi, of the block dilations of
    T = V diag(vals) V* that split off the r < k eigenvalues projecting
    beyond L_k + 1e-12 (all of them when k > n), L_1 >= ... >= L_n being
    the Re(e^{i xi} d): by the spectra ``_block_dilation`` gives them,
    L_{r + ceil((k - r) / 2)}, or -1 when k > n.  Residuals change with xi
    only through rounding, so the dilation at the first direction, checked
    against eps_unitary less a rounding allowance, gates them all:
    EigFailure when it fails.
    """
    n = vals.shape[0]
    proj = np.sort(np.real(np.exp(1j * xis)[:, None] * vals[None, :]), axis=1)  # L_j: column n - j
    cut = -np.inf if k > n else proj[0, n - k] + _TIE
    art = _block_dilation(T, vals, V, float(xis[0]), np.real(np.exp(1j * xis[0]) * vals) > cut)
    limit = DEFAULT_TOL.eps_unitary - 16 * n * np.finfo(float).eps  # less the rounding allowance
    _require_residuals(art.unitarity_residual, art.compression_residual, limit)
    if k > n:
        return np.full(xis.shape[0], -1.0)
    r = np.count_nonzero(proj > proj[:, n - k, None] + _TIE, axis=1)
    return proj[np.arange(xis.shape[0]), n - r - (k - r + 1) // 2]


def dilation_intersection(
    T: np.ndarray,
    k: int,
    n_samples: int = 0,
    n_alpha: int = 0,
) -> ConvexPolygon:
    """Intersect the rank-k ranges of the unitary dilations of the normal
    contraction T through their support planes; NotNormal when T fails the
    normality gate.

    The per-direction block dilations give the planes in closed form.  By
    interlacing no unitary dilation has a rank-k level below T's own L_k,
    which the block levels attain to within their _TIE split threshold, so
    no other dilation can tighten these planes and they are the whole
    intersection; EigFailure when the one block dilation built per T fails
    its residual check.  The planes stand at the breakpoints of L_k
    (:func:`_breakpoints`): the normals where two eigenvalues tie at the
    k-th level, plus _FLOOR_ANGLES evenly spaced ones.  The plane of any
    direction between two consecutive breakpoints contains the cone at d
    that their two planes cut out, so these planes are exact, and since
    the half planes Re(e^{i xi} z) <= L_k(xi) cut out the rank-k range of
    T (Li & Sze, Proc. AMS 136, 2008), the polygon is Lambda_k(T) up to
    rounding, and empty when k > n.

    n_samples and n_alpha act on nothing.  They are still checked as counts
    (ValueError otherwise) because the benchmark's dilation_lab workload
    passes them positionally; they go with its revision (ROADMAP item 7).
    """
    T, norm = _require_contraction(T)
    n = T.shape[0]
    k = _check_finite_rank(k, 2 * n)
    if not (_is_count(n_samples) and _is_count(n_alpha) and n_samples >= 0 and n_alpha >= 0):
        raise ValueError(
            f"need integers n_samples >= 0 and n_alpha >= 0, got {n_samples!r} and {n_alpha!r}"
        )
    vals, V = _unitary_eigendecomposition(T)
    xis = _breakpoints(vals, k)
    levels = _block_dilation_levels(T, vals, V, k, xis)
    return _intersect_lines(support_lines(xis, levels), norm + 1.0)
