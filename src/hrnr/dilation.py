"""Unitary dilations of contractions and the range-equality machinery.

Every contraction T dilates to a unitary on a doubled space via the Halmos
block construction; rotating the defect blocks by a phase alpha yields a
one-parameter family.  For strict contractions the family
(I (+) V) Halmos(T, 0) (I (+) W) over unitary V, W is exactly the set of all
unitary dilations on the doubled space; for a contraction that is not
normal, sampling it approximates the intersection of the dilations' rank-k
ranges.

For a normal contraction T the equality proof is constructive: a point
outside the closure of the rank-k range is separated from it in some
direction xi, and the block dilation that splits off the fewer than k
eigenvalues beyond the separating level through 2x2 scalar dilations, and
carries the rest by a Halmos block rotated by xi, excludes the point.  That
construction fixes the spectrum, so its rank-k levels need no eigensolve,
and since by interlacing no dilation has a rank-k level below T's own, the
block dilations alone give the intersection of the dilations' ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _HCHP, RegionEstimate, _check_rank, critical_directions, member, sweep_decision
from .errors import (
    AtomNotStrictContraction,
    CoincidentEndpoints,
    EigFailure,
    InvariantViolation,
    NoSeparatingAngle,
    NotContraction,
    NotNormal,
    NotOnSegment,
    NotStrictContraction,
    NoWuWitness,
)
from .geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    TolerancePolicy,
    Verdict,
    halfplane_intersection,
    require_finite,
    support_plane,
)
from .spectral import (
    CA,
    CB,
    INF,
    SpectralMeasureModel,
    dim_ran_closed,
    direction_sweep,
    from_normal_matrix,
    require_normal,
)

# Grid of directions xi searched for the best separating level of a point.
EXCLUSION_ANGLES = 720

# Grid of support-plane directions of a dilation-range intersection.
INTERSECTION_ANGLES = 180


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
    verdict: WuVerdict
    evidence: tuple[WuEvidence, ...]


@dataclass(frozen=True)
class ConjectureResult:
    condition_holds: bool
    theta: float | None = None


def _op_norm(T: np.ndarray) -> float:
    return float(np.linalg.norm(T, 2))


def _sqrt_psd(A: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _require_contraction(T: np.ndarray, tol: TolerancePolicy) -> None:
    norm = _op_norm(T)
    if norm > 1.0 + tol.eps_eig:
        raise NotContraction(f"operator norm {norm:.6f} exceeds 1")


def _residuals(U: np.ndarray, T: np.ndarray) -> tuple[float, float]:
    """Unitarity and compression residuals (Frobenius) of a dilation U of T."""
    n = T.shape[0]
    unit = float(np.linalg.norm(U.conj().T @ U - np.eye(2 * n), "fro"))
    comp = float(np.linalg.norm(U[:n, :n] - T, "fro"))
    return unit, comp


def halmos(
    T: np.ndarray, alpha: float = 0.0, tol: TolerancePolicy = DEFAULT_TOL
) -> DilationArtifact:
    """Rotated Halmos dilation [[T, -e^{-ia}D_*],[e^{-ia}D, e^{-2ia}T*]]."""
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    _require_contraction(T, tol)
    eye = np.eye(n)
    dt = _sqrt_psd(eye - T.conj().T @ T)
    dts = _sqrt_psd(eye - T @ T.conj().T)
    ph = np.exp(-1j * alpha)
    U = np.block([[T, -ph * dts], [ph * dt, ph * ph * T.conj().T]])
    unit, comp = _residuals(U, T)
    if unit > tol.eps_unitary or comp > tol.eps_unitary:
        raise EigFailure(
            f"dilation residuals too large (unitarity {unit:.2e}, compression {comp:.2e})"
        )
    dvals = np.sqrt(np.clip(np.linalg.eigvalsh(eye - T.conj().T @ T), 0.0, None))
    return DilationArtifact(U, float(alpha), unit, comp, int(np.sum(dvals > tol.eps_eig)))


def scalar_dilation(
    d: complex, xi: complex, eta: complex, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """2x2 unitary with top-left entry d and eigenvalues {xi, eta} on the circle."""
    d, xi, eta = complex(d), complex(xi), complex(eta)
    eps = tol.eps_geom
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
    if abs(U[0, 0] - d) > 10 * eps * max(1.0, abs(d)):
        raise InvariantViolation(f"top-left entry {U[0, 0]} misses d = {d}")
    return U


def excluding_dilation_matrix(
    T: np.ndarray,
    k: int,
    lam: complex,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> DilationArtifact:
    """A unitary dilation of the normal contraction T whose rank-k range
    verifiably excludes lam.

    Of the EXCLUSION_ANGLES grid directions xi, the one with the largest margin
    Re(e^{i xi} lam) - lambda_k(Re(e^{i xi} T)) separates lam from the
    rank-k support level.  The block dilation at xi splits off the
    eigenvalues beyond the midpoint of that margin (fewer than k of them)
    through 2x2 scalar dilations and carries the rest by a Halmos block
    rotated by xi, so at most k - 1 of its eigenvalues project beyond the
    midpoint; for k = 1 it is the rotated Halmos dilation at xi.  The
    exclusion is verified by a membership run on the dilation's own
    eigenvalue model.
    """
    lam = require_finite(lam, "point")
    T = np.asarray(T, dtype=complex)
    _require_contraction(T, tol)
    vals, V = _unitary_eigendecomposition(T, tol)
    n = vals.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    alphas = 2 * math.pi * np.arange(EXCLUSION_ANGLES) / EXCLUSION_ANGLES
    margins = np.real(np.exp(1j * alphas) * lam) - _support_levels(vals, k, alphas)
    j = int(np.argmax(margins))
    if margins[j] <= tol.eps_geom:
        raise NoSeparatingAngle(f"best margin {margins[j]:.3e} does not clear eps_geom")
    xi = float(alphas[j])
    cut = np.real(np.exp(1j * xi) * lam) - 0.5 * margins[j]
    art = _block_dilation(T, vals, V, xi, np.real(np.exp(1j * xi) * vals) >= cut, tol)
    if art is None or member(from_normal_matrix(art.matrix, tol), k, lam, tol).value is not Verdict.OUT:
        raise NoSeparatingAngle("the block dilation does not verifiably exclude the point")
    return art


def _closed_witness(sweep, lam, k):
    """Pick a closed half plane through lam from a sweep at lam.

    Returns (witness_plane, dim) if some plane has dim < k certainly,
    ("none", None) if every tested plane is certainly >= k, and
    ("unresolved", None) otherwise.
    """
    value, flavor, i = sweep_decision(sweep, [CA, CB], k)
    if value is Verdict.OUT:
        vx, vy = float(sweep.vx[i]), float(sweep.vy[i])
        nx, ny = (-vy, vx) if flavor == CA else (vy, -vx)
        plane = ClosedHalfPlane(lam, math.atan2(ny, nx) % (2 * math.pi), normal=(nx, ny))
        return plane, float(sweep.hi[flavor, i])
    if value is Verdict.IN:
        return "none", None
    return "unresolved", None


def _closed_witness_sweep(model, lam, k, tol):
    """:func:`_closed_witness` over the critical directions through lam."""
    vx, vy = critical_directions(model, lam)
    return _closed_witness(direction_sweep(model, lam, vx, vy, tol), lam, k)


def excluding_certificate(
    model: SpectralMeasureModel,
    k: int,
    lam: complex,
    tol: TolerancePolicy = DEFAULT_TOL,
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
    if plane is not None:
        if abs(_plane_offset(plane, lam)) > tol.eps_geom:
            raise ValueError("supplied plane's line does not pass through the point")
        dim = dim_ran_closed(model, plane, tol)
        if not dim < k:
            raise NoWuWitness(f"supplied plane has dim {dim}, not below {k}")
    else:
        plane, dim = _closed_witness_sweep(model, lam, k, tol)
    if not isinstance(plane, ClosedHalfPlane):
        raise NoWuWitness(
            "no critical-direction closed half plane through the point is deficient"
        )
    nx, ny = plane.normal
    scale = math.hypot(nx, ny)
    eps = tol.eps_geom

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


def wu_check(
    model: SpectralMeasureModel,
    k: int,
    region_est: RegionEstimate,
    tol: TolerancePolicy = DEFAULT_TOL,
    samples_per_edge: int = 9,
) -> WuReport:
    """Predict whether the rank-k range equals the intersection of its
    unitary dilations' ranges: every excluded boundary sample must admit a
    deficient *closed* half plane through it.

    Each sample takes one sweep, over the critical directions plus the
    direction of its edge: the half closed-half planes decide whether it is
    excluded, and the closed half planes of the same sweep give its
    witness.
    """
    if model.max_abs() >= 1.0 + tol.eps_geom:
        raise NotStrictContraction("spectral mass leaves the closed unit disk")
    kf = _check_rank(model, k)
    px, py, _ = model._point_data
    samples = _edge_samples(region_est.polygon, samples_per_edge)
    zs = np.array([z for z, _ in samples], dtype=complex)
    near = np.hypot(zs.real[:, None] - px, zs.imag[:, None] - py) <= 10 * tol.eps_geom
    evidence = []
    saw_failure = False
    saw_unresolved = False
    for (z, edge_angle), skip in zip(samples, near.any(axis=1)):
        if skip:
            # inside the tolerance ball of an eigenvalue: unresolvable artifact
            continue
        extra = (edge_angle,) if edge_angle is not None else ()
        vx, vy = critical_directions(model, z, extra_angles=extra)
        sweep = direction_sweep(model, z, vx, vy, tol)
        if sweep_decision(sweep, _HCHP, kf)[0] is not Verdict.OUT:
            # a member, or UNCERTAIN within tolerance of the boundary: no evidence
            continue
        plane, dim = _closed_witness(sweep, z, kf)
        if isinstance(plane, ClosedHalfPlane):
            evidence.append(WuEvidence(z, plane, dim))
        elif plane == "none":
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
    return WuReport(verdict, tuple(evidence))


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
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ConjectureResult:
    """Scan rotations for Re(e^{i theta}T - lam) having fewer than k
    eigenvalues above -eps; reports the first angle where that holds.

    This evaluates the conjectured exclusion condition only; nothing is
    asserted about its sufficiency for dilation-range equality.
    """
    lam = require_finite(lam, "point")
    if k < 1 or n_theta < 1:
        raise ValueError("need k >= 1 and n_theta >= 1")
    T = np.asarray(T, dtype=complex)
    if _op_norm(T) >= 1.0 - tol.eps_eig:
        raise NotStrictContraction("need a strict contraction")
    for j in range(n_theta):
        theta = 2 * math.pi * j / n_theta
        A = np.exp(1j * theta) * T - lam * np.eye(T.shape[0])
        S = 0.5 * (A + A.conj().T)
        if np.count_nonzero(np.linalg.eigvalsh(S) >= -tol.eps_eig) < k:
            return ConjectureResult(True, theta)
    return ConjectureResult(False, None)


# ---------------------------------------------------------------------------
# Intersection of dilation ranges
# ---------------------------------------------------------------------------


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _support_levels(eigs: np.ndarray, k: int, xis: np.ndarray) -> np.ndarray:
    """k-th largest of Re(e^{i xi} eigs) for every xi (1 <= k <= len(eigs))."""
    proj = np.real(np.exp(1j * xis)[:, None] * eigs[None, :])
    proj.sort(axis=1)
    return proj[:, eigs.shape[0] - k]


def _unitary_eigendecomposition(T, tol):
    """(vals, V) with T = V diag(vals) V* and V unitary; NotNormal unless T
    passes the normality gate."""
    T = require_normal(T, tol)
    try:
        vals, vecs = np.linalg.eig(T)
        u, _, vh = np.linalg.svd(vecs)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return vals, u @ vh


def _block_dilation(T, vals, V, xi, top, tol) -> DilationArtifact | None:
    """Unitary dilation of T = V diag(vals) V* splitting off the eigenvalues
    selected by the mask ``top`` through 2x2 scalar dilations and carrying
    the rest by a Halmos block rotated by xi; None when its unitarity or
    compression residual exceeds eps_unitary.

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
            if abs(far - eta) <= tol.eps_geom:
                far = -eta
            U_t[i::n, i::n] = scalar_dilation(d, far, eta, tol)
        else:
            U_t[i::n, i::n] = [[d, -ph * defect[i]], [ph * defect[i], ph * ph * np.conj(d)]]
    big = np.kron(np.eye(2), V)
    U = big @ U_t @ big.conj().T
    unit, comp = _residuals(U, T)
    if unit > tol.eps_unitary or comp > tol.eps_unitary:
        return None
    return DilationArtifact(U, float(xi), unit, comp, int(np.sum(defect > tol.eps_eig)))


def _block_dilation_levels(T, k, xis, tol):
    """Rank-k levels, per direction xi, of the block dilations that split
    off the r < k eigenvalues projecting beyond L_k + 1e-12 (all of them
    when k > n), L_1 >= ... >= L_n being the Re(e^{i xi} d): by the spectra
    ``_block_dilation`` gives them, L_{r + ceil((k - r) / 2)}, or -1 when
    k > n.  Residuals change with xi only through rounding, so the dilation
    at the first direction, checked against eps_unitary less a rounding
    allowance, gates them all; None when it fails or T is not normal.
    """
    try:
        vals, V = _unitary_eigendecomposition(T, tol)
    except NotNormal:
        return None
    n = vals.shape[0]
    proj = np.sort(np.real(np.exp(1j * xis)[:, None] * vals[None, :]), axis=1)  # L_j: column n - j
    cut = proj[0, n - k] + 1e-12 if k <= n else -np.inf
    art = _block_dilation(T, vals, V, float(xis[0]), np.real(np.exp(1j * xis[0]) * vals) > cut, tol)
    limit = tol.eps_unitary - 16 * n * np.finfo(float).eps  # less the rounding allowance
    if art is None or max(art.unitarity_residual, art.compression_residual) > limit:
        return None
    if k > n:
        return np.full(xis.shape[0], -1.0)
    r = np.count_nonzero(proj > proj[:, n - k, None] + 1e-12, axis=1)
    return proj[np.arange(xis.shape[0]), n - r - (k - r + 1) // 2]


def _sampled_levels(T, k, xis, n_samples, n_alpha, seed, tol):
    """Rank-k levels, per direction xi, minimized over a rotated-Halmos grid
    of n_alpha phases and n_samples seeded random (I(+)V)H(I(+)W) unitary
    dilations; samples failing the residual check are left out."""
    n = T.shape[0]
    base = halmos(T, 0.0, tol).matrix
    best = np.full(xis.shape[0], np.inf)

    for j in range(n_alpha):
        alpha = 2 * math.pi * j / n_alpha
        ph = np.exp(-1j * alpha)
        # (I (+) ph I) H (I (+) ph I) has blocks [[T, ph B], [ph C, ph^2 D]]
        U = base.copy()
        U[:n, n:] *= ph
        U[n:, :n] *= ph
        U[n:, n:] *= ph * ph
        best = np.minimum(best, _support_levels(np.linalg.eigvals(U), k, xis))

    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        V = _haar_unitary(n, rng)
        W = _haar_unitary(n, rng)
        U = base.copy()
        U[:, n:] = U[:, n:] @ W
        U[n:, :] = V @ U[n:, :]
        if max(_residuals(U, T)) > tol.eps_unitary:
            continue
        best = np.minimum(best, _support_levels(np.linalg.eigvals(U), k, xis))
    return best


def dilation_intersection(
    T: np.ndarray,
    k: int,
    n_samples: int,
    n_alpha: int,
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ConvexPolygon:
    """Intersect the rank-k ranges of unitary dilations of the contraction
    T through their support planes in INTERSECTION_ANGLES directions.

    For a normal T the per-direction block dilations give the planes in
    closed form.  By interlacing no unitary dilation has a rank-k level
    below T's own, which the block levels attain to within their 1e-12
    split threshold, so no other dilation can tighten these planes and
    they are the whole intersection.  Only when T is not normal, or the one
    block dilation built per T fails its residual check, do the planes come
    from a rotated-Halmos grid of n_alpha phases and n_samples random
    (I(+)V)H(I(+)W) samples drawn from ``seed``; n_alpha, n_samples and
    seed act on nothing else.
    """
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    _require_contraction(T, tol)
    if not 1 <= k <= 2 * n:
        raise ValueError("rank must satisfy 1 <= k <= 2n")
    if n_samples < 0 or n_alpha < 0:
        raise ValueError("need n_samples >= 0 and n_alpha >= 0")
    xis = 2 * math.pi * np.arange(INTERSECTION_ANGLES) / INTERSECTION_ANGLES
    levels = _block_dilation_levels(T, k, xis, tol)
    if levels is None:
        levels = _sampled_levels(T, k, xis, n_samples, n_alpha, seed, tol)
    planes = [support_plane(xi, h) for xi, h in zip(xis, levels)]
    return halfplane_intersection(planes, bound=_op_norm(T) + 1.0, tol=tol)
