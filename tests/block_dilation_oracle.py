"""The per-direction block-dilation loop, kept as the test oracle.

This is the implementation ``hrnr.dilation`` had before its block-dilation
support levels came from the construction in closed form: assemble the
2n x 2n block dilation for every direction, check its residuals, and read
the rank-k level back from its eigenvalues.  ``dilation_intersection`` is
the version that used it.  ``_block_dilation`` and ``scalar_dilation``
(with ``_second_circle_intersection``, the far-point rule that the
exclusion certificates shared) are the assembly it used, and that
``hrnr.dilation`` kept until its block dilations came from one closed
form in four diagonal blocks: a loop over the eigenvalues that writes
each 2x2 block into a 2n x 2n array, the scalar dilations as products
q diag(xi, eta) q^T, and the conjugation by ``np.kron(np.eye(2), V)``.
``_separating_direction`` is the scan that
``excluding_dilation_matrix`` used before it took its candidates from the
breakpoints of L_k: every pair normal, a bounded chunk at a time.  The
differential tests compare each with its replacement.
"""

from __future__ import annotations

import math

import numpy as np

from hrnr.dilation import (
    DilationArtifact,
    _defect_rank,
    _op_norm,
    _pair_normals,
    _require_contraction,
    _require_residuals,
    _residuals,
    _unitary_eigendecomposition,
    halmos,
)
from hrnr.errors import (
    CoincidentEndpoints,
    EigFailure,
    InvariantViolation,
    NotNormal,
    NotOnSegment,
)
from hrnr.geometry import (
    DEFAULT_TOL,
    ConvexPolygon,
    halfplane_intersection,
    require_finite,
)

from conftest import haar_unitary
from geometry_oracle import plane_lines, support_plane


def _support_levels(eigs: np.ndarray, k: int, xis: np.ndarray) -> np.ndarray:
    """k-th largest of Re(e^{i xi} eigs) for every xi; -inf when k exceeds
    the number of eigenvalues."""
    if k > eigs.shape[0]:
        return np.full(xis.shape[0], -np.inf)
    proj = np.real(np.exp(1j * xis)[:, None] * eigs[None, :])
    proj.sort(axis=1)
    return proj[:, eigs.shape[0] - k]


def _separating_direction(vals: np.ndarray, k: int, lam: complex) -> tuple[float, float]:
    """The direction xi maximizing the margin Re(e^{i xi} lam) - L_k(xi),
    L_k(xi) being the k-th largest Re(e^{i xi} d) over the eigenvalues d,
    and that margin.

    Between directions where two eigenvalues project equally, L_k follows
    one eigenvalue d, so the margin is Re(e^{i xi} (lam - d)): its maximum
    lies at such a crossing, pi/2 - arg(d_i - d_j) or that plus pi, or at
    -arg(lam - d).  The candidates are scored a chunk at a time, so the
    working memory stays O(n^2).
    """
    n = vals.shape[0]
    xis = np.concatenate([_pair_normals(vals)[0], -np.angle(lam - vals)])
    best_xi, best = 0.0, -math.inf
    rows = max(n, 4096 // n)
    for start in range(0, xis.shape[0], rows):
        x = xis[start : start + rows]
        margins = np.real(np.exp(1j * x) * lam) - _support_levels(vals, k, x)
        j = int(np.argmax(margins))
        if margins[j] > best:
            best_xi, best = float(x[j]), float(margins[j])
    return best_xi, best


def _second_circle_intersection(eta: complex, d: complex) -> complex:
    rel = d - eta
    a = abs(rel) ** 2
    if a == 0.0:
        return -eta
    b = (rel * eta.conjugate()).real
    s = -2.0 * b / a
    return eta + s * rel


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


def _block_dilation_planes(T, k, xis, tol):
    """Support levels of per-direction block dilations that split off the
    eigenvalues beyond T's k-th level (all of them when k > n); NaN where
    the dilation fails its residual check or T is not normal."""
    levels = np.full(xis.shape[0], np.nan)
    try:
        vals, V = _unitary_eigendecomposition(T)
    except NotNormal:
        return levels
    cuts = _support_levels(vals, k, xis)
    for j, xi in enumerate(xis):
        c = np.real(np.exp(1j * xi) * vals)
        try:
            art = _block_dilation(T, vals, V, xi, c > cuts[j] + 1e-12)
        except EigFailure:
            continue
        levels[j] = _support_levels(np.linalg.eigvals(art.matrix), k, np.array([xi]))[0]
    return levels


def dilation_intersection(
    T: np.ndarray,
    k: int,
    n_samples: int,
    n_alpha: int,
    seed: int = 0,
    tol=DEFAULT_TOL,
    n_angles: int = 180,
) -> ConvexPolygon:
    """Intersect the rank-k region polygons over a family of unitary
    dilations: a rotated-Halmos grid, seeded random (I(+)V)H(I(+)W) samples,
    and per-direction block dilations."""
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    _require_contraction(T)
    if not 1 <= k <= 2 * n:
        raise ValueError("rank must satisfy 1 <= k <= 2n")
    base = halmos(T, 0.0).matrix
    xis = 2 * math.pi * np.arange(n_angles) / n_angles
    best = np.full(n_angles, np.inf)

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
        V = haar_unitary(n, rng)
        W = haar_unitary(n, rng)
        U = base.copy()
        U[:, n:] = U[:, n:] @ W
        U[n:, :] = V @ U[n:, :]
        if max(_residuals(U, T)) > tol.eps_unitary:
            continue
        best = np.minimum(best, _support_levels(np.linalg.eigvals(U), k, xis))

    block_levels = _block_dilation_planes(T, k, xis, tol)
    mask = ~np.isnan(block_levels)
    best[mask] = np.minimum(best[mask], block_levels[mask])

    planes = [support_plane(xi, h) for xi, h in zip(xis, best)]
    return halfplane_intersection(plane_lines(planes), bound=_op_norm(T) + 1.0)
