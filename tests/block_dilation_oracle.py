"""The per-direction block-dilation loop, kept as the test oracle.

This is the implementation ``hrnr.dilation`` had before its block-dilation
support levels came from the construction in closed form: assemble the
2n x 2n block dilation for every direction, check its residuals, and read
the rank-k level back from its eigenvalues.  ``dilation_intersection`` is
the version that used it.  ``_separating_direction`` is the scan that
``excluding_dilation_matrix`` used before it took its candidates from the
breakpoints of L_k: every pair normal, a bounded chunk at a time.  The
differential tests compare each with its replacement.
"""

from __future__ import annotations

import math

import numpy as np

from hrnr.dilation import (
    _block_dilation,
    _op_norm,
    _pair_normals,
    _require_contraction,
    _residuals,
    _unitary_eigendecomposition,
    halmos,
)
from hrnr.errors import EigFailure, NotNormal
from hrnr.geometry import DEFAULT_TOL, ConvexPolygon, TolerancePolicy, halfplane_intersection

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
    tol: TolerancePolicy = DEFAULT_TOL,
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
