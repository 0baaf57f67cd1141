"""Finite-matrix test oracles: the subset-hull membership test and the
eigensolve-per-angle support level.

These are the implementations ``hrnr.core`` had before they left the
package, which decides membership by the half-plane sweep of a spectral
model: ``ckz_member`` puts lambda in the rank-k range of a normal matrix
iff it lies in the convex hull of every (n - k + 1)-subset of the
eigenvalues (Choi, Kribs & Zyczkowski), with C(n, n - k + 1) hulls, and
``matrix_lambda_k`` is the k-th largest eigenvalue of Re(e^{i xi} M).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hrnr.errors import EigFailure
from hrnr.geometry import Verdict, convex_hull, require_finite
from hrnr.spectral import _check_finite_rank, require_normal

from geometry_oracle import classify


def normal_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a normal matrix (checked by ``require_normal``)."""
    M = require_normal(M)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc


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
        v = classify(hull, lam)
        if v is Verdict.OUT:
            return Verdict.OUT
        if v is Verdict.UNCERTAIN:
            saw_uncertain = True
    return Verdict.UNCERTAIN if saw_uncertain else Verdict.IN
