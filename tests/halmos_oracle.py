"""The Halmos dilation built from two eigendecompositions, kept as the test
oracle.

This is the implementation ``hrnr.dilation.halmos`` had before it took the
norm check, both defect operators and the defect rank from one SVD: the
defects are square roots of I - T*T and I - TT* through ``eigh``, and the
defect rank comes from ``eigvalsh``.  The differential tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from hrnr.dilation import DilationArtifact, _require_contraction, _residuals
from hrnr.errors import EigFailure
from hrnr.geometry import DEFAULT_TOL


def _sqrt_psd(A: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _within(limit: float, *residuals: float) -> bool:
    """Every residual is at most limit; a NaN residual is not."""
    return all(r <= limit for r in residuals)


def halmos(T: np.ndarray, alpha: float = 0.0) -> DilationArtifact:
    """Rotated Halmos dilation [[T, -e^{-ia}D_*],[e^{-ia}D, e^{-2ia}T*]]."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    T, _ = _require_contraction(T)
    n = T.shape[0]
    eye = np.eye(n)
    dt = _sqrt_psd(eye - T.conj().T @ T)
    dts = _sqrt_psd(eye - T @ T.conj().T)
    ph = np.exp(-1j * alpha)
    U = np.block([[T, -ph * dts], [ph * dt, ph * ph * T.conj().T]])
    unit, comp = _residuals(U, T)
    if not _within(DEFAULT_TOL.eps_unitary, unit, comp):
        raise EigFailure(
            f"dilation residuals too large (unitarity {unit:.2e}, compression {comp:.2e})"
        )
    dvals = np.sqrt(np.clip(np.linalg.eigvalsh(eye - T.conj().T @ T), 0.0, None))
    return DilationArtifact(U, float(alpha), unit, comp, int(np.sum(dvals > DEFAULT_TOL.eps_eig)))
