"""Differential tests: the one-SVD ``halmos`` against the eigendecomposition
version kept in ``halmos_oracle``.

On contractions whose singular values stay off 1 the two agree to 1e-13
entrywise and give the same defect rank.  A singular value at 1 puts the
square roots at sqrt(rounding), about 1e-8, where only the SVD form keeps
T*T + D^2 = I to rounding.
"""

import math

import numpy as np
import pytest

from hrnr import dilation
from hrnr.errors import EigFailure

import halmos_oracle as oracle
from conftest import haar_unitary


def _contractions(rng):
    """Edge cases, then random contractions W diag(s) V* with generic,
    rank-deficient, repeated and few-valued singular values below 1."""
    yield np.zeros((3, 3), dtype=complex)
    yield np.zeros((1, 1), dtype=complex)
    yield np.eye(4, dtype=complex)
    yield np.diag([1, -1, 1j, -1j]).astype(complex)
    yield np.diag([1, 0.5, -1j, 0]).astype(complex)
    yield np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
    for i in range(240):
        n = int(rng.integers(1, 9))
        s = rng.uniform(0, 0.99, n)
        if i % 4 == 1:
            s[: rng.integers(1, n + 1)] = 0.0
        elif i % 4 == 2:
            s[:] = s[0]
        elif i % 4 == 3:
            s = rng.choice([0.0, 0.25, 0.5, 0.75], n)
        yield (haar_unitary(n, rng) * s) @ haar_unitary(n, rng)


def test_halmos_matches_oracle(rng):
    calls = 0
    for T in _contractions(rng):
        alpha = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        old = oracle.halmos(T, alpha)
        new = dilation.halmos(T, alpha)
        assert np.max(np.abs(new.matrix - old.matrix)) <= 1e-13
        assert new.defect_rank == old.defect_rank
        assert new.alpha == old.alpha
        calls += 1
    assert calls == 246


def test_one_svd_and_no_hermitian_eigensolve(rng, monkeypatch):
    counts = {"svd": 0, "eigh": 0, "eigvalsh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    T = (haar_unitary(5, rng) * rng.uniform(0, 0.9, 5)) @ haar_unitary(5, rng)
    dilation.halmos(T, 0.4)
    assert counts == {"svd": 1, "eigh": 0, "eigvalsh": 0}


def test_singular_values_at_one(rng):
    # products of unitaries and partial isometries: the eigh square roots
    # of I - T*T read rounding as 1e-8 defects and fail the residual check
    for n in (2, 4, 6):
        s = np.ones(n)
        s[n // 2 :] = rng.uniform(0, 0.9, n - n // 2)
        for T in (haar_unitary(n, rng), (haar_unitary(n, rng) * s) @ haar_unitary(n, rng)):
            with pytest.raises(EigFailure):
                oracle.halmos(T)
            art = dilation.halmos(T, 0.7)
            assert art.unitarity_residual <= 1e-13 and art.compression_residual == 0.0
