"""Differential tests: closed-form block-dilation levels against the
eigensolve loop kept in ``block_dilation_oracle``, and the residual gate
that checks one block dilation per operator.

Levels agree to 1e-13 and are skipped for the same inputs;
``dilation_intersection`` gives the same vertex count within a Hausdorff
distance of 1e-12 * bound.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hrnr import dilation, matrix_lambda_k
from hrnr.geometry import DEFAULT_TOL, hausdorff_distance

import block_dilation_oracle as oracle
from conftest import haar_unitary, random_normal_contraction

XIS = 2 * math.pi * np.arange(180) / 180


def _load_dilation_lab():
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DilationLab


def _contractions(rng):
    """Normal contractions with n = 1..8, one with generic eigenvalues and
    one with some unimodular ones on the direction grid and the rest
    repeated; then edge cases."""
    for n in range(1, 9):
        for special in (False, True):
            eigs = rng.uniform(0.05, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            if special:
                m = int(rng.integers(1, n + 1))
                eigs[:m] = np.exp(1j * XIS[rng.integers(0, 180, m)])
                eigs[m:] = eigs[-1]
            Q = haar_unitary(n, rng)
            yield (Q * eigs) @ Q.conj().T
    yield np.diag([1.0, 0.5, -0.5]).astype(complex)
    # projections closer than the 1e-12 split threshold, yet resolvable:
    # the level picks L_{r + ceil((k - r) / 2)} out of the near tie
    yield np.diag([0.5, 0.5 + 5e-13, 0.5 - 5e-13, -0.3j])
    yield np.diag([1j, 1j, -0.25]).astype(complex)
    yield np.zeros((1, 1), dtype=complex)
    yield np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)  # not normal


def test_levels_match_oracle(rng):
    calls = skipped = 0
    for T in _contractions(rng):
        for k in range(1, 2 * T.shape[0] + 1):
            old = oracle._block_dilation_planes(T, k, XIS, DEFAULT_TOL)
            new = dilation._block_dilation_levels(T, k, XIS, DEFAULT_TOL)
            calls += 1
            if new is None:
                assert np.isnan(old).all()
                skipped += 1
            else:
                assert not np.isnan(old).any()
                assert np.max(np.abs(new - old)) <= 1e-13
    assert calls == 170 and skipped == 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intersections_match_oracle_on_dilation_lab(seed):
    lab = _load_dilation_lab()(seed)
    for T in lab.mats:
        bound = dilation._op_norm(T) + 1.0
        for k in (1, 2, 3):
            new = dilation.dilation_intersection(T, k, lab.n_samples, lab.n_alpha)
            old = oracle.dilation_intersection(T, k, lab.n_samples, lab.n_alpha)
            assert not new.is_empty
            assert len(new.vertices) == len(old.vertices)
            assert hausdorff_distance(new, old) <= 1e-12 * bound


def test_gate_residuals_and_levels(rng, monkeypatch):
    # the one dilation the gate assembles has the residuals of the dilation
    # in any other direction, whose eigenvalues give the closed-form level
    real = dilation._block_dilation
    built = []

    def record(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(dilation, "_block_dilation", record)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        T = random_normal_contraction(n, rng)
        k = int(rng.integers(1, 2 * n + 1))
        xis = rng.uniform(0, 2 * math.pi, 8)
        built.clear()
        levels = dilation._block_dilation_levels(T, k, xis, DEFAULT_TOL)
        assert levels is not None and len(built) == 1
        gate = built[0]
        vals, V = dilation._unitary_eigendecomposition(T, DEFAULT_TOL)
        for xi, level in zip(xis, levels):
            c = np.real(np.exp(1j * xi) * vals)
            top = c > (np.sort(c)[n - k] + 1e-12 if k <= n else -np.inf)
            art = real(T, vals, V, xi, top, DEFAULT_TOL)
            assert abs(art.unitarity_residual - gate.unitarity_residual) <= 1e-13
            assert abs(art.compression_residual - gate.compression_residual) <= 1e-13
            proj = np.sort(np.real(np.exp(1j * xi) * np.linalg.eigvals(art.matrix)))
            assert proj[2 * n - k] == pytest.approx(level, abs=1e-13)


def _count_work(monkeypatch):
    counts = {"block": 0, "eigvals": 0, "halmos": 0}
    for module, name, key in (
        (dilation, "_block_dilation", "block"),
        (np.linalg, "eigvals", "eigvals"),
        (dilation, "halmos", "halmos"),
    ):
        real = getattr(module, name)

        def counted(*args, _real=real, _key=key):
            counts[_key] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_one_block_dilation_and_no_block_eigensolve(rng, monkeypatch):
    # a normal T takes its planes from the block levels alone
    counts = _count_work(monkeypatch)
    dilation.dilation_intersection(random_normal_contraction(6, rng), 2, 3, 5)
    assert counts == {"block": 1, "eigvals": 0, "halmos": 0}


def test_non_normal_takes_the_sampled_path(monkeypatch):
    T = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
    counts = _count_work(monkeypatch)
    poly = dilation.dilation_intersection(T, 1, 5, 3)
    assert counts == {"block": 0, "eigvals": 5 + 3, "halmos": 1}
    # every dilation's numerical range contains T's
    verts = np.array(poly.vertices)
    for xi in XIS:
        support = np.max(np.real(np.exp(1j * xi) * verts))
        assert support >= matrix_lambda_k(T, 1, xi) - 1e-12


def test_failed_gate_adds_no_block_planes(rng, monkeypatch):
    T = random_normal_contraction(5, rng)
    k = 2
    with_blocks = dilation.dilation_intersection(T, k, 2, 4)
    with monkeypatch.context() as m:
        m.setattr(dilation, "_block_dilation_levels", lambda *args: None)
        without_blocks = dilation.dilation_intersection(T, k, 2, 4)
    assert hausdorff_distance(with_blocks, without_blocks) > 1e-3  # the block planes count

    real = dilation._unitary_eigendecomposition
    noise = 1e-8 * haar_unitary(5, rng)

    def perturbed(T, tol):
        vals, V = real(T, tol)
        return vals, V + noise

    monkeypatch.setattr(dilation, "_unitary_eigendecomposition", perturbed)
    monkeypatch.setattr(oracle, "_unitary_eigendecomposition", perturbed)
    assert dilation._block_dilation_levels(T, k, XIS, DEFAULT_TOL) is None
    assert np.isnan(oracle._block_dilation_planes(T, k, XIS, DEFAULT_TOL)).all()
    assert dilation.dilation_intersection(T, k, 2, 4).vertices == without_blocks.vertices
