"""Differential tests: closed-form block-dilation levels against the
eigensolve loop kept in ``block_dilation_oracle``, and the residual gate
that checks one block dilation per operator.

Levels agree to 1e-13 on the 180-direction grid and on the tie normals
``dilation_intersection`` now uses; a T that is not normal, which the
oracle skips, it refuses.  Its exact polygon lies inside the grid oracle's outer
approximation, to eps_geom, and within the grid's error of it.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hrnr import core, dilation, jsonio
from hrnr.cli import main
from hrnr.errors import EigFailure, NotNormal
from hrnr.geometry import DEFAULT_TOL, ConvexPolygon, hausdorff_distance

import block_dilation_oracle as oracle
from conftest import haar_unitary, random_normal_contraction

XIS = 2 * math.pi * np.arange(180) / 180
JORDAN = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)  # not normal


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_levels_match_oracle(rng):
    # on the grid and on the plane directions, tie normals included
    calls = 0
    for T in _contractions(rng):
        vals, V = dilation._unitary_eigendecomposition(T)
        for k in range(1, 2 * T.shape[0] + 1):
            for xis in (XIS, dilation._breakpoints(vals, k)):
                old = oracle._block_dilation_planes(T, k, xis, DEFAULT_TOL)
                new = dilation._block_dilation_levels(T, vals, V, k, xis)
                calls += 1
                assert not np.isnan(old).any()
                assert np.max(np.abs(new - old)) <= 1e-13
    assert calls == 2 * 166
    # a T that is not normal has no block levels: the oracle skips it, and
    # the intersection refuses it
    for k in range(1, 5):
        assert np.isnan(oracle._block_dilation_planes(JORDAN, k, XIS, DEFAULT_TOL)).all()
        with pytest.raises(NotNormal):
            dilation.dilation_intersection(JORDAN, k)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intersections_match_oracle_on_dilation_lab(seed):
    # the grid oracle is an outer approximation: the exact polygon lies
    # inside it, within the grid's error (at most 1.2e-2 on these inputs),
    # and matches the benchmark's exact polygon of the rank-k range
    workloads = _load_workloads()
    lab = workloads.DilationLab(seed)
    eps = DEFAULT_TOL.eps_geom
    for eigs, T in zip(lab.eigs, lab.mats):
        bound = dilation._op_norm(T) + 1.0
        for k in (1, 2, 3):
            new = dilation.dilation_intersection(T, k, lab.n_samples, lab.n_alpha)
            old = oracle.dilation_intersection(T, k, lab.n_samples, lab.n_alpha)
            assert not new.is_empty
            assert all(old.signed_distance(v) <= eps for v in new.vertices)
            assert hausdorff_distance(new, old) <= 2e-2
            exact = ConvexPolygon(tuple(complex(v) for v in workloads.rank_k_polygon(eigs, k)))
            assert hausdorff_distance(new, exact) <= 1e-12 * bound


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
        vals, V = dilation._unitary_eigendecomposition(T)
        built.clear()
        levels = dilation._block_dilation_levels(T, vals, V, k, xis)
        assert len(built) == 1
        gate = built[0]
        for xi, level in zip(xis, levels):
            c = np.real(np.exp(1j * xi) * vals)
            top = c > (np.sort(c)[n - k] + 1e-12 if k <= n else -np.inf)
            art = real(T, vals, V, xi, top)
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


def test_non_normal_fails_before_any_dilation(monkeypatch):
    counts = _count_work(monkeypatch)
    with pytest.raises(NotNormal, match="commutator norm"):
        dilation.dilation_intersection(JORDAN, 1, 5, 3)
    assert counts == {"block": 0, "eigvals": 0, "halmos": 0}


def test_failed_gate_adds_no_block_planes(rng, monkeypatch):
    T = random_normal_contraction(5, rng)
    k = 2
    real = dilation._unitary_eigendecomposition
    noise = 1e-8 * haar_unitary(5, rng)

    def perturbed(T):
        vals, V = real(T)
        return vals, V + noise

    monkeypatch.setattr(dilation, "_unitary_eigendecomposition", perturbed)
    monkeypatch.setattr(oracle, "_unitary_eigendecomposition", perturbed)
    assert np.isnan(oracle._block_dilation_planes(T, k, XIS, DEFAULT_TOL)).all()
    vals, V = dilation._unitary_eigendecomposition(T)
    with pytest.raises(EigFailure, match="residuals too large"):
        dilation._block_dilation_levels(T, vals, V, k, XIS)
    with pytest.raises(EigFailure, match="residuals too large"):
        dilation.dilation_intersection(T, k, 2, 4)


def test_near_normal_contractions_fail_the_gate(tmp_path, capsys):
    # 1e-10 entrywise noise passes require_normal but not the residual
    # check of the block dilation: an error naming both residuals; 1e-11
    # noise passes both, and 1e-8 or 1e-7 noise fails require_normal:
    # NotNormal, never a polygon
    rng = np.random.default_rng(11)
    path = tmp_path / "T.json"
    for _ in range(20):
        T = random_normal_contraction(8, rng)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert not dilation.dilation_intersection(T + 1e-11 * noise, 2, 4, 16).is_empty
        bad = T + 1e-10 * noise
        with pytest.raises(EigFailure, match=r"residuals too large \(unitarity .+, compression .+\)"):
            dilation.dilation_intersection(bad, 2, 4, 16)
        with pytest.raises(EigFailure, match=r"residuals too large \(unitarity .+, compression .+\)"):
            dilation.excluding_dilation_matrix(bad, 2, 0.99 + 0j)
        path.write_text(jsonio.dumps(jsonio.matrix_to_obj(bad)))
        assert main(["intersect", "--input", str(path), "-k", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: dilation residuals too large")
        for scale in (1e-8, 1e-7):
            bad = T + scale * noise
            with pytest.raises(NotNormal, match="commutator norm"):
                dilation.dilation_intersection(bad, 2, 4, 16)
            path.write_text(jsonio.dumps(jsonio.matrix_to_obj(bad)))
            assert main(["intersect", "--input", str(path), "-k", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: commutator norm") and "Traceback" not in err


def _separating_inputs(rng):
    """(T, k, lam): the first 243 dilation_lab operations of seeds 1-3,
    then seeded normal contractions with n = 1..12, with generic, repeated
    and collinear eigenvalues, at every k <= n and at points just beyond,
    far beyond and inside the k-th support level of a random direction."""
    workloads = _load_workloads()
    for seed in (1, 2, 3):
        lab = workloads.DilationLab(seed)
        for i in range(243):
            yield lab.query(i)
    for n in range(1, 13):
        for kind in ("generic", "repeated", "collinear"):
            eigs = rng.uniform(0.05, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            if kind == "repeated":
                eigs[int(rng.integers(0, n)) :] = eigs[0]
            elif kind == "collinear":
                eigs = 0.1j + np.exp(2j * np.pi * rng.uniform()) * rng.uniform(-0.8, 0.8, n)
            Q = haar_unitary(n, rng)
            T = (Q * eigs) @ Q.conj().T
            for k in range(1, n + 1):
                for offset in (1e-6, 0.3, -0.1):
                    xi = rng.uniform(0, 2 * math.pi)
                    h = np.sort(np.real(np.exp(1j * xi) * eigs))[n - k]
                    yield T, k, complex(np.exp(-1j * xi) * (h + offset))


def test_separating_direction_matches_the_all_pair_scan(rng):
    # the breakpoints of L_k and the directions -arg(lam - d) find the
    # same direction and margin as scoring every pair normal
    calls = 0
    for T, k, lam in _separating_inputs(rng):
        vals, _ = dilation._unitary_eigendecomposition(T)
        new = dilation._separating_direction(vals, k, lam)
        assert new == oracle._separating_direction(vals, k, lam)
        calls += 1
    assert calls == 3 * 243 + 3 * 3 * 78


def test_chunk_bound_does_not_change_the_outputs(monkeypatch):
    lab = _load_workloads().DilationLab(1)
    cases = [lab.query(i) for i in range(lab.period)]
    rng = np.random.default_rng(60)
    eigs = rng.uniform(0.05, 0.85, 60) * np.exp(2j * np.pi * rng.uniform(size=60))
    Q = haar_unitary(60, rng)
    h = np.sort(np.real(np.exp(0.7j) * eigs))[60 - 3]
    cases.append(((Q * eigs) @ Q.conj().T, 3, complex(np.exp(-0.7j) * (h + 0.05))))
    # its 3,540 pair normals span several chunks at the default bound
    assert dilation._pair_normals(eigs)[0].shape[0] == 3540 > core.BATCH_PAIRS // 60

    def outputs():
        out = []
        for T, k, lam in cases:
            vals, _ = dilation._unitary_eigendecomposition(T)
            art = dilation.excluding_dilation_matrix(T, k, lam)
            out.append(
                (
                    dilation._support_levels(vals, k, dilation._pair_normals(vals)[0]).tobytes(),
                    dilation._breakpoints(vals, k).tobytes(),
                    art.matrix.tobytes(),
                    art.alpha,
                    repr(dilation.dilation_intersection(T, k, lab.n_samples, lab.n_alpha)),
                )
            )
        return out

    default = outputs()
    for cap in (3, 1 << 40):  # one direction per chunk, then one chunk
        monkeypatch.setattr(core, "BATCH_PAIRS", cap)
        assert outputs() == default
