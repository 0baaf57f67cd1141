"""Differential tests: the planes of ``dilation_intersection`` against the
block dilations that attain them and the eigensolve loop kept in
``block_dilation_oracle``, the residual gate that checks one block
dilation per operator, and the block dilations assembled in four diagonal
blocks against the per-eigenvalue ``np.kron`` assembly kept there.

Each plane's level is T's own L_k from the one scan of (T, k); the block
dilation that splits off exactly the eigenvalues beyond it attains it to
1e-13, and the oracle's dilations, split 1e-12 above L_k, lie at most that
far above it.  A T that is not normal, which the oracle skips, it refuses.
The exact polygon lies inside the grid oracle's outer approximation, to
eps_geom, and within the grid's error of it.  The closed-form assembly
raises what the ``np.kron`` one raised, its matrices lie within 1e-14 of
that one's, and the dilation_lab polygons are ``repr``-identical with
either.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import hrnr
from hrnr import dilation, jsonio, kernels
from hrnr.cli import main
from hrnr.errors import (
    CoincidentEndpoints,
    EigFailure,
    HrnrError,
    InvariantViolation,
    NotNormal,
    NotOnSegment,
)
from hrnr.geometry import DEFAULT_TOL, ConvexPolygon, snap_dirs

import block_dilation_oracle as oracle
from geometry_oracle import hausdorff_distance, signed_distance
from jsonio_writers import matrix_to_obj
from conftest import haar_unitary, random_normal_contraction
from test_exclusion_oracle import _beyond, _criterion_6_inputs, _lab_inputs, _near_threshold_inputs

XIS = 2 * math.pi * np.arange(180) / 180
JORDAN = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)  # not normal
NEAR_TIE = np.diag([0.5, 0.5 + 5e-13, 0.5 - 5e-13, -0.3j])


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
    # projections closer than the 1e-12 tie test, yet resolvable: the
    # planes stand at L_k itself, not within the near tie above it
    yield NEAR_TIE
    yield np.diag([1j, 1j, -0.25]).astype(complex)
    yield np.zeros((1, 1), dtype=complex)


def _planes(rng):
    """(T, vals, V, k, xis, levels): the planes of every T of
    ``_contractions`` at every rank k <= n, from one scan each."""
    for T in _contractions(rng):
        vals, V = dilation._unitary_eigendecomposition(T)
        for k in range(1, T.shape[0] + 1):
            yield T, vals, V, k, *dilation._breakpoints(vals, k)


def test_planes_are_attained_at_the_support_levels(rng):
    # each level is L_k at its direction, bit for bit, and the block
    # dilation that splits off exactly the eigenvalues projecting above it
    # has it as its rank-k level (eigensolved)
    planes = 0
    for T, vals, V, k, xis, levels in _planes(rng):
        c, s = snap_dirs(np.cos(xis), np.sin(xis))
        assert np.array_equal(levels, dilation._support_levels(vals, k, c, s))
        n = T.shape[0]
        for xi, cx, sx, level in zip(xis, c, s, levels):
            art = dilation._block_dilation(T, vals, V, xi, cx * vals.real - sx * vals.imag > level)
            proj = np.sort(np.real(np.exp(1j * xi) * np.linalg.eigvals(art.matrix)))
            assert abs(proj[2 * n - k] - level) <= 1e-13
            planes += 1
    assert planes == 1626
    # a T that is not normal has no planes: the oracle skips it, and the
    # intersection refuses it
    for k in range(1, 5):
        assert np.isnan(oracle._block_dilation_planes(JORDAN, k, XIS, DEFAULT_TOL)).all()
        with pytest.raises(NotNormal):
            dilation.dilation_intersection(JORDAN, k)


def test_split_oracle_levels_lie_within_the_tie_above(rng):
    # the oracle's dilations split 1e-12 above L_k, so their rank-k levels
    # lie in the tie above the plane's level, less the rounding of their
    # eigensolve (at most 1.5e-15 here)
    for T, _, _, k, xis, levels in _planes(rng):
        old = oracle._block_dilation_planes(T, k, xis, DEFAULT_TOL)
        assert not np.isnan(old).any()
        assert (levels - 1e-13 <= old).all() and (old <= levels + 1e-12 + 1e-13).all()


def test_near_tie_is_the_exact_point():
    # Lambda_2 of 0.5, 0.5 +- 5e-13 and -0.3i is the point 0.5; a plane
    # split 1e-12 above L_2 would stand at 0.5 + 5e-13
    poly = dilation.dilation_intersection(NEAR_TIE, 2)
    assert len(poly.vertices) == 1 and abs(poly.vertices[0] - 0.5) <= 1e-15


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
            assert all(signed_distance(old, v) <= eps for v in new.vertices)
            assert hausdorff_distance(new, old) <= 2e-2
            exact = ConvexPolygon(tuple(complex(v) for v in workloads.rank_k_polygon(eigs, k)))
            assert hausdorff_distance(new, exact) <= 1e-12 * bound


def test_gate_residuals_and_levels(rng, monkeypatch):
    # the one dilation the gate assembles, unsplit at xi = 0, has the
    # residuals of the split dilation in any other direction (every
    # eigenvalue split off when k > n), whose eigenvalues give L_k
    real = dilation._block_dilation
    built = []

    def record(T, vals, V, xi, top):
        built.append((xi, top.copy()))
        return real(T, vals, V, xi, top)

    monkeypatch.setattr(dilation, "_block_dilation", record)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        T = random_normal_contraction(n, rng)
        k = int(rng.integers(1, 2 * n + 1))
        built.clear()
        dilation.dilation_intersection(T, k)
        ((xi0, top0),) = built
        assert xi0 == 0.0 and not top0.any()
        vals, V = dilation._unitary_eigendecomposition(T)
        gate = real(T, vals, V, 0.0, top0)
        xis = rng.uniform(0, 2 * math.pi, 8)
        c, s = snap_dirs(np.cos(xis), np.sin(xis))
        for xi, cx, sx, level in zip(xis, c, s, dilation._support_levels(vals, min(k, n), c, s)):
            top = cx * vals.real - sx * vals.imag > level if k <= n else np.ones(n, bool)
            art = real(T, vals, V, xi, top)
            assert abs(art.unitarity_residual - gate.unitarity_residual) <= 1e-13
            assert abs(art.compression_residual - gate.compression_residual) <= 1e-13
            if k <= n:
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
    # the gate runs before the empty polygon of k > n too
    for rank in (k, 6):
        with pytest.raises(EigFailure, match="residuals too large"):
            dilation.dilation_intersection(T, rank, 2, 4)


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
        path.write_text(jsonio.dumps(matrix_to_obj(bad)))
        assert main(["intersect", "--input", str(path), "-k", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: dilation residuals too large")
        for scale in (1e-8, 1e-7):
            bad = T + scale * noise
            with pytest.raises(NotNormal, match="commutator norm"):
                dilation.dilation_intersection(bad, 2, 4, 16)
            path.write_text(jsonio.dumps(matrix_to_obj(bad)))
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
        new = dilation._separating_direction(vals, k, lam, *dilation._breakpoints(vals, k))
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
    assert dilation._pair_normals(eigs)[0].shape[0] == 3540 > kernels.BATCH_PAIRS // 60

    def outputs():
        out = []
        for T, k, lam in cases:
            vals, _ = dilation._unitary_eigendecomposition(T)
            normals = dilation._pair_normals(vals)[0]
            c, s = snap_dirs(np.cos(normals), np.sin(normals))
            art = dilation.excluding_dilation_matrix(T, k, lam)
            out.append(
                (
                    dilation._support_levels(vals, k, c, s).tobytes(),
                    b"".join(a.tobytes() for a in dilation._breakpoints(vals, k)),
                    art.matrix.tobytes(),
                    art.alpha,
                    repr(dilation.dilation_intersection(T, k, lab.n_samples, lab.n_alpha)),
                )
            )
        return out

    default = outputs()
    for cap in (3, 1 << 40):  # one direction per chunk, then one chunk
        monkeypatch.setattr(kernels, "BATCH_PAIRS", cap)
        assert outputs() == default


def _outcome(call):
    """What call returns, or the type of the package error it raises."""
    try:
        return call()
    except (HrnrError, ValueError) as exc:
        return type(exc)


def _scalar_inputs(rng):
    """(d, xi, eta): points on random chords, the endpoints, the midpoint,
    then one input for every error."""
    for _ in range(200):
        xi, eta = np.exp(2j * math.pi * rng.uniform(size=2))
        t = rng.choice([0.0, 1.0, rng.uniform()])
        yield complex(t * xi + (1 - t) * eta), complex(xi), complex(eta)
    yield 0, 1, -1
    yield 0.5, 1, -1
    yield 0.5j, 1, -1  # off the chord
    yield 2, 1, -1  # beyond the chord
    yield 1, 1, 1  # coincident endpoints
    yield 0.5, 0.5, -1  # an endpoint off the circle
    yield 0.5, 1, 1j * 0.5


def test_scalar_dilation_matches_the_product_form(rng):
    # the closed form gives the entries of q diag(xi, eta) q^T, and raises
    # what the product form raised
    kinds = set()
    for d, xi, eta in _scalar_inputs(rng):
        new = _outcome(lambda: dilation.scalar_dilation(d, xi, eta))
        old = _outcome(lambda: oracle.scalar_dilation(d, xi, eta))
        if isinstance(old, type):
            assert new is old
            kinds.add(old)
            continue
        assert new.shape == (2, 2) and new.dtype == complex
        assert np.max(np.abs(new - old)) <= 1e-15
        assert abs(new[0, 0] - d) <= 1e-15
    assert kinds == {NotOnSegment, CoincidentEndpoints}


def test_top_left_check_catches_what_the_others_pass():
    # a NaN d passes every comparison of the other checks
    with pytest.raises(InvariantViolation, match=r"top-left entry \(nan\+nanj\) misses d = "):
        dilation._scalar_blocks(np.array([complex(math.nan, 0.0)]), np.array([1 + 0j]), -1 + 0j)


def _assembly_cases(rng):
    """(T, vals, V, xi, top): normal contractions with generic, repeated and
    unimodular eigenvalues, one equal to eta = -e^{-i xi} and one whose far
    point lies within eps_geom of eta, each split off through every mask
    of one eigenvalue, none and all (the block dilation of k > n)."""
    xi0 = 0.7
    eta = complex(-np.exp(-1j * xi0))
    near = eta * complex(np.exp(3e-10j))  # its chord from eta is shorter than eps_geom
    mats = [np.diag([eta, 0.3, -0.2j]), np.diag([near, 0.5j, 0.5j]), np.zeros((1, 1), complex)]
    for n in range(1, 9):
        eigs = rng.uniform(0.05, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        eigs[: n // 2] = eigs[0]
        if n > 2:
            eigs[-2:] = np.exp(2j * np.pi * rng.uniform(size=2))
        Q = haar_unitary(n, rng)
        mats.append((Q * eigs) @ Q.conj().T)
    for T in mats:
        T = np.asarray(T, dtype=complex)
        n = T.shape[0]
        vals, V = dilation._unitary_eigendecomposition(T)
        masks = [np.zeros(n, bool), np.ones(n, bool)] + list(np.eye(n, dtype=bool))
        for xi in (xi0, *rng.uniform(0, 2 * math.pi, 3)):
            for top in masks:
                yield T, vals, V, float(xi), top


def test_block_dilations_match_the_kron_assembly(rng):
    cases = 0
    for T, vals, V, xi, top in _assembly_cases(rng):
        new = dilation._block_dilation(T, vals, V, xi, top)
        old = oracle._block_dilation(T, vals, V, xi, top)
        assert np.max(np.abs(new.matrix - old.matrix)) <= 1e-14
        assert (new.alpha, new.defect_rank) == (old.alpha, old.defect_rank)
        assert max(new.unitarity_residual, new.compression_residual) <= DEFAULT_TOL.eps_unitary
        cases += 1
    assert cases == 260


def _unimodular_inputs():
    """(T, k, lam) on seeded normal contractions with repeated and
    unimodular eigenvalues, at every k <= n + 1 (the rank check refuses
    k = n + 1), 0.05 beyond L_min(k, n) in a random direction."""
    rng = np.random.default_rng(2601)
    for n in range(2, 9):
        eigs = rng.uniform(0.05, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        eigs[: n // 2] = np.exp(2j * np.pi * rng.uniform())
        eigs[-1] = eigs[-2]
        Q = haar_unitary(n, rng)
        T = (Q * eigs) @ Q.conj().T
        for k in range(1, n + 2):
            yield T, k, _beyond(eigs, min(k, n), rng.uniform(0, 2 * math.pi), 0.05)


@pytest.mark.parametrize(
    "inputs",
    [_lab_inputs, _criterion_6_inputs, _near_threshold_inputs, _unimodular_inputs],
    ids=["dilation-lab", "criterion-6", "near-threshold", "unimodular-repeated"],
)
def test_excluding_dilations_match_the_kron_assembly(inputs, monkeypatch):
    # the same raise or return as with the per-eigenvalue assembly, and a
    # matrix within 1e-14 of its matrix
    closed_form = dilation._block_dilation

    def excluding(assembly, T, k, lam):
        monkeypatch.setattr(dilation, "_block_dilation", assembly)
        return _outcome(lambda: dilation.excluding_dilation_matrix(T, k, lam))

    outcomes = set()
    for T, k, lam in inputs():
        new = excluding(closed_form, T, k, lam)
        old = excluding(oracle._block_dilation, T, k, lam)
        if isinstance(old, type) or isinstance(new, type):
            assert new is old
            outcomes.add(old)
            continue
        outcomes.add("returned")
        assert np.max(np.abs(new.matrix - old.matrix)) <= 1e-14
        assert (new.alpha, new.defect_rank) == (old.alpha, old.defect_rank)
        for art in (new, old):
            assert max(art.unitarity_residual, art.compression_residual) <= DEFAULT_TOL.eps_unitary
    assert "returned" in outcomes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lab_intersections_are_identical_with_the_kron_assembly(seed, monkeypatch):
    # the one gate dilation per T passes with either assembly, and the
    # planes do not read it
    lab = _load_workloads().DilationLab(seed)
    cases = [(T, k) for T in lab.mats for k in (1, 2, 3)]
    new = [repr(dilation.dilation_intersection(T, k)) for T, k in cases]
    monkeypatch.setattr(dilation, "_block_dilation", oracle._block_dilation)
    dilation._analysis.cache_clear()
    assert [repr(dilation.dilation_intersection(T, k)) for T, k in cases] == new


def test_a_lab_op_makes_no_kron_and_no_scalar_dilation_call(monkeypatch):
    # the split-off eigenvalues of every rank go through the closed form,
    # once per excluding dilation; the intersection's gate splits none off
    counts = dict.fromkeys(["kron", "scalar_dilation", "_scalar_blocks"], 0)
    for module, name in ((np, "kron"), (dilation, "scalar_dilation"), (dilation, "_scalar_blocks")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    workloads = _load_workloads()
    lab = workloads.DilationLab(1)
    for i in (1, 2):  # ranks 2 and 3, which split eigenvalues off
        lab.op(hrnr, None, i)
    assert counts == {"kron": 0, "scalar_dilation": 0, "_scalar_blocks": 2}


def test_far_points_follow_the_scalar_rule_bit_for_bit(rng):
    # the block dilations and the exclusion certificates share one
    # far-point rule, which puts every far point where the scalar rule of
    # the earlier assembly put it
    for eta in np.exp(2j * math.pi * rng.uniform(size=200)).tolist():
        d = rng.uniform(0.0, 0.99, 100) * np.exp(2j * math.pi * rng.uniform(size=100))
        far = dilation._far_points(d, eta).tolist()
        assert far == [oracle._second_circle_intersection(eta, z) for z in d.tolist()]
    entries = 0
    for _ in range(20):
        locs = rng.uniform(0.05, 0.9, 6) * np.exp(2j * math.pi * rng.uniform(size=6))
        model = hrnr.SpectralMeasureModel(tuple(hrnr.Atom(z, 1) for z in locs), support_radius=1.0)
        plane = hrnr.ClosedHalfPlane(0j, rng.uniform(0, 2 * math.pi))
        nx, ny = plane.normal
        inside = int(np.count_nonzero(nx * locs.real + ny * locs.imag >= 0))
        if inside == 6:
            continue
        cert = hrnr.excluding_certificate(model, inside + 1, 0j, plane=plane)
        for d, xi, eta, t in cert.scalar_dilations:
            assert xi == oracle._second_circle_intersection(eta, d)
            assert t == abs(d - eta) / abs(xi - eta)
            entries += 1
    assert entries > 20
