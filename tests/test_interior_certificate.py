"""The level table of ``member_many`` against the full sweep.

``member_many`` checks each point against the model's k-th support level
table (``core._level_check``): a point the table certifies is IN without a
sweep, and a point well outside it is OUT from one kernel row
(``core._table_out``).  Every certified point must get IN from
``core._decide`` as well, and ``member_many`` must give the verdicts of a
``_decide``-only oracle, UNCERTAIN included, with the oracle's witnesses
bit for bit on the points not decided from the table, and on those a
witness whose dimension is ``witness_dim``, below k: on matrix models with
repeated eigenvalues, on the region_wu model pool and on the presets, and
on dyadic lattice models at points pushed across the eps band.  The table
is built once per (model, rank), on the rank's first query; a batch it
certifies in full, a lone first point included, makes no direction build
and no kernel call, and a batch it decides OUT in full makes one kernel
call of one row per point and no direction build.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hrnr
from hrnr import core, kernels, presets
from hrnr.core import MembershipVerdict, _level_check, member_many

from conftest import assert_member_many, swept_members


def _region_wu_pool():
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stream, named = module.RegionWu(1).build(hrnr)
    return [m for m, _ in stream] + [m for _, m, _ in named]


def _matrix_model(rng, n):
    """n eigenvalues in the unit disk, a few of them twice or three times."""
    eigs = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    mults = np.ones(n, dtype=int)
    mults[rng.choice(n, size=max(2, n // 20), replace=False)] = rng.integers(2, 4)
    atoms = tuple(hrnr.Atom(complex(z), int(m)) for z, m in zip(eigs, mults))
    return hrnr.SpectralMeasureModel(atoms=atoms, support_radius=1.0)


def _points(model, k, rng, n_scaled, scale=(0.9, 1.02)):
    """Atoms, and polygon vertices of the rank-k region scaled about their
    mean by t in ``scale``, by default from well inside to just outside."""
    pts = [a.location for a in model.atoms[:20]]
    verts = np.array(hrnr.region(model, k, 96).polygon.vertices, dtype=complex)
    if len(verts):
        mean = verts.mean()
        picks = verts[rng.integers(0, len(verts), n_scaled)]
        pts += [complex(z) for z in mean + rng.uniform(*scale, n_scaled) * (picks - mean)]
    return pts


def _check(model, k, points, seen):
    checks = _level_check(model, int(k), points)
    expected = swept_members(model, k, points)
    for check, want in zip(checks, expected):
        if check is hrnr.Verdict.IN:
            assert want.value is hrnr.Verdict.IN
    table = assert_member_many(model, k, points, member_many(model, k, points), expected)
    certified = sum(check is hrnr.Verdict.IN for check in checks)
    seen["certified"] += certified
    seen["table_out"] += len(table)
    seen["swept"] += len(points) - certified - len(table)
    return expected


def _ranks(model):
    ranks = [1, 2, 3]
    if model.total_dim != hrnr.RANK_INF:
        ranks.append(int(model.total_dim))
    return [k for k in ranks if k <= model.total_dim]


@pytest.mark.parametrize("n", [50, 200, 800])
def test_certificate_agrees_with_the_sweep_on_matrix_models(n):
    rng = np.random.default_rng([2028, n])
    model = _matrix_model(rng, n)
    seen = {"certified": 0, "table_out": 0, "swept": 0}
    for k in _ranks(model):
        _check(model, k, _points(model, k, rng, 60 if n < 800 else 30), seen)
    assert min(seen.values()) > 0


def test_certificate_agrees_with_the_sweep_on_a_normal_matrix():
    rng = np.random.default_rng(2029)
    eigs = rng.uniform(0.1, 0.9, 30) * np.exp(2j * np.pi * rng.uniform(size=30))
    eigs = np.concatenate([eigs, eigs[:4]])
    q, _ = np.linalg.qr(rng.standard_normal((34, 34)) + 1j * rng.standard_normal((34, 34)))
    model = hrnr.from_normal_matrix((q * eigs) @ q.conj().T)
    seen = {"certified": 0, "table_out": 0, "swept": 0}
    for k in _ranks(model):
        _check(model, k, _points(model, k, rng, 60), seen)
    assert min(seen.values()) > 0


def _pool_and_presets():
    return _region_wu_pool() + [
        presets.durszt_model(2),
        presets.durszt_model(3),
        presets.bilateral_shift_model(),
        presets.infinity_empty_model(),
        presets.hermitian_model(),
        presets.square_region_model(2),
    ]


def _pool_check(scale):
    rng = np.random.default_rng(2030)
    seen = {"certified": 0, "table_out": 0, "swept": 0}
    for model in _pool_and_presets():
        for k in _ranks(model):
            _check(model, k, _points(model, k, rng, 12, scale), seen)
    return seen


def test_certificate_agrees_with_the_sweep_on_the_region_wu_pool_and_presets():
    assert min(_pool_check((0.9, 1.02)).values()) > 0


def test_table_out_agrees_with_the_sweep_on_the_region_wu_pool_and_presets():
    # region vertices from the boundary to far outside, where pieces, arcs
    # and family tails meet the table's OUT
    seen = _pool_check((0.999, 1.3))
    assert seen["table_out"] > 0 and seen["swept"] > 0


def _lattice_model(rng):
    """Four to ten atoms on the 1/8 lattice of [-1, 1]^2, multiplicities 1-3:
    exact collinearities put many region edges on support lines."""
    cells = rng.choice(17 * 17, size=int(rng.integers(4, 11)), replace=False)
    atoms = tuple(
        hrnr.Atom(complex(c % 17 - 8, c // 17 - 8) / 8, int(m))
        for c, m in zip(cells, rng.integers(1, 4, len(cells)))
    )
    return hrnr.SpectralMeasureModel(atoms=atoms, support_radius=1.5)


BAND_PUSHES = (1e-11, 1e-9, 3e-9, 4e-9, 5e-9, 1e-8, 1e-6, 1e-5)


def test_table_out_agrees_with_the_sweep_across_the_eps_band():
    # region vertices and edge midpoints pushed outward by about eps_geom:
    # the table may decide OUT only where the sweep does, and a point in the
    # band stays UNCERTAIN
    rng = np.random.default_rng(2033)
    seen = {"certified": 0, "table_out": 0, "swept": 0}
    uncertain = 0
    for _ in range(12):
        model = _lattice_model(rng)
        for k in (1, 2, 3):
            if k > model.total_dim:
                continue
            est = hrnr.region(model, k, 96)
            boundary = np.array([z for z, _ in est.boundary_report], dtype=complex)
            away = boundary - np.array(est.polygon.vertices, dtype=complex).mean()
            boundary, away = boundary[away != 0], away[away != 0]
            points = [complex(z) for d in BAND_PUSHES for z in boundary + d * away / np.abs(away)]
            expected = _check(model, k, points, seen)
            uncertain += sum(v.value is hrnr.Verdict.UNCERTAIN for v in expected)
    assert seen["table_out"] > 0 and seen["swept"] > 0 and uncertain > 0


def _counting(monkeypatch):
    """Counts of kernel calls, level table builds, direction builds and
    ``_decide`` calls, as the patched functions are called, and the
    direction-point pairs of each kernel call."""
    calls = {"kernel": 0, "levels": 0, "directions": 0, "decide": 0}
    pairs = []

    def counting(key, f):
        def counted(*args):
            calls[key] += 1
            if key == "kernel":
                pairs.append(len(args[0]) * len(args[3]))
            return f(*args)

        return counted

    monkeypatch.setattr(kernels, "atom_side_sweep", counting("kernel", kernels.atom_side_sweep))
    monkeypatch.setattr(core, "support_levels", counting("levels", core.support_levels))
    monkeypatch.setattr(core, "critical_directions", counting("directions", core.critical_directions))
    monkeypatch.setattr(core, "_decide", counting("decide", core._decide))
    return calls, pairs


def test_interior_points_make_no_kernel_call(monkeypatch):
    rng = np.random.default_rng(2031)
    model = _matrix_model(rng, 200)
    inner = [complex(z) for z in 0.3 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(size=40))]
    calls, _ = _counting(monkeypatch)
    for k in (1, 2):
        # a rank's first query of one point builds the rank's table, which
        # certifies it: no kernel call, no direction build, no decision
        assert hrnr.member(model, k, inner[0]).value is hrnr.Verdict.IN
        swept = dict(calls)
        assert swept == {"kernel": 0, "levels": k, "directions": 0, "decide": 0}
        # a batch the table certifies in full goes nowhere near the sweep
        for z in inner[1:]:
            assert hrnr.member(model, k, z).value is hrnr.Verdict.IN
        assert member_many(model, k, inner) == [MembershipVerdict(hrnr.Verdict.IN)] * len(inner)
        assert calls == swept
    assert sorted(model._level_tables) == [1, 2]
    # a boundary point, the rightmost atom at rank 1, has table margin 0:
    # it goes through the sweep, with the same table
    edge = max(model.atoms, key=lambda a: a.location.real).location
    assert hrnr.member(model, 1, edge).value is hrnr.Verdict.IN
    assert calls["kernel"] > swept["kernel"] and calls["directions"] == calls["decide"] == 1
    assert calls["levels"] == 2
    # a first call of several points builds the table at once
    swept = dict(calls)
    assert member_many(model, 3, inner[:2]) == [MembershipVerdict(hrnr.Verdict.IN)] * 2
    assert calls == {**swept, "levels": 3}


def test_far_points_take_one_kernel_row_each(monkeypatch):
    rng = np.random.default_rng(2032)
    model = _matrix_model(rng, 200)
    far = [complex(z) for z in 1.5 * np.exp(2j * np.pi * rng.uniform(size=40))]
    for k in (1, 2):
        hrnr.member(model, k, 0j)  # builds the rank's table
    calls, pairs = _counting(monkeypatch)
    results = {}
    for k in (1, 2):
        # a batch the table decides OUT in full: one kernel call of one row
        # per point, no direction build and no decision
        before = dict(calls)
        results[k] = member_many(model, k, far)
        assert calls == {**before, "kernel": before["kernel"] + 1}
        assert pairs[-1] == len(far) * len(model.atoms)
        # rows in chunks of at most BATCH_PAIRS direction-point pairs
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "BATCH_PAIRS", 10 * len(model.atoms))
            assert member_many(model, k, far) == results[k]
        assert pairs[-4:] == [10 * len(model.atoms)] * 4
    assert calls["directions"] == calls["decide"] == calls["levels"] == 0
    for k, got in results.items():
        assert assert_member_many(model, k, far, got, swept_members(model, k, far)) == set(range(len(far)))


def test_rank_inf_and_no_points_bypass_the_table(monkeypatch):
    calls, _ = _counting(monkeypatch)
    model = presets.bilateral_shift_model()
    assert hrnr.member(model, hrnr.RANK_INF, 0j).value is hrnr.Verdict.IN
    assert member_many(model, 2, []) == []
    assert calls["levels"] == 0 and model._level_tables == {}
