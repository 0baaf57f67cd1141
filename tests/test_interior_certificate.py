"""The interior certificate of ``member_many`` against the full sweep.

``member_many`` calls a point IN without a sweep when the model's k-th
support level table certifies it (``core._certified_in``).  Every such
point must get IN from ``core._decide`` as well, and ``member_many`` must
equal a ``_decide``-only oracle bit for bit, witnesses included, on matrix
models with repeated eigenvalues, on the region_wu model pool and on the
presets.  The table is built once per (model, rank), on the rank's first
query, and a batch it certifies in full, a lone first point included,
makes no direction build and no kernel call.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hrnr
from hrnr import core, kernels, presets
from hrnr.core import _HCHP, MembershipVerdict, _certified_in, _decide, member_many


def _decide_only(model, k, points):
    """member_many without the certificate: every point through the sweep."""
    kf = core._check_rank(model, k)
    return [MembershipVerdict(*hchp) for (hchp,) in _decide(model, kf, points, [(_HCHP, True)])]


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


def _points(model, k, rng, n_scaled):
    """Atoms, and polygon vertices of the rank-k region scaled about their
    mean by t in [0.9, 1.02], so from well inside to just outside."""
    pts = [a.location for a in model.atoms[:20]]
    verts = np.array(hrnr.region(model, k, 96).polygon.vertices, dtype=complex)
    if len(verts):
        mean = verts.mean()
        picks = verts[rng.integers(0, len(verts), n_scaled)]
        pts += [complex(z) for z in mean + rng.uniform(0.9, 1.02, n_scaled) * (picks - mean)]
    return pts


def _check(model, k, points, seen):
    certified = _certified_in(model, int(k), points)
    expected = _decide_only(model, k, points)
    for ok, want in zip(certified, expected):
        if ok:
            assert want.value is hrnr.Verdict.IN
    assert member_many(model, k, points) == expected
    seen["certified"] += sum(certified)
    seen["swept"] += len(points) - sum(certified)


def _ranks(model):
    ranks = [1, 2, 3]
    if model.total_dim != hrnr.RANK_INF:
        ranks.append(int(model.total_dim))
    return [k for k in ranks if k <= model.total_dim]


@pytest.mark.parametrize("n", [50, 200, 800])
def test_certificate_agrees_with_the_sweep_on_matrix_models(n):
    rng = np.random.default_rng([2028, n])
    model = _matrix_model(rng, n)
    seen = {"certified": 0, "swept": 0}
    for k in _ranks(model):
        _check(model, k, _points(model, k, rng, 60 if n < 800 else 30), seen)
    assert seen["certified"] > 0 and seen["swept"] > 0


def test_certificate_agrees_with_the_sweep_on_a_normal_matrix():
    rng = np.random.default_rng(2029)
    eigs = rng.uniform(0.1, 0.9, 30) * np.exp(2j * np.pi * rng.uniform(size=30))
    eigs = np.concatenate([eigs, eigs[:4]])
    q, _ = np.linalg.qr(rng.standard_normal((34, 34)) + 1j * rng.standard_normal((34, 34)))
    model = hrnr.from_normal_matrix((q * eigs) @ q.conj().T)
    seen = {"certified": 0, "swept": 0}
    for k in _ranks(model):
        _check(model, k, _points(model, k, rng, 60), seen)
    assert seen["certified"] > 0 and seen["swept"] > 0


def test_certificate_agrees_with_the_sweep_on_the_region_wu_pool_and_presets():
    rng = np.random.default_rng(2030)
    models = _region_wu_pool() + [
        presets.durszt_model(2),
        presets.durszt_model(3),
        presets.bilateral_shift_model(),
        presets.infinity_empty_model(),
        presets.hermitian_model(),
        presets.square_region_model(2),
    ]
    seen = {"certified": 0, "swept": 0}
    for model in models:
        for k in _ranks(model):
            _check(model, k, _points(model, k, rng, 12), seen)
    assert seen["certified"] > 0 and seen["swept"] > 0


def _counting(monkeypatch):
    """Counts of kernel calls, level table builds, direction builds and
    ``_decide`` calls, as the patched functions are called."""
    calls = {"kernel": 0, "levels": 0, "directions": 0, "decide": 0}

    def counting(key, f):
        def counted(*args):
            calls[key] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(kernels, "atom_side_sweep", counting("kernel", kernels.atom_side_sweep))
    monkeypatch.setattr(core, "support_levels", counting("levels", core.support_levels))
    monkeypatch.setattr(core, "critical_directions", counting("directions", core.critical_directions))
    monkeypatch.setattr(core, "_decide", counting("decide", core._decide))
    return calls


def test_interior_points_make_no_kernel_call(monkeypatch):
    rng = np.random.default_rng(2031)
    model = _matrix_model(rng, 200)
    inner = [complex(z) for z in 0.3 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(size=40))]
    calls = _counting(monkeypatch)
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
    # a point outside the range goes through the sweep, with the same table
    assert hrnr.member(model, 2, 1.5 + 0j).value is hrnr.Verdict.OUT
    assert calls["kernel"] > swept["kernel"] and calls["directions"] == calls["decide"] == 1
    assert calls["levels"] == 2
    # a first call of several points builds the table at once
    swept = dict(calls)
    assert member_many(model, 3, inner[:2]) == [MembershipVerdict(hrnr.Verdict.IN)] * 2
    assert calls == {**swept, "levels": 3}


def test_rank_inf_and_no_points_bypass_the_table(monkeypatch):
    calls = _counting(monkeypatch)
    model = presets.bilateral_shift_model()
    assert hrnr.member(model, hrnr.RANK_INF, 0j).value is hrnr.Verdict.IN
    assert member_many(model, 2, []) == []
    assert calls["levels"] == 0 and model._level_tables == {}

