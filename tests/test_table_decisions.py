"""Every decision through the level table against the sweep alone.

``core._decide`` consults the model's k-th support level table where one
anchor's sweep may hold more pairs than the table has directions
(``SpectralMeasureModel._anchor_pairs`` over ``core._LEVEL_DIRS``): a
point the table certifies is IN for every flavor set, a point it puts well
outside is OUT from one kernel row that decides every set OUT by a plane of
exact dimension, and the rest are swept.  ``region``'s boundary report,
``wu_check`` and ``is_boundary`` must then give what the sweep alone
(``core._decide_by_sweep``, reached by ``conftest.swept_region_wu`` and by
patching ``core._decide``) gives: the same polygons, boundary reports, Wu
verdicts, skip and uncertain counts, evidence points and notes, and
boundary kinds.  A witness from the table lies through its sample with
exact dimension below k (``conftest.assert_wu_reports``); every other
witness is the sweep's, bit for bit.  Below the cut the table is never
built and the kernel calls are those of the sweep alone.
"""

import numpy as np
import pytest

import hrnr
from hrnr import core, kernels, presets

from conftest import assert_wu_reports, outcome, swept_region_wu
from test_critical_directions_oracle import _region_wu as _region_wu_workload
from test_interior_certificate import _matrix_model


def _region_wu(seed):
    stream, named = _region_wu_workload()(seed).build(hrnr)
    return stream + [(model, k) for _, model, k in named]


def _assert_same_pipeline(model, k, n_angles):
    """``region`` and ``wu_check`` against the sweep alone; returns the
    number of Wu samples decided from the table."""
    est_sweep, wu_sweep = swept_region_wu(model, k, n_angles)
    est = hrnr.region(model, k, n_angles)
    assert est == est_sweep
    wu = outcome(hrnr.wu_check, model, k, est)
    if isinstance(wu_sweep, tuple):
        assert wu == wu_sweep
        return 0
    return len(assert_wu_reports(model, k, wu, wu_sweep))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_region_wu_pool_matches_the_sweep(seed):
    table = sum(_assert_same_pipeline(model, k, 96) for model, k in _region_wu(seed))
    assert table > 0


PRESETS = [(presets.durszt_model(k), k) for k in (1, 2, 3)] + [
    (presets.square_region_model(k), k) for k in (2, 3)
] + [
    (model, k)
    for model in (presets.bilateral_shift_model(), presets.infinity_empty_model(), presets.hermitian_model())
    for k in (1, 2, 3)
]


@pytest.mark.parametrize("n_angles", [48, 64, 96])
def test_presets_match_the_sweep(n_angles):
    table = sum(_assert_same_pipeline(model, k, n_angles) for model, k in PRESETS)
    # only infinity-empty, of 200 prefix points, is above the cut
    assert table > 0


def _swept_is_boundary(model, k, z):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_decide", core._decide_by_sweep)
        return outcome(hrnr.is_boundary, model, k, z)


@pytest.mark.parametrize("seed", [1, 2])
def test_is_boundary_matches_the_sweep_on_matrix_models(seed):
    # interior points the table certifies must be INTERIOR by the open
    # flavors too, and far points NOT_MEMBER, as the sweep finds them
    rng = np.random.default_rng([2035, seed])
    model = _matrix_model(rng, 200)
    kinds = []
    for k in (1, 2, 3):
        boundary = np.array([z for z, _ in hrnr.region(model, k, 96).boundary_report], dtype=complex)[::6]
        points = [a.location for a in model.atoms[:20]]
        points += [complex(z) for t in (0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.2) for z in t * boundary]
        for z in points:
            kind = outcome(hrnr.is_boundary, model, k, z)
            assert kind == _swept_is_boundary(model, k, z)
            kinds.append(kind)
    assert {hrnr.BoundaryKind.INTERIOR, hrnr.BoundaryKind.NOT_MEMBER} <= set(kinds)


def _kernel_calls(monkeypatch, run):
    calls = []
    sweep = kernels.atom_side_sweep

    def counting(*args):
        calls.append(len(args[0]) * len(args[3]))
        return sweep(*args)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "atom_side_sweep", counting)
        run()
    return calls


def _three_atoms():
    atoms = (hrnr.Atom(0.5 + 0j, 1), hrnr.Atom(-0.3 + 0.4j, 2), hrnr.Atom(-0.2 - 0.5j, 1))
    return hrnr.SpectralMeasureModel(atoms, (), (), 1.0)


@pytest.mark.parametrize(
    "model", [presets.durszt_model(2), presets.square_region_model(2), _three_atoms()], ids=["durszt", "square-region", "3-atom"]
)
def test_models_below_the_cut_never_build_the_table(model, monkeypatch):
    assert model._anchor_pairs <= core._LEVEL_DIRS
    swept = _kernel_calls(monkeypatch, lambda: swept_region_wu(model, 2, 96))

    def run():
        hrnr.wu_check(model, 2, hrnr.region(model, 2, 96))

    assert _kernel_calls(monkeypatch, run) == swept
    assert model._level_tables == {}


def test_models_above_the_cut_build_the_table():
    family = next((m, k) for m, k in _region_wu(1) if m.families)
    matrix = (_matrix_model(np.random.default_rng(2036), 200), 2)
    for model, k in (family, matrix):
        assert model._anchor_pairs > core._LEVEL_DIRS
        hrnr.wu_check(model, k, hrnr.region(model, k, 96))
        assert list(model._level_tables) == [k]
