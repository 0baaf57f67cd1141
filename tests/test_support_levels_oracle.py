"""Differential tests: the array support levels of ``hrnr.spectral``
against the per-direction pushforward scans kept in ``pushforward_oracle``.

Levels are ``repr``-identical, signed zeros included, on the region_wu
pools and the presets, on random models and on a matrix model with
repeated eigenvalues; the self-adjoint interval equals the oracle's
(``lambda_k_inf``, ``lambda_k_sup``) at 0 under ``==``, which takes a zero
of either sign as equal.  The finite points are scored a chunk of
directions at a time, and the levels do not depend on the chunk size.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hrnr
from hrnr import INF, Atom, Segment, SequenceFamily, SpectralMeasureModel, kernels, presets
from hrnr.geometry import _grid
from hrnr.spectral import support_levels

import pushforward_oracle as oracle
from conftest import random_model


def _region_wu_stream(seed):
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stream, _ = module.RegionWu(seed).build(hrnr)
    return [model for model, _ in stream]


def _pool(name):
    if name == "presets":
        return [presets.durszt_model(2), presets.square_region_model(2)]
    if name == "random":
        rng = np.random.default_rng(17)
        return [random_model(rng) for _ in range(40)]
    if name == "zeros":
        # levels that tie at a zero of either sign: the first in model order wins
        z = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        fam = SequenceFamily(((0.5 + 0j, 1), (0.25 + 0j, 2)), z[1], 0.0, "on")
        return [
            SpectralMeasureModel(tuple(Atom(p, m) for p, m in zip(order, mults)), families=fams)
            for order in (z, z[::-1])
            for mults in ((1, 1, 2, 1), (INF, 1, INF, 2))
            for fams in ((), (fam,))
        ]
    if name == "matrix":
        # repeated eigenvalues, and projections that tie in some directions
        vals = [0.5, 0.5, -0.5j, 0.3 + 0.4j, 0.3 + 0.4j, 0.3 + 0.4j, 0.0, 1j, 0.5j]
        return [hrnr.from_normal_matrix(np.diag(vals))]
    return _region_wu_stream(int(name))


def _oracle_levels(model, k_max, xis):
    """Per rank 1..k_max, the oracle level at every direction."""
    images = [oracle.pushforward(model, xi) for xi in xis]
    return {k: [oracle.lambda_k_sup(rm, k) for rm in images] for k in range(1, k_max + 1)}


@pytest.mark.parametrize("pool", ["1", "2", "3", "presets", "random", "zeros", "matrix"])
def test_levels_match_oracle(pool):
    for model in _pool(pool):
        k_max = int(min(3, model.total_dim))
        for n in (8, 96, 812):
            xis = _grid(n).tolist()
            for k, expected in _oracle_levels(model, k_max, xis).items():
                assert repr(support_levels(model, k, xis).tolist()) == repr(expected)


def test_region_samples_are_the_levels():
    model = presets.durszt_model(2)
    est = hrnr.region(model, 2, 96)
    xis = [xi for xi, _ in est.support_samples]
    assert xis == [2 * math.pi * j / 96 for j in range(96)]
    assert [h for _, h in est.support_samples] == _oracle_levels(model, 2, xis)[2]


def _real_axis_model(rng):
    """Atoms on a coarse real lattice, 0.0 and -0.0 among them and with an
    imaginary part of either sign of zero, now and then a real segment and
    a family approaching along the axis."""
    lattice = [-0.75, -0.5, -0.0, 0.0, 0.25, 0.5, 0.75]
    atoms = [
        Atom(
            complex(lattice[int(rng.integers(len(lattice)))], (0.0, -0.0)[int(rng.integers(2))]),
            INF if rng.uniform() < 0.1 else int(rng.integers(1, 4)),
        )
        for _ in range(int(rng.integers(1, 6)))
    ]
    pieces = ()
    if rng.uniform() < 0.2:
        a, b = sorted(rng.choice(lattice, 2, replace=False))
        if a != b:
            pieces = (Segment(complex(a), complex(b)),)
    families = ()
    if rng.uniform() < 0.2:
        lim = lattice[int(rng.integers(len(lattice)))]
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        prefix = tuple((complex(lim + sign * 0.2 * 0.5**j, 0.0), 1) for j in range(4))
        families = (SequenceFamily(prefix, complex(lim), 0.0 if sign > 0 else math.pi, "on"),)
    return SpectralMeasureModel(tuple(atoms), pieces, families, 2.0)


def test_selfadjoint_interval_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(400):
        model = _real_axis_model(rng)
        rm = oracle.pushforward(model, 0.0)
        for k in range(1, int(min(4, model.total_dim)) + 1):
            a, b = oracle.lambda_k_inf(rm, k), oracle.lambda_k_sup(rm, k)
            assert hrnr.selfadjoint_interval(model, k) == (None if a > b else (a, b))


def _matrix_model(n=800):
    rng = np.random.default_rng(5)
    eigs = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return SpectralMeasureModel(atoms=tuple(Atom(complex(z), 1) for z in eigs))


def test_chunks_do_not_change_the_levels(monkeypatch):
    model = _matrix_model()
    xis = _grid(96)
    for k in (1, 2, 400):
        monkeypatch.setattr(kernels, "BATCH_PAIRS", 1 << 40)
        whole = support_levels(model, k, xis)
        monkeypatch.setattr(kernels, "BATCH_PAIRS", 3)  # one direction per chunk
        assert support_levels(model, k, xis).tobytes() == whole.tobytes()


def test_levels_stay_within_the_chunk_memory():
    # unchunked, 4,096 directions over 800 atoms take 26 MB per array
    model = _matrix_model()
    xis = _grid(4096)
    support_levels(model, 1, xis[:8])  # cached point data is not working memory
    tracemalloc.start()
    try:
        support_levels(model, 1, xis)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 4.0
