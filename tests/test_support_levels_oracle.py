"""Differential tests: the array support levels of ``hrnr.spectral``
against the per-direction pushforward scans kept in ``pushforward_oracle``,
and against the full-sort body kept in ``support_levels_oracle``.

Levels are ``repr``-identical, signed zeros included, on the region_wu
pools and the presets, on random models, on a matrix model with repeated
eigenvalues and on lattice models whose k-th and (k+1)-th projections tie;
the self-adjoint interval equals the oracle's (``lambda_k_inf``,
``lambda_k_sup``) at 0 under ``==``, which takes a zero of either sign as
equal.  At the size of ``member``'s level table (1,024 directions, up to
800 points) the levels are byte-identical to the full sort's, by top-k
selection and by full sort alike.  The finite points are scored a chunk of
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
from hrnr.geometry import _grid, snap_dirs
from hrnr.spectral import support_levels

import pushforward_oracle as oracle
import support_levels_oracle
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
    if name == "lattice":
        # 36 atoms on the 1/8 lattice, imaginary parts >= 0 (zeros of either
        # sign): on axis and diagonal directions the k-th and (k+1)-th
        # projections tie, at xi = pi/2 as zeros of either sign
        rng = np.random.default_rng(29)
        return [_lattice_model(rng, 36, mults) for mults in ((1,), (1, 2, 3), (1, 1, 1, INF))]
    if name == "matrix":
        # repeated eigenvalues, and projections that tie in some directions
        vals = [0.5, 0.5, -0.5j, 0.3 + 0.4j, 0.3 + 0.4j, 0.3 + 0.4j, 0.0, 1j, 0.5j]
        return [hrnr.from_normal_matrix(np.diag(vals))]
    return _region_wu_stream(int(name))


def _oracle_levels(model, k_max, xis):
    """Per rank 1..k_max, the oracle level at every direction."""
    images = [oracle.pushforward(model, xi) for xi in xis]
    return {k: [oracle.lambda_k_sup(rm, k) for rm in images] for k in range(1, k_max + 1)}


def _lattice_model(rng, n, mults, families=False):
    """n atoms on the 1/8 lattice of [-3/4, 3/4] x [0, 3/4], their imaginary
    zeros of either sign, multiplicities drawn from ``mults``; with
    ``families``, a family with a lattice limit and a three-point prefix."""
    real = rng.integers(-6, 7, n) / 8
    imag = np.where(rng.uniform(size=n) < 0.3, rng.choice([-0.0, 0.0], n), rng.integers(0, 7, n) / 8)
    atoms = tuple(
        Atom(complex(x, y), mults[int(rng.integers(len(mults)))]) for x, y in zip(real, imag)
    )
    fams = ()
    if families:
        lim = complex(rng.integers(-6, 7) / 8, rng.integers(0, 7) / 8)
        fams = (SequenceFamily(tuple((lim + 0.25 * 0.5**j, 1 + j % 3) for j in range(3)), lim, 0.0, "on"),)
    return SpectralMeasureModel(atoms, families=fams, support_radius=2.0)


@pytest.mark.parametrize("pool", ["1", "2", "3", "presets", "random", "zeros", "matrix", "lattice"])
def test_levels_match_oracle(pool):
    for model in _pool(pool):
        if pool == "lattice":
            assert all(_cut_ties(model, k, _grid(96))[0] > 0 for k in (1, 2, 3))
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
    # unchunked, 4,096 directions over 800 atoms take 26 MB per array; at
    # k = 3 the top-k selection's index arrays are chunked as well
    model = _matrix_model()
    xis = _grid(4096)
    support_levels(model, 1, xis[:8])  # cached point data is not working memory
    for k in (1, 3):
        tracemalloc.start()
        try:
            support_levels(model, k, xis)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 4.0


def _cut_ties(model, k, xis):
    """How many directions put equal k-th and (k+1)-th finite projections
    in descending order, and how many of those are zeros of unlike sign."""
    px, py, _ = model._point_data
    c, s = snap_dirs(np.cos(xis), np.sin(xis))
    x = c[:, None] * px - s[:, None] * py
    x = np.take_along_axis(x, np.argsort(-x, axis=1, kind="stable"), axis=1)
    a, b = x[:, k - 1], x[:, k]
    tie = a == b
    return int(tie.sum()), int((tie & (np.signbit(a) != np.signbit(b))).sum())


def _table_scale_models():
    rng = np.random.default_rng(2029)
    models = [
        _lattice_model(rng, n, mults, families)
        for n in (30, 200, 800)
        for mults, families in (((1,), False), ((1, 2, 3), True), ((1, 2, INF), False))
    ]
    models.append(_matrix_model())
    return models


def test_levels_match_the_full_sort_at_table_scale():
    xis = _grid(1024)
    ties = zero_ties = 0
    for model in _table_scale_models():
        n = len(model._point_data[0])
        for k in (1, 2, 3, 400, n):
            if k > model.total_dim:
                continue
            expected = support_levels_oracle.support_levels(model, k, xis)
            assert support_levels(model, k, xis).tobytes() == expected.tobytes()
            if 8 * k < n:  # the top-k selection, tested where the cut ties
                t, z = _cut_ties(model, k, xis)
                ties, zero_ties = ties + t, zero_ties + z
    assert ties > 0 and zero_ties > 0
