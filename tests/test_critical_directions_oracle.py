"""Differential tests: the template-built critical directions and the
one-sweep Wu loop against the per-direction builder and the two-sweep loop
kept in ``critical_directions_oracle``.

Directions must match bit for bit, in order and with the signs of zeros,
because ``sweep_decision`` breaks ties by direction index; ``member``
verdicts, witness dimensions and every field of a ``WuReport`` must match.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import presets
from hrnr.core import _TANGENT_SLACK, critical_directions, member

import critical_directions_oracle as oracle
from conftest import DENSE_ANGLES, random_family, random_model

EXTRAS = {
    "none": lambda rng: (),
    "zero": lambda rng: (0.0,),
    "half_pi": lambda rng: (math.pi / 2,),
    "random": lambda rng: tuple(rng.uniform(-2 * math.pi, 2 * math.pi, 3)),
    "dense": lambda rng: DENSE_ANGLES,
}


def _arc(rng):
    t0 = rng.uniform(0, 2 * math.pi)
    return hrnr.Arc(
        complex(*rng.uniform(-0.3, 0.3, 2)), rng.uniform(0.2, 0.6), t0, t0 + rng.uniform(0.5, 2 * math.pi)
    )


def _model(rng):
    """``random_model`` plus an arc and families with short and long prefixes."""
    base = random_model(rng)
    fams = tuple(random_family(rng, n_prefix=int(n)) for n in rng.integers(1, 40, int(rng.integers(1, 3))))
    return hrnr.SpectralMeasureModel(base.atoms, base.pieces + (_arc(rng),), base.families + fams, 3.0)


def _around(center, radius, rng):
    """Points on the circle, within ``_TANGENT_SLACK`` of it on both sides
    (the touching line), and just inside it beyond the slack (no tangent)."""
    t = rng.uniform(0, 2 * math.pi)
    u = complex(math.cos(t), math.sin(t))
    slack = 0.5 * _TANGENT_SLACK * max(1.0, radius)
    return [center + r * u for r in (radius, radius + slack, radius - slack, radius - 1e3 * slack)]


def _anchors(model, rng):
    """Atoms, prefix points, segment ends, points on, near and just inside
    the arc circles and the families' clearance circles, the centers of the
    arc circles and random points."""
    out = [a.location for a in model.atoms]
    for fam in model.families:
        out += [fam.limit, fam.prefix[0][0], fam.prefix[-1][0]]
        out += _around(fam.limit, 2 * fam.min_prefix_distance, rng)
    for piece in model.pieces:
        if isinstance(piece, hrnr.Segment):
            out += [piece.a, piece.b]
        elif isinstance(piece, hrnr.Arc):
            out += [piece.center] + _around(piece.center, piece.radius, rng)
    out += [complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2)]
    return out


def assert_same_directions(new, old):
    for a, b in zip(new, old):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.sampled_from(sorted(EXTRAS)))
def test_directions_and_verdicts_match_oracle(seed, extra):
    rng = np.random.default_rng(seed)
    model = _model(rng)
    extra_angles = EXTRAS[extra](rng)
    for anchor in _anchors(model, rng):
        assert_same_directions(
            critical_directions(model, [anchor], [extra_angles])[:2],
            oracle.critical_directions(model, anchor, extra_angles),
        )
        for k in (1, 2, 3, hrnr.RANK_INF):
            new, old = member(model, k, anchor), oracle.member(model, k, anchor)
            assert new.value is old.value
            assert new.witness_dim == old.witness_dim
            assert new.witness == old.witness


def _region_wu():
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RegionWu


def _pool(name):
    if name == "presets":
        return [(presets.durszt_model(2), 2), (presets.square_region_model(2), 2)]
    stream, _ = _region_wu()(int(name)).build(hrnr)
    return stream


@pytest.mark.parametrize("pool", ["1", "2", "3", "presets"])
def test_wu_reports_match_oracle(pool):
    for model, k in _pool(pool):
        est = hrnr.region(model, k, 96)
        new, old = hrnr.wu_check(model, k, est), oracle.wu_check(model, k, est)
        assert new.verdict is old.verdict
        assert len(new.evidence) == len(old.evidence)
        for a, b in zip(new.evidence, old.evidence):
            assert (a.point, a.dim, a.note) == (b.point, b.dim, b.note)
            assert (a.witness is None) == (b.witness is None)
            if a.witness is not None:
                assert a.witness.normal == b.witness.normal
