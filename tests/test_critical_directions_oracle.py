"""Differential tests: the template-built critical directions and the
one-sweep Wu loop against the per-direction builder and the two-sweep loop
kept in ``critical_directions_oracle``.

Directions must match bit for bit, in order and with the signs of zeros,
because ``sweep_decision`` breaks ties by direction index; the sweep's
membership verdicts (``core._decide``, which ``member`` uses where its level
table decides nothing), witness dimensions and every field of a
``WuReport`` must match.
The Wu check's closed verdicts and witness dimensions must also be those of
a sweep over the critical directions plus dense evenly spaced angles.
"""

import importlib.util
import math
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import presets
from hrnr.core import _TANGENT_SLACK, _angles, _round_keys, critical_directions
from hrnr.spectral import CA, CB, direction_sweep

import critical_directions_oracle as oracle
from conftest import DENSE_ANGLES, random_family, random_model, swept_members


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
@given(seed=st.integers(0, 2**32 - 1))
def test_directions_and_verdicts_match_oracle(seed):
    rng = np.random.default_rng(seed)
    model = _model(rng)
    for anchor in _anchors(model, rng):
        assert_same_directions(
            critical_directions(model, [anchor])[:2], oracle.critical_directions(model, anchor)
        )
        for k in (1, 2, 3, hrnr.RANK_INF):
            (new,), old = swept_members(model, k, [anchor]), oracle.member(model, k, anchor)
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


# the closed verdict a WuEvidence records without a witness
CLOSED_NOTES = {
    "every critical closed half plane has dim >= k": hrnr.Verdict.IN,
    "unresolved dimensions": hrnr.Verdict.UNCERTAIN,
}


@pytest.mark.parametrize("pool", ["1", "2", "presets"])
def test_wu_closed_decisions_match_dense_directions(pool):
    # the critical directions alone decide the closed flavors: every 7th
    # evidence entry gets the verdict and the witness dimension of the
    # closed half planes over the critical directions plus 4096 evenly
    # spaced angles
    for model, k in _pool(pool)[:4]:
        est = hrnr.region(model, k, 96)
        for e in hrnr.wu_check(model, k, est).evidence[::7]:
            vx, vy = oracle.critical_directions(model, e.point, DENSE_ANGLES)
            sweep = direction_sweep(model, e.point, vx, vy)
            value, f, i = oracle.sweep_decision(sweep, [CA, CB], k)
            assert value is (hrnr.Verdict.OUT if e.witness is not None else CLOSED_NOTES[e.note])
            assert e.dim == (None if f is None else float(sweep.hi[f, i]))


def _key_inputs(name):
    rng = np.random.default_rng(23)
    if name == "dyadic ties":
        # m / 8192 times 1e12 is exactly a half-integer
        return np.arange(1, int(8192 * math.pi), 2) / 8192
    if name == "near half-integers":
        x = (rng.integers(0, int(math.pi * 1e12), 2000) + 0.5) * 1e-12
        return (x[:, None] + np.arange(-4, 5) * np.spacing(x)[:, None]).ravel()
    lattice = rng.integers(-60, 61, (2, 50_000)).astype(float)
    d = np.concatenate((lattice, rng.normal(size=(2, 50_000))), axis=1)
    d = d[:, (d[0] != 0.0) | (d[1] != 0.0)]
    return _angles(d[0], d[1])


@pytest.mark.parametrize("name", ["dyadic ties", "near half-integers", "atan2 angles"])
def test_round_keys_are_python_round(name):
    # the exact binary value rounded half to even to 12 decimals: Python's
    # round returns it as the nearest float, the keys as an integer count of
    # 1e-12, so equal keys mean equal rounded angles and vice versa
    a = _key_inputs(name)
    exact = [Decimal(x).quantize(Decimal("1e-12"), ROUND_HALF_EVEN) for x in a.tolist()]
    assert [round(x, 12) for x in a.tolist()] == [float(q) for q in exact]
    assert _round_keys(a).tolist() == [float(q.scaleb(12)) for q in exact]


def test_equal_angles_across_anchors_merge_per_anchor():
    # both anchors sit at 0 and see atoms at e^{ix} for clusters of nine
    # angles x one ulp apart around (K + 1/2) * 1e-12, which merge by their
    # rounded keys, and whose keys differ from np.rint of the product for
    # many K
    rng = np.random.default_rng(5)
    x = (rng.integers(1, int(3e12), 40) + 0.5) * 1e-12
    angles = (x[:, None] + np.arange(-4, 5) * np.spacing(x)[:, None]).ravel().tolist()
    atoms = tuple(hrnr.Atom(complex(math.cos(t), math.sin(t)), 1) for t in angles)
    model = hrnr.SpectralMeasureModel(atoms, (), (), 1.0)
    anchors = [0j, 0j]
    vx, vy, row = critical_directions(model, anchors)
    for a, anchor in enumerate(anchors):
        assert (row == a).sum() < len(angles)
        assert_same_directions((vx[row == a], vy[row == a]), oracle.critical_directions(model, anchor))
