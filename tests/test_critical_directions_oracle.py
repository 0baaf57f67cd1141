"""Differential tests: the template-built critical directions and the
one-sweep Wu loop against the per-direction builder and the two-sweep loop
kept in ``critical_directions_oracle``.

The oracle builds tangents and midpoints from angles, the library from
vectors, so directions must match as lines (``conftest.assert_same_lines``:
breakpoints in order to rounding, midpoints to rounding, and extra
midpoints only in cells the oracle leaves without one).  The sweep's
membership verdicts (``core._decide``, which ``member`` uses where its level
table decides nothing), witness dimensions, and the verdict and every
evidence field of a ``WuReport`` but the witness plane must match; each
witness plane must pass through its point and have the dimension it
reports (``conftest.assert_witness``).
The Wu check's closed verdicts and witness dimensions must also be those of
a sweep over the critical directions plus dense evenly spaced angles.
Putting back the merge of lines whose angles agree to 12 decimals must
change no verdict, witness, region report or Wu report, and each anchor's
direction count must stay within the bound ``core._anchor_chunks`` sizes
its chunks by.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import core, presets
from hrnr.core import _TANGENT_SLACK, critical_directions
from hrnr.dilation import _edge_samples
from hrnr.spectral import CA, CB, dim_ran_closed, direction_sweep

import critical_directions_oracle as oracle
from conftest import (
    DENSE_ANGLES,
    assert_same_lines,
    assert_same_verdicts,
    assert_witness,
    random_family,
    random_model,
    swept_members,
)
from test_interior_certificate import _lattice_model, _pool_and_presets


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_directions_and_verdicts_match_oracle(seed):
    rng = np.random.default_rng(seed)
    model = _model(rng)
    for anchor in _anchors(model, rng):
        assert_same_lines(model, anchor, *critical_directions(model, [anchor])[:2])
        for k in (1, 2, 3, hrnr.RANK_INF):
            assert_same_verdicts(model, [anchor], swept_members(model, k, [anchor]), [oracle.member(model, k, anchor)])


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
                assert_witness(model, a.point, a.witness, a.dim, dim_ran_closed)


@pytest.mark.parametrize("pool", ["1", "2", "3", "presets"])
def test_member_witnesses_measure_their_dimension(pool):
    # every OUT of member_many at the Wu samples and the boundary report
    # has a witness through its point whose dimension is witness_dim
    outs = 0
    for model, k in _pool(pool):
        est = hrnr.region(model, k, 96)
        points = _edge_samples(est.polygon) + [z for z, _ in est.boundary_report]
        for z, verdict in zip(points, hrnr.member_many(model, k, points)):
            if verdict.value is hrnr.Verdict.OUT:
                assert_witness(model, z, verdict.witness, verdict.witness_dim, hrnr.dim_ran_hchp)
                outs += 1
    assert outs > 0


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


def _cluster_model():
    """Atoms at e^{ix} for 40 clusters of nine angles x one ulp apart
    around (K + 1/2) * 1e-12, whose lines from 0 agree to 12 decimals."""
    rng = np.random.default_rng(5)
    x = (rng.integers(1, int(3e12), 40) + 0.5) * 1e-12
    angles = (x[:, None] + np.arange(-4, 5) * np.spacing(x)[:, None]).ravel().tolist()
    atoms = tuple(hrnr.Atom(complex(math.cos(t), math.sin(t)), 1) for t in angles)
    return hrnr.SpectralMeasureModel(atoms, (), (), 1.0)


def test_one_ulp_clusters_match_oracle_per_anchor():
    # both anchors sit at 0: each gets, bit for bit, the directions of the
    # anchor alone, and those match the oracle's lines
    model = _cluster_model()
    anchors = [0j, 0j]
    vx, vy, row = critical_directions(model, anchors)
    alone = critical_directions(model, [0j])
    for a, anchor in enumerate(anchors):
        for new, old in zip((vx[row == a], vy[row == a]), alone):
            assert np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old))
        assert_same_lines(model, anchor, vx[row == a], vy[row == a])


def _merge_cases(name):
    if name == "presets":
        return [(presets.durszt_model(k), k) for k in (1, 2, 3)] + [
            (presets.square_region_model(k), k) for k in (2, 3)
        ]
    if name == "lattice":
        rng = np.random.default_rng(2033)
        models = [_lattice_model(rng) for _ in range(12)]
        return [(model, k) for model in models for k in (1, 2, 3) if k <= model.total_dim]
    if name == "clusters":
        return [(_cluster_model(), k) for k in (1, 2, 5, 50)]
    return _pool(name)


def _outputs(model, k):
    """The region report, the Wu report where the model is a contraction,
    and the verdicts of ``member_many`` and of the sweep alone at 0, at 20
    atoms and at the region's boundary points, as they are and pushed
    across the eps band both ways."""
    est = hrnr.region(model, k, 96)
    wu = hrnr.wu_check(model, k, est) if model.max_abs() < 1.0 else None
    boundary = np.array([z for z, _ in est.boundary_report], dtype=complex)
    away = boundary - boundary.mean() if len(boundary) else boundary
    boundary, away = boundary[away != 0], away[away != 0]
    points = [0j] + [a.location for a in model.atoms[:20]]
    points += [complex(z) for d in (0.0, 1e-9, -1e-9, 4e-9, 1e-6) for z in boundary + d * away / np.abs(away)]
    return est, wu, hrnr.member_many(model, k, points), swept_members(model, k, points)


@pytest.mark.parametrize("pool", ["1", "presets", "lattice", "clusters"])
def test_merging_equal_rounded_angles_changes_no_output(pool, monkeypatch):
    # critical_directions once kept only the first line per anchor and
    # angle rounded to 12 decimals; the merge removes directions here, yet
    # no verdict, witness or report changes
    cases = _merge_cases(pool)
    every = [_outputs(model, k) for model, k in cases]
    dropped = []

    def merged(model, anchors):
        vx, vy, row = critical_directions(model, anchors)
        out = oracle.merge_rounded_angles(vx, vy, row)
        dropped.append(len(vx) - len(out[0]))
        return out

    monkeypatch.setattr(core, "critical_directions", merged)
    for (model, k), want in zip(cases, every):
        assert _outputs(model, k) == want
    assert sum(dropped) > 0


def test_directions_per_anchor_stay_within_the_chunk_budget():
    # core._anchor_chunks sizes its chunks by this bound before any
    # direction is built; with every direction kept, nothing else limits
    # the memory of a sweep
    rng = np.random.default_rng(41)
    for model in _pool_and_presets():
        (px, _, _), (fx, _, _), circles = model._direction_template
        bound = max(1, 2 * (len(px) + len(fx) + 3 * len(circles)))
        boundary = [z for z, _ in hrnr.region(model, 1, 96).boundary_report]
        anchors = _anchors(model, rng) + boundary + [0j]
        _, _, row = critical_directions(model, anchors)
        assert np.bincount(row, minlength=len(anchors)).max() <= bound
