"""Batched membership against the per-anchor oracles.

``critical_directions`` over a batch of anchors, ``direction_sweep`` with
one anchor per row, ``sweep_decision`` per anchor and ``member_many`` must
give, for every anchor, bit for bit what ``critical_directions`` with that
anchor alone, a sweep at that anchor alone, the one-anchor decision kept in
``critical_directions_oracle`` and the sweep at the point alone give,
except that ``member_many`` may decide a point OUT from its level table,
with a witness of its own (``conftest.assert_member_many``).  Against the
angle-based builder and the per-anchor ``member``, ``is_boundary`` and
closed-plane witness kept in ``critical_directions_oracle``, the directions
must be the same lines (``conftest.assert_same_lines``) and the verdicts
and witness dimensions the same, each witness plane passing through its
point with the dimension it reports (``conftest.assert_witness``); an
exclusion certificate the level table decides has the table line's plane,
of exact dimension below k (``conftest.assert_table_witness``).  The
batches go in chunks of bounded size, so the working memory and the number
of kernel calls are checked too.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import kernels, presets
from hrnr.core import _HCHP, critical_directions, is_boundary, member_many, sweep_decision
from hrnr.dilation import (
    WuReport,
    WuVerdict,
    _edge_samples,
    excluding_certificate,
)
from hrnr.errors import AtomNotStrictContraction, InvariantViolation, NoWuWitness
from hrnr.spectral import CA, CB, OA, OB, dim_ran_closed, direction_sweep

import critical_directions_oracle as oracle
from conftest import (
    assert_member_many,
    assert_same_lines,
    assert_same_verdicts,
    assert_table_witness,
    assert_witness,
    outcome,
    random_family,
    random_model,
    swept_members,
    table_decided,
)

RANKS = (1, 2, 3, hrnr.RANK_INF)


def _model(rng):
    """Atoms, a segment, an arc, a region and one family on each approach side."""
    base = random_model(rng, allow_pieces=False, allow_families=False)
    t0 = rng.uniform(0, 2 * math.pi)
    arc = hrnr.Arc(
        complex(*rng.uniform(-0.3, 0.3, 2)), rng.uniform(0.2, 0.6), t0, t0 + rng.uniform(0.5, 2 * math.pi)
    )
    a, b = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
    c, r = complex(*rng.uniform(-0.2, 0.2, 2)), rng.uniform(0.2, 0.5)
    # points on a circle in angle order are in convex position
    ring = [c + r * complex(math.cos(t), math.sin(t)) for t in np.sort(rng.uniform(0, 2 * math.pi, 5))]
    pieces = (hrnr.Segment(a, b), arc)
    if hrnr.ConvexPolygon(tuple(ring)).area() > 1e-3:
        pieces += (hrnr.Region(hrnr.ConvexPolygon(tuple(ring))),)
    fams = tuple(
        random_family(rng, n_prefix=int(rng.integers(1, 25)), side=side)
        for side in ("above", "below", "on")
    )
    return hrnr.SpectralMeasureModel(base.atoms, pieces, fams, 3.0)


def _anchors(model, rng):
    """Atoms, segment ends, region vertices, family limits, prefix points,
    points on arc circles and tail clearance circles (where the tangents
    from the anchor meet), circle centers and random points."""
    out = [a.location for a in model.atoms]
    for piece in model.pieces:
        if isinstance(piece, hrnr.Segment):
            out += [piece.a, piece.b, 0.5 * (piece.a + piece.b)]
        elif isinstance(piece, hrnr.Arc):
            t = rng.uniform(0, 2 * math.pi)
            out += [piece.center, piece.center + piece.radius * complex(math.cos(t), math.sin(t))]
        else:
            out += list(piece.polygon.vertices[:2])
    for fam in model.families:
        t = rng.uniform(0, 2 * math.pi)
        clear = 2 * fam.min_prefix_distance
        out += [fam.limit, fam.prefix[0][0], fam.prefix[-1][0], fam.limit + clear * complex(math.cos(t), math.sin(t))]
    out += [complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2)]
    return out


def assert_bits(new, old):
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def assert_same_certificate(model, k, z):
    """``excluding_certificate`` without a supplied plane picks a closed
    witness plane of the oracle's dimension, or finds none where the oracle
    finds none; where the level table decides the point, the table line's
    plane, of exact dimension below k.  Past the plane, an atom on or
    beyond the unit circle, or a bracketed witness dimension, may still
    refuse the certificate."""
    plane, dim = oracle._closed_witness_sweep(model, z, k, hrnr.DEFAULT_TOL)
    if not isinstance(plane, hrnr.ClosedHalfPlane):
        with pytest.raises(NoWuWitness, match="no critical-direction closed half plane"):
            excluding_certificate(model, k, z)
        return
    table = table_decided(model, k, [z], [([CA, CB], True)])
    try:
        cert = excluding_certificate(model, k, z)
    except AtomNotStrictContraction:
        return
    except InvariantViolation as exc:
        assert str(exc).startswith("witness dimension " if table else f"witness dimension {dim} ")
        return
    if table:
        assert_table_witness(model, k, z, cert.plane, cert.certified_dim, dim_ran_closed)
    else:
        assert cert.certified_dim == dim
        assert_witness(model, z, cert.plane, dim, dim_ran_closed)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_matches_per_anchor_oracles(seed):
    rng = np.random.default_rng(seed)
    model = _model(rng)
    anchors = _anchors(model, rng)

    vx, vy, row = critical_directions(model, anchors)
    assert (np.diff(row) >= 0).all() and set(row.tolist()) == set(range(len(anchors)))
    sweep = direction_sweep(model, np.array(anchors)[row], vx, vy)
    decisions = {
        (tuple(f), k): sweep_decision(sweep, f, k, row)
        for f in (_HCHP, [CA, CB], [OA, OB])
        for k in RANKS
    }
    for a, anchor in enumerate(anchors):
        sel = np.flatnonzero(row == a)
        one_x, one_y, _ = critical_directions(model, [anchor])
        assert_bits(vx[sel], one_x)
        assert_bits(vy[sel], one_y)
        assert_same_lines(model, anchor, one_x, one_y)
        alone = direction_sweep(model, anchor, one_x, one_y)
        for field in ("lo", "hi", "fuzzy"):
            assert_bits(getattr(sweep, field)[:, sel], getattr(alone, field))
        # every sign test is homogeneous in the direction, and a power of
        # two scales it exactly
        for e in (400, -400):
            scaled = direction_sweep(model, anchor, np.ldexp(one_x, e), np.ldexp(one_y, e))
            for field in ("lo", "hi", "fuzzy"):
                assert_bits(getattr(scaled, field), getattr(alone, field))
        for (flavors, k), (values, flavor, index) in decisions.items():
            value, f, i = oracle.sweep_decision(alone, list(flavors), k)
            assert (values[a], flavor[a]) == (value, f)
            assert index[a] == (None if i is None else sel[0] + i)

    for k in RANKS:
        single = [swept_members(model, k, [z])[0] for z in anchors]
        assert_same_verdicts(model, anchors, single, [oracle.member(model, k, z) for z in anchors])
        # one chunk, and every anchor in a chunk of its own
        for cap in (kernels.BATCH_PAIRS, 1):
            with mock.patch.object(kernels, "BATCH_PAIRS", cap):
                assert_member_many(model, k, anchors, member_many(model, k, anchors), single)
        for z in anchors:
            assert outcome(is_boundary, model, k, z) == outcome(oracle.is_boundary, model, k, z)
            assert_same_certificate(model, k, z)


def test_anchor_without_breakpoints_in_a_batch():
    # at the lone atom there is no breakpoint: one direction, no midpoint
    m = hrnr.SpectralMeasureModel(atoms=(hrnr.Atom(0.5 + 0j, 2.0),), support_radius=1.0)
    anchors = [0.4 + 0j, 0.5 + 0j, 0.3 + 0.2j, 0.5 + 0j]
    vx, vy, row = critical_directions(m, anchors)
    for a, anchor in enumerate(anchors):
        assert_same_lines(m, anchor, vx[row == a], vy[row == a])
        # the anchor alone, the lone atom among them without a breakpoint
        ax, ay, arow = critical_directions(m, [anchor])
        assert_bits(ax, vx[row == a])
        assert_bits(ay, vy[row == a])
        assert (arow == 0).all()
    assert (row == 1).sum() == (row == 3).sum() == 1
    for k in (1, 2):
        single = [swept_members(m, k, [z])[0] for z in anchors]
        assert_same_verdicts(m, anchors, single, [oracle.member(m, k, z) for z in anchors])
        assert_member_many(m, k, anchors, member_many(m, k, anchors), single)


def test_member_many_of_no_points():
    assert member_many(presets.durszt_model(2), 2, []) == []


def _region_wu():
    path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RegionWu


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Unchunked, one build and one dense sweep over every sample of the 47-vertex
# model peak at about 27 MB; the benchmark's region_wu workload allows 10% of
# its 45.7 MB peak RSS, so a chunk must stay well below 4.5 MB.
PEAK_MB = 4.0


def test_member_many_memory_on_a_matrix_model():
    # 200 anchors over 800 atoms: about 1,600 directions each, so each
    # anchor alone exceeds the pair cap and takes the shared-anchor kernel
    rng = np.random.default_rng(5)
    eigs = np.sqrt(rng.uniform(0, 1, 800)) * np.exp(2j * np.pi * rng.uniform(size=800))
    model = hrnr.SpectralMeasureModel(atoms=tuple(hrnr.Atom(complex(z), 1) for z in eigs))
    points = list(eigs[:100]) + list(0.5 * (eigs[100:200] + eigs[200:300]))
    member_many(model, 2, points[:2])  # cached templates are not working memory
    assert _peak_mb(lambda: member_many(model, 2, points)) < PEAK_MB


def test_wu_check_memory_on_the_47_vertex_model():
    stream, _ = _region_wu()(1).build(hrnr)
    ests = ((m, k, hrnr.region(m, k, 96)) for m, k in stream)
    model, k, est = next((m, k, e) for m, k, e in ests if len(e.polygon.vertices) == 47)
    hrnr.wu_check(model, k, est)
    assert _peak_mb(lambda: hrnr.wu_check(model, k, est)) < PEAK_MB


@pytest.mark.parametrize("name", ["durszt", "square-region"])
def test_wu_check_sweeps_chunks_not_samples(name, monkeypatch):
    model = presets.durszt_model(2) if name == "durszt" else presets.square_region_model(2)
    est = hrnr.region(model, 2, 96)
    pairs = []
    sweep = kernels.atom_side_sweep

    def counting(px, py, w, vx, vy, *args):
        pairs.append(len(px) * len(vx))
        return sweep(px, py, w, vx, vy, *args)

    monkeypatch.setattr(kernels, "atom_side_sweep", counting)
    report = hrnr.wu_check(model, 2, est)
    assert report.verdict is WuVerdict.STRICT_CONTAINMENT_PREDICTED
    assert 1 <= len(pairs) <= math.ceil(sum(pairs) / kernels.BATCH_PAIRS)


def test_wu_report_counts_skips():
    assert WuReport(WuVerdict.INCONCLUSIVE, ()).skipped_near_eigenvalue == 0
    assert WuReport(WuVerdict.INCONCLUSIVE, ()).uncertain_samples == 0
    stream, _ = _region_wu()(1).build(hrnr)
    cases = stream[:8] + [(presets.durszt_model(2), 2), (presets.square_region_model(2), 2)]
    saw_uncertain = False
    for model, k in cases:
        est = hrnr.region(model, k, 96)
        report = hrnr.wu_check(model, k, est)
        atoms = [a.location for a in model.atoms]
        atoms += [p for fam in model.families for p, _ in fam.prefix]
        skipped, uncertain = 0, 0
        for z in _edge_samples(est.polygon):
            if any(abs(z - p) <= 10 * hrnr.DEFAULT_TOL.eps_geom for p in atoms):
                skipped += 1
            elif oracle.member(model, k, z).value is hrnr.Verdict.UNCERTAIN:
                uncertain += 1
        assert (report.skipped_near_eigenvalue, report.uncertain_samples) == (skipped, uncertain)
        saw_uncertain |= uncertain > 0
    assert saw_uncertain
