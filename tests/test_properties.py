"""Invariant checks on randomized models (the structural property suite)."""

import math
from itertools import combinations

import numpy as np
import pytest

import hrnr
from hrnr import (
    INF,
    RANK_INF,
    Atom,
    Segment,
    SpectralMeasureModel,
    Verdict,
    convex_hull,
    dilation_intersection,
    from_normal_matrix,
    halfplane_intersection,
    hausdorff_distance,
    member,
    region,
    selfadjoint_interval,
    transform_model,
    wu_check,
)
from hrnr.dilation import WuVerdict
from hrnr.geometry import ClosedHalfPlane

from conftest import random_model, random_normal_contraction, random_normal_matrix


def certain(v):
    return v is not Verdict.UNCERTAIN


def rank_options(model, kmax=4):
    if model.total_dim == INF:
        return list(range(1, kmax + 1))
    return list(range(1, min(kmax, int(model.total_dim)) + 1))


def test_nesting(rng):
    checked = 0
    for _ in range(30):
        m = random_model(rng)
        ks = rank_options(m)
        if len(ks) < 2:
            continue
        k = ks[-2]
        for _ in range(4):
            lam = complex(*rng.uniform(-1.2, 1.2, 2))
            hi = member(m, k + 1, lam).value
            lo = member(m, k, lam).value
            if certain(hi) and certain(lo):
                checked += 1
                if hi is Verdict.IN:
                    assert lo is Verdict.IN
        if m.total_dim == INF:
            lam = complex(*rng.uniform(-1.2, 1.2, 2))
            vinf = member(m, RANK_INF, lam).value
            v1 = member(m, 1, lam).value
            if certain(vinf) and certain(v1) and vinf is Verdict.IN:
                assert v1 is Verdict.IN
    assert checked > 50


def test_affine_covariance(rng):
    checked = 0
    for _ in range(25):
        m = random_model(rng)
        a = complex(*rng.uniform(-1.5, 1.5, 2))
        if abs(a) < 0.3:
            a = 0.5 + 0.5j
        b = complex(*rng.uniform(-0.5, 0.5, 2))
        t = transform_model(m, a, b)
        k = rng.choice(rank_options(m))
        for _ in range(4):
            lam = complex(*rng.uniform(-1.2, 1.2, 2))
            v1 = member(m, int(k), lam).value
            v2 = member(t, int(k), a * lam + b).value
            if certain(v1) and certain(v2):
                checked += 1
                assert v1 is v2
    assert checked > 40


def test_convexity_of_members(rng):
    checked = 0
    for _ in range(25):
        m = random_model(rng)
        k = int(rng.choice(rank_options(m)))
        ins = []
        for _ in range(30):
            lam = complex(*rng.uniform(-1.2, 1.2, 2))
            if member(m, k, lam).value is Verdict.IN:
                ins.append(lam)
            if len(ins) == 2:
                break
        if len(ins) < 2:
            continue
        for t in (0.25, 0.5, 0.75):
            mid = (1 - t) * ins[0] + t * ins[1]
            assert member(m, k, mid).value in (Verdict.IN, Verdict.UNCERTAIN)
            checked += 1
    assert checked > 15


def test_sandwich(rng):
    for _ in range(12):
        m = random_model(rng)
        k = int(rng.choice(rank_options(m)))
        n_angles = 64
        est = region(m, k, n_angles)
        poly = est.polygon
        if poly.is_empty or len(poly.vertices) < 3:
            continue
        margin = max(10e-9, 4 * m.support_radius * (2 * math.pi / n_angles))
        # interior points well away from the edges are members
        cx = sum(poly.vertices) / len(poly.vertices)
        for v in poly.vertices:
            z = cx + 0.5 * (v - cx)
            if poly.signed_distance(z) < -margin:
                assert member(m, k, z).value in (Verdict.IN, Verdict.UNCERTAIN)
        # members never leave the polygon inflated by 10 eps
        for _ in range(10):
            lam = complex(*rng.uniform(-1.2, 1.2, 2))
            if member(m, k, lam).value is Verdict.IN:
                assert poly.signed_distance(lam) <= 10e-9


def test_oracle_equivalence_region_polygons(rng):
    for _ in range(6):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(3, n) + 1))
        M, eigs = random_normal_matrix(n, rng)
        model = from_normal_matrix(M)
        n_angles = 256
        est = region(model, k, n_angles)
        planes = []
        for idx in combinations(range(n), n - k + 1):
            hull = convex_hull([complex(eigs[i]) for i in idx])
            vs = hull.vertices
            if len(vs) == 1:
                planes = None
                break
            if len(vs) == 2:
                a, b = vs
                d = b - a
                # both sides of the carrying line plus the two end caps
                for anchor, nx, ny in (
                    (a, -d.imag, d.real),
                    (a, d.imag, -d.real),
                    (a, d.real, d.imag),
                    (b, -d.real, -d.imag),
                ):
                    planes.append(
                        ClosedHalfPlane(anchor, math.atan2(ny, nx), normal=(nx, ny))
                    )
                continue
            for a, b in hull.edges():
                d = b - a
                nx, ny = -d.imag, d.real
                planes.append(ClosedHalfPlane(a, math.atan2(ny, nx), normal=(nx, ny)))
        if planes is None:
            continue
        oracle_poly = halfplane_intersection(planes, bound=model.support_radius)
        tol = 1e-6 + 8 * max(abs(e) for e in eigs) / n_angles
        if oracle_poly.is_empty or est.polygon.is_empty:
            # an empty range may leave a discretization-scale sliver
            leftovers = est.polygon.vertices + oracle_poly.vertices
            assert all(abs(a - b) <= 2 * tol for a in leftovers for b in leftovers)
        else:
            assert hausdorff_distance(est.polygon, oracle_poly) <= tol


def test_hermitian_collapse(rng):
    for _ in range(8):
        n = int(rng.integers(2, 7))
        vals = np.sort(rng.uniform(-1, 1, n))[::-1]
        m = SpectralMeasureModel(
            atoms=tuple(Atom(complex(v, 0), 1) for v in vals), support_radius=2.0
        )
        k = int(rng.integers(1, n + 1))
        interval = selfadjoint_interval(m, k)
        lo, hi = vals[n - k], vals[k - 1]
        if lo > hi:
            assert interval is None
            continue
        a, b = interval
        assert a == pytest.approx(lo, abs=1e-12)
        assert b == pytest.approx(hi, abs=1e-12)
        est = region(m, k, 32)
        xs = [v.real for v in est.polygon.vertices]
        assert max(abs(v.imag) for v in est.polygon.vertices) <= 1e-8
        assert min(xs) == pytest.approx(a, abs=1e-8)
        assert max(xs) == pytest.approx(b, abs=1e-8)


def test_nonemptiness(rng):
    # infinite-dimensional models have nonempty rank-k ranges for finite k
    done = 0
    while done < 12:
        m = random_model(rng)
        if m.total_dim != INF:
            continue
        done += 1
        k = int(rng.choice(rank_options(m)))
        est = region(m, k, 32)
        candidates = [a.location for a in m.atoms]
        if not est.polygon.is_empty:
            vs = est.polygon.vertices
            cx = sum(vs) / len(vs)
            candidates += [cx]
            for depth in (0.3, 0.6, 0.9):
                candidates += [cx + depth * (v - cx) for v in vs]
                candidates += [
                    cx + depth * (0.5 * (a + b) - cx) for a, b in est.polygon.edges()
                ]
        assert any(
            member(m, k, z).value is Verdict.IN for z in candidates
        ), f"no member found for k={k}"


def test_no_eigenvalue_equality(rng):
    # purely continuous models: identical verdicts for every rank incl. inf
    pieces_pool = [
        (hrnr.Arc(0j, 0.8, 0.3, 5.1),),
        (Segment(-0.7 - 0.2j, 0.6 + 0.5j),),
        (hrnr.Region(convex_hull([0.5, -0.5 + 0.4j, -0.2 - 0.6j, 0.4 + 0.5j])),),
    ]
    for pieces in pieces_pool:
        m = SpectralMeasureModel(pieces=pieces, support_radius=2.0)
        for _ in range(25):
            lam = complex(*rng.uniform(-1, 1, 2))
            verdicts = {member(m, k, lam).value for k in (1, 2, 5)}
            verdicts.add(member(m, RANK_INF, lam).value)
            if Verdict.UNCERTAIN in verdicts:
                continue
            assert len(verdicts) == 1


def test_convex_borel_consistency(rng):
    # if a convex polygon s captures all but fewer than k units of mass,
    # every member point lies in s
    for _ in range(15):
        m = random_model(rng, allow_pieces=False, allow_families=False)
        atoms = list(m.atoms)
        if len(atoms) < 2:
            continue
        keep = atoms[:-1]
        dropped = atoms[-1]
        if dropped.mult == INF:
            continue
        k = int(dropped.mult) + 1
        if m.total_dim != INF and k > m.total_dim:
            continue
        s = convex_hull([a.location for a in keep])
        for _ in range(15):
            lam = complex(*rng.uniform(-1.2, 1.2, 2))
            v = member(m, k, lam).value
            if v is Verdict.IN:
                assert s.signed_distance(lam) <= 1e-7


def test_open_segment_property(rng):
    # equality-predicted model with a flat boundary stretch containing a
    # member: points of the open stretch classify as members
    m = SpectralMeasureModel(pieces=(Segment(-1 + 0j, 1 + 0j),), support_radius=1.5)
    est = region(m, 1, 32)
    report = wu_check(m, 1, est)
    assert report.verdict is WuVerdict.EQUALITY_PREDICTED
    assert member(m, 1, 0j).value is Verdict.IN  # a boundary member
    for t in rng.uniform(-0.95, 0.95, 12):
        assert member(m, 1, complex(t, 0)).value is Verdict.IN
    for z in (1 + 0j, -1 + 0j):
        assert member(m, 1, z).value is Verdict.OUT


def test_dm_closure_desk_scale(rng):
    n_alpha = 720
    for _ in range(4):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        k = min(k, n)
        T = random_normal_contraction(n, rng)
        model = from_normal_matrix(T)
        est = region(model, k, 180)
        poly = dilation_intersection(T, k, n_samples=50, n_alpha=n_alpha)
        if est.polygon.is_empty:
            continue
        # the intersection's planes are exact, so it lies inside the
        # region's 180-direction outer approximation
        for v in poly.vertices:
            assert est.polygon.signed_distance(v) <= 1e-6
        assert hausdorff_distance(poly, est.polygon) <= 10 / n_alpha + 1e-6


def test_region_in_classified_samples_inside_polygon(rng):
    for _ in range(6):
        m = random_model(rng)
        k = int(rng.choice(rank_options(m)))
        est = region(m, k, 32)
        for z, v in est.boundary_report:
            if v is Verdict.IN:
                assert est.polygon.signed_distance(z) <= 1e-7
