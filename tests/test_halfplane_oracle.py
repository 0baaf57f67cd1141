"""Differential tests: ``halfplane_intersection`` against the clipping oracle.

Agreement means the same emptiness, the same vertex count and a Hausdorff
distance of at most 1e-12 * bound.  The inputs are random plane sets and the
plane sets that ``region`` and ``dilation_intersection`` actually build.
Nearly parallel planes are checked separately, against the oracle to
eps_geom and against exact rational clipping.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hrnr import core, dilation, presets
from hrnr.geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    convex_hull,
    halfplane_intersection,
    hausdorff_distance,
    support_plane,
)

from clip_oracle import clip_intersection
from conftest import random_model, random_normal_contraction


def assert_agrees(planes, bound, tol=DEFAULT_TOL):
    new = halfplane_intersection(planes, bound)
    old = clip_intersection(planes, bound, tol)
    assert new.is_empty == old.is_empty
    assert len(new.vertices) == len(old.vertices)
    assert hausdorff_distance(new, old) <= 1e-12 * bound


@pytest.fixture
def calls(monkeypatch):
    """Records every (planes, bound, tol) that region and dilation_intersection
    pass to the intersection, and checks each against the oracle when the
    test ends."""
    seen = []
    for module in (core, dilation):

        def record(planes, bound, tol=DEFAULT_TOL, _real=module.halfplane_intersection):
            seen.append((planes, bound, tol))
            return _real(planes, bound)

        monkeypatch.setattr(module, "halfplane_intersection", record)
    yield seen
    assert seen
    for planes, bound, tol in seen:
        assert_agrees(planes, bound, tol)


def test_random_plane_sets(rng):
    # a quarter of the planes flip the previous one, so zero-width strips
    # (segments and points) occur as well as empty and full polygons
    for _ in range(2000):
        planes = []
        for _ in range(int(rng.integers(1, 9))):
            if planes and rng.uniform() < 0.25:
                P = planes[-1]
                nx, ny = P.normal
                planes.append(ClosedHalfPlane(P.anchor, P.normal_angle + math.pi, normal=(-nx, -ny)))
            else:
                anchor = complex(*rng.uniform(-1, 1, 2))
                planes.append(ClosedHalfPlane(anchor, rng.uniform(0, 2 * math.pi)))
        assert_agrees(planes, 2.0)


def test_region_polygons(calls, rng):
    for _ in range(10):
        model = random_model(rng)
        k = int(rng.integers(1, 4))
        if model.total_dim >= k:
            core.region(model, k, 48)
    for model, k in (
        (presets.durszt_model(2), 2),
        (presets.bilateral_shift_model(), 2),
        (presets.infinity_empty_model(20), 2),
    ):
        core.region(model, k, 96)


def test_dilation_intersections(calls, rng):
    for _ in range(6):
        n = int(rng.integers(2, 6))
        T = random_normal_contraction(n, rng)
        dilation.dilation_intersection(T, int(rng.integers(1, n + 1)), 2, 8)


def test_hermitian_segment_point_and_empty(calls):
    model = presets.hermitian_model()
    ends = {1: (-1.0, 1.0), 2: (-0.2, 0.5)}
    for k, (lo, hi) in ends.items():
        vs = core.region(model, k, 32).polygon.vertices
        assert len(vs) == 2 and all(v.imag == 0.0 for v in vs)
        assert sorted(v.real for v in vs) == pytest.approx([lo, hi], abs=1e-15)
    assert core.region(model, 3, 32).polygon.vertices == (0j,)
    assert core.region(model, 4, 32).polygon.is_empty


def test_dilation_above_n_is_empty(calls, rng):
    T = random_normal_contraction(3, rng)
    for k in (4, 5, 6):
        assert dilation.dilation_intersection(T, k, 2, 8).is_empty


def test_square_region_corners_exact(calls):
    # the corners come from the axis-aligned support lines, not from the
    # nearly parallel neighbours that also pass through them
    poly = core.region(presets.square_region_model(2), 2, 96).polygon
    assert set(poly.vertices) == {0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j}


def _worst_violation(poly, planes):
    """Largest distance by which a vertex lies outside a plane."""
    worst = 0.0
    for P in planes:
        nx, ny = P.normal
        scale = math.hypot(nx, ny)
        for v in poly.vertices:
            s = nx * (v.real - P.anchor.real) + ny * (v.imag - P.anchor.imag)
            worst = max(worst, -s / scale)
    return worst


def _exact_intersection(planes, bound):
    """The box clipped by every plane in rational arithmetic, its vertices
    rounded to floats at the end."""
    b = Fraction(bound)
    poly = [(-b, -b), (b, -b), (b, b), (-b, b)]
    for P in planes:
        nx, ny = (Fraction(c) for c in P.normal)
        ax, ay = Fraction(P.anchor.real), Fraction(P.anchor.imag)
        out = []
        for p, q in zip(poly[-1:] + poly[:-1], poly):
            sp, sq = nx * (p[0] - ax) + ny * (p[1] - ay), nx * (q[0] - ax) + ny * (q[1] - ay)
            if (sp < 0) != (sq < 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            if sq >= 0:
                out.append(q)
        poly = out
        if not poly:
            return ConvexPolygon(())
    return convex_hull([complex(float(x), float(y)) for x, y in poly])


def test_nearly_parallel_reproducer():
    # two planes 1.8e-15 apart in angle: the old pass kept a vertex
    # 7.1e-4 outside both
    planes = [
        support_plane(4.07048148529889, 0.059134595802695256),
        support_plane(4.070481485298892, 0.059134595802694034),
    ]
    poly = halfplane_intersection(planes, 1.0)
    assert len(poly.vertices) == 4
    assert _worst_violation(poly, planes) <= DEFAULT_TOL.eps_geom
    assert_agrees(planes, 1.0)


GAPS = [10.0**-e for e in range(16, 5, -1)]


@pytest.mark.parametrize("gap", GAPS)
def test_nearly_parallel_pairs(gap):
    # two lines through one point, at a random angle, next to the angle cut
    # at pi or next to a box side, alone or with six planes around the
    # origin.  Where a crossing cuts by less than eps_geom the oracle may
    # keep or drop it, so polygons agree to eps_geom, not vertex for vertex.
    rng = np.random.default_rng([20240809, int(-math.log10(gap))])
    eps = DEFAULT_TOL.eps_geom
    for trial in range(60):
        p0 = complex(*rng.uniform(-1, 1, 2))
        angle = (
            rng.uniform(0, 2 * math.pi),
            math.pi - gap * rng.uniform(),
            rng.integers(0, 4) * math.pi / 2 + rng.choice([-1, 1]) * gap * rng.uniform(),
        )[trial % 3]
        planes = [ClosedHalfPlane(p0, angle), ClosedHalfPlane(p0, angle + gap)]
        if trial % 2:
            planes += [support_plane(2 * math.pi * (j + rng.uniform()) / 6, 0.8) for j in range(6)]
        bound = float(rng.choice([1.0, 2.0, 5.0]))
        poly = halfplane_intersection(planes, bound)
        assert _worst_violation(poly, planes) <= eps
        old = clip_intersection(planes, bound)
        assert poly.is_empty == old.is_empty
        assert hausdorff_distance(poly, old) <= eps
        exact = _exact_intersection(planes, bound)
        assert poly.is_empty == exact.is_empty
        assert hausdorff_distance(poly, exact) <= eps


@pytest.mark.parametrize("gap", [1e-15, 1e-12, 1e-9, 1e-8])
def test_many_nearly_parallel_pairs(gap):
    # four pairs of nearly parallel lines and six planes around the origin:
    # thin and empty intersections, where the clipping oracle itself can
    # keep vertices far outside a plane, so exact clipping decides
    rng = np.random.default_rng([20240810, int(-math.log10(gap))])
    for _ in range(40):
        planes = []
        for _ in range(4):
            q, a = complex(*rng.uniform(-1, 1, 2)), rng.uniform(0, 2 * math.pi)
            planes += [ClosedHalfPlane(q, a), ClosedHalfPlane(q, a + gap * rng.uniform(-1, 1))]
        planes += [support_plane(2 * math.pi * (j + rng.uniform()) / 6, 0.8) for j in range(6)]
        poly = halfplane_intersection(planes, 2.0)
        exact = _exact_intersection(planes, 2.0)
        assert poly.is_empty == exact.is_empty
        assert hausdorff_distance(poly, exact) <= DEFAULT_TOL.eps_geom
        assert _worst_violation(poly, planes) <= DEFAULT_TOL.eps_geom
