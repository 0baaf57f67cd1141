"""Differential tests: ``halfplane_intersection`` against the clipping oracle.

Agreement means the same emptiness, the same vertex count and a Hausdorff
distance of at most 1e-12 * bound.  The inputs are random plane sets and the
support lines that ``region`` and ``dilation_intersection`` actually
intersect, turned back into closed half planes.
Nearly parallel planes are checked separately, against the oracle to
eps_geom and against exact rational clipping.
"""

import math

import pytest

from hrnr import core, dilation, presets
from hrnr.geometry import DEFAULT_TOL, ClosedHalfPlane, halfplane_intersection

from clip_oracle import clip_intersection, exact_intersection
from geometry_oracle import hausdorff_distance, plane_lines, support_plane
from conftest import (
    NEARLY_PARALLEL_GAPS,
    many_nearly_parallel_pair_sets,
    nearly_parallel_pair_sets,
    random_model,
    random_normal_contraction,
    random_plane_set,
)


def assert_agrees(planes, bound, new=None):
    if new is None:
        new = halfplane_intersection(plane_lines(planes), bound)
    old = clip_intersection(planes, bound)
    assert new.is_empty == old.is_empty
    assert len(new.vertices) == len(old.vertices)
    assert hausdorff_distance(new, old) <= 1e-12 * bound


@pytest.fixture
def calls(monkeypatch):
    """Records every (lines, bound) that region and dilation_intersection
    pass to the line intersection, with the polygon it returned, and checks
    each polygon against the oracle, run on the lines turned back into
    closed half planes, when the test ends."""
    seen = []
    for module in (core, dilation):

        def record(lines, bound, _real=module.halfplane_intersection):
            poly = _real(lines, bound)
            seen.append((lines, bound, poly))
            return poly

        monkeypatch.setattr(module, "halfplane_intersection", record)
    yield seen
    assert seen
    for lines, bound, poly in seen:
        # the line n.z >= c is the closed side of its foot c * n
        planes = [
            ClosedHalfPlane(c * complex(nx, ny), math.atan2(ny, nx), normal=(nx, ny))
            for nx, ny, c in lines
        ]
        assert_agrees(planes, bound, new=poly)


def test_random_plane_sets(rng):
    for _ in range(2000):
        assert_agrees(random_plane_set(rng), 2.0)


def test_region_polygons(calls, rng):
    for _ in range(10):
        model = random_model(rng)
        k = int(rng.integers(1, 4))
        if model.total_dim >= k:
            core.region(model, k, 48)
    for model, k in (
        (presets.durszt_model(2), 2),
        (presets.bilateral_shift_model(), 2),
        (presets.infinity_empty_model(), 2),
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


def test_dilation_above_n_is_empty(rng, monkeypatch):
    # L_k is not defined above n: no planes, and no line intersection
    monkeypatch.setattr(dilation, "halfplane_intersection", None)
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


def test_nearly_parallel_reproducer():
    # two planes 1.8e-15 apart in angle: the old pass kept a vertex
    # 7.1e-4 outside both
    planes = [
        support_plane(4.07048148529889, 0.059134595802695256),
        support_plane(4.070481485298892, 0.059134595802694034),
    ]
    poly = halfplane_intersection(plane_lines(planes), 1.0)
    assert len(poly.vertices) == 4
    assert _worst_violation(poly, planes) <= DEFAULT_TOL.eps_geom
    assert_agrees(planes, 1.0)


@pytest.mark.parametrize("gap", NEARLY_PARALLEL_GAPS)
def test_nearly_parallel_pairs(gap):
    # where a crossing cuts by less than eps_geom the oracle may keep or
    # drop it, so polygons agree to eps_geom, not vertex for vertex
    eps = DEFAULT_TOL.eps_geom
    for planes, bound in nearly_parallel_pair_sets(gap):
        poly = halfplane_intersection(plane_lines(planes), bound)
        assert _worst_violation(poly, planes) <= eps
        old = clip_intersection(planes, bound)
        assert poly.is_empty == old.is_empty
        assert hausdorff_distance(poly, old) <= eps
        exact = exact_intersection(planes, bound)
        assert poly.is_empty == exact.is_empty
        assert hausdorff_distance(poly, exact) <= eps


@pytest.mark.parametrize("gap", [1e-15, 1e-12, 1e-9, 1e-8])
def test_many_nearly_parallel_pairs(gap):
    # thin and empty intersections, where the clipping oracle itself can
    # keep vertices far outside a plane, so exact clipping decides
    for planes in many_nearly_parallel_pair_sets(gap):
        poly = halfplane_intersection(plane_lines(planes), 2.0)
        exact = exact_intersection(planes, 2.0)
        assert poly.is_empty == exact.is_empty
        assert hausdorff_distance(poly, exact) <= DEFAULT_TOL.eps_geom
        assert _worst_violation(poly, planes) <= DEFAULT_TOL.eps_geom
