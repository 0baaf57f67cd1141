"""Differential tests: ``halfplane_intersection`` against the clipping oracle.

Agreement means the same emptiness, the same vertex count and a Hausdorff
distance of at most 1e-12 * bound.  The inputs are random plane sets and the
plane sets that ``region`` and ``dilation_intersection`` actually build.
"""

import math

import pytest

from hrnr import core, dilation, presets
from hrnr.geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    halfplane_intersection,
    hausdorff_distance,
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
