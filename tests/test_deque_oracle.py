"""Differential tests: the line intersection against the plane-object deque
pass kept in ``deque_oracle``.

The two must give equal vertices, not merely close ones: random plane sets,
nearly parallel pairs, the support samples of ``region`` and the block
levels of ``dilation_intersection`` all go through both.  ``support_lines``
must give, bit for bit, the lines the plane conversion gives.
"""

import math

import numpy as np
import pytest

from hrnr import core, dilation, presets
from hrnr.errors import NotNormal
from hrnr.geometry import halfplane_intersection, support_lines, support_plane

import deque_oracle as oracle
from conftest import (
    NEARLY_PARALLEL_GAPS,
    haar_unitary,
    many_nearly_parallel_pair_sets,
    nearly_parallel_pair_sets,
    random_model,
    random_normal_contraction,
    random_plane_set,
)


def _plane_line(P):
    # the conversion of halfplane_intersection
    nx, ny = P.normal
    scale = math.hypot(nx, ny)
    return (nx / scale, ny / scale, (nx * P.anchor.real + ny * P.anchor.imag) / scale)


def assert_same(planes, bound):
    new = halfplane_intersection(planes, bound)
    assert new == oracle.halfplane_intersection(planes, bound)
    return new


def test_random_plane_sets(rng):
    for trial in range(3000):
        assert_same(random_plane_set(rng), (2.0, 1.0, 5.0)[trial % 3])


@pytest.mark.parametrize("gap", NEARLY_PARALLEL_GAPS)
def test_nearly_parallel_pairs(gap):
    for planes, bound in nearly_parallel_pair_sets(gap):
        assert_same(planes, bound)


@pytest.mark.parametrize("gap", [1e-15, 1e-12, 1e-9, 1e-8])
def test_many_nearly_parallel_pairs(gap):
    for planes in many_nearly_parallel_pair_sets(gap):
        assert_same(planes, 2.0)


def test_support_lines_are_the_plane_lines(rng):
    # axis directions (snapped components and signed zeros), random ones,
    # numpy and Python scalars, negative, zero and positive levels
    xis = np.concatenate([np.arange(8) * math.pi / 4, rng.uniform(0, 2 * math.pi, 200)])
    levels = np.concatenate([[0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 3.0, 1e-300], rng.uniform(-2, 2, 200)])
    for xs, hs in ((xis, levels), (xis.tolist(), levels.tolist())):
        lines = support_lines(xs, hs)
        planes = [support_plane(xi, h) for xi, h in zip(xs, hs)]
        assert np.array(lines).tobytes() == np.array([_plane_line(P) for P in planes]).tobytes()
    for h in (math.inf, -math.inf, math.nan):
        for xi in (0.0, math.pi / 2, 1.0):
            with pytest.raises(ValueError) as plane_error:
                support_plane(xi, h)
            with pytest.raises(ValueError) as line_error:
                support_lines([xi], [h])
            assert str(line_error.value) == str(plane_error.value)


def test_region_polygons(rng):
    cases = []
    for _ in range(15):
        model = random_model(rng)
        k = int(rng.integers(1, 4))
        if model.total_dim >= k:
            cases.append((model, k, 48))
    cases += [
        (presets.durszt_model(2), 2, 96),
        (presets.square_region_model(2), 2, 96),
        (presets.bilateral_shift_model(), 2, 96),
        (presets.infinity_empty_model(20), 2, 96),
        (presets.hermitian_model(), 1, 32),
        (presets.hermitian_model(), 3, 32),
        (presets.hermitian_model(), 4, 32),
    ]
    for model, k, n_angles in cases:
        est = core.region(model, k, n_angles)
        planes = [support_plane(xi, h) for xi, h in est.support_samples]
        assert est.polygon == assert_same(planes, model.support_radius)


def _dilation_cases(rng):
    """Normal contractions with n = 1..8, generic and with unimodular
    eigenvalues on the direction grid, then one that is not normal."""
    grid = 2 * math.pi * np.arange(180) / 180
    for n in range(1, 9):
        yield random_normal_contraction(n, rng)
        eigs = rng.uniform(0.05, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        eigs[: (n + 1) // 2] = np.exp(1j * grid[rng.integers(0, len(grid), (n + 1) // 2)])
        Q = haar_unitary(n, rng)
        yield (Q * eigs) @ Q.conj().T
    yield np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)


def test_dilation_intersections(rng):
    # every rank up to 2n; the planes are rebuilt from the same directions
    # and levels
    *normal, last = _dilation_cases(rng)
    for T in normal:
        bound = dilation._op_norm(T) + 1.0
        vals, V = dilation._unitary_eigendecomposition(T)
        for k in range(1, 2 * T.shape[0] + 1):
            xis = dilation._breakpoints(vals, k)
            levels = dilation._block_dilation_levels(T, vals, V, k, xis)
            planes = [support_plane(xi, h) for xi, h in zip(xis, levels)]
            poly = dilation.dilation_intersection(T, k, 2, 4)
            assert poly == assert_same(planes, bound)
    for k in range(1, 5):
        with pytest.raises(NotNormal):
            dilation.dilation_intersection(last, k)
