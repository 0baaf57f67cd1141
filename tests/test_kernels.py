import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import kernels
from hrnr.core import critical_directions
from hrnr.geometry import DEFAULT_TOL, canonical_dir

from conftest import haar_unitary


def test_exact_buckets():
    # one atom forward on the line, one backward, one at the anchor,
    # one strictly above, one in the uncertainty band
    px = np.array([1.0, -1.0, 0.0, 0.0, 1.0])
    py = np.array([0.0, 0.0, 0.0, 1.0, 1e-12])
    w = np.ones(5)
    out = kernels.atom_side_sweep(px, py, w, np.array([1.0]), np.array([0.0]), 1e-9)
    assert out[0].tolist() == [1.0, 0.0, 1.0, 1.0, 1.0, 1.0]


def test_infinite_weights_propagate():
    px, py = np.array([0.5]), np.array([0.5])
    w = np.array([np.inf])
    out = kernels.atom_side_sweep(px, py, w, np.array([1.0]), np.array([0.0]), 1e-9)
    assert out[0, 0] == np.inf


def test_empty_batches():
    v = np.array([1.0, 0.0, 0.6]), np.array([0.0, 1.0, 0.8])
    none = np.array([])
    assert kernels.atom_side_sweep(none, none, none, *v, 1e-9).tolist() == [[0.0] * 6] * 3
    one = np.array([0.5])
    assert kernels.atom_side_sweep(one, one, one, none, none, 1e-9).shape == (0, 6)


# The dense body is the oracle of the angular sweep: both are called directly,
# whatever the size, and must agree bit for bit.

EPS_VALUES = (0.0, 1e-9, 1e-3)


def _both_paths(px, py, w, vx, vy, eps):
    args = [np.asarray(a, dtype=np.float64) for a in (px, py, w, vx, vy)]
    dense = kernels._dense_sweep(*args, eps)
    assert np.array_equal(kernels._sorted_sweep(*args, eps), dense)
    assert np.array_equal(kernels.atom_side_sweep(*args, eps), dense)
    return dense


def _guard(eps):
    """The sorted path's near radius r0 and guard half-width."""
    r0 = max(kernels._NEAR * eps, kernels._TINY)
    return r0, math.asin(2.0 * eps / r0) + kernels._ANGLE_SLACK


def _canonical(vx, vy):
    keep = (vx != 0.0) | (vy != 0.0)
    d = np.array([canonical_dir(a, b) for a, b in zip(vx[keep], vy[keep])]).reshape(-1, 2)
    return d[:, 0], d[:, 1]


def _points(rng, layout, n, eps):
    r0, delta = _guard(eps)
    if layout == "lattice":
        # exact collinearities through the anchor, the anchor itself among them
        return rng.integers(-3, 4, n) / 4.0, rng.integers(-3, 4, n) / 4.0
    if layout == "near":
        # inside r0 (the anchor included), on it, and just beyond it
        r = r0 * rng.choice([0.0, 0.25, 1.0, 1.0 + 1e-15, 2.0, 1e3], n)
    else:
        r = rng.uniform(0.0, 1.5, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    if layout == "guard":
        # on the edges of the guard windows around the x axis and the y axis
        edges = [-delta, delta, math.pi - delta, math.pi + delta]
        phi = rng.choice([0.0, math.pi / 2], n) + rng.choice(edges, n)
        r = np.maximum(r, r0 * rng.choice([1.0, 1.5, 10.0], n))
    return r * np.cos(phi), r * np.sin(phi)


def _weights(rng, n):
    w = rng.integers(1, 4, n).astype(float)
    w[rng.random(n) < 0.15] = np.inf
    return w


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from(EPS_VALUES),
    layout=st.sampled_from(["uniform", "lattice", "guard", "near"]),
    size=st.sampled_from([(30, 40), (300, 120)]),
)
def test_sorted_matches_dense(seed, eps, layout, size):
    rng = np.random.default_rng(seed)
    n, m = size
    px, py = _points(rng, layout, n, eps)
    # eps-band and near-zero offsets across the axis directions
    hit = rng.random(n) < 0.2
    shift = rng.choice([1e-12, -1e-12, eps, -eps, 2 * eps, eps * (1 + 1e-9)], n)
    if rng.random() < 0.5:
        py = np.where(hit, py + shift, py)
    else:
        px = np.where(hit, shift, px)
    # critical directions (towards points), lattice differences, random
    # angles and the two axes (canonically +x and -y)
    pick = rng.integers(0, n, m)
    angle = rng.uniform(0.0, math.pi, m)
    dx = np.concatenate((px[pick], rng.integers(-3, 4, m) / 4.0, np.cos(angle)))
    dy = np.concatenate((py[pick], rng.integers(-3, 4, m) / 4.0, np.sin(angle)))
    sel = rng.permutation(dx.size)[:m]
    vx, vy = _canonical(np.append(dx[sel], [1.0, 0.0]), np.append(dy[sel], [0.0, -1.0]))
    _both_paths(px, py, _weights(rng, n), vx, vy, eps)


@pytest.mark.parametrize("where", ["eigenvalue", "midpoint"])
def test_sorted_matches_dense_on_matrix_model(where):
    rng = np.random.default_rng(11)
    eigs = np.sqrt(rng.uniform(0.0, 1.0, 190)) * np.exp(2j * np.pi * rng.uniform(size=190))
    eigs = np.concatenate((eigs, eigs[:10]))  # ten eigenvalues of multiplicity two
    q = haar_unitary(200, rng)
    model = hrnr.from_normal_matrix(q @ np.diag(eigs) @ q.conj().T)
    locs = [a.location for a in model.atoms]
    anchor = locs[3] if where == "eigenvalue" else (locs[3] + locs[40]) / 2
    vx, vy = critical_directions(model, anchor)
    px, py, w = model._point_data
    assert vx.size * px.size >= kernels.SORTED_MIN_PAIRS
    out = _both_paths(px - anchor.real, py - anchor.imag, w, vx, vy, DEFAULT_TOL.eps_geom)
    assert (out.sum(axis=1) == w.sum()).all()
