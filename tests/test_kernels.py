import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrnr
from hrnr import kernels
from hrnr.core import critical_directions
from hrnr.geometry import DEFAULT_TOL, canonical_dir

import kernel_oracle
from conftest import haar_unitary


def test_exact_buckets():
    # one atom forward on the line, one backward, one at the anchor,
    # one strictly above, one in the uncertainty band
    px = np.array([1.0, -1.0, 0.0, 0.0, 1.0])
    py = np.array([0.0, 0.0, 0.0, 1.0, 1e-12])
    w = np.ones(5)
    out = kernels.atom_side_sweep(px, py, w, np.array([1.0]), np.array([0.0]))
    assert out[0].tolist() == [1.0, 0.0, 1.0, 1.0, 1.0, 1.0]


def test_infinite_weights_propagate():
    px, py = np.array([0.5]), np.array([0.5])
    w = np.array([np.inf])
    out = kernels.atom_side_sweep(px, py, w, np.array([1.0]), np.array([0.0]))
    assert out[0, 0] == np.inf


def test_empty_batches():
    v = np.array([1.0, 0.0, 0.6]), np.array([0.0, 1.0, 0.8])
    none = np.array([])
    assert kernels.atom_side_sweep(none, none, none, *v).tolist() == [[0.0] * 6] * 3
    one = np.array([0.5])
    assert kernels.atom_side_sweep(one, one, one, none, none).shape == (0, 6)


# The dense body as it was before its mat-vec bucket sums (kernel_oracle) is
# the oracle of both paths: they are called directly, whatever the size, and
# must agree with it bit for bit.  Each layout also runs with its points
# scaled by 2^340 (radii above 1e100, where the sweep sorts them like any
# other), and shifted to a shared anchor off the origin and to that anchor
# repeated per direction.  The kernel's band half-width is eps_geom; the
# oracle takes it as an argument.

EPS = DEFAULT_TOL.eps_geom


def _both_paths(px, py, w, vx, vy):
    args = [np.asarray(a, dtype=np.float64) for a in (px, py, w, vx, vy)]
    ref = kernel_oracle._dense_sweep(*args, EPS)
    assert np.array_equal(kernels._dense_sweep(*args), ref)
    assert np.array_equal(kernels._sorted_sweep(*args), ref)
    assert np.array_equal(kernels.atom_side_sweep(*args), ref)
    far = [np.ldexp(a, 340) for a in args[:2]] + args[2:]
    far_ref = kernel_oracle._dense_sweep(*far, EPS)
    assert np.array_equal(kernels._dense_sweep(*far), far_ref)
    assert np.array_equal(kernels._sorted_sweep(*far), far_ref)
    # the dyadic anchor keeps shifted lattice points exactly on their lines;
    # the points gain the anchor itself and signed zeros, two of them on the
    # axis lines through the anchor
    px, py, w, vx, vy = args
    ax, ay = 0.75, -0.5
    qx = np.append(px + ax, [ax, -0.0, ax, -0.0, 0.0])
    qy = np.append(py + ay, [ay, ay, -0.0, -0.0, -0.0])
    qw = np.append(w, [2.0, 1.0, np.inf, 3.0, 1.0])
    shifted = kernel_oracle._dense_sweep(qx - ax, qy - ay, qw, vx, vy, EPS)
    m = vx.shape[0]
    for a, b in ((ax, ay), (np.full(m, ax), np.full(m, ay))):
        assert np.array_equal(kernels._dense_sweep(qx, qy, qw, vx, vy, a, b), shifted)
        assert np.array_equal(kernels.atom_side_sweep(qx, qy, qw, vx, vy, a, b), shifted)
    return ref


def _guard():
    """The sorted path's near radius r0 and guard half-width."""
    r0 = kernels._NEAR * EPS
    return r0, math.asin(2.0 * EPS / r0) + kernels._ANGLE_SLACK


def _canonical(vx, vy):
    keep = (vx != 0.0) | (vy != 0.0)
    d = np.array([canonical_dir(a, b) for a, b in zip(vx[keep], vy[keep])]).reshape(-1, 2)
    return d[:, 0], d[:, 1]


def _points(rng, layout, n):
    r0, delta = _guard()
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
    layout=st.sampled_from(["uniform", "lattice", "guard", "near"]),
    size=st.sampled_from([(30, 40), (300, 120)]),
)
def test_sorted_matches_dense(seed, layout, size):
    rng = np.random.default_rng(seed)
    n, m = size
    px, py = _points(rng, layout, n)
    # eps-band and near-zero offsets across the axis directions
    hit = rng.random(n) < 0.2
    shift = rng.choice([1e-12, -1e-12, EPS, -EPS, 2 * EPS, EPS * (1 + 1e-9)], n)
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
    _both_paths(px, py, _weights(rng, n), vx, vy)


@pytest.mark.parametrize("where", ["eigenvalue", "midpoint"])
def test_sorted_matches_dense_on_matrix_model(where):
    rng = np.random.default_rng(11)
    eigs = np.sqrt(rng.uniform(0.0, 1.0, 190)) * np.exp(2j * np.pi * rng.uniform(size=190))
    eigs = np.concatenate((eigs, eigs[:10]))  # ten eigenvalues of multiplicity two
    q = haar_unitary(200, rng)
    model = hrnr.from_normal_matrix(q @ np.diag(eigs) @ q.conj().T)
    locs = [a.location for a in model.atoms]
    anchor = locs[3] if where == "eigenvalue" else (locs[3] + locs[40]) / 2
    vx, vy, _ = critical_directions(model, [anchor])
    px, py, w = model._point_data
    assert vx.size * px.size >= kernels.SORTED_MIN_PAIRS
    out = _both_paths(px - anchor.real, py - anchor.imag, w, vx, vy)
    assert (out.sum(axis=1) == w.sum()).all()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([0, 1, 7, 60]),
    n=st.sampled_from([0, 1, 9, 80]),
)
def test_per_direction_anchors_match_oracle(seed, m, n):
    # integer grid points, anchors and direction vectors make s exact, so
    # pairs land exactly on the line (forward, backward and at the anchor);
    # a few points shifted into and just past the eps band fill bucket 5
    rng = np.random.default_rng(seed)
    px, py = rng.integers(-3, 4, n).astype(float), rng.integers(-3, 4, n).astype(float)
    hit = rng.random(n) < 0.2
    py[hit] += rng.choice([1e-12, -1e-12, EPS / 2, -EPS, 2 * EPS], int(hit.sum()))
    ax, ay = rng.integers(-3, 4, m).astype(float), rng.integers(-3, 4, m).astype(float)
    dx, dy = rng.integers(-3, 4, m).astype(float), rng.integers(-3, 4, m).astype(float)
    zero = (dx == 0.0) & (dy == 0.0)
    dx[zero] = 1.0
    vx, vy = _canonical(dx, dy)
    w = _weights(rng, n)
    out = kernels.atom_side_sweep(px, py, w, vx, vy, ax, ay)
    rx, ry = px[None, :] - ax[:, None], py[None, :] - ay[:, None]
    ref = kernel_oracle._dense_sweep(rx, ry, w, vx, vy, EPS)
    assert out.shape == (m, 6)
    assert np.array_equal(kernels._dense_sweep(px, py, w, vx, vy, ax, ay), ref)
    assert np.array_equal(out, ref)


def test_per_direction_region_wu_shape_matches_oracle():
    # a chunk as region and wu_check sweep it: about 2,000 directions, one
    # anchor each, over 23 points.  Lattice anchors and lattice or axis
    # directions put lattice points exactly on their lines (forward,
    # backward and at the anchor); four points sit eps/2, -eps/2, -eps and
    # 2 eps off the horizontal lattice lines, in and just past the eps band
    rng = np.random.default_rng(23)
    n, m = 23, 2016
    px, py = rng.integers(-3, 4, n) / 4.0, rng.integers(-3, 4, n) / 4.0
    py[:4] += np.array([EPS / 2, -EPS / 2, -EPS, 2 * EPS])
    w = rng.integers(1, 3, n).astype(float)
    w[5] = np.inf
    ax, ay = rng.integers(-3, 4, m) / 4.0, rng.integers(-3, 4, m) / 4.0
    phi = rng.uniform(0.0, math.pi, m)
    dx, dy = np.cos(phi), np.sin(phi)
    dx[::3], dy[::3] = rng.integers(1, 4, 672), rng.integers(-3, 4, 672)
    dx[1::6], dy[1::6] = 1.0, 0.0
    vx, vy = _canonical(dx, dy)
    out = kernels.atom_side_sweep(px, py, w, vx, vy, ax, ay)
    ref = kernel_oracle._dense_sweep(px[None, :] - ax[:, None], py[None, :] - ay[:, None], w, vx, vy, EPS)
    assert (ref[:, 2:5] > 0.0).any(axis=0).all() and (ref[:, 5] > 0.0).any()
    assert np.array_equal(out, ref)


def test_per_direction_sweep_memory():
    # kernels.BATCH_PAIRS pairs with one anchor per direction, as a batched
    # sweep of region or wu_check runs them; axis directions put lattice
    # points exactly on their lines.  The dense body's peak on these inputs
    # is 1,230,512 bytes with numpy 2.4.6, its two float64 buffers of the
    # pair count (1,048,576 bytes) included; the bound adds 64 KiB to it.
    rng = np.random.default_rng(3)
    n = 64
    m = kernels.BATCH_PAIRS // n
    px, py = rng.integers(-3, 4, n) / 4.0, rng.integers(-3, 4, n) / 4.0
    w = rng.integers(1, 4, n).astype(float)
    w[::7] = np.inf
    ax, ay = rng.integers(-3, 4, m) / 4.0, rng.integers(-3, 4, m) / 4.0
    phi = rng.uniform(0.0, math.pi, m)
    vx, vy = np.cos(phi), -np.sin(phi)
    vx[::5], vy[::5] = 1.0, 0.0
    kernels.atom_side_sweep(px, py, w, vx, vy, ax, ay)
    tracemalloc.start()
    try:
        kernels.atom_side_sweep(px, py, w, vx, vy, ax, ay)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_230_512 + 65_536
