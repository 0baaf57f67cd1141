import numpy as np

from hrnr import kernels


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
