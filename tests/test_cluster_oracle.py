"""Differential test: the windowed ``spectral._cluster`` against the
all-pairs union-find kept in ``cluster_oracle``.

The atoms must agree bit for bit: the same groups, the same means, the same
order.
"""

import numpy as np

from hrnr.geometry import DEFAULT_TOL
from hrnr.spectral import _cluster

from cluster_oracle import cluster

EPS = DEFAULT_TOL.eps_eig


def _spectra(rng):
    """Generic spectra, then spectra with exact repeats, chains of values
    0.3 to 1.0 eps apart, clusters within eps, values at distance exactly
    eps (or one ulp either side) and runs of equal real parts."""
    for i in range(300):
        n = int(rng.integers(1, 60))
        vals = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        kind = i % 6
        if kind == 1:
            vals[: n // 2] = vals[n - n // 2 :][: n // 2]
        elif kind == 2:
            step = EPS * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            vals[: n // 2] = vals[0] + step * np.cumsum(rng.uniform(0.9, 1.0, n // 2))
        elif kind == 3:
            vals[n // 2 :] = vals[0] + EPS * 0.4 * (rng.uniform(-1, 1, n - n // 2) + 1j * rng.uniform(-1, 1, n - n // 2))
        elif kind == 4:
            direction = np.exp(2j * np.pi * rng.uniform(size=n // 2))
            scale = EPS + rng.choice([-1, 0, 1], n // 2) * np.spacing(EPS)
            vals[n - n // 2 :][: n // 2] = vals[: n // 2] + scale * direction
        elif kind == 5:
            vals[: n // 2] = vals[0].real + 1j * (vals[0].imag + EPS * rng.uniform(0.5, 1.5) * np.arange(n // 2))
        yield rng.permutation(vals)


def test_clusters_match_oracle(rng):
    merged = 0
    for vals in _spectra(rng):
        new = _cluster(vals)
        assert repr(new) == repr(cluster(vals, EPS))
        merged += len(new) < len(vals)
    assert merged >= 200  # most spectra have values to join
