"""The all-pairs eigenvalue clustering, kept as the test oracle.

This is the implementation ``hrnr.spectral._cluster`` had before it tested
only the pairs inside a window of the values sorted by real part: a
union-find over every pair.  The differential tests compare the two.
"""

from __future__ import annotations

import numpy as np

from hrnr.spectral import Atom


def cluster(vals: np.ndarray, eps: float) -> tuple[Atom, ...]:
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= eps:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(vals[i]))
    atoms = [Atom(sum(g) / len(g), len(g)) for g in groups.values()]
    atoms.sort(key=lambda a: (a.location.real, a.location.imag))
    return tuple(atoms)
