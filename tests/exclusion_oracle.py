"""The membership-run verification of excluding dilations, kept as the test
oracle.

This is the implementation ``hrnr.dilation.excluding_dilation_matrix`` had
before it certified the exclusion by interlacing: the same separating
direction and block dilation, then the eigenvalue model of the 2n x 2n
dilation rebuilt with ``from_normal_matrix`` and swept by ``member``, which
must return OUT.  The differential tests compare it with the certificate.
"""

from __future__ import annotations

import numpy as np

from hrnr.core import member
from hrnr.dilation import (
    DilationArtifact,
    _block_dilation,
    _breakpoints,
    _require_contraction,
    _separating_direction,
    _unitary_eigendecomposition,
)
from hrnr.errors import NoSeparatingAngle
from hrnr.geometry import DEFAULT_TOL, Verdict, require_finite
from hrnr.spectral import _check_finite_rank, from_normal_matrix


def excluding_dilation_matrix(T: np.ndarray, k: int, lam: complex) -> DilationArtifact:
    lam = require_finite(lam, "point")
    T, _ = _require_contraction(T)
    vals, V = _unitary_eigendecomposition(T)
    k = _check_finite_rank(k, vals.shape[0])
    xi, margin = _separating_direction(vals, k, lam, *_breakpoints(vals, k))
    if margin <= DEFAULT_TOL.eps_geom:
        raise NoSeparatingAngle(f"best margin {margin:.3e} does not clear eps_geom")
    cut = np.real(np.exp(1j * xi) * lam) - 0.5 * margin
    art = _block_dilation(T, vals, V, xi, np.real(np.exp(1j * xi) * vals) >= cut)
    if member(from_normal_matrix(art.matrix), k, lam).value is not Verdict.OUT:
        raise NoSeparatingAngle("the block dilation does not verifiably exclude the point")
    return art
