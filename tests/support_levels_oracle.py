"""The k-th support levels as they were computed before the finite points
were scored by a top-k selection, kept as the oracle of
``hrnr.spectral.support_levels``: every direction's projections are sorted
in full (a stable argsort of their negatives), and the level is the first
point, in that order, whose cumulative multiplicity reaches k.
"""

import math

import numpy as np

from hrnr import kernels
from hrnr.geometry import snap_dirs
from hrnr.spectral import INF, Arc, Segment, SpectralMeasureModel, _angle_in, _check_finite_rank


def support_levels(model: SpectralMeasureModel, k, xis) -> np.ndarray:
    k = _check_finite_rank(k, model.total_dim)
    xis = np.asarray(xis, dtype=np.float64)
    c, s = snap_dirs(np.cos(xis), np.sin(xis))

    def proj(z):
        return c * z.real - s * z.imag

    def above(best, x):
        return np.where(x > best, x, best)

    tops = []
    for piece in model.pieces:
        if isinstance(piece, Segment):
            tops += [proj(piece.a), proj(piece.b)]
        elif isinstance(piece, Arc):
            top = c * math.cos(piece.theta0) - s * math.sin(piece.theta0)
            top = above(top, c * math.cos(piece.theta1) - s * math.sin(piece.theta1))
            top = np.where(_angle_in(-xis, piece.theta0, piece.theta1) & (1.0 > top), 1.0, top)
            tops.append(proj(piece.center) + piece.radius * top)
        else:
            tops += [proj(v) for v in piece.polygon.vertices]
    tops += [proj(a.location) for a in model.atoms if a.mult == INF]
    tops += [proj(f.limit) for f in model.families]
    best = np.full(xis.shape, -INF)
    for top in tops:
        best = above(best, top)

    px, py, w = model._point_data
    if len(px):
        rows = max(1, kernels.BATCH_PAIRS // len(px))
        for start in range(0, len(xis), rows):
            part = slice(start, start + rows)
            x = c[part, None] * px - s[part, None] * py
            order = np.argsort(-x, axis=1, kind="stable")
            # an infinite atom reaches k at once, but lies at or below the
            # essential level, as does every point after it
            reach = np.cumsum(w[order], axis=1) >= k
            r = np.arange(x.shape[0])
            kth = x[r, order[r, reach.argmax(axis=1)]]
            best[part] = np.where(reach[:, -1] & (kth > best[part]), kth, best[part])
    return best
