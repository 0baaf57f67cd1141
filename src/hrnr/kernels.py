"""The sweep kernel: classify weighted points against a pencil of lines."""

from __future__ import annotations

import numpy as np


def atom_side_sweep(px, py, w, vx, vy, eps: float):
    """Bucket weighted anchor-relative points against canonical directions.

    For every direction (vx[i], vy[i]) through the common anchor, each point
    (px[j], py[j]) (already anchor-relative) lands in one of six buckets and
    contributes its weight w[j]:

        0: strictly on the open side of the canonical normal (left of direction)
        1: strictly on the opposite side
        2: exactly on the line, forward ray (t > 0)
        3: exactly on the line, backward ray (t < 0)
        4: exactly the anchor
        5: within eps of the line but not exactly on it (unresolved)

    Directions must already be canonicalized; weights may be +inf.  Returns
    the (m, 6) float64 array of bucket weights, one row per direction.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    vx = np.ascontiguousarray(vx, dtype=np.float64)
    vy = np.ascontiguousarray(vy, dtype=np.float64)
    eps = float(eps)
    m, n = vx.shape[0], px.shape[0]
    out = np.zeros((m, 6), dtype=np.float64)
    if m == 0 or n == 0:
        return out
    s = np.multiply.outer(vx, py) - np.multiply.outer(vy, px)
    e = (eps * np.hypot(vx, vy))[:, None]
    side_a = s > e
    side_b = s < -e
    on_line = s == 0.0
    unc = ~(side_a | side_b | on_line)
    t = np.multiply.outer(vx, px) + np.multiply.outer(vy, py)
    ray_p = on_line & (t > 0.0)
    ray_m = on_line & (t < 0.0)
    anchor = on_line & (t == 0.0)
    for col, mask in enumerate((side_a, side_b, ray_p, ray_m, anchor, unc)):
        out[:, col] = np.where(mask, w, 0.0).sum(axis=1)
    return out
