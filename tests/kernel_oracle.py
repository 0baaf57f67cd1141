"""The dense sweep body as it was before its bucket sums became mat-vecs and
its exactly-on-line pairs were handled sparsely, kept as the oracle of
``hrnr.kernels._dense_sweep`` and ``hrnr.kernels._sorted_sweep``: it sums
every bucket with one ``np.where`` over the full pair array.
"""

import numpy as np


def _dense_sweep(px, py, w, vx, vy, eps):
    """Every pair at once; the (m, 6) buckets out.  The anchor-relative
    points are float64 arrays of shape (n,), shared by every direction, or
    (m, n), one row per direction."""
    m, n = vx.shape[0], px.shape[-1]
    out = np.zeros((m, 6), dtype=np.float64)
    if m == 0 or n == 0:
        return out
    # s and t are never alive together, which bounds the working memory to
    # four float64 arrays of the pair count
    cx, cy = vx[:, None], vy[:, None]
    s = cx * py
    s -= cy * px
    e = (eps * np.hypot(vx, vy))[:, None]
    side_a = s > e
    side_b = s < -e
    on_line = s == 0.0
    del s
    unc = ~(side_a | side_b | on_line)
    t = cx * px
    t += cy * py
    ray_p = on_line & (t > 0.0)
    ray_m = on_line & (t < 0.0)
    anchor = on_line & (t == 0.0)
    del t
    for col, mask in enumerate((side_a, side_b, ray_p, ray_m, anchor, unc)):
        out[:, col] = np.where(mask, w, 0.0).sum(axis=1)
    return out
