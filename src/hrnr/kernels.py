"""The sweep kernel: classify weighted points against a pencil of lines."""

from __future__ import annotations

import numpy as np

# Calls with fewer point-direction pairs take the dense outer product.  The
# two paths cost the same at about 5,000 pairs (50 points x 100 directions on
# a 2-core Xeon); the cut sits above that with room to spare.  Region and
# dilation sweeps (at most about 2,000 pairs) stay dense, while member on a
# matrix model with hundreds of eigenvalues (about 10^6 pairs) sorts.
SORTED_MIN_PAIRS = 16_384

# Points within _NEAR * eps of the anchor go through the dense body.  Beyond
# that radius r0, a sign test can land in the eps band only for angles within
# asin(2 eps / r0) of the line, so only those angles need the exact re-check.
_NEAR = 1e3
# Extra half-width of the guard windows.  It covers the rounding of arctan2
# and of the wrapped angles (below 1e-14 rad) and keeps every point outside
# a window clear of the eps band by a margin far above the rounding of s.
_ANGLE_SLACK = 1e-12
# Point radii and direction lengths outside (_TINY, _HUGE) go dense, so the
# products in s neither overflow nor underflow to the margin's scale.
_TINY, _HUGE = 1e-100, 1e100


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

    with s = vx*py - vy*px, t = vx*px + vy*py, bucket 0 when s > eps*|v|,
    bucket 1 when s < -eps*|v| and buckets 2-4 only when s == 0 exactly.
    Directions must already be canonicalized.  Weights are multiplicities:
    positive integers (with sums below 2**53) or +inf.  Every bucket sum is
    then exact, so it does not depend on the order of summation.  Returns the
    (m, 6) float64 array of bucket weights, one row per direction.

    Two paths compute the same array bit for bit.  Below ``SORTED_MIN_PAIRS``
    point-direction pairs the dense body evaluates every pair (O(m n)).  Above
    it the angular sweep sorts the point angles once and reads the clear
    side-A and side-B weight of each direction from prefix sums (O((m + n)
    log n)), re-checking with the dense arithmetic only the points near the
    anchor and those in guard windows around the line.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    vx = np.ascontiguousarray(vx, dtype=np.float64)
    vy = np.ascontiguousarray(vy, dtype=np.float64)
    eps = float(eps)
    if vx.shape[0] * px.shape[0] < SORTED_MIN_PAIRS:
        return _dense_sweep(px, py, w, vx, vy, eps)
    return _sorted_sweep(px, py, w, vx, vy, eps)


def _dense_sweep(px, py, w, vx, vy, eps):
    """Every pair at once; float64 arrays in, the (m, 6) buckets out."""
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


def _sorted_sweep(px, py, w, vx, vy, eps):
    """The angular sweep; same arguments and result as :func:`_dense_sweep`."""
    m = vx.shape[0]
    length = np.hypot(vx, vy)
    if m == 0 or not (eps >= 0.0 and length.min() > _TINY and length.max() < _HUGE):
        return _dense_sweep(px, py, w, vx, vy, eps)
    r0 = max(_NEAR * eps, _TINY)
    r = np.hypot(px, py)
    far = (r > r0) & (r < _HUGE)
    out = _dense_sweep(px[~far], py[~far], w[~far], vx, vy, eps)
    idx = np.flatnonzero(far)
    n = idx.shape[0]
    if n == 0:
        return out

    # far points in angular order, listed twice (the second lap shifted by
    # 2 pi) so every window of one turn is a contiguous index range
    theta = np.arctan2(py[idx], px[idx])
    order = np.argsort(theta, kind="stable")
    idx, theta = idx[order], theta[order]
    lap = np.concatenate((theta, theta + 2.0 * np.pi))
    wi = np.tile(w[idx], 2)
    inf = np.isinf(wi)
    fin_sum = np.concatenate(([0.0], np.cumsum(np.where(inf, 0.0, wi))))
    inf_cnt = np.concatenate(([0], np.cumsum(inf)))

    # one turn from phi - delta: guard, side A, guard, side B, guard.  The
    # start lies below pi, so the turn [k0, k0 + n) stays inside both laps
    # and holds every point once; the clamp keeps rounding of the last bound
    # from reaching past it.
    delta = np.arcsin(2.0 * eps / r0) + _ANGLE_SLACK
    bounds = np.array([-delta, delta, np.pi - delta, np.pi + delta, 2.0 * np.pi - delta])
    k = np.searchsorted(lap, np.arctan2(vy, vx)[:, None] + bounds)
    k = np.minimum(k, k[:, :1] + n)
    k0, k1, k2, k3, k4 = k.T

    def clear(lo, hi):
        return np.where(inf_cnt[hi] > inf_cnt[lo], np.inf, fin_sum[hi] - fin_sum[lo])

    out[:, 0] += clear(k1, k2)
    out[:, 1] += clear(k3, k4)

    # guard windows: each (direction, point) pair through the dense arithmetic
    starts = np.stack((k0, k2, k4), axis=1).ravel()
    lens = np.stack((k1 - k0, k3 - k2, k0 + n - k4), axis=1).ravel()
    total = int(lens.sum())
    row = np.repeat(np.arange(m).repeat(3), lens)
    first = np.cumsum(lens) - lens
    j = idx[(np.repeat(starts - first, lens) + np.arange(total)) % n]
    gx, gy = vx[row], vy[row]
    s = gx * py[j] - gy * px[j]
    e = (eps * length)[row]
    t = gx * px[j] + gy * py[j]
    on_line = s == 0.0
    bucket = np.select(
        [s > e, s < -e, on_line & (t > 0.0), on_line & (t < 0.0), on_line],
        [0, 1, 2, 3, 4],
        default=5,
    )
    out += np.bincount(row * 6 + bucket, weights=w[j], minlength=6 * m).reshape(m, 6)
    return out
