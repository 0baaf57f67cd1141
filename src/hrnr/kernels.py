"""The sweep kernel: classify weighted points against a pencil of lines."""

from __future__ import annotations

import numpy as np

from .geometry import DEFAULT_TOL

# A shared anchor takes the dense body below this many point-direction
# pairs and the angular sweep from it on.  Timed on 2n directions over n
# random points (2-core Xeon, numpy 2.4.6; minimum to median of 25 repeats
# of 100 calls, two runs), the dense body costs 108-139 us at 15,500 pairs
# against 123-142 us for the sweep, the two tie from about 18,000 to 20,800
# pairs, and the sweep wins at 24,200 (132-147 against 151-180 us), so the
# cut sits at the low end of the tie; neither side of it costs much there.
# The crossover also moves with the shape: at 20,000 pairs the dense body
# wins on 25 points and 800 directions (160-173 against 203-216 us) and
# the sweep on 200 points and 100 directions (113-135 against 130-149 us).
# No benchmark workload comes near the cut.  Member on a matrix model with
# hundreds of eigenvalues (about 10^6 pairs) sorts, while the shared-anchor
# calls on small models stay dense: member, is_boundary,
# excluding_certificate, the dim_ran_* queries and a batched chunk of one
# point.  One anchor per direction (the batched sweeps of region and
# wu_check) always runs dense, up to ``BATCH_PAIRS`` = 65,536 pairs per call.
SORTED_MIN_PAIRS = 18_432

# Batched sweeps take their anchors in chunks whose directions times points
# stay within this many pairs, which bounds the working memory of the dense
# body to a few MB; an anchor that alone exceeds it is swept by itself,
# through the shared-anchor kernel.  The k-th support levels and the
# dilation's level scan score their directions in chunks of the same size.
# Callers read it as ``kernels.BATCH_PAIRS`` at call time.
BATCH_PAIRS = 1 << 16

# Points within _NEAR * eps_geom of the anchor go through the dense body.
# Beyond that radius r0, a sign test can land in the eps band only for angles
# within asin(2 eps_geom / r0) of the line, so only those angles need the
# exact re-check.
_NEAR = 1e3
# Extra half-width of the guard windows.  It covers the rounding of arctan2
# and of the wrapped angles (below 1e-14 rad) and keeps every point outside
# a window clear of the eps band by a margin far above the rounding of s.
_ANGLE_SLACK = 1e-12


def atom_side_sweep(px, py, w, vx, vy, ax=0.0, ay=0.0):
    """Bucket weighted points against canonical directions through anchors.

    For every direction (vx[i], vy[i]) through its anchor (ax, ay), one
    anchor shared by every direction or one per direction (arrays of length
    m), each point (px[j], py[j]) lands in one of six buckets and
    contributes its weight w[j]:

        0: strictly on the open side of the canonical normal (left of direction)
        1: strictly on the opposite side
        2: exactly on the line, forward ray (t > 0)
        3: exactly on the line, backward ray (t < 0)
        4: exactly the anchor
        5: within eps of the line but not exactly on it (unresolved)

    with (dx, dy) = (px - ax, py - ay), s = vx*dy - vy*dx, t = vx*dx + vy*dy,
    eps = DEFAULT_TOL.eps_geom, bucket 0 when s > eps*|v|, bucket 1 when
    s < -eps*|v| and buckets 2-4 only when s == 0 exactly.
    Directions must already be canonicalized, and scaled as by
    :func:`hrnr.spectral.direction_sweep` (larger component in [0.5, 1)).
    Weights are multiplicities: positive integers or +inf, the finite ones
    totalling below 2**53, which ``SpectralMeasureModel`` enforces.  Every
    bucket sum is then exact, so it does not depend on the order of summation.
    Returns the (m, 6) float64 array of bucket weights, one row per direction.

    The dense body evaluates every pair (O(m n)), with either kind of
    anchor; callers bound m n.  Per-direction anchors always take it, and a
    shared anchor takes it below ``SORTED_MIN_PAIRS`` point-direction pairs.
    From there on a shared anchor takes the angular sweep, which computes
    the same array bit for bit: it sorts the anchor-relative point angles
    once and reads the clear side-A and side-B weight of each direction
    from prefix sums (O((m + n) log n)), re-checking with the dense body
    only the points near the anchor and those in guard windows around the
    line.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    vx = np.ascontiguousarray(vx, dtype=np.float64)
    vy = np.ascontiguousarray(vy, dtype=np.float64)
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    if ax.ndim or vx.shape[0] * px.shape[0] < SORTED_MIN_PAIRS:
        return _dense_sweep(px, py, w, vx, vy, ax, ay)
    return _sorted_sweep(px - ax, py - ay, w, vx, vy)


def _dense_sweep(px, py, w, vx, vy, ax=0.0, ay=0.0):
    """Every pair at once; the (m, 6) buckets out.  The points are float64
    arrays of shape (n,), the anchor one shared pair of scalars or one per
    direction (arrays of shape (m,)).  Anchor-relative points take the
    default origin: x - 0.0 is x bit for bit."""
    m, n = vx.shape[0], px.shape[0]
    out = np.zeros((m, 6), dtype=np.float64)
    if m == 0 or n == 0:
        return out
    ax, ay = np.broadcast_to(ax, (m,)), np.broadcast_to(ay, (m,))
    # s = vx*dy - vy*dx in two float64 buffers of the pair count, the only
    # ones alive at once; after them, three bool masks and the float64 copy
    # that each mat-vec makes of its mask
    s, sub = np.subtract(py, ay[:, None]), np.subtract(px, ax[:, None])
    s *= vx[:, None]
    sub *= vy[:, None]
    s -= sub
    del sub
    e = (DEFAULT_TOL.eps_geom * np.hypot(vx, vy))[:, None]
    side_a = s > e
    side_b = s < -e
    on_line = s == 0.0
    del s
    # buckets 0, 1 and 5 as mat-vecs over the finite weights: the masks are
    # 0 or 1 and the weights integers with totals below 2**53, so the sums
    # are exact in any order; a row whose mask meets an infinite weight is inf
    inf = np.flatnonzero(np.isinf(w))
    fin = w.copy()
    fin[inf] = 0.0
    unc = side_a | side_b
    unc |= on_line
    np.logical_not(unc, out=unc)
    for col, mask in ((0, side_a), (1, side_b), (5, unc)):
        out[:, col] = mask @ fin
        if len(inf):
            out[mask[:, inf].any(axis=1), col] = np.inf
    # the pairs exactly on the line are usually few: t only for them, from
    # the same differences as s, and one bincount into buckets 2-4 (the
    # flat indices and divmod cost far less than a 2-D np.nonzero)
    r, j = np.divmod(np.flatnonzero(on_line), n)
    if len(r):
        t = vx[r] * (px[j] - ax[r])
        t += vy[r] * (py[j] - ay[r])
        bucket = _bucket(0.0, 0.0, t)  # s == 0 on these pairs
        out += np.bincount(r * 6 + bucket, weights=w[j], minlength=6 * m).reshape(m, 6)
    return out


def _bucket(s, e, t):
    """The bucket of each pair (see :func:`atom_side_sweep`) from its side
    value s, its band half-width e >= 0 and its ray coordinate t, which
    counts only where s == 0."""
    return 5 - 5 * (s > e) - 4 * (s < -e) - (s == 0.0) * (1 + 2 * (t > 0.0) + (t < 0.0))


def _sorted_sweep(px, py, w, vx, vy):
    """The angular sweep; same arguments and result as :func:`_dense_sweep`
    on anchor-relative points."""
    m = vx.shape[0]
    if m == 0:
        return _dense_sweep(px, py, w, vx, vy)
    eps = DEFAULT_TOL.eps_geom
    length = np.hypot(vx, vy)
    r0 = _NEAR * eps
    far = np.hypot(px, py) > r0
    out = _dense_sweep(px[~far], py[~far], w[~far], vx, vy)
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
    # searched bound by bound over the directions in angular order, where
    # each key starts from the previous one's position; the indices go back
    # to direction order
    phi = np.arctan2(vy, vx)
    by_angle = np.argsort(phi)
    k = np.empty((m, 5), dtype=np.intp)
    k[by_angle] = np.searchsorted(lap, phi[by_angle] + bounds[:, None]).T
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
    out += np.bincount(row * 6 + _bucket(s, e, t), weights=w[j], minlength=6 * m).reshape(m, 6)
    return out
