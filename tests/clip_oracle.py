"""The box-clipping half-plane intersection, kept as the test oracle.

This is the implementation ``hrnr.geometry.halfplane_intersection`` had
before it became a single pass over angle-sorted lines: clip a square box
by one plane at a time, re-land every vertex on its active lines, then merge
vertices closer than 1e-12 * bound.  The differential tests compare the two.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hrnr.geometry import DEFAULT_TOL, ClosedHalfPlane, ConvexPolygon, convex_hull


def clip_intersection(
    planes: list[ClosedHalfPlane], bound: float, tol=DEFAULT_TOL
) -> ConvexPolygon:
    """Clip the square box of radius ``bound`` by every closed half plane.

    Degenerate intersections survive as segments or points; an empty
    intersection gives the empty polygon.
    """
    if not bound > 0:
        raise ValueError("bound must be positive")
    poly = [
        complex(-bound, -bound),
        complex(bound, -bound),
        complex(bound, bound),
        complex(-bound, bound),
    ]
    eps = tol.eps_geom
    for P in planes:
        nx, ny = P.normal
        scale = math.hypot(nx, ny)
        poly = _clip(poly, P.anchor, nx, ny, eps * scale)
        if not poly:
            return ConvexPolygon(())
    poly = [_refine_vertex(v, planes, 1e-11 * bound) for v in poly]
    return convex_hull(_merge_close(poly, 1e-12 * bound))


def _refine_vertex(v: complex, planes: list[ClosedHalfPlane], thresh: float) -> complex:
    """Re-land a vertex exactly on the constraint lines it activates.

    Interpolated clip crossings carry rounding dirt off their support lines;
    solving the active pair exactly keeps later on-line sign tests exact.
    """
    active = []
    for P in planes:
        nx, ny = P.normal
        sc = math.hypot(nx, ny)
        s = (nx * (v.real - P.anchor.real) + ny * (v.imag - P.anchor.imag)) / sc
        if abs(s) <= thresh:
            active.append((nx / sc, ny / sc, (nx * P.anchor.real + ny * P.anchor.imag) / sc))
    if not active:
        return v
    best = None
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            det = active[i][0] * active[j][1] - active[i][1] * active[j][0]
            if best is None or abs(det) > abs(best[0]):
                best = (det, i, j)
    if best is not None and abs(best[0]) > 1e-3:
        det, i, j = best
        n1x, n1y, c1 = active[i]
        n2x, n2y, c2 = active[j]
        return complex((c1 * n2y - c2 * n1y) / det, (n1x * c2 - n2x * c1) / det)
    nx, ny, c = active[0]
    s = nx * v.real + ny * v.imag - c
    return v - s * complex(nx, ny)


def _merge_close(pts: list[complex], tol_len: float) -> list[complex]:
    out: list[list[complex]] = []
    for p in pts:
        for cluster in out:
            if abs(p - cluster[0]) <= tol_len:
                cluster.append(p)
                break
        else:
            out.append([p])
    return [sum(c) / len(c) for c in out]


def _clip(
    poly: list[complex], anchor: complex, nx: float, ny: float, slack: float
) -> list[complex]:
    if not poly:
        return []
    n2 = nx * nx + ny * ny

    def val(p):
        return nx * (p.real - anchor.real) + ny * (p.imag - anchor.imag)

    def crossing(a, sa, b, sb):
        if sa == sb:
            p = b
        else:
            p = a + (sa / (sa - sb)) * (b - a)
        # land the crossing exactly on the line so later sign tests see 0
        return p - (val(p) / n2) * complex(nx, ny)

    out: list[complex] = []
    prev = poly[-1]
    sprev = val(prev)
    for cur in poly:
        scur = val(cur)
        if scur >= -slack:
            if sprev < -slack:
                out.append(crossing(prev, sprev, cur, scur))
            out.append(cur)
        elif sprev >= -slack:
            out.append(crossing(prev, sprev, cur, scur))
        prev, sprev = cur, scur
    return out


def exact_clip(planes: list[ClosedHalfPlane], bound: float) -> list[tuple[Fraction, Fraction]]:
    """The box of radius ``bound`` clipped by every plane in rational
    arithmetic, each plane's float normal and anchor taken exactly: the
    vertex list of the clipped polygon, duplicate and collinear points
    included, or [] when the intersection is empty."""
    b = Fraction(bound)
    poly = [(-b, -b), (b, -b), (b, b), (-b, b)]
    for P in planes:
        nx, ny = (Fraction(c) for c in P.normal)
        ax, ay = Fraction(P.anchor.real), Fraction(P.anchor.imag)
        out = []
        for p, q in zip(poly[-1:] + poly[:-1], poly):
            sp, sq = nx * (p[0] - ax) + ny * (p[1] - ay), nx * (q[0] - ax) + ny * (q[1] - ay)
            if (sp < 0) != (sq < 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            if sq >= 0:
                out.append(q)
        poly = out
        if not poly:
            return []
    return poly


def exact_intersection(planes: list[ClosedHalfPlane], bound: float) -> ConvexPolygon:
    """:func:`exact_clip`, its vertices rounded to floats at the end."""
    poly = exact_clip(planes, bound)
    if not poly:
        return ConvexPolygon(())
    return convex_hull([complex(float(x), float(y)) for x, y in poly])
