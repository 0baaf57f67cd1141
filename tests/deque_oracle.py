"""The plane-object half-plane intersection, kept as the test oracle.

This is the implementation ``hrnr.geometry.halfplane_intersection`` had
before support samples went to the deque pass as lines without plane
objects, and before its deque test and vertex merge were inlined: convert
every plane to a unit-normal line, sort by normal angle, keep the tightest
of nearly parallel lines, run one deque pass and merge coincident vertices
through ``max(combinations(...))``.  The differential tests compare the
two for equal vertices.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations

from hrnr.geometry import DEFAULT_TOL, ClosedHalfPlane, ConvexPolygon, convex_hull


def halfplane_intersection(planes: list[ClosedHalfPlane], bound: float) -> ConvexPolygon:
    """Intersect the square box of radius ``bound`` with every closed half plane."""
    if not bound > 0:
        raise ValueError("bound must be positive")
    lines = [(1.0, 0.0, -bound), (0.0, 1.0, -bound), (-1.0, 0.0, -bound), (0.0, -1.0, -bound)]
    for P in planes:
        nx, ny = P.normal
        scale = math.hypot(nx, ny)
        lines.append((nx / scale, ny / scale, (nx * P.anchor.real + ny * P.anchor.imag) / scale))
    # + 0.0 maps -0.0 to 0.0, so -pi never occurs
    lines.sort(key=lambda line: math.atan2(line[1] + 0.0, line[0]))
    eps = DEFAULT_TOL.eps_geom
    parallel = eps / (5.0 * bound)
    tightest = [lines[0]]
    first = start = lines[0]
    for line in lines[1:]:
        if math.hypot(line[0] - start[0], line[1] - start[1]) >= parallel:
            start = line
            tightest.append(line)
        elif line[2] > tightest[-1][2]:
            tightest[-1] = line
    if len(tightest) > 1 and math.hypot(first[0] - start[0], first[1] - start[1]) < parallel:
        last = tightest.pop()
        if last[2] > tightest[0][2]:
            tightest[0] = last

    def offset(line, p):
        return line[0] * p.real + line[1] * p.imag - line[2]

    def redundant(prev, mid, nxt, back):
        kept, new = ((prev, mid), (mid, nxt)) if back else ((mid, nxt), (prev, mid))
        s = offset(nxt if back else prev, _meet(*kept))
        if s < -eps:
            return True
        d = _det(*new)
        return s < 0.0 and d > 0.0 and _det(prev, nxt) > 0.0 and s * _det(*kept) < -eps * d

    dq: deque[tuple[float, float, float]] = deque()
    for line in tightest:
        while len(dq) >= 2 and redundant(dq[-2], dq[-1], line, True):
            dq.pop()
        while len(dq) >= 2 and redundant(line, dq[0], dq[1], False):
            dq.popleft()
        if dq and _det(dq[-1], line) <= 0.0:
            return ConvexPolygon(())
        dq.append(line)
    while len(dq) >= 3 and redundant(dq[-2], dq[-1], dq[0], True):
        dq.pop()
    while len(dq) >= 3 and redundant(dq[-1], dq[0], dq[1], False):
        dq.popleft()
    if len(dq) < 3 or _det(dq[-1], dq[0]) <= 0.0:
        return ConvexPolygon(())
    m = len(dq)
    pts = [_meet(dq[i - 1], dq[i]) for i in range(m)]
    merge = 1e-12 * bound
    starts = [i for i in range(m) if abs(pts[i] - pts[i - 1]) > merge] or [0]
    verts = []
    for s, e in zip(starts, starts[1:] + [starts[0] + m]):
        run = [dq[j % m] for j in range(s - 1, e)]
        verts.append(_meet(*max(combinations(run, 2), key=lambda pair: abs(_det(*pair)))))
    return convex_hull(verts)


def _det(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _meet(a: tuple[float, float, float], b: tuple[float, float, float]) -> complex:
    """The point on both lines n.z = c."""
    det = _det(a, b)
    if abs(det) < 1e-3:
        t = (b[2] - a[2] * (a[0] * b[0] + a[1] * b[1])) / det
        return complex(a[2] * a[0] - t * a[1], a[2] * a[1] + t * a[0])
    return complex((a[2] * b[1] - b[2] * a[1]) / det, (a[0] * b[2] - b[0] * a[2]) / det)
