"""Planar primitives with open/closed boundary semantics.

Points are complex numbers. A directed line is encoded by an (unnormalized)
direction vector; every line has a *canonical* direction so that the two rays
it carries are addressable independently of which open side a half plane
includes. Sign tests treat an exact zero as "on the line" and anything else
within ``eps_geom`` as unresolvable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative snap for direction components: trig of the canonical angles
# (pi/2, pi, ...) leaves ~1e-16 dirt that would otherwise poison exact
# on-line tests for axis-aligned constructions.
_DIR_SNAP = 4e-16


class Verdict(Enum):
    IN = "in"
    OUT = "out"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class _Tolerances:
    eps_geom: float
    eps_eig: float
    eps_unitary: float


# The fixed tolerances of every sign test, eigenvalue clustering and
# dilation residual check in the library.
DEFAULT_TOL = _Tolerances(eps_geom=1e-9, eps_eig=1e-8, eps_unitary=1e-10)


def require_finite(z: complex, what: str = "point") -> complex:
    """z as a complex number; ValueError unless it is a number (a string,
    bytes or a bool is not, although complex() accepts some of them, and
    neither is anything complex() refuses, such as None or a list) with
    finite coordinates."""
    try:
        if isinstance(z, (str, bytes, bool, np.bool_)):
            raise TypeError("not a number")
        z = complex(z)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} must have finite coordinates, got {z!r}, which is not a number") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must have finite coordinates, got {z!r}")
    return z


def require_finite_real(x, what: str) -> float:
    """x as a float; ValueError unless it is a finite real number (a string,
    bytes, a bool or a NumPy complex is not, although float() takes them)."""
    try:
        if isinstance(x, (str, bytes, bool, np.bool_, np.complexfloating)):
            raise TypeError("not a number")
        x = float(x)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} must be finite, got {x!r}, which is not a real number") from exc
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def snap_dirs(vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The direction vectors (vx, vy) with every component that is pure
    rounding noise, below _DIR_SNAP times the other, zeroed."""
    # at most one component of a vector is snapped, so both tests can use
    # the unsnapped magnitudes
    ax, ay = np.abs(vx), np.abs(vy)
    return (
        np.where((ax < _DIR_SNAP * ay) & (vx != 0.0), 0.0, vx),
        np.where((ay < _DIR_SNAP * ax) & (vy != 0.0), 0.0, vy),
    )


def canonical_dirs(vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical directions of the lines spanned by the nonzero vectors
    (vx, vy).

    The representative has vx > 0, or vx == 0 and vy < 0; for a horizontal
    line it is +x, for a vertical line it is -y.  Both rays from an anchor
    are then ray_sign * d with d independent of which side a half plane opens
    toward.  Components are taken as given: callers snap trig-built vectors
    (see :func:`snap_dirs`), while exact difference vectors must not be
    perturbed.
    """
    sign = np.where((vx < 0.0) | ((vx == 0.0) & (vy > 0.0)), -1.0, 1.0)
    return sign * vx, sign * vy


def _grid(m: int) -> np.ndarray:
    """The m evenly spaced directions 2 pi j / m, j = 0, ..., m - 1."""
    return 2 * math.pi * np.arange(m) / m


def _set_normal(plane) -> None:
    """Store a plane's normal_angle reduced to [0, 2 pi) and, unless one is
    supplied, its unit normal.  ValueError unless the angle is a finite
    real number and a supplied normal is finite, nonzero and points along
    the angle."""
    angle = require_finite_real(plane.normal_angle, "normal_angle") % TWO_PI
    object.__setattr__(plane, "normal_angle", angle)
    if plane.normal is None:
        nx, ny = snap_dirs(np.cos(angle), np.sin(angle))
        object.__setattr__(plane, "normal", (float(nx), float(ny)))
        return
    nx, ny = plane.normal
    if not (math.isfinite(nx) and math.isfinite(ny) and (nx or ny)):
        raise ValueError(f"normal must be finite and nonzero, got {plane.normal!r}")
    # compared in [0, 2 pi): one reduction of a tiny negative angle rounds to 2 pi
    if math.atan2(ny, nx) % TWO_PI % TWO_PI != angle % TWO_PI:
        raise ValueError(f"normal {plane.normal!r} does not point along normal_angle {angle!r}")


@dataclass(frozen=True)
class HalfClosedHalfPlane:
    """An open half plane together with one closed boundary ray.

    ``normal_angle`` points into the included open side; ``ray_sign`` selects
    which of the two boundary rays (relative to the line's canonical
    direction) is included.  The anchor is the ray's initial point and is
    always a member.
    """

    anchor: complex
    normal_angle: float
    ray_sign: int
    normal: tuple[float, float] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "anchor", require_finite(self.anchor, "anchor"))
        if isinstance(self.ray_sign, (bool, np.bool_)) or self.ray_sign not in (-1, 1):
            raise ValueError(f"ray_sign must be +1 or -1, got {self.ray_sign!r}")
        _set_normal(self)


@dataclass(frozen=True)
class ClosedHalfPlane:
    """The closed side {<z - anchor, n> >= 0} of a line."""

    anchor: complex
    normal_angle: float
    normal: tuple[float, float] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "anchor", require_finite(self.anchor, "anchor"))
        _set_normal(self)


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon as a CCW vertex tuple; may be empty, a point or a segment."""

    vertices: tuple[complex, ...] = ()

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def area(self) -> float:
        vs = self.vertices
        if len(vs) < 3:
            return 0.0
        a = 0.0
        for i in range(len(vs)):
            p, q = vs[i], vs[(i + 1) % len(vs)]
            a += p.real * q.imag - q.real * p.imag
        return 0.5 * a

    def edges(self) -> list[tuple[complex, complex]]:
        vs = self.vertices
        if len(vs) < 2:
            return []
        if len(vs) == 2:
            return [(vs[0], vs[1])]
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def convex_hull(points: list[complex]) -> ConvexPolygon:
    """Smallest closed convex polygon containing the points (monotone chain).

    Collinear and duplicate inputs collapse: the result is strictly convex,
    possibly degenerate (single point or segment).
    """
    if not points:
        raise ValueError("convex_hull of an empty point set")
    pts = sorted({(require_finite(p).real, p.imag) for p in points})
    if len(pts) == 1:
        return ConvexPolygon((complex(*pts[0]),))
    # the turn tests multiply coordinate differences, which overflow beyond
    # about 1e154, so they run on the points scaled by the power of two that
    # puts the largest coordinate in [0.5, 1): exact, so every sign is kept
    e = math.frexp(max(max(abs(x), abs(y)) for x, y in pts))[1]
    xy = [complex(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in pts]

    def half(order):
        out = []
        for i in order:
            while len(out) >= 2 and _cross(xy[out[-1]] - xy[out[-2]], xy[i] - xy[out[-2]]) <= 0.0:
                out.pop()
            out.append(i)
        return out

    lower = half(range(len(pts)))
    upper = half(reversed(range(len(pts))))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        # all collinear: keep the two extremes
        verts = [0, len(pts) - 1]
    return ConvexPolygon(tuple(complex(*pts[i]) for i in verts))


def support_lines(xis, levels) -> list[tuple[float, float, float]]:
    """The unit-normal lines n.z >= c of the closed half planes
    Re(e^{i xi} z) <= h of the support samples (xi, h), for
    :func:`halfplane_intersection`: the plane through the anchor
    h * e^{-i xi}, with the snapped normal -e^{-i xi}.  ValueError for a
    non-finite anchor."""
    xis = np.asarray(xis, dtype=np.float64)
    cs, sn = snap_dirs(np.cos(xis), -np.sin(xis))
    lines = []
    for ux, uy, h in zip(cs.tolist(), sn.tolist(), levels):
        # a NumPy level gives the same products, only slower
        h = float(h)
        ax, ay = h * ux, h * uy
        if not (math.isfinite(ax) and math.isfinite(ay)):
            raise ValueError(f"anchor must have finite coordinates, got {complex(ax, ay)!r}")
        nx, ny = -ux, -uy
        scale = math.hypot(nx, ny)
        lines.append((nx / scale, ny / scale, (nx * ax + ny * ay) / scale))
    return lines


def halfplane_intersection(lines: list[tuple[float, float, float]], bound: float) -> ConvexPolygon:
    """Intersect the square box of radius ``bound`` with every closed half
    plane n.z >= c, given as a line (nx, ny, c) with a unit normal n.

    The box sides join the lines, sorted by normal angle; of nearly
    parallel lines, whose normals differ by less than eps_geom / (5 *
    bound), only the tightest is kept.  One deque pass (the sort-and-deque
    half-plane intersection, de Berg, Cheong, van Kreveld & Overmars,
    *Computational Geometry*, 3rd ed., ch. 4 and section 8.2) drops a line
    only when a vertex it makes with one neighbour lies outside the other
    by more than ``eps_geom``, so lines through a vertex stay and
    zero-width strips survive.  Consecutive vertices within 1e-12 * bound
    are one vertex, solved from the best-conditioned pair (largest |det|)
    of the lines that meet there, which keeps corners of axis-aligned
    lines exact.  Every vertex lies within ``eps_geom`` of every half plane.

    Degenerate intersections survive as segments or points; an empty
    intersection gives the empty polygon.  ValueError unless ``bound`` is
    positive and finite, every line entry is finite and every normal has
    length 1 within 4 ulps, which a normal divided by its ``math.hypot``
    meets.
    """
    if not 0 < bound < math.inf:
        raise ValueError("bound must be positive")
    if not all(map(math.isfinite, chain.from_iterable(lines))):
        raise ValueError("line entries must be finite")
    if any(abs(math.hypot(nx, ny) - 1.0) > 4 * math.ulp(1.0) for nx, ny, _ in lines):
        raise ValueError("line normals must be unit vectors")
    lines = [(1.0, 0.0, -bound), (0.0, 1.0, -bound), (-1.0, 0.0, -bound), (0.0, -1.0, -bound)] + lines
    # + 0.0 maps -0.0 to 0.0, so -pi never occurs
    lines.sort(key=lambda line: math.atan2(line[1] + 0.0, line[0]))
    eps = DEFAULT_TOL.eps_geom
    # Lines whose unit normals differ by less than ``parallel`` from the
    # first line of their run are one line, the tightest: members of a run
    # (the last run joining the first across the angle cut) differ by less
    # than 3 * parallel, so inside the box, |z| <= sqrt(2) * bound, the
    # tightest violates a dropped line by less than eps.
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

    def redundant(prev, mid, nxt, back):
        # mid adds no edge between prev and nxt when its vertex with one of
        # them lies outside the other by more than eps.  The classic test
        # takes the vertex with mid's neighbour in the deque (prev when
        # popping from the back, nxt from the front).  The offset of the
        # other vertex, with the line being added, is the classic one times
        # det(deque pair) / det(new pair): much larger when mid and the new
        # line are nearly parallel.  It is tested only while prev turns to
        # nxt, and mid to the new line, by less than a half turn.  The
        # vertex is :func:`_meet` of the deque pair, inlined on purpose:
        # this test runs for every line pushed and popped, and a call to
        # _meet (one more frame, a complex built and taken apart) made the
        # whole intersection 10-30% slower, with the same vertices, on the
        # 57 line sets of the benchmark's region_wu and dilation_lab
        # operations at seed 1 (2-core Xeon, CPython 3.11).
        if back:
            (a0, a1, a2), (b0, b1, b2), (o0, o1, o2) = prev, mid, nxt
            p, q = mid, nxt
        else:
            (a0, a1, a2), (b0, b1, b2), (o0, o1, o2) = mid, nxt, prev
            p, q = prev, mid
        det = a0 * b1 - a1 * b0
        if abs(det) < 1e-3:
            t = (b2 - a2 * (a0 * b0 + a1 * b1)) / det
            x, y = a2 * a0 - t * a1, a2 * a1 + t * a0
        else:
            x, y = (a2 * b1 - b2 * a1) / det, (a0 * b2 - b0 * a2) / det
        s = o0 * x + o1 * y - o2
        if s < -eps:
            return True
        if not s < 0.0:
            return False
        d = p[0] * q[1] - p[1] * q[0]
        return d > 0.0 and prev[0] * nxt[1] - prev[1] * nxt[0] > 0.0 and s * det < -eps * d

    dq: deque[tuple[float, float, float]] = deque()
    for line in tightest:
        while len(dq) >= 2 and redundant(dq[-2], dq[-1], line, True):
            dq.pop()
        while len(dq) >= 2 and redundant(line, dq[0], dq[1], False):
            dq.popleft()
        if dq and dq[-1][0] * line[1] - dq[-1][1] * line[0] <= 0.0:
            # the lines between two normals half a turn or more apart were
            # cut away, so nothing satisfies both sides
            return ConvexPolygon(())
        dq.append(line)
    while len(dq) >= 3 and redundant(dq[-2], dq[-1], dq[0], True):
        dq.pop()
    while len(dq) >= 3 and redundant(dq[-1], dq[0], dq[1], False):
        dq.popleft()
    if len(dq) < 3 or dq[-1][0] * dq[0][1] - dq[-1][1] * dq[0][0] <= 0.0:
        return ConvexPolygon(())
    m = len(dq)
    pts = [_meet(dq[i - 1], dq[i]) for i in range(m)]
    merge = 1e-12 * bound
    starts = [i for i in range(m) if abs(pts[i] - pts[i - 1]) > merge] or [0]
    verts = []
    for s, e in zip(starts, starts[1:] + [starts[0] + m]):
        if e - s == 1:
            verts.append(pts[s])
            continue
        # vertices s .. e-1 coincide: lines s-1 .. e-1 meet there, at the
        # first pair of largest |det|
        run = [dq[j % m] for j in range(s - 1, e)]
        best = None
        for i, a in enumerate(run):
            for b in run[i + 1 :]:
                d = abs(a[0] * b[1] - a[1] * b[0])
                if best is None or d > best[0]:
                    best = d, a, b
        verts.append(_meet(best[1], best[2]))
    return convex_hull(verts)


def _meet(a: tuple[float, float, float], b: tuple[float, float, float]) -> complex:
    """The point on both lines n.z = c.

    For nearly parallel lines (|det| < 1e-3) the point is reached along a
    from its foot c * n: rounding then moves it along the lines, not off
    them, where the 2 x 2 solve would leave it off both by about ulp / |det|.
    """
    det = a[0] * b[1] - a[1] * b[0]
    if abs(det) < 1e-3:
        t = (b[2] - a[2] * (a[0] * b[0] + a[1] * b[1])) / det
        return complex(a[2] * a[0] - t * a[1], a[2] * a[1] + t * a[0])
    return complex((a[2] * b[1] - b[2] * a[1]) / det, (a[0] * b[2] - b[0] * a[2]) / det)
