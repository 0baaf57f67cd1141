"""Planar primitives with open/closed boundary semantics.

Points are complex numbers. A directed line is encoded by an (unnormalized)
direction vector; every line has a *canonical* direction so that the two rays
it carries are addressable independently of which open side a half plane
includes. Sign tests treat an exact zero as "on the line" and anything else
within ``eps_geom`` as unresolvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import UncertainGeometry

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
class TolerancePolicy:
    eps_geom: float = 1e-9
    eps_eig: float = 1e-8
    eps_unitary: float = 1e-10

    def __post_init__(self):
        if not (self.eps_geom > 0 and self.eps_eig > 0 and self.eps_unitary > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = TolerancePolicy()


def require_finite(z: complex, what: str = "point") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must have finite coordinates, got {z!r}")
    return z


def snap_dir(vx: float, vy: float) -> tuple[float, float]:
    """Zero out a direction component that is pure rounding noise."""
    if vx != 0.0 and abs(vx) < _DIR_SNAP * abs(vy):
        vx = 0.0
    if vy != 0.0 and abs(vy) < _DIR_SNAP * abs(vx):
        vy = 0.0
    return vx, vy


def canonical_dir(vx: float, vy: float) -> tuple[float, float]:
    """Canonical direction of the line spanned by (vx, vy).

    The representative has vx > 0, or vx == 0 and vy < 0; for a horizontal
    line it is +x, for a vertical line it is -y.  Both rays from an anchor
    are then ray_sign * d with d independent of which side a half plane opens
    toward.  Components are taken as given: callers snap trig-built vectors
    (see :func:`snap_dir`), while exact difference vectors must not be
    perturbed.
    """
    if vx == 0.0 and vy == 0.0:
        raise ValueError("zero direction vector")
    if vx < 0.0 or (vx == 0.0 and vy > 0.0):
        return -vx, -vy
    return vx, vy


def trig_dir(angle: float) -> tuple[float, float]:
    """Canonical direction vector of a line at the given angle."""
    return canonical_dir(*snap_dir(math.cos(angle), math.sin(angle)))


def _unit_normal(angle: float) -> tuple[float, float]:
    nx, ny = snap_dir(math.cos(angle), math.sin(angle))
    return nx, ny


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
        require_finite(self.anchor, "anchor")
        if self.ray_sign not in (-1, 1):
            raise ValueError("ray_sign must be +1 or -1")
        object.__setattr__(self, "normal_angle", self.normal_angle % TWO_PI)
        if self.normal is None:
            object.__setattr__(self, "normal", _unit_normal(self.normal_angle))

    def line_dir(self) -> tuple[float, float]:
        nx, ny = self.normal
        return canonical_dir(-ny, nx)


@dataclass(frozen=True)
class ClosedHalfPlane:
    """The closed side {<z - anchor, n> >= 0} of a line."""

    anchor: complex
    normal_angle: float
    normal: tuple[float, float] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        require_finite(self.anchor, "anchor")
        object.__setattr__(self, "normal_angle", self.normal_angle % TWO_PI)
        if self.normal is None:
            object.__setattr__(self, "normal", _unit_normal(self.normal_angle))


def hchp_at(anchor: complex, normal_angle: float, ray_sign: int) -> HalfClosedHalfPlane:
    """The half closed-half plane at ``anchor`` with the given open side and ray."""
    return HalfClosedHalfPlane(complex(anchor), float(normal_angle), int(ray_sign))


def hchp_member(
    H: HalfClosedHalfPlane, z: complex, tol: TolerancePolicy = DEFAULT_TOL
) -> Verdict:
    """Membership of ``z`` with tolerance-aware open/closed semantics.

    Strictly inside the open side -> IN, strictly on the other side -> OUT.
    Exactly on the boundary line the included ray decides; offsets that are
    nonzero but within ``eps_geom`` are UNCERTAIN.
    """
    z = require_finite(z)
    dx = z.real - H.anchor.real
    dy = z.imag - H.anchor.imag
    nx, ny = H.normal
    scale = math.hypot(nx, ny)
    s = nx * dx + ny * dy
    if s == 0.0:
        ux, uy = H.line_dir()
        t = H.ray_sign * (ux * dx + uy * dy)
        return Verdict.IN if t >= 0.0 else Verdict.OUT
    if abs(s) <= tol.eps_geom * scale:
        return Verdict.UNCERTAIN
    return Verdict.IN if s > 0.0 else Verdict.OUT


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

    def signed_distance(self, z: complex) -> float:
        """Negative inside, positive outside, 0 exactly on the boundary."""
        vs = self.vertices
        if not vs:
            return math.inf
        if len(vs) == 1:
            return abs(z - vs[0])
        d = min(_point_segment_distance(z, a, b) for a, b in self.edges())
        if len(vs) == 2:
            return d
        inside = all(
            _cross(b - a, z - a) >= 0.0 for a, b in self.edges()
        )
        return -d if inside else d

    def classify(self, z: complex, tol: TolerancePolicy = DEFAULT_TOL) -> Verdict:
        """IN strictly inside, OUT strictly outside, boundary handled exactly.

        A point exactly on the (closed) boundary is IN; within eps_geom of it
        but not exactly on it is UNCERTAIN.
        """
        sd = self.signed_distance(z)
        if sd < -tol.eps_geom:
            return Verdict.IN
        if sd > tol.eps_geom:
            return Verdict.OUT
        if self._on_boundary_exact(z):
            return Verdict.IN
        return Verdict.UNCERTAIN

    def _on_boundary_exact(self, z: complex) -> bool:
        vs = self.vertices
        if any(z == v for v in vs):
            return True
        for a, b in self.edges():
            if _cross(b - a, z - a) == 0.0:
                t = _dot(b - a, z - a)
                if 0.0 <= t <= _dot(b - a, b - a):
                    return True
        return False


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def _dot(u: complex, v: complex) -> float:
    return u.real * v.real + u.imag * v.imag


def _point_segment_distance(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = _dot(ab, ab)
    if denom == 0.0:
        return abs(z - a)
    t = _dot(ab, z - a) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return abs(z - (a + t * ab))


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

    def half(seq):
        out = []
        for p in seq:
            while (
                len(out) >= 2
                and _cross(
                    complex(*out[-1]) - complex(*out[-2]),
                    complex(*p) - complex(*out[-2]),
                )
                <= 0.0
            ):
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        # all collinear: keep the two extremes
        verts = [pts[0], pts[-1]]
    return ConvexPolygon(tuple(complex(*v) for v in verts))


def halfplane_intersection(
    planes: list[ClosedHalfPlane], bound: float, tol: TolerancePolicy = DEFAULT_TOL
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


def hausdorff_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Hausdorff distance between convex polygons (exact via vertices)."""
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        return math.inf
    da = max(max(0.0, b.signed_distance(v)) for v in a.vertices)
    db = max(max(0.0, a.signed_distance(v)) for v in b.vertices)
    return max(da, db)
