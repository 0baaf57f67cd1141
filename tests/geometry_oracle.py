"""Planar test oracles: point-in-plane and point-in-polygon tests, the
polygon distance, and the plane objects of support samples.

These are the implementations ``hrnr.geometry`` had before its public
surface shrank to what the library itself calls: ``hchp_member`` with
``HalfClosedHalfPlane.line_dir``, ``ConvexPolygon.signed_distance`` and
``classify`` (here functions of the polygon), ``hausdorff_distance`` and
``support_plane``.  ``plane_lines`` is the conversion the plane-taking
``halfplane_intersection`` applied before its deque pass, so plane sets
reach the line-taking one as before.
"""

from __future__ import annotations

import math

from hrnr.geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    ConvexPolygon,
    HalfClosedHalfPlane,
    Verdict,
    _cross,
    canonical_dir,
    require_finite,
    snap_dir,
)


def support_plane(xi: float, h: float) -> ClosedHalfPlane:
    """The closed half plane Re(e^{i xi} z) <= h of a support sample (xi, h)."""
    ux, uy = snap_dir(math.cos(xi), -math.sin(xi))
    return ClosedHalfPlane(complex(h * ux, h * uy), math.atan2(-uy, -ux), normal=(-ux, -uy))


def plane_lines(planes: list[ClosedHalfPlane]) -> list[tuple[float, float, float]]:
    """The unit-normal lines n.z >= c of closed half planes."""
    lines = []
    for P in planes:
        nx, ny = P.normal
        scale = math.hypot(nx, ny)
        lines.append((nx / scale, ny / scale, (nx * P.anchor.real + ny * P.anchor.imag) / scale))
    return lines


def line_dir(H: HalfClosedHalfPlane) -> tuple[float, float]:
    nx, ny = H.normal
    return canonical_dir(-ny, nx)


def hchp_member(H: HalfClosedHalfPlane, z: complex) -> Verdict:
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
        ux, uy = line_dir(H)
        t = H.ray_sign * (ux * dx + uy * dy)
        return Verdict.IN if t >= 0.0 else Verdict.OUT
    if abs(s) <= DEFAULT_TOL.eps_geom * scale:
        return Verdict.UNCERTAIN
    return Verdict.IN if s > 0.0 else Verdict.OUT


def signed_distance(poly: ConvexPolygon, z: complex) -> float:
    """Negative inside, positive outside, 0 exactly on the boundary."""
    vs = poly.vertices
    if not vs:
        return math.inf
    if len(vs) == 1:
        return abs(z - vs[0])
    d = min(_point_segment_distance(z, a, b) for a, b in poly.edges())
    if len(vs) == 2:
        return d
    inside = all(
        _cross(b - a, z - a) >= 0.0 for a, b in poly.edges()
    )
    return -d if inside else d


def classify(poly: ConvexPolygon, z: complex) -> Verdict:
    """IN strictly inside, OUT strictly outside, boundary handled exactly.

    A point exactly on the (closed) boundary is IN; within eps_geom of it
    but not exactly on it is UNCERTAIN.
    """
    sd = signed_distance(poly, z)
    if sd < -DEFAULT_TOL.eps_geom:
        return Verdict.IN
    if sd > DEFAULT_TOL.eps_geom:
        return Verdict.OUT
    if _on_boundary_exact(poly, z):
        return Verdict.IN
    return Verdict.UNCERTAIN


def _on_boundary_exact(poly: ConvexPolygon, z: complex) -> bool:
    vs = poly.vertices
    if any(z == v for v in vs):
        return True
    for a, b in poly.edges():
        if _cross(b - a, z - a) == 0.0:
            t = _dot(b - a, z - a)
            if 0.0 <= t <= _dot(b - a, b - a):
                return True
    return False


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


def hausdorff_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Hausdorff distance between convex polygons (exact via vertices)."""
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        return math.inf
    da = max(max(0.0, signed_distance(b, v)) for v in a.vertices)
    db = max(max(0.0, signed_distance(a, v)) for v in b.vertices)
    return max(da, db)
