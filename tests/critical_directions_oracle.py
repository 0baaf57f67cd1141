"""The per-direction critical-direction builder, the per-anchor decision
and the two-sweep Wu loop, kept as test oracles.

``critical_directions`` (with ``breakpoints``) and ``_add_tangents`` are
the implementations ``hrnr.core`` had before the directions were built from
a per-model template with array operations, less the merge of lines whose
angles agree to 12 decimals, which ``hrnr.core`` no longer makes; they take
tangents and midpoints from angles (``math.atan2``, ``asin``, ``cos`` and
``sin``) and give no midpoint to a cell narrower than 1e-12 rad, where
``hrnr.core`` builds them from vectors;
``merge_rounded_angles`` puts that merge back on ``hrnr.core``'s directions,
to show that it changes no output; ``sweep_decision`` is the one-anchor
decision ``hrnr.core`` had before it decided a batch of anchors at once;
``member``, ``is_boundary`` and ``_closed_witness_sweep`` decide one anchor
on those directions through one ``direction_sweep`` call, and build the
witness planes as ``hrnr.core`` and ``hrnr.dilation`` did before one
flavor-to-plane mapping served every decision (``_witness_from`` and the
closed-plane construction in ``_closed_witness_sweep``); ``wu_check`` is
the loop that decided each boundary sample with a ``member`` sweep followed
by a second, closed half-plane sweep at the same anchor.  The differential
tests compare the library against them.
"""

from __future__ import annotations

import math

import numpy as np

from hrnr.core import _HCHP, BoundaryKind, MembershipVerdict, _check_rank
from hrnr.dilation import WuEvidence, WuReport, WuVerdict
from hrnr.errors import NotStrictContraction, UncertainGeometry
from hrnr.geometry import (
    DEFAULT_TOL,
    ClosedHalfPlane,
    HalfClosedHalfPlane,
    Verdict,
    canonical_dir,
    snap_dir,
    trig_dir,
)
from hrnr.spectral import CA, CB, HAM, HAP, HBP, INF, OA, OB, Arc, Segment, direction_sweep

_TANGENT_SLACK = 1e-7


def critical_directions(model, anchor, extra_angles=()):
    """Canonical direction vectors of every breakpoint line through anchor,
    then of the extra angles (``conftest.dense_member`` adds an evenly
    spaced grid), plus the midpoints between consecutive directions."""
    vecs = breakpoints(model, anchor, extra_angles)
    angles = sorted({math.atan2(vy, vx) % math.pi for vx, vy in vecs})
    for i in range(len(angles)):
        a0 = angles[i]
        a1 = angles[(i + 1) % len(angles)] if i + 1 < len(angles) else angles[0] + math.pi
        if a1 - a0 > 1e-12:
            vecs.append(trig_dir(0.5 * (a0 + a1)))

    if not vecs:
        # no breakpoint: the dimension does not depend on the direction
        vecs.append(trig_dir(0.0))
    arr = np.asarray(vecs, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


def breakpoints(model, anchor, extra_angles=()):
    """The breakpoint directions of :func:`critical_directions`, in its
    order, as a list of (vx, vy)."""
    vecs: list[tuple[float, float]] = []

    def add_point(p: complex):
        vx, vy = p.real - anchor.real, p.imag - anchor.imag
        if vx != 0.0 or vy != 0.0:
            vecs.append(canonical_dir(vx, vy))

    def add_angle(phi: float):
        vecs.append(trig_dir(phi))

    for a in model.atoms:
        add_point(a.location)
    for piece in model.pieces:
        if isinstance(piece, Segment):
            add_point(piece.a)
            add_point(piece.b)
        elif isinstance(piece, Arc):
            for t in (piece.theta0, piece.theta1):
                add_point(piece.center + piece.radius * complex(*snap_dir(math.cos(t), math.sin(t))))
            _add_tangents(vecs, anchor, piece.center, piece.radius)
        else:
            for v in piece.polygon.vertices:
                add_point(v)
    for fam in model.families:
        add_point(fam.limit)
        for p, _ in fam.prefix:
            add_point(p)
        add_angle(fam.approach_angle)
        if fam.prefix:
            # the tail counts as zero only on lines clearing the limit by
            # twice the last prefix distance (see spectral._add_tail_masks)
            _add_tangents(vecs, anchor, fam.limit, 2 * fam.min_prefix_distance)
    for phi in extra_angles:
        add_angle(phi)
    return vecs


def merge_rounded_angles(vx, vy, row):
    """The merge ``hrnr.core.critical_directions`` made before it kept every
    direction, applied to its output: per anchor ``row``, only the first
    direction of each line angle mod pi rounded to 12 decimals."""
    keep, seen = [], set()
    for x, y, r in zip(vx.tolist(), vy.tolist(), row.tolist()):
        key = (r, round(math.atan2(y, x) % math.pi, 12))
        keep.append(key not in seen)
        seen.add(key)
    keep = np.array(keep, dtype=bool)
    return vx[keep], vy[keep], row[keep]


def _add_tangents(vecs, anchor: complex, center: complex, radius: float):
    """Directions of the lines through anchor tangent to the circle."""
    rel = center - anchor
    d = abs(rel)
    if d == 0.0:
        return
    if abs(d - radius) <= _TANGENT_SLACK * max(1.0, radius):
        vecs.append(canonical_dir(-rel.imag, rel.real))
    if d > radius:
        beta = math.atan2(rel.imag, rel.real)
        delta = math.asin(min(1.0, radius / d))
        for phi in (beta + delta, beta - delta):
            vecs.append(trig_dir(phi))


def sweep_decision(sweep, flavors, k):
    """The decision over the planes of the given flavors in a one-anchor
    sweep: (OUT, flavor, index) of the first plane whose dimension is
    certainly below k, ordered by (unsure, hi, flavor, index); IN when every
    plane is certainly at least k; UNCERTAIN otherwise."""
    lo, hi, fz = sweep.lo[flavors], sweep.hi[flavors], sweep.fuzzy[flavors]
    below = np.isfinite(hi) if k == INF else (~fz) & (hi < k)
    if below.any():
        r, i = np.nonzero(below)
        unsure = fz[r, i] | (lo[r, i] != hi[r, i])
        j = np.lexsort((i, r, hi[r, i], unsure))[0]
        return Verdict.OUT, flavors[r[j]], int(i[j])
    if bool((lo >= k).all()):
        return Verdict.IN, None, None
    return Verdict.UNCERTAIN, None, None


def _witness_from(sweep, flavor: int, i: int, anchor: complex) -> HalfClosedHalfPlane:
    vx, vy = float(sweep.vx[i]), float(sweep.vy[i])
    if flavor in (HAP, HAM):
        nx, ny = -vy, vx
    else:
        nx, ny = vy, -vx
    ray = 1 if flavor in (HAP, HBP) else -1
    return HalfClosedHalfPlane(
        anchor, math.atan2(ny, nx) % (2 * math.pi), ray, normal=(nx, ny)
    )


def member(model, k, lam, tol=DEFAULT_TOL):
    kf = _check_rank(model, k)
    lam = complex(lam)
    vx, vy = critical_directions(model, lam)
    sweep = direction_sweep(model, lam, vx, vy)
    value, f, i = sweep_decision(sweep, _HCHP, kf)
    if value is Verdict.OUT:
        return MembershipVerdict(value, _witness_from(sweep, f, i, lam), float(sweep.hi[f, i]))
    return MembershipVerdict(value)


def is_boundary(model, k, lam):
    """The half closed-half plane decision at lam, then, for a member, the
    open half-plane decision of the same sweep."""
    kf = _check_rank(model, k)
    lam = complex(lam)
    vx, vy = critical_directions(model, lam)
    sweep = direction_sweep(model, lam, vx, vy)
    value, _, _ = sweep_decision(sweep, _HCHP, kf)
    if value is Verdict.OUT:
        return BoundaryKind.NOT_MEMBER
    if value is Verdict.UNCERTAIN:
        raise UncertainGeometry("membership itself is uncertain at this point")
    value, _, _ = sweep_decision(sweep, [OA, OB], kf)
    if value is Verdict.OUT:
        return BoundaryKind.BOUNDARY_IN
    if value is Verdict.IN:
        return BoundaryKind.INTERIOR
    raise UncertainGeometry("open-side dimensions are unresolved at this point")


def _closed_witness_sweep(model, lam, k, tol):
    vx, vy = critical_directions(model, lam)
    sweep = direction_sweep(model, lam, vx, vy)
    value, flavor, i = sweep_decision(sweep, [CA, CB], k)
    if value is Verdict.OUT:
        vx, vy = float(sweep.vx[i]), float(sweep.vy[i])
        nx, ny = (-vy, vx) if flavor == CA else (vy, -vx)
        plane = ClosedHalfPlane(lam, math.atan2(ny, nx) % (2 * math.pi), normal=(nx, ny))
        return plane, float(sweep.hi[flavor, i])
    if value is Verdict.IN:
        return "none", None
    return "unresolved", None


def _edge_samples(poly, per_edge):
    """The polygon's vertices, then per_edge evenly spaced interior points
    of each edge: the sampler ``hrnr.dilation`` had when the Wu check took
    the count as an argument."""
    out = list(poly.vertices)
    for a, b in poly.edges():
        for i in range(per_edge):
            t = (i + 1) / (per_edge + 1)
            out.append(a + t * (b - a))
    return out


def wu_check(model, k, region_est, tol=DEFAULT_TOL, samples_per_edge=9):
    if model.max_abs() >= 1.0 + tol.eps_geom:
        raise NotStrictContraction("spectral mass leaves the closed unit disk")
    px, py, _ = model._point_data
    samples = _edge_samples(region_est.polygon, samples_per_edge)
    zs = np.array(samples, dtype=complex)
    near = np.hypot(zs.real[:, None] - px, zs.imag[:, None] - py) <= 10 * tol.eps_geom
    evidence = []
    saw_failure = False
    saw_unresolved = False
    for z, skip in zip(samples, near.any(axis=1)):
        if skip:
            continue
        try:
            mv = member(model, k, z, tol)
        except UncertainGeometry:
            continue
        if mv.value is not Verdict.OUT:
            continue
        plane, dim = _closed_witness_sweep(model, z, k, tol)
        if isinstance(plane, ClosedHalfPlane):
            evidence.append(WuEvidence(z, plane, dim))
        elif plane == "none":
            saw_failure = True
            evidence.append(
                WuEvidence(z, None, None, "every critical closed half plane has dim >= k")
            )
        else:
            saw_unresolved = True
            evidence.append(WuEvidence(z, None, None, "unresolved dimensions"))
    if saw_failure:
        verdict = WuVerdict.STRICT_CONTAINMENT_PREDICTED
    elif saw_unresolved:
        verdict = WuVerdict.INCONCLUSIVE
    else:
        verdict = WuVerdict.EQUALITY_PREDICTED
    return WuReport(verdict, tuple(evidence))
