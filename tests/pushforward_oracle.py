"""The 1-D pushforward and its k-th level scans, kept as the test oracle.

This is the implementation ``hrnr.spectral`` had before the support levels
of a model became one array computation over every direction
(:func:`hrnr.spectral.support_levels`): push the measure forward under
z -> Re(e^{i theta} z), one direction at a time, and scan the image for its
k-th level from the right (``lambda_k_sup``) or, through the mirrored image,
from the left (``lambda_k_inf``).  The differential tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hrnr.geometry import snap_dir
from hrnr.spectral import (
    INF,
    Arc,
    Piece,
    Segment,
    SpectralMeasureModel,
    _angle_in,
    _check_finite_rank,
)


@dataclass(frozen=True)
class RealFamily:
    prefix: tuple[tuple[float, float], ...]  # (position, mult)
    limit: float


@dataclass(frozen=True)
class RealSpectralModel:
    atoms: tuple[tuple[float, float], ...] = ()  # (position, mult), mult may be INF
    intervals: tuple[tuple[float, float], ...] = ()  # carry infinite mass
    families: tuple[RealFamily, ...] = ()
    support_radius: float = 1.0

    @property
    def total_dim(self) -> float:
        if self.intervals or self.families:
            return INF
        return sum(m for _, m in self.atoms)


def _proj(z: complex, c: float, s: float) -> float:
    # Re(e^{i theta} z) with c = cos(theta), s = sin(theta)
    return c * z.real - s * z.imag


def pushforward(model: SpectralMeasureModel, theta: float) -> RealSpectralModel:
    """Image of the measure under z -> Re(e^{i theta} z)."""
    c, s = snap_dir(math.cos(theta), math.sin(theta))
    atoms = [(_proj(a.location, c, s), a.mult) for a in model.atoms]
    intervals = []
    for p in model.pieces:
        intervals.append(_piece_interval(p, theta, c, s))
    families = [
        RealFamily(tuple((_proj(p, c, s), float(m)) for p, m in f.prefix), _proj(f.limit, c, s))
        for f in model.families
    ]
    return RealSpectralModel(
        tuple(atoms), tuple(intervals), tuple(families), model.support_radius
    )


def _piece_interval(piece: Piece, theta: float, c: float, s: float):
    if isinstance(piece, Segment):
        xa, xb = _proj(piece.a, c, s), _proj(piece.b, c, s)
        return (min(xa, xb), max(xa, xb))
    if isinstance(piece, Arc):
        # Re(e^{i theta}(center + r e^{i phi})) = proj(center) + r cos(theta + phi),
        # expanded through the snapped rotation so axis-aligned cases stay exact
        xc = _proj(piece.center, c, s)
        cands = [
            c * math.cos(phi) - s * math.sin(phi)
            for phi in (piece.theta0, piece.theta1)
        ]
        if _angle_in(-theta, piece.theta0, piece.theta1):
            cands.append(1.0)
        if _angle_in(math.pi - theta, piece.theta0, piece.theta1):
            cands.append(-1.0)
        return (xc + piece.radius * min(cands), xc + piece.radius * max(cands))
    xs = [_proj(v, c, s) for v in piece.polygon.vertices]
    return (min(xs), max(xs))


def lambda_k_sup(rm: RealSpectralModel, k: int) -> float:
    """sup{ b : dim ran E[b, inf) >= k } by a right-to-left multiplicity scan."""
    k = _check_finite_rank(k, rm.total_dim)
    best = -INF
    for hi_ in (iv[1] for iv in rm.intervals):
        best = max(best, hi_)
    finite: list[tuple[float, float]] = []
    for x, m in rm.atoms:
        if m == INF:
            best = max(best, x)
        else:
            finite.append((x, m))
    for f in rm.families:
        best = max(best, f.limit)
        finite.extend(f.prefix)
    finite.sort(key=lambda t: -t[0])
    acc = 0.0
    for x, m in finite:
        if x <= best:
            break
        acc += m
        if acc >= k:
            best = max(best, x)
            break
    return best


def lambda_k_inf(rm: RealSpectralModel, k: int) -> float:
    """inf{ a : dim ran E(-inf, a] >= k } (mirror of :func:`lambda_k_sup`)."""
    mirrored = RealSpectralModel(
        tuple((-x, m) for x, m in rm.atoms),
        tuple((-b, -a) for a, b in rm.intervals),
        tuple(RealFamily(tuple((-x, m) for x, m in f.prefix), -f.limit) for f in rm.families),
        rm.support_radius,
    )
    return -lambda_k_sup(mirrored, k)
