"""Exact ground truth for ``core.critical_directions``, from no float oracle.

On arc-free models whose points lie on a dyadic lattice, every difference
of two points is exact in floating point, so the breakpoint lines through
an anchor and the open cells between them are computed here exactly with
``fractions``.  Every such line must be swept, and every open cell between
two distinct consecutive lines must hold a swept direction strictly inside
it.  Off the lattice, a cell 1e-13 rad wide between two lines that are not
collinear must hold one too, and so must the cell nearly a half turn wide
beside two lines whose rounded unit vectors are an ulp apart; two exactly
collinear points must add no midpoint.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import hrnr
from hrnr.core import critical_directions

# approach angles whose snapped unit vectors are exact: the axis directions
AXES = {0.0: (1, 0), 0.5 * math.pi: (0, 1), math.pi: (-1, 0), 1.5 * math.pi: (0, -1)}


def _key(x, y):
    """Exact sort key of the line spanned by (x, y), by its angle mod pi: a
    vertical line first, then the slope of the rest."""
    x, y = Fraction(x), Fraction(y)
    if x < 0 or (x == 0 and y > 0):
        x, y = -x, -y
    return (0, Fraction(0)) if x == 0 else (1, y / x)


def _lattice(rng, size):
    """Points of the 1/8 lattice of [-1, 1]^2."""
    return [complex(*c) / 8 for c in rng.integers(-8, 9, (size, 2)).tolist()]


def _family(rng):
    """A family with a lattice limit approaching along an axis, with dyadic
    prefix points at distances 1/8, 1/16, ... from the limit."""
    angle = list(AXES)[int(rng.integers(4))]
    ux, uy = AXES[angle]
    (limit,) = _lattice(rng, 1)
    n = int(rng.integers(1, 5))
    prefix = tuple((limit + complex(ux, uy) * 2.0 ** -(3 + j), 1) for j in range(n))
    return hrnr.SequenceFamily(prefix, limit, angle, "on", 1)


def _model(rng):
    """Lattice atoms, a lattice segment, a lattice triangle region and one
    or two families; no arcs."""
    locations = _lattice(rng, int(rng.integers(2, 7)))
    atoms = tuple(hrnr.Atom(z, int(m)) for z, m in zip(locations, rng.integers(1, 3, len(locations))))
    pieces = [hrnr.Segment(*_lattice(rng, 2))]
    while True:
        tri = _lattice(rng, 3)
        area = hrnr.ConvexPolygon(tuple(tri)).area()
        if area != 0:
            pieces.append(hrnr.Region(hrnr.ConvexPolygon(tuple(tri if area > 0 else tri[::-1]))))
            break
    fams = tuple(_family(rng) for _ in range(int(rng.integers(1, 3))))
    return hrnr.SpectralMeasureModel(atoms, tuple(pieces), fams, 3.0)


def _exact_lines(model, z):
    """The keys of the breakpoint lines through z: toward every atom,
    segment end, region vertex, family limit and prefix point other than
    z, and along every approach direction."""
    points = [a.location for a in model.atoms]
    for piece in model.pieces:
        points += [piece.a, piece.b] if isinstance(piece, hrnr.Segment) else list(piece.polygon.vertices)
    for fam in model.families:
        points += [fam.limit] + [p for p, _ in fam.prefix]
    keys = {_key(Fraction(p.real) - Fraction(z.real), Fraction(p.imag) - Fraction(z.imag)) for p in points if p != z}
    return keys | {_key(*AXES[fam.approach_angle]) for fam in model.families}


def _uncovered(lines, swept):
    """The lines not swept and the open cells between consecutive lines
    (the last one and the first turned by pi included) without a swept
    direction strictly inside."""
    lines = sorted(lines)
    missing = [line for line in lines if line not in swept]
    cells = list(zip(lines, lines[1:]))
    empty = [(a, b) for a, b in cells if not any(a < s < b for s in swept)]
    if lines and not any(s > lines[-1] or s < lines[0] for s in swept):
        empty.append((lines[-1], lines[0]))
    return missing, empty


@pytest.mark.parametrize("seed", range(8))
def test_every_exact_line_and_cell_is_swept(seed):
    rng = np.random.default_rng(seed)
    model = _model(rng)
    anchors = [a.location for a in model.atoms] + _lattice(rng, 30)
    vx, vy, row = critical_directions(model, anchors)
    for a, z in enumerate(anchors):
        swept = {_key(x, y) for x, y in zip(vx[row == a].tolist(), vy[row == a].tolist())}
        lines = _exact_lines(model, z)
        assert lines
        assert _uncovered(lines, swept) == ([], [])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _exact(z, p):
    return Fraction(p.real) - Fraction(z.real), Fraction(p.imag) - Fraction(z.imag)


def test_a_cell_of_1e13_rad_off_the_lattice_is_swept():
    # z, p and q are not dyadic, yet p - z and q - z are exact (Sterbenz),
    # so the breakpoints are the exact lines, and the cell between them,
    # about 1e-13 rad wide, holds no breakpoint
    z = 0.1 + 0.2j
    p = 0.15 + 0.3j
    d = p - z
    q = z + 1.5 * d + 1e-13 * 1.5 * abs(d) * 1j * d / abs(d)
    u, v = _exact(z, p), _exact(z, q)
    assert complex(*map(float, u)) == p - z and complex(*map(float, v)) == q - z
    width = math.atan2(float(_cross(u, v)), float(u[0] * v[0] + u[1] * v[1]))
    assert 5e-14 < width < 2e-13
    model = hrnr.SpectralMeasureModel((hrnr.Atom(p, 1), hrnr.Atom(q, 1), hrnr.Atom(-0.5 + 0.1j, 1)), (), (), 1.0)
    vx, vy, _ = critical_directions(model, [z])
    swept = [(Fraction(x), Fraction(y)) for x, y in zip(vx.tolist(), vy.tolist())]
    # strictly inside the cell, turned by pi or not
    assert sum(_cross(u, d) * _cross(d, v) > 0 for d in swept) == 1


def test_exactly_collinear_points_add_no_midpoint():
    # p - z and r - z are exact and r - z = 3 (p - z), whose rounded unit
    # vectors need not agree; the third atom is off their line, so the
    # anchor has two distinct lines and two cells
    z = 0.1 + 0.2j
    p = complex(0.1 + 3 * 2.0**-10, 0.2 + 5 * 2.0**-10)
    r = complex(0.1 + 9 * 2.0**-10, 0.2 + 15 * 2.0**-10)
    u, v = _exact(z, p), _exact(z, r)
    assert u == (Fraction(3, 1024), Fraction(5, 1024)) and v == (3 * u[0], 3 * u[1])
    model = hrnr.SpectralMeasureModel((hrnr.Atom(p, 1), hrnr.Atom(r, 1), hrnr.Atom(0.15 + 0.11j, 1)), (), (), 1.0)
    vx, vy, _ = critical_directions(model, [z])
    assert len(vx) == 3 + 2
    swept = [_key(x, y) for x, y in zip(vx.tolist(), vy.tolist())]
    assert _uncovered({_key(*u), _key(*_exact(z, 0.15 + 0.11j))}, set(swept)) == ([], [])


def test_a_wide_cell_between_nearly_collinear_lines_is_swept():
    # z is a + t (b - a) rounded, so z - a and z - b are exact (Sterbenz)
    # and not parallel, and their rounded unit vectors are one ulp apart:
    # the cell between the two lines that is nearly a half turn wide holds
    # exactly one swept direction
    a, b = 1.8607014095476777 + 1.2471467403221075j, 1.1412465569010317 + 1.670061849314936j
    z = a + 0.6931566829892775 * (b - a)
    u, w = _exact(z, a), _exact(b, z)
    assert complex(*map(float, u)) == a - z and complex(*map(float, w)) == z - b
    assert _cross(u, w) != 0
    model = hrnr.SpectralMeasureModel((hrnr.Atom(a, 1), hrnr.Atom(b, 1)), (), (), 4.0)
    vx, vy, _ = critical_directions(model, [z])
    swept = [(Fraction(x), Fraction(y)) for x, y in zip(vx.tolist(), vy.tolist())]
    assert sum(_cross(u, d) * _cross(d, w) < 0 for d in swept) == 1

def test_one_line_takes_the_quarter_turn():
    # a half turn: every line of the anchor is one line, and its midpoint is
    # the normal to it
    model = hrnr.SpectralMeasureModel((hrnr.Atom(0.25 + 0.125j, 1), hrnr.Atom(0.75 + 0.375j, 2)), (), (), 1.0)
    vx, vy, _ = critical_directions(model, [0j])
    (a, b), mid = zip(vx[:2].tolist(), vy[:2].tolist()), (float(vx[2]), float(vy[2]))
    assert len(vx) == 3 and _cross(a, b) == 0.0
    assert abs(a[0] * mid[0] + a[1] * mid[1]) <= 1e-16 * math.hypot(*a)
