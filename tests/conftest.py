import math

import numpy as np
import pytest

import hrnr
from hrnr import core, dilation
from hrnr.errors import HrnrError, UncertainGeometry
from hrnr.geometry import ClosedHalfPlane
from hrnr.spectral import CA, CB, dim_ran_closed, dim_ran_hchp, direction_sweep

import critical_directions_oracle
from geometry_oracle import support_plane


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_normal_matrix(n, rng, rmax=1.5, rmin=0.1):
    eigs = rng.uniform(rmin, rmax, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    Q = haar_unitary(n, rng)
    return Q @ np.diag(eigs) @ Q.conj().T, eigs


def random_normal_contraction(n, rng, rmax=0.85):
    M, _ = random_normal_matrix(n, rng, rmax=rmax, rmin=0.05)
    return M


def random_model(rng, allow_pieces=True, allow_families=True):
    """A random finitely-described spectral measure within radius 3."""
    atoms = []
    for _ in range(int(rng.integers(1, 6))):
        loc = complex(*rng.uniform(-0.8, 0.8, 2))
        mult = hrnr.INF if rng.uniform() < 0.08 else int(rng.integers(1, 3))
        atoms.append(hrnr.Atom(loc, mult))
    pieces = []
    u = rng.uniform() if allow_pieces else 1.0
    if u < 0.18:
        a, b = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        if a != b:
            pieces.append(hrnr.Segment(a, b))
    elif u < 0.36:
        c = complex(*rng.uniform(-0.3, 0.3, 2))
        pieces.append(
            hrnr.Arc(
                c,
                rng.uniform(0.2, 0.6),
                t0 := rng.uniform(0, 2 * math.pi),
                t0 + rng.uniform(0.5, 2 * math.pi - 0.1),
            )
        )
    elif u < 0.5:
        hull = hrnr.convex_hull([complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(5)])
        if hull.area() > 0.05:
            pieces.append(hrnr.Region(hull))
    fams = []
    if allow_families and rng.uniform() < 0.25:
        fams.append(random_family(rng))
    return hrnr.SpectralMeasureModel(tuple(atoms), tuple(pieces), tuple(fams), 3.0)


def random_family(rng, n_prefix=40, side=None):
    lim = complex(*rng.uniform(-0.5, 0.5, 2))
    phi = rng.uniform(0, 2 * math.pi)
    drawn = ["above", "below", "on"][int(rng.integers(3))]
    side = drawn if side is None else side
    q = rng.uniform(0.75, 0.92)
    rr = rng.uniform(0.1, 0.3)
    prefix = []
    for j in range(n_prefix):
        if side == "on":
            off = 0.0
        else:
            off = (0.3 * rr) / (j + 2) * (1 if side == "above" else -1)
        p = (
            lim
            + rr * complex(math.cos(phi), math.sin(phi))
            + off * complex(-math.sin(phi), math.cos(phi))
        )
        prefix.append((p, 1))
        rr *= q
    return hrnr.SequenceFamily(tuple(prefix), lim, phi, side, 1)


DENSE_ANGLES = tuple(math.pi * j / 4096 for j in range(4096))


def dense_member(model, k, lam):
    """Oracle for ``member``: (verdict, witness_dim) from the same decision
    over the critical directions plus 4096 evenly spaced angles, built by
    the per-anchor builder kept in ``critical_directions_oracle``."""
    vx, vy = critical_directions_oracle.critical_directions(model, lam, DENSE_ANGLES)
    sweep = direction_sweep(model, lam, vx, vy)
    lo, hi, fz = sweep.lo[:4], sweep.hi[:4], sweep.fuzzy[:4]
    below = np.isfinite(hi) if k == hrnr.RANK_INF else (~fz) & (hi < k)
    if below.any():
        return hrnr.Verdict.OUT, float(hi[below].min())
    if (lo >= k).all():
        return hrnr.Verdict.IN, None
    return hrnr.Verdict.UNCERTAIN, None


def swept_members(model, k, points):
    """``member_many`` without the level table: every point through
    ``core._decide_by_sweep``, the sweep over its critical directions."""
    kf = core._check_rank(model, k)
    return [core.MembershipVerdict(*hchp) for (hchp,) in core._decide_by_sweep(model, kf, list(points), [(core._HCHP, True)])]


def swept_region_wu(model, k, n_angles):
    """``region(model, k, n_angles)`` and ``wu_check`` on it without the
    level table: every decision through ``core._decide_by_sweep``.  The
    Wu report is the type and message of the ``HrnrError`` it raises, if
    it raises one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_decide", core._decide_by_sweep)
        patch.setattr(dilation, "_decide", core._decide_by_sweep)
        est = hrnr.region(model, k, n_angles)
        return est, outcome(dilation.wu_check, model, k, est)


def outcome(fn, *args):
    """What fn returns, or the type and message of the HrnrError it raises."""
    try:
        return fn(*args)
    except HrnrError as exc:
        return type(exc), str(exc)


# the flavor sets of the Wu check's decisions: membership, then the closed
# planes whose witness it reads
WU_SETS = [(core._HCHP, False), ([CA, CB], True)]


def table_decided(model, k, points, flavor_sets):
    """The indices of the points that ``core._decide`` over ``flavor_sets``
    decides OUT from the level table (``core._level_check``, then
    ``core._table_out``), where the model is above the table's cut."""
    kf = core._check_rank(model, k)
    if kf == hrnr.RANK_INF or model._anchor_pairs <= core._LEVEL_DIRS:
        return set()
    checks = core._level_check(model, int(kf), list(points))
    far = [i for i, check in enumerate(checks) if isinstance(check, int)]
    if not far:
        return set()
    rows = core._table_out(model, kf, [points[i] for i in far], [checks[i] for i in far], flavor_sets)
    return {i for i, row in zip(far, rows) if row is not None}


def _line_angles(vx, vy):
    return np.arctan2(vy, vx) % math.pi


def _apart(a, b):
    """Angles mod pi between every line of a and every line of b."""
    d = np.abs(a[:, None] - b[None, :]) % math.pi
    return np.minimum(d, math.pi - d)


def assert_same_lines(model, anchor, vx, vy):
    """The directions ``core.critical_directions`` builds at anchor against
    the angle-based builder kept in ``critical_directions_oracle``: the same
    breakpoints in the same order, the same lines to rounding (the tangents
    differ in the last bits); a midpoint within 1e-14 rad of each of the
    oracle's, and any other midpoint within 1e-12 rad of a breakpoint, in a
    cell the oracle leaves without one."""
    old_x, old_y = critical_directions_oracle.critical_directions(model, anchor)
    b = len(critical_directions_oracle.breakpoints(model, anchor))
    ax, ay, bx, by = vx[:b], vy[:b], old_x[:b], old_y[:b]
    assert len(ax) == b
    assert (np.abs(ax * by - ay * bx) <= 1e-15 * np.hypot(ax, ay) * np.hypot(bx, by)).all()
    assert (ax * bx + ay * by > 0).all()
    near = _apart(_line_angles(vx[b:], vy[b:]), _line_angles(old_x[b:], old_y[b:])) <= 1e-14
    assert near.any(axis=0).all()
    extra = _line_angles(vx[b:], vy[b:])[~near.any(axis=1)]
    assert (_apart(extra, _line_angles(ax, ay)) <= 1e-12).any(axis=1).all()


def assert_witness(model, point, witness, dim, measure):
    """A witness plane through the point whose dimension, measured again by
    ``measure`` (``dim_ran_hchp`` for a membership witness,
    ``dim_ran_closed`` for a closed one), is ``dim``, unless that plane's
    dimension is only bracketed, where ``measure`` raises
    ``UncertainGeometry``."""
    assert witness.anchor == complex(point)
    try:
        measured = measure(model, witness)
    except UncertainGeometry:
        return
    assert measured == dim


def assert_same_verdicts(model, points, got, expected):
    """Membership verdicts ``got`` against the oracle's ``expected``: equal
    verdicts and witness dimensions, and each witness of ``got`` re-measured
    (:func:`assert_witness`)."""
    assert len(got) == len(expected) == len(points)
    for z, new, old in zip(points, got, expected):
        assert (new.value, new.witness_dim) == (old.value, old.witness_dim)
        if new.witness is not None:
            assert_witness(model, z, new.witness, new.witness_dim, dim_ran_hchp)


def assert_member_many(model, k, points, got, expected):
    """``member_many``'s verdicts ``got`` against the sweep's ``expected``:
    equal verdicts, UNCERTAIN included; on a point decided from the level
    table a witness through the point whose dimension is ``witness_dim``,
    below k; on every other point the witness and its normal bit for bit."""
    assert len(got) == len(expected) == len(points)
    table = table_decided(model, k, points, [(core._HCHP, True)])
    for i, (new, old) in enumerate(zip(got, expected)):
        assert new.value is old.value
        if i in table:
            assert new.value is hrnr.Verdict.OUT
            assert_table_witness(model, k, points[i], new.witness, new.witness_dim, dim_ran_hchp)
        else:
            assert (new.witness_dim, new.witness) == (old.witness_dim, old.witness)
            if new.witness is not None:
                assert new.witness.normal == old.witness.normal
    return table


def assert_table_witness(model, k, point, witness, dim, measure):
    """A witness from the level table: anchored at the point, and
    ``measure`` (``dim_ran_hchp`` or ``dim_ran_closed``) measures it
    again as ``dim``, below k."""
    assert witness.anchor == complex(point)
    assert measure(model, witness) == dim < k


def assert_wu_reports(model, k, got, expected):
    """A Wu report ``got`` against the sweep's ``expected``: the same
    verdict, skip and uncertain counts, and evidence points and notes; on a
    sample decided from the level table a closed witness through it whose
    dimension is ``dim``, below k; on every other sample the witness, its
    normal and its dimension bit for bit.  Returns the table-decided
    evidence indices."""
    assert (got.verdict, got.skipped_near_eigenvalue, got.uncertain_samples) == (
        expected.verdict, expected.skipped_near_eigenvalue, expected.uncertain_samples
    )
    assert [(e.point, e.note) for e in got.evidence] == [(e.point, e.note) for e in expected.evidence]
    table = table_decided(model, k, [e.point for e in got.evidence], WU_SETS)
    for i, (new, old) in enumerate(zip(got.evidence, expected.evidence)):
        if i in table:
            assert_table_witness(model, k, new.point, new.witness, new.dim, dim_ran_closed)
        else:
            assert (new.dim, new.witness) == (old.dim, old.witness)
            if new.witness is not None:
                assert new.witness.normal == old.witness.normal
    return table


def random_plane_set(rng):
    """One to eight closed half planes through the square [-1, 1]^2; a
    quarter of them flip the previous one, so zero-width strips (segments
    and points) occur as well as empty and full intersections."""
    planes = []
    for _ in range(int(rng.integers(1, 9))):
        if planes and rng.uniform() < 0.25:
            P = planes[-1]
            nx, ny = P.normal
            planes.append(ClosedHalfPlane(P.anchor, math.atan2(-ny, -nx), normal=(-nx, -ny)))
        else:
            anchor = complex(*rng.uniform(-1, 1, 2))
            planes.append(ClosedHalfPlane(anchor, rng.uniform(0, 2 * math.pi)))
    return planes


NEARLY_PARALLEL_GAPS = [10.0**-e for e in range(16, 5, -1)]


def nearly_parallel_pair_sets(gap):
    """60 (planes, bound): two lines through one point whose normals are gap
    apart, at a random angle, next to the angle cut at pi or next to a box
    side, alone or with six planes around the origin."""
    rng = np.random.default_rng([20240809, int(-math.log10(gap))])
    for trial in range(60):
        p0 = complex(*rng.uniform(-1, 1, 2))
        angle = (
            rng.uniform(0, 2 * math.pi),
            math.pi - gap * rng.uniform(),
            rng.integers(0, 4) * math.pi / 2 + rng.choice([-1, 1]) * gap * rng.uniform(),
        )[trial % 3]
        planes = [ClosedHalfPlane(p0, angle), ClosedHalfPlane(p0, angle + gap)]
        if trial % 2:
            planes += [support_plane(2 * math.pi * (j + rng.uniform()) / 6, 0.8) for j in range(6)]
        yield planes, float(rng.choice([1.0, 2.0, 5.0]))


def many_nearly_parallel_pair_sets(gap):
    """40 plane sets of four pairs of nearly parallel lines (normals up to
    gap apart) and six planes around the origin, for the box of radius 2."""
    rng = np.random.default_rng([20240810, int(-math.log10(gap))])
    for _ in range(40):
        planes = []
        for _ in range(4):
            q, a = complex(*rng.uniform(-1, 1, 2)), rng.uniform(0, 2 * math.pi)
            planes += [ClosedHalfPlane(q, a), ClosedHalfPlane(q, a + gap * rng.uniform(-1, 1))]
        planes += [support_plane(2 * math.pi * (j + rng.uniform()) / 6, 0.8) for j in range(6)]
        yield planes


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture(autouse=True)
def _no_remembered_analysis():
    """Every test starts with no remembered analysis, so counts of
    eigensolves and breakpoint scans do not depend on the order of tests."""
    dilation._analysis.cache_clear()
