import math

import numpy as np
import pytest

import hrnr
from hrnr import (
    INF,
    Arc,
    Atom,
    ClosedHalfPlane,
    ConvexPolygon,
    HalfClosedHalfPlane,
    NotNormal,
    Region,
    Segment,
    SequenceFamily,
    SpectralMeasureModel,
    UncertainGeometry,
    convex_hull,
    dim_ran_closed,
    dim_ran_hchp,
    dim_ran_open,
    from_normal_matrix,
    support_levels,
    transform_model,
)
from hrnr.errors import RankExceedsDimension
from hrnr.presets import durszt_model, infinity_empty_model
from hrnr.spectral import require_normal

from conftest import haar_unitary, random_model


class TestModelValidation:
    def test_atom_mult(self):
        with pytest.raises(ValueError):
            Atom(0j, 0)
        with pytest.raises(ValueError):
            Atom(0j, 1.5)
        with pytest.raises(ValueError):
            Atom(0j, True)
        with pytest.raises(ValueError):  # past the float range
            Atom(0j, 10**400)
        assert Atom(0j, INF).mult == INF

    @pytest.mark.parametrize(
        "mult, tail_mult",
        [
            (0.5, 1),
            (1.5, 1),
            (True, 1),
            (INF, 1),
            ("2", 1),
            (1, True),
            (1, 1.5),
            (1, 0),
            pytest.param(1, 10**400, id="tail_mult-past-the-float-range"),
        ],
    )
    def test_family_mult_rejected(self, mult, tail_mult):
        # fractions and booleans are not truncated to a multiplicity
        with pytest.raises(ValueError):
            SequenceFamily(((0.5 + 0j, mult),), 0j, 0.0, "on", tail_mult)

    def test_family_mult_integral(self):
        fam = SequenceFamily(((0.5 + 0j, 2.0), (0.25 + 0j, np.int64(3))), 0j, 0.0, "on", 4.0)
        assert fam.prefix == ((0.5 + 0j, 2), (0.25 + 0j, 3)) and fam.tail_mult == 4

    @pytest.mark.parametrize(
        "atoms, prefix",
        [
            ([(0j, 2**60)], []),
            ([(0j, 2**52), (0.5j, 2**52)], []),
            ([(0j, 2**52)], [(0.5 + 0j, 2**52)]),
        ],
    )
    def test_finite_total_below_2_53(self, atoms, prefix):
        # the sweep kernel's float64 bucket sums are exact only below 2**53
        fams = (SequenceFamily(tuple(prefix), 0j, 0.0, "on", 1),) if prefix else ()
        with pytest.raises(ValueError):
            SpectralMeasureModel(tuple(Atom(z, m) for z, m in atoms), families=fams)
        ok = SpectralMeasureModel((Atom(0j, 2**52), Atom(0.5j, 2**52 - 1), Atom(0.1j, INF)))
        assert ok.total_dim == INF

    @pytest.mark.parametrize("bad", ["0.5", b"0.5", True, np.True_, complex(math.nan, 0.0)])
    def test_locations_must_be_finite_numbers(self, bad):
        # complex() parses a string and takes a bool; before the check a
        # string location built an Atom that SpectralMeasureModel then
        # failed on with a bare TypeError
        for build in (
            lambda: Atom(bad, 1),
            lambda: Segment(bad, 1j),
            lambda: Segment(0j, bad),
            lambda: Arc(bad, 0.5, 0.0, 1.0),
            lambda: SequenceFamily(((0.5 + 0j, 1),), bad, 0.0, "on", 1),
        ):
            with pytest.raises(ValueError, match="must have finite coordinates"):
                build()

    def test_locations_are_stored_as_complex(self):
        # an int location becomes the equal complex number
        atom = Atom(1, 2)
        seg = Segment(0, np.float64(1.0))
        arc = Arc(np.int64(0), 0.5, 0.0, 1.0)
        fam = SequenceFamily(((0.5, 1),), 0, 0.0, "on", 1)
        values = (atom.location, seg.a, seg.b, arc.center, fam.limit, fam.prefix[0][0])
        assert all(type(z) is complex for z in values)
        assert values == (1, 0, 1, 0, 0, 0.5)
        model = SpectralMeasureModel(atoms=(atom,), support_radius=1.0)
        assert model == SpectralMeasureModel(atoms=(Atom(1 + 0j, 2),), support_radius=1.0)

    # every real or complex field, and the scale and shift of
    # transform_model: a valid value, and the build that puts a value there
    # with the others valid; theta1 = 2 lets theta0 = True (1) pass the
    # order check
    _FIELDS = {
        "Atom.location": (0j, lambda v: Atom(v, 1)),
        "Segment.a": (0j, lambda v: Segment(v, 1j)),
        "Segment.b": (0j, lambda v: Segment(1j, v)),
        "Arc.center": (0j, lambda v: Arc(v, 0.5, 0.0, 2.0)),
        "Arc.radius": (0.5, lambda v: Arc(0j, v, 0.0, 2.0)),
        "Arc.theta0": (0.0, lambda v: Arc(0j, 0.5, v, 2.0)),
        "Arc.theta1": (2.0, lambda v: Arc(0j, 0.5, 0.0, v)),
        "Region.vertex": (1j, lambda v: Region(ConvexPolygon((0j, 1 + 0j, v)))),
        "SequenceFamily.prefix": (0.5, lambda v: SequenceFamily(((v, 1),), 0j, 0.0, "on", 1)),
        "SequenceFamily.limit": (0j, lambda v: SequenceFamily(((0.5 + 0j, 1),), v, 0.0, "on", 1)),
        "SequenceFamily.approach_angle": (0.0, lambda v: SequenceFamily(((0.5 + 0j, 1),), 0j, v, "on", 1)),
        "SpectralMeasureModel.support_radius": (
            1.0,
            lambda v: SpectralMeasureModel((Atom(0j, 1),), support_radius=v),
        ),
        "transform_model scale": (1, lambda v: transform_model(durszt_model(2), v, 0)),
        "transform_model shift": (0, lambda v: transform_model(durszt_model(2), 1, v)),
        # a NaN angle once made member(m, 1, 0.3) OUT, although 0.3 is IN
        "nan-angle model": (
            0.0,
            lambda v: SpectralMeasureModel(
                (Atom(0.5 + 0j, 1),), families=(SequenceFamily((), 0.1 + 0j, v, "on", 1),)
            ),
        ),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"])
    @pytest.mark.parametrize("field", list(_FIELDS))
    def test_every_number_field_is_checked(self, field, bad):
        valid, build = self._FIELDS[field]
        build(valid)
        with pytest.raises(ValueError):
            build(bad)

    def test_fields_are_stored_as_float(self):
        arc = Arc(0j, np.int64(1), 0, np.float32(2.0))
        fam = SequenceFamily((), 0j, 0, "on", 1)
        model = SpectralMeasureModel((Atom(0j, 1),), support_radius=2)
        values = (arc.radius, arc.theta0, arc.theta1, fam.approach_angle, model.support_radius)
        assert all(type(x) is float for x in values) and values == (1, 0, 2, 0, 2)

    def test_segment_positive_length(self):
        with pytest.raises(ValueError):
            Segment(1j, 1j)

    def test_arc_angles(self):
        with pytest.raises(ValueError):
            Arc(0j, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Arc(0j, -1.0, 0.0, 1.0)

    def test_region_positive_area(self):
        with pytest.raises(ValueError):
            Region(convex_hull([0j, 1 + 0j]))

    def test_family_decreasing_distances(self):
        with pytest.raises(ValueError):
            SequenceFamily(((0.5 + 0j, 1), (0.6 + 0j, 1)), 0j, 0.0, "on", 1)
        with pytest.raises(ValueError):
            SequenceFamily(((0j, 1),), 0j, 0.0, "on", 1)

    def test_family_side_consistency(self):
        # points below the ray contradict side 'above'
        pts = tuple((complex(1.0 / n, -0.1 / n), 1) for n in range(2, 10))
        with pytest.raises(ValueError):
            SequenceFamily(pts, 0j, 0.0, "above", 1)

    def test_support_radius_bound(self):
        with pytest.raises(ValueError):
            SpectralMeasureModel(atoms=(Atom(2 + 0j, 1),), support_radius=1.0)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            SpectralMeasureModel(support_radius=1.0)


class TestFromNormalMatrix:
    def test_diag_with_multiplicity(self):
        m = from_normal_matrix(np.diag([1, 1j, 1j]).astype(complex))
        got = {(a.location, a.mult) for a in m.atoms}
        assert got == {(1 + 0j, 1.0), (1j, 2.0)}
        assert m.total_dim == 3

    def test_symmetric_involution(self):
        m = from_normal_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
        locs = sorted(a.location.real for a in m.atoms)
        assert locs == pytest.approx([-1.0, 1.0])
        assert all(abs(a.location.imag) < 1e-12 for a in m.atoms)

    def test_rotated_diagonal_recovers_spectrum(self, rng):
        # oracle: the construction itself fixes the spectrum
        diag = np.diag([0.5, -0.5, 0.3j]).astype(complex)
        Q = haar_unitary(3, rng)
        m = from_normal_matrix(Q @ diag @ Q.conj().T)
        locs = sorted((a.location for a in m.atoms), key=lambda z: (z.real, z.imag))
        for got, want in zip(locs, [-0.5, 0.3j, 0.5]):
            assert abs(got - want) < 1e-8
        assert all(a.mult == 1 for a in m.atoms)

    def test_eigenpair_residuals(self, rng):
        from conftest import random_normal_matrix

        M, _ = random_normal_matrix(5, rng)
        vals, vecs = np.linalg.eig(M)
        norm = np.linalg.norm(M, 2)
        for j in range(5):
            res = np.linalg.norm(M @ vecs[:, j] - vals[j] * vecs[:, j])
            assert res <= 10 * 1e-8 * max(1.0, norm)

    def test_not_normal(self):
        # also at entry sizes whose squares overflow float64: the gate
        # neither overflows nor lets a NaN commutator norm through
        for big in (1e160, 1e200):
            with pytest.raises(NotNormal):
                from_normal_matrix(np.array([[big, big], [0, big]], dtype=complex))
        with pytest.raises(NotNormal):
            from_normal_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
        D = np.diag([1e160, -1e160j])
        assert np.array_equal(require_normal(D), D)

    def test_support_radius(self):
        m = from_normal_matrix(np.diag([2.0, -1.0]).astype(complex))
        assert m.support_radius == pytest.approx(3.0)


class TestDimQueries:
    def test_durszt_half_closed(self):
        model = durszt_model(2)
        H0 = HalfClosedHalfPlane(0, 3 * math.pi / 2, +1)  # {Im<0} u [0, inf)
        assert dim_ran_hchp(model, H0) == 2
        H_half = HalfClosedHalfPlane(0.5, 3 * math.pi / 2, +1)  # {Im<0} u [0.5, inf)
        assert dim_ran_hchp(model, H_half) == 0

    def test_infinity_model_half_closed(self):
        model = infinity_empty_model()
        H0 = HalfClosedHalfPlane(0, 3 * math.pi / 2, +1)
        assert dim_ran_hchp(model, H0) == 0

    def test_durszt_closed(self):
        model = durszt_model(2)
        assert dim_ran_closed(model, ClosedHalfPlane(0, 3 * math.pi / 2)) == 2
        assert dim_ran_closed(model, ClosedHalfPlane(0.5, 0.0)) == INF

    def test_single_infinite_atom_closed(self):
        m = SpectralMeasureModel(atoms=(Atom(1 + 0j, INF),), support_radius=2.0)
        assert dim_ran_closed(m, ClosedHalfPlane(2 + 0j, 0.0)) == 0

    def test_durszt_open(self):
        model = durszt_model(2)
        assert dim_ran_open(model, ClosedHalfPlane(0, math.pi / 2)) == INF
        assert dim_ran_open(model, ClosedHalfPlane(0, 3 * math.pi / 2)) == 0

    def test_atoms_open(self):
        m = SpectralMeasureModel(atoms=(Atom(0j, 5),), support_radius=1.0)
        assert dim_ran_open(m, ClosedHalfPlane(-1 + 0j, 0.0)) == 5

    def test_uncertain_raises(self):
        m = SpectralMeasureModel(atoms=(Atom(complex(0, 1e-12), 1),), support_radius=1.0)
        with pytest.raises(UncertainGeometry):
            dim_ran_hchp(m, HalfClosedHalfPlane(0, math.pi / 2, +1))

    def test_tail_resolved_by_prefix_depth(self):
        # prefix reaches half the limit clearance: tail certainly contributes 0
        fam = SequenceFamily(
            tuple((complex(1.0 / n, 0), 1) for n in range(2, 40)), 0j, 0.0, "on", 1
        )
        m = SpectralMeasureModel(families=(fam,), support_radius=1.0)
        # line Re = 0.3, open side beyond: limit clearance 0.3, prefix depth 1/39
        P = ClosedHalfPlane(0.3 + 0j, 0.0)
        oracle = sum(1 for n in range(2, 40) if 1.0 / n > 0.3)
        assert oracle == 2
        assert dim_ran_open(m, P) == oracle

    def test_tail_unresolved_shallow_prefix(self):
        fam = SequenceFamily(
            tuple((complex(1.0 / n, 0), 1) for n in range(2, 5)), 0j, 0.0, "on", 1
        )
        m = SpectralMeasureModel(families=(fam,), support_radius=1.0)
        # clearance 0.05 needs prefix depth 0.025; the prefix stops at 0.25
        with pytest.raises(UncertainGeometry):
            dim_ran_open(m, ClosedHalfPlane(0.05 + 0j, 0.0))

    def test_prefix_cutoff(self):
        too_long = tuple((complex(1.0 / n, 0), 1) for n in range(2, 10_005))
        with pytest.raises(ValueError):
            SequenceFamily(too_long, 0j, 0.0, "on", 1)

    def test_collinear_segment_on_ray(self):
        m = SpectralMeasureModel(pieces=(Segment(0.2 + 0j, 0.8 + 0j),), support_radius=1.0)
        assert dim_ran_hchp(m, HalfClosedHalfPlane(0, math.pi / 2, +1)) == INF  # ray [0,inf)
        assert dim_ran_hchp(m, HalfClosedHalfPlane(0, math.pi / 2, -1)) == 0  # ray (-inf,0]
        assert dim_ran_closed(m, ClosedHalfPlane(0, math.pi / 2)) == INF
        assert dim_ran_open(m, ClosedHalfPlane(0, math.pi / 2)) == 0

    def test_arc_tangency_counts_zero(self):
        m = SpectralMeasureModel(pieces=(Arc(0j, 1.0, 0.0, math.pi),), support_radius=1.0)
        # line Im = 1 is tangent at the arc top
        assert dim_ran_closed(m, ClosedHalfPlane(1j, math.pi / 2)) == 0
        assert dim_ran_closed(m, ClosedHalfPlane(0.5j, math.pi / 2)) == INF

    def test_monotonicity_hchp_vs_closed_open(self, rng):
        for _ in range(25):
            m = random_model(rng)
            anchor = complex(*rng.uniform(-1, 1, 2))
            phi = rng.uniform(0, 2 * math.pi)
            P = ClosedHalfPlane(anchor, phi)
            try:
                d_open = dim_ran_open(m, P)
                d_closed = dim_ran_closed(m, P)
                d_h = dim_ran_hchp(m, HalfClosedHalfPlane(anchor, phi, +1))
            except UncertainGeometry:
                continue
            assert d_open <= d_h <= d_closed

    def test_complement_pairing_atom_models(self, rng):
        for _ in range(25):
            m = random_model(rng, allow_pieces=False, allow_families=False)
            total = m.total_dim
            anchors = [complex(*rng.uniform(-1, 1, 2)), m.atoms[0].location]
            for anchor in anchors:
                phi = rng.uniform(0, 2 * math.pi)
                try:
                    d1 = dim_ran_hchp(m, HalfClosedHalfPlane(anchor, phi, +1))
                    d2 = dim_ran_hchp(m, HalfClosedHalfPlane(anchor, phi + math.pi, -1))
                except UncertainGeometry:
                    continue
                at_anchor = sum(a.mult for a in m.atoms if a.location == anchor)
                assert d1 + d2 == total + at_anchor


class TestPushforward:
    def test_atoms(self):
        m = SpectralMeasureModel(atoms=(Atom(1j, 1), Atom(-1j, 1)), support_radius=2.0)
        levels = [support_levels(m, k, [math.pi / 2])[0] for k in (1, 2)]
        assert levels == pytest.approx([1.0, -1.0])

    def test_arc_interval(self):
        # oracle: dense sampling of the projection over the arc; its lower
        # end is minus the level in direction pi
        m = durszt_model(1)
        top, neg_bottom = support_levels(m, 1, [0.0, math.pi])
        thetas = np.linspace(0, math.pi, 20001)
        samples = np.cos(thetas)
        assert -neg_bottom == pytest.approx(samples.min(), abs=1e-9)
        assert top == pytest.approx(samples.max(), abs=1e-9)
        assert (-neg_bottom, top) == (-1.0, 1.0)

    def test_square_region_rotated(self):
        # oracle: projection extremes over the vertices of the square
        square = convex_hull([complex(sx, sy) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)])
        m = SpectralMeasureModel(pieces=(Region(square),), support_radius=1.0)
        theta = math.pi / 4
        c, s = math.cos(theta), math.sin(theta)
        proj = [c * v.real - s * v.imag for v in square.vertices]
        top, neg_bottom = support_levels(m, 1, [theta, theta + math.pi])
        assert (-neg_bottom, top) == pytest.approx((min(proj), max(proj)))
        assert top == pytest.approx(math.sqrt(2) / 2)

    def test_consistency_with_closed_dims(self, rng):
        # sup{b : dim E{Re(e^{i t} z) >= b} >= k} matches the scan, atom models
        for _ in range(10):
            m = random_model(rng, allow_pieces=False, allow_families=False)
            if m.total_dim == INF:
                continue
            theta = rng.uniform(0, 2 * math.pi)
            k = int(rng.integers(1, int(m.total_dim) + 1))
            val = support_levels(m, k, [theta])[0]
            u = complex(math.cos(theta), -math.sin(theta))
            for b in np.linspace(-2, 2, 41):
                P = ClosedHalfPlane(b * u, math.atan2(u.imag, u.real))
                try:
                    d = dim_ran_closed(m, P)
                except UncertainGeometry:
                    continue
                assert (d >= k) == (b <= val + 1e-9)


def _real_atoms(*atoms):
    """A model of atoms (position, mult) on the real axis, levels read at 0."""
    return SpectralMeasureModel(
        atoms=tuple(Atom(complex(x), m) for x, m in atoms), support_radius=4.0
    )


class TestLambdaKSup:
    def test_three_atoms(self):
        m = _real_atoms((2.0, 3.0), (0.0, INF), (-1.0, 1.0))
        assert support_levels(m, 2, [0.0])[0] == 2.0
        assert support_levels(m, 5, [0.0])[0] == 0.0

    def test_interval(self):
        m = SpectralMeasureModel(pieces=(Segment(-1.0, 1.0),), support_radius=2.0)
        for k in (1, 2, 7):
            assert support_levels(m, k, [0.0])[0] == 1.0

    def test_insufficient(self):
        m = _real_atoms((0.0, 2.0))
        with pytest.raises(RankExceedsDimension):
            support_levels(m, 3, [0.0])

    def test_rank_is_an_integer_not_a_bool(self):
        m = _real_atoms((2.0, 3.0), (0.0, 1.0))
        for k in (True, False):
            with pytest.raises(ValueError):
                support_levels(m, k, [0.0])
        assert support_levels(m, np.int64(2), [0.0])[0] == 2.0


def test_transform_model_roundtrip(rng):
    m = random_model(rng)
    a, b = 0.7 - 0.2j, 0.4 + 0.1j
    t = transform_model(m, a, b)
    back = transform_model(t, 1 / a, -b / a)
    for orig, twice in zip(m.atoms, back.atoms):
        assert abs(orig.location - twice.location) < 1e-12
        assert orig.mult == twice.mult
