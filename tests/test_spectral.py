import math

import numpy as np
import pytest

import hrnr
from hrnr import (
    INF,
    Arc,
    Atom,
    ClosedHalfPlane,
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
    hchp_at,
    lambda_k_sup,
    pushforward,
    transform_model,
)
from hrnr.errors import InsufficientDimension
from hrnr.presets import durszt_model, infinity_empty_model
from hrnr.spectral import RealSpectralModel

from conftest import haar_unitary, random_model


class TestModelValidation:
    def test_atom_mult(self):
        with pytest.raises(ValueError):
            Atom(0j, 0)
        with pytest.raises(ValueError):
            Atom(0j, 1.5)
        with pytest.raises(ValueError):
            Atom(0j, True)
        assert Atom(0j, INF).mult == INF

    @pytest.mark.parametrize(
        "mult, tail_mult",
        [(0.5, 1), (1.5, 1), (True, 1), (INF, 1), ("2", 1), (1, True), (1, 1.5), (1, 0)],
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
        with pytest.raises(NotNormal):
            from_normal_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_support_radius(self):
        m = from_normal_matrix(np.diag([2.0, -1.0]).astype(complex))
        assert m.support_radius == pytest.approx(3.0)


class TestDimQueries:
    def test_durszt_half_closed(self):
        model = durszt_model(2)
        H0 = hchp_at(0, 3 * math.pi / 2, +1)  # {Im<0} u [0, inf)
        assert dim_ran_hchp(model, H0) == 2
        H_half = hchp_at(0.5, 3 * math.pi / 2, +1)  # {Im<0} u [0.5, inf)
        assert dim_ran_hchp(model, H_half) == 0

    def test_infinity_model_half_closed(self):
        model = infinity_empty_model()
        H0 = hchp_at(0, 3 * math.pi / 2, +1)
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
            dim_ran_hchp(m, hchp_at(0, math.pi / 2, +1))

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
        assert dim_ran_hchp(m, hchp_at(0, math.pi / 2, +1)) == INF  # ray [0,inf)
        assert dim_ran_hchp(m, hchp_at(0, math.pi / 2, -1)) == 0  # ray (-inf,0]
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
                d_h = dim_ran_hchp(m, hchp_at(anchor, phi, +1))
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
                    d1 = dim_ran_hchp(m, hchp_at(anchor, phi, +1))
                    d2 = dim_ran_hchp(m, hchp_at(anchor, phi + math.pi, -1))
                except UncertainGeometry:
                    continue
                at_anchor = sum(a.mult for a in m.atoms if a.location == anchor)
                assert d1 + d2 == total + at_anchor


class TestPushforward:
    def test_atoms(self):
        m = SpectralMeasureModel(atoms=(Atom(1j, 1), Atom(-1j, 1)), support_radius=2.0)
        rm = pushforward(m, math.pi / 2)
        assert sorted(x for x, _ in rm.atoms) == pytest.approx([-1.0, 1.0])

    def test_arc_interval(self):
        # oracle: dense sampling of the projection over the arc
        m = durszt_model(1)
        rm = pushforward(m, 0.0)
        thetas = np.linspace(0, math.pi, 20001)
        samples = np.cos(thetas)
        assert rm.intervals[0][0] == pytest.approx(samples.min(), abs=1e-9)
        assert rm.intervals[0][1] == pytest.approx(samples.max(), abs=1e-9)
        assert rm.intervals[0] == (-1.0, 1.0)

    def test_square_region_rotated(self):
        # oracle: projection extremes over the vertices of the square
        square = convex_hull([complex(sx, sy) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)])
        m = SpectralMeasureModel(pieces=(Region(square),), support_radius=1.0)
        theta = math.pi / 4
        c, s = math.cos(theta), math.sin(theta)
        proj = [c * v.real - s * v.imag for v in square.vertices]
        rm = pushforward(m, theta)
        assert rm.intervals[0] == pytest.approx((min(proj), max(proj)))
        assert rm.intervals[0][1] == pytest.approx(math.sqrt(2) / 2)

    def test_consistency_with_closed_dims(self, rng):
        # sup{b : dim E{Re(e^{i t} z) >= b} >= k} matches the scan, atom models
        for _ in range(10):
            m = random_model(rng, allow_pieces=False, allow_families=False)
            if m.total_dim == INF:
                continue
            theta = rng.uniform(0, 2 * math.pi)
            k = int(rng.integers(1, int(m.total_dim) + 1))
            val = lambda_k_sup(pushforward(m, theta), k)
            u = complex(math.cos(theta), -math.sin(theta))
            for b in np.linspace(-2, 2, 41):
                P = ClosedHalfPlane(b * u, math.atan2(u.imag, u.real))
                try:
                    d = dim_ran_closed(m, P)
                except UncertainGeometry:
                    continue
                assert (d >= k) == (b <= val + 1e-9)


class TestLambdaKSup:
    def test_three_atoms(self):
        rm = RealSpectralModel(
            atoms=((2.0, 3.0), (0.0, INF), (-1.0, 1.0)), support_radius=4.0
        )
        assert lambda_k_sup(rm, 2) == 2.0
        assert lambda_k_sup(rm, 5) == 0.0

    def test_interval(self):
        rm = RealSpectralModel(intervals=((-1.0, 1.0),), support_radius=2.0)
        for k in (1, 2, 7):
            assert lambda_k_sup(rm, k) == 1.0

    def test_insufficient(self):
        rm = RealSpectralModel(atoms=((0.0, 2.0),), support_radius=1.0)
        with pytest.raises(InsufficientDimension):
            lambda_k_sup(rm, 3)

    def test_rank_is_an_integer_not_a_bool(self):
        rm = RealSpectralModel(atoms=((2.0, 3.0), (0.0, 1.0)), support_radius=4.0)
        for k in (True, False):
            with pytest.raises(ValueError):
                lambda_k_sup(rm, k)
        assert lambda_k_sup(rm, np.int64(2)) == 2.0


def test_transform_model_roundtrip(rng):
    m = random_model(rng)
    a, b = 0.7 - 0.2j, 0.4 + 0.1j
    t = transform_model(m, a, b)
    back = transform_model(t, 1 / a, -b / a)
    for orig, twice in zip(m.atoms, back.atoms):
        assert abs(orig.location - twice.location) < 1e-12
        assert orig.mult == twice.mult
