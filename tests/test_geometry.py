import math

import numpy as np
import pytest

from hrnr import (
    ClosedHalfPlane,
    ConvexPolygon,
    Verdict,
    HalfClosedHalfPlane,
    convex_hull,
    dim_ran_closed,
    halfplane_intersection,
)
from hrnr.geometry import canonical_dirs, snap_dirs
from hrnr.presets import durszt_model

from geometry_oracle import classify, hausdorff_distance, hchp_member, plane_lines


class TestHalfClosedHalfPlane:
    def test_upper_plane_with_positive_ray(self):
        H = HalfClosedHalfPlane(0, math.pi / 2, +1)  # {Im>0} u [0, inf)
        assert hchp_member(H, 1j) is Verdict.IN
        assert hchp_member(H, -1) is Verdict.OUT
        assert hchp_member(H, 0.5) is Verdict.IN
        assert hchp_member(H, 0) is Verdict.IN  # anchor
        assert hchp_member(H, -2j) is Verdict.OUT

    def test_upper_plane_with_negative_ray(self):
        H = HalfClosedHalfPlane(0, math.pi / 2, -1)  # {Im>0} u (-inf, 0]
        assert hchp_member(H, -1) is Verdict.IN
        assert hchp_member(H, 0.5) is Verdict.OUT
        assert hchp_member(H, 3j) is Verdict.IN

    def test_lower_plane_variant(self):
        # the backward-ray twin of the plane used in the spectral examples
        H = HalfClosedHalfPlane(0, 3 * math.pi / 2, +1)  # {Im<0} u [0, inf)
        assert hchp_member(H, -1j) is Verdict.IN
        assert hchp_member(H, 0.5) is Verdict.IN
        assert hchp_member(H, -0.5) is Verdict.OUT
        assert hchp_member(H, 1j) is Verdict.OUT

    def test_uncertain_band(self):
        H = HalfClosedHalfPlane(0, math.pi / 2, +1)
        assert hchp_member(H, complex(0.5, 1e-12)) is Verdict.UNCERTAIN
        assert hchp_member(H, complex(0.5, -1e-12)) is Verdict.UNCERTAIN
        assert hchp_member(H, complex(0.5, 1e-6)) is Verdict.IN

    def test_anchor_always_member_all_variants(self, rng):
        for _ in range(20):
            a = complex(*rng.uniform(-2, 2, 2))
            phi = rng.uniform(0, 2 * math.pi)
            for dphi in (0.0, math.pi):
                for sign in (+1, -1):
                    assert hchp_member(HalfClosedHalfPlane(a, phi + dphi, sign), a) is Verdict.IN

    def test_four_variant_counts(self, rng):
        for _ in range(40):
            a = complex(*rng.uniform(-2, 2, 2))
            phi = rng.uniform(0, 2 * math.pi)
            variants = [
                HalfClosedHalfPlane(a, phi + dphi, sign)
                for dphi in (0.0, math.pi)
                for sign in (+1, -1)
            ]
            z_off = a + complex(*rng.uniform(0.1, 1.5, 2)) * complex(
                math.cos(phi), math.sin(phi)
            )
            n_in = sum(hchp_member(H, z_off) is Verdict.IN for H in variants)
            assert n_in == 2
            # a point on the line, away from the anchor
            t = phi + math.pi / 2
            dx, dy = canonical_dirs(*snap_dirs(np.cos(t), np.sin(t)))
            z_line = a + rng.uniform(0.2, 2.0) * complex(dx, dy)
            verdicts = [hchp_member(H, z_line) for H in variants]
            # trig dirt can land the constructed point in the band
            if Verdict.UNCERTAIN not in verdicts:
                assert sum(v is Verdict.IN for v in verdicts) == 2

    def test_complement_pair_covers_plane(self, rng):
        for _ in range(40):
            a = complex(*rng.uniform(-1, 1, 2))
            phi = rng.uniform(0, 2 * math.pi)
            h1 = HalfClosedHalfPlane(a, phi, +1)
            h2 = HalfClosedHalfPlane(a, phi + math.pi, -1)
            for _ in range(20):
                z = complex(*rng.uniform(-3, 3, 2))
                v1, v2 = hchp_member(h1, z), hchp_member(h2, z)
                if Verdict.UNCERTAIN in (v1, v2):
                    continue
                assert (v1 is Verdict.IN) != (v2 is Verdict.IN) or z == a
            assert hchp_member(h1, a) is Verdict.IN and hchp_member(h2, a) is Verdict.IN

    def test_construction_coerces_and_checks(self):
        H = HalfClosedHalfPlane(np.float64(0.5), np.int64(3), 1)
        assert type(H.anchor) is complex and H.anchor == 0.5
        assert type(H.normal_angle) is float and H.normal_angle == 3.0
        P = ClosedHalfPlane(1, np.float64(-math.pi / 2))
        assert type(P.anchor) is complex and type(P.normal_angle) is float
        assert P.normal_angle == 3 * math.pi / 2
        with pytest.raises(ValueError, match="ray_sign"):
            HalfClosedHalfPlane(0j, 0.0, 1.5)
        for sign in (True, False, np.True_):  # bools are ints to `in`, not ray signs
            with pytest.raises(ValueError, match="ray_sign"):
                HalfClosedHalfPlane(0j, 0.0, sign)
        for plane in (lambda a: HalfClosedHalfPlane(a, 0.0, 1), lambda a: ClosedHalfPlane(a, 0.0)):
            with pytest.raises(ValueError, match="anchor must have finite coordinates"):
                plane(complex(math.nan, 0.0))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_normal_angle_must_be_finite(self, angle):
        # a NaN angle gave the normal (nan, nan), on which dim_ran_closed
        # raised UncertainGeometry; an infinite one stored normal_angle nan
        for plane in (
            lambda: HalfClosedHalfPlane(0j, angle, 1),
            lambda: ClosedHalfPlane(0j, angle),
            lambda: ClosedHalfPlane(0j, angle, normal=(1.0, 0.0)),
        ):
            with pytest.raises(ValueError, match="normal_angle must be finite"):
                plane()
        with pytest.raises(ValueError, match="normal_angle must be finite"):
            dim_ran_closed(durszt_model(2), ClosedHalfPlane(0, angle))

    @pytest.mark.parametrize(
        "angle",
        ["0", b"1", True, np.bool_(True), 1 + 0j, np.complex128(0.3 + 1j), None, 10**400],
        ids=["str", "bytes", "bool", "numpy bool", "complex", "numpy complex", "None", "huge int"],
    )
    def test_normal_angle_must_be_a_real_number(self, angle):
        # float() takes the string, the bytes, the bools and the NumPy complex
        # (dropping its imaginary part), but none is an angle; the rest it
        # refuses with TypeError or OverflowError
        for plane in (
            lambda: HalfClosedHalfPlane(0j, angle, 1),
            lambda: ClosedHalfPlane(0j, angle),
            lambda: ClosedHalfPlane(0j, angle, normal=(1.0, 0.0)),
        ):
            with pytest.raises(ValueError, match="normal_angle must be finite"):
                plane()

    @pytest.mark.parametrize(
        "normal, message",
        [
            ((0.0, 0.0), "finite and nonzero"),
            ((math.nan, 1.0), "finite and nonzero"),
            ((0.0, 1.0), "does not point along"),
        ],
        ids=["zero", "nan", "contradicting"],
    )
    def test_supplied_normal_must_agree_with_the_angle(self, normal, message):
        # a normal that contradicts normal_angle used to decide dimensions for
        # the other plane, and a zero normal ended in ZeroDivisionError
        for plane in (
            lambda: HalfClosedHalfPlane(0.5, 0.0, 1, normal=normal),
            lambda: ClosedHalfPlane(0.5, 0.0, normal=normal),
        ):
            with pytest.raises(ValueError, match=message):
                plane()
        # an agreeing normal need not be unit; the angle of a tiny negative
        # one reduces to 2 pi, a second reduction to 0, and both agree
        assert ClosedHalfPlane(0j, math.atan2(1.0, -2.0), normal=(-2.0, 1.0)).normal == (-2.0, 1.0)
        angle = math.atan2(-1e-16, 1.0)
        for a in (angle, angle % (2 * math.pi)):
            assert ClosedHalfPlane(0j, a, normal=(1.0, -1e-16)).normal == (1.0, -1e-16)

    def test_canonical_dir(self):
        vx, vy = canonical_dirs(np.array([-2.0, 0.0, 0.0]), np.array([0.0, 3.0, -1.0]))
        assert list(zip(vx, vy)) == [(2.0, 0.0), (0.0, -3.0), (0.0, -1.0)]


class TestConvexHull:
    def test_square(self):
        poly = convex_hull([1, 1j, -1, -1j])
        assert set(poly.vertices) == {1, 1j, -1, -1j}
        assert len(poly.vertices) == 4
        assert poly.area() == pytest.approx(2.0)

    def test_degenerate_point(self):
        poly = convex_hull([0j, 0j, 0j])
        assert poly.vertices == (0j,)

    def test_collinear_segment(self):
        poly = convex_hull([0j, 1 + 0j, 0.5 + 0j])
        assert set(poly.vertices) == {0j, 1 + 0j}

    def test_idempotent_and_order_free(self, rng):
        pts = [complex(*rng.uniform(-1, 1, 2)) for _ in range(12)]
        h1 = convex_hull(pts)
        h2 = convex_hull(list(reversed(pts)))
        assert h1.vertices == h2.vertices
        assert convex_hull(list(h1.vertices)).vertices == h1.vertices
        for p in pts:
            assert classify(h1, p) in (Verdict.IN, Verdict.UNCERTAIN)

    @pytest.mark.parametrize("scale", [1e160, 1e307])
    def test_huge_coordinates_keep_their_vertices(self, scale):
        # products of coordinate differences beyond about 1e154 once
        # overflowed to inf, and inf - inf failed every turn test
        pts = [-1 + 0j, 1 + 0j, 0.2757 + 0.3j, -0.2757 + 0.3j, 0.1 + 0.1j]
        base = convex_hull(pts).vertices
        assert len(base) == 4
        assert convex_hull([p * scale for p in pts]).vertices == tuple(v * scale for v in base)

    def test_classify_exact_boundary(self):
        tri = convex_hull([1, 1j, -1])
        assert classify(tri, 0j) is Verdict.IN  # exactly on the bottom edge
        assert classify(tri, complex(0, 1e-12)) is Verdict.UNCERTAIN
        assert classify(tri, complex(0, -0.5)) is Verdict.OUT
        assert classify(tri, complex(0, 0.3)) is Verdict.IN


class TestHalfPlaneIntersection:
    def test_strip_degenerates_to_segment(self):
        planes = [
            ClosedHalfPlane(0.5, math.pi),  # Re <= 0.5
            ClosedHalfPlane(-0.2, 0.0),  # Re >= -0.2
            ClosedHalfPlane(0, 3 * math.pi / 2),  # Im <= 0
            ClosedHalfPlane(0, math.pi / 2),  # Im >= 0
        ]
        poly = halfplane_intersection(plane_lines(planes), bound=2.0)
        assert len(poly.vertices) == 2
        xs = sorted(v.real for v in poly.vertices)
        assert xs == pytest.approx([-0.2, 0.5])
        assert all(abs(v.imag) < 1e-9 for v in poly.vertices)

    def test_empty_plane_list_gives_box(self):
        poly = halfplane_intersection([], bound=1.0)
        assert len(poly.vertices) == 4
        assert {(round(v.real), round(v.imag)) for v in poly.vertices} == {
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        }

    def test_disjoint_planes_empty(self):
        planes = [ClosedHalfPlane(-1, math.pi), ClosedHalfPlane(1, 0.0)]
        assert halfplane_intersection(plane_lines(planes), bound=3.0).is_empty

    def test_bound_and_lines_are_checked(self):
        for bound in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bound must be positive"):
                halfplane_intersection([], bound)
        for bad in (math.nan, math.inf, -math.inf):
            for line in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (1.0, 0.0, bad)):
                with pytest.raises(ValueError, match="line entries must be finite"):
                    halfplane_intersection([(0.0, 1.0, -0.5), line], 2.0)
        for line in ((0.0, 0.0, 0.5), (2.0, 0.0, 0.5), (0.6, 0.8 + 1e-9, 0.0)):
            with pytest.raises(ValueError, match="line normals must be unit vectors"):
                halfplane_intersection([(0.0, 1.0, -0.5), line], 2.0)

    def test_output_inside_every_plane(self, rng):
        for _ in range(20):
            planes = [
                ClosedHalfPlane(
                    complex(*rng.uniform(-0.5, 0.5, 2)), rng.uniform(0, 2 * math.pi)
                )
                for _ in range(int(rng.integers(1, 8)))
            ]
            poly = halfplane_intersection(plane_lines(planes), bound=2.0)
            for v in poly.vertices:
                for P in planes:
                    nx, ny = P.normal
                    s = nx * (v.real - P.anchor.real) + ny * (v.imag - P.anchor.imag)
                    assert s >= -1e-9 * math.hypot(nx, ny)


def test_hausdorff_distance():
    sq1 = convex_hull([0, 1, 1 + 1j, 1j])
    sq2 = convex_hull([0.5, 1.5, 1.5 + 1j, 0.5 + 1j])
    assert hausdorff_distance(sq1, sq2) == pytest.approx(0.5)
    assert hausdorff_distance(sq1, sq1) == 0.0
    assert hausdorff_distance(ConvexPolygon(()), ConvexPolygon(())) == 0.0
    assert math.isinf(hausdorff_distance(sq1, ConvexPolygon(())))
