import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hrnr
from hrnr import (
    ClosedHalfPlane,
    CoincidentEndpoints,
    NoSeparatingAngle,
    NotContraction,
    NotNormal,
    NotOnSegment,
    NotStrictContraction,
    NoWuWitness,
    Atom,
    Segment,
    SpectralMeasureModel,
    Verdict,
    WuVerdict,
    conjecture_check,
    dilation,
    dilation_intersection,
    excluding_certificate,
    excluding_dilation_matrix,
    from_normal_matrix,
    halmos,
    hausdorff_distance,
    member,
    region,
    scalar_dilation,
    wu_check,
)
from hrnr.presets import durszt_model, square_region_model

from clip_oracle import exact_clip
from conftest import haar_unitary, random_normal_contraction, random_normal_matrix


class TestHalmos:
    def test_zero(self):
        art = halmos(np.array([[0j]]), 0.0)
        assert np.allclose(art.matrix, [[0, -1], [1, 0]])
        assert art.defect_rank == 1

    def test_half(self):
        art = halmos(np.array([[0.5 + 0j]]), 0.0)
        want = [[0.5, -math.sqrt(0.75)], [math.sqrt(0.75), 0.5]]
        assert np.allclose(art.matrix, want)

    def test_identity_any_alpha(self):
        art = halmos(np.eye(3, dtype=complex), 0.7)
        U = art.matrix
        assert np.allclose(U[:3, :3], np.eye(3))
        assert np.allclose(U[3:, :3], 0)
        assert np.allclose(U[:3, 3:], 0)
        assert np.allclose(U[3:, 3:], np.exp(-1.4j) * np.eye(3))
        assert art.defect_rank == 0

    def test_residuals_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            T = random_normal_contraction(n, rng)
            alpha = rng.uniform(0, 2 * math.pi)
            art = halmos(T, alpha)
            assert art.unitarity_residual <= 1e-10
            assert art.compression_residual <= 1e-10

    def test_not_contraction(self):
        with pytest.raises(NotContraction):
            halmos(np.array([[1.5 + 0j]]), 0.0)

    def test_unitary_has_no_defect(self):
        # singular values of 1 computed a few ulps off are rounding, not defect
        rng = np.random.default_rng(0)
        assert [halmos(haar_unitary(6, rng)).defect_rank for _ in range(200)] == [0] * 200

    def test_defect_rank_counts_singular_values_below_one(self):
        assert halmos(np.diag([1.0, 0.5]).astype(complex)).defect_rank == 1


class TestScalarDilation:
    def test_midpoint(self):
        U = scalar_dilation(0, 1, -1)
        assert np.allclose(U, [[0, 1], [1, 0]], atol=1e-12)

    def test_endpoint(self):
        xi, eta = np.exp(0.3j), np.exp(2.1j)
        U = scalar_dilation(xi, xi, eta)
        assert np.allclose(U, np.diag([xi, eta]))

    def test_three_quarters(self):
        U = scalar_dilation(0.5, 1, -1)
        want = [[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]]
        assert np.allclose(U, want)

    def test_eigenvalues_and_unitarity(self, rng):
        for _ in range(15):
            xi = np.exp(2j * math.pi * rng.uniform())
            eta = np.exp(2j * math.pi * rng.uniform())
            if abs(xi - eta) < 1e-3:
                continue
            t = rng.uniform()
            d = t * xi + (1 - t) * eta
            U = scalar_dilation(d, xi, eta)
            assert abs(U[0, 0] - d) < 1e-12
            assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
            got = sorted(np.linalg.eigvals(U), key=lambda z: (z.real, z.imag))
            want = sorted([xi, eta], key=lambda z: (z.real, z.imag))
            assert np.allclose(got, want)

    def test_errors(self):
        with pytest.raises(NotOnSegment):
            scalar_dilation(0.5j, 1, -1)
        with pytest.raises(CoincidentEndpoints):
            scalar_dilation(1, 1, 1)
        with pytest.raises(NotOnSegment):
            scalar_dilation(2, 1, -1)
        with pytest.raises(NotOnSegment):
            scalar_dilation(0.5, 0.5, -1)


class TestExcludingDilation:
    def test_two_real_atoms(self):
        T = np.diag([0.5, -0.5]).astype(complex)
        art = excluding_dilation_matrix(T, 1, 0.8 + 0j)
        assert art.unitarity_residual <= 1e-10
        model = from_normal_matrix(art.matrix)
        assert member(model, 1, 0.8 + 0j).value is Verdict.OUT

    def test_zero_contraction(self):
        art = excluding_dilation_matrix(np.array([[0j]]), 1, 1 + 0j)
        model = from_normal_matrix(art.matrix)
        assert member(model, 1, 1 + 0j).value is Verdict.OUT
        eigs = sorted(np.linalg.eigvals(art.matrix), key=lambda z: z.imag)
        assert np.allclose(np.abs(eigs), 1.0)

    def test_imaginary_direction(self):
        T = np.diag([0.3j]).astype(complex)
        art = excluding_dilation_matrix(T, 1, -0.9j)
        model = from_normal_matrix(art.matrix)
        assert member(model, 1, -0.9j).value is Verdict.OUT

    def test_inside_point_rejected(self):
        T = np.diag([0.5, -0.5]).astype(complex)
        with pytest.raises(NoSeparatingAngle):
            excluding_dilation_matrix(T, 1, 0j)

    def test_rank_two_hard_case(self, rng):
        # points inside the numerical range but outside the rank-2 range
        # need the block construction; the rotated Halmos family misses them
        T = np.diag([0.9, 0.5, -0.2]).astype(complex)
        z = 0.7 + 0j
        art = excluding_dilation_matrix(T, 2, z)
        assert art.unitarity_residual <= 1e-10
        assert art.compression_residual <= 1e-10
        assert member(from_normal_matrix(art.matrix), 2, z).value is Verdict.OUT

    def test_not_normal(self):
        with pytest.raises(NotNormal):
            excluding_dilation_matrix(np.array([[0, 0.5], [0, 0]], dtype=complex), 1, 0.9 + 0j)

    def test_rank_outside_dimension(self):
        T = np.diag([0.5, -0.5]).astype(complex)
        for k in (0, 3):
            with pytest.raises(ValueError):
                excluding_dilation_matrix(T, k, 2 + 0j)

    def test_unimodular_eigenvalue(self):
        # the rank-2 range is {0.5}; the unimodular eigenvalue 1 beyond the
        # separating level is split off by the 2x2 dilation diag(1, eta)
        T = np.diag([1, 0.5, -0.5]).astype(complex)
        art = excluding_dilation_matrix(T, 2, 0.8 + 0j)
        assert art.unitarity_residual <= 1e-10
        assert art.compression_residual <= 1e-10
        assert member(from_normal_matrix(art.matrix), 2, 0.8 + 0j).value is Verdict.OUT

    def test_rank_one_is_rotated_halmos(self, rng):
        for _ in range(20):
            T = random_normal_contraction(int(rng.integers(1, 5)), rng)
            z = 1.2 * np.exp(2j * math.pi * rng.uniform())
            art = excluding_dilation_matrix(T, 1, z)
            assert np.abs(art.matrix - halmos(T, art.alpha).matrix).max() <= 1e-12

    def test_rank_three_beyond_support_level(self, rng):
        for _ in range(10):
            T, eigs = random_normal_matrix(8, rng, rmax=0.85, rmin=0.05)
            for xi in rng.uniform(0, 2 * math.pi, 3):
                h = np.sort(np.real(np.exp(1j * xi) * eigs))[-3]
                z = complex(np.exp(-1j * xi) * (h + 0.02))
                art = excluding_dilation_matrix(T, 3, z)
                assert art.unitarity_residual <= 1e-10
                assert art.compression_residual <= 1e-10
                assert member(from_normal_matrix(art.matrix), 3, z).value is Verdict.OUT


    def test_points_just_outside_edge_midpoints(self):
        # 1e-3 beyond the midpoint of every edge longer than 0.05 of the
        # exact rank-k range: the arc of separating directions is narrower
        # than the spacing of a direction grid
        path = Path(__file__).resolve().parent.parent / "hrnrbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("hrnrbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        rng = np.random.default_rng(30)
        cases = 0
        for _ in range(30):
            T, eigs = random_normal_matrix(8, rng, rmax=0.85, rmin=0.05)
            for k in (1, 2):
                vs = workloads.rank_k_polygon(eigs, k)
                for a, b in zip(vs, np.roll(vs, -1)):
                    if abs(b - a) > 0.05:
                        z = complex(0.5 * (a + b) - 1e-3j * (b - a) / abs(b - a))
                        art = excluding_dilation_matrix(T, k, z)
                        assert art.unitarity_residual <= 1e-10
                        cases += 1
        assert cases >= 250

    def test_separating_direction_off_every_grid(self):
        # the square's right edge has normal angle -0.0031, which no
        # uniform grid of directions contains
        ph = np.exp(0.0031j)
        T = np.diag([0.6 + 0.6j, 0.6 - 0.6j, -0.6 + 0.6j, -0.6 - 0.6j]) * ph
        for d in (1e-3, 1e-4, 1e-6):
            z = complex((0.6 + d + 0.2j) * ph)
            art = excluding_dilation_matrix(T, 1, z)
            assert art.alpha == pytest.approx(-0.0031, abs=1e-12)
            assert member(from_normal_matrix(art.matrix), 1, z).value is Verdict.OUT


class TestExcludingCertificate:
    def _model(self):
        return SpectralMeasureModel(
            atoms=(Atom(0.5 + 0j, 1),),
            pieces=(Segment(-0.9j, -0.1j),),
            support_radius=1.0,
        )

    def test_worked_example(self):
        cert = excluding_certificate(
            self._model(), 2, 0.5 + 0j, plane=ClosedHalfPlane(0.5 + 0j, 0.0)
        )
        (d, xi, eta, t), = cert.scalar_dilations
        assert d == 0.5 + 0j
        assert abs(eta - (-1)) < 1e-12
        assert abs(xi - 1) < 1e-12
        assert t == pytest.approx(0.75)
        assert cert.certified_dim == 1
        assert cert.beta == pytest.approx(0.0)
        assert cert.mu == pytest.approx(0.5)

    def test_arithmetic_invariants(self):
        cert = excluding_certificate(self._model(), 2, 0.5 + 0j)
        assert cert.certified_dim == 1
        for d, xi, eta, t in cert.scalar_dilations:
            assert 0.0 <= t <= 1.0
            assert abs(d - (t * xi + (1 - t) * eta)) <= 1e-12
            assert abs(abs(xi) - 1) <= 1e-12 and abs(abs(eta) - 1) <= 1e-12
            nx, ny = cert.plane.normal
            s_xi = nx * (xi.real - cert.point.real) + ny * (xi.imag - cert.point.imag)
            s_eta = nx * (eta.real - cert.point.real) + ny * (eta.imag - cert.point.imag)
            assert s_xi >= -1e-9 and s_eta < 0

    def test_no_atoms_in_plane(self):
        m = SpectralMeasureModel(pieces=(Segment(-0.9j, -0.1j),), support_radius=1.0)
        cert = excluding_certificate(m, 2, 0.5 + 0j, plane=ClosedHalfPlane(0.5 + 0j, 0.0))
        assert cert.scalar_dilations == ()
        assert cert.certified_dim == 0

    def test_durszt_has_no_witness(self):
        with pytest.raises(NoWuWitness):
            excluding_certificate(durszt_model(2), 2, 0.5 + 0j)


class TestWuCheck:
    def test_durszt_strict(self):
        for k in (1, 2, 3):
            model = durszt_model(k)
            report = wu_check(model, k, region(model, k, 64))
            assert report.verdict is WuVerdict.STRICT_CONTAINMENT_PREDICTED
            assert any(
                e.note is not None and abs(e.point.imag) < 1e-12
                for e in report.evidence
            )

    def test_matrix_equality_vacuous(self):
        model = from_normal_matrix(np.diag([0.5, -0.5, 0.3j]).astype(complex))
        report = wu_check(model, 1, region(model, 1, 96))
        assert report.verdict is WuVerdict.EQUALITY_PREDICTED
        assert all(e.witness is not None for e in report.evidence)

    def test_square_region_strict(self):
        model = square_region_model(2)
        report = wu_check(model, 2, region(model, 2, 64))
        assert report.verdict is WuVerdict.STRICT_CONTAINMENT_PREDICTED
        notes = [e for e in report.evidence if e.note is not None]
        assert notes and all(abs(e.point.real - 0.5) < 1e-9 for e in notes)

    def test_rejects_expansive_mass(self):
        m = SpectralMeasureModel(atoms=(Atom(1.5 + 0j, 1),), support_radius=2.0)
        with pytest.raises(NotStrictContraction):
            wu_check(m, 1, region(m, 1, 16))


class TestConjecture:
    def test_real_pair(self):
        T = np.diag([0.5, -0.5]).astype(complex)
        res = conjecture_check(T, 1, 0.6 + 0j, 360)
        assert res.condition_holds
        # verify the reported angle satisfies the scanned condition
        A = np.exp(1j * res.theta) * T - 0.6 * np.eye(2)
        evals = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        assert np.sum(evals >= -1e-8) < 1

    def test_interior_point_fails(self):
        T = np.diag([0.5, -0.5]).astype(complex)
        assert not conjecture_check(T, 1, 0j, 360).condition_holds

    def test_zero(self):
        res = conjecture_check(np.array([[0j]]), 1, 0.5 + 0j, 360)
        assert res.condition_holds

    def test_strictness_required(self):
        with pytest.raises(NotStrictContraction):
            conjecture_check(np.eye(2, dtype=complex), 1, 2 + 0j, 8)


# The quarter-integer lattice points of the closed unit disk: every
# difference, pair normal i * conj(d_i - d_j) and projection of them is a
# dyadic rational, exact in floats.
_LATTICE = [complex(a, b) / 4 for a in range(-4, 5) for b in range(-4, 5) if a * a + b * b <= 16]


def _rank_k_planes(eigs, k):
    """The closed half planes Re(w z) <= (k-th largest Re(w d) over the
    eigenvalues d, with multiplicity) for w = +-i conj(d_i - d_j) over every
    pair of distinct eigenvalues and the four axis directions, each
    anchored at an eigenvalue on its line."""
    ws = {1, 1j, -1, -1j}
    for a in eigs:
        for b in eigs:
            if a != b:
                ws.add(1j * (a - b).conjugate())
    planes = []
    for w in ws:
        def proj(d, w=w):
            return Fraction(w.real) * Fraction(d.real) - Fraction(w.imag) * Fraction(d.imag)

        anchor = sorted(eigs, key=proj, reverse=True)[k - 1]
        nx, ny = -w.real, w.imag
        planes.append(ClosedHalfPlane(anchor, math.atan2(ny, nx), normal=(nx, ny)))
    return planes


def _exact_hull(points):
    """Vertices of the convex hull of rational points, duplicate and
    collinear ones dropped (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


class TestDilationIntersection:
    def test_exact_on_quarter_lattice(self, rng):
        # a normal T's planes give its rank-k range exactly: the vertices
        # match rational clipping over every pair normal within 1e-12 *
        # bound, and every rank above n is empty
        cases = [
            [0.5 + 0.25j],
            [0.25j] * 3,  # scalar
            [1, -1, 1j, -1j, 0],  # unimodular, and the center on two lines
            [-0.75, -0.25, 0.25, 0.5, 0.5, 0.25 + 0.5j],  # collinear, repeated
            [0.5, -0.5, 0.25 + 0.25j, -0.25 - 0.25j, 0.5j, -0.5j],  # pairs through 0
        ]
        cases += [list(rng.choice(_LATTICE, int(rng.integers(2, 8)))) for _ in range(30)]
        for i, eigs in enumerate(cases):
            eigs = [complex(d) for d in eigs]
            n = len(eigs)
            T = np.diag(eigs).astype(complex)
            if i % 2:
                Q = haar_unitary(n, rng)
                T = (Q * np.array(eigs)) @ Q.conj().T
            bound = dilation._op_norm(T) + 1.0
            for k in range(1, 2 * n + 1):
                poly = dilation_intersection(T, k, 0, 0)
                if k > n:
                    assert poly.is_empty
                    continue
                exact = _exact_hull(exact_clip(_rank_k_planes(eigs, k), 2.0))
                assert len(poly.vertices) == len(exact)
                for x, y in exact:
                    z = complex(float(x), float(y))
                    assert min(abs(v - z) for v in poly.vertices) <= 1e-12 * bound

    def test_zero_contraction_collapses(self):
        poly = dilation_intersection(np.array([[0j]]), 1, n_samples=10, n_alpha=360)
        assert max(abs(v) for v in poly.vertices) <= 2 * math.pi / 360

    def test_two_atoms_segment(self):
        T = np.diag([0.5, -0.5]).astype(complex)
        poly = dilation_intersection(T, 1, n_samples=30, n_alpha=720)
        est = region(from_normal_matrix(T), 1, 180)
        assert hausdorff_distance(poly, est.polygon) <= 1e-2

    def test_unitary_fixed_point(self):
        # exactly the triangle of the eigenvalues, with no grid corners
        T = np.diag([1j, -1j, 1]).astype(complex)
        poly = dilation_intersection(T, 1, n_samples=10, n_alpha=180)
        assert hausdorff_distance(poly, hrnr.convex_hull([1j, -1j, 1])) <= 1e-9

    def test_unimodular_eigenvalue_split_off(self):
        # the block dilations split off the eigenvalue 1 and pin the
        # intersection to the rank-2 range {0.5}
        T = np.diag([1, 0.5, -0.5]).astype(complex)
        poly = dilation_intersection(T, 2, n_samples=10, n_alpha=90)
        assert max(abs(v - 0.5) for v in poly.vertices) <= 1e-9

    def test_contains_compressed_range(self, rng):
        for _ in range(3):
            T = random_normal_contraction(3, rng)
            est = region(from_normal_matrix(T), 2, 180)
            poly = dilation_intersection(T, 2, n_samples=20, n_alpha=360)
            for v in est.polygon.vertices:
                assert poly.signed_distance(v) <= 1e-6

    def test_dilation_monotonicity(self, rng):
        # members of the compression's range stay members for every dilation
        T = random_normal_contraction(3, rng)
        model = from_normal_matrix(T)
        est = region(model, 1, 64)
        pts = [z for z, v in est.boundary_report if v is Verdict.IN]
        interior = [
            0.5 * (est.polygon.vertices[0] + est.polygon.vertices[len(est.polygon.vertices) // 2])
        ]
        art = halmos(T, 1.234)
        up = from_normal_matrix(art.matrix)
        for z in pts + interior:
            if member(model, 1, z).value is Verdict.IN:
                assert member(up, 1, z).value in (Verdict.IN, Verdict.UNCERTAIN)


class TestDecompositionMemo:
    """One eigendecomposition per T: ``_unitary_eigendecomposition``
    remembers its last result, keyed by the matrix's shape and bytes."""

    @staticmethod
    def _count(monkeypatch):
        counts = {"eig": 0, "svd": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_one_eigensolve_per_operator(self, rng, monkeypatch):
        counts = self._count(monkeypatch)
        T = random_normal_contraction(6, rng)
        excluding_dilation_matrix(T, 1, 0.99 + 0j)
        dilation_intersection(T, 1, 2, 4)
        assert counts == {"eig": 1, "svd": 1}

    def test_one_breakpoint_scan_per_operator_and_rank(self, rng, monkeypatch):
        # the L_k breakpoints of the last (T, k) are kept beside its
        # decomposition; a new k or another eigenvalue array scans again
        scans = []
        real = dilation._pair_normals
        monkeypatch.setattr(dilation, "_pair_normals", lambda vals: scans.append(1) or real(vals))
        dilation._LAST_DECOMPOSITION.clear()  # an earlier test may have left this T
        T = random_normal_contraction(6, rng)
        excluding_dilation_matrix(T, 1, 0.99 + 0j)
        dilation_intersection(T, 1, 2, 4)
        assert len(scans) == 1
        vals, _ = dilation._unitary_eigendecomposition(T)
        kept = dilation._breakpoints(vals, 1)
        assert len(scans) == 1 and not kept.flags.writeable
        assert np.array_equal(dilation._breakpoints(vals.copy(), 1), kept)
        assert len(scans) == 2
        dilation_intersection(T, 2, 2, 4)
        assert len(scans) == 3

    def test_in_place_change_misses(self, rng, monkeypatch):
        counts = self._count(monkeypatch)
        T = random_normal_contraction(5, rng)
        vals, _ = dilation._unitary_eigendecomposition(T)
        T *= 0.5
        new_vals, new_V = dilation._unitary_eigendecomposition(T)
        assert counts["eig"] == 2
        assert not np.array_equal(new_vals, vals)
        dilation._LAST_DECOMPOSITION.clear()
        fresh_vals, fresh_V = dilation._unitary_eigendecomposition(T.copy())
        assert np.array_equal(new_vals, fresh_vals) and np.array_equal(new_V, fresh_V)

    def test_result_is_read_only(self, rng):
        vals, V = dilation._unitary_eigendecomposition(random_normal_contraction(4, rng))
        with pytest.raises(ValueError):
            V[0, 0] = 1.0
        with pytest.raises(ValueError):
            vals[0] = 0.0

    def test_non_normal_fails_every_call(self):
        T = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
        for _ in range(2):
            with pytest.raises(NotNormal):
                dilation._unitary_eigendecomposition(T)
            with pytest.raises(NotNormal):
                excluding_dilation_matrix(T, 1, 0.9 + 0j)
