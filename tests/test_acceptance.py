"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with ``pytest tests/test_acceptance.py -s`` to see the
status lines as they complete."""

import math
import time
from itertools import combinations

import numpy as np
import pytest

import hrnr
from hrnr import (
    INF,
    RANK_INF,
    Verdict,
    convex_hull,
    dilation_intersection,
    excluding_dilation_matrix,
    from_normal_matrix,
    member,
    region,
    transform_model,
    wu_check,
)
from hrnr.dilation import WuVerdict
from hrnr.presets import (
    bilateral_shift_model,
    durszt_model,
    infinity_empty_model,
)

from geometry_oracle import hausdorff_distance, signed_distance
from matrix_oracle import ckz_member
from conftest import (
    dense_member,
    haar_unitary,
    random_model,
    random_normal_contraction,
    random_normal_matrix,
)


class Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.name}: {status} in {dt:.2f}s (limit {self.limit}s)")
        assert dt < self.limit, f"{self.name} exceeded {self.limit}s ({dt:.2f}s)"
        return False


def test_criterion_1_hermitian_interval():
    rng = np.random.default_rng(101)
    with Timer("1 (hermitian interval)", 5.0):
        for _ in range(50):
            n = 6
            vals = np.sort(rng.uniform(-1.5, 1.5, n))[::-1]
            Q = haar_unitary(n, rng)
            M = Q @ np.diag(vals).astype(complex) @ Q.conj().T
            M = 0.5 * (M + M.conj().T)
            model = from_normal_matrix(M)
            eig_desc = np.sort(np.linalg.eigvalsh(M))[::-1]  # oracle
            for k in (1, 2, 3):
                est = region(model, k, 32)
                lo, hi = eig_desc[n - k], eig_desc[k - 1]
                assert all(abs(v.imag) <= 1e-8 for v in est.polygon.vertices)
                xs = [v.real for v in est.polygon.vertices]
                assert abs(min(xs) - lo) <= 1e-8
                assert abs(max(xs) - hi) <= 1e-8


def test_criterion_2_ckz_equivalence():
    rng = np.random.default_rng(202)
    with Timer("2 (subset-hull vs sweep)", 30.0):
        disagreements = 0
        for _ in range(30):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(3, n) + 1))
            M, eigs = random_normal_matrix(n, rng)
            model = from_normal_matrix(M)
            hulls = [
                convex_hull([complex(eigs[i]) for i in idx])
                for idx in combinations(range(n), n - k + 1)
            ]
            count = 0
            while count < 200:
                z = complex(*rng.uniform(-1.7, 1.7, 2))
                if abs(max(signed_distance(h, z) for h in hulls)) <= 1e-6:
                    continue
                count += 1
                if member(model, k, z).value is not ckz_member(M, k, z):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_3_bilateral_shift():
    model = bilateral_shift_model()
    with Timer("3 (bilateral shift disk)", 5.0):
        angles = np.linspace(0.05, 2 * math.pi, 16)
        inside = [
            r * complex(math.cos(t), math.sin(t))
            for r in (0.0, 0.3, 0.7, 0.9, 0.995)
            for t in angles
        ]
        outside = [
            r * complex(math.cos(t), math.sin(t))
            for r in (1.0, 1.02, 1.3)
            for t in angles
        ]
        for k in (1, 2, 5, RANK_INF):
            for z in inside:
                assert member(model, k, z).value is Verdict.IN
            for z in outside:
                assert member(model, k, z).value is Verdict.OUT


def test_criterion_4_durszt():
    with Timer("4 (durszt reproduction)", 10.0):
        for k in (1, 2, 3):
            model = durszt_model(k)
            expected = {
                0j: Verdict.IN,
                0.5 + 0j: Verdict.OUT,
                -0.5 + 0j: Verdict.OUT,
                0.3 + 0.4j: Verdict.IN,
                1j: Verdict.OUT,
            }
            for z, want in expected.items():
                assert member(model, k, z).value is want, (k, z)
            report = wu_check(model, k, region(model, k, 64))
            assert report.verdict is WuVerdict.STRICT_CONTAINMENT_PREDICTED
            assert any(
                e.note is not None and abs(e.point.imag) <= 1e-12
                for e in report.evidence
            )


def test_criterion_5_infinity_empty():
    model = infinity_empty_model()
    with Timer("5 (empty rank-infinity range)", 10.0):
        grid = [
            complex(x, y)
            for x in np.linspace(-1, 1, 20)
            for y in np.linspace(-1, 1, 20)
        ]
        assert all(member(model, RANK_INF, z).value is Verdict.OUT for z in grid)
        assert any(member(model, 1, z).value is Verdict.IN for z in grid)


def test_criterion_6_exclusion_dilations():
    rng = np.random.default_rng(606)
    with Timer("6 (exclusion dilations)", 60.0):
        for _ in range(20):
            T = random_normal_contraction(4, rng)
            model = from_normal_matrix(T)
            for k in (1, 2):
                poly = region(model, k, 64).polygon
                samples = []
                while len(samples) < 50:
                    z = complex(*rng.uniform(-1.3, 1.3, 2))
                    if poly.is_empty or signed_distance(poly, z) > 0.08:
                        samples.append(z)
                for z in samples:
                    art = excluding_dilation_matrix(T, k, z)
                    assert art.unitarity_residual <= 1e-10
                    assert art.compression_residual <= 1e-10
                    got = member(from_normal_matrix(art.matrix), k, z).value
                    assert got is Verdict.OUT


def test_criterion_7_dilation_closure():
    rng = np.random.default_rng(707)
    with Timer("7 (dilation intersection closure)", 120.0):
        for _ in range(10):
            # the rank-1 range is the convex hull of the eigenvalues, which
            # the intersection's exact planes give up to rounding; the
            # 180-direction region polygon is an outer approximation of it
            T = random_normal_contraction(4, rng)
            est = region(from_normal_matrix(T), 1, 180)
            poly = dilation_intersection(T, 1)
            hull = convex_hull(list(np.linalg.eigvals(T)))
            assert hausdorff_distance(poly, hull) <= 1e-9
            assert all(signed_distance(est.polygon, v) <= 1e-9 for v in poly.vertices)


def test_criterion_8_wu_positive():
    T = np.diag([0.5, -0.5, 0.3j]).astype(complex)
    with Timer("8 (equality case)", 30.0):
        model = from_normal_matrix(T)
        est = region(model, 1, 96)
        report = wu_check(model, 1, est)
        assert report.verdict is WuVerdict.EQUALITY_PREDICTED
        est180 = region(model, 1, 180)
        poly = dilation_intersection(T, 1)
        assert hausdorff_distance(poly, est180.polygon) <= 1e-2


def test_criterion_9_property_suite():
    rng = np.random.default_rng(909)
    with Timer("9 (randomized property suite)", 120.0):
        violations = 0
        n_models = 100
        for i in range(n_models):
            m = random_model(rng)
            kmax = 3 if m.total_dim == INF else min(3, int(m.total_dim))
            k = int(rng.integers(1, kmax + 1))

            # nesting
            if m.total_dim == INF or k + 1 <= m.total_dim:
                lam = complex(*rng.uniform(-1.2, 1.2, 2))
                up = member(m, k + 1, lam).value
                dn = member(m, k, lam).value
                if up is Verdict.IN and dn is Verdict.OUT:
                    violations += 1
            if m.total_dim == INF:
                lam = complex(*rng.uniform(-1.2, 1.2, 2))
                if (
                    member(m, RANK_INF, lam).value is Verdict.IN
                    and member(m, k, lam).value is Verdict.OUT
                ):
                    violations += 1

            # affine covariance
            a = complex(*rng.uniform(0.4, 1.4, 2))
            b = complex(*rng.uniform(-0.4, 0.4, 2))
            t = transform_model(m, a, b)
            lam = complex(*rng.uniform(-1.0, 1.0, 2))
            v1 = member(m, k, lam).value
            v2 = member(t, k, a * lam + b).value
            if Verdict.UNCERTAIN not in (v1, v2) and v1 is not v2:
                violations += 1

            # convexity
            ins = []
            for _ in range(20):
                lam = complex(*rng.uniform(-1.0, 1.0, 2))
                if member(m, k, lam).value is Verdict.IN:
                    ins.append(lam)
                if len(ins) == 2:
                    break
            if len(ins) == 2:
                mid = 0.5 * (ins[0] + ins[1])
                if member(m, k, mid).value is Verdict.OUT:
                    violations += 1

            # sandwich (both halves)
            if i % 4 == 0:
                n_angles = 64
                est = region(m, k, n_angles)
                poly = est.polygon
                if len(poly.vertices) >= 3:
                    margin = max(1e-8, 4 * m.support_radius * (2 * math.pi / n_angles))
                    cx = sum(poly.vertices) / len(poly.vertices)
                    z = cx
                    if signed_distance(poly, z) < -margin:
                        if member(m, k, z).value is Verdict.OUT:
                            violations += 1
                for _ in range(5):
                    lam = complex(*rng.uniform(-1.0, 1.0, 2))
                    if member(m, k, lam).value is Verdict.IN:
                        if signed_distance(poly, lam) > 1e-8:
                            violations += 1

            # complement pairing on atom-only models
            if not m.pieces and not m.families:
                anchor = complex(*rng.uniform(-1.0, 1.0, 2))
                phi = rng.uniform(0, 2 * math.pi)
                try:
                    d1 = hrnr.dim_ran_hchp(m, hrnr.HalfClosedHalfPlane(anchor, phi, +1))
                    d2 = hrnr.dim_ran_hchp(m, hrnr.HalfClosedHalfPlane(anchor, phi + math.pi, -1))
                    at = sum(x.mult for x in m.atoms if x.location == anchor)
                    if d1 + d2 != m.total_dim + at:
                        violations += 1
                except hrnr.UncertainGeometry:
                    pass

            # critical-angle sufficiency vs dense sweep
            lam = complex(*rng.uniform(-1.0, 1.0, 2))
            if member(m, k, lam).value is not dense_member(m, k, lam)[0]:
                violations += 1

        assert violations == 0
