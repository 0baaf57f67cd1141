import math
from itertools import combinations

import numpy as np
import pytest

import hrnr
from hrnr import (
    INF,
    RANK_INF,
    Atom,
    BoundaryKind,
    NotNormal,
    NotSelfAdjoint,
    RankExceedsDimension,
    Segment,
    SequenceFamily,
    SpectralMeasureModel,
    Verdict,
    ckz_member,
    conjecture_check,
    convex_hull,
    decompose_excluding,
    dilation_intersection,
    dim_ran_hchp,
    excluding_certificate,
    excluding_dilation_matrix,
    from_normal_matrix,
    halmos,
    hchp_at,
    hchp_member,
    is_boundary,
    matrix_lambda_k,
    member,
    member_many,
    region,
    scalar_dilation,
    selfadjoint_interval,
    support_levels,
    wu_check,
)
from hrnr import dilation
from hrnr.core import critical_directions
from hrnr.errors import EigFailure
from hrnr.presets import (
    HERMITIAN_VALUES,
    bilateral_shift_model,
    durszt_model,
    hermitian_model,
    infinity_empty_model,
)

from conftest import dense_member, random_family, random_model, random_normal_matrix


class TestMember:
    def test_durszt_verdicts(self):
        model = durszt_model(2)
        expected = {
            0j: Verdict.IN,
            0.5 + 0j: Verdict.OUT,
            -0.5 + 0j: Verdict.OUT,
            0.3 + 0.4j: Verdict.IN,
            1j: Verdict.OUT,
        }
        for z, want in expected.items():
            assert member(model, 2, z).value is want

    def test_durszt_witness_geometry(self):
        mv = member(durszt_model(2), 2, 0.5 + 0j)
        assert mv.value is Verdict.OUT
        assert mv.witness_dim == 0
        H = mv.witness
        assert H.anchor == 0.5 + 0j
        # the witness must exclude the origin atom and the whole arc
        assert dim_ran_hchp(durszt_model(2), H) == 0

    def test_identity_like_atom(self):
        one = SpectralMeasureModel(atoms=(Atom(1 + 0j, INF),), support_radius=2.0)
        for k in (1, 3, RANK_INF):
            assert member(one, k, 1 + 0j).value is Verdict.IN
            assert member(one, k, 0.99 + 0j).value is Verdict.OUT

    def test_rank_validation(self):
        m = SpectralMeasureModel(atoms=(Atom(0j, 2),), support_radius=1.0)
        with pytest.raises(RankExceedsDimension):
            member(m, 3, 0j)
        with pytest.raises(RankExceedsDimension):
            member(m, RANK_INF, 0j)
        with pytest.raises(ValueError):
            member(m, 0, 0j)
        # booleans are ints to isinstance, but not ranks
        with pytest.raises(ValueError):
            member(m, True, 0j)
        with pytest.raises(ValueError):
            selfadjoint_interval(m, True)

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, math.nan)])
    def test_rejects_non_finite_point(self, z):
        m = SpectralMeasureModel(atoms=(Atom(0j, 2),), support_radius=1.0)
        with pytest.raises(ValueError):
            member(m, 1, z)
        with pytest.raises(ValueError):
            is_boundary(m, 1, z)

    def test_anchor_is_only_support_point(self):
        # no breakpoint direction exists; the sweep must still look at one
        # direction
        m = SpectralMeasureModel(atoms=(Atom(0.5 + 0j, 2.0),), support_radius=1.0)
        vx, vy, _ = critical_directions(m, [0.5 + 0j])
        assert vx.shape == vy.shape == (1,)
        for k in (1, 2):
            assert member(m, k, 0.5 + 0j).value is Verdict.IN
        assert member(m, 1, 0.4 + 0j).value is Verdict.OUT

    def test_tail_clearance_tangents(self):
        # a family tail counts as zero only on lines that clear its limit by
        # twice the last prefix distance, so the tangents from the anchor to
        # |z| = 0.6 bound the directions whose planes miss the whole family
        fam = SequenceFamily(((0.3 + 0j, 1),), 0j, 0.0, "on", 1)
        m = SpectralMeasureModel(
            atoms=(Atom(-0.9 - 0.9j, 1),), families=(fam,), support_radius=3.0
        )
        lam = 0.4 - 0.5j
        vx, vy, _ = critical_directions(m, [lam])
        angles = np.arctan2(vy, vx) % math.pi
        beta = math.atan2(-lam.imag, -lam.real)
        delta = math.asin(0.6 / abs(lam))
        for phi in (beta + delta, beta - delta):
            gap = (angles - phi) % math.pi
            assert np.minimum(gap, math.pi - gap).min() < 1e-12
        mv = member(m, 1, lam)
        assert mv.value is Verdict.OUT
        assert mv.witness_dim == 0
        assert dim_ran_hchp(m, mv.witness) == 0

    def test_short_prefixes_against_dense_oracle(self, rng):
        # 1-3 prefix terms leave a wide circle of unresolved tails around the
        # limit; queries near it cross its tangents
        queries = 0
        while queries < 300:
            base = random_model(rng, allow_families=False)
            fam = random_family(rng, n_prefix=int(rng.integers(1, 4)))
            m = SpectralMeasureModel(base.atoms, base.pieces, (fam,), 3.0)
            for _ in range(5):
                k = int(rng.integers(1, 4))
                lam = fam.limit + complex(*rng.uniform(-0.8, 0.8, 2))
                mv = member(m, k, lam)
                want, dim = dense_member(m, k, lam)
                assert mv.value is want
                if want is Verdict.OUT:
                    assert mv.witness_dim == dim
                    assert dim_ran_hchp(m, mv.witness) == mv.witness_dim < k
                queries += 1

    def test_against_subset_hull_oracle(self, rng):
        # brute-force subset hulls decide membership for normal matrices
        for _ in range(6):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, 3))
            M, eigs = random_normal_matrix(n, rng)
            model = from_normal_matrix(M)
            hulls = [
                convex_hull([complex(eigs[i]) for i in idx])
                for idx in combinations(range(n), n - k + 1)
            ]
            count = 0
            while count < 40:
                z = complex(*rng.uniform(-1.6, 1.6, 2))
                sd = max(h.signed_distance(z) for h in hulls)
                if abs(sd) < 1e-6:
                    continue
                count += 1
                want = Verdict.IN if sd < 0 else Verdict.OUT
                assert member(model, k, z).value is want


class TestMemberInfinity:
    def test_full_circle(self):
        m = bilateral_shift_model()
        assert member(m, RANK_INF, 0.3 + 0j).value is Verdict.IN

    def test_empty_infinity_range(self):
        m = infinity_empty_model()
        assert member(m, RANK_INF, 0j).value is Verdict.OUT
        assert member(m, RANK_INF, -0.05 + 0j).value is Verdict.OUT

    def test_infinite_atom(self):
        m = SpectralMeasureModel(atoms=(Atom(0j, INF),), support_radius=1.0)
        assert member(m, RANK_INF, 0j).value is Verdict.IN

    def test_certain_witness_preferred(self):
        # a plane through the unresolved tail has dimension [0, 0+]; a plane
        # of exact dimension 2 also excludes the point and must be the witness
        fam = SequenceFamily(((-0.29 + 0.01j, 1),), -0.055 - 0.12j, 2.64, "on", 1)
        m = SpectralMeasureModel(
            atoms=(Atom(-0.17 + 0.23j, 1), Atom(0.42 + 0.41j, 1)),
            families=(fam,),
            support_radius=3.0,
        )
        mv = member(m, RANK_INF, 0.085 - 0.225j)
        assert mv.value is Verdict.OUT
        assert dim_ran_hchp(m, mv.witness) == mv.witness_dim == 2


class TestRegion:
    def test_hermitian_degenerates_to_interval(self):
        # the interval is [k-th smallest, k-th largest] of the sorted values
        model = hermitian_model()
        vals = sorted(HERMITIAN_VALUES, reverse=True)
        for k in (1, 2, 3):
            est = region(model, k, 32)
            lo, hi = vals[len(vals) - k], vals[k - 1]
            assert all(abs(v.imag) < 1e-9 for v in est.polygon.vertices)
            xs = [v.real for v in est.polygon.vertices]
            assert min(xs) == pytest.approx(lo, abs=1e-9)
            assert max(xs) == pytest.approx(hi, abs=1e-9)

    def test_full_circle_polygon_is_unit_disk(self):
        est = region(bilateral_shift_model(), 3, 64)
        for v in est.polygon.vertices:
            assert 1.0 <= abs(v) <= 1.0 / math.cos(math.pi / 64) + 1e-12
        assert all(verdict is Verdict.OUT for _, verdict in est.boundary_report)

    def test_single_infinite_atom_point(self):
        m = SpectralMeasureModel(atoms=(Atom(0.3 - 0.2j, INF),), support_radius=2.0)
        est = region(m, 4, 16)
        assert len(est.polygon.vertices) == 1
        assert abs(est.polygon.vertices[0] - (0.3 - 0.2j)) < 1e-9

    def test_preconditions(self):
        m = SpectralMeasureModel(atoms=(Atom(0j, 2),), support_radius=1.0)
        with pytest.raises(RankExceedsDimension):
            region(m, 3, 16)
        with pytest.raises(ValueError):
            region(m, 1, 4)
        with pytest.raises(ValueError):
            region(m, True, 16)


class TestSelfAdjointInterval:
    def test_atoms(self):
        m = SpectralMeasureModel(
            atoms=(Atom(-1 + 0j, 1), Atom(0j, INF), Atom(2 + 0j, 3)),
            support_radius=3.0,
        )
        assert selfadjoint_interval(m, 2) == (0.0, 2.0)
        assert selfadjoint_interval(m, 5) == (0.0, 0.0)

    def test_segment_piece(self):
        m = SpectralMeasureModel(pieces=(Segment(-1 + 0j, 1 + 0j),), support_radius=1.5)
        for k in (1, 4):
            assert selfadjoint_interval(m, k) == (-1.0, 1.0)

    def test_rejects_off_axis(self):
        with pytest.raises(NotSelfAdjoint):
            selfadjoint_interval(durszt_model(1), 1)
        m = SpectralMeasureModel(atoms=(Atom(0.1j, 1),), support_radius=1.0)
        with pytest.raises(NotSelfAdjoint):
            selfadjoint_interval(m, 1)


class TestIsBoundary:
    def test_durszt(self):
        model = durszt_model(2)
        assert is_boundary(model, 2, 0j) is BoundaryKind.BOUNDARY_IN
        assert is_boundary(model, 2, 0.3 + 0.4j) is BoundaryKind.INTERIOR
        assert is_boundary(model, 2, 0.5 + 0j) is BoundaryKind.NOT_MEMBER

    def test_degenerate_point_range(self):
        m = SpectralMeasureModel(atoms=(Atom(0j, INF),), support_radius=1.0)
        assert is_boundary(m, 1, 0j) is BoundaryKind.BOUNDARY_IN


class TestCkz:
    def test_cross_matrix(self):
        M = np.diag([1, 1j, -1, -1j]).astype(complex)
        assert ckz_member(M, 2, 0j) is Verdict.IN
        assert ckz_member(M, 2, 0.05 + 0j) is Verdict.OUT

    def test_rank_one_is_hull(self, rng):
        M, eigs = random_normal_matrix(4, rng)
        hull = convex_hull([complex(e) for e in eigs])
        for _ in range(20):
            z = complex(*rng.uniform(-1.6, 1.6, 2))
            sd = hull.signed_distance(z)
            if abs(sd) < 1e-6:
                continue
            want = Verdict.IN if sd < 0 else Verdict.OUT
            assert ckz_member(M, 1, z) is want

    def test_top_rank_always_out_for_distinct(self):
        M = np.diag([0.1, 0.5, 0.9]).astype(complex)
        for z in (0.1 + 0j, 0.5 + 0j, 0.3 + 0.2j):
            assert ckz_member(M, 3, z) is Verdict.OUT

    def test_not_normal(self):
        with pytest.raises(NotNormal):
            ckz_member(np.array([[0, 1], [0, 0]], dtype=complex), 1, 0j)


class TestMatrixLambdaK:
    def test_diagonal(self):
        M = np.diag([1.0, -1.0]).astype(complex)
        assert matrix_lambda_k(M, 1, 0.0) == pytest.approx(1.0)
        assert matrix_lambda_k(M, 2, 0.0) == pytest.approx(-1.0)

    def test_nilpotent(self):
        M = np.array([[0, 1], [0, 0]], dtype=complex)
        assert matrix_lambda_k(M, 1, 0.0) == pytest.approx(0.5)

    def test_agrees_with_pushforward_scan(self, rng):
        M, _ = random_normal_matrix(5, rng)
        model = from_normal_matrix(M)
        for xi in np.linspace(0, 2 * math.pi, 9):
            for k in (1, 3):
                assert matrix_lambda_k(M, k, xi) == pytest.approx(
                    support_levels(model, k, [xi])[0], abs=1e-9
                )


class TestDecomposeExcluding:
    def test_durszt(self):
        H, r = decompose_excluding(durszt_model(2), 2, 0.5 + 0j)
        assert r == 0
        assert dim_ran_hchp(durszt_model(2), H) == 0

    def test_two_atoms(self):
        m = SpectralMeasureModel(
            atoms=(Atom(0j, 1), Atom(1 + 0j, 5)), support_radius=2.0
        )
        H, r = decompose_excluding(m, 2, 0j)
        assert r == 1
        assert dim_ran_hchp(m, H) == 1

    def test_member_gives_none(self):
        m = SpectralMeasureModel(atoms=(Atom(0j, 1), Atom(1 + 0j, 5)), support_radius=2.0)
        assert decompose_excluding(m, 2, 1 + 0j) is None


_DIAG = np.diag([0.5, -0.5j])

_POINT_FUNCTIONS = {
    "member": lambda z: member(durszt_model(2), 2, z),
    "is_boundary": lambda z: is_boundary(durszt_model(2), 2, z),
    "decompose_excluding": lambda z: decompose_excluding(durszt_model(2), 2, z),
    "excluding_certificate": lambda z: excluding_certificate(durszt_model(2), 2, z),
    "excluding_dilation_matrix": lambda z: excluding_dilation_matrix(_DIAG, 1, z),
    "conjecture_check": lambda z: conjecture_check(_DIAG, 1, z, 8),
    "ckz_member": lambda z: ckz_member(_DIAG, 1, z),
    "hchp_member": lambda z: hchp_member(hchp_at(0j, 0.0, 1), z),
}


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf)])
@pytest.mark.parametrize("name", sorted(_POINT_FUNCTIONS))
def test_point_functions_reject_non_finite(name, z):
    with pytest.raises(ValueError, match="point must have finite coordinates"):
        _POINT_FUNCTIONS[name](z)


_NAN_DIAG = np.diag([math.nan, 0.1])

_NON_FINITE_CALLS = {
    "halmos alpha nan": lambda: halmos(_DIAG, math.nan),
    "halmos alpha inf": lambda: halmos(_DIAG, math.inf),
    "halmos inf matrix": lambda: halmos(np.diag([math.inf, 0.1])),
    "halmos nan matrix": lambda: halmos(_NAN_DIAG),
    "excluding_dilation_matrix nan matrix": lambda: excluding_dilation_matrix(_NAN_DIAG, 1, 0.9),
    "dilation_intersection nan matrix": lambda: dilation_intersection(_NAN_DIAG, 1, 1, 1),
    "conjecture_check nan matrix": lambda: conjecture_check(_NAN_DIAG, 1, 0j, 8),
    "conjecture_check inf matrix": lambda: conjecture_check(np.diag([math.inf, 0.1]), 1, 0j, 8),
    "from_normal_matrix nan matrix": lambda: from_normal_matrix(_NAN_DIAG),
    "scalar_dilation d nan": lambda: scalar_dilation(math.nan, 1, -1),
    "scalar_dilation xi nan": lambda: scalar_dilation(0.5, math.nan, -1),
    "scalar_dilation eta inf": lambda: scalar_dilation(0.5, 1, complex(0.0, math.inf)),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_CALLS))
def test_dilation_functions_reject_non_finite(name):
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_CALLS[name]()


def test_nan_residuals_fail_the_gates(monkeypatch):
    monkeypatch.setattr(dilation, "_residuals", lambda U, T: (math.nan, 0.0))
    with pytest.raises(EigFailure, match="residuals too large"):
        halmos(_DIAG)
    vals, V = dilation._unitary_eigendecomposition(_DIAG)
    with pytest.raises(EigFailure, match="residuals too large"):
        dilation._block_dilation(_DIAG, vals, V, 0.0, np.array([True, False]))


_BAD_RANKS_AND_COUNTS = {
    "matrix_lambda_k rank 1.5": lambda: matrix_lambda_k(_DIAG, 1.5, 0.0),
    "matrix_lambda_k rank True": lambda: matrix_lambda_k(_DIAG, True, 0.0),
    "ckz_member rank 1.5": lambda: ckz_member(_DIAG, 1.5, 0j),
    "ckz_member rank True": lambda: ckz_member(_DIAG, True, 0j),
    "excluding_dilation_matrix rank 1.5": lambda: excluding_dilation_matrix(_DIAG, 1.5, 0.9 + 0j),
    "excluding_certificate rank 1.5": lambda: excluding_certificate(durszt_model(2), 1.5, 0.5 + 0j),
    "dilation_intersection rank 1.5": lambda: dilation_intersection(_DIAG, 1.5, 1, 1),
    "dilation_intersection rank True": lambda: dilation_intersection(_DIAG, True, 1, 1),
    "dilation_intersection n_samples 1.5": lambda: dilation_intersection(_DIAG, 1, 1.5, 1),
    "dilation_intersection n_alpha True": lambda: dilation_intersection(_DIAG, 1, 1, True),
    "conjecture_check rank 1.5": lambda: conjecture_check(_DIAG, 1.5, 0.9 + 0j, 8),
    "conjecture_check rank True": lambda: conjecture_check(_DIAG, True, 0.9 + 0j, 8),
    "conjecture_check n_theta 2.5": lambda: conjecture_check(_DIAG, 1, 0.9 + 0j, 2.5),
    "region n_angles 8.5": lambda: region(durszt_model(2), 2, 8.5),
}


@pytest.mark.parametrize("name", sorted(_BAD_RANKS_AND_COUNTS))
def test_ranks_and_counts_must_be_integers(name):
    with pytest.raises(ValueError):
        _BAD_RANKS_AND_COUNTS[name]()


def test_numpy_integer_ranks_and_counts():
    one, two, eight = np.int64(1), np.int64(2), np.int64(8)
    lam = 0.9 + 0j
    assert matrix_lambda_k(_DIAG, one, 0.0) == matrix_lambda_k(_DIAG, 1, 0.0)
    assert ckz_member(_DIAG, one, 0j) is ckz_member(_DIAG, 1, 0j)
    assert conjecture_check(_DIAG, one, lam, eight) == conjecture_check(_DIAG, 1, lam, 8)
    assert dilation_intersection(_DIAG, two, one, two) == dilation_intersection(_DIAG, 2, 1, 2)
    model = durszt_model(2)
    assert region(model, two, eight).polygon == region(model, 2, 8).polygon


# Two simple real atoms inside the unit disk: dimension 2, and valid input
# for every model entry point, selfadjoint_interval and wu_check included.
_TWO_ATOMS = SpectralMeasureModel(atoms=(Atom(0.5 + 0j, 1), Atom(-0.5 + 0j, 1)), support_radius=1.0)
_TWO = np.diag([0.5, -0.5]).astype(complex)

# entry point -> (call with rank k, the dimension its ranks are held to)
_RANKED_CALLS = {
    "member": (lambda k: member(_TWO_ATOMS, k, 0j), 2),
    "member_many": (lambda k: member_many(_TWO_ATOMS, k, [0j, 2j]), 2),
    "is_boundary": (lambda k: is_boundary(_TWO_ATOMS, k, 0j), 2),
    "decompose_excluding": (lambda k: decompose_excluding(_TWO_ATOMS, k, 2j), 2),
    "excluding_certificate": (lambda k: excluding_certificate(_TWO_ATOMS, k, 2j), 2),
    "wu_check": (lambda k: wu_check(_TWO_ATOMS, k, region(_TWO_ATOMS, 1, 16)), 2),
    "region": (lambda k: region(_TWO_ATOMS, k, 16), 2),
    "selfadjoint_interval": (lambda k: selfadjoint_interval(_TWO_ATOMS, k), 2),
    "support_levels": (lambda k: support_levels(_TWO_ATOMS, k, [0.0]), 2),
    "ckz_member": (lambda k: ckz_member(_TWO, k, 0j), 2),
    "matrix_lambda_k": (lambda k: matrix_lambda_k(_TWO, k, 0.0), 2),
    "excluding_dilation_matrix": (lambda k: excluding_dilation_matrix(_TWO, k, 2 + 0j), 2),
    "dilation_intersection": (lambda k: dilation_intersection(_TWO, k, 0, 0), 4),
}


@pytest.mark.parametrize("name", sorted(_RANKED_CALLS))
def test_one_rank_rule_at_every_entry_point(name):
    call, dim = _RANKED_CALLS[name]
    call(dim)
    for k in (dim + 1, RANK_INF):
        with pytest.raises(RankExceedsDimension):
            call(k)
    for k in (0, True, 1.5):
        with pytest.raises(ValueError) as exc:
            call(k)
        assert exc.type is ValueError


def test_conjecture_check_takes_ranks_above_n():
    assert conjecture_check(_TWO, 3, 0j, 8).condition_holds
