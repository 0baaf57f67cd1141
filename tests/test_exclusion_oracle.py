"""The interlacing certificate of ``excluding_dilation_matrix`` against the
membership run on the dilation's own eigenvalue model that it replaced
(``exclusion_oracle``), its work per call, and its error message."""

import math
import re

import numpy as np
import pytest

import hrnr
from hrnr import NoSeparatingAngle, core, dilation, excluding_dilation_matrix, halmos, spectral

import exclusion_oracle as oracle
from geometry_oracle import signed_distance
from conftest import haar_unitary, random_normal_contraction, random_normal_matrix


def _beyond(eigs, k, xi, offset):
    """The point offset beyond the k-th support level of eigs in direction xi."""
    h = np.sort(np.real(np.exp(1j * xi) * eigs))[eigs.shape[0] - k]
    return complex(np.exp(-1j * xi) * (h + offset))


def _lab_inputs():
    """Seeded n = 16 normal contractions drawn like the dilation_lab
    benchmark's, k = 1..3, points 0.05 beyond the rank-k level."""
    rng = np.random.default_rng(2101)
    for _ in range(12):
        eigs = rng.uniform(0.05, 0.85, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
        Q = haar_unitary(16, rng)
        T = (Q * eigs) @ Q.conj().T
        for k in (1, 2, 3):
            for xi in rng.uniform(0, 2 * math.pi, 4):
                yield T, k, _beyond(eigs, k, xi, 0.05)


def _criterion_6_inputs():
    """The inputs of the acceptance test of criterion 6: points more than
    0.08 outside the rank-k region polygon of seeded n = 4 contractions."""
    rng = np.random.default_rng(606)
    for _ in range(20):
        T = random_normal_contraction(4, rng)
        model = hrnr.from_normal_matrix(T)
        for k in (1, 2):
            poly = hrnr.region(model, k, 64).polygon
            samples = []
            while len(samples) < 50:
                z = complex(*rng.uniform(-1.3, 1.3, 2))
                if poly.is_empty or signed_distance(poly, z) > 0.08:
                    samples.append(z)
            for z in samples:
                yield T, k, z


NEAR_OFFSETS = (1e-3, 1e-6, 1e-8, 3e-9, 1.5e-9)


def _near_threshold_inputs():
    """Points 1e-3 down to 1.5 eps_geom beyond L_k in a random direction,
    on seeded normal contractions with n = 2..8, at every k <= n."""
    rng = np.random.default_rng(2102)
    for n in range(2, 9):
        for _ in range(3):
            T, eigs = random_normal_matrix(n, rng, rmax=0.85, rmin=0.05)
            for k in range(1, n + 1):
                xi = rng.uniform(0, 2 * math.pi)
                for offset in NEAR_OFFSETS:
                    yield T, k, _beyond(eigs, k, xi, offset)


def _outcome(fn, T, k, lam):
    try:
        art = fn(T, k, lam)
    except NoSeparatingAngle:
        return None
    return (
        art.matrix.tobytes(),
        art.alpha,
        art.unitarity_residual,
        art.compression_residual,
        art.defect_rank,
    )


@pytest.mark.parametrize(
    "inputs, returned_count",
    [(_lab_inputs, 144), (_criterion_6_inputs, 2000), (_near_threshold_inputs, 525)],
    ids=["dilation-lab", "criterion-6", "near-threshold"],
)
def test_certificate_matches_the_membership_run(inputs, returned_count):
    # the same raise or return, and a bit-identical artifact, as the old
    # check; the certificate's slack Re(e^{i xi} lam) - level lies between
    # half the margin (the block dilation's split) and the whole margin
    # (no dilation has a rank-k level below T's own); every case returns,
    # down to points 1.5 eps_geom beyond L_k
    returned = 0
    for T, k, lam in inputs():
        new = _outcome(excluding_dilation_matrix, T, k, lam)
        assert new == _outcome(oracle.excluding_dilation_matrix, T, k, lam)
        if new is None:
            continue
        returned += 1
        vals, _ = dilation._unitary_eigendecomposition(T)
        xi, margin = dilation._separating_direction(vals, k, lam, *dilation._breakpoints(vals, k))
        A = np.exp(1j * xi) * np.frombuffer(new[0], dtype=complex).reshape(2 * T.shape[0], -1)
        slack = np.real(np.exp(1j * xi) * lam) - np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-k]
        assert 0.5 * margin - 1e-12 <= slack <= margin + 1e-12
    assert returned == returned_count


def test_one_hermitian_eigensolve_and_no_sweep(monkeypatch):
    counts = dict.fromkeys(["eigvalsh", "eigvals", "eig", "member", "from_normal_matrix"], 0)
    for module, name in (
        (np.linalg, "eigvalsh"),
        (np.linalg, "eigvals"),
        (np.linalg, "eig"),
        (core, "member"),
        (spectral, "from_normal_matrix"),
    ):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(2103)
    T, eigs = random_normal_matrix(16, rng, rmax=0.85, rmin=0.05)
    excluding_dilation_matrix(T, 2, _beyond(eigs, 2, 0.4, 0.05))
    assert counts == {"eigvalsh": 1, "eigvals": 0, "eig": 1, "member": 0, "from_normal_matrix": 0}
    assert not hasattr(dilation, "member") and not hasattr(dilation, "from_normal_matrix")


def test_failed_certificate_names_direction_level_and_target(monkeypatch):
    # the rotated Halmos dilation misses the rank-two hard case, so with it
    # in place of the block dilation the certificate fails
    T = np.diag([0.9, 0.5, -0.2]).astype(complex)
    k, lam = 2, 0.7 + 0j
    monkeypatch.setattr(dilation, "_block_dilation", lambda T, vals, V, xi, top: halmos(T, xi))
    with pytest.raises(NoSeparatingAngle) as info:
        excluding_dilation_matrix(T, k, lam)
    vals, _ = dilation._unitary_eigendecomposition(T)
    xi, _ = dilation._separating_direction(vals, k, lam, *dilation._breakpoints(vals, k))
    A = np.exp(1j * xi) * halmos(T, xi).matrix
    level = np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-k]
    target = np.real(np.exp(1j * xi) * lam)
    assert level >= target
    found = re.search(
        r"xi = (\S+) its rank-2 level (\S+) is not below Re\(e\^\(i xi\) lam\) = (\S+) ",
        str(info.value),
    )
    assert found is not None, str(info.value)
    named = [float(g) for g in found.groups()]
    assert named == pytest.approx([xi, level, target], rel=1e-11, abs=1e-12)
