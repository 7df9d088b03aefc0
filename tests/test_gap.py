"""Spectral-gap reports and the Riesz projection."""

import numpy as np
import pytest

from resolventlab.builders import multiplication_example
from resolventlab.errors import NoGapError, SingularPoint
from resolventlab.gap import gap_disk, riesz_projection, spectral_gap_report
from resolventlab.matcore import gram, resolvent_norm

from conftest import gapped_instance, random_matrix

DIAG124 = np.diag([1.0 + 0j, 2.0, 4.0])


def test_diagonal_case():
    report = spectral_gap_report(DIAG124, 0)
    assert report.lambda_max == pytest.approx(1.0, rel=1e-12)
    assert report.a_z == pytest.approx(0.25, rel=1e-12)
    assert report.multiplicity == 1
    assert report.gap_ratio == pytest.approx(4.0, rel=1e-12)


def test_degenerate_top_eigenvalue():
    # oracle: S(0) = I for the normal matrix with all eigenvalues on the
    # unit circle, so the top eigenvalue is 1 with full multiplicity
    omega = np.exp(2j * np.pi / 3)
    a = np.diag([1.0 + 0j, omega, omega.conjugate()])
    report = spectral_gap_report(a, 0)
    assert report.lambda_max == pytest.approx(1.0, rel=1e-12)
    assert report.multiplicity == 3
    assert report.a_z == 0.0
    assert report.gap_ratio == np.inf


def test_multiplication_example_block_side():
    a = multiplication_example(64, 8)
    report = spectral_gap_report(a, 2.5)
    # oracle: explicit diagonal entries |x_k - 2.5|^-2 and |2 - 2.5|^-2
    xs = (np.arange(1, 65) - 0.5) / 64.0
    grid_top = float(np.max(np.abs(xs - 2.5) ** -2.0))
    assert report.lambda_max == pytest.approx(4.0, rel=1e-12)
    assert report.multiplicity == 8
    assert report.a_z == pytest.approx(grid_top, rel=1e-12)
    assert report.a_z == pytest.approx((2.5 - 1.0) ** -2, rel=0.02)


def test_no_gap_raises():
    # top eigenvalues of S(0) split by ~5e-8 relative: too far apart to be
    # merged into one cluster, too close to count as a gap
    a = np.diag([1.0 + 0j, 1.0 + 2.5e-8])
    with pytest.raises(NoGapError):
        spectral_gap_report(a, 0)


def test_exactly_degenerate_top_is_not_a_gap_failure():
    # equal smin values merge into a multiplicity-2 top with empty rest
    report = spectral_gap_report(np.diag([1.0 + 0j, -1.0]), 0)
    assert report.multiplicity == 2
    assert report.gap_ratio == np.inf


def test_singular_point_raises():
    with pytest.raises(SingularPoint):
        spectral_gap_report(DIAG124, 1.0)


def test_basis_residual_and_orthonormality():
    for seed in range(10):
        a, z, report = gapped_instance(seed, 6)
        b = report.basis
        gramian = b.conj().T @ b
        assert np.linalg.norm(gramian - np.eye(report.multiplicity)) <= 1e-12
        s = gram(a, z)
        for j in range(report.multiplicity):
            residual = np.linalg.norm(s @ b[:, j] - report.lambda_max * b[:, j])
            assert residual <= 1e-9 * report.lambda_max


def test_near_spectrum_against_mpmath():
    # a(z) and lambda_max next to an eigenvalue, against 40-digit singular
    # values; an eigensolve of R^H R loses a(z) here to rounding of lambda_max
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for seed in range(3):
        a = random_matrix(np.random.default_rng(seed), 12)
        eigenvalue = complex(np.linalg.eigvals(a)[0])
        for dist in (1e-6, 1e-9, 1e-12):
            z = eigenvalue + dist
            with mpmath.workdps(40):
                m = mpmath.matrix(a.tolist()) - mpmath.mpc(z) * mpmath.eye(12)
                sv = sorted(float(x) for x in mpmath.svd_c(m, compute_uv=False))
            report = spectral_gap_report(a, z)
            assert report.multiplicity == 1
            assert report.a_z == pytest.approx(sv[1] ** -2, rel=1e-6)
            assert report.lambda_max == pytest.approx(sv[0] ** -2, rel=eps * sv[-1] / sv[0])


def test_lambda_max_is_squared_resolvent_norm():
    for seed in range(20):
        a, z, report = gapped_instance(seed, 5)
        norm = resolvent_norm(a, z).norm
        assert report.lambda_max == pytest.approx(norm ** 2, rel=1e-9)


class TestRieszProjection:
    def test_rank_one_diagonal(self):
        report = spectral_gap_report(DIAG124, 0)
        p = riesz_projection(report)
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        assert np.allclose(p, e1, atol=1e-12)

    def test_projection_identities_random(self):
        for seed in range(100):
            a, z, report = gapped_instance(seed, 5)
            p = riesz_projection(report)
            assert np.linalg.norm(p @ p - p, 2) <= 1e-12
            assert np.linalg.norm(p - p.conj().T, 2) <= 1e-12

    def test_commutes_with_gram_and_eigen_relation(self):
        for seed in range(10):
            a, z, report = gapped_instance(seed, 6)
            p = riesz_projection(report)
            s = gram(a, z)
            lam = report.lambda_max
            assert np.linalg.norm(s @ p - lam * p, 2) <= 1e-8 * lam
            assert np.linalg.norm(s @ p - p @ s, 2) <= 1e-9 * lam


def test_gap_disk_geometry():
    for seed in range(10):
        a, z, report = gapped_instance(seed, 5)
        disk = gap_disk(report)
        assert disk.radius == 0.5 * (report.lambda_max - report.a_z)
        assert disk.center - disk.radius > report.a_z - 1e-15 * report.lambda_max
