"""Schur complement, W operators, Hausdorff distance, cubic-order sweeps."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resolventlab.builders import multiplication_example
from resolventlab.errors import EmptySetError, GapLost, SingularPoint
from resolventlab.gap import gap_disk, spectral_gap_report
from resolventlab.matcore import gram
from resolventlab.perturb import (
    cubic_order_sweep,
    hausdorff_distance,
    log_log_slope,
    schur_complement,
    w_operator,
    w_tilde,
)

from conftest import gapped_instance

DIAG124 = np.diag([1.0 + 0j, 2.0, 4.0])
SWEEP_RADII = np.geomspace(1e-2, 1e-4, 5)


class TestSchurComplement:
    def test_diagonal_decoupled(self):
        # off-diagonal blocks vanish for diagonal S, so F(z, lam) = (1 - lam)
        for lam in (0.5, 0.7, 1.3):
            f = schur_complement(DIAG124, 0, 0, lam)
            assert f.shape == (1, 1)
            assert f[0, 0] == pytest.approx(1.0 - lam, rel=1e-12)

    def test_inverse_is_compressed_resolvent(self):
        # oracle: direct inversion of S(zeta) - lam I
        for seed in range(5):
            a, z, report = gapped_instance(seed, 5)
            zeta = z + 1e-2
            disk = gap_disk(report)
            lam = disk.center + 0.5 * disk.radius
            evals, evecs = np.linalg.eigh(gram(a, z))
            b = evecs[:, ::-1][:, :report.multiplicity]
            f = schur_complement(a, z, zeta, lam)
            oracle = b.conj().T @ np.linalg.inv(gram(a, zeta) - lam * np.eye(5)) @ b
            assert np.linalg.norm(np.linalg.inv(f) - oracle, 2) <= 1e-8 * np.linalg.norm(oracle, 2)

    def test_singular_at_eigenvalue_of_perturbed_gram(self):
        # oracle: eigendecomposition of S(zeta)
        for seed in range(5):
            a, z, report = gapped_instance(seed, 5)
            zeta = z + 1e-3
            lam = float(np.linalg.eigvalsh(gram(a, zeta))[-1])
            assert gap_disk(report).contains([lam])[0]
            f = schur_complement(a, z, zeta, lam)
            smallest = np.abs(np.linalg.eigvalsh(f)).min()
            assert smallest <= 1e-9 * report.lambda_max


class TestWOperator:
    def test_unperturbed_is_lambda_p(self):
        for seed in range(5):
            a, z, report = gapped_instance(seed, 4)
            w = w_operator(a, z, z)
            assert np.allclose(w, report.lambda_max * np.eye(report.multiplicity), atol=1e-12)

    def test_diagonal_spectrum_tracks_exactly(self):
        # diagonal matrices decouple the top block completely, so sigma(W)
        # coincides with sigma(S(zeta)) inside the disk to machine precision
        report = spectral_gap_report(DIAG124, 0)
        zeta = 0.1
        w = w_operator(DIAG124, 0, zeta)
        s_evals = np.linalg.eigvalsh(gram(DIAG124, zeta))
        disk = gap_disk(report)
        s_in = s_evals[disk.contains(s_evals)]
        d = hausdorff_distance(np.linalg.eigvalsh(w), s_in)
        assert d <= 1e-12

    def test_rank_one_formula(self):
        # oracle: direct evaluation of <psi, S(zeta) psi> plus the
        # second-order Schur correction
        a, z, report = gapped_instance(1, 5)
        assert report.multiplicity == 1
        zeta = z + 3e-3 * np.exp(0.7j)
        psi = report.basis[:, 0]
        evals, evecs = np.linalg.eigh(gram(a, z))
        q = evecs[:, ::-1][:, 1:]
        rest = evals[::-1][1:]
        delta = gram(a, zeta) - gram(a, z)
        first = psi.conj() @ gram(a, zeta) @ psi
        row = psi.conj() @ delta @ q
        second = row @ ((1.0 / (report.lambda_max - rest)) * row.conj())
        w = w_operator(a, z, zeta)
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(complex(first + second), rel=1e-10)

    def test_w_and_wtilde_hermitian(self):
        for seed in range(5):
            a, z, report = gapped_instance(seed, 5)
            w = w_operator(a, z, z + 1e-3)
            wt = w_tilde(a, z, z + 1e-3)
            assert np.linalg.norm(w - w.conj().T, 2) <= 1e-10 * report.lambda_max
            assert np.linalg.norm(wt - wt.conj().T, 2) <= 1e-10 * report.lambda_max

    def test_spectrum_near_perturbed_gram_cubic(self):
        # the Hausdorff mismatch must decay like r^3 along a sweep
        a, z, _ = gapped_instance(2, 5)
        report = cubic_order_sweep(a, z, 0.7, SWEEP_RADII)
        assert report.hausdorff.slope >= 2.7


class TestWTilde:
    def test_unperturbed_is_lambda_p(self):
        a, z, report = gapped_instance(3, 4)
        wt = w_tilde(a, z, z)
        assert np.allclose(wt, report.lambda_max * np.eye(report.multiplicity), atol=1e-12)

    def test_hermitian(self):
        for seed in range(10):
            a, z, report = gapped_instance(seed, 6)
            wt = w_tilde(a, z, z + 1e-2 * np.exp(1.3j))
            assert np.linalg.norm(wt - wt.conj().T, 2) <= 1e-10 * report.lambda_max

    def test_w_minus_wtilde_cubic(self):
        # ||W - Wtilde|| = O(r^3): fitted slope >= 2.7 over 1e-2..1e-4
        for seed in range(5):
            a, z, _ = gapped_instance(seed, 6)
            values = []
            for r in SWEEP_RADII:
                zeta = z + r * np.exp(0.4j)
                diff = w_operator(a, z, zeta) - w_tilde(a, z, zeta)
                values.append(np.linalg.norm(diff, 2))
            assert log_log_slope(SWEEP_RADII, values) >= 2.7

    def test_spectra_within_norm_difference(self):
        # Hermitian perturbation bound: d_H(sigma(W), sigma(Wtilde)) <= ||W - Wtilde||
        for seed in range(10):
            a, z, _ = gapped_instance(seed, 5)
            zeta = z + 5e-3 * np.exp(2.1j)
            w = w_operator(a, z, zeta)
            wt = w_tilde(a, z, zeta)
            d = hausdorff_distance(np.linalg.eigvalsh(w), np.linalg.eigvalsh(wt))
            assert d <= np.linalg.norm(w - wt, 2) * (1 + 1e-9) + 1e-15


class TestHausdorff:
    def test_identical_sets(self):
        assert hausdorff_distance([0, 1 + 1j], [0, 1 + 1j]) == 0.0

    def test_singletons(self):
        assert hausdorff_distance([0], [1]) == pytest.approx(1.0)

    def test_asymmetric_configuration(self):
        # brute force over all pairs: sup-min from {0, 3} to {1} is 2
        assert hausdorff_distance([0, 3], [1]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            hausdorff_distance([], [1])

    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6),
           st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6),
           st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6))
    def test_metric_properties(self, xs, ys, zs):
        dxy = hausdorff_distance(xs, ys)
        dyx = hausdorff_distance(ys, xs)
        assert dxy == dyx
        dxz = hausdorff_distance(xs, zs)
        dzy = hausdorff_distance(zs, ys)
        assert dxy <= dxz + dzy + 1e-12
        assert hausdorff_distance(xs, xs) == 0.0


class TestCubicOrderSweep:
    def test_diagonal_values_are_machine_noise(self):
        # for diagonal matrices the top block decouples at every angle, so
        # |lambda_max(zeta) - ||W||| is identically zero up to rounding and
        # carries no order information (the fit reports +inf)
        report = cubic_order_sweep(DIAG124, 0, 0.0, [1e-1, 1e-2, 1e-3, 1e-4])
        assert np.all(report.norm_gap.values <= 1e-12)
        assert report.norm_gap.slope == np.inf or report.norm_gap.slope >= 2.7

    def test_full_multiplicity_projection_is_identity(self):
        # P = I: W equals S(zeta) exactly and the gap values are noise
        omega = np.exp(2j * np.pi / 3)
        a = np.diag([1.0 + 0j, omega, omega.conjugate()])
        report = cubic_order_sweep(a, 0, 0.3, [1e-2, 1e-3, 1e-4])
        assert np.all(report.norm_gap.values <= 1e-12)

    def test_rounding_noise_is_left_out_of_the_fit(self):
        # the multiplication example is diagonal with an 8-fold top, so the
        # sweep values are rounding noise of lambda_max = 4, not a decay
        report = cubic_order_sweep(multiplication_example(64, 8), 2.5, 0.9, [1e-2, 1e-3, 1e-4])
        assert np.all(report.norm_gap.values <= 1e-13)
        assert report.norm_gap.slope == np.inf
        assert report.hausdorff.slope == np.inf

    def test_random_gapped_slopes(self):
        # acceptance-scale check: 10 seeded gapped 5x5, slope >= 2.7 in >= 9
        good_gap = 0
        good_haus = 0
        for seed in range(10):
            a, z, _ = gapped_instance(seed, 5)
            report = cubic_order_sweep(a, z, 0.9, SWEEP_RADII)
            if report.norm_gap.slope >= 2.7:
                good_gap += 1
            if report.hausdorff.slope >= 2.7:
                good_haus += 1
        assert good_gap >= 9
        assert good_haus >= 9

    def test_gap_lost_raises(self):
        a, z, report = gapped_instance(0, 5)
        # a radius comparable to the distance to the spectrum destroys the
        # disk containment
        with pytest.raises((GapLost, SingularPoint)):
            cubic_order_sweep(a, z, 0.0, [2.0, 1.0, 0.5])

    def test_rejects_increasing_radii(self):
        a, z, _ = gapped_instance(0, 5)
        with pytest.raises(ValueError):
            cubic_order_sweep(a, z, 0.0, [1e-4, 1e-3])

