"""Growth certificates, minimum checks, arcs, and torus coverage."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resolventlab import growth
from resolventlab.builders import block_diag, cyclic_matrix, example_last, example_last_blocks
from resolventlab.errors import DiskHitsSpectrum, DomainError
from resolventlab.gap import spectral_gap_report
from resolventlab.growth import (
    FIRST_ORDER,
    MIN_CANDIDATE,
    SECOND_ORDER,
    certify_local_min,
    growth_direction,
    increase_arcs,
    min_candidate_check,
    numerical_radius,
    numerical_range_distance,
    numerical_range_zero_witness,
    theta_arc,
    torus_coverage,
    verify_growth,
)
from resolventlab.matcore import distance_to_spectrum, resolvent_norm
from resolventlab.twobytwo import classify

from conftest import gapped_instance

OMEGA = np.exp(2j * np.pi / 3)
NORMAL3 = np.diag([1.0 + 0j, OMEGA, OMEGA.conjugate()])


def report_at(a, z):
    return spectral_gap_report(a, z)


class TestGrowthDirection:
    def test_scalar_first_order_toward_eigenvalue(self):
        a = np.array([[2.0 + 0j]])
        cert = growth_direction(a, 0, report_at(a, 0))
        assert cert.order == FIRST_ORDER
        assert cert.phi == pytest.approx(0.0, abs=1e-12)
        assert cert.eta1 == pytest.approx(0.5, rel=1e-12)

    def test_cyclic_min_candidate(self):
        # both compressed inner products vanish structurally for N > 2
        a = cyclic_matrix([2.0, 1.0, 1.0])
        cert = growth_direction(a, 0, report_at(a, 0))
        assert cert.order == MIN_CANDIDATE
        assert cert.phi is None
        assert cert.c2 > 0

    def test_degenerate_normal_first_order(self):
        # oracle: numerical radius of R(0) on the full space is 1,
        # attained at a coordinate vector
        cert = growth_direction(NORMAL3, 0, report_at(NORMAL3, 0))
        assert cert.order == FIRST_ORDER
        assert cert.eta1 == pytest.approx(1.0, rel=1e-12)

    def test_cyclic_two_site_second_order(self):
        # N = 2: <psi, R psi> = 0 but <psi, R^2 psi> = a1 a2 != 0
        a = cyclic_matrix([2.0, 1.0])
        cert = growth_direction(a, 0, report_at(a, 0))
        assert cert.order == SECOND_ORDER
        assert cert.eta2 == pytest.approx(2.0, rel=1e-9)
        assert cert.phi == pytest.approx(0.0, abs=1e-9)

    def test_random_instances_are_first_order(self):
        for seed in range(20):
            a, z, report = gapped_instance(seed, 6)
            cert = growth_direction(a, z, report)
            assert cert.order == FIRST_ORDER
            assert cert.eta1 > 0


class TestMinCandidateCheck:
    def test_figure_two_matrix_holds(self):
        a = cyclic_matrix([1e6] + [1.0] * 5)
        res = min_candidate_check(a, 0, report_at(a, 0))
        assert res.holds
        assert res.prp_norm <= 1e-12 * 1e6
        assert res.zero_in_range

    def test_two_site_fails(self):
        a = cyclic_matrix([2.0, 1.0])
        res = min_candidate_check(a, 0, report_at(a, 0))
        assert not res.holds
        assert res.prp_norm <= 1e-12
        assert not res.zero_in_range

    def test_normal_example_fails_condition_one(self):
        res = min_candidate_check(NORMAL3, 0, report_at(NORMAL3, 0))
        assert not res.holds
        assert res.prp_norm == pytest.approx(1.0, rel=1e-12)

    def test_block_example_minimum_without_algebraic_conditions(self):
        # the block construction's minimum comes from arc coverage, not
        # from the vanishing inner products: the algebraic check fails
        # while circle sampling certifies the minimum
        b = example_last()
        res = min_candidate_check(b, 0, report_at(b, 0))
        assert not res.holds
        assert certify_local_min(b, 0, radius=0.05, n_angles=256).is_min


class TestVerifyGrowth:
    def test_scalar_exact_resolvent(self):
        # ||R|| = 1/(2 - t) along the segment, so c > 0 at order 1
        a = np.array([[2.0 + 0j]])
        cert = growth_direction(a, 0, report_at(a, 0))
        ver = verify_growth(a, 0, cert, r_max=0.5, n_samples=16)
        assert ver.order_ok
        assert ver.fitted_c > 0

    def test_normal_example_along_real_axis(self):
        # oracle: norm = 1/(1 - t) along the segment toward eigenvalue 1
        cert = growth_direction(NORMAL3, 0, report_at(NORMAL3, 0))
        ver = verify_growth(NORMAL3, 0, cert, r_max=0.3, n_samples=16)
        assert ver.order_ok
        want = 1 / (1 - 0.3) - 1   # worst sample is the farthest for convex growth
        assert ver.fitted_c <= want / 0.3 + 1e-9

    def test_second_order_growth(self):
        a = cyclic_matrix([2.0, 1.0])
        cert = growth_direction(a, 0, report_at(a, 0))
        d = distance_to_spectrum(a, 0)
        ver = verify_growth(a, 0, cert, r_max=0.2 * d, n_samples=16)
        assert ver.order_ok

    def test_random_gapped_statistical(self):
        ok = 0
        for seed in range(50):
            a, z, report = gapped_instance(seed, 6)
            cert = growth_direction(a, z, report)
            d = distance_to_spectrum(a, z)
            ver = verify_growth(a, z, cert, r_max=1e-3 * d, n_samples=12)
            ok += ver.order_ok
        assert ok == 50

    def test_first_order_constant_matches_eta(self):
        # consistency across modules: for r -> 0, the fitted growth
        # constant approaches eta1 * ||R(z)|| (the derivative of the norm
        # along the certified direction)
        import math
        for seed in range(8):
            a, z, report = gapped_instance(seed, 6)
            cert = growth_direction(a, z, report)
            d = distance_to_spectrum(a, z)
            ver = verify_growth(a, z, cert, r_max=1e-5 * d, n_samples=8)
            want = cert.eta1 * math.sqrt(report.lambda_max)
            assert ver.fitted_c == pytest.approx(want, rel=1e-3)

    def test_min_candidate_quadratic_floor(self):
        # for a min candidate the top of S grows at least c2 * r^2 in
        # every direction (Rayleigh quotient with the witness vector)
        from resolventlab.matcore import gram
        a = cyclic_matrix([2.0, 1.0, 1.0])
        report = report_at(a, 0)
        cert = growth_direction(a, 0, report)
        assert cert.c2 == pytest.approx(4.0, rel=1e-10)
        r = 1e-4
        for theta in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            lam = np.linalg.eigvalsh(gram(a, r * np.exp(1j * theta)))[-1]
            assert (lam - report.lambda_max) / r ** 2 >= cert.c2 * (1 - 0.05)

    def test_min_candidate_has_no_direction(self):
        a = cyclic_matrix([2.0, 1.0, 1.0])
        cert = growth_direction(a, 0, report_at(a, 0))
        with pytest.raises(DomainError):
            verify_growth(a, 0, cert, r_max=0.1)


class TestCertifyLocalMin:
    def test_example_last_minimum(self):
        b = example_last()
        cert = certify_local_min(b, 0, radius=0.05, n_angles=720)
        assert cert.is_min
        assert cert.margin > 0
        assert cert.norm_at_center == pytest.approx(1.0, rel=1e-9)

    def test_figure_two_minimum(self):
        a = cyclic_matrix([1e6] + [1.0] * 5)
        cert = certify_local_min(a, 0, radius=1e-3, n_angles=256)
        assert cert.is_min
        assert cert.norm_at_center == pytest.approx(1e6, rel=1e-9)

    def test_scalar_never_min(self):
        a = np.array([[2.0 + 0j]])
        cert = certify_local_min(a, 0.5, radius=0.2, n_angles=64)
        assert not cert.is_min

    def test_disk_hitting_spectrum_raises(self):
        a = np.array([[2.0 + 0j]])
        with pytest.raises(DiskHitsSpectrum):
            certify_local_min(a, 1.9, radius=0.5, n_angles=16)

    def test_orthogonal_two_block_minimum_iff_norms_match(self):
        # two blocks with perpendicular eigenvalue lines: the direct sum has
        # a local minimum at the shared center exactly when the block norms
        # coincide there (otherwise the dominant block's saddle wins)
        from resolventlab.builders import scaled_rotated, type2_matrix
        core1 = type2_matrix(2, a=1, b=2)
        core2 = type2_matrix(1, c=1.5)
        n1 = resolvent_norm(core1, 0).norm
        n2 = resolvent_norm(core2, 0).norm
        matched = block_diag([scaled_rotated(core1, n1, 0.0),
                              scaled_rotated(core2, n2, math.pi / 2)])
        assert certify_local_min(matched, 0, radius=1e-2, n_angles=720).is_min
        pairs = [(0.0, theta_arc(6.0)), (math.pi / 2, theta_arc(4.25))]
        assert torus_coverage(pairs)
        mismatched = block_diag([scaled_rotated(core1, n1, 0.0),
                                 scaled_rotated(core2, n2 / 0.8, math.pi / 2)])
        assert not certify_local_min(mismatched, 0, radius=1e-2, n_angles=720).is_min

    def test_holds_implies_min_on_paper_families(self):
        for weights in ([1e6] + [1.0] * 5, [3.0, 1.0, 2.0], [2.0, 1.0, 1.0, 1.0, 1.0]):
            a = cyclic_matrix(weights)
            report = report_at(a, 0)
            if min_candidate_check(a, 0, report).holds:
                radius = 1e-3 * distance_to_spectrum(a, 0)
                assert certify_local_min(a, 0, radius, 128).is_min


class TestThetaArc:
    def test_k2_full_half_arc(self):
        assert theta_arc(2.0) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_k6_value(self):
        # oracle: gamma(6) = (6 - sqrt(32))/2 = 3 - 2 sqrt(2)
        want = math.pi / 2 - 0.5 * math.acos(3 - 2 * math.sqrt(2))
        assert theta_arc(6.0) == pytest.approx(want, rel=1e-14)

    def test_large_k_limit(self):
        assert abs(theta_arc(1e6) - math.pi / 4) < 1e-3

    def test_rejects_small_k(self):
        with pytest.raises(DomainError):
            theta_arc(1.99)

    @given(st.floats(2.0, 1e6), st.floats(2.0, 1e6))
    def test_strictly_decreasing(self, k1, k2):
        if k1 == k2:
            return
        lo, hi = min(k1, k2), max(k1, k2)
        assert theta_arc(lo) > theta_arc(hi)


class TestTorusCoverage:
    def test_example_last_angles(self):
        blocks = example_last_blocks()
        pairs = []
        for blk in blocks:
            cls = classify(blk)
            pairs.append((cls.phi, theta_arc(cls.k)))
        assert torus_coverage(pairs)

    def test_single_normal_pair_covers(self):
        assert torus_coverage([(0.0, math.pi / 2)])

    def test_narrow_single_arc_fails(self):
        assert not torus_coverage([(0.0, math.pi / 4 + 0.01)])

    def test_two_perpendicular_wide_arcs(self):
        theta = theta_arc(2.5)
        assert torus_coverage([(0.0, theta), (math.pi / 2, theta)])

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(DomainError):
            torus_coverage([(0.0, 0.3)])


class TestArcSet:
    def test_two_arcs_with_pi_shift(self):
        arcs = increase_arcs(0.0, 0.8)
        assert arcs.contains(0.0)
        assert arcs.contains(math.pi)
        assert arcs.contains(0.79) and not arcs.contains(0.81)
        assert not arcs.contains(math.pi / 2)

    def test_wrap_splitting_preserves_measure(self):
        arcs = increase_arcs(0.1, math.pi / 2)
        total = sum(e - s for s, e in arcs.arcs)
        assert total == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rejects_overlapping(self):
        from resolventlab.growth import ArcSet
        with pytest.raises(DomainError):
            ArcSet(((0.0, 1.0), (0.5, 1.5)))


class TestDirectionalDerivativeArcs:
    def test_sign_matches_arcs_for_2x2(self):
        # growth invariant: the sampled sign of ||R|| - ||R(center)|| at
        # radius h matches membership of the angle in the open increase arcs
        rng = np.random.default_rng(17)
        tested = 0
        while tested < 25:
            m = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
            cls = classify(m)
            if cls.k is None or cls.k <= 2.1:
                continue
            theta_a = theta_arc(cls.k)
            arcs = increase_arcs(cls.phi, theta_a)
            center = cls.center
            h = 1e-3 * abs(cls.lam)
            base = resolvent_norm(m, center).norm
            for theta in np.linspace(0, 2 * math.pi, 40, endpoint=False):
                rel = (theta - cls.phi + math.pi / 2) % math.pi - math.pi / 2
                if min(abs(abs(rel) - theta_a), abs(abs(abs(rel) - theta_a) - math.pi)) < 1e-3:
                    continue
                inside = abs(rel) < theta_a
                assert arcs.contains(theta) == inside
                value = resolvent_norm(m, center + h * np.exp(1j * theta)).norm
                assert (value > base) == inside
            tested += 1


def test_numerical_radius_scalar_exact():
    val, psi = numerical_radius(np.array([[0.3 - 0.4j]]))
    assert val == pytest.approx(0.5, rel=1e-14)
    assert abs(psi[0]) == pytest.approx(1.0)


SWEEP_RTOL = 1 - math.cos(math.pi / 256)   # worst angle offset of the 256-rotation sweep


def count_minimize_calls(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real_minimize(*args, **kwargs)

    real_minimize = growth.minimize
    monkeypatch.setattr(growth, "minimize", spy)
    return calls


def normal_matrix(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((len(d), len(d)))
                        + 1j * rng.standard_normal((len(d), len(d))))
    return q @ np.diag(d) @ q.conj().T


def segment_distance(d1, d2):
    t = min(max(-(d1.conjugate() * (d2 - d1)).real / abs(d2 - d1) ** 2, 0.0), 1.0)
    return abs(d1 + t * (d2 - d1))


class TestNumericalRangeSweep:
    def test_matches_per_angle_loop(self):
        # reference: one eigh per rotation angle, as a plain loop
        rng = np.random.default_rng(4)
        for n in range(2, 9):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m += (n % 2) * 4.0 * np.exp(1j * n) * np.eye(n)   # 0 outside W for odd n
            tops, bottoms = [], []
            for j in range(256):
                phase = np.exp(2j * math.pi * j / 256)
                evals = np.linalg.eigvalsh(0.5 * (phase * m + np.conj(phase) * m.conj().T))
                tops.append(evals[-1])
                bottoms.append(evals[0])
            assert numerical_radius(m)[0] == pytest.approx(max(tops), rel=1e-15)
            assert numerical_range_distance(m) == pytest.approx(max(max(bottoms), 0.0), rel=1e-15)

    def test_radius_of_normal_matrices(self):
        # W(Q diag(d) Q^H) is the convex hull of d, so its radius is max |d_k|
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            r, psi = numerical_radius(normal_matrix(rng, d))
            want = np.abs(d).max()
            assert want * (1 - SWEEP_RTOL) - 1e-13 <= r <= want * (1 + 1e-13)
            assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)

    def test_distance_to_segment_from_its_end(self):
        # two eigenvalues: W is the segment [d1, d2]; d2 lies beyond d1 as
        # seen from 0, so the nearest point of W is d1
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            d1 = complex(rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            d2 = d1 + rng.uniform(0.1, 3.0) * d1 / abs(d1) * np.exp(1j * rng.uniform(-1.4, 1.4))
            dist = numerical_range_distance(normal_matrix(rng, [d1] + [d2] * (n - 1)))
            want = segment_distance(d1, d2)
            assert want == pytest.approx(abs(d1), rel=1e-12)
            assert want * (1 - SWEEP_RTOL) - 1e-13 <= dist <= want * (1 + 1e-13)

    def test_distance_to_segment_from_its_interior(self):
        # the segment is perpendicular to a swept direction, so the sweep
        # meets its nearest interior point exactly
        rng = np.random.default_rng(7)
        for j in (0, 37, 200):
            rot = np.exp(-2j * math.pi * j / 256)
            dist_want = rng.uniform(0.2, 2.0)
            d1 = rot * complex(dist_want, rng.uniform(0.1, 2.0))
            d2 = rot * complex(dist_want, -rng.uniform(0.1, 2.0))
            want = segment_distance(d1, d2)
            assert want == pytest.approx(dist_want, rel=1e-12)
            dist = numerical_range_distance(normal_matrix(rng, [d1, d2]))
            assert dist == pytest.approx(want, rel=1e-12)

    def test_distance_zero_when_segment_crosses_zero(self):
        rng = np.random.default_rng(8)
        assert numerical_range_distance(normal_matrix(rng, [1 + 1j, -2 - 2j])) == 0.0


class TestNumericalRangeZero:
    def test_witness_inside_ellipse(self, monkeypatch):
        # 0 lies between the eigenvalues of this 2x2, hence inside the
        # elliptical numerical range; a zero of the quadratic form exists
        # but is not a coordinate vector
        calls = count_minimize_calls(monkeypatch)
        m = np.array([[1.0, 0.3], [0.1j, -1.0 + 0.2j]], dtype=complex)
        assert numerical_range_distance(m) == 0.0
        psi, q_abs = numerical_range_zero_witness(m, 1e-10)
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
        assert q_abs <= 1e-10
        assert calls == []

    def test_closed_form_witness_without_nelder_mead(self, monkeypatch):
        # on seeded inputs with 0 in W(M) the rotation sweep alone reaches
        # |q| <= 1e-12 ||M||
        calls = count_minimize_calls(monkeypatch)
        rng = np.random.default_rng(2024)
        tested = 0
        while tested < 60:
            n = 2 + tested % 4
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if numerical_range_distance(m) != 0.0:
                continue
            tol = 1e-12 * np.linalg.norm(m, 2)
            psi, q_abs = numerical_range_zero_witness(m, tol)
            assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
            assert q_abs <= tol
            assert abs(psi.conj() @ m @ psi) <= tol
            tested += 1
        assert calls == []

    def test_distance_positive_when_zero_outside(self):
        m = np.eye(2, dtype=complex) + 0.1j * np.eye(2)
        assert numerical_range_distance(m) >= 0.9

    def test_degenerate_min_candidate_block_doubled_cyclic(self):
        # two identical cyclic blocks share the top eigenvalue, so the
        # eigenspace is 2-dimensional and both compressions vanish
        blk = cyclic_matrix([2.0, 1.0, 1.0])
        a = block_diag([blk, blk])
        report = report_at(a, 0)
        assert report.multiplicity == 2
        cert = growth_direction(a, 0, report)
        assert cert.order == MIN_CANDIDATE
        assert min_candidate_check(a, 0, report).holds


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported only by the Nelder-Mead fallback of
    # numerical_range_zero_witness, on its first call
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, resolventlab; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
