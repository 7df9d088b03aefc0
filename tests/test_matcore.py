"""Foundation operations: spectrum clustering, resolvent norm, S(z)."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resolventlab.builders import cyclic_matrix
from resolventlab.errors import SingularPoint
from resolventlab.matcore import (
    distance_to_spectrum,
    ensure_matrix,
    gram,
    resolvent_norm,
    smin_points,
    spectrum,
)

from conftest import random_matrix

OMEGA = np.exp(2j * np.pi / 3)
NORMAL3 = np.diag([1.0 + 0j, OMEGA, OMEGA.conjugate()])
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


def small_complex(bound=3.0):
    part = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def matrices(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(small_complex(), min_size=n * n, max_size=n * n).map(
            lambda vals: np.array(vals, dtype=complex).reshape(n, n)))


class TestEnsureMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.array([[np.nan, 0], [0, 0]]))

    def test_accepts_nested_lists(self):
        m = ensure_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128


class TestSpectrum:
    def test_normal_three_by_three(self):
        spec = spectrum(NORMAL3)
        assert sorted(spec.multiplicities) == [1, 1, 1]
        got = sorted(spec.eigenvalues, key=lambda v: (round(v.real, 9), round(v.imag, 9)))
        want = sorted([1.0 + 0j, OMEGA, OMEGA.conjugate()],
                      key=lambda v: (round(v.real, 9), round(v.imag, 9)))
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_multiplicity(self):
        spec = spectrum(np.eye(2))
        assert len(spec.eigenvalues) == 1
        assert spec.multiplicities[0] == 2
        assert abs(spec.eigenvalues[0] - 1) < 1e-12

    def test_nilpotent_jordan_block(self):
        spec = spectrum(NILPOTENT)
        assert len(spec.eigenvalues) == 1
        assert spec.multiplicities[0] == 2
        assert abs(spec.eigenvalues[0]) < 1e-7

    def test_multiplicities_sum_to_n_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            spec = spectrum(random_matrix(rng, n))
            assert int(spec.multiplicities.sum()) == n


class TestResolventNorm:
    def test_normal_example_at_origin(self):
        # all three eigenvalues on the unit circle, so dist(0, sigma) = 1
        assert resolvent_norm(NORMAL3, 0).norm == pytest.approx(1.0, rel=1e-12)

    def test_identity(self):
        assert resolvent_norm(np.eye(2), 0).norm == pytest.approx(1.0, rel=1e-14)

    def test_nilpotent_at_one(self):
        # oracle: smallest singular value of [[-1, 1], [0, -1]]
        oracle = 1.0 / np.linalg.svd(NILPOTENT - np.eye(2), compute_uv=False)[-1]
        golden = (1 + np.sqrt(5)) / 2
        got = resolvent_norm(NILPOTENT, 1).norm
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(golden, rel=1e-12)
        assert got ** 2 == pytest.approx(2 / (3 - np.sqrt(5)), rel=1e-12)

    def test_infinite_on_spectrum(self):
        val = resolvent_norm(np.diag([2.0 + 0j, 3.0]), 2.0)
        assert val.norm == np.inf

    @given(matrices(4), small_complex(2.0))
    @example(np.array([[2j, 2j], [2j, 2j]]), 1e-12j)
    def test_norm_smin_reciprocal_and_lower_bound(self, m, z):
        # ||R(z)|| >= 1/dist(z, sigma), i.e. smin <= dist, up to the SVD's
        # backward error: smin carries an absolute error of a few
        # eps * sigma_max(A - zI), which dominates when dist is tiny
        val = resolvent_norm(m, z)
        if np.isfinite(val.norm):
            assert val.norm * val.smin == pytest.approx(1.0, rel=1e-12)
            d = distance_to_spectrum(m, z)
            smax = np.linalg.svd(m - z * np.eye(m.shape[0]), compute_uv=False)[0]
            assert val.smin <= d + 8.0 * np.finfo(float).eps * smax


class TestGram:
    def test_scalar(self):
        s = gram(np.array([[2.0 + 0j]]), 0)
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_diagonal(self):
        s = gram(np.diag([1.0 + 0j, 2.0, 4.0]), 0)
        assert np.allclose(s, np.diag([1.0, 0.25, 0.0625]), atol=1e-14)

    def test_cyclic_diagonal_form(self):
        weights = [5.0, 2.0, 1.0, 3.0]
        s = gram(cyclic_matrix(weights), 0)
        assert np.allclose(s, np.diag(np.abs(weights) ** 2), atol=1e-9)

    def test_singular_point_raises(self):
        with pytest.raises(SingularPoint):
            gram(np.diag([1.0 + 0j, 2.0]), 1.0)

    @given(matrices(5), small_complex(2.0))
    def test_hermitian_and_top_eigenvalue(self, m, z):
        val = resolvent_norm(m, z)
        if not np.isfinite(val.norm) or val.smin < 1e-3:
            return
        s = gram(m, z)
        assert np.linalg.norm(s - s.conj().T, 2) <= 1e-12 * np.linalg.norm(s, 2)
        top = np.linalg.eigvalsh(s)[-1]
        assert top == pytest.approx(val.norm ** 2, rel=1e-9)


class TestDistanceToSpectrum:
    def test_diagonal(self):
        assert distance_to_spectrum(np.diag([0.0 + 0j, 3.0]), 1.0) == pytest.approx(1.0)

    def test_zero_on_spectrum(self):
        assert distance_to_spectrum(np.diag([0.0 + 0j, 3.0]), 3.0) < 1e-12

    def test_normal_example(self):
        assert distance_to_spectrum(NORMAL3, 0) == pytest.approx(1.0, rel=1e-12)


class TestNormalEquality:
    def test_norm_equals_reciprocal_distance(self, rng):
        from conftest import random_normal_matrix
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = random_normal_matrix(rng, n)
            for _ in range(10):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                d = distance_to_spectrum(a, z)
                if d < 0.05:
                    continue
                assert resolvent_norm(a, z).norm == pytest.approx(1.0 / d, rel=1e-10)


def test_smin_points_matches_scalar_calls(rng):
    a = random_matrix(rng, 5)
    zs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    batch = smin_points(a, zs)
    for z, got in zip(zs, batch):
        want = resolvent_norm(a, complex(z)).smin
        assert got == pytest.approx(want, rel=1e-12)
