"""Closed-form 2x2 landscape: w/h, norm formula, classification, g."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resolventlab.builders import scaled_rotated, type1_matrix, type2_matrix
from resolventlab.matcore import resolvent_norm, singularity_floor
from resolventlab.twobytwo import (
    DOUBLE_EIGENVALUE_RADIAL,
    NON_NORMAL_SADDLE,
    NORMAL_SADDLE_LINE,
    classify,
    closed_form_norm,
    g_function,
    half_eigen_difference,
    k_parameter,
    wh,
)

from conftest import random_matrix

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)
EPS = np.finfo(float).eps


def small_complex(bound=3.0):
    part = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def matrices_2x2():
    return st.lists(small_complex(), min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=complex).reshape(2, 2))


class TestWH:
    def test_nilpotent_at_one(self):
        # oracle: direct entry arithmetic on [[-1, 1], [0, -1]]
        v = wh(NILPOTENT, 1)
        assert v.w == pytest.approx(3.0, abs=1e-14)
        assert v.h == pytest.approx(1.0, abs=1e-14)

    def test_identity_at_zero(self):
        v = wh(np.eye(2), 0)
        assert v.w == pytest.approx(2.0)
        assert v.h == pytest.approx(1.0)

    @given(matrices_2x2(), small_complex())
    # a subnormal LU pivot: h was NaN when wh used np.linalg.det
    @example(np.array([[1.25, 1.0], [-2.2250738585e-313 - 2.2250738585e-313j, 1.0]]), 1.25)
    def test_h_is_characteristic_polynomial_modulus(self, m, z):
        v = wh(m, z)
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        q = z * z - tr * z + det
        # both sides evaluate det(A - zI) with an absolute rounding error below
        # 8 eps (|z| + ||A||_F)^2 each, and | |x|^2 - |y|^2 | <= (|x| + |y|) |x - y|
        err = 16.0 * EPS * (abs(z) + np.linalg.norm(m)) ** 2
        assert abs(v.h - abs(q) ** 2) <= 1e-12 * abs(q) ** 2 + (math.sqrt(v.h) + abs(q)) * err


class TestClosedFormNorm:
    def test_matches_normal_k2_formula(self):
        # self-adjoint core with c = 0: norm^2 = 1/((1 - |x1|)^2 + x2^2)
        a = type2_matrix(1, c=0)
        for z in (0.3 + 0.4j, -0.2 + 0.1j, 0.9 - 0.5j):
            want = 1.0 / ((1.0 - abs(z.real)) ** 2 + z.imag ** 2)
            assert closed_form_norm(a, z) ** 2 == pytest.approx(want, rel=1e-12)

    def test_nilpotent_at_one(self):
        got = closed_form_norm(NILPOTENT, 1)
        oracle = resolvent_norm(NILPOTENT, 1).norm
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got ** 2 == pytest.approx(2 / (3 - math.sqrt(5)), rel=1e-12)

    def test_infinite_on_spectrum(self):
        assert closed_form_norm(np.diag([1.0 + 0j, 2.0]), 2.0) == math.inf

    def test_spectrum_agrees_with_resolvent_norm(self):
        # at computed eigenvalues h is rounding noise, not 0; the closed form
        # returned about 1e15 there until it used the singularity floor
        rng = np.random.default_rng(5)
        for _ in range(2000):
            a = random_matrix(rng, 2)
            for lam in np.linalg.eigvals(a):
                assert math.isfinite(closed_form_norm(a, lam)) == math.isfinite(
                    resolvent_norm(a, lam).norm)

    def test_agrees_with_svd_on_random_draws(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            a = random_matrix(rng, 2)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            oracle = resolvent_norm(a, z)
            if oracle.smin < 1e-3:
                continue
            assert closed_form_norm(a, z) == pytest.approx(oracle.norm, rel=1e-10)
            checked += 1

    @given(matrices_2x2(), small_complex())
    # equal singular values to 8 digits, where w^2 - 4h cancels
    @example(np.array([[0, 2], [2, 1 + 1e-8j]], dtype=complex), 1j)
    # the rounded points are no exact mirror images: their norms differ by 1.6e-12
    @example(np.array([[1j, 1.9921875j], [1.9921875j, 1j]]), 1.9920514922913044j)
    # both points are eigenvalues: inf and 9.0e15 before the singularity floor
    @example(np.array([[1j, 1.9920514922913044j], [1.9920514922913044j, 1j]]), 1.9920514922913044j)
    def test_symmetry_about_half_trace(self, m, z):
        center = complex(np.trace(m)) / 2
        points = (center + z, center - z)
        lhs, rhs = (closed_form_norm(m, p) for p in points)
        # compared as smin = 1/norm (0 on the spectrum), which is 1-Lipschitz in
        # z: 1e-12 relative, plus the backward error 8 eps sigma_max of any
        # double-precision evaluation, plus the distance of the rounded points
        # from exact mirror images about tr(A)/2
        s_l, s_r = 1.0 / lhs, 1.0 / rhs
        smax = max(np.linalg.norm(m - p * np.eye(2), 2) for p in points)
        exact = [Fraction(x) for p in (*points, -m[0, 0], -m[1, 1]) for x in (p.real, p.imag)]
        defect = math.hypot(float(sum(exact[0::2])), float(sum(exact[1::2])))
        tol = 1e-12 * max(s_l, s_r) + 8.0 * EPS * smax + defect
        if s_l == 0.0 or s_r == 0.0:    # there smin is only known to be below the floor
            tol += max(singularity_floor(smax + abs(p), p) for p in points)
        assert abs(s_l - s_r) <= tol


class TestClassify:
    @given(matrices_2x2())
    # a subnormal LU pivot: lambda was nan+nanj when taken from np.linalg.det
    @example(np.array([[1, 1], [1e-310, 1]], dtype=complex))
    def test_half_eigen_difference_gives_trace_and_det(self, m):
        # eigenvalues center +/- lam have product center^2 - lam^2 = det(A);
        # each side rounds with an error below 8 eps ||A||_F^2
        lam = half_eigen_difference(m)
        center = (m[0, 0] + m[1, 1]) / 2
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert math.isfinite(abs(lam))
        assert abs(center ** 2 - lam ** 2 - det) <= 16.0 * EPS * np.linalg.norm(m) ** 2

    def test_jordan_type_is_radial(self):
        cls = classify(type1_matrix(1, c=2.5))
        assert cls.kind == DOUBLE_EIGENVALUE_RADIAL
        assert cls.k is None

    def test_normal_with_imaginary_eigenvalues(self):
        cls = classify(np.diag([1j, -1j]))
        assert cls.kind == NORMAL_SADDLE_LINE
        assert cls.k == pytest.approx(2.0, abs=1e-12)
        assert cls.phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert cls.critical_line_angle == pytest.approx(0.0, abs=1e-12)

    def test_non_normal_k6(self):
        # oracle: k = 2|a|^2 + |b|^2 + |1 - a^2|^2 / |b|^2 = 2 + 4 + 0
        cls = classify(np.array([[1, 2], [0, -1]], dtype=complex))
        assert cls.kind == NON_NORMAL_SADDLE
        assert cls.k == pytest.approx(6.0, rel=1e-12)

    def test_gamma_is_small_root(self):
        cls = classify(np.array([[1, 2], [0, -1]], dtype=complex))
        big_root = (cls.k + math.sqrt(cls.k ** 2 - 4)) / 2
        assert cls.gamma * big_root == pytest.approx(1.0, rel=1e-12)
        assert cls.gamma == pytest.approx((6 - math.sqrt(32)) / 2, rel=1e-12)

    def test_k_matches_normal_form_values(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = complex(rng.standard_normal(), rng.standard_normal())
            want = 2 + abs(c) ** 2
            assert k_parameter(type2_matrix(1, c=c)) == pytest.approx(want, rel=1e-10)
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            if abs(b) < 0.1:
                continue
            want = 2 * abs(a) ** 2 + abs(b) ** 2 + abs(1 - a * a) ** 2 / abs(b) ** 2
            assert k_parameter(type2_matrix(2, a=a, b=b)) == pytest.approx(want, rel=1e-10)

    def test_k_invariant_under_scaling_rotation_shift(self):
        core = type2_matrix(2, a=1, b=2)
        moved = scaled_rotated(core, 0.7, 1.1, z0=2 - 3j)
        assert k_parameter(moved) == pytest.approx(6.0, rel=1e-9)


class TestRadialCase:
    def test_norm_depends_only_on_radius_and_decreases(self):
        a = type1_matrix(2, a=1.0, b=2.0) + 0.5 * np.eye(2)
        rng = np.random.default_rng(5)
        for r in (0.3, 0.9, 2.1):
            angles = rng.uniform(0, 2 * np.pi, 12)
            values = [closed_form_norm(a, 0.5 + r * np.exp(1j * t)) for t in angles]
            assert max(values) - min(values) <= 1e-12 * max(values)
        radii = np.linspace(0.1, 3.0, 30)
        values = [closed_form_norm(a, 0.5 + r) for r in radii]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSaddle:
    def test_gradient_zero_at_center_nonnormal(self):
        a = np.array([[1, 2], [0, -1]], dtype=complex)
        h = 1e-5
        f = lambda z: closed_form_norm(a, z) ** 2
        gx = (f(h) - f(-h)) / (2 * h)
        gy = (f(1j * h) - f(-1j * h)) / (2 * h)
        assert abs(gx) <= 1e-8
        assert abs(gy) <= 1e-8

    def test_increase_along_eigenaxis_decrease_perpendicular(self):
        a = np.array([[1, 2], [0, -1]], dtype=complex)   # eigenvalues +-1, real axis
        base = closed_form_norm(a, 0)
        t = 0.2
        assert closed_form_norm(a, t) > base
        assert closed_form_norm(a, 1j * t) < base


class TestGFunction:
    def test_k2_closed_form(self):
        for theta in np.linspace(-3, 3, 25):
            want = (1 + math.cos(2 * theta)) / 2
            assert g_function(2.0, theta) == pytest.approx(want, abs=1e-12)

    def test_k2_theta0(self):
        assert g_function(2.0, 0.0) == pytest.approx(1.0)

    def test_k6_perpendicular(self):
        assert g_function(6.0, math.pi / 2) == pytest.approx(-1.0, abs=1e-12)

    def test_division_guard(self):
        assert g_function(2.0, math.pi / 2) == -math.inf

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            g_function(1.5, 0.0)


class TestDerivativeSign:
    def test_sign_matches_g_on_grid(self):
        # numeric radial derivative of norm^2 of the normalized matrix
        # against the sign function, for several k values
        for k_target, a, b in ((6.0, 1.0, 2.0), (3.0, 0.5, None), (10.0, 2.0, 2.0)):
            if b is None:
                core = type2_matrix(1, c=math.sqrt(k_target - 2.0))
            else:
                core = type2_matrix(2, a=a, b=b)
            k = k_parameter(core)
            for theta in np.linspace(0.05, math.pi - 0.05, 9):
                g = g_function(k, theta)
                for t in (0.04, 0.3, 0.9):
                    if abs(t - g) < 1e-6 or abs(t - 1.0) < 0.05:
                        continue
                    dt = 1e-7
                    z_of = lambda tt: math.sqrt(tt) * np.exp(1j * theta)
                    f = lambda tt: closed_form_norm(core, z_of(tt)) ** 2
                    deriv = (f(t + dt) - f(t - dt)) / (2 * dt)
                    if t < g:
                        assert deriv > 0
                    elif t > max(g, 0.0):
                        assert deriv < 0
