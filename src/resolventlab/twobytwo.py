"""Exact closed-form resolvent-norm landscape for 2x2 matrices.

For n = 2 the resolvent norm is an explicit radical expression in
w(z) = sum |(A - zI)_ij|^2 and h(z) = |det(A - zI)|^2, the landscape is
symmetric about tr(A)/2, and every critical point can be classified:
a double eigenvalue gives a strictly decreasing radial landscape, a normal
matrix a line of (non-extremal) critical points, and a non-normal matrix a
single saddle at tr(A)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matcore import ensure_matrix, singularity_floor

DOUBLE_EIGENVALUE_RADIAL = "double-eigenvalue-radial"
NORMAL_SADDLE_LINE = "normal-saddle-line"
NON_NORMAL_SADDLE = "non-normal-saddle"

# |lambda| below this relative scale counts as a double eigenvalue
DOUBLE_EIG_RTOL = 1e-10

# commutator threshold for the normality test deciding k = 2
NORMALITY_RTOL = 1e-12


@dataclass(frozen=True)
class WH:
    w: float
    h: float


@dataclass(frozen=True)
class TwoByTwoClassification:
    """Landscape classification of a 2x2 matrix.

    ``center`` is tr(A)/2 and ``lam`` the half eigenvalue difference, so the
    eigenvalues are center +/- lam. ``k``, ``gamma`` and ``phi`` are present
    exactly when the eigenvalues are distinct; ``critical_line_angle`` only
    for the normal case (the line through center perpendicular to the
    eigenvalue axis, angle taken mod pi).
    """

    kind: str
    center: complex
    lam: complex
    k: float | None = None
    gamma: float | None = None
    phi: float | None = None
    critical_line_angle: float | None = None


def _ensure_2x2(a) -> np.ndarray:
    m = ensure_matrix(a)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def wh(a, z: complex) -> WH:
    """w(z) = sum of squared moduli of A - zI entries, h(z) = |det(A - zI)|^2."""
    m = _ensure_2x2(a)
    shifted = m - z * np.eye(2)
    w = float(np.sum(np.abs(shifted) ** 2))
    # not np.linalg.det: its LU divides by a subnormal pivot and returns NaN
    (s11, s12), (s21, s22) = shifted
    h = float(abs(s11 * s22 - s12 * s21) ** 2)
    return WH(w, h)


def closed_form_norm(a, z: complex) -> float:
    """Resolvent norm via the 2x2 closed form, inf on the spectrum.

    norm^2 = 2 / (w - sqrt(w^2 - 4h)) evaluated in the cancellation-free
    form (w + sqrt(w^2 - 4h)) / (2h), which is stable for small h. The
    root is taken as sqrt((p - q)^2 + 4|r|^2), with p and q the squared row
    norms of A - zI and r their inner product, which is stable also when
    the two singular values are close and w^2 - 4h cancels.

    z is on the spectrum, as in :func:`~resolventlab.matcore.resolvent_norm`,
    when smin = sqrt(h) / sigma_max falls at or below the singularity floor;
    sigma_max^2 = (w + sqrt(w^2 - 4h)) / 2 comes from the same closed form.
    """
    v = wh(a, z)
    rows = _ensure_2x2(a) - z * np.eye(2)
    p, q = np.sum(np.abs(rows) ** 2, axis=1)
    disc = math.hypot(p - q, 2.0 * abs(np.vdot(rows[1], rows[0])))
    smax = math.sqrt(0.5 * (v.w + disc))
    if math.sqrt(v.h) <= smax * singularity_floor(smax + abs(z), z):
        return math.inf
    return math.sqrt((v.w + disc) / (2.0 * v.h))


def half_eigen_difference(a) -> complex:
    """lambda with eigenvalues of A equal to tr(A)/2 +/- lambda."""
    m = _ensure_2x2(a)
    center = complex(np.trace(m)) / 2.0
    a1 = m - center * np.eye(2)
    # -det(a1) of the trace-free part, from the 2x2 formula as in wh
    return cmath.sqrt(a1[0, 0] ** 2 + a1[0, 1] * a1[1, 0])


def k_parameter(a) -> float:
    """Shape parameter k >= 2 of a 2x2 matrix with distinct eigenvalues.

    Computed basis-free as w(center) / |lambda|^2, which reproduces the
    normal-form values 2 + |c|^2 and 2|a|^2 + |b|^2 + |1 - a^2|^2 / |b|^2
    without reducing to a normal form.
    """
    m = _ensure_2x2(a)
    center = complex(np.trace(m)) / 2.0
    lam = half_eigen_difference(m)
    if lam == 0:
        raise ValueError("k is undefined for a double eigenvalue")
    return max(wh(m, center).w / abs(lam) ** 2, 2.0)


def classify(a) -> TwoByTwoClassification:
    """Classify the landscape of a 2x2 matrix per its critical structure."""
    m = _ensure_2x2(a)
    center = complex(np.trace(m)) / 2.0
    lam = half_eigen_difference(m)
    scale = float(np.linalg.norm(m, 2))
    if abs(lam) <= DOUBLE_EIG_RTOL * (1.0 + scale):
        return TwoByTwoClassification(DOUBLE_EIGENVALUE_RADIAL, center, 0j)
    k = k_parameter(m)
    gamma = 2.0 / (k + math.sqrt(max(k * k - 4.0, 0.0)))
    phi = cmath.phase(lam)
    if phi <= -math.pi / 2.0:
        phi += math.pi
    elif phi > math.pi / 2.0:
        phi -= math.pi
    commutator = m @ m.conj().T - m.conj().T @ m
    if float(np.linalg.norm(commutator, 2)) <= NORMALITY_RTOL * scale ** 2:
        line = (phi + math.pi / 2.0) % math.pi
        return TwoByTwoClassification(NORMAL_SADDLE_LINE, center, lam, k, gamma, phi, line)
    return TwoByTwoClassification(NON_NORMAL_SADDLE, center, lam, k, gamma, phi)


def g_function(k: float, theta: float) -> float:
    """Sign function of the radial derivative of the squared norm.

    g(k, theta) = (k + 2cos 2theta)/4 - (k+2)(k-2)/(4(k + 2cos 2theta));
    the squared resolvent norm of the normalized matrix increases in radius
    while t < g and decreases for t > max(g, 0). The denominator vanishes
    only at k = 2, theta = +-pi/2, where -inf is returned (pure decrease).
    """
    if k < 2.0:
        raise ValueError(f"k must be >= 2, got {k}")
    q = k + 2.0 * math.cos(2.0 * theta)
    if q == 0.0:
        return -math.inf
    return 0.25 * q - (k + 2.0) * (k - 2.0) / (4.0 * q)
