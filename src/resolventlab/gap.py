"""Spectral-gap verification for S(z) = R(z)* R(z).

The growth and perturbation machinery requires the top of sigma(S(z)) to be
an isolated eigenvalue lambda_max(z) above the rest of the spectrum, which
sits in [0, a(z)]. :func:`spectral_gap_report` checks this numerically and
packages the eigenspace data everything downstream consumes. All of it comes
from one SVD A - zI = U diag(s) V^H: the eigenvalues of S(z) are s^-2, so
lambda_max and a(z) are read off the smallest singular values (never off
R^H R, whose eigensolve loses a(z) near the spectrum), and the top
eigenspace is spanned by their left singular vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoGapError
from .matcore import shifted_svd

GAP_RTOL = 1e-6

# eigenvalues of S(z) within this relative distance of the top are counted
# into the lambda_max eigenspace; kept below GAP_RTOL so that a
# cluster is either merged into the top or flagged as NoGap, never both
TOP_CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralGapReport:
    """Numerical verdict on the gap condition at a point z.

    ``basis`` holds an orthonormal basis of the lambda_max-eigenspace as
    columns of an n x multiplicity array. ``gap_ratio`` is
    lambda_max / a_z, infinite when the rest of the spectrum is empty.
    In the coordinates of ``basis``, ``r_compressed`` is P R(z) P,
    ``r2_compressed`` is P R(z)^2 P and ``r2_gram`` is (R(z)^2 P)^* (R(z)^2 P),
    each multiplicity x multiplicity.
    """

    z: complex
    lambda_max: float
    a_z: float
    multiplicity: int
    basis: np.ndarray
    gap_ratio: float
    r_compressed: np.ndarray
    r2_compressed: np.ndarray
    r2_gram: np.ndarray

    def __post_init__(self):
        for array in (self.basis, self.r_compressed, self.r2_compressed, self.r2_gram):
            array.setflags(write=False)


@dataclass(frozen=True)
class GapDisk:
    """Disk around lambda_max(z) of radius half the gap width."""

    center: float
    radius: float

    def contains(self, values) -> np.ndarray:
        return np.abs(np.asarray(values) - self.center) < self.radius


def report_from_svd(z: complex, svd) -> SpectralGapReport:
    """The gap report at z from ``svd = (u, s, vh)``, the SVD of A - zI made
    by :func:`~resolventlab.matcore.shifted_svd`.

    Raises :class:`NoGapError` when the relative gap
    (lambda_max - a_z) / lambda_max falls below ``GAP_RTOL``.
    """
    u, s, vh = svd
    n = s.size
    evals = s ** -2.0                       # sigma(S(z)), ascending
    lam = float(evals[-1])
    mult = int(np.sum(evals >= lam * (1.0 - TOP_CLUSTER_RTOL)))
    a_z = float(evals[n - 1 - mult]) if mult < n else 0.0
    rel_gap = (lam - a_z) / lam
    if rel_gap < GAP_RTOL:
        raise NoGapError(z, lam, a_z, rel_gap)
    ratio = np.inf if a_z <= 0.0 else lam / a_z
    b = np.ascontiguousarray(u[:, n - mult:])
    bh = b.conj().T
    rb = vh[n - mult:].conj().T / s[n - mult:]      # R B = V diag(1/s) U^H B
    y = (u.conj().T @ rb) / s[:, None]              # R^2 B = V y
    return SpectralGapReport(z, lam, a_z, mult, b, float(ratio),
                             bh @ rb, (bh @ vh.conj().T) @ y, y.conj().T @ y)


def spectral_gap_report(a, z: complex) -> SpectralGapReport:
    """Verify the gap condition at z and return the eigenspace data.

    Raises :class:`NoGapError` when the relative gap
    (lambda_max - a_z) / lambda_max falls below ``GAP_RTOL``, and
    :class:`SingularPoint` when z lies in the spectrum.
    """
    return report_from_svd(z, shifted_svd(a, z))


def riesz_projection(report: SpectralGapReport) -> np.ndarray:
    """Orthogonal projection onto the lambda_max-eigenspace.

    For Hermitian S(z) the Riesz projection of the isolated top eigenvalue
    is the orthogonal eigenprojection sum psi psi*.
    """
    b = report.basis
    return b @ b.conj().T


def gap_disk(report: SpectralGapReport) -> GapDisk:
    return GapDisk(report.lambda_max, 0.5 * (report.lambda_max - report.a_z))
