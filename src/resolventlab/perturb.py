"""Schur-complement perturbation operators and third-order sweeps.

Given a gapped base point z, the operators W(zeta) and its expansion
Wtilde(zeta) compress the perturbed S(zeta) onto the lambda_max-eigenspace.
Their spectra track sigma(S(zeta)) inside the gap disk to third order in
|zeta - z|, which :func:`cubic_order_sweep` verifies as a log-log slope.

Each point is factored once, by :func:`~resolventlab.matcore.shifted_svd`.
With A - zI = U diag(s) V^H, S(z) = U diag(s^-2) U^H is diagonal in the
coordinates of U: ran P is spanned by its last ``multiplicity`` columns (the
gap report's basis) and ran P_perp by the others. S(zeta) =
U_zeta diag(s_zeta^-2) U_zeta^H is taken into the same coordinates, so the
difference S(zeta) - S(z) is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlockSingular, EmptySetError, GapLost
from .gap import GapDisk, gap_disk, report_from_svd
from .matcore import ensure_matrix, shifted_svd

# the P_perp block counts as singular when its smallest absolute eigenvalue
# falls below this fraction of lambda_max
BLOCK_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class OrderFit:
    """Log-log least-squares slope of values against radii.

    Values at or below the rounding level n eps lambda_max(z) (reached when
    a quantity is decoupled and only machine noise remains) are excluded
    from the fit; with fewer than two usable points the slope is reported
    as +inf, meaning the decay is too fast to measure.
    """

    radii: np.ndarray
    values: np.ndarray
    slope: float


@dataclass(frozen=True)
class CubicOrderReport:
    norm_gap: OrderFit      # |lambda_max(zeta) - ||W(zeta)|||
    hausdorff: OrderFit     # d_H(sigma(W) in D, sigma(S(zeta)) in D)


def _base(a, z: complex):
    """The SVD of A - zI and the gap report built on it."""
    svd = shifted_svd(a, z)
    return svd, report_from_svd(z, svd)


def _gram_rows(cols: np.ndarray, u: np.ndarray, svd_zeta) -> np.ndarray:
    """cols^H S(zeta) U, for ``cols`` some columns of U, from the SVD of A - zeta I."""
    uz, sz, _ = svd_zeta
    return ((cols.conj().T @ uz) * sz ** -2.0) @ uz.conj().T @ u


def _w_parts(svd_z, report, svd_zeta):
    """P S(zeta) P and the Schur tail P dS P_perp (lam - S(z))^-1 P_perp dS P,
    both on ran P in the report-basis coordinates.

    P S(z) P_perp vanishes, so P dS P_perp = P S(zeta) P_perp, and the
    middle inverse is diagonal and positive.
    """
    u, s, _ = svd_z
    k = s.size - report.multiplicity
    row = _gram_rows(report.basis, u, svd_zeta)
    off = row[:, :k]
    return row[:, k:], (off / (report.lambda_max - s[:k] ** -2.0)) @ off.conj().T


def schur_complement(a, z: complex, zeta: complex, lam: float) -> np.ndarray:
    """Feshbach reduction F(zeta, lam) of S(zeta) - lam onto ran P.

    F = P S(zeta) P - lam P + P S(zeta) P_perp (lam P_perp - P_perp S(zeta)
    P_perp)^-1 P_perp S(zeta) P, in the report-basis coordinates of ran P.
    """
    svd_z, report = _base(a, z)
    u = svd_z[0]
    k = u.shape[0] - report.multiplicity
    s_u = _gram_rows(u, u, shifted_svd(a, zeta))
    middle = lam * np.eye(k) - s_u[:k, :k]
    if k > 0:
        small = float(np.abs(np.linalg.eigvalsh(middle)).min())
        if small <= BLOCK_SINGULAR_RTOL * report.lambda_max:
            raise BlockSingular(
                f"P-perp block of S(zeta)-lambda not invertible (|eig|min={small:.3e})")
        tail = s_u[k:, :k] @ np.linalg.solve(middle, s_u[:k, k:])
    else:
        tail = 0.0
    return s_u[k:, k:] - lam * np.eye(report.multiplicity) + tail


def w_operator(a, z: complex, zeta: complex) -> np.ndarray:
    """W(zeta) on ran P: lam P + P dS P + P dS P_perp (lam - S(z))^-1 P_perp dS P."""
    svd_z, report = _base(a, z)
    psp, tail = _w_parts(svd_z, report, shifted_svd(a, zeta))
    return psp + tail


def w_tilde(a, z: complex, zeta: complex) -> np.ndarray:
    """Second-order expansion of W(zeta) in Delta-zeta, on ran P.

    Assembled from the report's compressions of powers of R(z), the
    |Delta zeta|^2 positive term, and the exact second-order Schur tail.
    Hermitian by construction (conjugate-paired first- and second-order
    terms).
    """
    svd_z, report = _base(a, z)
    lam = report.lambda_max
    dz = complex(zeta - z)
    m_r, m_r2 = report.r_compressed, report.r2_compressed
    wt = lam * np.eye(report.multiplicity, dtype=complex)
    wt = wt + lam * (dz * m_r + np.conj(dz) * m_r.conj().T)
    wt = wt + lam * (dz ** 2 * m_r2 + np.conj(dz) ** 2 * m_r2.conj().T)
    wt = wt + abs(dz) ** 2 * report.r2_gram   # P R* S R P = (R^2 P)* (R^2 P)
    return wt + _w_parts(svd_z, report, shifted_svd(a, zeta))[1]


def hausdorff_distance(m_set, n_set) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    ms = np.asarray(m_set, dtype=complex).ravel()
    ns = np.asarray(n_set, dtype=complex).ravel()
    if ms.size == 0 or ns.size == 0:
        raise EmptySetError("Hausdorff distance needs two non-empty sets")
    pair = np.abs(ms[:, None] - ns[None, :])
    return float(max(pair.min(axis=1).max(), pair.min(axis=0).max()))


def log_log_slope(radii, values) -> float:
    """Least-squares slope of log(values) against log(radii).

    Non-positive values carry no order information and are dropped; with
    fewer than two usable points the decay is below noise and the slope is
    +inf.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = v > 0.0
    if keep.sum() < 2:
        return np.inf
    coeff = np.polyfit(np.log(r[keep]), np.log(v[keep]), 1)
    return float(coeff[0])


def cubic_order_sweep(a, z: complex, angle: float, radii) -> CubicOrderReport:
    """Sweep zeta = z + r e^{i angle} and fit the third-order estimates.

    For each radius the sweep records |lambda_max(zeta) - ||W(zeta)||| and
    the Hausdorff distance between sigma(W(zeta)) and sigma(S(zeta)) inside
    the gap disk D. Raises :class:`GapLost` when the top of S(zeta) or
    either disk intersection escapes D along the sweep.
    """
    a = ensure_matrix(a)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2 or np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be a strictly decreasing list of positive reals")
    svd_z, report = _base(a, z)
    disk: GapDisk = gap_disk(report)
    direction = np.exp(1j * angle)
    gap_values = np.empty(radii.size)
    haus_values = np.empty(radii.size)
    for i, r in enumerate(radii):
        zeta = z + r * direction
        svd_zeta = shifted_svd(a, zeta)
        s_evals = svd_zeta[1] ** -2.0
        lam_zeta = float(s_evals[-1])
        if not disk.contains([lam_zeta])[0]:
            raise GapLost(f"lambda_max({zeta}) = {lam_zeta:.6e} left the gap disk at r={r:g}")
        psp, tail = _w_parts(svd_z, report, svd_zeta)
        w_evals = np.linalg.eigvalsh(psp + tail)
        w_norm = float(np.abs(w_evals).max())
        gap_values[i] = abs(lam_zeta - w_norm)
        s_in = s_evals[disk.contains(s_evals)]
        w_in = w_evals[disk.contains(w_evals)]
        if s_in.size == 0 or w_in.size == 0:
            raise GapLost(f"no spectrum left inside the gap disk at r={r:g}")
        haus_values[i] = hausdorff_distance(w_in, s_in)
    noise = a.shape[0] * np.finfo(float).eps * report.lambda_max
    norm_gap, hausdorff = (OrderFit(radii, v, log_log_slope(radii, np.where(v > noise, v, 0.0)))
                           for v in (gap_values, haus_values))
    return CubicOrderReport(norm_gap=norm_gap, hausdorff=hausdorff)
