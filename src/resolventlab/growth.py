"""Growth-direction certificates and local-minimum certification.

At a gapped point z the compressions of R(z) and R(z)^2 onto the top
eigenspace of S(z) decide how the resolvent norm grows: a non-vanishing
first compression gives linear growth along phi = -arg<psi, R psi>, a
vanishing first but non-vanishing second gives quadratic growth along
phi = -arg<psi, R^2 psi>/2, and when zero lies in the numerical range of
both the point is a local-minimum candidate. Circle sampling certifies
minima independently of the algebraic conditions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiskHitsSpectrum, DomainError, SegmentHitsSpectrum
from .gap import SpectralGapReport
from .matcore import distance_to_spectrum, ensure_matrix, is_singular, resolvent_norm, smin_points

FIRST_ORDER = "first-order"
SECOND_ORDER = "second-order"
MIN_CANDIDATE = "min-candidate"

# relative tolerances for deciding that the compressed quadratic forms vanish:
# eta1 against ||R(z)||, eta2 against ||R(z)||^2
ETA_RTOL = 1e-9

NUMERICAL_RADIUS_ANGLES = 256
COVERAGE_GRID = 100_000


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified growth order at z with its direction and inner products.

    ``eta1`` is the numerical radius of the compression P R(z) P, ``eta2``
    the modulus of <psi, R^2 psi> for the chosen witness psi, and ``c2``
    the strictly positive quadratic coefficient <R psi, S(z) R psi>.
    ``phi`` is the growth direction angle, absent for min candidates.
    """

    z: complex
    order: str
    phi: float | None
    eta1: float
    eta2: float
    c2: float
    psi: np.ndarray

    def __post_init__(self):
        self.psi.setflags(write=False)


@dataclass(frozen=True)
class MinCandidateReport:
    holds: bool
    prp_norm: float
    zero_in_range: bool


@dataclass(frozen=True)
class GrowthVerification:
    fitted_c: float
    order_ok: bool


@dataclass(frozen=True)
class LocalMinCertificate:
    is_min: bool
    margin: float
    norm_at_center: float


_TWO_PI = 2.0 * math.pi


def _inside_open_arc(angle: float, start: float, end: float) -> bool:
    offset = (angle - start) % _TWO_PI
    return 0.0 < offset < (end - start)


@dataclass(frozen=True)
class ArcSet:
    """Pairwise disjoint open arcs on the circle.

    Each arc is stored as (start, end) with the start normalized into
    [0, 2 pi) and end - start its length, so arcs may wrap the seam; the
    total measure is at most 2 pi.
    """

    arcs: tuple

    def __post_init__(self):
        norm = []
        total = 0.0
        for s, e in self.arcs:
            if not e > s:
                raise DomainError(f"arc ({s}, {e}) has nonpositive length")
            total += e - s
            norm.append((s % _TWO_PI, s % _TWO_PI + (e - s)))
        if total > _TWO_PI + 1e-12:
            raise DomainError(f"arc measure {total} exceeds the full circle")
        for i, (s1, e1) in enumerate(norm):
            for s2, e2 in norm[i + 1:]:
                if (_inside_open_arc(s2, s1, e1) or _inside_open_arc(e2, s1, e1)
                        or _inside_open_arc(s1, s2, e2)):
                    raise DomainError("arcs overlap after normalization")
        object.__setattr__(self, "arcs", tuple(norm))

    def contains(self, angle: float) -> bool:
        return any(_inside_open_arc(angle, s, e) for s, e in self.arcs)


def increase_arcs(phi: float, theta: float) -> ArcSet:
    """The two open arcs ]phi - theta, phi + theta[ and its pi-shift.

    These are the directions along which the resolvent norm of a 2x2
    matrix with eigenvalue-ray angle phi and half-width theta increases
    away from the center.
    """
    if not 0.0 < theta <= math.pi / 2.0:
        raise DomainError(f"arc half-width must lie in (0, pi/2], got {theta}")
    return ArcSet(tuple((c - theta, c + theta) for c in (phi, phi + math.pi)))


def _rotations(m: np.ndarray, vectors: bool = True):
    """The phases e^{i theta_j}, theta_j = 2 pi j / 256, and one batched
    ``eigh`` (``eigvalsh`` without ``vectors``) of the rotated Hermitian
    parts H(theta_j) = (e^{i theta_j} M + e^{-i theta_j} M^H)/2."""
    thetas = 2.0 * math.pi * np.arange(NUMERICAL_RADIUS_ANGLES) / NUMERICAL_RADIUS_ANGLES
    phases = np.exp(1j * thetas)
    h = 0.5 * (phases[:, None, None] * m + np.conj(phases)[:, None, None] * m.conj().T)
    return phases, (np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h))


def numerical_radius(m):
    """max |<psi, M psi>| over unit psi, via the Hermitian-part angle sweep.

    Returns ``(radius, psi)`` where psi attains the sweep maximum of
    lambda_max(H(theta)). Accuracy is 1 - cos(pi/256) relative; the m = 1
    case is exact.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape == (1, 1):
        val = complex(m[0, 0])
        return abs(val), np.array([1.0 + 0j])
    _, (evals, evecs) = _rotations(m)
    j = int(np.argmax(evals[:, -1]))
    return float(evals[j, -1]), evecs[j, :, -1]


def numerical_range_distance(m) -> float:
    """Distance from 0 to the (convex) numerical range of M.

    By convexity, 0 lies outside iff some rotated Hermitian part is
    strictly positive; the support sweep max_theta lambda_min(H(theta))
    is that signed distance (negative values mean 0 is interior).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape == (1, 1):
        return abs(complex(m[0, 0]))
    _, evals = _rotations(m, vectors=False)
    return max(float(evals[:, 0].max()), 0.0)


def _quadratic_form(m: np.ndarray, psi: np.ndarray) -> complex:
    return complex(psi.conj() @ (m @ psi))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: the import
    costs about 0.2 s and only the Nelder-Mead fallback of
    :func:`numerical_range_zero_witness` needs it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def numerical_range_zero_witness(m, tol: float):
    """Search for a unit psi with q = <psi, M psi> = 0 (within tol).

    On each rotation of the sweep, with extreme eigenpairs (h_-, u_-) and
    (h_+, u_+) of H(theta), psi = c u_+ + s e^{i beta} u_- with
    c^2 = -h_-/(h_+ - h_-) has Re(e^{i theta} q) = 0 for every beta, and
    Im(e^{i theta} q) = A + 2|p| sin(beta + arg p) with
    p = e^{i theta} c s <u_+, M u_->; beta solves it in closed form when
    |A| <= 2|p| (Carden 2009, Uhlig 2008). The best vector of the sweep is
    polished by Nelder-Mead only when it misses ``tol``. Returns
    ``(psi, |q(psi)|)`` for the best vector found.
    """
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    if dim == 1:
        return np.array([1.0 + 0j]), abs(complex(m[0, 0]))

    phases, (evals, evecs) = _rotations(m)
    h_minus, h_plus = evals[:, 0], evals[:, -1]
    u_minus, u_plus = evecs[:, :, 0], evecs[:, :, -1]
    width = h_plus - h_minus
    c2 = np.clip(-h_minus / np.where(width > 0, width, 1.0), 0.0, 1.0)
    c, s = np.sqrt(c2), np.sqrt(1.0 - c2)

    def forms(x, y):   # <x_j, M y_j> for every rotation j
        return np.einsum("ji,ik,jk->j", x.conj(), m, y)

    a_im = (phases * (c2 * forms(u_plus, u_plus) + (1.0 - c2) * forms(u_minus, u_minus))).imag
    p = phases * c * s * forms(u_plus, u_minus)
    # sin(beta + arg p) = -A/(2|p|), clipped to the nearest attainable value
    cos_part = np.sqrt(np.maximum(4.0 * np.abs(p) ** 2 - a_im ** 2, 0.0))
    beta = np.arctan2(-a_im, cos_part) - np.angle(p)
    psis = c[:, None] * u_plus + (s * np.exp(1j * beta))[:, None] * u_minus
    best_psi = psis[int(np.argmin(np.abs(forms(psis, psis))))]

    def objective(x):
        v = x[:dim] + 1j * x[dim:]
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return 1e300
        v = v / nrm
        return abs(_quadratic_form(m, v)) ** 2

    if abs(_quadratic_form(m, best_psi)) > tol:
        x0 = np.concatenate([best_psi.real, best_psi.imag])
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": 2000, "fatol": (0.1 * tol) ** 2, "xatol": 1e-12})
        v = res.x[:dim] + 1j * res.x[dim:]
        v = v / np.linalg.norm(v)
        if abs(_quadratic_form(m, v)) < abs(_quadratic_form(m, best_psi)):
            best_psi = v
    return best_psi, abs(_quadratic_form(m, best_psi))


def growth_direction(a, z: complex, report: SpectralGapReport) -> GrowthCertificate:
    """Select the certified growth direction at a gapped point z.

    For degenerate eigenspaces eta1 is the numerical radius of the
    compression P R(z) P, maximized over unit psi in ran P; the maximizing
    psi is returned with the certificate. Everything is read from the
    compressions the report carries, so ``a`` is not factored again.
    """
    b = report.basis
    norm_r = math.sqrt(report.lambda_max)
    m1, m2 = report.r_compressed, report.r2_compressed

    def c2_of(psi_small: np.ndarray) -> float:
        return float(_quadratic_form(report.r2_gram, psi_small).real)

    eta1, psi1 = numerical_radius(m1)
    if eta1 > ETA_RTOL * norm_r:
        val = _quadratic_form(m1, psi1)
        return GrowthCertificate(z, FIRST_ORDER, -cmath.phase(val), float(eta1),
                                 abs(_quadratic_form(m2, psi1)), c2_of(psi1), b @ psi1)

    tol2 = ETA_RTOL * norm_r ** 2
    dist2 = numerical_range_distance(m2)
    if dist2 <= tol2:
        witness, q_abs = numerical_range_zero_witness(m2, tol2)
        eta2 = q_abs if q_abs <= tol2 else dist2
        return GrowthCertificate(z, MIN_CANDIDATE, None, float(eta1),
                                 float(eta2), c2_of(witness), b @ witness)

    eta2, psi2 = numerical_radius(m2)
    val2 = _quadratic_form(m2, psi2)
    return GrowthCertificate(z, SECOND_ORDER, -cmath.phase(val2) / 2.0, float(eta1),
                             float(eta2), c2_of(psi2), b @ psi2)


def min_candidate_check(a, z: complex, report: SpectralGapReport) -> MinCandidateReport:
    """Test the two algebraic local-minimum conditions at z.

    Condition (i), the first compression vanishing on the whole eigenspace,
    is tested as ||P R(z) P|| <= ETA_RTOL * ||R(z)|| (equivalent by
    polarization); condition (ii) as 0 lying in the numerical range of
    P R(z)^2 P within ETA_RTOL * ||R(z)||^2. ``holds`` does not by itself
    certify a minimum; use :func:`certify_local_min` for that. Both are
    read from the report's compressions.
    """
    norm_r = math.sqrt(report.lambda_max)
    prp_norm = float(np.linalg.norm(report.r_compressed, 2))
    zero_in = numerical_range_distance(report.r2_compressed) <= ETA_RTOL * norm_r ** 2
    return MinCandidateReport(prp_norm <= ETA_RTOL * norm_r and zero_in, prp_norm, zero_in)


def verify_growth(a, z: complex, cert: GrowthCertificate, r_max: float,
                  n_samples: int = 16) -> GrowthVerification:
    """Sample the certified segment and fit the largest growth constant.

    Checks ||R(zeta)|| - ||R(z)|| >= c |zeta - z|^p at all samples, p = 1
    for first order and p = 2 for second order; ``order_ok`` means the
    fitted c is strictly positive.
    """
    a = ensure_matrix(a)
    if cert.phi is None:
        raise DomainError("a min-candidate certificate carries no growth direction")
    if r_max <= 0 or n_samples < 1:
        raise DomainError("r_max and n_samples must be positive")
    p = 1 if cert.order == FIRST_ORDER else 2
    ts = r_max * np.arange(n_samples + 1) / n_samples
    zetas = z + ts * cmath.exp(1j * cert.phi)
    sv = np.linalg.svd(a[None] - zetas[:, None, None] * np.eye(a.shape[0]), compute_uv=False)
    singular = is_singular(sv, zetas)
    if singular[0]:
        raise SegmentHitsSpectrum(f"base point {z} lies in the spectrum")
    if np.any(singular):
        raise SegmentHitsSpectrum(f"segment [z, z + {r_max:g} e^(i phi)] meets the spectrum")
    ts, smins = ts[1:], sv[1:, -1]
    growth = 1.0 / smins - 1.0 / sv[0, -1]
    fitted_c = float((growth / ts ** p).min())
    return GrowthVerification(fitted_c, fitted_c > 0.0)


def certify_local_min(a, z: complex, radius: float, n_angles: int) -> LocalMinCertificate:
    """Certify a local minimum by circle sampling at radius and radius/2.

    ``is_min`` requires every sampled norm to exceed ||R(z)|| strictly;
    ``margin`` is the smallest sampled excess.
    """
    a = ensure_matrix(a)
    if radius <= 0 or n_angles < 3:
        raise DomainError("radius must be positive and n_angles >= 3")
    if distance_to_spectrum(a, z) <= radius:
        raise DiskHitsSpectrum(f"disk of radius {radius:g} around {z} meets the spectrum")
    base = resolvent_norm(a, z)
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    ring = np.exp(1j * angles)
    pts = np.concatenate([z + radius * ring, z + 0.5 * radius * ring])
    norms = 1.0 / smin_points(a, pts)
    margin = float(norms.min() - base.norm)
    return LocalMinCertificate(bool(np.all(norms > base.norm)), margin, base.norm)


def theta_arc(k: float) -> float:
    """Half-width theta = pi/2 - arccos(gamma)/2 of the increase arcs.

    gamma = (k - sqrt(k^2 - 4))/2 computed in the cancellation-free form;
    theta lies in (pi/4, pi/2], equal to pi/2 exactly at k = 2.
    """
    if k < 2.0:
        raise DomainError(f"theta_arc requires k >= 2, got {k}")
    gamma = 2.0 / (k + math.sqrt(k * k - 4.0))
    return math.pi / 2.0 - 0.5 * math.acos(min(gamma, 1.0))


def torus_coverage(pairs) -> bool:
    """Do the open arcs ]phi_j - theta_j, phi_j + theta_j[ cover all directions mod pi?

    Tested on a uniform grid of ``COVERAGE_GRID`` points of [0, pi). Arcs
    are kept open; a grid point left uncovered is accepted only when there
    are at most two of them and each coincides with an arc endpoint that is
    shared by the pi-shifted copy of an arc (the k = 2 case, where a single
    arc covers everything except the exact perpendicular direction).
    """
    pairs = [(float(p), float(t)) for p, t in pairs]
    for _, theta in pairs:
        if not (math.pi / 4.0 < theta <= math.pi / 2.0 + 1e-15):
            raise DomainError(f"arc half-width {theta} outside (pi/4, pi/2]")
    ts = math.pi * np.arange(COVERAGE_GRID) / COVERAGE_GRID
    covered = np.zeros(COVERAGE_GRID, dtype=bool)
    for phi, theta in pairs:
        x = np.mod(ts - (phi - theta), math.pi)
        covered |= (x > 0.0) & (x < 2.0 * theta)
    uncovered = ts[~covered]
    if uncovered.size == 0:
        return True
    if uncovered.size > 2:
        return False
    lefts = np.array([(phi - theta) % math.pi for phi, theta in pairs])
    rights = np.array([(phi + theta) % math.pi for phi, theta in pairs])
    step = math.pi / COVERAGE_GRID

    def near(u, ends):
        d = np.abs(ends - u)
        return bool(np.any(np.minimum(d, math.pi - d) <= 0.5 * step))

    return all(near(u, lefts) and near(u, rights) for u in uncovered)
