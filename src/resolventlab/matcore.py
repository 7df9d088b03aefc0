"""Dense complex matrix foundation: spectra, singular values, resolvent quantities.

Matrices are plain ``numpy.ndarray`` of complex128; every function validates
its input through :func:`ensure_matrix`. All operations are pure and the
returned record types are immutable, so values can be shared freely between
workers.

Every pointwise quantity comes from one SVD A - zI = U diag(s) V^H
(:func:`shifted_svd`): R(z) = V diag(1/s) U^H, and S(z) = R^H R =
U diag(s^-2) U^H, so the eigenvalues of S(z) are s^-2 with the left singular
vectors as eigenvectors. No explicit inverse is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint

# z counts as spectral when smin(A - zI) <= SINGULARITY_RTOL * (1 + ||A|| + |z|),
# with ||A|| bounded by sigma_1(A - zI) + |z| from the same SVD
SINGULARITY_RTOL = 1e-14

# eigenvalues closer than CLUSTER_RTOL * (1 + spectral radius) are merged
CLUSTER_RTOL = 1e-8


def ensure_matrix(a) -> np.ndarray:
    """Validate and coerce ``a`` to a square complex128 matrix.

    Raises ``ValueError`` for non-square shapes or non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues after clustering, with algebraic multiplicities."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.multiplicities.setflags(write=False)


@dataclass(frozen=True)
class ResolventValue:
    """Smallest singular value of A - zI and the resolvent norm 1/smin."""

    z: complex
    smin: float
    norm: float


def singularity_floor(a_norm: float, z: complex) -> float:
    """Scale-relative threshold below which A - zI counts as singular."""
    return SINGULARITY_RTOL * (1.0 + a_norm + abs(z))


def is_singular(s, z):
    """Whether the singular values ``s`` of A - zI (descending, along the last
    axis) put z in the spectrum; ``s`` and ``z`` may be batched.

    ||A|| is taken as sigma_1(A - zI) + |z|, which is never below ||A||.
    """
    return s[..., -1] <= singularity_floor(s[..., 0] + np.abs(z), z)


def spectrum(a) -> Spectrum:
    """Eigenvalues of ``a`` clustered into distinct values with multiplicities.

    Numerical eigensolvers split multiple eigenvalues into tight clouds;
    eigenvalues within ``CLUSTER_RTOL * (1 + spectral radius)`` of a cluster
    mean are merged and their count accumulated.
    """
    m = ensure_matrix(a)
    raw = np.linalg.eigvals(m)
    tol = CLUSTER_RTOL * (1.0 + float(np.abs(raw).max()))
    order = np.lexsort((raw.imag, raw.real))
    centers: list[complex] = []
    counts: list[int] = []
    for lam in raw[order]:
        lam = complex(lam)
        for i, c in enumerate(centers):
            if abs(lam - c) <= tol:
                centers[i] = (c * counts[i] + lam) / (counts[i] + 1)
                counts[i] += 1
                break
        else:
            centers.append(lam)
            counts.append(1)
    return Spectrum(np.array(centers, dtype=complex), np.array(counts, dtype=int))


def distance_to_spectrum(a, z: complex) -> float:
    """min over eigenvalues of |lambda - z| (0 when z is an eigenvalue)."""
    m = ensure_matrix(a)
    return float(np.abs(np.linalg.eigvals(m) - z).min())


def resolvent_norm(a, z: complex) -> ResolventValue:
    """Resolvent norm ||(A - zI)^-1|| as 1/smin(A - zI).

    Returns ``norm = inf`` exactly when smin falls below the singularity
    floor.
    """
    m = ensure_matrix(a)
    s = np.linalg.svd(m - z * np.eye(m.shape[0]), compute_uv=False)
    smin = float(s[-1])
    return ResolventValue(z, smin, np.inf if is_singular(s, z) else 1.0 / smin)


def smin_points(a, zs) -> np.ndarray:
    """Smallest singular value of A - zI for every z in ``zs`` (batched SVD).

    ``zs`` may have any shape; the result matches it. Chunked to bound the
    memory of the stacked SVD.
    """
    m = ensure_matrix(a)
    n = m.shape[0]
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    out = np.empty(flat.shape[0], dtype=float)
    eye = np.eye(n, dtype=complex)
    chunk = max(1, 1_000_000 // (n * n))
    for start in range(0, flat.shape[0], chunk):
        block = flat[start:start + chunk]
        stack = m[None, :, :] - block[:, None, None] * eye[None, :, :]
        out[start:start + chunk] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return out.reshape(zs.shape)


def shifted_svd(a, z: complex):
    """The SVD A - zI = U diag(s) V^H as ``(u, s, vh)``, ``s`` descending.

    Raises :class:`SingularPoint` when z lies in the spectrum within the
    singularity floor.
    """
    m = ensure_matrix(a)
    u, s, vh = np.linalg.svd(m - z * np.eye(m.shape[0]))
    if is_singular(s, z):
        raise SingularPoint(f"z={z} is in the spectrum within tolerance (smin={s[-1]:.3e})")
    return u, s, vh


def gram(a, z: complex) -> np.ndarray:
    """S(z) = (A - zI)^-* (A - zI)^-1 = U diag(s^-2) U^H, Hermitian positive definite.

    The largest eigenvalue equals the squared resolvent norm.
    """
    u, s, _ = shifted_svd(a, z)
    return (u * s ** -2.0) @ u.conj().T
