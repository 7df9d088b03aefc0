"""Shared strategies and seeded instance generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from resolventlab.errors import NoGapError
from resolventlab.gap import spectral_gap_report
from resolventlab.matcore import distance_to_spectrum

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Complex Ginibre matrix normalized to spectral radius about ``scale``."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * (
        scale / np.sqrt(2.0 * n))


def random_normal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unitary-conjugated random diagonal (exactly normal up to rounding)."""
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ np.diag(d) @ q.conj().T


def gapped_instance(seed: int, n: int, min_ratio: float = 1.05, min_dist: float = 0.15):
    """Deterministic (A, z, report) with a healthy spectral gap at z.

    Draws a seeded random matrix, then scans seeded candidate points until
    one is far enough from the spectrum and has gap_ratio >= min_ratio.
    """
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, n)
    for _ in range(256):
        z = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        if distance_to_spectrum(a, z) < min_dist:
            continue
        try:
            report = spectral_gap_report(a, z)
        except NoGapError:
            continue
        if report.gap_ratio >= min_ratio:
            return a, z, report
    raise AssertionError(f"no gapped point found for seed {seed} (n={n})")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
