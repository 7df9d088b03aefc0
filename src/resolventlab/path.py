"""Constructive polygonal ascent paths inside a pseudospectrum.

From any point of the strict sublevel set {smin < epsilon} the resolvent
norm can be driven uphill along growth-certificate directions until an
eigenvalue ball of radius epsilon/2 is reached. Every traversed segment is
sampled at ``SAMPLES_PER_SEGMENT`` equispaced points, each above the floor
(f(z1) + 1/epsilon)/2 > 1/epsilon, so the sampled path lies inside the
pseudospectrum; between samples it is not proven to.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MaxVerticesExceeded, StallDetected
from .gap import spectral_gap_report
from .growth import growth_direction
from .matcore import ensure_matrix, smin_points


# Step policy: it follows the ascent structure of the proof with explicit
# numeric substitutes for its uncomputable radii.
STEP_FRACTION = 0.5       # of the distance to the spectrum
BACKTRACK = 0.5
MIN_STEP_RTOL = 1e-9      # scaled by 1 + |z|
FALLBACK_ANGLES = 64
SAMPLES_PER_SEGMENT = 64
MAX_VERTICES = 10_000


@dataclass(frozen=True)
class PolygonalPath:
    epsilon: float
    vertices: np.ndarray
    terminal_eigenvalue: complex
    floor: float
    vertex_norms: np.ndarray

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.vertex_norms.setflags(write=False)


def _norms_on_segment(a, x, y) -> np.ndarray:
    """Norms at the equispaced samples of [x, y]; one row per segment when
    ``x`` or ``y`` is an array."""
    ts = np.linspace(0.0, 1.0, SAMPLES_PER_SEGMENT)
    x = np.asarray(x)
    pts = x[..., None] + ts * (y - x)[..., None]
    with np.errstate(divide="ignore"):
        return 1.0 / smin_points(a, pts)


def build_path(a, z: complex, epsilon: float) -> PolygonalPath:
    """Build a polygonal path from z to an eigenvalue ball of radius eps/2.

    Requires smin(A - zI) < epsilon. At each vertex the growth certificate
    provides an uphill direction; the longest feasible step up to half the
    distance to the spectrum is taken, backtracking geometrically, with a
    64-direction circle search as fallback when the line search underflows.
    Feasible means every sampled point of the segment keeps its norm at or
    above the floor and the endpoint strictly improves; the segments are
    sampled, not proven to stay inside.
    """
    a = ensure_matrix(a)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    eigs = np.linalg.eigvals(a)
    smin0 = float(smin_points(a, np.array([z]))[0])
    if not smin0 < epsilon:
        raise DomainError(f"z={z} is not in the pseudospectrum (smin={smin0:.6e} >= {epsilon:g})")
    f0 = np.inf if smin0 == 0.0 else 1.0 / smin0
    floor = 0.5 * (f0 + 1.0 / epsilon) if math.isfinite(f0) else np.inf

    vertices = [complex(z)]
    norms = [f0]
    min_step = MIN_STEP_RTOL * (1.0 + abs(z))
    consecutive_stalls = 0

    for _ in range(MAX_VERTICES):
        current = vertices[-1]
        f_cur = norms[-1]
        dist = float(np.abs(eigs - current).min())
        if dist < 0.5 * epsilon:
            terminal = complex(eigs[int(np.abs(eigs - current).argmin())])
            return PolygonalPath(float(epsilon), np.array(vertices),
                                 terminal, float(floor), np.array(norms))

        # NoGapError propagates with the stalled vertex in its payload
        report = spectral_gap_report(a, current)
        cert = growth_direction(a, current, report)

        accepted = None
        if cert.phi is not None:
            direction = cmath.exp(1j * cert.phi)
            step = STEP_FRACTION * dist
            while step >= min_step:
                y = current + step * direction
                seg = _norms_on_segment(a, current, y)
                if np.all(seg >= floor) and seg[-1] > f_cur:
                    accepted = (y, float(seg[-1]), step)
                    break
                step *= BACKTRACK

        if accepted is None:
            # the certificate guarantees an uphill direction exists, but not
            # how far it reaches; scan a circle for the best strict gain
            radius = 0.25 * dist
            thetas = 2.0 * math.pi * np.arange(FALLBACK_ANGLES) / FALLBACK_ANGLES
            ys = current + radius * np.exp(1j * thetas)
            segs = _norms_on_segment(a, current, ys)
            ok = np.all(segs >= floor, axis=1) & (segs[:, -1] > f_cur)
            if not ok.any():
                raise StallDetected(
                    f"no uphill step found at vertex {current} (norm {f_cur:.6e})")
            j = int(np.argmax(np.where(ok, segs[:, -1], -np.inf)))   # first maximum
            accepted = (complex(ys[j]), float(segs[j, -1]), radius)
            consecutive_stalls += 1
            if consecutive_stalls >= 2 and accepted[2] < min_step:
                raise StallDetected(
                    f"step underflow at two consecutive vertices near {current}")
        else:
            consecutive_stalls = 0

        vertices.append(accepted[0])
        norms.append(accepted[1])

    raise MaxVerticesExceeded(f"no eigenvalue ball reached within {MAX_VERTICES} vertices")


def validate_path(a, path: PolygonalPath, epsilon: float) -> bool:
    """Re-check the path invariants by independent sampling.

    Verifies membership of the first vertex, the floor bound at
    ``SAMPLES_PER_SEGMENT`` equispaced points of every segment, and the
    terminal eigenvalue ball condition. The segments are sampled, not
    proven: a neck of the pseudospectrum narrower than the sample spacing
    goes unseen.
    """
    a = ensure_matrix(a)
    v = np.asarray(path.vertices, dtype=complex)
    if v.size == 0:
        return False
    smin_first = float(smin_points(a, v[:1])[0])
    if not smin_first < epsilon:
        return False
    if not path.floor > 1.0 / epsilon:
        return False
    eigs = np.linalg.eigvals(a)
    if not float(np.abs(eigs - v[-1]).min()) < 0.5 * epsilon:
        return False
    if abs(complex(path.terminal_eigenvalue) - complex(v[-1])) >= 0.5 * epsilon:
        return False
    return bool(np.all(_norms_on_segment(a, v[:-1], v[1:]) >= path.floor))
