"""Constructive polygonal ascent paths inside a pseudospectrum.

From any point of the strict sublevel set {smin < epsilon} the resolvent
norm can be driven uphill along growth-certificate directions until an
eigenvalue ball of radius epsilon/2 is reached. Every traversed segment
keeps its norm at or above the floor (f(z1) + 1/epsilon)/2 > 1/epsilon at
``SAMPLES_PER_SEGMENT`` equispaced samples, so the sampled path lies inside
the pseudospectrum. Between samples a segment is proven inside wherever the
Lipschitz bound on smin closes and only sampled elsewhere; the path's
``certified`` flag says which.
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
    certified: bool = False   # every segment proven above the floor, not only sampled

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.vertex_norms.setflags(write=False)


def _segments_above_floor(a, x, y, floor):
    """Check the segments [x, y] against the floor, one row per segment when
    ``x`` or ``y`` is an array; returns ``(ok, certified, end_norms)``.

    ``ok``: the norm is at or above ``floor`` at all ``SAMPLES_PER_SEGMENT``
    equispaced samples t = i/63. ``certified``: ``ok``, and the segment is
    proven there between the samples too. ``end_norms``: the norm at t = 1.

    smin(A - zI) is 1-Lipschitz in z, so between samples i and j, h apart,
    smin <= (s_i + s_j + (j - i) h)/2. A stretch whose bound, plus the SVD's
    backward error, is below 1/floor is proven and its inner samples are
    skipped; any other is split at (i + j)//2 down to adjacent samples,
    which stay sampled leaves. A sample below the floor rejects its segment.
    Each level is one batch over all segments, and no sample is evaluated
    twice, so no segment costs more than ``SAMPLES_PER_SEGMENT`` points.
    """
    ts = np.linspace(0.0, 1.0, SAMPLES_PER_SEGMENT)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    x, d = x.ravel(), (y - x).ravel()
    n, last = x.size, SAMPLES_PER_SEGMENT - 1
    h = np.abs(d) / last
    # the SVD's backward error in smin, 8 eps sigma_1(A - zI) <= 8 eps (||A||_F + |z|)
    slack = 8.0 * np.finfo(float).eps * (math.sqrt(np.vdot(a, a).real)
                                         + np.maximum(np.abs(x), np.abs(y.ravel())))
    s = np.empty((n, SAMPLES_PER_SEGMENT))   # smin at the evaluated samples
    ok = np.ones(n, dtype=bool)
    certified = np.ones(n, dtype=bool)

    def evaluate(seg, i):
        s[seg, i] = smin_points(a, x[seg] + ts[i] * d[seg])
        with np.errstate(divide="ignore"):
            ok[seg[1.0 / s[seg, i] < floor]] = False

    evaluate(np.repeat(np.arange(n), 2), np.tile([0, last], n))
    seg, i, j = np.arange(n), np.zeros(n, dtype=int), np.full(n, last)
    while True:
        seg, i, j = (v[ok[seg]] for v in (seg, i, j))
        unproven = 0.5 * (s[seg, i] + s[seg, j] + (j - i) * h[seg]) + slack[seg] >= 1.0 / floor
        certified[seg[unproven & (j - i == 1)]] = False
        split = unproven & (j - i > 1)
        if not split.any():
            break
        seg, i, j = (v[split] for v in (seg, i, j))
        mid = (i + j) // 2
        evaluate(seg, mid)
        seg, i, j = np.concatenate([seg, seg]), np.concatenate([i, mid]), np.concatenate([mid, j])
    with np.errstate(divide="ignore"):
        return ok, certified & ok, 1.0 / s[:, last]


def build_path(a, z: complex, epsilon: float) -> PolygonalPath:
    """Build a polygonal path from z to an eigenvalue ball of radius eps/2.

    Requires smin(A - zI) < epsilon. At each vertex the growth certificate
    provides an uphill direction; the longest feasible step up to half the
    distance to the spectrum is taken, backtracking geometrically, with a
    64-direction circle search as fallback when the line search underflows.
    Feasible means every sampled point of the segment keeps its norm at or
    above the floor and the endpoint strictly improves. The path is
    ``certified`` when the Lipschitz bound proves every accepted segment
    above the floor between its samples too.
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
    certified = True

    for _ in range(MAX_VERTICES):
        current = vertices[-1]
        f_cur = norms[-1]
        dist = float(np.abs(eigs - current).min())
        if dist < 0.5 * epsilon:
            terminal = complex(eigs[int(np.abs(eigs - current).argmin())])
            return PolygonalPath(float(epsilon), np.array(vertices), terminal,
                                 float(floor), np.array(norms), certified)

        # NoGapError propagates with the stalled vertex in its payload
        report = spectral_gap_report(a, current)
        cert = growth_direction(a, current, report)

        accepted = None
        if cert.phi is not None:
            direction = cmath.exp(1j * cert.phi)
            step = STEP_FRACTION * dist
            while step >= min_step:
                y = current + step * direction
                (ok,), (proven,), (f_end,) = _segments_above_floor(a, current, y, floor)
                if ok and f_end > f_cur:
                    accepted = (y, float(f_end), step, proven)
                    break
                step *= BACKTRACK

        if accepted is None:
            # the certificate guarantees an uphill direction exists, but not
            # how far it reaches; scan a circle for the best strict gain
            radius = 0.25 * dist
            thetas = 2.0 * math.pi * np.arange(FALLBACK_ANGLES) / FALLBACK_ANGLES
            ys = current + radius * np.exp(1j * thetas)
            ok, proven, f_ends = _segments_above_floor(a, current, ys, floor)
            ok &= f_ends > f_cur
            if not ok.any():
                raise StallDetected(
                    f"no uphill step found at vertex {current} (norm {f_cur:.6e})")
            j = int(np.argmax(np.where(ok, f_ends, -np.inf)))   # first maximum
            accepted = (complex(ys[j]), float(f_ends[j]), radius, proven[j])
            consecutive_stalls += 1
            if consecutive_stalls >= 2 and accepted[2] < min_step:
                raise StallDetected(
                    f"step underflow at two consecutive vertices near {current}")
        else:
            consecutive_stalls = 0

        vertices.append(accepted[0])
        norms.append(accepted[1])
        certified = certified and bool(accepted[3])

    raise MaxVerticesExceeded(f"no eigenvalue ball reached within {MAX_VERTICES} vertices")


def validate_path(a, path: PolygonalPath, epsilon: float) -> bool:
    """Re-check the path invariants from the matrix alone.

    Verifies membership of the first vertex, the floor bound at
    ``SAMPLES_PER_SEGMENT`` equispaced points of every segment, and the
    terminal eigenvalue ball condition. Between samples a segment is proven
    only where the Lipschitz bound closes: a neck of the pseudospectrum
    narrower than the sample spacing goes unseen, and such a path cannot
    be ``certified``.
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
    ok, _, _ = _segments_above_floor(a, v[:-1], v[1:], path.floor)
    return bool(np.all(ok))
