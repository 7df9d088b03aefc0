"""Polygonal ascent paths inside the pseudospectrum."""

import numpy as np
import pytest

from resolventlab import path
from resolventlab.builders import cyclic_matrix, example_last, truncated_shift
from resolventlab.errors import DomainError, MaxVerticesExceeded, ResolventLabError
from resolventlab.gap import spectral_gap_report
from resolventlab.growth import growth_direction
from resolventlab.matcore import distance_to_spectrum, smin_points
from resolventlab.path import PolygonalPath, build_path, validate_path

from conftest import random_matrix

DIAG03 = np.diag([0.0 + 0j, 3.0])

# Vertices (real parts; every imaginary part is 0) and vertex norms of the two
# fallback-circle paths below, as float.hex. They were written by the
# per-direction circle search that the batched one replaced. The test compares
# them to 1e-9 and 1e-6 relative, not bit for bit: next to the eigenvalues smin
# is only accurate to about 1e-7 relative, so another LAPACK rounds differently.
CYCLIC_VERTICES = [
    "0x0.0p+0", "0x1.9999999999993p-6", "0x1.ffffffffffffep-5", "0x1.4ccccccccccccp-4",
    "0x1.7333333333333p-4", "0x1.8666666666666p-4", "0x1.9000000000000p-4",
    "0x1.94ccccccccccdp-4", "0x1.9733333333334p-4", "0x1.9866666666667p-4",
    "0x1.9900000000000p-4", "0x1.994cccccccccdp-4", "0x1.9973333333334p-4",
    "0x1.9986666666667p-4", "0x1.9990000000000p-4", "0x1.9994ccccccccdp-4",
    "0x1.9997333333334p-4", "0x1.9998666666667p-4", "0x1.9999000000000p-4",
]
CYCLIC_NORMS = [
    "0x1.e848000000000p+19", "0x1.e8b4b7cdb9905p+19", "0x1.04a20aa8436aap+20",
    "0x1.59070dc1d42a2p+20", "0x1.13f31c6407929p+21", "0x1.ec34e79c06d4dp+21",
    "0x1.d097dd5d1b199p+22", "0x1.c3538ecf53004p+23", "0x1.bcd3524988079p+24",
    "0x1.b99b9996e9339p+25", "0x1.b801d41ff15f5p+26", "0x1.b73576e109cc1p+27",
    "0x1.b6cf68fee7a84p+28", "0x1.b69c6a9bd37e4p+29", "0x1.b682ec98a63ffp+30",
    "0x1.b67631a00544fp+31", "0x1.b66fca3458531p+32", "0x1.b66c997b8e522p+33",
    "0x1.b66b0e450fe38p+34",
]
SHIFT_VERTICES = [
    "0x0.0p+0", "0x1.2611186bae675p-2", "0x1.6f955e869a012p-1", "0x1.dddbc7aefb67ep-1",
]
SHIFT_NORMS = [
    "0x1.0000000000000p+1", "0x1.1bbe22c408ae7p+1", "0x1.df14dc4cdd064p+1",
    "0x1.bf13e5abee129p+2",
]


def interior_point(rng, a, min_dist=0.2):
    for _ in range(64):
        cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if distance_to_spectrum(a, cand) >= min_dist:
            return cand
    raise AssertionError("no interior point found")


class TestBuildPath:
    def test_one_dimensional_descent_to_zero(self):
        # oracle: norm = 1/min(|z|, |z - 3|) along the real axis
        p = build_path(DIAG03, 1.4, 1.5)
        assert abs(p.vertices[-1] - 0.0) < 0.75
        assert p.terminal_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(p.vertex_norms) > 0)
        for v, f in zip(p.vertices, p.vertex_norms):
            assert f == pytest.approx(1.0 / min(abs(v), abs(v - 3)), rel=1e-12)

    def test_single_vertex_when_already_close(self):
        p = build_path(DIAG03, 0.2, 1.5)
        assert len(p.vertices) == 1
        assert p.vertices[0] == 0.2
        assert p.terminal_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_example_last_near_block_eigenvalue(self):
        b = example_last()
        p = build_path(b, 0.9j, 0.97)
        assert abs(p.vertices[-1] - 1j) < 0.485
        assert p.terminal_eigenvalue == pytest.approx(1j, abs=1e-9)

    def test_not_member_raises(self):
        with pytest.raises(DomainError):
            build_path(DIAG03, 1.5, 0.4)   # smin = 1.5 >= 0.4

    def test_floor_definition(self):
        p = build_path(DIAG03, 1.4, 1.5)
        f0 = 1.0 / 1.4
        assert p.floor == pytest.approx(0.5 * (f0 + 1.0 / 1.5), rel=1e-12)

    def test_monotone_norms_statistical(self):
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            a = random_matrix(rng, 8)
            z = interior_point(rng, a)
            smin = float(smin_points(a, np.array([z]))[0])
            try:
                p = build_path(a, z, 1.3 * smin)
            except ResolventLabError:
                continue
            assert np.all(np.diff(p.vertex_norms) > 0)
            assert validate_path(a, p, 1.3 * smin)
            ok += 1
        assert ok >= 95


class TestExtremeLandscape:
    def test_cyclic_high_contrast_paths(self):
        # resolvent norms up to 1e6 and terminal balls of radius 5e-7:
        # the ascent must thread from near the local minimum at the origin
        # out to the eigenvalue ring at |z| = 0.1
        a = cyclic_matrix([1e6] + [1.0] * 5)
        for z0, eps in [(0.05 + 0j, 1e-5), (0.002 + 0.001j, 2e-6)]:
            p = build_path(a, z0, eps)
            assert validate_path(a, p, eps)
            assert np.all(np.diff(p.vertex_norms) > 0)
            assert abs(p.vertices[-1] - p.terminal_eigenvalue) < 0.5 * eps


class TestFallbackCircle:
    # A path that starts at a local-minimum candidate has no certified
    # direction there, so its first step comes from the circle search.
    @pytest.mark.parametrize("a, eps, vertices, norms", [
        (cyclic_matrix([1e6] + [1.0] * 5), 1.3e-6, CYCLIC_VERTICES, CYCLIC_NORMS),
        (truncated_shift([0.5, 1, 2, 1, 0.5]), 0.65, SHIFT_VERTICES, SHIFT_NORMS),
    ])
    def test_path_from_local_minimum(self, a, eps, vertices, norms):
        assert growth_direction(a, 0j, spectral_gap_report(a, 0j)).phi is None
        p = build_path(a, 0j, eps)
        assert validate_path(a, p, eps)
        assert np.all(np.diff(p.vertex_norms) > 0)
        assert abs(p.vertices[-1] - p.terminal_eigenvalue) < 0.5 * eps
        assert list(p.vertices.real) == pytest.approx(list(map(float.fromhex, vertices)), rel=1e-9)
        assert np.all(p.vertices.imag == 0.0)
        assert list(p.vertex_norms) == pytest.approx(list(map(float.fromhex, norms)), rel=1e-6)


class TestValidatePath:
    def test_accepts_build_output(self):
        p = build_path(DIAG03, 1.4, 1.5)
        assert validate_path(DIAG03, p, 1.5)

    def test_rejects_vertex_below_floor(self):
        p = build_path(DIAG03, 1.4, 1.5)
        bad = PolygonalPath(p.epsilon, np.array([1.4 + 0j, 1.5 + 0j, 0.7 + 0j]),
                            p.terminal_eigenvalue, p.floor, p.vertex_norms)
        assert not validate_path(DIAG03, bad, 1.5)

    def test_rejects_terminal_far_from_spectrum(self):
        p = build_path(DIAG03, 1.4, 1.5)
        bad = PolygonalPath(p.epsilon, np.array([1.4 + 0j]), p.terminal_eigenvalue,
                            p.floor, p.vertex_norms[:1])
        assert not validate_path(DIAG03, bad, 1.5)

    def test_rejects_non_member_start(self):
        p = PolygonalPath(0.4, np.array([1.5 + 0j]), 0j, 0.5 * (1 / 1.5 + 1 / 0.4),
                          np.array([1 / 1.5]))
        assert not validate_path(DIAG03, p, 0.4)

    @pytest.mark.xfail(strict=True, reason="segments are sampled, not proven: "
                       "ROADMAP open item 1 (certified path segments)")
    def test_rejects_segment_leaving_between_samples(self):
        # smin(A - 0.5) = 0.5 > eps, so the segment leaves the pseudospectrum
        # through the neck between the two disks; no sample lands there
        a = np.diag([0.0 + 0j, 1.0])
        p = PolygonalPath(0.499, np.array([0.1 + 0j, 0.9 + 0j]), 1.0 + 0j, 2.005,
                          np.array([10.0, 10.0]))
        assert not validate_path(a, p, 0.499)


class TestPathOptions:
    def test_max_vertices_respected(self, monkeypatch):
        # one loop iteration can append a vertex but never certify arrival
        monkeypatch.setattr(path, "MAX_VERTICES", 1)
        with pytest.raises(MaxVerticesExceeded):
            build_path(DIAG03, 1.4, 1.5)
