"""Each of the benchmark's checks passes on the program's output and fails on a corrupted one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed
from resolventlab import builders, gap, path, pspec

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)


def _grid(a, region, n):
    return pspec.scan(a, pspec.Region(*region, n, n))


@pytest.mark.parametrize("name", ["blocks", "normal", "mpmath"])
def test_grid_value_nudged_by_1e6_relative_fails(name):
    if name == "blocks":
        a, region, tol = builders.example_last(), (-2.0, 2.0, -2.0, 2.0), {"rtol": 1e-10}
        reference = checks.smin_2x2_blocks
    elif name == "normal":
        a, region, tol = builders.connectivity_example(3), (-0.6, 4.6, -2.4, 2.4), {"atol": 1e-12}
        reference = checks.smin_normal
    else:
        a, region, tol = builders.cyclic_matrix([1e6] + [1.0] * 5), (-0.15, 0.15, -0.15, 0.15), {"rtol": 1e-8}

        def reference(m, zz):
            return np.vectorize(lambda z: checks.smin_mpmath(m, z))(zz)
    n = 5 if name == "mpmath" else 41
    grid = _grid(a, region, n)
    zz = grid.region.mesh()
    ref = reference(a, zz)
    checks.check_values(grid.smin, ref, label=name, **tol)
    nudged = grid.smin.copy()
    nudged[2, 3] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_values(nudged, ref, label=name, **tol)


def test_contour_point_moved_by_2h_fails():
    a = builders.connectivity_example(3)
    region = (-0.6, 4.6, -2.4, 2.4)
    n = 81
    grid = _grid(a, region, n)
    h = max((region[1] - region[0]) / (n - 1), (region[3] - region[2]) / (n - 1))
    lines = pspec.contours(grid, [1.05])[0]
    payload = {"contours": [{"level": 1.05, "polylines": [line.tolist() for line in lines]}]}
    checks.check_contours(a, payload, [1.05], h)
    re, im = payload["contours"][0]["polylines"][0][0]
    eigs = np.diag(a)
    lam = eigs[np.argmin(np.abs(eigs - complex(re, im)))]
    away = (complex(re, im) - lam) / abs(complex(re, im) - lam)
    moved = complex(re, im) + 2 * h * away
    payload["contours"][0]["polylines"][0][0] = [moved.real, moved.imag]
    with pytest.raises(CheckFailed):
        checks.check_contours(a, json.loads(json.dumps(payload)), [1.05], h)


def test_component_count_changed_fails():
    a = builders.connectivity_example(3)
    grid = _grid(a, (-0.6, 4.6, -2.4, 2.4), 121)
    merged = pspec.components(a, grid, 1.05)
    split = pspec.components(a, grid, 0.4)
    checks.check_components(merged, 1, (1,), (3,))
    checks.check_components(split, 3, (0, 0, 0), (1, 1, 1))
    with pytest.raises(CheckFailed):
        checks.check_components(dataclasses.replace(merged, n_components=2), 1, (1,), (3,))
    with pytest.raises(CheckFailed):
        checks.check_components(dataclasses.replace(split, n_holes=(0, 1, 0)), 3, (0, 0, 0), (1, 1, 1))


def test_hole_and_svg_checks_fail_on_wrong_outputs():
    from resolventlab.svgout import render_svg

    a = builders.example_last()
    region = (-2.0, 2.0, -2.0, 2.0)
    grid = _grid(a, region, 81)
    checks.check_in_hole(grid.smin, region, 0j, 0.97)
    with pytest.raises(CheckFailed):
        checks.check_in_hole(grid.smin, region, 2.0 + 0j, 0.97)
    svg = render_svg(grid, [0.97], np.linalg.eigvals(a))
    checks.check_svg(svg, a, region)
    first = svg.index("<circle")
    dropped = svg[:first] + svg[svg.index("\n", first) + 1:]
    with pytest.raises(CheckFailed):
        checks.check_svg(dropped, a, region)


def test_a_z_off_by_1e5_relative_fails():
    rng = workloads._rng(7)
    a = workloads.ginibre(rng, 24)
    z, _ = workloads.gapped_point(rng, a)
    r = gap.spectral_gap_report(a, z)
    checks.check_gap_report(a, z, r)
    with pytest.raises(CheckFailed):
        checks.check_gap_report(a, z, dataclasses.replace(r, a_z=r.a_z * (1 + 1e-5)))
    with pytest.raises(CheckFailed):
        checks.check_gap_report(a, z, dataclasses.replace(r, lambda_max=r.lambda_max * (1 + 1e-9)))


def test_growth_direction_reversed_fails():
    rng = workloads._rng(8)
    a = workloads.ginibre(rng, 24)
    z, dist = workloads.gapped_point(rng, a)
    point = workloads.Point("ginibre24", a, z, dist, workloads.sweep_radii(a, z))
    out = workloads.Certify.pipeline(point)
    workloads.Certify.check_pipeline(point, out)
    with pytest.raises(CheckFailed):
        checks.check_growth_direction(a, z, out[1].phi + np.pi, dist)


def test_path_vertex_moved_outside_eps_set_fails():
    bench = workloads.Paths(3, "unused")
    a, z, eps = bench.make_input(0, 0)
    p = path.build_path(a, z, eps)
    checks.check_path(a, z, eps, p.vertices, p.vertex_norms, p.terminal_eigenvalue)
    assert checks.check_segments(a, eps, p.vertices) > 0
    v = np.array(p.vertices)
    norms = np.array(p.vertex_norms)
    k = 1
    out = v[k] + 10.0 * eps * (v[k] - v[0]) / abs(v[k] - v[0])
    while checks.singular_values(a, out)[-1] < eps:
        out += eps * (v[k] - v[0]) / abs(v[k] - v[0])
    v[k] = out
    norms[k] = 1.0 / checks.singular_values(a, out)[-1]
    with pytest.raises(CheckFailed):
        checks.check_path(a, z, eps, v, norms, p.terminal_eigenvalue)
    with pytest.raises(CheckFailed, match="segment"):
        checks.check_segments(a, eps, v)


def test_segment_leaving_the_set_between_good_vertices_fails():
    # two vertices inside disjoint components of the 0.4-set of a normal matrix:
    # the vertex checks pass, only the segment proof can fail
    a = builders.connectivity_example(3)
    eigs = np.diag(a)
    eps = 0.4
    v = np.array([eigs[0] + 0.3, eigs[1] + 0.1])
    norms = 1.0 / np.abs(v - eigs[[0, 1]])
    checks.check_path(a, v[0], eps, v, norms, eigs[1])
    with pytest.raises(CheckFailed, match="segment"):
        checks.check_segments(a, eps, v)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_later_round_differing_from_round_0_fails():
    first = workloads.FirstRound()
    full_checks = []
    first.check("op", 0, b"output", lambda: full_checks.append(0))
    first.check("op", 1, b"output", lambda: full_checks.append(1))
    assert full_checks == [0]
    with pytest.raises(CheckFailed):
        first.check("op", 2, b"other output", lambda: None)


def _forbidden(*args, **kwargs):
    raise AssertionError("a host-speed probe called resolventlab")


def test_probes_do_not_call_the_program(monkeypatch):
    import importlib
    import inspect
    import pkgutil

    import resolventlab

    for info in pkgutil.iter_modules(resolventlab.__path__):
        mod = importlib.import_module(f"resolventlab.{info.name}")
        for name, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                monkeypatch.setattr(mod, name, _forbidden)
    for probe in (workloads.landscape_probe(), workloads.dense_probe(8, 4, 1)):
        probe()


def test_latencies_scale_with_the_probes_around_them():
    import run

    cpu = [0.2, 0.2, 0.3]
    # probes 0.1 (reference speed), then 0.2 (twice as slow), then 0.2
    scaled = run.scale_to_reference(cpu, [0, 1, 1], [0.1, 0.1, 0.2], 0.1)
    assert scaled == pytest.approx([0.2, 0.2 / 1.5, 0.3 / 1.5])
    rate, p50_ms = run.timing_metrics(scaled, [True, True, False], 2)
    assert rate == pytest.approx(2 / sum(scaled))
    assert p50_ms == pytest.approx(1e3 * 0.5 * (0.2 + 0.2 / 1.5))
