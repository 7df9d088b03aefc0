"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from resolventlab.builders import (
    connectivity_example,
    cyclic_matrix,
    example_last,
    example_last_blocks,
    multiplication_example,
)
from resolventlab.errors import ResolventLabError
from resolventlab.gap import spectral_gap_report
from resolventlab.growth import (
    certify_local_min,
    growth_direction,
    min_candidate_check,
    theta_arc,
    torus_coverage,
    verify_growth,
)
from resolventlab.matcore import distance_to_spectrum, resolvent_norm, smin_points
from resolventlab.path import build_path, validate_path
from resolventlab.perturb import cubic_order_sweep
from resolventlab.pspec import Region, components, membership, scan
from resolventlab.twobytwo import (
    DOUBLE_EIGENVALUE_RADIAL,
    NON_NORMAL_SADDLE,
    NORMAL_SADDLE_LINE,
    classify,
    closed_form_norm,
)

from conftest import gapped_instance, random_matrix, random_normal_matrix


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_example_last_minimum():
    t0 = time.perf_counter()
    b = example_last()
    norm0 = resolvent_norm(b, 0).norm
    cert = certify_local_min(b, 0, radius=0.05, n_angles=720)
    pairs = []
    for blk in example_last_blocks():
        cls = classify(blk)
        pairs.append((cls.phi, theta_arc(cls.k)))
    covered = torus_coverage(pairs)
    elapsed = time.perf_counter() - t0
    ok = (abs(norm0 - 1.0) <= 1e-9 and cert.is_min and cert.margin > 0
          and covered and elapsed < 5.0)
    _report(1, ok, f"norm(0)={norm0:.12f}, margin={cert.margin:.3e}, "
                   f"coverage={covered}, {elapsed:.2f}s")


def test_criterion_2_cyclic_figure_two():
    t0 = time.perf_counter()
    a = cyclic_matrix([1e6] + [1.0] * 5)
    report = spectral_gap_report(a, 0)
    check = min_candidate_check(a, 0, report)
    norm0 = resolvent_norm(a, 0).norm
    moduli = np.abs(np.linalg.eigvals(a))
    eps = 9.9966e-7
    member0 = membership(a, 0, eps)
    member_eigs = all(membership(a, complex(lam), eps) for lam in np.linalg.eigvals(a))
    elapsed = time.perf_counter() - t0
    ok = (check.holds and check.prp_norm <= 1e-12 * 1e6
          and abs(norm0 - 1e6) <= 1e-9 * 1e6
          and np.all(np.abs(moduli - 0.1) <= 1e-9)
          and not member0 and member_eigs and elapsed < 2.0)
    _report(2, ok, f"prp_norm={check.prp_norm:.3e}, norm(0)={norm0:.6e}, "
                   f"|lambda| err={np.abs(moduli - 0.1).max():.2e}, "
                   f"member(0)={member0}, {elapsed:.2f}s")


def test_criterion_3_two_by_two_suite():
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    worst_sym = 0.0
    kinds_ok = True
    checked = 0
    while checked < 1000:
        mode = checked % 3
        if mode == 0:
            m = random_matrix(rng, 2)
        elif mode == 1:
            # exactly normal: unitary conjugation of a diagonal
            m = random_normal_matrix(rng, 2)
        else:
            # exact double eigenvalue: variant-1 core (exact zero entries)
            c = complex(rng.standard_normal(), rng.standard_normal())
            z0 = complex(rng.standard_normal(), rng.standard_normal())
            m = np.array([[z0, 0], [c, z0]], dtype=complex)

        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        oracle = resolvent_norm(m, z)
        if oracle.smin < 1e-3:
            continue
        rel = abs(closed_form_norm(m, z) - oracle.norm) / oracle.norm
        worst_rel = max(worst_rel, rel)

        center = complex(np.trace(m)) / 2
        offsets = 0.1 + rng.uniform(0, 2, 100)
        angles = rng.uniform(0, 2 * np.pi, 100)
        zs = (offsets * np.exp(1j * angles))
        plus = smin_points(m, center + zs)
        minus = smin_points(m, center - zs)
        good = (plus > 1e-6) & (minus > 1e-6)
        if good.any():
            sym = np.max(np.abs(plus[good] - minus[good]) / plus[good])
            worst_sym = max(worst_sym, sym)

        cls = classify(m)
        eigs = np.linalg.eigvals(m)
        scale = float(np.linalg.norm(m, 2))
        is_double = abs(eigs[0] - eigs[1]) / 2 <= 1e-10 * (1 + scale)
        comm = np.linalg.norm(m @ m.conj().T - m.conj().T @ m, 2)
        is_normal = comm <= 1e-12 * scale ** 2
        if is_double:
            want = DOUBLE_EIGENVALUE_RADIAL
        elif is_normal:
            want = NORMAL_SADDLE_LINE
        else:
            want = NON_NORMAL_SADDLE
        kinds_ok = kinds_ok and (cls.kind == want)
        checked += 1

    ok = worst_rel <= 1e-10 and worst_sym <= 1e-12 and kinds_ok
    _report(3, ok, f"1000 matrices, worst closed-form rel err {worst_rel:.2e}, "
                   f"worst symmetry rel err {worst_sym:.2e}, kinds_ok={kinds_ok}")


def test_criterion_4_increase_arcs_derivative_signs():
    rng = np.random.default_rng(7)
    tested = 0
    mismatches = 0
    while tested < 100:
        m = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
        cls = classify(m)
        if cls.k is None or cls.k <= 2.1:
            continue
        theta_a = theta_arc(cls.k)
        h = 1e-3 * abs(cls.lam)
        base = resolvent_norm(m, cls.center).norm
        thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = cls.center + h * np.exp(1j * thetas)
        norms = 1.0 / smin_points(m, pts)
        for theta, val in zip(thetas, norms):
            rel = (theta - cls.phi + math.pi / 2) % math.pi - math.pi / 2
            margin = abs(abs(rel) - theta_a)
            if min(margin, abs(margin - math.pi)) < 1e-3:
                continue
            inside = abs(rel) < theta_a
            if (val > base) != inside:
                mismatches += 1
        tested += 1
    _report(4, mismatches == 0, f"100 matrices with k > 2.1, {mismatches} sign mismatches")


def test_criterion_5_cubic_order():
    t0 = time.perf_counter()
    radii = np.geomspace(1e-2, 1e-4, 5)
    good_gap = 0
    good_haus = 0
    for seed in range(10):
        a, z, _ = gapped_instance(seed, 5)
        report = cubic_order_sweep(a, z, 0.9, radii)
        good_gap += report.norm_gap.slope >= 2.7
        good_haus += report.hausdorff.slope >= 2.7
    elapsed = time.perf_counter() - t0
    ok = good_gap >= 9 and good_haus >= 9 and elapsed < 10.0
    _report(5, ok, f"slopes >= 2.7 in {good_gap}/10 (norm gap) and "
                   f"{good_haus}/10 (Hausdorff), {elapsed:.2f}s")


def test_criterion_6_growth_verification():
    ok_count = 0
    bad = []
    for seed in range(200):
        n = 3 + seed % 6
        a, z, report = gapped_instance(seed, n)
        cert = growth_direction(a, z, report)
        if cert.phi is None:
            bad.append((seed, report.gap_ratio))
            continue
        d = distance_to_spectrum(a, z)
        ver = verify_growth(a, z, cert, r_max=1e-3 * d, n_samples=12)
        if ver.order_ok:
            ok_count += 1
        else:
            bad.append((seed, report.gap_ratio))
    failures_near_degenerate = all(ratio < 1 + 1e-4 for _, ratio in bad)
    ok = ok_count >= 198 and (not bad or failures_near_degenerate)
    _report(6, ok, f"{ok_count}/200 verified; failures: {bad}")


def test_criterion_7_path_construction():
    successes = 0
    monotone_ok = True
    validated_ok = True
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = random_matrix(rng, 8)
        z = None
        for _ in range(64):
            cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if distance_to_spectrum(a, cand) >= 0.2:
                z = cand
                break
        if z is None:
            continue
        eps = 1.3 * float(smin_points(a, np.array([z]))[0])
        try:
            p = build_path(a, z, eps)
        except ResolventLabError:
            continue
        successes += 1
        monotone_ok = monotone_ok and bool(np.all(np.diff(p.vertex_norms) > 0))
        validated_ok = validated_ok and validate_path(a, p, eps)
    ok = successes >= 95 and monotone_ok and validated_ok
    _report(7, ok, f"{successes}/100 paths built, monotone={monotone_ok}, "
                   f"validated={validated_ok}")


def test_criterion_8_connectivity_remark():
    t0 = time.perf_counter()
    a = connectivity_example(3)
    region = Region(-0.6, 4.6, -2.4, 2.4, 400, 400)
    grid = scan(a, region)
    merged = components(a, grid, 1.05)
    split = components(a, grid, 0.4)
    elapsed = time.perf_counter() - t0
    ok = (merged.n_components == 1
          and len(merged.eigenvalues_per_component[0]) == 3
          and merged.n_holes[0] >= 1
          and split.n_components == 3 and elapsed < 5.0)
    _report(8, ok, f"eps=1.05: {merged.n_components} component(s), "
                   f"holes={merged.n_holes}; eps=0.4: {split.n_components} "
                   f"components, {elapsed:.2f}s")


def test_criterion_9_normal_matrices_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        a = random_normal_matrix(rng, n)
        eigs = np.linalg.eigvals(a)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            d = float(np.abs(eigs - z).min())
            if d < 0.05:
                continue
            norm = 1.0 / float(smin_points(a, np.array([z]))[0])
            worst = max(worst, abs(norm - 1.0 / d) * d)
            count += 1
    _report(9, worst <= 1e-10, f"100 normal matrices x 100 points, worst rel err {worst:.2e}")


def test_criterion_10_multiplication_gap_trend():
    ratios_left = []
    ratios_right = []
    for n_grid in (16, 64, 256):
        left = spectral_gap_report(multiplication_example(n_grid, 8), 1.2)
        right = spectral_gap_report(multiplication_example(n_grid, 8), 2.5)
        ratios_left.append(left.gap_ratio)
        ratios_right.append(right.gap_ratio)
    decreasing = ratios_left[0] > ratios_left[1] > ratios_left[2] > 1.0
    approaching_one = ratios_left[2] < 1.05
    bounded_away = all(r >= 9.0 for r in ratios_right)
    ok = decreasing and approaching_one and bounded_away
    _report(10, ok, f"z=1.2 ratios {np.round(ratios_left, 4).tolist()} -> 1; "
                    f"z=2.5 ratios {np.round(ratios_right, 3).tolist()} >= 9")
