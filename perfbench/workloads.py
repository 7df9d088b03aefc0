"""The benchmark's three workloads: landscape, certify and paths.

A workload makes its inputs from the seed, warms each code path once on a
small input, hands out rounds of operations, checks each operation's
output with :mod:`checks`, and has a host-speed probe (below). Every round of a workload holds the same kinds
of operation in the same order, so the share of operations that fail is the
same in every run. Calls into resolventlab go through module attributes
(``gap.spectral_gap_report``, not a name imported once) so that the traced
run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from resolventlab import builders, cli, gap, growth, path, perturb, pspec

import checks
from checks import require


@dataclass
class Op:
    """One operation: ``run`` is timed; ``known_fault`` marks an expected failure."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: bool = False


@dataclass
class Pause:
    """Time inside an operation that the benchmark spends on its own work,
    on the process CPU clock (``cpu``) and the wall clock (``wall``)."""

    cpu: float = 0.0
    wall: float = 0.0

    @contextlib.contextmanager
    def __call__(self):
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.cpu += time.process_time() - cpu
            self.wall += time.perf_counter() - wall


class FirstRound:
    """Checks for a workload whose rounds all repeat round 0's inputs.

    Round 0 is checked in full; every later output must equal round 0's
    output of the same operation, byte for byte.
    """

    def __init__(self):
        self.digests: dict = {}

    def check(self, key, r: int, digest, full_check: Callable[[], None]) -> None:
        if r == 0:
            full_check()
            self.digests[key] = digest
        else:
            require(self.digests.get(key) == digest, f"{key}: round {r} output differs from round 0")


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Ginibre matrix scaled to spectral radius about 1."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0 * n)


def write_matrix(path_: str, a: np.ndarray) -> None:
    """The CLI's matrix JSON, written by the benchmark itself."""
    entries = [[float(v.real), float(v.imag)] for v in np.asarray(a, dtype=complex).ravel()]
    with open(path_, "w", encoding="utf-8") as fh:
        json.dump({"n": int(a.shape[0]), "entries": entries}, fh)


# ---------------------------------------------------------------- host-speed probes
#
# A probe is a fixed computation made with numpy alone, of the same kind as
# a workload's operations, that the run loop times between operations. Its
# CPU time around an operation, against its time on the reference host (the
# workload's ``probe_ref_s``), measures how fast the host ran then. The
# probes never call resolventlab, so a change to the program does not move
# them.

def landscape_probe() -> Callable[[], Any]:
    """Numpy-only work of the landscape's kinds: batched SVDs of 6x6
    matrices, a per-cell Python loop over a grid and float formatting."""
    rng = _rng(7, 1)
    a = ginibre(rng, 6)
    zs = rng.uniform(-2, 2, 16000) + 1j * rng.uniform(-2, 2, 16000)
    f = rng.standard_normal((120, 120))
    floats = rng.standard_normal(12000).tolist()

    def run():
        smin = checks.smin_svd(a, zs)
        cells = 0
        for i in range(f.shape[0] - 1):
            for j in range(f.shape[1] - 1):
                corners = (f[i, j], f[i + 1, j], f[i, j + 1], f[i + 1, j + 1])
                if not any(np.isnan(corners)) and min(corners) < 0.0 < max(corners):
                    cells += 1
        text = "\n".join(f"{x!r},{y!r},{x * y!r}" for x, y in zip(floats, floats[1:]))
        return smin, cells, text

    return run


def dense_probe(n: int, points: int, repeats: int) -> Callable[[], Any]:
    """Numpy-only dense work at size n: a batched smallest-singular-value
    sweep over ``points`` shifts, and a full SVD, an inverse and a
    Hermitian eigensolve at one shift, ``repeats`` times."""
    rng = _rng(7, 2, n)
    a = ginibre(rng, n)
    zs = 1.5 + 0.01j * np.arange(points)
    eye = np.eye(n)

    def run():
        out = []
        for k in range(repeats):
            shifted = a - (1.5 + 0.1j * k) * eye
            sv = np.linalg.svd(shifted)[1]
            r = np.linalg.inv(shifted)
            out.append((sv[-1], np.linalg.eigh(r.conj().T @ r)[0][-1], checks.smin_svd(a, zs).min()))
        return out

    return run


# ---------------------------------------------------------------- landscape

@dataclass(frozen=True)
class Figure:
    name: str
    matrix: np.ndarray = field(repr=False)
    region: tuple
    levels: tuple
    reference: str          # "blocks", "mpmath" or "normal"
    components: tuple = ()  # (eps, n_components, n_holes, eigenvalues per component)
    hole_at: complex | None = None


NX = NY = 400


class Landscape:
    """The paper's pseudospectrum figures through ``cli.main``, in-process.

    The matrices are 6x6 or smaller, so the time goes to contours, CSV
    formatting, batched SVDs of tiny matrices and SVG, never to gap,
    growth, perturb or path. The seed picks the grid points checked
    against mpmath.
    """

    name = "landscape"
    probe_ref_s = 0.25

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.figures = (
            Figure("figure1", builders.example_last(), (-2.0, 2.0, -2.0, 2.0), (0.97,),
                   "blocks", hole_at=0j),
            Figure("figure2", builders.cyclic_matrix([1e6] + [1.0] * 5),
                   (-0.15, 0.15, -0.15, 0.15), (9.9966e-7,), "mpmath"),
            Figure("connectivity", builders.connectivity_example(3), (-0.6, 4.6, -2.4, 2.4),
                   (1.05, 0.4), "normal",
                   components=((1.05, 1, (1,), (3,)), (0.4, 3, (0, 0, 0), (1, 1, 1)))),
        )
        os.makedirs(workdir, exist_ok=True)
        for fig in self.figures:
            write_matrix(self._matrix_path(fig), fig.matrix)
        self.first_round = FirstRound()
        self.output_bytes = 0
        self.probe = landscape_probe()

    def _matrix_path(self, fig: Figure) -> str:
        return os.path.join(self.workdir, f"{fig.name}.json")

    def _outputs(self, fig: Figure, tag: str) -> dict:
        base = os.path.join(self.workdir, f"{tag}-{fig.name}")
        return {"csv": base + ".csv", "contours": base + ".contours.json", "svg": base + ".svg"}

    def _argv(self, fig: Figure, nx: int, ny: int, files: dict) -> list:
        return ["pspec", "scan", "--matrix", self._matrix_path(fig),
                "--region", ",".join(repr(v) for v in fig.region),
                "--nx", str(nx), "--ny", str(ny),
                "--eps", ",".join(repr(v) for v in fig.levels),
                "--out", files["csv"], "--svg", files["svg"]]

    def _figure(self, fig: Figure, nx: int, ny: int, tag: str, pause: Pause, keep_files: bool) -> dict:
        files = self._outputs(fig, tag)
        with open(files["contours"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            rc = cli.main(self._argv(fig, nx, ny, files))
        result = {"rc": rc, "files": files, "grid": None, "components": [],
                  "digest": None, "bytes": 0}
        if fig.components and rc == 0:
            with pause():
                with open(files["csv"], encoding="utf-8") as fh:
                    values = checks.parse_grid_csv(fh.read(), nx, ny)
                region = pspec.Region(*fig.region, nx, ny)
                grid = pspec.PseudospectrumGrid(region, np.ascontiguousarray(values[:, :, 2]))
                # round 0's grid is kept for its checks; later rounds are compared byte for byte
                result["grid"] = values if keep_files else None
            result["components"] = [pspec.components(fig.matrix, grid, eps)
                                    for eps, *_ in fig.components]
        if rc == 0 and not keep_files:
            # Later rounds are compared with round 0 by digest. Their files are
            # digested and deleted at once, so that no output of the run waits
            # for writeback while later operations are timed.
            with pause():
                result["bytes"] = sum(os.path.getsize(f) for f in files.values())
                result["digest"] = self._digest(self._read(files), result["components"])
                for file_ in files.values():
                    os.remove(file_)
        return result

    @staticmethod
    def _read(files: dict) -> dict:
        texts = {}
        for kind, file_ in files.items():
            with open(file_, encoding="utf-8") as fh:
                texts[kind] = fh.read()
        return texts

    @staticmethod
    def _digest(texts: dict, components: list) -> tuple:
        return (hashlib.sha256("\0".join(texts[k] for k in sorted(texts)).encode()).hexdigest(),
                pickle.dumps(components))

    def warm_up(self) -> None:
        pause = Pause()
        for fig in self.figures:
            self._figure(fig, 24, 24, "warmup", pause, False)

    def round_ops(self, r: int, pause: Pause) -> list:
        return [Op(fig.name, lambda fig=fig: self._figure(fig, NX, NY, f"r{r}", pause, r == 0),
                   lambda out, fig=fig: self._check(fig, r, out))
                for fig in self.figures]

    def _check(self, fig: Figure, r: int, out: dict) -> None:
        require(out["rc"] == 0, f"{fig.name}: cli.main returned {out['rc']}")
        texts = None
        if r == 0:
            texts = self._read(out["files"])
            out["bytes"] = sum(os.path.getsize(f) for f in out["files"].values())
            out["digest"] = self._digest(texts, out["components"])
        self.output_bytes += out["bytes"]
        self.first_round.check(fig.name, r, out["digest"], lambda: self._check_full(fig, texts, out))

    def _check_full(self, fig: Figure, texts: dict, out: dict) -> None:
        values = out["grid"] if out["grid"] is not None else checks.parse_grid_csv(texts["csv"], NX, NY)
        checks.check_grid_layout(values, fig.region)
        zz = values[:, :, 0] + 1j * values[:, :, 1]
        smin = values[:, :, 2]
        if fig.reference == "blocks":
            checks.check_values(smin, checks.smin_2x2_blocks(fig.matrix, zz), rtol=1e-10,
                                label=f"{fig.name} grid vs 2x2 closed form")
        elif fig.reference == "normal":
            checks.check_values(smin, checks.smin_normal(fig.matrix, zz), atol=1e-12,
                                label=f"{fig.name} grid vs distance to spectrum")
        else:
            rng = _rng(self.seed, 2)
            picks = rng.integers(0, NX, size=(8, 2))
            ref = np.array([checks.smin_mpmath(fig.matrix, zz[i, j]) for i, j in picks])
            checks.check_values(smin[picks[:, 0], picks[:, 1]], ref, rtol=1e-8,
                                label=f"{fig.name} grid vs mpmath")
        re_min, re_max, im_min, im_max = fig.region
        h = max((re_max - re_min) / (NX - 1), (im_max - im_min) / (NY - 1))
        checks.check_contours(fig.matrix, json.loads(texts["contours"]), fig.levels, h)
        if fig.hole_at is not None:
            require(checks.singular_values(fig.matrix, fig.hole_at)[-1] >= fig.levels[0],
                    f"{fig.name}: {fig.hole_at} lies in the {fig.levels[0]}-set")
            checks.check_in_hole(smin, fig.region, fig.hole_at, fig.levels[0])
        for report, (_, n_comp, holes, eigs) in zip(out["components"], fig.components):
            checks.check_components(report, n_comp, holes, eigs)
        require(len(out["components"]) == len(fig.components), f"{fig.name}: components missing")
        checks.check_svg(texts["svg"], fig.matrix, fig.region)


# ---------------------------------------------------------------- certify

# radii of the cubic-order sweep, in units of the local gap scale smin (1 - a/lambda)
SWEEP_RADII = np.geomspace(3e-2, 3e-4, 5)
# seeded Ginibre certificates per round, by n; with the special points below
# them and the n = 128 sweeps above, the median falls inside the n = 64 block
CERTIFY_COUNTS = ((24, 4), (64, 10), (128, 4))
# cubic-order sweeps on fixed Ginibre inputs, by n (see README: on about one
# seeded input in 2000 the fitted slope drops below 2.7)
SWEEP_COUNTS = ((24, 1), (64, 1), (128, 2))
NEAR_SPECTRUM = 3


def gapped_point(rng: np.random.Generator, a: np.ndarray, min_dist: float = 0.15,
                 min_ratio: float = 1.05):
    """A point of [-1.6, 1.6]^2 at least ``min_dist`` from the spectrum whose top
    singular gap (sigma_{n-1}/sigma_n)^2 is at least ``min_ratio``, by numpy."""
    eigs = np.linalg.eigvals(a)
    while True:
        z = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        dist = float(np.abs(eigs - z).min())
        if dist < min_dist:
            continue
        sv = checks.singular_values(a, z)
        if (sv[-2] / sv[-1]) ** 2 >= min_ratio:
            return z, dist


def sweep_radii(a, z) -> np.ndarray:
    sv = checks.singular_values(a, z)
    next_above = sv[sv > sv[-1] * (1.0 + 1e-9)][-1]
    return sv[-1] * (1.0 - (sv[-1] / next_above) ** 2) * SWEEP_RADII


@dataclass(frozen=True)
class Point:
    kind: str
    a: np.ndarray = field(repr=False)
    z: complex
    dist: float
    radii: np.ndarray | None = field(default=None, repr=False)  # None: no sweep
    angle: float = 0.9


class Certify:
    """Pointwise certificates: gap report, growth direction and its
    verification on seeded Ginibre matrices; the same followed by the
    cubic-order sweep on fixed inputs and the paper's special points;
    minimum checks; and gap reports next to an eigenvalue, a known fault.

    All the time is dense per-point linear algebra; there are no grids.
    """

    name = "certify"
    probe_ref_s = 0.036

    def __init__(self, seed: int, workdir: str):
        self.points = []
        for n, count in CERTIFY_COUNTS:
            for k in range(count):
                rng = _rng(seed, 1, n, k)
                a = ginibre(rng, n)
                self.points.append(Point(f"ginibre{n}", a, *gapped_point(rng, a)))
        for n, count in SWEEP_COUNTS:
            for k in range(count):
                rng = _rng(6, n, k)
                a = ginibre(rng, n)
                z, dist = gapped_point(rng, a)
                self.points.append(Point(f"sweep{n}", a, z, dist, sweep_radii(a, z),
                                         float(rng.uniform(0, 2 * math.pi))))
        saddle = np.array([[1, 2], [0, -1]], dtype=complex)
        mult = builders.multiplication_example(64, 8)
        self.points += [Point("saddle", saddle, 0j, 1.0, sweep_radii(saddle, 0j)),
                        Point("multiplication", mult, 2.5 + 0j, 0.5, sweep_radii(mult, 2.5))]
        self.minima = [
            ("cyclic", builders.cyclic_matrix([1e6] + [1.0] * 5), 0j),
            ("shift", builders.truncated_shift([0.5, 1.0, 2.0, 1.0, 0.5]), 0j),
        ]
        self.example_last = builders.example_last()
        self.first_round = FirstRound()
        self.probe = dense_probe(64, 16, 3)
        # fixed inputs, the same for every seed: these fail on every run
        self.near = []
        for k in range(NEAR_SPECTRUM):
            a = ginibre(_rng(12, k), 12)
            lam = np.linalg.eigvals(a)[0]
            self.near.append((a, complex(lam + 1e-9)))

    @staticmethod
    def pipeline(p: Point):
        report = gap.spectral_gap_report(p.a, p.z)
        cert = growth.growth_direction(p.a, p.z, report)
        ver = growth.verify_growth(p.a, p.z, cert, 1e-3 * p.dist, 16)
        sweep = None if p.radii is None else perturb.cubic_order_sweep(p.a, p.z, p.angle, p.radii)
        return report, cert, ver, sweep

    @staticmethod
    def check_pipeline(p: Point, out) -> None:
        report, cert, ver, sweep = out
        checks.check_gap_report(p.a, p.z, report)
        require(cert.phi is not None, f"no growth direction at z={p.z} ({cert.order})")
        require(ver.order_ok and ver.fitted_c > 0, f"verify_growth: fitted c = {ver.fitted_c!r}")
        checks.check_growth_direction(p.a, p.z, cert.phi, p.dist)
        if p.radii is not None:
            checks.check_slopes(sweep.norm_gap.slope, sweep.hausdorff.slope)

    @staticmethod
    def min_candidate(a, z):
        report = gap.spectral_gap_report(a, z)
        return report, growth.min_candidate_check(a, z, report)

    @staticmethod
    def check_min_candidate(a, z, out) -> None:
        report, cand = out
        checks.check_gap_report(a, z, report)
        require(cand.holds, f"min_candidate_check does not hold at z={z}")
        dist = float(np.abs(np.linalg.eigvals(a) - z).min())
        checks.check_circle_above(a, z, 0.1 * dist, 64)

    def local_min(self):
        report = gap.spectral_gap_report(self.example_last, 0j)
        return report, growth.certify_local_min(self.example_last, 0j, 0.05, 720)

    def check_local_min(self, out) -> None:
        report, cert = out
        a = self.example_last
        checks.check_gap_report(a, 0j, report)
        require(report.multiplicity == 4, f"example_last at 0: multiplicity {report.multiplicity}")
        require(cert.is_min and cert.margin > 0, f"certify_local_min: margin {cert.margin!r}")
        checks.check_circle_above(a, 0j, 0.05, 720)

    def warm_up(self) -> None:
        rng = _rng(3)
        a = ginibre(rng, 6)
        z, dist = gapped_point(rng, a)
        self.pipeline(Point("warm-up", a, z, dist, sweep_radii(a, z)))
        self.min_candidate(*self.minima[0][1:])
        growth.certify_local_min(self.example_last, 0j, 0.05, 8)
        gap.spectral_gap_report(*self.near[0])

    def round_ops(self, r: int, pause: Pause) -> list:
        ops = [Op(p.kind, lambda p=p: self.pipeline(p), lambda out, p=p: self.check_pipeline(p, out))
               for p in self.points]
        ops += [Op(kind, lambda a=a, z=z: self.min_candidate(a, z),
                   lambda out, a=a, z=z: self.check_min_candidate(a, z, out))
                for kind, a, z in self.minima]
        ops.append(Op("example_last", self.local_min, self.check_local_min))
        for k, op in enumerate(ops):
            op.check = lambda out, k=k, full=op.check: self.first_round.check(
                k, r, pickle.dumps(out), lambda: full(out))
        # the known fault is checked in full every round
        ops += [Op("near_spectrum", lambda a=a, z=z: gap.spectral_gap_report(a, z),
                   lambda out, a=a, z=z: checks.check_gap_report(a, z, out), known_fault=True)
                for a, z in self.near]
        return ops


# ---------------------------------------------------------------- paths

PATH_N = 48
PATHS_PER_ROUND = 8


class Paths:
    """Ascent paths on seeded non-normal 48x48 matrices.

    Ginibre plus 4 (strict upper triangle of ones) / sqrt(n), from z in
    [-1, 1]^2 at least 0.2 from the spectrum, with eps = 1.3 smin(z). The
    cost of a path is nearly proportional to its vertex count; on this
    square 37% of the paths have at most 4 vertices and 72% at most 5, so
    the median falls inside the 5-vertex block. Every operation has its
    own input, so a run's median is taken over many matrices. Every path
    gets the vertex checks; one in four also has each of its segments
    proven inside the set, which costs about twice the operation itself.
    """

    name = "paths"
    probe_ref_s = 0.045

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.probe = dense_probe(PATH_N, 64, 2)

    def make_input(self, *keys: int):
        rng = _rng(self.seed, 4, *keys)
        n = PATH_N
        a = ginibre(rng, n) + 4.0 * np.triu(np.ones((n, n)), 1) / math.sqrt(n)
        eigs = np.linalg.eigvals(a)
        while True:
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if float(np.abs(eigs - z).min()) >= 0.2:
                break
        eps = 1.3 * float(checks.singular_values(a, z)[-1])
        return a, z, eps

    def check(self, r: int, k: int, p) -> None:
        # the input is made again from the seed rather than kept, so that the
        # benchmark's memory does not grow with the number of operations
        a, z, eps = self.make_input(r, k)
        require(p.epsilon == eps, f"path epsilon {p.epsilon} != {eps}")
        checks.check_path(a, z, eps, p.vertices, p.vertex_norms, p.terminal_eigenvalue)
        if k % 4 == 0:
            checks.check_segments(a, eps, p.vertices)

    def warm_up(self) -> None:
        rng = _rng(5)
        a = ginibre(rng, 8)
        eigs = np.linalg.eigvals(a)
        z = complex(eigs[0] + 0.3)
        path.build_path(a, z, 1.3 * float(checks.singular_values(a, z)[-1]))

    def round_ops(self, r: int, pause: Pause) -> list:
        ops = []
        for k in range(PATHS_PER_ROUND):
            a, z, eps = self.make_input(r, k)
            ops.append(Op("build_path", lambda a=a, z=z, e=eps: path.build_path(a, z, e),
                          lambda out, k=k: self.check(r, k, out)))
        return ops


WORKLOADS = {w.name: w for w in (Landscape, Certify, Paths)}


def clear(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
