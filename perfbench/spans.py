"""Span tracer for the benchmark's traced run.

It wraps, from outside the program, every public function of every
resolventlab module and the numpy.linalg functions the program calls, and
records one span per call made inside an operation: name, parent span,
start, end and counts. Spans stay in memory and are written out as JSON
lines when the run ends. A layer's self time is its span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time

import numpy as np

LINALG = ("svd", "inv", "eigh", "eigvalsh", "eigvals", "eig", "solve", "norm")

# span fields, kept as lists for a cheap wrapper
NAME, PARENT, START, END, CHILD, COUNT = range(6)


def _svd_matrices(args, kwargs, result) -> int:
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _smin_points(args, kwargs, result) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["zs"]))


def _contour_points(args, kwargs, result) -> int:
    return sum(len(line) for lines in result for line in lines)


COUNTERS = {
    "linalg.svd": _svd_matrices,
    "matcore.smin_points": _smin_points,
    "pspec.contours": _contour_points,
    "svgout.render_svg": lambda args, kwargs, result: len(result),
    "path.build_path": lambda args, kwargs, result: len(result.vertices),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active = False

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += span[END] - span[START]
            if counter is not None:
                span[COUNT] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to the traced functions inside resolventlab."""
        import resolventlab

        modules = [importlib.import_module(f"resolventlab.{m.name}")
                   for m in pkgutil.iter_modules(resolventlab.__path__)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        growth = importlib.import_module("resolventlab.growth")
        wrappers[id(growth.minimize)] = (growth.minimize, self.wrap("growth.minimize", growth.minimize))
        for mod in [resolventlab, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for attr in LINALG:
            setattr(np.linalg, attr, self.wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one operation; spans under it share its identifier."""
        span = [f"op.{kind}", None, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        self.active = True
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self.active = False
            self.stack.pop()

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds over an untraced one, measured here."""
        def noop():
            return None

        traced = self.wrap("trace.calibration", noop)
        spans_before = len(self.spans)
        with self.op("calibration"):
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            with_spans = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        del self.spans[spans_before:]
        return max(with_spans - bare, 0.0) / calls

    def write(self, path: str) -> None:
        """One JSON object per span; ``op`` is the index of its operation's root span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                root = s
                while root[PARENT] is not None:
                    root = root[PARENT]
                parent = index[id(s[PARENT])] if s[PARENT] is not None else None
                fh.write(json.dumps({"id": i, "parent": parent, "op": index[id(root)],
                                     "name": s[NAME], "start": s[START], "end": s[END],
                                     "count": s[COUNT]}) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation calls, counts and self times of each traced name."""
        calls: dict = {}
        self_s: dict = {}
        total_s: dict = {}
        counts: dict = {}
        segment_points = 0
        perturb_gram = 0
        for s in self.spans:
            name = s[NAME]
            if name.startswith("op."):
                continue
            duration = s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration - s[CHILD]
            total_s[name] = total_s.get(name, 0.0) + duration
            if s[COUNT] is not None:
                counts[name] = counts.get(name, 0) + s[COUNT]
            parent = s[PARENT]
            if name == "matcore.gram" and parent is not None and parent[NAME].startswith("perturb."):
                perturb_gram += 1
            if name == "matcore.smin_points":
                while parent is not None and parent[NAME] != "path.build_path":
                    parent = parent[PARENT]
                if parent is not None:
                    segment_points += s[COUNT]

        def per_op(value):
            return value / ops

        points = counts.get("matcore.smin_points", 0)
        linalg_self = sum(v for k, v in self_s.items() if k.startswith("linalg."))
        return {
            "matcore.smin_points.calls": (per_op(calls.get("matcore.smin_points", 0)), "count/op"),
            "matcore.smin_points.points": (per_op(points), "count/op"),
            "matcore.smin_points.self_s": (per_op(self_s.get("matcore.smin_points", 0.0)), "s/op"),
            "matcore.smin_points.us_per_point": (
                1e6 * total_s.get("matcore.smin_points", 0.0) / points if points else 0.0, "us"),
            "matcore.resolvent_norm.self_s": (per_op(self_s.get("matcore.resolvent_norm", 0.0)), "s/op"),
            "matcore.resolvent.calls": (per_op(calls.get("matcore.resolvent", 0)), "count/op"),
            "matcore.spectrum.self_s": (per_op(self_s.get("matcore.spectrum", 0.0)), "s/op"),
            "linalg.svd.calls": (per_op(calls.get("linalg.svd", 0)), "count/op"),
            "linalg.svd.matrices": (per_op(counts.get("linalg.svd", 0)), "count/op"),
            "linalg.inv.calls": (per_op(calls.get("linalg.inv", 0)), "count/op"),
            "linalg.eigh.calls": (per_op(calls.get("linalg.eigh", 0)), "count/op"),
            "linalg.eigvalsh.calls": (per_op(calls.get("linalg.eigvalsh", 0)), "count/op"),
            "linalg.eigvals.calls": (per_op(calls.get("linalg.eigvals", 0)), "count/op"),
            "linalg.solve.calls": (per_op(calls.get("linalg.solve", 0)), "count/op"),
            "linalg.norm.calls": (per_op(calls.get("linalg.norm", 0)), "count/op"),
            "linalg.self_s": (per_op(linalg_self), "s/op"),
            "gap.spectral_gap_report.calls": (per_op(calls.get("gap.spectral_gap_report", 0)), "count/op"),
            "gap.spectral_gap_report.self_s": (per_op(self_s.get("gap.spectral_gap_report", 0.0)), "s/op"),
            "growth.growth_direction.self_s": (per_op(self_s.get("growth.growth_direction", 0.0)), "s/op"),
            "growth.verify_growth.self_s": (per_op(self_s.get("growth.verify_growth", 0.0)), "s/op"),
            "growth.certify_local_min.self_s": (per_op(self_s.get("growth.certify_local_min", 0.0)), "s/op"),
            "growth.min_candidate_check.self_s": (
                per_op(self_s.get("growth.min_candidate_check", 0.0)), "s/op"),
            "growth.minimize.calls": (per_op(calls.get("growth.minimize", 0)), "count/op"),
            "perturb.cubic_order_sweep.self_s": (per_op(self_s.get("perturb.cubic_order_sweep", 0.0)), "s/op"),
            "perturb.w_operator.calls": (per_op(calls.get("perturb.w_operator", 0)), "count/op"),
            "perturb.gram.calls": (per_op(perturb_gram), "count/op"),
            "pspec.scan.self_s": (per_op(self_s.get("pspec.scan", 0.0)), "s/op"),
            "pspec.contours.self_s": (per_op(self_s.get("pspec.contours", 0.0)), "s/op"),
            "pspec.contours.points": (per_op(counts.get("pspec.contours", 0)), "count/op"),
            "pspec.components.self_s": (per_op(self_s.get("pspec.components", 0.0)), "s/op"),
            "svgout.render_svg.self_s": (per_op(self_s.get("svgout.render_svg", 0.0)), "s/op"),
            "svgout.render_svg.bytes": (per_op(counts.get("svgout.render_svg", 0)), "B/op"),
            "path.build_path.self_s": (per_op(self_s.get("path.build_path", 0.0)), "s/op"),
            "path.build_path.vertices": (per_op(counts.get("path.build_path", 0)), "count/op"),
            "path.segment_points": (per_op(segment_points), "count/op"),
            "cli.main.self_s": (per_op(self_s.get("cli.main", 0.0)), "s/op"),
            "matio.load_matrix.self_s": (per_op(self_s.get("matio.load_matrix", 0.0)), "s/op"),
        }

    def traced_calls(self) -> int:
        return sum(1 for s in self.spans if not s[NAME].startswith("op."))
