#!/usr/bin/env python3
"""Benchmark of resolventlab: one workload, closed loop, one BLAS thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: landscape, certify, paths (see perfbench/README.md). The
program is imported from ``src/`` of the checkout. The run makes its
inputs from ``--seed``, warms each code path once on a small input, then
runs whole rounds of operations, each starting when the previous one ends,
until ``--seconds`` of wall time have passed. Each operation's latency is
taken on the process CPU clock (one thread does all the work) and scaled
to the speed of a reference host by a numpy-only probe timed between
operations in the same run; the unscaled CPU-clock and wall-clock figures
go to the result file beside it. Afterwards it checks
every output against computations made apart from the program. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics of
a traced run with ``--trace 1``). The environment (cores, BLAS build,
thread setting) is printed before it and written with the result, and the
spans of a traced run, to ``perfbench/out/``.
"""

import os
import sys
import time

# One BLAS thread, set before numpy loads: on a 2-core host the default of
# two OpenBLAS threads makes small SVDs slower and their timings unsteady.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

MODULE_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(os.getcwd(), "src")


def process_age() -> float:
    """Seconds since this process started, from /proc; since this file loaded otherwise."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - MODULE_START


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("landscape", "certify", "paths"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# seconds of wall time between two runs of the workload's host-speed probe
PROBE_EVERY_S = 1.0


def run_rounds(work, seconds: float, tracer):
    """Whole rounds of operations until ``seconds`` of wall time have passed.

    Returns (records, rounds, probes): one (op, output, cpu_s, wall_s,
    probe) per operation; the output is the exception when the operation
    raised, and probe is the index of the probe run last before it. An
    operation's latency is taken on the process CPU clock, which leaves out
    the time the process waits for a core or for the disk on a shared host;
    its wall-clock latency is kept beside it. Time the benchmark spends on
    its own work inside an operation (the Pause) is left out of both.
    Between operations, at most once a second, and once more at the end,
    the workload's probe runs; ``probes`` holds its CPU times.
    """
    from workloads import Pause

    records = []
    probes = []
    rounds = 0
    start = last_probe = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        pause = Pause()
        for op in work.round_ops(rounds, pause):
            if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(time_probe(work))
                last_probe = time.perf_counter()
            before_cpu, before_wall = pause.cpu, pause.wall
            with tracer.op(op.kind) if tracer is not None else contextlib.nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    out = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    traceback.print_exc()
                    out = exc
                cpu_s = time.process_time() - c0 - (pause.cpu - before_cpu)
                wall_s = time.perf_counter() - t0 - (pause.wall - before_wall)
            op.run = None  # drop the inputs it holds; the checks need only the output
            records.append((op, out, cpu_s, wall_s, len(probes) - 1))
        rounds += 1
    probes.append(time_probe(work))
    return records, rounds, probes


def time_probe(work) -> float:
    c0 = time.process_time()
    work.probe()
    return time.process_time() - c0


def scale_to_reference(cpu: list, probe_index: list, probes: list, ref_s: float) -> list:
    """CPU latencies scaled to the reference host's speed.

    The host's speed drifts by 15-30% within minutes. An operation's
    slowdown is the mean of the probes run just before and just after it
    (``probes[i]`` and ``probes[i + 1]`` for ``probe_index`` i) over the
    probe's time on the reference host; its latency is divided by it.
    """
    return [c * ref_s / (0.5 * (probes[i] + probes[i + 1])) for c, i in zip(cpu, probe_index)]


def timing_metrics(latencies: list, passed: list, completed: int) -> tuple:
    """ops_per_s and op_p50_ms from one latency per operation.

    The timed section is the sum of the latencies of all operations; the
    median is taken over the operations that passed their checks.
    """
    kept = [lat for lat, ok in zip(latencies, passed) if ok]
    return (completed / sum(latencies),
            1e3 * statistics.median(kept) if kept else float("nan"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resolventlab", "__init__.py")):
        print(f"error: no resolventlab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    t0 = time.perf_counter()
    import resolventlab  # noqa: F401
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    import checks
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    work = workloads.WORKLOADS[args.workload](args.seed, workdir)
    work.warm_up()
    setup_s = process_age()

    records, rounds, probes = run_rounds(work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    failed = 0
    passed = []
    for op, out, *_ in records:
        try:
            if isinstance(out, Exception):
                raise checks.CheckFailed(f"raised {out!r}")
            op.check(out)
            passed.append(True)
        except checks.CheckFailed as exc:
            passed.append(False)
            failed += 1
            if not op.known_fault:
                correct = False
                print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
    attempted = len(records)
    completed = attempted - failed
    workloads.clear(workdir)

    cpu = [rec[2] for rec in records]
    wall = [rec[3] for rec in records]
    scaled = scale_to_reference(cpu, [rec[4] for rec in records], probes, work.probe_ref_s)
    ops_per_s, op_p50_ms = timing_metrics(scaled, passed, completed)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "op/ref_s"),
        "op_p50_ms": (op_p50_ms, "ref_ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscaled = {}
    for clock, latencies in (("cpu_clock", cpu), ("wall_clock", wall)):
        rate, p50 = timing_metrics(latencies, passed, completed)
        unscaled[clock] = as_json({"ops_per_s": (rate, "op/s"), "op_p50_ms": (p50, "ms")})
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "attempted": attempted, "failed": failed,
              "correct": correct, "environment": environment(), "end_to_end": as_json(end_to_end),
              **unscaled,
              "probe": {"ref_s": work.probe_ref_s, "mean_s": statistics.fmean(probes),
                        "runs": len(probes), "cpu_s": probes}}
    metrics = end_to_end
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is not None:
        span_cost = tracer.span_cost()
        metrics = tracer.layer_metrics(attempted)
        metrics["cli.output_bytes"] = (getattr(work, "output_bytes", 0) / attempted, "B/op")
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.overhead_s"] = (span_cost * tracer.traced_calls() / attempted, "s/op")
        result["span_cost_s"] = span_cost
        result["per_layer"] = as_json(metrics)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print("environment " + json.dumps(result["environment"]))
    print("end_to_end " + json.dumps(result["end_to_end"]))
    print("cpu_clock " + json.dumps(result["cpu_clock"]))
    print("wall_clock " + json.dumps(result["wall_clock"]))
    print("probe " + json.dumps({k: v for k, v in result["probe"].items() if k != "cpu_s"}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
