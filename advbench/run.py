#!/usr/bin/env python3
"""advsel benchmark runner.

Run from the repository root:

    python3 advbench/run.py --workload small-n-many-trials --seed 1 \
        --seconds 30 --trace 0
    python3 advbench/run.py --workload all        # each workload in its own process

A run imports advsel from ``src/`` of the checkout it sits in, sets up (import,
one warm-up trial per cell), then runs passes of the workload until
``--seconds`` have gone by. Every pass is checked (see ``workloads.py``).

Whatever ``--seed`` is, one extra untimed pass of the default seed is checked
against ``golden.json``, so a break of the draw contract always fails a run.

``--trace 0`` prints the end-to-end metrics, timed with tracing off.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics; the traced spans are written to ``advbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
whenever a result is printed, and 2 when advsel, the workload, its golden
digests or a trace point cannot be found.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import MissingTracePoint, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 11       # set-up is timed in this many fresh processes
RSS_VARIANTS = 4        # the first probe then runs this many passes for peak RSS
MIN_PASSES = 3
TRACE_DIR = BENCH_DIR / "traces"

END_TO_END_UNITS = {"wall_s": "s", "queries_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _import_workloads():
    """Import advsel from this checkout only, then the workload table."""
    if not (SRC / "advsel" / "__init__.py").is_file():
        raise FileNotFoundError(f"advsel sources not found under {SRC}")
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import advsel
    if Path(advsel.__file__).resolve().parent != (SRC / "advsel").resolve():
        raise ImportError(f"advsel imported from {advsel.__file__}, not {SRC}")
    import workloads
    return workloads


def setup(name: str, seed: int):
    """Everything before the first timed pass: import numpy and advsel, and
    run every cell once with one trial so lazy imports and advsel's own
    caches are warm."""
    workloads = _import_workloads()
    warm = workloads.Workload(name, seed, trials=1)
    for call in warm.prepare(0):
        call()
    return workloads, workloads.Workload(name, seed)


def probe_setup(args, rss_variants: int = 0) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until its set-up is done.
    With ``rss_variants``, the process then runs one unchecked pass of each
    of that many variants, and its peak RSS in MB is returned too (else 0)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-rss-variants", str(rss_variants)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rss = proc.stdout.readline()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe process failed")
    return elapsed, float(rss) if rss_variants else 0.0


def probe_main(args) -> None:
    """The probe process: set up, say so, then run the passes for peak RSS.
    It runs no calibration kernel, so its peak RSS is advsel's and the
    benchmark's own, not the kernel's."""
    _, workload = setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.probe_rss_variants:
        for variant in range(args.probe_rss_variants):
            for call in workload.prepare(variant):
                call()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(rss, flush=True)


def run_pass(workload, variant: int, checker, tracer=None) -> tuple[float, int]:
    """Run and check one pass; returns (wall seconds, comparator queries)."""
    calls = workload.prepare(variant)
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        with tracer.span("pass", "bench") if tracer is not None else nullcontext():
            results = [call() for call in calls]
        wall = time.perf_counter() - start
    digests, verdicts, queries = workload.outcome(results)
    checker.check_pass(workload, variant, digests, verdicts)
    return wall, queries


def count_pass(workload, checker) -> dict:
    """Exact counts of variant 0, from one traced pass outside the timing."""
    tracer = Tracer()
    _, queries = run_pass(workload, 0, checker, tracer)
    c = tracer.counts
    return {
        "trials": sum(cell.trials for cell in workload.cells),
        "queries": queries,
        "harness.seed_calls": c["harness.seed_calls"],
        "generators.calls": c["generators.calls"],
        "generators.dense_cells": c["generators.dense_cells"],
        "adversary.builds": c["adversary.calls"],
        "adversary.dense_cells": c["adversary.dense_cells"],
        "engine.calls": c["engine.calls"],
        "session.queries": c["session.queries"],
        "scheffe.tests": c["scheffe.tests"],
    }


def layer_metrics(tracer, counts: dict, plain: list, traced: list) -> dict:
    """Self seconds per traced pass, per-query rates over all traced passes,
    and the exact counts of the count pass."""
    passes = len(traced)

    def per_pass(layer: str) -> float:
        return tracer.self_s.get(layer, 0.0) / passes

    def rate(layer: str, count: int, scale: float) -> float:
        return tracer.self_s.get(layer, 0.0) * scale / count if count else 0.0

    c = tracer.counts
    return {
        "harness.self_s": (per_pass("harness"), "s"),
        "harness.seed_us_per_trial": (
            rate("seed", counts["trials"] * passes, 1e6), "us"),
        "harness.seed_calls": (counts["harness.seed_calls"], "count"),
        "generators.build_s": (per_pass("generators"), "s"),
        "generators.calls": (counts["generators.calls"], "count"),
        "adversary.build_s": (per_pass("adversary"), "s"),
        "adversary.builds": (counts["adversary.builds"], "count"),
        "adversary.dense_cells": (counts["adversary.dense_cells"], "count"),
        "engine.self_s": (per_pass("engine"), "s"),
        "engine.calls": (counts["engine.calls"], "count"),
        "engine.ns_per_query": (rate("engine", c["engine.queries"], 1e9), "ns"),
        "session.self_s": (per_pass("session"), "s"),
        "session.queries": (counts["session.queries"], "count"),
        "session.ns_per_query": (rate("session", c["session.queries"], 1e9), "ns"),
        "scheffe.tests": (counts["scheffe.tests"], "count"),
        "scheffe.us_per_test": (rate("scheffe", c["scheffe.tests"], 1e6), "us"),
        "scheffe.self_s": (per_pass("scheffe"), "s"),
        "core.check_s": (per_pass("core"), "s"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain),
                             "s"),
    }


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload) -> dict:
    import advsel
    import numpy
    from advsel import harness
    worker_count = getattr(harness, "_worker_count", None)
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cells": [c.label for c in workload.cells],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "advsel": getattr(advsel, "__version__", None),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "harness_workers": worker_count() if callable(worker_count) else None,
        "machine": platform.machine(), "git_commit": git_commit(ROOT),
    }


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def calibrated(samples: list, kernel_s: list, kernel_ref: float) -> list:
    """Rescale each sample to the reference speed of the box. Sample i ran
    between kernel runs i and i+1; it is divided by the median kernel time of
    a window around it and multiplied by the kernel's reference time."""
    return [x * kernel_ref / statistics.median(kernel_s[max(0, i - 1):i + 3])
            for i, x in enumerate(samples)]


def measure_end_to_end(args, workloads, workload, checker) -> dict:
    """Timed passes, with a calibration kernel run after each one. The set-up
    probes are spread over the run, so they see the box's speed phases as the
    passes do. Set-up times are not calibrated: in trials that widened their
    spread."""
    kernel, kernel_ref = workloads.CALIBRATION[workload.name]
    kernel_s = [_seconds(kernel)]
    walls, queries = [], []
    setups, peak_rss_mb = [], 0.0
    start = time.perf_counter()
    deadline = start + args.seconds
    while (len(walls) < MIN_PASSES or len(setups) < SETUP_PROBES
           or time.perf_counter() < deadline):
        if (len(setups) < SETUP_PROBES and time.perf_counter() - start
                >= len(setups) * args.seconds / SETUP_PROBES):
            # peak RSS from the first probe, which starts before this
            # process runs a pass: taken from the last probe instead, it
            # moved between runs by up to 8% on large-n
            first = not setups
            setup_s, rss = probe_setup(args, RSS_VARIANTS if first else 0)
            setups.append(setup_s)
            peak_rss_mb = rss if first else peak_rss_mb
            continue
        wall, q = run_pass(workload, len(walls) % workloads.VARIANTS, checker)
        walls.append(wall)
        queries.append(q)
        kernel_s.append(_seconds(kernel))
    norm = calibrated(walls, kernel_s, kernel_ref)
    metrics = {
        "wall_s": statistics.median(norm),
        "queries_per_s": statistics.median(q / w for q, w in zip(queries, norm)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "passes": len(walls),
        # the tail of the pass times is mostly the box's transient slowdowns:
        # printed, but too unsteady across runs to bound
        "wall_s_p90": _quantile(norm, 90),
        "raw": {"wall_s": statistics.median(walls),
                "wall_s_p90": _quantile(walls, 90),
                "kernel_s": statistics.median(kernel_s)},
        "pass_walls_s": [round(w, 6) for w in walls],
        "kernel_walls_s": [round(k, 6) for k in kernel_s],
        "setup_samples_s": setups,
    }


def measure_layers(args, workloads, workload, checker, tracer) -> dict:
    """Untraced and traced passes alternate over the same variants, so the
    traced minus untraced median is the tracing overhead."""
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    p = 0
    while p < 2 * MIN_PASSES or time.perf_counter() < deadline:
        traced_pass = p % 2 == 1
        wall, _ = run_pass(workload, (p // 2) % workloads.VARIANTS, checker,
                           tracer if traced_pass else None)
        (traced if traced_pass else plain).append(wall)
        p += 1
    return {"passes": p, "plain": plain, "traced": traced,
            "layer_share": {layer: tracer.self_s[layer] / sum(traced)
                            for layer in sorted(tracer.self_s)},
            "trace_file": write_spans(tracer, args)}


def measure(args) -> dict:
    started = time.perf_counter()
    workloads, workload = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - started
    seeds = {args.seed, workloads.DEFAULT_SEED}
    checker = workloads.Checker({
        s: table for s in seeds
        if (table := workloads.load_golden(args.workload, s)) is not None})
    if workloads.DEFAULT_SEED not in checker.golden:
        raise ValueError(f"golden.json has no digests of {args.workload} for "
                         f"the default seed {workloads.DEFAULT_SEED}")
    if args.trace:
        tracer = Tracer()
        report = measure_layers(args, workloads, workload, checker, tracer)
    else:
        report = measure_end_to_end(args, workloads, workload, checker)
    counts = count_pass(workload, checker)
    # the draw contract, checked on a recorded seed whatever --seed is
    run_pass(workloads.Workload(args.workload, workloads.DEFAULT_SEED), 0,
             checker)
    if args.trace:
        report["metrics"] = layer_metrics(tracer, counts, report.pop("plain"),
                                          report.pop("traced"))
    report.update({
        "manifest": manifest(args, workload), "counts": counts,
        "own_setup_s": own_setup, "golden": args.seed in checker.golden,
        "fail_ratio": checker.fail_ratio, "failures": checker.failures,
        "attempted": checker.attempted, "failed": checker.failed})
    return report


def write_spans(tracer, args) -> str:
    """All spans of the run, one JSON array [id, parent id, name, start s,
    end s] per line, gzipped."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    return str(path.relative_to(ROOT))


def print_report(report: dict) -> None:
    m = report["manifest"]
    print(f"advsel benchmark: workload {m['workload']}, seed {m['seed']}, "
          f"{report['passes']} passes in {m['seconds']} s, trace {m['trace']}")
    print("manifest " + json.dumps(m))
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    if "layer_share" in report:
        print("  self time share of traced wall: " + ", ".join(
            f"{k} {v:.1%}" for k, v in report["layer_share"].items()))
        print(f"  spans written to {report['trace_file']}")
    print("counts (variant 0, exact) " + json.dumps(report["counts"]))
    digests = ("golden digests" if report["golden"] else
               "no golden digests for this seed: repeated variants, plus one "
               "golden pass of the default seed")
    print(f"checks: attempted {report['attempted']}, failed {report['failed']}, "
          f"fail_ratio {report['fail_ratio']:g} ({digests}, per-seed bounds)")
    for failure in report["failures"]:
        print("  FAILED " + failure)
    print("detail " + json.dumps({k: v for k, v in report.items()
                                  if k not in ("manifest", "metrics")}))
    print(json.dumps({
        "correct": report["failed"] == 0, "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in report["metrics"].items()}}))


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    names = list(_import_workloads().WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-rss-variants", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("ADVSEL_THREADS", None)      # one harness worker process
    try:
        if args.seed is None:
            args.seed = _import_workloads().DEFAULT_SEED
        if args.workload == "all":
            return run_all(args)
        if args.probe_setup:
            probe_main(args)
            return 0
        report = measure(args)
    except (FileNotFoundError, ImportError, ValueError,
            MissingTracePoint) as exc:
        print(f"advbench: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
