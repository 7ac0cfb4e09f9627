#!/usr/bin/env python3
"""Benchmark harness for the planar-rook engine (stdlib only).

    python3 perfbench/run.py --workload arith --seed 1 --seconds 12 --trace 0

Runs one workload as a closed loop (one client, one process, no threads)
for ``--seconds`` calibrated seconds, checks every output, prints a readable summary and
the environment, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the same jobs are
run again with spans around every engine layer and the metrics are the
per-layer ones.  ``--workload all`` runs every workload in a child process
and prints one table.  The engine is imported from ``src/`` next to this
directory; without it the harness exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

from clock import CalibratedClock
from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LAYERS = ("diagrams", "algebra", "matrices", "representations", "bratteli", "checks", "cli")
SETUP_REPEATS = 5  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 1.0
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_engine() -> SimpleNamespace:
    """Import a fresh copy of every engine module, with empty caches."""
    for name in [m for m in sys.modules if m == "planar_rook" or m.startswith("planar_rook.")]:
        del sys.modules[name]
    gc.collect()
    return SimpleNamespace(**{name: importlib.import_module(f"planar_rook.{name}") for name in LAYERS})


def cache_info(engine) -> dict:
    """cache_info() of every lru_cache in the diagram layer."""
    return {name: fn.cache_info() for name, fn in vars(engine.diagrams).items() if hasattr(fn, "cache_info")}


class CacheMeter:
    """Diagram-cache hits and misses across a window, through engine reloads."""

    def __init__(self, engine):
        self.hits = self.misses = 0
        self.start(engine)

    def _totals(self):
        infos = cache_info(self.engine).values()
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def start(self, engine):
        self.engine = engine
        self.base = self._totals()

    def stop(self):
        hits, misses = self._totals()
        self.hits += hits - self.base[0]
        self.misses += misses - self.base[1]
        self.base = (hits, misses)

    def summary(self) -> dict:
        entries = sum(i.currsize for i in cache_info(self.engine).values())
        lookups = self.hits + self.misses
        return {"entries": entries, "hit_ratio": self.hits / lookups if lookups else 0.0}


def run_jobs(workload, specs, engine, jobs, clock, *, seconds=None, count=None, tracer=None) -> SimpleNamespace:
    """Closed loop over ``jobs`` for ``seconds`` calibrated seconds, or for ``count`` jobs.

    Only the engine call is inside a job's interval; the intervals are
    priced by ``clock`` afterwards.  Each output is checked right after its
    job returns, outside the timed region, and then dropped.  A workload
    that reloads the engine per pass runs whole passes only, and lets go of
    the old engine before importing the next.
    """
    job_starts = array("d")
    job_ends = array("d")
    problems = []
    stdout_bytes = 0
    meter = CacheMeter(engine)
    started = last = clock.mark()
    elapsed = 0.0
    j = 0
    while True:
        now = clock.mark()
        elapsed += clock.price(last, now)[1]
        last = now
        if count is not None:
            if j >= count:
                break
        elif j > 0 and elapsed >= seconds and not (workload.fresh_engine and j % len(jobs)):
            break
        i = j % len(jobs)
        if workload.fresh_engine and i == 0 and j > 0:
            meter.stop()
            meter.engine = engine = None
            engine = load_engine()
            if tracer is not None:
                tracer.install(engine)
            meter.start(engine)
        fn, args = jobs[i]
        j += 1
        mark = clock.mark()
        try:
            output = fn(engine, *args) if tracer is None else tracer.job(fn, (engine, *args))
        except Exception as exc:  # a failing job is counted and reported, and the loop goes on
            problems.append(f"job {i}: {exc!r}")
            continue
        job_starts.append(mark)
        job_ends.append(clock.mark())
        stdout_bytes += workload.output_bytes(output)
        if not workload.check(specs[i], output):
            problems.append(f"job {i}: wrong output")
        output = None
    ended = clock.mark()
    meter.stop()
    return SimpleNamespace(count=j, intervals=(job_starts, job_ends), problems=problems,
                           span=(started, ended), wall=ended - started,
                           stdout_bytes=stdout_bytes, cache=meter.summary(), engine=engine)


def percentile(ordered, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(engine, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "planar_rook").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "diagram_caches": {name: info._asdict() for name, info in cache_info(engine).items()},
    }


def run_one(args) -> dict:
    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    with CalibratedClock() as clock:
        setup_times = []
        began = clock.mark()
        while len(setup_times) < SETUP_REPEATS or clock.mark() - began < SETUP_SECONDS:
            engine = jobs = None
            mark = clock.mark()
            engine = load_engine()
            specs = workload.generate(args.seed)
            jobs = workload.prepare(engine, specs)
            # Sweep passes model fresh processes, so their caches start cold.
            warm = 0 if workload.fresh_engine else max(1, len(jobs) // 20)
            for fn, job_args in jobs[:warm]:
                fn(engine, *job_args)
            setup_times.append((mark, clock.mark()))
        gc.collect()

        window = run_jobs(workload, specs, engine, jobs, clock, seconds=args.seconds)
        problems = list(window.problems)
        attempted = window.count
        if args.trace:
            engine, window.engine = window.engine, None
            if workload.fresh_engine:  # drop the untraced pass's caches before the next import
                engine = None
                engine = load_engine()
            tracer = Tracer()
            tracer.install(engine)
            gc.collect()
            traced = run_jobs(workload, specs, engine, jobs, clock, count=window.count, tracer=tracer)
            problems += traced.problems
            attempted += traced.count
            engine = traced.engine
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not window.intervals[0]:
        raise SystemExit(f"error: every job failed, first: {problems[0]}")
    setup_times = [clock.price(*interval) for interval in setup_times]
    priced = [clock.price(*interval) for interval in zip(*window.intervals)]
    ordered = sorted(cal for _, cal in priced)
    raw = sorted(r for r, _ in priced)
    if args.trace:
        overhead = clock.price(*traced.span)[1] / clock.price(*window.span)[1] - 1
        values = tracer.metrics(traced.wall, overhead, traced.cache, traced.stdout_bytes)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        tracer.write(OUT / f"trace-{workload.name}")
    else:
        values = {
            "jobs_per_s": len(ordered) / sum(ordered),
            "job_p50_ms": percentile(ordered, 0.50) * 1e3,
            "job_p99_ms": percentile(ordered, 0.99) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(cal for _, cal in setup_times),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": len(problems),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
        "details": {
            "failed_frac": len(problems) / attempted,
            "problems": problems[:20],
            "samples": len(ordered),
            "beyond_p99": len(ordered) - max(1, math.ceil(0.99 * len(ordered))),
            "uncalibrated": {
                "jobs_per_s": len(raw) / sum(raw),
                "job_p50_ms": percentile(raw, 0.50) * 1e3,
                "job_p99_ms": percentile(raw, 0.99) * 1e3,
                "setup_s": statistics.median(r for r, _ in setup_times),
            },
            "reference_kernel_median_s": clock.reference_median(),
            "reference_samples": len(clock.refs),
            "window_s": window.wall,
            "peak_rss_mb": peak_rss_mb,
            "setup_times_s": setup_times,
            "environment": environment(engine, args),
        },
    }


def print_summary(report: dict) -> None:
    result, details = report["result"], report["details"]
    env = details["environment"]
    print(f"{env['workload']} seed={env['seed']} trace={env['trace']} size={env['size']}: "
          f"{result['attempted']} jobs, failed_frac={details['failed_frac']:.4g}, "
          f"{details['samples']} latency samples ({details['beyond_p99']} beyond p99)")
    for name, metric in result["metrics"].items():
        print(f"  {name:55s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in details["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:55s} {entry['value']:>16.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12,
                        help="calibrated seconds of jobs to run (see clock.py)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "planar_rook" / "__init__.py").is_file():
        print(f"error: the engine's sources are missing: {SRC / 'planar_rook'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    report = run_one(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_summary(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
