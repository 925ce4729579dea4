#!/usr/bin/env python3
"""Layered benchmark of yukawa-atom, run from the root of a source checkout.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that records spans at every layer boundary and reports the
per-layer metrics.  ``--workload all`` runs every workload both ways and
prints the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The package is imported from ``src/`` of the checkout as it stands: the
benchmark never builds the optional extension and never chooses the Numerov
backend, which it reports in the environment fingerprint.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "cold_ms_p50": "ms",
}
WORKLOAD_NAMES = ("spectrum", "tables", "quadrature")
IMPORT_RUNS = 3
FRESH_TIMEOUT_S = 120


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh(argv):
    """Run cold.py in a new interpreter: (setup seconds, total seconds, record)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "cold.py"), *argv], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=FRESH_TIMEOUT_S)
    total = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh process {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    return record["ready"] - start, total, record


class ColdSampler:
    """Fresh-process operations spread over the run, between warm requests.

    Spreading them samples the same stretch of machine time as the warm
    loop.  Their output is checked once the run is over, against warm
    outputs it may refer to.
    """

    def __init__(self, jobs, seconds):
        self.pending = list(jobs)
        self.interval = seconds / len(self.pending)
        self.last = time.perf_counter()
        self.setups, self.totals, self.records = [], [], []

    def maybe(self):
        if self.pending and time.perf_counter() - self.last >= self.interval:
            self._run_one()

    def finish(self):
        while self.pending:
            self._run_one()

    def _run_one(self):
        argv, check = self.pending.pop(0)
        setup, total, record = fresh(argv)
        self.setups.append(setup)
        self.totals.append(total)
        self.records.append((argv, check, record))
        self.last = time.perf_counter()

    def problems(self):
        found = []
        for argv, check, record in self.records:
            problems = [f"exit {record['code']}"] if record["code"] != 0 else []
            found += [f"fresh {argv}: {p}" for p in problems + check(record["out"])]
        return found


def import_times():
    """Median cumulative import time of the package and of scipy.integrate, ms."""
    package, integrate = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import yukawa_atom"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=FRESH_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        package.append(cumulative.get("yukawa_atom", 0.0))
        integrate.append(cumulative.get("scipy.integrate", 0.0))
    return statistics.median(package), statistics.median(integrate)


def fingerprint():
    import numpy
    import scipy
    import yukawa_atom

    backend = getattr(yukawa_atom, "numerov_backend", None)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "numerov_backend": backend() if backend else "none",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    with contextlib.ExitStack() as stack:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            stack.enter_context(spans.instrument(tracer))
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "fingerprint": fingerprint()}))
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.prepare()
        client = workloads.Client(tracer)
        outcome = workloads.Outcome()
        cold = None if args.trace else ColdSampler(workload.cold_jobs(), args.seconds)
        client.between = cold and cold.maybe
        start = time.perf_counter()
        while True:
            workload.run_round(client, outcome)
            outcome.rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
    ops_per_s = outcome.attempted / client.busy
    latencies_ms = sorted(x * 1e3 for x in outcome.latencies)

    if args.trace:
        metrics = spans.layer_metrics(tracer, outcome.rounds)
        metrics["import.package_ms"], metrics["import.scipy_integrate_ms"] = import_times()
        metrics["trace.ops_per_s"] = ops_per_s
        units = spans.PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "span_fields": ["id", "name", "start", "end", "parent",
                                                    "request", "attrs"],
                                    "spans": tracer.spans}))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cold.finish()
        outcome.problems.extend(cold.problems())
        metrics = {
            "setup_s": statistics.median(cold.setups),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": ops_per_s,
            "op_ms_p50": statistics.median(latencies_ms),
            "cold_ms_p50": statistics.median(cold.totals) * 1e3,
        }
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    tail = len(latencies_ms) // 100
    if tail >= 10:
        print(f"{'op_ms_p99':44s} {latencies_ms[-tail - 1]:14.6g} ms "
              f"({len(latencies_ms)} samples, {tail} beyond)")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}  rounds {outcome.rounds}")
    for fault in outcome.known:
        print(f"known fault, counted as failed: {fault}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args):
    """Every workload untraced and traced, each in its own process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}")
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
    print()
    print(f"{'workload':12s} {'attempted':>9s} {'failed':>6s} {'correct':>7s}  trace overhead")
    for name in WORKLOAD_NAMES:
        plain, traced = results[name, 0], results[name, 1]
        overhead = plain["metrics"]["ops_per_s"]["value"] / \
            traced["metrics"]["trace.ops_per_s"]["value"] - 1.0
        print(f"{name:12s} {plain['attempted']:9d} {plain['failed']:6d} "
              f"{str(plain['correct'] and traced['correct']):>7s}  {overhead:+.1%} time per op")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(results[name, 0]["attempted"] for name in WORKLOAD_NAMES),
        "failed": sum(results[name, 0]["failed"] for name in WORKLOAD_NAMES),
        "metrics": {f"{name}.{metric}": value for (name, _), r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "yukawa_atom" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'yukawa_atom'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
