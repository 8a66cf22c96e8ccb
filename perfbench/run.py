"""Run one topocode benchmark workload and print its metrics.

    python3 perfbench/run.py --workload proto_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; topocode is imported from ./src.  With
--trace 0 the run does an untimed warm-up round, then timed whole rounds of
the workload's operations until --seconds have passed since the warm-up
began, and at least two; it prints the end-to-end metrics.  With --trace 1
it runs an untraced warm-up round, a traced round and an untraced round,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = {
    "proto_suite": ("perfbench.proto", "build_suite"),
    "proto_bulk": ("perfbench.proto", "build_bulk"),
    "label_search": ("perfbench.label", "build"),
    "topcode_groups": ("perfbench.tg", "build"),
}
SETUP_PROBES = 11
# timed rounds that every run makes, however long they take
MIN_TIMED_ROUNDS = 2
OUT_DIR = ROOT / ".bench_build" / "perfbench"


def _builder(workload: str):
    module, attr = WORKLOADS[workload]
    return getattr(importlib.import_module(module), attr)


@contextmanager
def _workdir(workload: str):
    path = OUT_DIR / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _probe(workload: str, seed: int) -> None:
    """Set up as a measured run would, then print the monotonic clock."""
    with _workdir(workload) as wd:
        _builder(workload)(seed, wd)
        print(time.monotonic(), flush=True)


def _setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """For each of `probes` fresh interpreters, the time from spawning the
    process to the end of its set-up (import and input generation), at the
    reference speed: each probe is scaled by the calibration kernel's times
    just before and just after it, taken in this warm process."""
    from perfbench.ops import at_reference_speed, kernel_seconds

    samples = []
    for _ in range(probes):
        before = kernel_seconds()
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready = float(done.stdout.split()[-1])
        samples.append(at_reference_speed(ready - start, before, kernel_seconds()))
    return samples


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload: str, seed: int, seconds: float) -> tuple[object, dict[str, float]]:
    from perfbench.ops import Tally, run_round

    # half of the set-up probes run before the timed rounds and half after,
    # so that one slow spell of the host cannot move their median
    setup = _setup_seconds(workload, seed, SETUP_PROBES // 2 + 1)
    with _workdir(workload) as wd:
        ops = _builder(workload)(seed, wd)
        tally = Tally.of(ops)
        start = time.perf_counter()
        run_round(ops, tally)  # warm-up
        tally.end_warm_up()
        while tally.rounds <= MIN_TIMED_ROUNDS or time.perf_counter() - start < seconds:
            run_round(ops, tally)
    setup += _setup_seconds(workload, seed, SETUP_PROBES // 2)
    typical = tally.typical()
    return tally, {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally.completed_per_s(),
        "op_p50_ms": 1000 * statistics.median(typical),
        "op_p90_ms": 1000 * _percentile(typical, 0.9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload: str, seed: int) -> tuple[object, dict[str, float]]:
    from perfbench.ops import Tally, run_round
    from perfbench.tracing import Tracer

    tracer = Tracer()
    with _workdir(workload) as wd:
        ops = _builder(workload)(seed, wd)
        tally = Tally.of(ops)
        run_round(ops, tally)  # warm-up
        tracer.install()
        try:
            run_round(ops, tally)
        finally:
            tracer.uninstall()
        run_round(ops, tally)
    figures = tracer.metrics()
    # time inside the program's calls at the reference speed: the traced
    # round minus the untraced round after it
    figures["trace.overhead_s"] = sum(traced - untraced for _, traced, untraced in tally.latencies)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}.jsonl")
    return tally, figures


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if traced:
        tally, figures = trace(workload, seed)
        units = _units("per_layer")
    else:
        tally, figures = measure(workload, seed, seconds)
        units = _units("end_to_end")
    metrics = {name: {"value": figures.get(name, 0), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} attempted {tally.attempted} failed {tally.failed}")
    for line in tally.unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    for line in sorted(tally.mended):
        print(f"expected fault did not occur: {line}", file=sys.stderr)
    return {"correct": not tally.unexpected, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload in its own process; prints each workload's metrics."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "topocode" / "__init__.py").is_file():
        print(f"error: no topocode source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
