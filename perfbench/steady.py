"""Steadiness check: run every workload in BENCHMARK.json 10 times, on seeds
1 to 10, for its run_seconds each, and print, for every end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median next to the metric's
bound.

    python3 perfbench/steady.py

Every spread must stay at or below a third of its bound, and the share of
failed operations must be identical in every run of a workload; the exit
code is 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        steady &= correct and len(shares) == 1
        print(f"{workload} failed share {sorted(str(s) for s in shares)} correct={correct}")
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = spread <= bound / 3
            steady &= ok
            summary[workload][name] = {"median": median, "spread": spread}
            print(f"{workload:15s} {name:13s} median {median:12.5g}  spread {spread:7.2%}  bound {bound:.0%}  "
                  f"{'ok' if ok else 'TOO WIDE'}")
    print(json.dumps(summary))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
