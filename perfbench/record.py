"""Repeat the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/record.py --runs 10 [--first-seed 1] [--trace 0] \
        [--out perfbench/baseline.json]

Runs ``run.py`` once per seed and workload, one run at a time, for
``BENCHMARK.json``'s ``run_seconds``, and reports
for every metric the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread, which is the distance between the quartiles as a
share of the median.  With ``--out`` the summary is saved as JSON together
with the Python version, the seeds, the repeat count and the layer ->
end-to-end predictions of ``spans.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import PREDICTIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train-prep", "test-score")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else values * 3)
        median = statistics.median(values)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpu(s)",
        "run_seconds": seconds, "repeats": args.runs, "seeds": seeds,
        "trace": args.trace, "workloads": {},
        "layer_predictions": PREDICTIONS,
    }
    for workload in WORKLOADS:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds,
                                    args.trace))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in
                results[-1]["metrics"].items()
                if not args.trace or k.startswith("cli.")), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = summarize(results)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "error_rate": failed / attempted, "attempted": attempted,
            "failed": failed, "metrics": summary,
        }
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}"
                  f", quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread "
                  f"{spread}", flush=True)
        print(f"{workload} error_rate {failed / attempted:.6f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
