#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/spread.py --workload ensemble solvers --seeds 11-20

Runs `perfbench/run.py` one run at a time (never in parallel) for
`run_seconds` of BENCHMARK.json, the workloads in turn for each seed, then
prints per workload and end-to-end metric the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound, plus the shares of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, required=True,
                    help="e.g. 11-20 or 1,4,7")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = {w: [] for w in args.workload}
    for seed in args.seeds:
        for workload in args.workload:
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)

    for workload, results in runs.items():
        print(f"\n{workload}, {len(results)} runs of {seconds} s, seeds "
              f"{args.seeds[0]}..{args.seeds[-1]}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"failed share: {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{name:>12}: median {med:.4g} {metric['unit']}, quartiles "
                  f"{q1:.4g} .. {q3:.4g}, spread {(q3 - q1) / med:.3f} "
                  f"(bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
