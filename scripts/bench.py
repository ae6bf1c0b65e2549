#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit and record both.

    python3 scripts/bench.py --pr 6 --parent HEAD~1 --seeds 61-65,4242

Exports the parent commit and the working tree's tracked files (as
`git stash create` records them, or HEAD when the tree is clean) with
`git archive` into two sibling temporary directories, so that both sides
import levyfield from the same kind of place.  A stash leaves untracked
files out, so the script refuses (exit 2, naming them) while src/,
tests/, scripts/ or perfbench/ hold an untracked file that .gitignore
does not exclude.  Then, for each seed and workload of BENCHMARK.json,
runs `perfbench/run.py` once on each copy.
The side that goes first alternates from pair to pair, so that a drift of
the machine's speed hits both sides alike.  With --traced, each side also
makes one traced run (per-layer figures) per workload, at the first seed.

Writes BENCH_<pr>.json at the root of the working tree: the machine block
that run.py prints for each side, with `cpus` once, the CPUs this process
may run on (its affinity mask, which both sides inherit), every run's
final JSON record, per end-to-end metric the medians and quartiles of
both sides (statistics.quantiles(n=4), as perfbench/spread.py takes them)
and the number of pairs in which the change is better, and `src_lines`,
the total line count of src/levyfield/*.py in each side's exported tree.
Per workload and end-to-end metric it also records, and prints, two
verdicts: `gain_rule`, the change better in at least 9 of 10 pairs (a tie
counts for neither side) and its median better than the parent's by more
than the parent's q3 - q1; and `within_bound`, the change's median worse
than the parent's by at most the metric's BENCHMARK.json bound, a
fraction of the parent's median.  Per workload it records each side's
`failed` and `attempted` operation counts per pair and prints
`failed_share_ok`: the change's summed failed over summed attempted
operations is no higher than the parent's.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import seeds  # noqa: E402


# the directories whose files the benchmarked trees must hold
SOURCE_DIRS = ("src", "tests", "scripts", "perfbench")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def untracked(root: Path = ROOT) -> list:
    """Untracked files under SOURCE_DIRS that .gitignore does not exclude:
    `git stash create` would leave them out of the change."""
    return git("ls-files", "--others", "--exclude-standard", "--",
               *SOURCE_DIRS, cwd=root).splitlines()


def export(rev: str, dest: Path) -> None:
    """The files of commit rev, as `git archive` writes them, under dest."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def src_lines(tree: Path) -> int:
    """Lines of src/levyfield/*.py under tree, counted as `wc -l` does."""
    return sum(p.read_bytes().count(b"\n")
               for p in (tree / "src" / "levyfield").glob("*.py"))


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: int) -> tuple:
    """(machine line fields, final JSON record) of one run.py run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=max(1200.0, 20 * seconds))
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    machine = next((ln for ln in lines if ln.startswith("machine: ")), "")
    fields = dict(item.split("=", 1) for item in machine.split()[1:])
    return fields, json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quartiles(values: list):
    """[q1, median, q3] of values by statistics.quantiles(n=4), None for
    fewer than two values."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else None


def summarize(runs: list, spec: dict) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["record"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        metrics = {}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            par = [p["parent"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["metrics"][name]["value"] for p in pairs]
            better = sum((c < q) if lower else (c > q)
                         for q, c in zip(par, chg))
            par_med, chg_med = statistics.median(par), statistics.median(chg)
            gain = par_med - chg_med if lower else chg_med - par_med
            q = quartiles(par)
            # no quartiles below two pairs, so no gain verdict
            gain_rule = None if q is None else bool(
                10 * better >= 9 * len(pairs) and gain > q[2] - q[0])
            within = bool(-gain <= m["bound"] * abs(par_med))
            metrics[name] = {"parent_median": par_med,
                             "change_median": chg_med,
                             "parent_quartiles": q,
                             "change_quartiles": quartiles(chg),
                             "change_better_pairs": better,
                             "pairs": len(pairs),
                             "gain_rule": gain_rule,
                             "within_bound": within}
            spread = "n/a" if q is None else f"{q[2] - q[0]:.4g}"
            print(f"{workload} {name}: gain_rule {gain_rule} ({better} of "
                  f"{len(pairs)} pairs better, median {par_med:.4g} -> "
                  f"{chg_med:.4g}, parent q3 - q1 {spread})")
            print(f"{workload} {name}: within_bound {within} (bound "
                  f"{m['bound']} of the parent median)")
        counts = {key: {side: [p[side][key] for p in pairs]
                        for side in ("parent", "change")}
                  for key in ("failed", "attempted", "correct")}
        share = {side: failed_share(counts["failed"][side],
                                    counts["attempted"][side])
                 for side in ("parent", "change")}
        share_ok = share["change"] <= share["parent"]
        print(f"{workload}: failed_share_ok {share_ok} (failed of attempted "
              + ", ".join(f"{side} {sum(counts['failed'][side]):g} of "
                          f"{sum(counts['attempted'][side]):g}"
                          for side in ("parent", "change")) + ")")
        out[workload] = {"metrics": metrics, **counts,
                         "failed_share": share, "failed_share_ok": share_ok}
    return out


def failed_share(failed: list, attempted: list) -> float:
    """Summed failed over summed attempted operations, 0 with none."""
    total = sum(attempted)
    return sum(failed) / total if total else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD",
                    help="commit to compare with (default HEAD)")
    ap.add_argument("--seeds", type=seeds, required=True,
                    help="one pair per seed, e.g. 61-65,4242")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per side and workload")
    args = ap.parse_args()
    missing = untracked()
    if missing:
        print("bench.py: untracked files would be left out of the change; "
              "add or remove them first:\n  " + "\n  ".join(missing),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    revs = {"parent": git("rev-parse", args.parent),
            "change": git("stash", "create") or git("rev-parse", "HEAD")}
    runs, machine = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        jobs = [(seed, w, 0) for seed in args.seeds for w in workloads]
        if args.traced:
            jobs += [(args.seeds[0], w, 1) for w in workloads]
        done = {}
        for seed, workload, trace in jobs:
            # alternate per workload, so each one has both orders
            n = done[workload, trace] = done.get((workload, trace), -1) + 1
            order = ("parent", "change") if n % 2 == 0 else \
                ("change", "parent")
            for side in order:
                fields, record = run(trees[side], workload, seed, seconds,
                                     trace)
                machine.setdefault(side, fields)
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "side": side,
                             "first": order[0], "record": record})
                print(f"{workload} seed {seed} trace {trace} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in
                                  record["metrics"].items()
                                  if k in {m["name"] for m in
                                           spec["end_to_end"]}),
                      flush=True)

    head = git("rev-parse", "HEAD")
    out = {"pr": args.pr,
           "parent": revs["parent"],
           "change": {"head": head, "dirty": revs["change"] != head},
           "command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace T",
           "machine": {"cpu": cpu_model(), "platform": platform.platform(),
                       "cpus": len(os.sched_getaffinity(0)), **machine},
           "src_lines": lines,
           "summary": summarize(runs, spec),
           "runs": runs}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
