"""scripts/bench.py's summary of parent/change run pairs, its verdicts
and its refusal of untracked source files."""

import importlib.util
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, side, wave_s, trace=0):
    return {"workload": "ensemble", "seed": seed, "trace": trace,
            "side": side, "first": "parent",
            "record": {"metrics": {"wave_s": {"value": wave_s}},
                       "failed": 0.0, "attempted": 23, "correct": True}}


def test_summary_records_each_sides_quartiles():
    parent = [1.40, 1.45, 1.50, 1.38, 1.52, 1.47]
    change = [1.30, 1.46, 1.41, 1.33, 1.49, 1.42]
    runs = [_run(seed, side, value)
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]
    # a traced run and a seed without its pair are left out
    runs += [_run(0, "change", 9.0, trace=1), _run(99, "parent", 9.0)]
    spec = {"end_to_end": [{"name": "wave_s", "better": "lower",
                            "bound": 0.25}]}
    got = _bench().summarize(runs, spec)["ensemble"]["metrics"]["wave_s"]
    assert got["parent_quartiles"] == statistics.quantiles(parent, n=4)
    assert got["change_quartiles"] == statistics.quantiles(change, n=4)
    assert got["parent_median"] == statistics.median(parent)
    assert got["change_median"] == statistics.median(change)
    assert got["change_better_pairs"] == 5 and got["pairs"] == 6
    one = _bench().summarize(runs[:2], spec)["ensemble"]["metrics"]["wave_s"]
    assert one["parent_quartiles"] is None and one["pairs"] == 1


def _pairs(name, parent, change, failed=((0, 14), (0, 14))):
    """Untraced (parent, change) runs of the solvers workload, one pair per
    seed, with the one metric name; failed holds each side's (failed,
    attempted) operations per run."""
    return [{"workload": "solvers", "seed": seed, "trace": 0, "side": side,
             "first": "parent",
             "record": {"metrics": {name: {"value": value}},
                        "failed": ops[0], "attempted": ops[1],
                        "correct": True}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value, ops in zip(("parent", "change"), pair, failed)]


def _verdict(name, better, bound, parent, change):
    spec = {"end_to_end": [{"name": name, "better": better,
                            "bound": bound}]}
    got = _bench().summarize(_pairs(name, parent, change), spec)
    return got["solvers"]["metrics"][name]


PARENT = [0.217, 0.221, 0.215, 0.223, 0.219, 0.214, 0.222, 0.218, 0.220,
          0.216]   # q3 - q1 = 0.005


def test_gain_rule_needs_nine_of_ten_pairs_and_a_median_past_the_spread():
    # 9 of 10 better (one worse), median 0.2185 -> 0.19
    change = [0.19] * 9 + [0.25]
    got = _verdict("wave_s", "lower", 0.25, PARENT, change)
    assert got["change_better_pairs"] == 9
    assert got["gain_rule"] is True and got["within_bound"] is True
    # 8 better and two ties: a tie counts for neither side
    tied = [0.19] * 8 + PARENT[8:]
    got = _verdict("wave_s", "lower", 0.25, PARENT, tied)
    assert got["change_better_pairs"] == 8 and got["gain_rule"] is False
    # every pair better, but the median falls by less than q3 - q1
    close = [v - 0.001 for v in PARENT]
    got = _verdict("wave_s", "lower", 0.25, PARENT, close)
    assert got["change_better_pairs"] == 10 and got["gain_rule"] is False
    # one pair: no quartiles, no verdict on the gain
    got = _verdict("wave_s", "lower", 0.25, PARENT[:1], change[:1])
    assert got["gain_rule"] is None and got["within_bound"] is True


def test_verdicts_of_a_higher_is_better_metric():
    parent = [100.0 + v for v in range(10)]        # q3 - q1 = 5.5
    more = [v + 10.0 for v in parent]
    got = _verdict("paths_per_s", "higher", 0.15, parent, more)
    assert got["change_better_pairs"] == 10
    assert got["gain_rule"] is True and got["within_bound"] is True
    # lower on every pair: no gain; 10% down is within a 15% bound, 20% not
    got = _verdict("paths_per_s", "higher", 0.15, parent,
                   [0.9 * v for v in parent])
    assert got["gain_rule"] is False and got["within_bound"] is True
    got = _verdict("paths_per_s", "higher", 0.15, parent,
                   [0.8 * v for v in parent])
    assert got["within_bound"] is False


def test_within_bound_is_a_fraction_of_the_parent_median():
    median = statistics.median(PARENT)
    worse = [v + 0.2 * median for v in PARENT]
    assert _verdict("heat_s", "lower", 0.25, PARENT, worse)["within_bound"]
    worse = [v + 0.3 * median for v in PARENT]
    got = _verdict("heat_s", "lower", 0.25, PARENT, worse)
    assert got["within_bound"] is False and got["gain_rule"] is False


def test_failed_share_ok_compares_summed_failed_over_attempted(capsys):
    spec = {"end_to_end": [{"name": "wave_s", "better": "lower",
                            "bound": 0.25}]}

    def summary(parent_ops, change_ops):
        runs = _pairs("wave_s", PARENT, PARENT, (parent_ops, change_ops))
        return _bench().summarize(runs, spec)["solvers"]

    # the same share on more operations, and a lower share, are ok
    got = summary((2, 23), (4, 46))
    assert got["failed"]["change"] == [4] * 10
    assert got["attempted"] == {"parent": [23] * 10, "change": [46] * 10}
    assert got["failed_share"] == {"parent": 2 / 23, "change": 2 / 23}
    assert got["failed_share_ok"] is True
    assert summary((2, 23), (0, 23))["failed_share_ok"] is True
    assert summary((0, 0), (0, 0))["failed_share_ok"] is True
    # one more failure, or the same failures over fewer operations, is not
    assert summary((2, 23), (3, 23))["failed_share_ok"] is False
    assert summary((2, 23), (2, 22))["failed_share_ok"] is False
    assert summary((0, 14), (1, 14))["failed_share_ok"] is False
    assert "solvers: failed_share_ok False (failed of attempted parent 0 " \
        "of 140, change 10 of 140)" in capsys.readouterr().out


def test_bench_refuses_a_tree_with_untracked_source_files(tmp_path):
    # git stash create leaves untracked files out, so a change made only of
    # new files would be benchmarked as HEAD: the script names them, exit 2
    root = Path(__file__).resolve().parents[1]
    for rel in ("scripts/bench.py", "perfbench/spread.py", "BENCHMARK.json"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(root / rel, tmp_path / rel)
    (tmp_path / ".gitignore").write_text("__pycache__/\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c",
                        "user.email=bench@example.org", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    for rel in ("src/levyfield/new.py", "tests/test_new.py",
                "src/levyfield/__pycache__/new.pyc", "notes.txt"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("x = 1\n")
    done = subprocess.run([sys.executable, "scripts/bench.py", "--pr", "1",
                           "--seeds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "src/levyfield/new.py" in done.stderr
    assert "tests/test_new.py" in done.stderr
    assert "new.pyc" not in done.stderr and "notes.txt" not in done.stderr
    assert not (tmp_path / "BENCH_1.json").exists()
    git("add", "src", "tests")
    assert _bench().untracked(tmp_path) == []
