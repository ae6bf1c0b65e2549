"""scripts/bench.py's summary of parent/change run pairs."""

import importlib.util
import statistics
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
                       "failed": 0.0, "correct": True}}


def test_summary_records_each_sides_quartiles():
    parent = [1.40, 1.45, 1.50, 1.38, 1.52, 1.47]
    change = [1.30, 1.46, 1.41, 1.33, 1.49, 1.42]
    runs = [_run(seed, side, value)
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]
    # a traced run and a seed without its pair are left out
    runs += [_run(0, "change", 9.0, trace=1), _run(99, "parent", 9.0)]
    spec = {"end_to_end": [{"name": "wave_s", "better": "lower"}]}
    got = _bench().summarize(runs, spec)["ensemble"]["metrics"]["wave_s"]
    assert got["parent_quartiles"] == statistics.quantiles(parent, n=4)
    assert got["change_quartiles"] == statistics.quantiles(change, n=4)
    assert got["parent_median"] == statistics.median(parent)
    assert got["change_median"] == statistics.median(change)
    assert got["change_better_pairs"] == 5 and got["pairs"] == 6
    one = _bench().summarize(runs[:2], spec)["ensemble"]["metrics"]["wave_s"]
    assert one["parent_quartiles"] is None and one["pairs"] == 1
