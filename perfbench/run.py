#!/usr/bin/env python3
"""levyfield benchmark.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout; levyfield is imported from ./src.
One workload per process, one caller, no worker processes.  With --trace 0
the run times whole rounds of the workload, as many as fit in --seconds (at
least one), and reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs
round 0 three times (warm-up, traced, untraced), then single paths of about
20, 200, 1000 and 4000 atoms traced, and reports the per-layer metrics.
Every output is checked against perfbench/oracles.py.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_TRIALS = 5

# What a user pays before a workload's first call: a fresh interpreter
# imports the package and builds what the workload needs.
SETUP_CODE = {
    "ensemble": """
from levyfield import cli
from levyfield.harness import RunConfig, build_measure, build_problem, build_window
from levyfield.integrals import box_indicator, inner_product, window_sq_integral
for kind in ("wave", "heat"):
    build_problem(RunConfig(kernel=kind))
build_measure(RunConfig())
window = build_window(RunConfig())
window_sq_integral(box_indicator(-1.0, 1.0), window)
inner_product(cli.H_SMOOTH, cli.G_SMOOTH, window)
""",
    "solvers": """
import math
import levyfield as lf
window = lf.SpaceTimeWindow(1.0, 2.0)
lf.two_point_measure(math.sqrt(5.0 / 1000.0), 1000.0)
lf.gaussian_measure(5.0, 0.5, 1.0)
for kernel in (lf.wave_kernel(), lf.heat_kernel()):
    lf.ProblemSpec(kernel, lf.affine_map(0.5, 1.0), "cosine", window)
""",
}


def setup_seconds(workload: str) -> float:
    """Wall time of SETUP_CODE in a fresh interpreter, timed inside it so
    that interpreter start-up is left out, at the reference speed of
    speed.py, measured in the same interpreter right after it."""
    code = ("import time\n_t0 = time.perf_counter()\n" + SETUP_CODE[workload]
            + "_setup = time.perf_counter() - _t0\n"
            + f"import sys\nsys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            + "import speed\n"
            + "task = sum(speed.reference_seconds() for _ in range(3)) / 3\n"
            + "print(speed.scaled(_setup, task))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return "unknown"


def round_seconds(ops, closing: float, kind: str) -> float:
    """The round's time in `kind`-kernel operations, at the reference speed
    measured across the round (speed.py); `closing` is the task time after
    the round's last operation."""
    task = speed.round_task_seconds([op.seconds for op in ops],
                                    [op.reference for op in ops] + [closing])
    return speed.scaled(sum(op.seconds for op in ops if op.kernel == kind),
                        task)


def end_to_end(rounds, closing, setup) -> dict:
    return {"setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{f"{kind}_s": statistics.median(
                round_seconds(ops, end, kind)
                for ops, end in zip(rounds, closing))
               for kind in ("wave", "heat")}}


def op_figures(ops) -> dict:
    """The untraced round of a traced run, one figure per kind of call;
    zero where the workload does not make that call.  The large-path calls
    are per path (median over the round's paths), the others per round."""
    def total(label, kind=None):
        return sum(op.seconds for op in ops
                   if op.label.split()[0] == label and kind in (None, op.kernel))

    def per_call(label, kind):
        times = [op.seconds for op in ops
                 if op.label == label and op.kernel == kind]
        return statistics.median(times) if times else 0.0

    moments = total("moments")
    out = {"op.verify_s": total("verify"),
           "op.moments_paths_per_s": 10_000 / moments if moments else 0.0,
           "op.diagnostics_s": total("existence") + total("derivative-bound")}
    for kind in ("wave", "heat"):
        for label in ("forward", "picard", "derivative"):
            out[f"op.{label}_{kind}_ms"] = 1e3 * per_call(label, kind)
        out[f"op.compensated_{kind}_s"] = total("compensated", kind)
    return out


# Read from the spans and counters of the traced round (perfbench/tracing.py).
LAYER_METRICS = (
    "noise.sample_prm.calls", "noise.sample_prm.s", "noise.us_per_path",
    "kernels.evaluate.calls", "kernels.evaluate.s", "kernels.evals",
    "kernels.ns_per_eval",
    "integrals.ito_integral.calls", "integrals.ito_integral.s",
    "integrals.stochastic_convolution.calls",
    "integrals.stochastic_convolution.s",
    "integrals.compensator.calls", "integrals.compensator.s",
    "solver.solve_forward.calls", "solver.solve_forward.s",
    "solver.solve_forward.self_s", "solver.deterministic_part.calls",
    "solver.deterministic_part.s", "solver.kernel_matrix.s",
    "solver.kernel_matrix.bytes", "solver.picard_solve.calls",
    "solver.picard_solve.s", "solver.picard_solve.self_s",
    "solver.existence_diagnostics.s",
    "malliavin.difference_derivative.calls",
    "malliavin.difference_derivative.s",
    "malliavin.derivative_bound_estimate.s",
    "malliavin.picard_derivative_report.s",
    "gronwall.convolve.calls", "gronwall.convolve.s",
    "harness.run_ensemble.s", "harness.run_ensemble.self_s",
    "reporting.write_csv.calls", "reporting.write_csv.s",
    "reporting.write_csv.bytes", "cli.main.s",
)


def layer_figures(snap: dict) -> dict:
    def get(key):
        return snap.get(key, 0)

    derived = {
        "noise.us_per_path": 1e6 * get("noise.sample_prm.s")
        / max(get("noise.sample_prm.calls"), 1),
        "kernels.evals": get("kernels.evaluate.evals"),
        "kernels.ns_per_eval": 1e9 * get("kernels.evaluate.s")
        / max(get("kernels.evaluate.evals"), 1),
    }
    return {name: derived.get(name, get(name)) for name in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import levyfield
    except ImportError as exc:
        print(f"cannot import levyfield from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    if Path(levyfield.__file__).resolve().parent != ROOT / "src" / "levyfield":
        print(f"levyfield imported from {levyfield.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 1
    import numpy
    import scipy

    import selftest
    import tracing
    import workloads

    print(f"levyfield benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={blas_threads()} levyfield={levyfield.__version__}")

    checks = workloads.Checks()
    outroot = ROOT / ".bench_out"
    outroot.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outroot))
    try:
        setup = [] if args.trace else [setup_seconds(args.workload)
                                       for _ in range(SETUP_TRIALS)]
        wl = workloads.WORKLOADS[args.workload](args.seed, out, checks)
        if args.trace:
            kind = "per_layer"
            metrics, rounds = traced_run(wl, args.seed, tracing, workloads)
        else:
            kind = "end_to_end"
            rounds, closing = timed_run(wl, args.seconds)
            metrics = end_to_end(rounds, closing, setup)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            outroot.rmdir()
        except OSError:
            pass
    if args.trace:
        # after the run; the oracles' own check, too slow for every run
        for failure in selftest.selftest():
            checks.expect(False, failure)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    ops = [op for r in rounds for op in r]
    failed = [f"{op.kernel} {op.label}" for op in ops if op.failed]
    print(f"rounds: {len(rounds)}; operations attempted {len(ops)}, failed "
          f"{len(failed)}" + (f" ({', '.join(failed)})" if failed else ""))
    refs = [1e3 * op.reference for op in ops]
    walls = ", ".join(" / ".join(
        f"{sum(op.seconds for op in r if op.kernel == kind):.3f}"
        for kind in ("wave", "heat")) for r in rounds)
    print(f"reference task (speed.py): median {statistics.median(refs):.2f} "
          f"ms, range {min(refs):.2f} .. {max(refs):.2f} ms over {len(refs)} "
          f"samples; per round wave, heat wall seconds {walls}")
    print(f"oracle checks: {checks.count - len(checks.failures)} passed, "
          f"{len(checks.failures)} failed")
    for line in checks.failures:
        print(f"  FAILED {line}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checks.correct, "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


def timed_run(wl, seconds: float):
    """Whole rounds while the next one, as long as the last, still fits.
    Returns the rounds and the reference task time after each."""
    rounds, closing = [], []
    start = last = time.perf_counter()
    while True:
        rounds.append(wl.round(len(rounds)))
        closing.append(speed.reference_seconds())
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            break
        last = now
    wl.final_checks()
    return rounds, closing


def traced_run(wl, seed: int, tracing, workloads):
    # the first round pays for lazy imports and cold caches; the traced round
    # and the plain round it is compared with both come after it
    warm = wl.round(0)
    with tracing.Tracer() as tracer:
        traced = wl.round(0)
    plain = wl.round(0)
    for line in tracer.edge_lines():
        print(line)
    metrics = layer_figures(tracer.snapshot())
    metrics.update(op_figures(plain))
    metrics["trace.overhead_s"] = (sum(op.seconds for op in traced)
                                   - sum(op.seconds for op in plain))
    with tracing.Tracer() as tracer:
        metrics.update(workloads.size_sweep(tracer, seed))
    wl.final_checks()
    return metrics, [warm, traced, plain]


if __name__ == "__main__":
    sys.exit(main())
