"""Command-line verification surface.

Subcommands: sample, solve, picard, moments, verify <check>.  The checks
are the pathwise identities (chain-rule, exp-derivative, derivative-eq,
picard-derivative, cross-solver), the Monte Carlo gates (isometry,
duality), the deterministic certificates (gronwall, h2) and the two
ensemble diagnostics of the paper's main results (existence,
derivative-bound); `verify all` runs every check in turn.  Exit codes:
0 = success / check passed, 2 = check ran and failed, 1 = usage or
configuration error.  All outputs are CSV files under the output directory
(flag --outdir, else env LEVYFIELD_OUTDIR, else config file, else cwd).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .gronwall import (ConvolutionKernel, equality_sequence,
                       renewal_probabilities, summability_check, verify_bound)
from .harness import (ConfigError, EnsembleError, RunConfig, build_config,
                      build_measure, build_problem, build_window,
                      parse_config_file, solution_squares)
from .integrals import Integrand, box_indicator, isometry_test
from .kernels import check_h2, heat_kernel, wave_kernel
from .malliavin import (DerivativePoint, MalliavinError, chain_rule_rows,
                        derivative_bound_estimate, derivative_equation_rows,
                        duality_test, exp_derivative_rows,
                        picard_derivative_rows)
from .noise import (NoiseError, derive_rng, sample_batches, sample_prm,
                    save_configuration)
from .reporting import summarize, write_check_rows, write_csv, write_summaries
from .solver import (SolverError, cross_solver_gaps, existence_diagnostics,
                     picard_solve, solve_forward)

# CHECKS is also the check list of the benchmark's `ensemble` round
# (perfbench/workloads.py runs each of them), until the benchmark pins its
# own list; so the ensemble diagnostics stay in a tuple of their own, and
# `verify all` runs both
CHECKS = ("isometry", "chain-rule", "exp-derivative", "duality",
          "derivative-eq", "picard-derivative", "gronwall", "h2",
          "cross-solver")
DIAGNOSTIC_CHECKS = ("existence", "derivative-bound")

OUTDIR_ENV = "LEVYFIELD_OUTDIR"

# Gate thresholds, fixed: the statistical gates (isometry, duality) pass
# within SLACK_SIGMAS standard errors, and the identities below hold exactly
# in the finite-atom setting, so their thresholds bound rounding and grid
# quadrature error only.

# chain rule, exponential formula: the add-one-atom difference obeys them
# exactly and both sides are O(1) sums of a few dozen terms, so only rounding
# (about 1e-16 per operation) remains; picard_derivative_rows gates its
# recursion at the same 1e-12, scaled by 1 + max|u_n|
TOL_EXACT = 1e-12
# derivative equation: the left side differences two forward solves whose
# rounding accumulates along the causal chain of atoms, scaled by 1 + |lhs|
TOL_IDENTITY = 1e-10
# forward vs Picard(>= 10): equal on the atoms once the iteration count
# passes the longest interaction chain, leaving rounding of kernel sums; a
# longer chain leaves a Picard tail, which this gate reports
TOL_CROSS = 1e-8
# renewal probabilities vs 1/n!: trapezoid convolution on a 4096-interval
# grid is accurate to a few 1e-6, and an O(grid step) = 2.4e-4 error fails
TOL_GRONWALL = 1e-4


def _h_smooth(t, x):
    return np.cos(x) * np.exp(-t)


def _g_smooth(t, x):
    return np.sin(x + t)


def _h_positive(t, x):
    # bounded away from 0 so exp(h z) - 1 never cancels catastrophically
    return 0.5 + 0.3 * np.cos(x) * np.exp(-t)


H_SMOOTH = Integrand(_h_smooth, "cos(x)exp(-t)")
G_SMOOTH = Integrand(_g_smooth, "sin(x+t)")
H_POSITIVE = Integrand(_h_positive, "0.5+0.3cos(x)exp(-t)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyfield",
        description="simulate and verify jump-noise heat/wave equations")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    flag = common.add_argument
    flag("--kernel", choices=("wave", "heat"), dest="kernel")
    flag("--sigma", dest="sigma",
         choices=("affine", "constant", "abs", "sin"))
    flag("--sigma-a", type=float, dest="sigma_a")
    flag("--sigma-b", type=float, dest="sigma_b")
    flag("--ic", choices=("constant", "cosine", "wave-pair"), dest="ic")
    flag("--ic-value", type=float, dest="ic_value")
    flag("--T", type=float, dest="T")
    flag("--R", type=float, dest="R")
    flag("--noise", choices=("rademacher", "two_point", "gaussian"),
         dest="noise")
    flag("--jump", type=float, dest="jump")
    flag("--mass", type=float, dest="mass")
    flag("--noise-mean", type=float, dest="noise_mean")
    flag("--noise-std", type=float, dest="noise_std")
    flag("--grid-t", type=int, dest="n_t")
    flag("--grid-x", type=int, dest="n_x")
    flag("--n", type=int, dest="n_samples")
    flag("--n-diagnostic", type=int, dest="n_diagnostic")
    flag("--n-iter", type=int, dest="n_iter")
    flag("--seed", type=int, dest="seed")
    flag("--outdir", dest="outdir")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sample", parents=[common],
                   help="draw one noise configuration and write it as CSV")
    sub.add_parser("solve", parents=[common],
                   help="exact forward solve of one realization")
    sub.add_parser("picard", parents=[common],
                   help="Picard iteration solve with sup-difference log")
    sub.add_parser("moments", parents=[common],
                   help="ensemble second moments of the solution")
    ver = sub.add_parser("verify", parents=[common],
                         help="run one verification check, or all")
    ver.add_argument("check", choices=CHECKS + DIAGNOSTIC_CHECKS + ("all",))
    return parser


def _load_config(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {}
    if os.environ.get(OUTDIR_ENV):
        overrides["outdir"] = os.environ[OUTDIR_ENV]
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return build_config(file_values, overrides)


def _outpath(config: RunConfig, name: str) -> Path:
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _report(check: str, ok: bool, detail: str, path) -> int:
    print(f"{check}: {'PASS' if ok else 'FAIL'} ({detail}) -> {path}")
    return 0 if ok else 2


def _cmd_sample(config: RunConfig) -> int:
    cfg = sample_prm(build_measure(config), build_window(config), config.seed)
    out = _outpath(config, "configuration.csv")
    sidecar = save_configuration(cfg, out)
    print(f"wrote {cfg.n_atoms} atoms -> {out} (+ {sidecar.name})")
    return 0


def _cmd_solve(config: RunConfig) -> int:
    measure = _centred_measure(config, "solve",
                               "; use `levyfield picard` for m1 != 0")
    cfg = sample_prm(measure, build_window(config), config.seed)
    path = solve_forward(cfg, build_problem(config))
    atoms = _outpath(config, "solution_atoms.csv")
    grid = _outpath(config, "solution_grid.csv")
    path.atoms_csv(atoms)
    path.grid_csv(grid)
    print(f"forward solve ({cfg.n_atoms} atoms) -> {atoms}, {grid}")
    return 0


def _cmd_picard(config: RunConfig) -> int:
    measure = build_measure(config)
    cfg = sample_prm(measure, build_window(config), config.seed)
    path, diag = picard_solve(cfg, build_problem(config), config.n_iter)
    atoms = _outpath(config, "picard_atoms.csv")
    grid = _outpath(config, "picard_grid.csv")
    diag_path = _outpath(config, "picard_diagnostics.csv")
    path.atoms_csv(atoms)
    path.grid_csv(grid)
    diag.to_csv(diag_path)
    print(f"picard({config.n_iter}) -> {atoms}, {grid}, {diag_path}")
    return 0


def _centred_measure(config: RunConfig, command: str, hint: str = ""):
    """The jump measure of a command that needs m1 = 0 (the forward solve
    and the Picard iterates at the atoms are exact for m1 = 0 only),
    refused with a ConfigError before anything is drawn otherwise."""
    measure = build_measure(config)
    if measure.first_moment != 0.0:
        raise ConfigError(f"{command} needs a centred jump measure, but m1 = "
                          f"{measure.first_moment:g}{hint}")
    return measure


def _cmd_moments(config: RunConfig) -> int:
    measure = _centred_measure(config, "moments",
                               "; use `levyfield picard` for m1 != 0")
    problem = build_problem(config)
    T, R = config.T, config.R
    points = [(T, 0.0), (T / 2, 0.0), (T, R / 2), (T / 2, -R / 2),
              (3 * T / 4, R / 4)]
    values = solution_squares(problem, measure, points, config.n_samples,
                              config.seed)
    summaries = [summarize(f"E|u({t:g},{x:g})|^2", values[:, j])
                 for j, (t, x) in enumerate(points)]
    out = _outpath(config, "second_moments.csv")
    write_summaries(out, summaries)
    print(f"second moments over {config.n_samples} solves -> {out}")
    return 0


def _draw_point(config: RunConfig, index: int) -> DerivativePoint:
    rng = derive_rng(config.seed, 100_000 + index)
    r = float(rng.uniform(0.0, config.T))
    xi = float(rng.uniform(-config.R, config.R))
    return DerivativePoint(r, xi, 1.0 if index % 2 == 0 else -1.0)


def _check_summary(config: RunConfig, check: str, summary) -> int:
    """Write one Monte Carlo summary and report its SLACK_SIGMAS verdict."""
    out = _outpath(config, f"{check}.csv")
    write_summaries(out, [summary])
    return _report(check, summary.passed,
                   f"estimate {summary.estimate:.6g} vs {summary.target:.6g},"
                   f" z={summary.studentized:.3f},"
                   f" se={summary.stderr:.3g}", out)


def _check_isometry(config: RunConfig) -> int:
    return _check_summary(config, "isometry", isometry_test(
        build_measure(config), box_indicator(-1.0, 1.0), build_window(config),
        config.n_samples, config.seed))


def _check_duality(config: RunConfig) -> int:
    return _check_summary(config, "duality", duality_test(
        H_SMOOTH, G_SMOOTH, build_measure(config), build_window(config),
        config.n_samples, config.seed))


def _check_pathwise(config: RunConfig, check: str, rows_of,
                    n: int | None = None) -> int:
    """The loop of the pathwise checks, a batch at a time: realization i
    (of n, default n_diagnostic) is the noise stream (seed, i) with the
    derivative point _draw_point(config, i), and rows_of(batch, points)
    returns the CheckRows of the batch's paths in path order and their
    verdict.  The worst residual is taken over gated rows."""
    n = config.n_diagnostic if n is None else n
    rows, ok = [], True
    for batch in sample_batches(build_measure(config), build_window(config),
                                config.seed, n):
        points = [_draw_point(config, batch.start + j)
                  for j in range(batch.n_paths)]
        new_rows, passed = rows_of(batch, points)
        rows.extend(new_rows)
        ok = ok and passed
    out = _outpath(config, check.replace("-", "_") + ".csv")
    write_check_rows(out, rows)
    worst = max(r.residual_or_z for r in rows if r.passed is not None)
    return _report(check, ok, f"{n} realizations, {len(rows)} rows, worst "
                   f"residual {worst:.3g}", out)


def _gated(rows, tol: float, scale=lambda row: 1.0):
    """(rows, all pass), each row passed when residual <= tol * scale(row)."""
    for row in rows:
        row.passed = bool(row.residual_or_z <= tol * scale(row))
    return rows, all(row.passed for row in rows)


def _check_chain_rule(config: RunConfig) -> int:
    measure = build_measure(config)
    maps = (("square", lambda v: v * v), ("exp", np.exp), ("sin", np.sin))
    return _check_pathwise(config, "chain-rule", lambda batch, points: _gated(
        chain_rule_rows(H_SMOOTH, maps, batch, points, measure), TOL_EXACT,
        lambda row: 1.0 + abs(row.lhs) + abs(row.rhs)))


def _check_exp_derivative(config: RunConfig) -> int:
    measure = build_measure(config)
    return _check_pathwise(config, "exp-derivative", lambda batch, points: (
        _gated(exp_derivative_rows(H_POSITIVE, batch, points, measure),
               TOL_EXACT)))


def _check_derivative_eq(config: RunConfig) -> int:
    _centred_measure(config, "derivative-eq")
    problem = build_problem(config)

    def rows_of(batch, points):
        # path i's (t, x) from the stream (seed, 200_000 + i)
        rngs = [derive_rng(config.seed, 200_000 + batch.start + j)
                for j in range(batch.n_paths)]
        t, x = np.array([(rng.uniform(0.0, config.T),
                          rng.uniform(-config.R, config.R)) for rng in rngs]).T
        return _gated(derivative_equation_rows(problem, batch, points, t, x),
                      TOL_IDENTITY, lambda row: 1.0 + abs(row.lhs))

    return _check_pathwise(config, "derivative-eq", rows_of)


def _check_picard_derivative(config: RunConfig) -> int:
    _centred_measure(config, "picard-derivative")
    problem = build_problem(config)
    # the verdict includes the decay gate, which has no row
    return _check_pathwise(config, "picard-derivative", lambda batch, points:
                           picard_derivative_rows(problem, batch, points,
                                                  config.n_iter),
                           n=min(config.n_diagnostic, 25))


def _check_gronwall(config: RunConfig) -> int:
    kernel = ConvolutionKernel(lambda t: 1.0, horizon=1.0, resolution=4096)
    n_max = 10
    a = renewal_probabilities(kernel, n_max)
    rel = max(abs(a[n] * math.factorial(n) - 1.0) for n in range(n_max + 1))
    factorial_ok = rel <= TOL_GRONWALL
    C = 0.5 ** np.arange(n_max + 1)
    f = equality_sequence(kernel, C, n_max)
    bound = verify_bound(f, C, kernel, M=float(np.max(f[0])))
    summ = summability_check(a, p=2.0)
    out_a = _outpath(config, "gronwall_renewal.csv")
    summ.to_csv(out_a)
    out_b = _outpath(config, "gronwall_bound.csv")
    bound.to_csv(out_b)
    ok = factorial_ok and bound.passed and summ.passed
    return _report(
        "gronwall", ok,
        f"max |a_n n! - 1| = {rel:.3g}, bound margin {bound.worst_margin:.3g},"
        f" summability {'ok' if summ.passed else 'fail'}", out_b)


def _check_h2(config: RunConfig) -> int:
    ok = True
    paths = []
    for kernel in (wave_kernel(), heat_kernel()):
        report = check_h2(kernel, horizon=config.T, eps=0.1)
        out = _outpath(config, f"h2_{kernel.kind}.csv")
        report.to_csv(out)
        paths.append(str(out))
        ok = ok and report.passed
    return _report("h2", ok, "wave and heat kernels", ", ".join(paths))


def _check_cross_solver(config: RunConfig) -> int:
    problem = build_problem(config)
    measure = _centred_measure(config, "cross-solver")
    if measure.total_mass == 0.0:
        # both sides would be w: nothing compared
        raise ConfigError("cross-solver needs a measure of positive mass: "
                          "no path has an atom")
    n_iter = max(config.n_iter, 10)
    rows = []
    for batch in sample_batches(measure, build_window(config), config.seed,
                                config.n_diagnostic):
        atom_gaps, grid_gaps = cross_solver_gaps(batch, problem, n_iter)
        for j, gaps in enumerate(zip(atom_gaps.tolist(), grid_gaps.tolist())):
            rows.append([batch.start + j, int(batch.counts[j]), *gaps,
                         max(gaps) <= TOL_CROSS])
    ok = all(row[-1] for row in rows)
    out = _outpath(config, "cross_solver.csv")
    write_csv(out, ["realization", "atoms", "atom_gap", "grid_gap", "pass"],
              rows)
    worst = max(max(r[2], r[3]) for r in rows)
    return _report("cross-solver", ok,
                   f"{len(rows)} realizations x picard({n_iter}), "
                   f"worst gap {worst:.3g}", out)


def _check_diagnostic(config: RunConfig, check: str, report) -> int:
    """Write an ensemble diagnostic's CheckRows, every criterion of its
    verdict a gated row, and report FAIL exactly when a row fails."""
    rows = report.rows
    out = _outpath(config, check.replace("-", "_") + ".csv")
    write_check_rows(out, rows)
    failed = sum(row.passed is False for row in rows)
    return _report(check, not failed, f"{config.n_diagnostic} realizations "
                   f"x {config.n_iter} iterates, {len(rows)} rows, "
                   f"{failed} failed", out)


def _check_existence(config: RunConfig) -> int:
    report = existence_diagnostics(
        build_problem(config), _centred_measure(config, "existence"),
        config.n_diagnostic, config.n_iter, config.seed)
    return _check_diagnostic(config, "existence", report)


def _check_derivative_bound(config: RunConfig) -> int:
    T, R = config.T, config.R
    report = derivative_bound_estimate(
        build_problem(config), _centred_measure(config, "derivative-bound"),
        config.n_diagnostic, n_iter=config.n_iter,
        eval_points=[(T / 2, 0.0), (T, 0.0), (T, R / 2)],
        master_seed=config.seed)
    return _check_diagnostic(config, "derivative-bound", report)


# the errors main reports as a usage or configuration error, exit 1
_USAGE_ERRORS = (ConfigError, EnsembleError, NoiseError, SolverError,
                 MalliavinError, OSError, ValueError)


def _check_all(config: RunConfig) -> int:
    """Every check of CHECKS and DIAGNOSTIC_CHECKS in turn; 0 when all
    pass, else 2.  A check that refuses the configuration (an error main
    maps to exit 1) prints a REFUSED line, counts as failed, and the run
    goes on."""
    checks = CHECKS + DIAGNOSTIC_CHECKS
    failed = []
    for check in checks:
        try:
            code = _CHECK_DISPATCH[check](config)
        except _USAGE_ERRORS as exc:
            print(f"{check}: REFUSED ({exc})")
            code = 1
        if code:
            failed.append(check)
    print(f"all: {len(checks) - len(failed)} of {len(checks)} checks passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 2 if failed else 0


_CHECK_DISPATCH = {
    "isometry": _check_isometry,
    "chain-rule": _check_chain_rule,
    "exp-derivative": _check_exp_derivative,
    "duality": _check_duality,
    "derivative-eq": _check_derivative_eq,
    "picard-derivative": _check_picard_derivative,
    "gronwall": _check_gronwall,
    "h2": _check_h2,
    "cross-solver": _check_cross_solver,
    "existence": _check_existence,
    "derivative-bound": _check_derivative_bound,
    "all": _check_all,
}

_COMMAND_DISPATCH = {
    "sample": _cmd_sample,
    "solve": _cmd_solve,
    "picard": _cmd_picard,
    "moments": _cmd_moments,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; this tool reserves 2 for a
        # failed check, so usage problems map to 1
        return 0 if exc.code == 0 else 1
    try:
        config = _load_config(args)
        if args.command == "verify":
            return _CHECK_DISPATCH[args.check](config)
        return _COMMAND_DISPATCH[args.command](config)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
