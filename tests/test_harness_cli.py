"""Run configuration, ensemble execution, and the command-line interface."""

import argparse
import csv
import dataclasses
import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyfield as lf
import levyfield.cli as cli
from levyfield import ConfigError, EnsembleError

from conftest import child_env


# ------------------------------------------------------------- config file

def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nT = 0.5\nmass=2.0  # inline\n\nkernel = heat\n")
    assert lf.parse_config_file(p) == {"T": "0.5", "mass": "2.0",
                                       "kernel": "heat"}


def test_parse_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("T = 0.5\nbogus = 1\n")
    with pytest.raises(ConfigError, match="2"):
        lf.parse_config_file(p)


def test_parse_config_file_rejects_malformed_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        lf.parse_config_file(p)


def test_build_config_precedence():
    cfg = lf.build_config({"T": "0.5", "mass": "2.0"},
                          {"mass": 3.0, "seed": 7})
    assert cfg.T == 0.5 and cfg.mass == 3.0 and cfg.seed == 7
    assert cfg.kernel == "wave"  # untouched default
    with pytest.raises(ConfigError):
        lf.build_config(None, {"bogus": 1})
    with pytest.raises(ConfigError):
        lf.build_config({"T": "abc"}, None)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        lf.RunConfig(kernel="laplace")
    with pytest.raises(ConfigError):
        lf.RunConfig(n_samples=0)
    with pytest.raises(ConfigError):
        lf.RunConfig(T=-1.0)


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed"):
        lf.RunConfig(seed=-1)
    assert cli.main(["verify", "isometry", "--seed", "-1",
                     "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: seed must be non-negative, got -1\n")
    assert not list(tmp_path.iterdir())


def test_build_measure_and_problem():
    cfg = lf.RunConfig(noise="two_point", jump=0.5, mass=2.0, kernel="heat",
                       T=0.5, R=1.5)
    m = lf.build_measure(cfg)
    assert lf.moments(m) == (0.5, 0.0, 2.0)
    prob = lf.build_problem(cfg)
    assert prob.kernel.kind == "heat"
    assert prob.window == lf.SpaceTimeWindow(0.5, 1.5)
    gauss = lf.build_measure(lf.RunConfig(noise="gaussian", mass=3.0))
    assert gauss.kind == "gaussian"


def test_noise_kinds_are_two_point_and_gaussian(tmp_path, capsys):
    # the default is two-point noise of jump 1 at mass 5, and --jump sets
    # its jump; "rademacher", a kind that ignored --jump, is refused
    assert lf.moments(lf.build_measure(lf.RunConfig())) == (5.0, 0.0, 5.0)
    assert lf.moments(lf.build_measure(lf.RunConfig(jump=0.5))) \
        == (1.25, 0.0, 5.0)
    with pytest.raises(ConfigError, match="noise kind"):
        lf.RunConfig(noise="rademacher")
    assert cli.main(["sample", "--noise", "rademacher",
                     "--outdir", str(tmp_path)]) == 1
    assert "invalid choice: 'rademacher'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------- ensembles

def test_run_config_has_no_workers(tmp_path):
    # ensembles run on batches in one process; the pool and its knob are gone
    with pytest.raises(ConfigError, match="workers"):
        lf.RunConfig(workers=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\n")
    with pytest.raises(ConfigError, match="workers"):
        lf.parse_config_file(cfg)


MOMENT_POINTS = [(1.0, 0.0), (0.5, 0.0), (1.0, 1.0)]


def _direct_squares(problem, measure, seed, i):
    path = lf.solve_forward(lf.sample_prm(measure, problem.window, (seed, i)),
                            problem, with_grid=False)
    return np.array([lf.evaluate_solution(path, t, x) ** 2
                     for t, x in MOMENT_POINTS])


def test_solution_squares_single_matches_direct_call(wave_problem,
                                                     busy_noise):
    vals = lf.solution_squares(wave_problem, busy_noise, MOMENT_POINTS, 1, 5)
    assert vals.shape == (1, len(MOMENT_POINTS))
    want = _direct_squares(wave_problem, busy_noise, 5, 0)
    assert np.allclose(vals[0], want, rtol=1e-13, atol=1e-13)


def test_solution_squares_reproducible(heat_problem, busy_noise):
    a = lf.solution_squares(heat_problem, busy_noise, MOMENT_POINTS, 24, 2)
    b = lf.solution_squares(heat_problem, busy_noise, MOMENT_POINTS, 24, 2)
    assert np.array_equal(a, b)
    longer = lf.solution_squares(heat_problem, busy_noise, MOMENT_POINTS, 30,
                                 2)
    assert np.array_equal(longer[:24], a)


def test_solution_squares_failure_names_realization(window, busy_noise):
    # sigma turns non-finite above a threshold: the first realization whose
    # forward solve reaches it fails, with its index and seed
    sigma = lf.custom_map(lambda u: np.where(np.abs(u) > 1.8, np.nan, u),
                          lipschitz=1.0, name="nan-above")
    problem = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=sigma,
                             ic_kind="cosine", window=window)

    def fails(i):
        try:
            return not np.all(np.isfinite(
                _direct_squares(problem, busy_noise, 9, i)))
        except lf.MissingFieldError:  # non-finite atom values
            return True

    first = next(i for i in range(200) if fails(i))
    assert first > 0
    with pytest.raises(EnsembleError) as err:
        lf.solution_squares(problem, busy_noise, MOMENT_POINTS, 200, 9)
    assert err.value.index == first
    assert err.value.seed == (9, first)


def test_ito_integrals_zero_mean(window, unit_noise):
    batch = lf.sample_batch(unit_noise, window, 31, 0, 2000)
    vals = lf.ito_integrals(batch, cli.H_SMOOTH, unit_noise)
    s = lf.summarize("zero-mean", vals, target=0.0)
    assert s.passed


def test_summarize_reduction():
    s = lf.summarize("demo", [1.0, 3.0], target=2.0)
    assert s.estimate == 2.0 and s.n == 2
    assert s.stderr == 1.0 and s.studentized == 0.0 and s.passed
    t = lf.summarize("off", [1.0, 1.0], target=2.0)
    assert t.studentized == math.inf and not t.passed
    u = lf.summarize("plain", [1.0, 2.0])
    assert u.target is None and u.studentized is None and u.passed is None
    # no spread is no evidence: equal to the target, still not a pass
    for values in ([0.0, 0.0, 0.0], [2.0]):
        flat = lf.summarize("flat", values, target=values[0])
        assert flat.stderr == 0.0 and flat.studentized == 0.0
        assert flat.passed is False


# --------------------------------------------------------------------- cli

def test_cli_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_check_is_usage_error(capsys):
    assert cli.main(["verify", "bogus"]) == 1


def test_gate_thresholds_are_not_configurable(tmp_path, capsys):
    # the thresholds are constants of the checks: no flag, no config key
    assert cli.main(["verify", "chain-rule", "--tol-exact", "1",
                     "--outdir", str(tmp_path)]) == 1
    assert "--tol-exact" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("slack_sigmas = 3\n")
    with pytest.raises(ConfigError, match="slack_sigmas"):
        lf.parse_config_file(cfg)


def test_cli_failed_realization_is_error(tmp_path, capsys):
    # the forward solve of `moments` needs m1 = 0: an m1 != 0 measure is a
    # configuration error, reported before any realization is drawn
    assert cli.main(["moments", "--noise", "gaussian", "--noise-mean", "0.5",
                     "--n", "5", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: moments needs a centred jump measure, "
                          "but m1 = 2.5; use `levyfield picard`")
    assert not (tmp_path / "second_moments.csv").exists()


def test_cli_solve_refuses_compensated_measure(tmp_path, capsys,
                                               monkeypatch):
    # the forward solve needs m1 = 0: refused as `moments` is, before the
    # path is drawn, naming the command that takes m1 != 0
    def no_draws(*args):
        raise AssertionError("solve drew a realization")

    monkeypatch.setattr(cli, "sample_prm", no_draws)
    assert cli.main(["solve", "--noise", "gaussian", "--noise-mean", "0.5",
                     "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: solve needs a centred jump measure, but "
                            "m1 = 2.5; use `levyfield picard` for m1 != 0\n")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def _assert_refuses_compensated(check, tmp_path, capsys, monkeypatch):
    # a configuration error like `moments`, raised before any path is drawn
    def no_draws(*args):
        raise AssertionError(f"{check} drew realizations")

    for module in (cli, lf.solver, lf.malliavin):
        monkeypatch.setattr(module, "sample_batches", no_draws)
    assert cli.main(["verify", check, "--noise", "gaussian",
                     "--noise-mean", "0.5", "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {check} needs a centred jump "
                            "measure, but m1 = 2.5\n")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_cli_cross_solver_refuses_compensated_measure(tmp_path, capsys,
                                                     monkeypatch):
    _assert_refuses_compensated("cross-solver", tmp_path, capsys,
                                monkeypatch)


@pytest.mark.parametrize("check", ["derivative-eq", "picard-derivative",
                                   "existence", "derivative-bound"])
def test_cli_checks_refuse_compensated_measure(tmp_path, capsys,
                                               monkeypatch, check):
    # every other check that solves forward or runs the m1 = 0 Picard
    # iterates at the atoms, with the same message
    _assert_refuses_compensated(check, tmp_path, capsys, monkeypatch)


def test_cli_picard_derivative_needs_an_iteration(tmp_path, capsys):
    assert cli.main(["verify", "picard-derivative", "--n-iter", "0",
                     "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_picard_derivative_refuses_zero_mass(tmp_path, capsys):
    # no path of a zero-mass measure has an atom, so no Du is compared:
    # a configuration error, not a PASS
    assert cli.main(["verify", "picard-derivative", "--kernel", "heat",
                     "--mass", "0", "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: picard derivative recursion needs a "
                            "measure of positive mass: no path has an "
                            "atom\n")
    assert captured.out == ""
    assert not (tmp_path / "picard_derivative.csv").exists()


_ZERO_MASS_ERRORS = {
    "cross-solver": "cross-solver needs",
    "existence": "existence diagnostics need",
    "derivative-bound": "derivative bound needs",
}


@pytest.mark.parametrize("check", list(_ZERO_MASS_ERRORS))
def test_cli_checks_refuse_zero_mass(tmp_path, capsys, check):
    # with no atom both sides of cross-solver are w, and the diagnostics'
    # estimates are all 0: nothing is compared, so no PASS
    assert cli.main(["verify", check, "--mass", "0",
                     "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {_ZERO_MASS_ERRORS[check]} a measure "
                            "of positive mass: no path has an atom\n")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_cli_gronwall_check(tmp_path, capsys):
    assert cli.main(["verify", "gronwall", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gronwall: PASS")
    assert (tmp_path / "gronwall_bound.csv").exists()
    assert (tmp_path / "gronwall_renewal.csv").exists()


def test_cli_sample_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--seed", "11", "--outdir", str(a)]) == 0
    assert cli.main(["sample", "--seed", "11", "--outdir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "configuration.csv").read_bytes() == \
        (b / "configuration.csv").read_bytes()


def test_cli_outdir_from_environment(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(env_dir))
    assert cli.main(["sample", "--seed", "1"]) == 0
    assert (env_dir / "configuration.csv").exists()
    flag_dir = tmp_path / "flag"
    assert cli.main(["sample", "--seed", "1", "--outdir", str(flag_dir)]) == 0
    assert (flag_dir / "configuration.csv").exists()
    capsys.readouterr()


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 0.5\nmass = 2.0\n")
    assert cli.main(["sample", "--config", str(cfg), "--mass", "3.0",
                     "--seed", "4", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "configuration.csv.meta.json").read_text())
    assert meta["window"]["T"] == 0.5      # from the file
    assert meta["measure"]["params"][1] == 3.0  # flag wins over file


def test_cli_solve_and_picard(tmp_path, capsys):
    assert cli.main(["solve", "--seed", "3", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "solution_atoms.csv").exists()
    assert (tmp_path / "solution_grid.csv").exists()
    assert cli.main(["picard", "--seed", "3", "--n-iter", "4",
                     "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "picard_diagnostics.csv").exists()
    capsys.readouterr()


def test_cli_picard_compensated(tmp_path, capsys):
    # m1 != 0: Picard iteration with the compensator on the grid
    assert cli.main(["picard", "--noise", "gaussian", "--noise-mean", "0.5",
                     "--n-iter", "3", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    config = lf.RunConfig(noise="gaussian", noise_mean=0.5, n_iter=3)
    cfg = lf.sample_prm(lf.build_measure(config), lf.build_window(config),
                        config.seed)
    path, _ = lf.picard_solve(cfg, lf.build_problem(config), 3)
    grid = np.loadtxt(tmp_path / "picard_grid.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert grid.shape == (config.n_t * config.n_x, 3)
    assert np.all(np.isfinite(grid))
    assert np.array_equal(grid[:, 2], path.grid_values.ravel())
    diag = np.loadtxt(tmp_path / "picard_diagnostics.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert diag.shape == (3, 2)


def test_cli_moments_batch_size_invariance(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "default", tmp_path / "b7"
    assert cli.main(["moments", "--n", "40", "--outdir", str(a)]) == 0
    monkeypatch.setattr(lf.noise, "BATCH_PATHS", 7)
    assert cli.main(["moments", "--n", "40", "--outdir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "second_moments.csv").read_bytes() == \
        (b / "second_moments.csv").read_bytes()


def test_cli_isometry_check(tmp_path, capsys):
    assert cli.main(["verify", "isometry", "--n", "500",
                     "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("isometry: PASS")
    assert (tmp_path / "isometry.csv").exists()


@pytest.mark.parametrize("check, extra", [("isometry", ["--n", "100"]),
                                          ("duality", [])])
def test_cli_monte_carlo_check_without_atoms_fails(tmp_path, capsys, check,
                                                   extra):
    # with no noise every realization gives 0 against a target of 0: a
    # zero-spread summary, which must not pass
    assert cli.main(["verify", check, "--mass", "0", *extra,
                     "--outdir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"{check}: FAIL (estimate 0 vs 0, z=0.000, se=0)")


def test_cli_cross_solver_check(tmp_path, capsys):
    assert cli.main(["verify", "cross-solver", "--n-diagnostic", "5",
                     "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    header = (tmp_path / "cross_solver.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "realization"


@pytest.mark.parametrize("kernel, code, failed", [
    ("wave", 0, ""),
    ("heat", 2, "; failed: picard-derivative, cross-solver")])
def test_cli_verify_all(tmp_path, capsys, kernel, code, failed):
    # derivative-bound refuses fewer than 100 realizations
    assert "all" not in cli.CHECKS
    assert not set(cli.CHECKS) & set(cli.DIAGNOSTIC_CHECKS)
    assert cli.main(["verify", "all", "--kernel", kernel, "--n", "500",
                     "--n-diagnostic", "100", "--outdir", str(tmp_path)]) \
        == code
    lines = capsys.readouterr().out.splitlines()
    checks = [*cli.CHECKS, *cli.DIAGNOSTIC_CHECKS]
    assert len(checks) == 11
    assert [line.split(":")[0] for line in lines] == [*checks, "all"]
    n_passed = len(checks) - failed.count(",") - bool(failed)
    assert lines[-1] == f"all: {n_passed} of 11 checks passed{failed}"
    for name in ("isometry.csv", "chain_rule.csv", "h2_heat.csv",
                 "gronwall_bound.csv", "cross_solver.csv", "existence.csv",
                 "derivative_bound.csv"):
        assert (tmp_path / name).exists(), name


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_cli_verify_all_goes_on_past_a_refused_check(tmp_path, capsys,
                                                     kernel):
    # derivative-bound refuses 10 realizations: a failed line, not exit 1
    assert cli.main(["verify", "all", "--kernel", kernel, "--n", "500",
                     "--n-diagnostic", "10", "--outdir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    checks = [*cli.CHECKS, *cli.DIAGNOSTIC_CHECKS]
    assert len(lines) == 12
    assert [line.split(":")[0] for line in lines] == [*checks, "all"]
    assert lines[checks.index("derivative-bound")] == (
        "derivative-bound: REFUSED (derivative bound needs at least 100 "
        "realizations)")
    assert lines[-1].startswith("all: ")
    assert "derivative-bound" in lines[-1].split("; failed: ")[1].split(", ")
    assert "error" not in captured.err
    assert (tmp_path / "existence.csv").exists()
    assert not (tmp_path / "derivative_bound.csv").exists()


def test_cli_derivative_eq_lipschitz_sigma(tmp_path, capsys):
    # the derivative equation is gated for non-affine sigma too
    for sigma in ("sin", "abs"):
        for kernel in ("wave", "heat"):
            code = cli.main(["verify", "derivative-eq", "--sigma", sigma,
                             "--kernel", kernel, "--n-diagnostic", "5",
                             "--outdir", str(tmp_path / sigma / kernel)])
            out = capsys.readouterr().out
            assert code == 0, out
            assert out.startswith("derivative-eq: PASS")


def _verify_actions(parser):
    """The argument actions of the `verify` subcommand."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["verify"]._actions


def _verify_options(parser):
    """dest -> option action of the `verify` subcommand."""
    return {a.dest: a for a in _verify_actions(parser) if a.option_strings}


def test_every_run_config_field_has_a_cli_flag(monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    parser = cli._build_parser()
    options = _verify_options(parser)
    default = lf.RunConfig()
    for f in dataclasses.fields(lf.RunConfig):
        assert f.name in options, f"RunConfig.{f.name} has no CLI flag"
        action, value = options[f.name], getattr(default, f.name)
        if action.choices:
            new = next(c for c in action.choices if c != value)
        elif isinstance(value, str):
            new = value + "/elsewhere"
        else:
            new = value + 1
        args = parser.parse_args(["verify", "h2", action.option_strings[0],
                                  str(new)])
        assert getattr(cli._load_config(args), f.name) == new, f.name


def test_readme_check_table_is_the_verify_checks():
    # the table of README's "What gets verified" names each `verify` check
    # once, and nothing else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## What gets verified\n", 1)[1].split("\n## ")[0]
    names = [line.split("|")[1].strip() for line in section.splitlines()
             if line.startswith("| ")][1:]           # the header goes
    check = next(a for a in _verify_actions(cli._build_parser())
                 if a.dest == "check")
    assert sorted(names) == sorted(set(check.choices) - {"all"})


_CLI_ARGS = ["verify", "exp-derivative", "--n-diagnostic", "20"]


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "levyfield", *_CLI_ARGS,
         "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "exp-derivative: PASS" in proc.stdout


def _check_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("check", ["existence", "derivative-bound"])
def test_cli_diagnostic_check(tmp_path, capsys, check):
    assert cli.main(["verify", check, "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(f"{check}: PASS")
    path = tmp_path / (check.replace("-", "_") + ".csv")
    header = path.read_text().splitlines()[0]
    assert header == ",".join(lf.CheckRow.HEADER)
    gated = [row["pass"] for row in _check_rows(path) if row["pass"]]
    assert gated and set(gated) == {"true"}


@pytest.mark.parametrize("args, message", [
    (["derivative-bound", "--n-diagnostic", "50"],
     "derivative bound needs at least 100 realizations"),
    (["derivative-bound", "--n-iter", "0"],
     "derivative bound needs n_iter >= 2"),
    (["existence", "--n-iter", "1"],
     "need at least two iterates to difference"),
], ids=["derivative-bound-n-diagnostic-50", "derivative-bound-n-iter-0",
        "existence-n-iter-1"])
def test_cli_diagnostic_usage_errors(tmp_path, capsys, args, message):
    # bad sizes: a one-line usage error, no traceback, no CSV
    assert cli.main(["verify", *args, "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def _column(rows, key):
    return np.array([float(row[key] or "nan") for row in rows])


def _diagnostic_report(check, config):
    problem, measure = lf.build_problem(config), lf.build_measure(config)
    if check == "existence":
        return lf.existence_diagnostics(problem, measure, config.n_diagnostic,
                                        config.n_iter, config.seed)
    T, R = config.T, config.R
    return lf.derivative_bound_estimate(
        problem, measure, config.n_diagnostic, n_iter=config.n_iter,
        eval_points=[(T / 2, 0.0), (T, 0.0), (T, R / 2)],
        master_seed=config.seed)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
@pytest.mark.parametrize("check", ["existence", "derivative-bound"])
def test_cli_diagnostic_rows_are_the_verdict(tmp_path, capsys, check, kernel,
                                             seed):
    # exit 2 exactly when a row reads false, the library's verdict at the
    # same settings, and the report's numbers in the rows to the last bit
    code = cli.main(["verify", check, "--kernel", kernel, "--seed", str(seed),
                     "--outdir", str(tmp_path)])
    capsys.readouterr()
    rows = _check_rows(tmp_path / (check.replace("-", "_") + ".csv"))
    assert code == (2 if any(row["pass"] == "false" for row in rows) else 0)
    report = _diagnostic_report(check, lf.RunConfig(kernel=kernel, seed=seed))
    assert (code == 0) == report.passed
    passes = [row["pass"] for row in rows]
    if check == "existence":
        n_iter, n_t = report.h_values.shape
        m = n_iter * n_t
        assert np.array_equal(_column(rows[:m], "lhs"),
                              report.h_values.ravel())
        assert np.array_equal(_column(rows[:m], "rhs"), report.bounds.ravel(),
                              equal_nan=True)
        assert passes[:n_t] == [""] * n_t     # H_1 has no bound
        assert [p == "true" for p in passes[n_t:m]] == \
            report.bound_pass[1:].ravel().tolist()
        assert np.array_equal(_column(rows[m:-2], "lhs"), report.sqrt_ratios)
        assert passes[m:-5] == [""] * (n_iter - 4)   # three gated ratios
        assert report.decay_ok == ("false" not in passes[m:-2])
        assert [row["params"] for row in rows[-2:]] == [
            f"K-hat step n={n}" for n in (n_iter - 1, n_iter)]
        assert report.bounded_ok == ("false" not in passes[-2:])
        assert "" not in passes[-5:]
    else:
        n_iter, n_pts = report.estimates.shape
        m = (n_iter - 1) * n_pts
        assert np.array_equal(_column(rows[:m], "lhs"),
                              report.estimates[1:].T.ravel())
        assert len(rows) == m + 3 * n_pts     # the last three steps
        assert report.recursion_ok == ("false" not in passes[:m])
        assert report.stable_ok == ("false" not in passes[m:])
        assert "" not in passes


@pytest.mark.skipif(shutil.which("levyfield") is None,
                    reason="levyfield console script is not installed")
def test_cli_console_script_subprocess(tmp_path):
    proc = subprocess.run(
        ["levyfield", *_CLI_ARGS, "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "exp-derivative: PASS" in proc.stdout


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_console_script_entry_point_wiring():
    scripts = _pyproject()["scripts"]
    assert scripts["levyfield"] == "levyfield.cli:main"
    module, _, attr = scripts["levyfield"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_runtime_dependencies_are_numpy_only():
    # scipy only checks, as the tests' independent side
    project = _pyproject()
    names = [re.split(r"[<>=!~ ;\[]", dep, maxsplit=1)[0]
             for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in
               project["optional-dependencies"]["test"])


# the setup calls of perfbench/run.py's two workloads, then the checks whose
# targets were once adaptive quadrature
_NO_SCIPY_CHILD = """
import math, sys
import levyfield as lf
from levyfield import cli
from levyfield.harness import (RunConfig, build_measure, build_problem,
                               build_window)
from levyfield.integrals import box_indicator, inner_product, window_sq_integral
for kind in ("wave", "heat"):
    build_problem(RunConfig(kernel=kind))
build_measure(RunConfig())
window = build_window(RunConfig())
window_sq_integral(box_indicator(-1.0, 1.0), window)
inner_product(cli.H_SMOOTH, cli.G_SMOOTH, window)
window = lf.SpaceTimeWindow(1.0, 2.0)
lf.two_point_measure(math.sqrt(5.0 / 1000.0), 1000.0)
lf.gaussian_measure(5.0, 0.5, 1.0)
for kernel in (lf.wave_kernel(), lf.heat_kernel()):
    lf.ProblemSpec(kernel, lf.affine_map(0.5, 1.0), "cosine", window)
    assert lf.check_h2(kernel, 1.0, 0.1).passed
for check in ("isometry", "duality", "h2"):
    assert cli.main(["verify", check, "--n", "500",
                     "--outdir", sys.argv[1]]) == 0, check
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runtime_never_imports_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.glob("*.csv")} >= {
        "isometry.csv", "duality.csv", "h2_wave.csv", "h2_heat.csv"}
