"""Add-one-point derivatives: exact identities, duality, bound estimates."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import levyfield as lf
from levyfield import MalliavinError, cli, harness, malliavin, solver

import helpers
import pathwise_reference as ref
from conftest import assert_close, make_empty_config

H_POS = lf.integrand(lambda t, x: 0.5 + 0.3 * np.cos(x) * np.exp(-t),
                     name="hpos")
G_SMOOTH = lf.integrand(lambda t, x: np.sin(x + t), name="gsmooth")


def _config(busy_noise, window, seed=3):
    return lf.sample_prm(busy_noise, window, seed)


# ------------------------------------------------------- basic derivatives

def test_derivative_of_compensated_integral(window, busy_noise):
    cfg = _config(busy_noise, window)
    for r, xi, z in [(0.4, 0.2, 1.0), (0.15, -1.7, -1.0), (0.93, 0.0, 2.5)]:
        pt = lf.DerivativePoint(r, xi, z)
        d = lf.difference_derivative(helpers.integral_functional(H_POS), cfg, pt)
        want = H_POS(r, xi) * z
        assert abs(d - want) <= 1e-12 * max(1.0, abs(want))


def test_derivative_ignores_compensator(window):
    # nonzero-mean measure: the deterministic compensator cancels in the
    # add-one-point difference
    skew = lf.discrete_measure([1.0], [2.0])
    cfg = lf.sample_prm(skew, window, 5)
    pt = lf.DerivativePoint(0.4, 0.2, 1.0)
    F = helpers.integral_functional(H_POS, measure=skew)
    d = lf.difference_derivative(F, cfg, pt)
    want = H_POS(0.4, 0.2)
    assert abs(d - want) <= 1e-12 * want


def test_derivative_of_constant_functional(window, busy_noise):
    cfg = _config(busy_noise, window)
    const = lf.PathFunctional("const", lambda c: 4.25)
    assert lf.difference_derivative(
        const, cfg, lf.DerivativePoint(0.5, 0.0, 1.0)) == 0.0


def test_derivative_point_validation(window, busy_noise):
    cfg = _config(busy_noise, window)
    F = helpers.integral_functional(H_POS)
    for bad in [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, 2.5, 1.0),
                (0.5, 0.0, 0.0), (0.5, math.nan, 1.0)]:
        with pytest.raises(MalliavinError):
            lf.difference_derivative(F, cfg, lf.DerivativePoint(*bad))


@given(a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
def test_derivative_linearity(a, b):
    window = lf.SpaceTimeWindow(1.0, 2.0)
    cfg = lf.sample_prm(lf.two_point_measure(1.0, 5.0), window, 3)
    pt = lf.DerivativePoint(0.4, 0.2, 1.0)
    F = helpers.integral_functional(H_POS)
    G = helpers.integral_functional(G_SMOOTH)
    combo = lf.PathFunctional("combo", lambda c: a * F(c) + b * G(c))
    dc = lf.difference_derivative(combo, cfg, pt)
    da = lf.difference_derivative(F, cfg, pt)
    db = lf.difference_derivative(G, cfg, pt)
    want = a * da + b * db
    assert abs(dc - want) <= 1e-12 * max(1.0, abs(a * da), abs(b * db))


# ------------------------------------------------------------- chain rules

@pytest.mark.parametrize("g,name", [
    (lambda v: v * v, "square"), (np.exp, "exp"), (np.sin, "sin")])
def test_chain_rule_exact(window, busy_noise, g, name):
    # the batch check on one path's row, and its per-path reference
    F = helpers.integral_functional(H_POS)
    for seed in range(10):
        cfg = _config(busy_noise, window, seed)
        pt = lf.DerivativePoint(0.3 + 0.05 * seed, 0.1, 1.0)
        want = ref.chain_rule_residual(g, F, cfg, pt, gname=name)
        [row] = lf.chain_rule_rows(H_POS, [(name, g)], cfg, [pt])
        for r in (row, want):
            scale = max(1.0, abs(r.lhs), abs(r.rhs))
            assert abs(r.residual_or_z) <= 1e-12 * scale
        assert row.params == want.params
        assert abs(row.lhs - want.lhs) <= 1e-13 * (1.0 + abs(want.lhs))


def test_exp_derivative_identity(window, busy_noise):
    worst = 0.0
    for seed in range(20):
        cfg = _config(busy_noise, window, seed)
        pt = lf.DerivativePoint(0.2 + 0.03 * seed, -0.5 + 0.05 * seed, 1.0)
        want = ref.exp_derivative_residual(H_POS, cfg, pt)
        [row] = lf.exp_derivative_rows(H_POS, cfg, [pt])
        worst = max(worst, abs(row.residual_or_z), abs(want.residual_or_z))
        assert abs(row.lhs - want.lhs) <= 1e-13 * (1.0 + abs(want.lhs))
    assert worst <= 1e-12


# ---------------------------------------------------------------- duality

def test_duality_box_example(window, unit_noise):
    box = lf.box_indicator(-1.0, 1.0)
    s = lf.duality_test(box, box, unit_noise, window, 10_000, 17)
    assert_close(s.target, 2.0, rel=1e-9, label="duality target")
    assert abs(s.studentized) <= 3.0


def test_duality_orthogonal_supports(window, unit_noise):
    left = lf.box_indicator(-2.0, -1.0)
    right = lf.box_indicator(1.0, 2.0)
    s = lf.duality_test(left, right, unit_noise, window, 4000, 23)
    assert s.target == 0.0
    assert abs(s.estimate) <= 4.0 * s.stderr


def test_duality_target_scales(window, busy_noise):
    s1 = lf.duality_test(H_POS, G_SMOOTH, busy_noise, window, 50, 0)
    alpha = 3.0
    scaled = lf.integrand(lambda t, x: alpha * G_SMOOTH(t, x), name="ag")
    s2 = lf.duality_test(H_POS, scaled, busy_noise, window, 50, 0)
    assert_close(s2.target, alpha * s1.target, rel=1e-9)


# ------------------------------------------------------------- adaptedness

def test_solution_derivative_vanishes_for_late_points(window, busy_noise,
                                                      wave_problem,
                                                      heat_problem):
    t, x = 0.6, 0.3
    rows = solver.ATOM_BLOCK_ROWS
    # about 5 blocks of atoms: the added atom lands inside a later block
    long = lf.sample_prm(lf.two_point_measure(1.0, 150.0), window, 0)
    assert long.n_atoms > 4 * rows
    cfgs = [_config(busy_noise, window, seed) for seed in range(10)] + [long]
    for problem in (wave_problem, heat_problem):
        F = lf.solution_functional(problem, t, x)
        for cfg in cfgs:
            for r in (t, t + 0.1, 0.99):
                d = lf.difference_derivative(
                    F, cfg, lf.DerivativePoint(r, 0.0, 1.0))
                assert d == 0.0  # bitwise: the atom never enters the past
    inserts = np.searchsorted(long.times, [t, t + 0.1, 0.99])
    assert np.all(inserts > rows) and np.any(inserts % rows)


# ------------------------------------------------------- shared base/plus

def test_shared_sweep_matches_two_solves(window, busy_noise, wave_problem,
                                         heat_problem):
    # solve_forward_pair's one sweep against the reference of two separate
    # solve_forward calls; difference_derivative and the derivative
    # equation both difference the pair
    mass = 4000 / window.volume
    long = lf.sample_prm(lf.two_point_measure(math.sqrt(5.0 / mass), mass),
                         window, (61, 0))
    assert long.n_atoms > 3500
    cases = [(problem, seed, _config(busy_noise, window, seed))
             for problem in (wave_problem, heat_problem)
             for seed in range(10)] + [(heat_problem, 10, long)]
    for problem, seed, cfg in cases:
        rng = lf.derive_rng(seed, 9100)
        pt = lf.DerivativePoint(rng.uniform(0.05, 0.9),
                                rng.uniform(-1.5, 1.5), rng.choice([-1, 1]))
        x = rng.uniform(-1.0, 1.0)
        pair = solver.solve_forward_pair(cfg, problem, pt.time, pt.x,
                                         pt.jump)
        two = (lf.solve_forward(cfg, problem, with_grid=False),
               lf.solve_forward(helpers.add_atom(cfg, pt.time, pt.x,
                                                 pt.jump),
                                problem, with_grid=False))
        d = lf.difference_derivative(lf.solution_functional(problem, 1.0, x),
                                     cfg, pt)
        check = ref.derivative_equation_residual(problem, cfg, pt, 1.0, x)
        assert d == check.lhs
        d_two = lf.evaluate_solution(two[1], 1.0, x) \
            - lf.evaluate_solution(two[0], 1.0, x)
        if problem.kernel.kind == "wave":
            for got, want in zip(pair, two):
                assert np.array_equal(got.atom_values, want.atom_values)
            assert d == d_two
        else:
            u = two[0].atom_values
            scale = 1.0 + float(np.max(np.abs(u), initial=0.0))
            for got, want in zip(pair, two):
                assert np.all(np.abs(got.atom_values - want.atom_values)
                              <= 1e-14 * scale), seed
            assert abs(d - d_two) <= 1e-14 * scale, (seed, d, d_two)


def test_default_pair_evaluates_twice(window, busy_noise):
    F = helpers.integral_functional(H_POS)
    E = ref.exp_integral_functional(G_SMOOTH)
    for seed in range(10):
        cfg = _config(busy_noise, window, seed)
        rng = lf.derive_rng(seed, 9200)
        pt = lf.DerivativePoint(rng.uniform(0.05, 0.95),
                                rng.uniform(-2.0, 2.0), rng.normal())
        plus = helpers.add_atom(cfg, pt.time, pt.x, pt.jump)
        for G in (F, E):
            assert G.pair(cfg, pt) == (G(cfg), G(plus))
            assert lf.difference_derivative(G, cfg, pt) == G(plus) - G(cfg)


# --------------------------------------------------- fixed-point equation

def test_derivative_equation_affine(window, busy_noise, wave_problem):
    for seed in range(20):
        cfg = _config(busy_noise, window, seed)
        rng = lf.derive_rng(seed, 9000)
        pt = lf.DerivativePoint(rng.uniform(0.05, 0.6),
                                rng.uniform(-1.0, 1.0), 1.0)
        t = rng.uniform(pt.time + 0.05, 1.0)
        x = rng.uniform(-1.0, 1.0)
        _assert_equation_closes(wave_problem, cfg, pt, t, x)


def test_derivative_equation_constant_sigma_hand_value(window, busy_noise):
    b = 1.5
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(b),
                          ic_kind="cosine", window=window)
    cfg = _config(busy_noise, window, 2)
    pt = lf.DerivativePoint(0.3, 0.1, -1.0)
    chk = _assert_equation_closes(prob, cfg, pt, 0.9, 0.0)
    [row] = lf.derivative_equation_rows(prob, cfg, [pt], [0.9], [0.0])
    # constant sigma kills the sum term: D u = G(t-r, x-xi) sigma z
    want = lf.wave_kernel().evaluate(0.6, -0.1) * b * (-1.0)
    for lhs, residual in ((chk.lhs, chk.residual),
                          (row.lhs, row.residual_or_z)):
        assert_close(lhs, want, rel=1e-12)
        assert residual <= 1e-12 * (1.0 + abs(lhs))


def test_derivative_equation_trivial_region(window, busy_noise):
    # r >= t: exactly 0, on a one-block path and on one of more than
    # ATOM_BLOCK_ROWS atoms, for both kernels
    dense = lf.two_point_measure(1.0, 200 / window.volume)
    long = lf.sample_prm(dense, window, 2)
    assert long.n_atoms > solver.ATOM_BLOCK_ROWS
    pt = lf.DerivativePoint(0.7, 0.0, 1.0)
    for kernel in ("wave", "heat"):
        prob = _problem(kernel, lf.named_map("affine"), window)
        for cfg in (_config(busy_noise, window, 2), long):
            for t in (0.5, 0.7):
                chk = ref.derivative_equation_residual(prob, cfg, pt, t, 0.0)
                assert chk.trivial and chk.lhs == 0.0 and chk.residual == 0.0
                [row] = lf.derivative_equation_rows(prob, cfg, [pt], [t],
                                                    [0.0])
                assert row.lhs == row.rhs == row.residual_or_z == 0.0


# ------------------------------------------ any Lipschitz nonlinearity
# The add-one-atom difference obeys the exact chain rule, so the derivative
# equation closes to rounding error for every sigma, not only affine ones.

def _problem(kernel, sigma, window, ic_kind="cosine", ic_value=1.0):
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    return lf.ProblemSpec(kernel=k, sigma=sigma, ic_kind=ic_kind,
                          window=window, ic_value=ic_value)


def _assert_equation_closes(prob, cfg, pt, t, x):
    # the batch check on one path's row, and its per-path reference
    chk = ref.derivative_equation_residual(prob, cfg, pt, t, x)
    [row] = lf.derivative_equation_rows(prob, cfg, [pt], [t], [x])
    assert not chk.trivial
    label = f"{prob.kernel.kind}/{prob.sigma.label()}: {chk}, {row}"
    for lhs, residual in ((chk.lhs, chk.residual),
                          (row.lhs, row.residual_or_z)):
        assert residual <= 1e-10 * (1.0 + abs(lhs)), label
    assert abs(row.lhs - chk.lhs) <= 1e-13 * (1.0 + abs(chk.lhs)), label
    return chk


def test_probe_matches_equation_for_affine(window, busy_noise):
    for kernel in ("wave", "heat"):
        prob = _problem(kernel, lf.named_map("affine"), window)
        cfg = _config(busy_noise, window, 4)
        _assert_equation_closes(prob, cfg, lf.DerivativePoint(0.3, 0.1, 1.0),
                                0.9, 0.0)


def test_probe_absolute_value_positive_path(window, busy_noise):
    # |u| stays positive from a large constant start, so the increment acts
    # affinely along the path; with cosine data under busy noise u changes
    # sign and the increment crosses the kink
    gentle = lf.two_point_measure(0.1, 5.0)
    for kernel in ("wave", "heat"):
        positive = _problem(kernel, lf.named_map("abs"), window,
                            ic_kind="constant", ic_value=5.0)
        for seed in range(5):
            cfg = lf.sample_prm(gentle, window, seed)
            _assert_equation_closes(positive, cfg,
                                    lf.DerivativePoint(0.3, 0.1, 0.1), 0.9, 0.0)
        kinked = _problem(kernel, lf.named_map("abs"), window)
        for seed in range(5):
            _assert_equation_closes(kinked, _config(busy_noise, window, seed),
                                    lf.DerivativePoint(0.3, 0.1, 1.0), 0.9, 0.0)


def test_probe_reports_sine_sigma(window, busy_noise):
    for kernel in ("wave", "heat"):
        prob = _problem(kernel, lf.named_map("sin"), window)
        lhs = []
        for seed in range(5):
            cfg = _config(busy_noise, window, seed)
            rng = lf.derive_rng(seed, 9000)
            pt = lf.DerivativePoint(rng.uniform(0.05, 0.6),
                                    rng.uniform(-1.0, 1.0), 1.0)
            lhs.append(_assert_equation_closes(
                prob, cfg, pt, rng.uniform(pt.time + 0.05, 1.0),
                rng.uniform(-1.0, 1.0)).lhs)
        assert any(lhs)   # (t, x) left outside every wave cone proves little


# ----------------------------------------------------- picard derivatives

def _picard_rows(problem, cfg, pt, n_iter=8):
    """picard_derivative_rows on cfg, one path's row, checked against
    the per-path reference: the same row text and pass column, lhs and
    residual within 1e-13 * scale, and the same verdict.  Returns
    (rows, verdict, reference report)."""
    rows, ok = lf.picard_derivative_rows(problem, cfg, [pt], n_iter)
    rep = ref.picard_derivative_report(problem, cfg, pt, n_iter)
    want = rep.rows()
    assert [(r.check, r.params, r.passed) for r in rows] \
        == [(r.check, r.params, r.passed) for r in want]
    for got, row in zip(rows, want):
        assert got.rhs == 0.0
        assert abs(got.lhs - row.lhs) <= 1e-13 * rep.scale, row.params
        assert abs(got.residual_or_z - row.residual_or_z) \
            <= 1e-13 * rep.scale, row.params
    assert ok == rep.passed
    return rows, ok, rep


def test_picard_derivative_rows(window, busy_noise, wave_problem):
    for seed in range(10):
        cfg = _config(busy_noise, window, seed)
        pt = lf.DerivativePoint(0.25, 0.3, 1.0)
        rows, ok, rep = _picard_rows(wave_problem, cfg, pt)
        assert rep.start_zero
        assert rows[0].residual_or_z <= 1e-12 * rep.scale
        assert max(r.residual_or_z for r in rows[1:9]) \
            <= malliavin.RESIDUAL_TOL * rep.scale
        assert ok


def test_picard_derivative_needs_an_iteration(window, busy_noise,
                                              wave_problem):
    batch = _config(busy_noise, window)
    pt = lf.DerivativePoint(0.25, 0.3, 1.0)
    with pytest.raises(MalliavinError, match="n_iter"):
        lf.picard_derivative_rows(wave_problem, batch, [pt], 0)


def test_picard_derivative_needs_mass(window, wave_problem):
    # no path of a zero-mass measure has an atom, so no Du is compared
    batch = make_empty_config(window)
    with pytest.raises(MalliavinError, match="positive mass"):
        lf.picard_derivative_rows(wave_problem, batch,
                                  [lf.DerivativePoint(0.25, 0.3, 1.0)], 8)


def test_picard_derivative_empty_row(window, busy_noise, wave_problem):
    # a path without atoms next to one with: its rows all read 0 and pass,
    # and the other path's rows are its own row's
    cfg = _config(busy_noise, window)
    k, T = cfg.n_atoms, window.T
    assert k > 0
    batch = lf.PointBatch(np.array([np.full(k, T), cfg.times]),
                          np.array([np.zeros(k), cfg.positions]),
                          np.array([np.zeros(k), cfg.jumps]),
                          np.array([0, k]), window, busy_noise, 0, 0)
    pt = lf.DerivativePoint(0.25, 0.3, 1.0)
    rows, ok = lf.picard_derivative_rows(wave_problem, batch, [pt, pt], 8)
    alone, alone_ok, _ = _picard_rows(wave_problem, cfg, pt)
    assert len(rows) == 2 * len(alone) == 34
    for row in rows[:17]:
        assert row.lhs == row.rhs == row.residual_or_z == 0.0
        assert row.passed in (True, None)
    for got, want in zip(rows[17:], alone):
        assert (got.params, got.passed) == (want.params, want.passed)
        assert got.residual_or_z == pytest.approx(want.residual_or_z,
                                                  rel=0, abs=1e-14)
    assert ok == alone_ok


def test_picard_derivative_sine_sigma(window, busy_noise):
    # the recursion and the n = 1 hand formula hold for non-affine sigma;
    # the decay gate is not asserted here
    for kernel in ("wave", "heat"):
        prob = _problem(kernel, lf.named_map("sin"), window)
        for seed in range(10):
            rows, _, rep = _picard_rows(
                prob, _config(busy_noise, window, seed),
                lf.DerivativePoint(0.25, 0.3, 1.0))
            assert rep.start_zero
            assert all(r.passed for r in rows if r.passed is not None)
            assert rows[0].residual_or_z <= 1e-12 * rep.scale


def _cli_batches(config):
    """(batch, derivative points) of `verify picard-derivative`."""
    for batch in lf.sample_batches(harness.build_measure(config),
                                   harness.build_window(config), config.seed,
                                   min(config.n_diagnostic, 25)):
        yield batch, [cli._draw_point(config, batch.start + j)
                      for j in range(batch.n_paths)]


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_picard_derivative_exact_gates_sweep(kernel):
    # every gated row of `verify picard-derivative` at default settings,
    # seeds 0-9, the CLI's paths and derivative points; the tuned decay
    # gate is not asserted
    for seed in range(10):
        config = harness.RunConfig(kernel=kernel, seed=seed)
        problem = harness.build_problem(config)
        for batch, points in _cli_batches(config):
            rows, _ = lf.picard_derivative_rows(problem, batch, points,
                                                config.n_iter)
            assert len(rows) == 17 * batch.n_paths
            bad = [r.params for r in rows if r.passed is False]
            assert bad == [], (seed, bad)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_picard_derivative_matches_per_path_reference(tmp_path, capsys,
                                                      kernel, seed):
    # `verify picard-derivative` runs on batches; each row must be its
    # per-path reference's up to the rounding of the batch sums, with the
    # reference's row text, pass column and verdict (wave seed 3 and every
    # heat seed fail the decay gate)
    config = harness.RunConfig(kernel=kernel, seed=seed)
    problem = harness.build_problem(config)
    want, passed = [], True
    for batch, points in _cli_batches(config):
        for j, point in enumerate(points):
            rep = ref.picard_derivative_report(problem, batch.path(j), point,
                                               config.n_iter)
            want += [(row, rep.scale) for row in rep.rows()]
            passed = passed and rep.passed
    code = cli.main(["verify", "picard-derivative", "--kernel", kernel,
                     "--seed", str(seed), "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == (0 if passed else 2)
    assert passed == (kernel == "wave" and seed != 3)
    with open(tmp_path / "picard_derivative.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(want) == 425
    for row, (reference, scale) in zip(rows, want):
        assert (row["check"], row["params"]) \
            == ("picard-derivative", reference.params)
        assert row["pass"] == {None: "", True: "true",
                               False: "false"}[reference.passed]
        assert abs(float(row["lhs"]) - reference.lhs) <= 1e-13 * scale
        assert abs(float(row["residual_or_z"]) - reference.residual_or_z) \
            <= 1e-13 * scale


def _scales(problem, batch, n_iter):
    """1 + max |u_n| over each path's atoms and n <= n_iter."""
    its = solver.picard_iterates_at_atoms(
        problem, batch.times, batch.positions, batch.jumps, n_iter,
        batch.measure.total_mass * batch.window.volume)
    return 1.0 + np.max([np.max(np.where(batch.mask, np.abs(u), 0.0),
                                axis=-1) for u in its], axis=0)


def test_picard_derivative_after_every_atom_passes():
    # a point after every atom of each one-block heat path: Du is 0 up to
    # the rounding of two block sizes, which the decay gate's floor absorbs
    # wherever the peak of the rounding rows lands
    config = harness.RunConfig(kernel="heat", seed=0)
    problem = harness.build_problem(config)
    for batch in lf.sample_batches(harness.build_measure(config),
                                   harness.build_window(config), 0, 25):
        assert np.all(batch.counts > 0)
        assert batch.times.shape[1] < solver.ATOM_BLOCK_ROWS
        last = batch.times[np.arange(batch.n_paths), batch.counts - 1]
        points = [lf.DerivativePoint(float(r), 0.0, 1.0)
                  for r in 0.5 * (last + config.T)]
        rows, ok = lf.picard_derivative_rows(problem, batch, points, 8)
        assert ok
        cauchy = np.array([r.lhs for r in rows if r.params.startswith(
            "cauchy")]).reshape(batch.n_paths, 8)
        assert np.all(cauchy <= 1e-14 * _scales(problem, batch, 8)[:, None])


def _long_path(window, mass):
    # seed (61, 0): 263 atoms at mass 60 and 1047 at mass 250, each one
    # short of a multiple of 8, so the path's own count plus the added atom
    # would change a count-sized null-coordinate bucket grid
    jump = math.sqrt(5.0 / mass)
    return (lf.sample_prm(lf.two_point_measure(jump, mass), window, (61, 0)),
            lf.DerivativePoint(0.5, 0.0, jump))


def _dense_cauchy(problem, config, point, n_iter):
    """The Cauchy rows max|Du_{m+1} - Du_m| from the dense atoms x atoms
    matrix M: the base and plus iterates each by their own recursion, the
    plus one with the added atom's kick column and its base value at the
    point."""
    kernel, sigma = problem.kernel, problem.sigma
    t, x, z = config.times, config.positions, config.jumps
    r, xi = point.time, point.x
    M = solver.pairwise_interaction_matrix(kernel, t, x, t, x)
    kick = solver.pairwise_interaction_matrix(kernel, t, x, r, xi)[:, 0]
    row = solver.pairwise_interaction_matrix(kernel, r, xi, t, x)[0]
    w = solver.deterministic_part(problem, t, x)
    w_pt = solver.deterministic_part(problem, r, xi)
    base, plus, at_point = [w], [w], w_pt
    for _ in range(n_iter):
        plus.append(w + M @ (sigma(plus[-1]) * z)
                    + kick * (sigma(at_point) * point.jump))
        at_point = w_pt + row @ (sigma(base[-1]) * z)
        base.append(w + M @ (sigma(base[-1]) * z))
    du = np.array(plus) - np.array(base)
    return np.max(np.abs(np.diff(du, axis=0)), axis=1)


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_picard_derivative_long_path(window, kernel, monkeypatch):
    problem = _problem(kernel, lf.affine_map(0.5, 1.0), window)
    cfg, pt = _long_path(window, 250.0)
    n = cfg.n_atoms
    assert 1000 < n < 1100
    shapes = []

    def spy(*args, **kwargs):
        out = pairwise(*args, **kwargs)
        shapes.append(out.shape)
        return out

    pairwise = solver.pairwise_interaction_matrix
    for module in (solver, malliavin):
        monkeypatch.setattr(module, "pairwise_interaction_matrix", spy)
    tracemalloc.start()
    try:
        rows, _ = lf.picard_derivative_rows(problem, cfg, [pt], 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    # no atoms x atoms matrix: kernel blocks of at most ATOM_BLOCK_ROWS rows,
    # the kick column and the point's row
    assert shapes
    assert all(s[-2] <= solver.ATOM_BLOCK_ROWS or s[-1] == 1
               for s in shapes), shapes
    assert peak < 8 * n * n, (peak, n)
    assert all(r.passed for r in rows if r.passed is not None)
    cauchy = np.array([r.lhs for r in rows[9:]])
    tol = 1e-14 * float(_scales(problem, cfg, 8))
    assert np.max(np.abs(cauchy - _dense_cauchy(problem, cfg, pt, 8))) <= tol


@pytest.mark.parametrize("mass", [60.0, 250.0])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_picard_derivative_is_adapted_bit_for_bit(window, kernel, mass,
                                                  monkeypatch):
    # Du_n is exactly 0 at every atom before the added one, for every n:
    # on a batch the rows before the added atom's block see the same
    # kernel blocks in both runs, and a wave path in picard_solve sizes its
    # null-coordinate buckets by the measure, not by its own atom count
    problem = _problem(kernel, lf.affine_map(0.5, 1.0), window)
    cfg, pt = _long_path(window, mass)
    plus_cfg = helpers.add_atom(cfg, pt.time, pt.x, pt.jump)
    early = int(np.searchsorted(cfg.times, pt.time))
    assert cfg.n_atoms % 8 == 7 and early > solver.ATOM_BLOCK_ROWS
    runs = []

    def record(*args):
        runs.append(iterates(*args))
        return runs[-1]

    iterates = solver.picard_iterates_at_atoms
    monkeypatch.setattr(malliavin, "picard_iterates_at_atoms", record)
    rows, _ = lf.picard_derivative_rows(problem, cfg, [pt], 8)
    assert all(r.passed for r in rows if r.passed is not None)
    assert len(runs) == 2
    base, plus = runs
    for b, p in zip(base, plus):
        assert b.shape == (1, cfg.n_atoms) and p.shape == (1, cfg.n_atoms + 1)
        assert np.all(p[0, :early] - b[0, :early] == 0.0)
    for n_iter in (1, 8):
        b = lf.picard_solve(cfg, problem, n_iter, with_grid=False)[0]
        p = lf.picard_solve(plus_cfg, problem, n_iter, with_grid=False)[0]
        assert np.array_equal(p.atom_values[:early], b.atom_values[:early])


def test_picard_derivative_csv(tmp_path, window, busy_noise, wave_problem):
    rows, _ = lf.picard_derivative_rows(
        wave_problem, _config(busy_noise, window, 0),
        [lf.DerivativePoint(0.25, 0.3, 1.0)], 4)
    out = tmp_path / "picard_derivative.csv"
    lf.reporting.write_check_rows(out, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "check,params,lhs,rhs,residual_or_z,pass"
    assert len(lines) == 1 + 9


# ------------------------------------------------------- derivative bound

def test_derivative_bound_zero_sigma(window, busy_noise):
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(0.0),
                          ic_kind="cosine", window=window)
    rep = lf.derivative_bound_estimate(prob, busy_noise, n_realizations=100,
                                       n_points=16, n_iter=4,
                                       eval_points=[(1.0, 0.0)])
    assert np.all(np.asarray(rep.estimates) == 0.0)
    assert rep.passed


def test_derivative_bound_constant_sigma_target(window, busy_noise):
    b = 1.5
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(b),
                          ic_kind="cosine", window=window)
    rep = lf.derivative_bound_estimate(prob, busy_noise, n_realizations=150,
                                       n_points=32, n_iter=4,
                                       eval_points=[(1.0, 0.0)],
                                       master_seed=4)
    # D u = G(t-r, x-xi) b z: squared H-norm = b^2 v nu_t (cone unclipped)
    target = b * b * busy_noise.second_moment \
        * lf.wave_kernel().cumulative_square_integral(1.0)
    est = np.asarray(rep.estimates)[-1, 0]
    se = np.asarray(rep.stderrs)[-1, 0]
    assert abs(est - target) <= 3.0 * se


def test_derivative_bound_affine_recursion(window, busy_noise, wave_problem):
    rep = lf.derivative_bound_estimate(wave_problem, busy_noise,
                                       n_realizations=100, n_points=16,
                                       n_iter=6, eval_points=[(1.0, 0.0)])
    assert rep.recursion_ok and rep.stable_ok and rep.passed


def test_derivative_bound_needs_ensemble(window, busy_noise, wave_problem):
    with pytest.raises(MalliavinError):
        lf.derivative_bound_estimate(wave_problem, busy_noise,
                                     n_realizations=50)


@pytest.mark.parametrize("n_iter", [0, 1])
def test_derivative_bound_needs_two_iterates(busy_noise, wave_problem,
                                             n_iter):
    # with fewer, no recursion or stability row would gate anything
    with pytest.raises(MalliavinError, match="n_iter >= 2"):
        lf.derivative_bound_estimate(wave_problem, busy_noise,
                                     n_realizations=100, n_iter=n_iter)


@pytest.mark.parametrize("kwargs", [{"eval_points": []}, {"n_points": 0}],
                         ids=["no_eval_point", "no_derivative_point"])
def test_derivative_bound_needs_something_to_compare(busy_noise,
                                                     wave_problem, kwargs):
    # with no evaluation point the report passed with 0 rows; with no
    # derivative point its estimates were NaN
    with pytest.raises(MalliavinError, match="at least one"):
        lf.derivative_bound_estimate(wave_problem, busy_noise,
                                     n_realizations=100, **kwargs)


# ------------------------------------------- batch checks vs per path

_SWEEP_CSVS = ("chain_rule", "exp_derivative", "derivative_eq")


def _per_path_rows(config):
    """{csv name: [(params, reference row or EquationCheck)]} of the three
    batch checks, from the per-path references on the CLI's paths, points
    and (t, x)."""
    measure = harness.build_measure(config)
    problem = harness.build_problem(config)
    F = helpers.integral_functional(cli.H_SMOOTH, measure)
    maps = (("square", lambda v: v * v), ("exp", math.exp), ("sin", math.sin))
    want = {name: [] for name in _SWEEP_CSVS}
    for batch in lf.sample_batches(measure, harness.build_window(config),
                                   config.seed, config.n_diagnostic):
        for j in range(batch.n_paths):
            i = batch.start + j
            cfg, point = batch.path(j), cli._draw_point(config, i)
            for name, g in maps:
                row = ref.chain_rule_residual(g, F, cfg, point, name)
                want["chain_rule"].append((row.params, row))
            row = ref.exp_derivative_residual(cli.H_POSITIVE, cfg, point,
                                              measure)
            want["exp_derivative"].append((row.params, row))
            rng = lf.derive_rng(config.seed, 200_000 + i)
            t = float(rng.uniform(0.0, config.T))
            x = float(rng.uniform(-config.R, config.R))
            want["derivative_eq"].append(
                (f"{point.label()};t={t:.6g};x={x:.6g}",
                 ref.derivative_equation_residual(problem, cfg, point, t, x)))
    return want


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_batch_checks_match_per_path_references(tmp_path, capsys, kernel,
                                                seed):
    # verify chain-rule, exp-derivative and derivative-eq run on batches;
    # each row must be its per-path reference's, up to the rounding of the
    # batch sums, and read exactly 0 where the point is not before t
    config = harness.RunConfig(kernel=kernel, seed=seed)
    for name in _SWEEP_CSVS:
        assert cli.main(["verify", name.replace("_", "-"), "--kernel",
                         kernel, "--seed", str(seed), "--outdir",
                         str(tmp_path)]) == 0
    capsys.readouterr()
    late = 0
    for name, want in _per_path_rows(config).items():
        with open(tmp_path / f"{name}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(want), name
        for row, (params, reference) in zip(rows, want):
            assert row["check"] == name.replace("_", "-")
            assert row["params"] == params and row["pass"] == "true"
            lhs, rhs = float(row["lhs"]), float(row["rhs"])
            if getattr(reference, "trivial", False):
                late += 1
                assert lhs == rhs == float(row["residual_or_z"]) == 0.0
            scale = 1.0 + abs(reference.lhs)
            assert abs(lhs - reference.lhs) <= 1e-13 * scale, (name, params)
            assert abs(rhs - reference.rhs) <= 1e-13 * scale, (name, params)
    assert late > 0
