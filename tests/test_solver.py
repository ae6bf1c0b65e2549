"""Forward/Picard solvers against hand formulas and finite-difference oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

import levyfield as lf
from levyfield import SolverError
from levyfield.solver import (_compensator_operator, convolve_square_mass,
                              deterministic_part, initial_condition_bound)

from conftest import assert_close, make_empty_config

AFFINE = lf.named_map("affine", 0.5, 1.0)


# ------------------------------------------------------------- scalar maps

def test_scalar_map_examples():
    assert AFFINE(2.0) == 2.0
    assert AFFINE.lipschitz == 0.5 and AFFINE.label() == "affine(0.5,1)"
    const = lf.constant_map(3.0)
    assert const(7.0) == 3.0 and const.lipschitz == 0.0
    sin = lf.named_map("sin")
    assert sin(0.5) == math.sin(0.5) and sin.label() == "sin"
    with pytest.raises(SolverError):
        lf.named_map("bogus")


@pytest.mark.parametrize("name", ["affine", "constant", "abs", "sin"])
def test_custom_map_rejects_builtin_names(name):
    # a built-in kind would be evaluated by its built-in map, not by fn
    with pytest.raises(SolverError, match="reserved"):
        lf.custom_map(np.tanh, 1.0, name=name)
    tanh = lf.custom_map(np.tanh, 1.0, name="tanh")
    assert tanh(0.5) == np.tanh(0.5)


def test_spot_check_rejects_lying_constants(window):
    quadratic = lf.custom_map(lambda u: u * u, 1.0, name="square")
    with pytest.raises(SolverError):
        lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=quadratic,
                       ic_kind="cosine", window=window)


def test_wave_pair_needs_wave_kernel(window):
    with pytest.raises(SolverError):
        lf.ProblemSpec(kernel=lf.heat_kernel(), sigma=AFFINE,
                       ic_kind="wave-pair", window=window)


# ------------------------------------------------------ deterministic part

def test_deterministic_closed_forms(window):
    heat_const = lf.ProblemSpec(kernel=lf.heat_kernel(), sigma=AFFINE,
                                ic_kind="constant", window=window,
                                ic_value=3.0)
    assert deterministic_part(heat_const, 0.7, 1.3) == 3.0

    big = lf.SpaceTimeWindow(math.pi, 2.0)
    wave_cos = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                              ic_kind="cosine", window=big)
    assert_close(deterministic_part(wave_cos, math.pi, 0.0), -1.0, rel=1e-12)

    heat_cos = lf.ProblemSpec(kernel=lf.heat_kernel(), sigma=AFFINE,
                              ic_kind="cosine", window=lf.SpaceTimeWindow(2.0, 2.0))
    assert_close(deterministic_part(heat_cos, 2.0, 0.0), math.exp(-1.0),
                 rel=1e-12)

    pair = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                          ic_kind="wave-pair", window=window)
    t, x = 0.8, 0.4
    assert_close(deterministic_part(pair, t, x),
                 math.cos(x) * (math.cos(t) + math.sin(t)), rel=1e-12)

    with pytest.raises(SolverError):
        deterministic_part(pair, window.T + 0.5, 0.0)


def _heat_fd_oracle(t_end, x_eval, n_x=256):
    # explicit Euler for u_t = u_xx / 2 on periodic [-pi, pi), u0 = cos
    dx = 2.0 * math.pi / n_x
    xs = -math.pi + dx * np.arange(n_x)
    u = np.cos(xs)
    dt = 0.4 * dx * dx
    steps = int(round(t_end / dt))
    dt = t_end / steps
    for _ in range(steps):
        lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)
        u = u + 0.5 * dt * lap
    return np.interp(np.mod(x_eval + math.pi, 2.0 * math.pi) - math.pi, xs, u,
                     period=2.0 * math.pi)


def test_heat_cosine_matches_finite_differences():
    prob = lf.ProblemSpec(kernel=lf.heat_kernel(), sigma=AFFINE,
                          ic_kind="cosine", window=lf.SpaceTimeWindow(2.0, 2.0))
    xs = np.linspace(-2.0, 2.0, 9)
    fd = _heat_fd_oracle(2.0, xs)
    mine = deterministic_part(prob, 2.0, xs)
    assert np.max(np.abs(mine - fd)) < 1e-4


def _wave_fd_oracle(t_end, x_eval, velocity, n_x=512):
    # leapfrog for u_tt = u_xx on periodic [-pi, pi), u0 = cos, u_t(0) = v0
    dx = 2.0 * math.pi / n_x
    xs = -math.pi + dx * np.arange(n_x)
    dt = 0.5 * dx
    steps = int(round(t_end / dt))
    dt = t_end / steps
    r2 = (dt / dx) ** 2

    def lap(v):
        return np.roll(v, -1) - 2.0 * v + np.roll(v, 1)

    prev = np.cos(xs)
    v0 = velocity(xs)
    cur = prev + dt * v0 + 0.5 * r2 * lap(prev)
    for _ in range(steps - 1):
        prev, cur = cur, 2.0 * cur - prev + r2 * lap(cur)
    return np.interp(np.mod(x_eval + math.pi, 2.0 * math.pi) - math.pi, xs,
                     cur, period=2.0 * math.pi)


def test_wave_pair_matches_finite_differences(window):
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                          ic_kind="wave-pair", window=window)
    xs = np.linspace(-2.0, 2.0, 9)
    fd = _wave_fd_oracle(1.0, xs, np.cos)
    mine = deterministic_part(prob, 1.0, xs)
    assert np.max(np.abs(mine - fd)) < 1e-4


def test_wave_cosine_matches_finite_differences():
    big = lf.SpaceTimeWindow(math.pi, 2.0)
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                          ic_kind="cosine", window=big)
    xs = np.linspace(-2.0, 2.0, 9)
    fd = _wave_fd_oracle(math.pi, xs, np.zeros_like)
    mine = deterministic_part(prob, math.pi, xs)
    assert np.max(np.abs(mine - fd)) < 1e-4


@pytest.mark.parametrize("kernel,ic,value", [
    ("heat", "constant", -2.5), ("heat", "cosine", 1.0),
    ("wave", "cosine", 1.0), ("wave", "wave-pair", 1.0)])
def test_initial_condition_bound_holds_on_grid(window, kernel, ic, value):
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    prob = lf.ProblemSpec(kernel=k, sigma=AFFINE, ic_kind=ic, window=window,
                          ic_value=value)
    ts = np.linspace(0.0, window.T, 41)
    xs = np.linspace(-window.R, window.R, 81)
    w = deterministic_part(prob, ts[:, None], xs[None, :])
    assert np.max(np.abs(w)) <= initial_condition_bound(prob) + 1e-12


# ----------------------------------------------------------- forward solve

def test_forward_zero_sigma_returns_deterministic_part(window, busy_noise):
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(0.0),
                          ic_kind="cosine", window=window)
    cfg = lf.sample_prm(busy_noise, window, 8)
    path = lf.solve_forward(cfg, prob)
    assert np.array_equal(path.atom_values,
                          deterministic_part(prob, cfg.times, cfg.positions))
    t, x = np.meshgrid(path.grid_times, path.grid_positions, indexing="ij")
    assert np.array_equal(path.grid_values, deterministic_part(prob, t, x))


def test_forward_empty_configuration(window, wave_problem):
    path = lf.solve_forward(make_empty_config(window), wave_problem)
    t, x = np.meshgrid(path.grid_times, path.grid_positions, indexing="ij")
    assert np.array_equal(path.grid_values,
                          deterministic_part(wave_problem, t, x))
    assert lf.evaluate_solution(path, 0.9, 0.1) == \
        deterministic_part(wave_problem, 0.9, 0.1)


def test_forward_one_atom_hand_formula(window, wave_problem):
    cfg = lf.add_atom(make_empty_config(window), 0.5, 0.3, 1.0)
    path = lf.solve_forward(cfg, wave_problem)
    w_atom = deterministic_part(wave_problem, 0.5, 0.3)
    assert path.atom_values[0] == w_atom
    want = deterministic_part(wave_problem, 1.0, 0.0) \
        + 0.5 * (0.5 * w_atom + 1.0) * 1.0  # G=1/2 inside the cone
    assert_close(lf.evaluate_solution(path, 1.0, 0.0), want, rel=1e-14)


def test_forward_two_atom_chained_hand_formula(window, wave_problem):
    cfg = make_empty_config(window)
    cfg = lf.add_atom(cfg, 0.3, 0.0, 1.0)
    cfg = lf.add_atom(cfg, 0.6, 0.2, -1.0)
    path = lf.solve_forward(cfg, wave_problem)
    sig = wave_problem.sigma
    w1 = deterministic_part(wave_problem, 0.3, 0.0)
    u2 = deterministic_part(wave_problem, 0.6, 0.2) + 0.5 * sig(w1) * 1.0
    assert_close(path.atom_values[1], u2, rel=1e-14)
    want = deterministic_part(wave_problem, 1.0, 0.0) \
        + 0.5 * sig(w1) * 1.0 + 0.5 * sig(u2) * (-1.0)
    assert_close(lf.evaluate_solution(path, 1.0, 0.0), want, rel=1e-14)


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_forward_grid_matches_evaluate_solution(window, busy_noise, kernel):
    # an atom placed exactly at a grid time feeds only later grid rows
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    prob = lf.ProblemSpec(kernel=k, sigma=AFFINE, ic_kind="cosine",
                          window=window)
    grid_t, grid_x = prob.grid()
    j = 20
    base = lf.sample_prm(busy_noise, window, 3)
    cfg = lf.add_atom(base, grid_t[j], 0.3, 1.0)
    path = lf.solve_forward(cfg, prob)
    for jj, tj in enumerate(grid_t):
        for l, xl in enumerate(grid_x):
            want = lf.evaluate_solution(path, tj, xl)
            assert abs(path.grid_values[jj, l] - want) <= \
                1e-12 * (1.0 + abs(want))
    before = lf.solve_forward(base, prob)
    assert np.array_equal(path.grid_values[:j + 1],
                          before.grid_values[:j + 1])
    assert not np.array_equal(path.grid_values[j + 1:],
                              before.grid_values[j + 1:])


def test_forward_refuses_uncompensated_mean(window):
    skew = lf.discrete_measure([1.0], [2.0])
    cfg = lf.sample_prm(skew, window, 1)
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                          ic_kind="cosine", window=window)
    with pytest.raises(SolverError, match="picard"):
        lf.solve_forward(cfg, prob)


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_mild_residual_small(window, busy_noise, kernel):
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    prob = lf.ProblemSpec(kernel=k, sigma=AFFINE, ic_kind="cosine",
                          window=window)
    for seed in range(5):
        path = lf.solve_forward(lf.sample_prm(busy_noise, window, seed), prob)
        sup = max(1.0, float(np.max(np.abs(path.atom_values)))) \
            if path.atom_values.size else 1.0
        assert lf.mild_residual(path) <= 1e-12 * (1.0 + sup)


def test_future_atom_does_not_change_past(window, busy_noise, wave_problem):
    cfg = lf.sample_prm(busy_noise, window, 12)
    before = lf.solve_forward(cfg, wave_problem, with_grid=False)
    bumped = lf.add_atom(cfg, 0.95, 0.0, 1.0)
    after = lf.solve_forward(bumped, wave_problem, with_grid=False)
    keep = cfg.times < 0.95
    where = np.searchsorted(bumped.times, cfg.times[keep])
    assert np.array_equal(before.atom_values[keep], after.atom_values[where])
    assert lf.evaluate_solution(before, 0.9, 0.4) == \
        lf.evaluate_solution(after, 0.9, 0.4)


# ----------------------------------------------------------------- picard

def test_picard_zero_iterations_is_deterministic(window, busy_noise,
                                                 wave_problem):
    cfg = lf.sample_prm(busy_noise, window, 4)
    path, diag = lf.picard_solve(cfg, wave_problem, 0)
    assert np.array_equal(
        path.atom_values,
        deterministic_part(wave_problem, cfg.times, cfg.positions))
    assert diag.sup_differences.size == 0


def test_picard_constant_sigma_converges_in_one_step(window, busy_noise):
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(2.0),
                          ic_kind="cosine", window=window)
    cfg = lf.sample_prm(busy_noise, window, 4)
    _, diag = lf.picard_solve(cfg, prob, 4)
    assert np.all(diag.sup_differences[1:] == 0.0)


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_picard_matches_forward(window, busy_noise, kernel):
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    prob = lf.ProblemSpec(kernel=k, sigma=AFFINE, ic_kind="cosine",
                          window=window)
    for seed in range(5):
        cfg = lf.sample_prm(busy_noise, window, seed)
        fwd = lf.solve_forward(cfg, prob, with_grid=False)
        pic, diag = lf.picard_solve(cfg, prob, cfg.n_atoms + 2,
                                    with_grid=False)
        gap = float(np.max(np.abs(fwd.atom_values - pic.atom_values))) \
            if cfg.n_atoms else 0.0
        assert gap <= 1e-8
        # the iteration is nilpotent: exact fixed point past the atom depth
        assert np.all(diag.sup_differences[cfg.n_atoms:] == 0.0)


def test_picard_compensated_drift_hand_value(window):
    # all-plus-one jumps, constant sigma: the compensator integral over the
    # unclipped wave cone at x=0 is m1*b*t^2/2, exact by hand
    skew = lf.discrete_measure([1.0], [2.0])
    b = 1.5
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(b),
                          ic_kind="cosine", window=window)
    cfg = lf.sample_prm(skew, window, 6)
    path, _ = lf.picard_solve(cfg, prob, cfg.n_atoms + 2)
    kern = lf.wave_kernel()
    jumps_part = sum(kern.evaluate(1.0 - t, -x) * b * z
                     for t, x, z in cfg.atoms)
    want = deterministic_part(prob, 1.0, 0.0) + jumps_part \
        - b * skew.first_moment * 0.5
    got = lf.evaluate_solution(path, 1.0, 0.0)
    assert abs(got - want) <= 5e-2  # grid compensator, first-order accurate


COMPENSATED = lf.gaussian_measure(5.0, 0.5, 1.0)   # m1 = 2.5


def _grid_compensator(kernel, sigma, grid_t, grid_x, values, t, x):
    """The compensator int_{s<t} int G(t-s, x-y) sigma(u(s,y)) dy ds one
    point at a time: the trapezoid rule over the grid times before t and
    the grid positions, plus the first-order tail
    sigma(u(s_last, x)) * int_0^{t-s_last} (int G dy) ds over the cell
    touching s = t.  The reference for solver._compensator_rows."""
    mask = grid_t < t
    if not mask.any():
        return 0.0
    s = grid_t[mask]
    svals = sigma(values[mask, :])
    G = kernel.evaluate((t - s)[:, None], x - grid_x[None, :])
    inner = np.trapezoid(G * svals, grid_x, axis=1)
    total = float(np.trapezoid(inner, s))
    edge = float(np.interp(x, grid_x, svals[-1]))
    return total + edge * kernel.cumulative_mass_integral(t - s[-1])


@pytest.mark.parametrize("n_t,n_x", [(64, 64), (40, 64)])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_compensator_operator_matches_quadrature(window, kernel, n_t, n_x):
    # on the default 64^2 grid dx = 4 dt, so the wave light-cone edge
    # |x_l - x_m| = t_j - t_i falls on grid points: only the exact
    # floating-point time differences reproduce its ties
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    prob = lf.ProblemSpec(kernel=k, sigma=AFFINE, ic_kind="cosine",
                          window=window, n_t=n_t, n_x=n_x)
    grid_t, grid_x = prob.grid()
    cfg = lf.sample_prm(COMPENSATED, window, 2)
    # atoms at a grid time, at a grid position and on the window edges
    for t_a, x_a in ((grid_t[5], 0.3), (0.5, grid_x[10]),
                     (grid_t[7], grid_x[-1]), (0.9, -window.R)):
        cfg = lf.add_atom(cfg, t_a, x_a, 1.0)
    u = deterministic_part(prob, grid_t[:, None], grid_x[None, :]) \
        + np.random.default_rng(0).normal(size=(n_t, n_x))
    apply = _compensator_operator(prob, cfg)
    # evaluate_solution off the grid: tau = 1e-6 after a grid time, x = -R
    # and R, x between grid positions, t below the first grid step, x past
    # the window edge (the tail holds the edge value, as np.interp does);
    # with w = 0 and no atoms it returns -m1 times the compensator
    points = ((grid_t[9] + 1e-6, 0.3), (grid_t[30] + 1e-6, grid_x[20]),
              (0.6, -window.R), (grid_t[12] + 1e-6, window.R),
              (0.45, 0.5 * (grid_x[10] + grid_x[11])),
              (0.5 * grid_t[1], 0.1), (0.5 * grid_t[1], window.R),
              (0.6, window.R + 0.5))
    no_atoms = lf.PointConfiguration(np.zeros(0), np.zeros(0), np.zeros(0),
                                     window, COMPENSATED)
    for sigma in (AFFINE, lf.named_map("sin")):
        got_at, got_gr = apply(sigma(u))
        want_gr = np.array([[_grid_compensator(k, sigma, grid_t, grid_x, u,
                                               tj, xl)
                             for xl in grid_x] for tj in grid_t])
        want_at = np.array([_grid_compensator(k, sigma, grid_t, grid_x, u,
                                              tk, xk)
                            for tk, xk in zip(cfg.times, cfg.positions)])
        assert np.all(np.abs(got_gr - want_gr)
                      <= 1e-13 * (1.0 + np.abs(want_gr)))
        assert np.all(np.abs(got_at - want_at)
                      <= 1e-13 * (1.0 + np.abs(want_at)))
        zero_w = lf.ProblemSpec(kernel=k, sigma=sigma, ic_kind="constant",
                                window=window, ic_value=0.0, n_t=n_t,
                                n_x=n_x)
        path = lf.SolutionPath(no_atoms, zero_w, np.zeros(0), "test",
                               grid_t, grid_x, u)
        for tp, xp in points:
            want = _grid_compensator(k, sigma, grid_t, grid_x, u, tp, xp)
            got = -lf.evaluate_solution(path, tp, xp) \
                / COMPENSATED.first_moment
            assert abs(got - want) <= 1e-13 * abs(want), (tp, xp)


def _window_green_mass(kind, t, x, R):
    """int_0^t int_{-R}^{R} G(t - s, x - y) dy ds at one point, |x| <= R."""
    if kind == "wave":
        # G = 1/2 on the light cone |x - y| <= t - s, clipped by the window
        def ramp(c):   # int_0^t min(c, tau) dtau
            return t * t / 2.0 if t <= c else c * t - c * c / 2.0
        return 0.5 * (ramp(R - x) + ramp(R + x))

    def phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    def mass(tau):   # G(tau, .) is the N(0, tau) density
        return phi((R - x) / math.sqrt(tau)) - phi((-R - x) / math.sqrt(tau))

    if t == 0.0:
        return 0.0
    return integrate.quad(mass, 0.0, t, epsabs=1e-13, epsrel=1e-12,
                          limit=200)[0]


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_compensated_grid_converges_under_refinement(window, kernel):
    # constant sigma = b: the solution is u = w + b (sum G z - m1 int int G),
    # and Picard iterate 1 differs from it only by the compensator quadrature
    b = 1.5
    k = lf.wave_kernel() if kernel == "wave" else lf.heat_kernel()
    cfg = lf.sample_prm(COMPENSATED, window, 5)
    m1 = COMPENSATED.first_moment
    errors = []
    for n in (32, 64, 128):
        prob = lf.ProblemSpec(kernel=k, sigma=lf.constant_map(b),
                              ic_kind="constant", window=window, n_t=n, n_x=n)
        path, _ = lf.picard_solve(cfg, prob, 1)
        tt, xx = np.meshgrid(path.grid_times, path.grid_positions,
                             indexing="ij")
        jumps = np.zeros_like(tt)
        for tk, xk, zk in cfg.atoms:
            after = tt > tk
            jumps[after] += k.evaluate(tt[after] - tk, xx[after] - xk) * zk
        # the window mass is even in x and the grid is symmetric (n even)
        half = np.array([[_window_green_mass(kernel, tj, xl, window.R)
                          for xl in path.grid_positions[n // 2:]]
                         for tj in path.grid_times])
        mass = np.concatenate([half[:, ::-1], half], axis=1)
        exact = 1.0 + b * (jumps - m1 * mass)
        err = float(np.max(np.abs(path.grid_values - exact)))
        dt, dx = window.T / (n - 1), 2.0 * window.R / (n - 1)
        assert err <= abs(m1 * b) * window.T * (dt + dx), (n, err)
        errors.append(err)
    assert errors[0] > errors[1] > errors[2], errors


# -------------------------------------------------------------- existence

def test_existence_zero_sigma_vanishes(window, busy_noise):
    prob = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.constant_map(0.0),
                          ic_kind="cosine", window=window)
    rep = lf.existence_diagnostics(prob, busy_noise, n_realizations=30,
                                   n_iter=4, master_seed=0)
    assert np.all(np.asarray(rep.h_values) == 0.0)
    assert rep.passed


def test_existence_affine_passes(window, busy_noise, wave_problem):
    rep = lf.existence_diagnostics(wave_problem, busy_noise,
                                   n_realizations=100, n_iter=6,
                                   master_seed=3)
    assert rep.recursion_ok and rep.decay_ok and rep.bounded_ok
    assert rep.passed
    ratios = np.asarray(rep.sqrt_ratios)
    assert ratios.size and np.all(ratios[-2:] <= 0.9)


def test_existence_second_moment_doubles_with_v(window, wave_problem):
    base = lf.two_point_measure(1.0, 5.0)
    bigger = lf.two_point_measure(math.sqrt(2.0), 5.0)  # v doubles
    r1 = lf.existence_diagnostics(wave_problem, base, n_realizations=60,
                                  n_iter=2, master_seed=5)
    r2 = lf.existence_diagnostics(wave_problem, bigger, n_realizations=60,
                                  n_iter=2, master_seed=5)
    h1 = np.asarray(r1.h_values)[0]
    h2 = np.asarray(r2.h_values)[0]
    assert np.allclose(h2, 2.0 * h1, rtol=1e-9, atol=0.0)


def test_existence_sup_stable_under_grid_refinement(window, busy_noise):
    coarse = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                            ic_kind="cosine", window=window, n_x=32)
    fine = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=AFFINE,
                          ic_kind="cosine", window=window, n_x=64)
    k32 = lf.existence_diagnostics(coarse, busy_noise, n_realizations=100,
                                   n_iter=5, master_seed=2).second_moment_sup[-1]
    k64 = lf.existence_diagnostics(fine, busy_noise, n_realizations=100,
                                   n_iter=5, master_seed=2).second_moment_sup[-1]
    assert abs(k32 - k64) <= 0.05 * (1.0 + max(k32, k64))


def test_existence_csv(tmp_path, window, busy_noise, wave_problem):
    rep = lf.existence_diagnostics(wave_problem, busy_noise,
                                   n_realizations=30, n_iter=3, master_seed=0)
    out = tmp_path / "existence.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    # every criterion of rep.passed a CheckRow: H_n(t) for n = 1..3 (H_1
    # ungated), two sqrt-ratios and two K-hat steps
    assert lines[0] == "check,params,lhs,rhs,residual_or_z,pass"
    assert len(lines) == 1 + 3 * 64 + 2 + 2
    assert [line.split(",")[1] for line in lines[-4:]] == [
        "decay n=2", "decay n=3", "K-hat step n=2", "K-hat step n=3"]
    assert all(line.endswith(",true") for line in lines[65:])
    assert rep.passed


def test_convolve_square_mass_constant_identity():
    tg = np.linspace(0.0, 1.0, 65)
    ones = np.ones_like(tg)
    for kernel in (lf.wave_kernel(), lf.heat_kernel()):
        got = convolve_square_mass(kernel, tg, ones, 64)
        assert_close(got, kernel.cumulative_square_integral(1.0), rel=1e-12,
                     label=kernel.kind)
