"""Compensated pathwise integrals against hand values and moment identities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad

import levyfield as lf
from levyfield import IntegrandError, MissingFieldError, cli

from conftest import assert_close, make_empty_config

ONE = lf.integrand(lambda t, x: np.ones_like(np.asarray(t, float)
                                             + np.asarray(x, float)),
                   name="one")
SMOOTH = lf.integrand(lambda t, x: np.cos(x) * np.exp(-t), name="smooth")
SMOOTH2 = lf.integrand(lambda t, x: np.sin(x + t), name="smooth2")


def test_box_indicator_values():
    box = lf.box_indicator(-1.0, 1.0)
    assert box(0.3, 0.5) == 1.0
    assert box(0.3, 1.5) == 0.0
    assert box(0.9, -1.0) == 1.0


def test_window_integrals_closed_forms(window):
    box = lf.box_indicator(-1.0, 1.0)
    assert_close(lf.window_integral(box, window), 2.0, rel=1e-9)
    assert_close(lf.window_sq_integral(box, window), 2.0, rel=1e-9)
    assert_close(lf.inner_product(box, box, window), 2.0, rel=1e-9)
    # int_0^1 e^{-2t} dt * int_{-2}^{2} cos^2 x dx
    want = (1.0 - math.exp(-2.0)) / 2.0 * (2.0 + math.sin(4.0) / 2.0)
    assert_close(lf.window_sq_integral(SMOOTH, window), want, rel=1e-9)


def test_square_integrability_gate(window):
    val = lf.check_square_integrable(SMOOTH, window)
    assert_close(val, lf.window_sq_integral(SMOOTH, window), rel=1e-2)
    singular = lf.integrand(lambda t, x: 1.0 / x, name="inv")
    with np.errstate(divide="ignore"), pytest.raises(IntegrandError):
        lf.check_square_integrable(singular, window)


# ------------------------------------------- window rule against dblquad

def _dblquad(fn, window, cuts=(), epsrel=1e-11):
    # dblquad on the x pieces between the cuts, each piece smooth
    edges = sorted({-window.R, window.R}
                   | {c for c in cuts if -window.R < c < window.R})
    return sum(dblquad(lambda x, t: fn(t, x), 0.0, window.T, a, b,
                       epsrel=epsrel, epsabs=1e-13)[0]
               for a, b in zip(edges, edges[1:]))


def _rule_agrees(got, fn, window, cuts=()):
    # 1e-9 of int int |fn| (the rule's own scale), by an independent dblquad
    want = _dblquad(fn, window, cuts)
    # |fn| has kinks where fn changes sign; a few digits make the scale
    scale = _dblquad(lambda t, x: np.abs(fn(t, x)), window, cuts, 1e-4)
    assert abs(got - want) <= 1e-9 * scale, (got, want, scale)


# inside the window, across its edge, at its edge, the whole window
BOXES = [(-1.0, 1.0), (-0.3, 1.7), (0.25, 0.5), (1.5, 3.0), (-5.0, -1.2),
         (-2.0, 0.4), (1.1, 2.0), (-3.0, 3.0)]


@pytest.mark.parametrize("lo, hi", BOXES)
def test_window_rule_matches_dblquad_on_boxes(window, lo, hi):
    box = lf.box_indicator(lo, hi)
    want = max(0.0, min(hi, window.R) - max(lo, -window.R)) * window.T
    for got in (lf.window_integral(box, window),
                lf.window_sq_integral(box, window),
                lf.inner_product(box, box, window)):
        _rule_agrees(got, box, window, (lo, hi))
        assert_close(got, want, rel=1e-14, abs_=1e-15, label=f"box {lo},{hi}")


def test_window_rule_matches_dblquad_on_smooth_products(window):
    h, g = cli.H_SMOOTH, cli.G_SMOOTH
    box = lf.box_indicator(-1.2, 0.7)
    _rule_agrees(lf.inner_product(h, g, window),
                 lambda t, x: h(t, x) * g(t, x), window)
    _rule_agrees(lf.inner_product(g, box, window),
                 lambda t, x: g(t, x) * box(t, x), window, (-1.2, 0.7))
    for f in (h, g, cli.H_POSITIVE):
        _rule_agrees(lf.window_integral(f, window), f, window)
        _rule_agrees(lf.window_sq_integral(f, window),
                     lambda t, x, f=f: f(t, x) ** 2, window)


@pytest.mark.parametrize("jump_at", [0.3, -1.37, -1.375, 1.0, 0.0, 1.9])
def test_undeclared_jump_matches_dblquad_or_raises(window, jump_at):
    # a box whose breakpoints are hidden from the rule: either the panel
    # halvings land on the jump and the value is right, or the rule refuses
    hidden = lf.integrand(lambda t, x: np.where(x >= jump_at, 1.0 + t, 0.0),
                          name="hidden-step")
    try:
        got = lf.window_integral(hidden, window)
    except IntegrandError:
        return
    _rule_agrees(got, hidden, window, (jump_at,))


def test_window_rule_halves_panels_for_a_peak(window):
    # exp(-a (x - 0.3)^2) e^{-t}: width 0.05 needs three halvings and
    # passes; width 0.01 is out of reach of four and is refused
    def bump(a):
        return lf.integrand(lambda t, x: np.exp(-a * (x - 0.3) ** 2 - t))
    want = math.sqrt(math.pi / 400.0) * (1.0 - math.exp(-1.0))
    assert_close(lf.window_integral(bump(400.0), window), want, rel=1e-12)
    with pytest.raises(IntegrandError):
        lf.window_integral(bump(1e4), window)


def test_window_rule_refuses_non_finite_nodes(window):
    pole = lf.integrand(lambda t, x: 1.0 / (x - 0.1234), name="pole")
    with np.errstate(divide="ignore"), pytest.raises(IntegrandError):
        lf.window_sq_integral(pole, window)


# ------------------------------------------------------------ ito integral

def test_ito_empty_configuration_is_zero(empty_config):
    assert lf.ito_integrals(empty_config, SMOOTH) == 0.0


def test_ito_single_atom_hand_value(window):
    cfg = lf.add_atoms(make_empty_config(window), 0.5, 0.3, -1.0)
    assert lf.ito_integrals(cfg, ONE) == -1.0
    assert_close(lf.ito_integrals(cfg, SMOOTH),
                 -math.cos(0.3) * math.exp(-0.5), rel=1e-14)


def test_ito_compensator_hand_value(window):
    # all-plus-one jumps at rate 2: m1 = 2, so L(1) = z - m1 * |window|
    skew = lf.discrete_measure([1.0], [2.0])
    cfg = lf.add_atoms(make_empty_config(window), 0.5, 0.3, 1.0)
    assert_close(lf.ito_integrals(cfg, ONE, measure=skew),
                 1.0 - 2.0 * 4.0, rel=1e-9)


def test_ito_mean_and_variance(window, unit_noise):
    n = 10_000
    vals = np.array([lf.ito_integrals(
        lf.sample_prm(unit_noise, window, (13, i)), ONE, unit_noise)
        for i in range(n)])
    se_mean = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean()) <= 4.0 * se_mean
    target = unit_noise.second_moment * 2.0 * window.R * window.T
    s2 = vals.var(ddof=1)
    m4 = np.mean((vals - vals.mean()) ** 4)
    se_var = math.sqrt(max(m4 - s2 ** 2, 0.0) / n)
    assert abs(s2 - target) <= 3.0 * se_var


@given(a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
def test_ito_linearity(a, b):
    cfg = lf.sample_prm(lf.two_point_measure(1.0, 5.0),
                        lf.SpaceTimeWindow(1.0, 2.0), 5)
    combo = lf.integrand(lambda t, x: a * SMOOTH(t, x) + b * SMOOTH2(t, x),
                         name="combo")
    lhs = lf.ito_integrals(cfg, combo)
    rhs = a * lf.ito_integrals(cfg, SMOOTH) + b * lf.ito_integrals(cfg, SMOOTH2)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------- isometry

def test_isometry_zero_integrand(window, unit_noise):
    zero = lf.integrand(lambda t, x: 0.0 * np.asarray(t, float), name="zero")
    s = lf.isometry_test(unit_noise, zero, window, 100, 0)
    assert s.estimate == 0.0 and s.target == 0.0 and s.studentized == 0.0


def test_isometry_box_example(window, unit_noise):
    s = lf.isometry_test(unit_noise, lf.box_indicator(-1.0, 1.0), window,
                         10_000, 21)
    assert_close(s.target, 2.0, rel=1e-9, label="isometry target")
    assert abs(s.studentized) <= 3.0


def test_isometry_doubling_quadruples_target(window, unit_noise):
    box = lf.box_indicator(-1.0, 1.0)
    double = lf.integrand(lambda t, x: 2.0 * box(t, x), name="double")
    s1 = lf.isometry_test(unit_noise, box, window, 50, 0)
    s2 = lf.isometry_test(unit_noise, double, window, 50, 0)
    assert_close(s2.target, 4.0 * s1.target, rel=1e-9)


# --------------------------------------------------- stochastic convolution
# u(t, x) = w + int int G sigma(u) dL, evaluated from a path's atom values
# by evaluate_solution

def _wave(window, sigma):
    return lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=sigma,
                          ic_kind="cosine", window=window)


def test_convolution_zero_sigma(window, busy_noise):
    prob = _wave(window, lf.constant_map(0.0))
    path = lf.solve_forward(lf.sample_prm(busy_noise, window, 3), prob,
                            with_grid=False)
    assert lf.evaluate_solution(path, 1.0, 0.0) == \
        lf.deterministic_part(prob, 1.0, 0.0)


def test_convolution_no_atoms_before_t(window, busy_noise, empty_config):
    prob = _wave(window, lf.named_map("affine"))
    empty = lf.SolutionPath(empty_config, prob, np.zeros(0), "test")
    assert lf.evaluate_solution(empty, 0.7, 0.0) == \
        lf.deterministic_part(prob, 0.7, 0.0)
    cfg = lf.sample_prm(busy_noise, window, 3)
    path = lf.SolutionPath(cfg, prob, np.ones(cfg.n_atoms), "test")
    t = 0.5 * cfg.times[0]  # strictly before every atom
    assert lf.evaluate_solution(path, t, 0.0) == \
        lf.deterministic_part(prob, t, 0.0)


def test_convolution_one_atom_hand_value(window):
    cfg = lf.add_atoms(make_empty_config(window), 0.5, 0.3, 1.0)
    prob = _wave(window, lf.named_map("affine", 0.5, 1.0))
    path = lf.SolutionPath(cfg, prob, np.array([2.0]), "test")
    # G(0.5, -0.3) * sigma(2) * z = 0.5 * 2 * 1
    assert lf.evaluate_solution(path, 1.0, 0.0) == \
        lf.deterministic_part(prob, 1.0, 0.0) + 0.5 * (0.5 * 2.0 + 1.0) * 1.0


def test_convolution_compensator_needs_grid(window):
    skew = lf.discrete_measure([1.0], [2.0])
    cfg = lf.PointBatch(np.array([0.5]), np.array([0.3]), np.array([1.0]), 1,
                        window, skew)
    path = lf.SolutionPath(cfg, _wave(window, lf.named_map("affine")),
                           np.array([2.0]), "test")
    with pytest.raises(MissingFieldError, match="grid"):
        lf.evaluate_solution(path, 1.0, 0.0)


def test_convolution_reads_atom_values_before_t_only(window):
    cfg = lf.add_atoms(lf.add_atoms(make_empty_config(window), 0.3, 0.1, 1.0),
                      0.8, -0.2, -1.0)
    prob = _wave(window, lf.named_map("affine"))
    finite = lf.SolutionPath(cfg, prob, np.array([1.0, 5.0]), "test")
    for bad in (np.nan, np.inf):
        early = lf.SolutionPath(cfg, prob, np.array([bad, 1.0]), "test")
        with pytest.raises(MissingFieldError, match="before t"):
            lf.evaluate_solution(early, 0.5, 0.0)
        late = lf.SolutionPath(cfg, prob, np.array([1.0, bad]), "test")
        assert lf.evaluate_solution(late, 0.5, 0.0) == \
            lf.evaluate_solution(finite, 0.5, 0.0)
