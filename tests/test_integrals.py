"""Compensated pathwise integrals against hand values and moment identities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import levyfield as lf
from levyfield import IntegrandError, MissingFieldError

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


# ------------------------------------------------------------ ito integral

def test_ito_empty_configuration_is_zero(empty_config):
    assert lf.ito_integral(empty_config, SMOOTH) == 0.0


def test_ito_single_atom_hand_value(window):
    cfg = lf.add_atom(make_empty_config(window), 0.5, 0.3, -1.0)
    assert lf.ito_integral(cfg, ONE) == -1.0
    assert_close(lf.ito_integral(cfg, SMOOTH),
                 -math.cos(0.3) * math.exp(-0.5), rel=1e-14)


def test_ito_compensator_hand_value(window):
    # all-plus-one jumps at rate 2: m1 = 2, so L(1) = z - m1 * |window|
    skew = lf.discrete_measure([1.0], [2.0])
    cfg = lf.add_atom(make_empty_config(window), 0.5, 0.3, 1.0)
    assert_close(lf.ito_integral(cfg, ONE, measure=skew),
                 1.0 - 2.0 * 4.0, rel=1e-9)


def test_ito_mean_and_variance(window, unit_noise):
    n = 10_000
    vals = np.array([lf.ito_integral(
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
    lhs = lf.ito_integral(cfg, combo)
    rhs = a * lf.ito_integral(cfg, SMOOTH) + b * lf.ito_integral(cfg, SMOOTH2)
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

def test_convolution_zero_sigma(window, busy_noise):
    cfg = lf.sample_prm(busy_noise, window, 3)
    out = lf.stochastic_convolution(cfg, lf.wave_kernel(),
                                    lf.constant_map(0.0),
                                    np.ones(cfg.n_atoms), 1.0, 0.0)
    assert out == 0.0


def test_convolution_no_atoms_before_t(window, busy_noise, empty_config):
    kernel = lf.wave_kernel()
    sig = lf.named_map("affine")
    assert lf.stochastic_convolution(empty_config, kernel, sig,
                                     np.zeros(0), 0.7, 0.0) == 0.0
    cfg = lf.sample_prm(busy_noise, window, 3)
    t = 0.5 * cfg.times[0]  # strictly before every atom
    assert lf.stochastic_convolution(cfg, kernel, sig,
                                     np.ones(cfg.n_atoms), t, 0.0) == 0.0


def test_convolution_one_atom_hand_value(window):
    cfg = lf.add_atom(make_empty_config(window), 0.5, 0.3, 1.0)
    sig = lf.named_map("affine", 0.5, 1.0)
    out = lf.stochastic_convolution(cfg, lf.wave_kernel(), sig,
                                    np.array([2.0]), 1.0, 0.0)
    # G(0.5, -0.3) * sigma(2) * z = 0.5 * 2 * 1
    assert out == 0.5 * (0.5 * 2.0 + 1.0) * 1.0


def test_convolution_compensator_needs_grid(window):
    skew = lf.discrete_measure([1.0], [2.0])
    cfg = lf.add_atom(make_empty_config(window), 0.5, 0.3, 1.0)
    with pytest.raises(MissingFieldError):
        lf.stochastic_convolution(cfg, lf.wave_kernel(),
                                  lf.named_map("affine"), np.array([2.0]),
                                  1.0, 0.0, measure=skew)
