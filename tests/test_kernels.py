"""Green kernels: pointwise values, Fourier transforms, square masses."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import levyfield as lf
from levyfield import KernelError

from conftest import assert_close

WAVE = lf.wave_kernel()
HEAT = lf.heat_kernel()


def test_wave_evaluate_examples():
    assert WAVE.evaluate(1.0, 0.5) == 0.5
    assert WAVE.evaluate(1.0, 2.0) == 0.0
    assert WAVE.evaluate(0.3, -0.2) == 0.5


def test_heat_evaluate_examples():
    assert_close(HEAT.evaluate(1.0 / (2.0 * math.pi), 0.0), 1.0, rel=1e-14)
    t, x = 0.7, 0.4
    assert_close(HEAT.evaluate(t, x),
                 math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t),
                 rel=1e-14)


@pytest.mark.parametrize("kernel", [WAVE, HEAT])
def test_evaluate_needs_positive_time(kernel):
    with pytest.raises(KernelError):
        kernel.evaluate(0.0, 0.0)
    with pytest.raises(KernelError):
        kernel.evaluate(-1.0, 0.0)
    # NaN is not a positive time either
    with pytest.raises(KernelError):
        kernel.evaluate(math.nan, 0.0)
    with pytest.raises(KernelError):
        kernel.evaluate(np.array([0.5, math.nan]), np.zeros(2))
    assert kernel.evaluate(np.empty((0, 3)), np.zeros(3)).shape == (0, 3)


@pytest.mark.parametrize("kernel", [WAVE, HEAT])
@pytest.mark.parametrize("method", [
    lambda k, t: k.fourier(t, 1.0), lambda k, t: k.square_integral(t),
    lambda k, t: k.cumulative_square_integral(t),
    lambda k, t: k.mass_integral(t),
    lambda k, t: k.cumulative_mass_integral(t)],
    ids=["fourier", "square_integral", "cumulative_square_integral",
         "mass_integral", "cumulative_mass_integral"])
@pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])],
                         ids=["scalar", "array"])
def test_time_functions_refuse_nan_time(kernel, method, t):
    # heat mass_integral(nan) used to return 1.0
    with pytest.raises(KernelError):
        method(kernel, t)
    assert np.shape(method(kernel, np.empty(0))) == (0,)


@pytest.mark.parametrize("t_shape,x_shape", [
    ((), ()), ((7,), (7,)), ((5, 7), (5, 7)), ((1, 7), (5, 7)),
    ((3, 1, 7), (3, 5, 7))])
def test_heat_evaluate_is_the_closed_form_bit_for_bit(t_shape, x_shape):
    rng = np.random.default_rng(len(t_shape) + len(x_shape))
    t = np.asarray(rng.uniform(1e-4, 1.0, t_shape))
    x = np.asarray(rng.uniform(-3.0, 3.0, x_shape))
    want = np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * math.pi * t)
    t0, x0 = t.copy(), x.copy()
    # read-only, like a PointBatch's arrays: writing into an input raises
    t.flags.writeable = x.flags.writeable = False
    got = HEAT.evaluate(t, x)
    assert np.shape(got) == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(t, t0) and np.array_equal(x, x0)


def test_fourier_examples():
    assert_close(WAVE.fourier(2.0, 1e-14), 2.0, rel=1e-12)
    assert abs(WAVE.fourier(1.0, math.pi)) < 1e-12
    assert HEAT.fourier(1.0, 0.0) == 1.0
    assert_close(HEAT.fourier(2.0, 1.5), math.exp(-2.0 * 1.5 ** 2 / 2.0),
                 rel=1e-14)


@pytest.mark.parametrize("kernel,t", [(WAVE, 0.5), (WAVE, 1.0),
                                      (HEAT, 0.5), (HEAT, 1.0)])
def test_fourier_matches_numerical_transform(kernel, t):
    # real cosine transform of the (even) kernel, quadrature oracle
    for xi in np.linspace(-10.0, 10.0, 41):
        if kernel.kind == "wave":
            oracle, _ = quad(lambda y: kernel.evaluate(t, y) *
                             math.cos(xi * y), -t, t)
        else:
            oracle, _ = quad(lambda y: kernel.evaluate(t, y) *
                             math.cos(xi * y), -np.inf, np.inf)
        assert abs(kernel.fourier(t, xi) - oracle) < 1e-6, (kernel.kind, xi)


def test_square_integral_examples():
    assert WAVE.square_integral(1.0) == 0.5
    assert_close(HEAT.square_integral(1.0), 0.2820947917738781, rel=1e-14)
    assert WAVE.square_integral(1e-12) < 1e-11  # vanishes as t -> 0+


@pytest.mark.parametrize("kernel", [WAVE, HEAT])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_square_integral_matches_quadrature(kernel, t):
    if kernel.kind == "wave":
        oracle, _ = quad(lambda y: kernel.evaluate(t, y) ** 2, -t, t)
    else:
        oracle, _ = quad(lambda y: kernel.evaluate(t, y) ** 2,
                         -np.inf, np.inf)
    assert_close(kernel.square_integral(t), oracle, rel=1e-8,
                 label=f"{kernel.kind} J({t})")


def test_cumulative_square_integral_examples():
    assert WAVE.cumulative_square_integral(1.0) == 0.25
    assert_close(HEAT.cumulative_square_integral(1.0), 0.5641895835477563,
                 rel=1e-14)
    assert WAVE.cumulative_square_integral(0.0) == 0.0
    assert HEAT.cumulative_square_integral(0.0) == 0.0


@pytest.mark.parametrize("kernel", [WAVE, HEAT])
def test_cumulative_square_integral_properties(kernel, window):
    ts = np.linspace(0.0, 2.0, 41)
    vals = np.array([kernel.cumulative_square_integral(t) for t in ts])
    assert np.all(np.diff(vals) >= 0.0)  # nondecreasing in t
    for t in (0.3, 0.9, 1.7):
        oracle, _ = quad(kernel.square_integral, 0.0, t)
        assert_close(kernel.cumulative_square_integral(t), oracle, rel=1e-8,
                     label=f"{kernel.kind} nu({t})")


def test_mass_integrals():
    assert WAVE.mass_integral(0.7) == 0.7
    assert HEAT.mass_integral(0.7) == 1.0
    assert_close(WAVE.cumulative_mass_integral(1.0), 0.5, rel=1e-12)
    assert_close(HEAT.cumulative_mass_integral(1.0), 1.0, rel=1e-12)
    oracle, _ = quad(lambda y: WAVE.evaluate(0.7, y), -0.7, 0.7)
    assert_close(WAVE.mass_integral(0.7), oracle, rel=1e-10)


@pytest.mark.parametrize("kernel", [WAVE, HEAT])
def test_h2_certificate_passes(kernel, tmp_path):
    rep = lf.check_h2(kernel, 1.0, 0.1)
    assert rep.passed
    assert not rep.insufficient_resolution
    assert {c.clause for c in rep.clauses} == {"a", "b", "c"}
    assert all(c.passed for c in rep.clauses)
    out = tmp_path / "h2.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "clause,quantity,value,pass"
    assert len(lines) == 4


@pytest.mark.parametrize("kernel", [WAVE, HEAT])
@pytest.mark.parametrize("horizon", [0.01, 0.5, 1.0, 3.0])
def test_h2_clause_a_matches_quad(kernel, horizon):
    # clause (a) against quad of the squared mass, heat's s^(-1/2) included
    rep = lf.check_h2(kernel, horizon, 0.1)
    got = next(c.value for c in rep.clauses if c.clause == "a")
    oracle, _ = quad(kernel.square_integral, 0.0, horizon, epsabs=0.0,
                     epsrel=1e-12, limit=200)
    assert_close(got, oracle, rel=1e-10, label=f"{kernel.kind} clause (a)")
    assert_close(got, kernel.cumulative_square_integral(horizon), rel=1e-14,
                 label=f"{kernel.kind} clause (a) closed form")


def test_h2_degenerate_grid_flags_resolution():
    rep = lf.check_h2(WAVE, 1.0, 0.1, xi_grid=[0.5])
    assert rep.insufficient_resolution
    assert not rep.passed


def test_h2_degenerate_parameters_flagged_not_raised():
    # report-only contract: bad eps/horizon flag the report instead of raising
    for rep in (lf.check_h2(WAVE, 1.0, 0.0), lf.check_h2(WAVE, 0.0, 0.1)):
        assert rep.insufficient_resolution and not rep.passed
