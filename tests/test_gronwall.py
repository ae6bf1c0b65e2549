"""Renewal convolutions, sequence bounds, summability diagnostics."""

import math

import numpy as np
import pytest

import levyfield as lf
from levyfield import GronwallError

import helpers
from conftest import assert_close


def ones_kernel(resolution=4096):
    return lf.ConvolutionKernel(lambda t: np.ones_like(t), 1.0,
                                resolution=resolution)


def factorials(n_max):
    return np.array([1.0 / math.factorial(n) for n in range(n_max + 1)])


# ---------------------------------------------------------------- renewal

def test_renewal_factorial_oracle_fine_grid():
    a = lf.renewal_probabilities(ones_kernel(16384), 10)
    assert a[0] == 1.0
    assert np.max(np.abs(a / factorials(10) - 1.0)) <= 1e-6


def test_renewal_factorial_oracle_default_grid():
    a = lf.renewal_probabilities(ones_kernel(4096), 10)
    assert np.max(np.abs(a * np.array([math.factorial(n)
                                       for n in range(11)]) - 1.0)) <= 1e-4


def test_renewal_scaling_in_total_mass():
    base = lf.renewal_probabilities(ones_kernel(1024), 8)
    k3 = lf.ConvolutionKernel(lambda t: 3.0 * np.ones_like(t), 1.0,
                              resolution=1024)
    scaled = lf.renewal_probabilities(k3, 8)
    want = base * 3.0 ** np.arange(9)
    assert np.max(np.abs(scaled / want - 1.0)) <= 1e-12


def test_renewal_nonnegative_and_probability_monotone():
    k = lf.ConvolutionKernel(lambda t: 2.0 * np.exp(-t), 1.0, resolution=2048)
    a = lf.renewal_probabilities(k, 10)
    assert np.all(a >= 0.0)
    p = a / k.total_mass ** np.arange(11)
    assert np.all(np.diff(p) <= 1e-12)


def test_renewal_refinement_is_contracting():
    # halving the grid step shrinks the update (second-order trapezoid),
    # comfortably within the 4x change budget
    fact = factorials(10)
    resolutions = (512, 1024, 2048)
    vals = [lf.renewal_probabilities(ones_kernel(r), 10) for r in resolutions]
    d1 = np.abs(vals[1] - vals[0])
    d2 = np.abs(vals[2] - vals[1])
    assert np.all(d2 <= 4.0 * d1 + 1e-14)
    errs = [np.max(np.abs(v - fact)) for v in vals]
    assert errs[2] < errs[1] < errs[0]


def test_degenerate_kernel_rejected():
    with pytest.raises(GronwallError):
        lf.renewal_probabilities(
            lf.ConvolutionKernel(lambda t: 0.0 * t, 1.0, resolution=256), 3)
    with pytest.raises(GronwallError):
        lf.ConvolutionKernel(lambda t: -np.ones_like(t), 1.0, resolution=256)
    with pytest.raises(GronwallError):
        lf.ConvolutionKernel(lambda t: np.ones_like(t), 0.0, resolution=256)


def test_convolve_shape_checked():
    k = ones_kernel(256)
    with pytest.raises(GronwallError):
        k.convolve(np.ones(7))


def test_iterated_convolutions_simplex_volumes():
    k = ones_kernel(2048)
    b = np.asarray(helpers.iterated_convolutions(k, 4))
    assert np.array_equal(b[0], np.ones_like(k.grid))
    # b_n(T) = T^n / n! for g = 1
    for n in range(1, 5):
        assert_close(b[n][-1], 1.0 / math.factorial(n), rel=1e-4,
                     label=f"b_{n}(1)")


# ------------------------------------------------------------ bound check

def test_verify_bound_zeros(window):
    k = ones_kernel(512)
    f = np.zeros((4, k.grid.size))
    rep = lf.verify_bound(f, np.zeros(4), k, M=0.0)
    assert rep.passed and rep.worst_margin == 0.0


def test_verify_bound_equality_construction():
    # f_n = C_n + f_{n-1} * g with C_n = 2^-n saturates the bound at t = T
    k = ones_kernel(1024)
    C = 0.5 ** np.arange(6)
    f = lf.equality_sequence(k, C, 5)
    rep = lf.verify_bound(f, C, k, M=C[0])
    assert rep.hypothesis_ok
    assert rep.passed
    assert rep.worst_margin >= -rep.slack
    assert np.max(np.abs(rep.margins)) <= rep.slack  # tight at the horizon
    assert np.all(rep.worst_t == 1.0)


def test_verify_bound_detects_undersized_cap():
    k = ones_kernel(1024)
    C = 0.5 ** np.arange(4)
    f = lf.equality_sequence(k, C, 3)
    rep = lf.verify_bound(f, C, k, M=0.0)  # cap too small for f_0 = 1
    assert rep.hypothesis_ok and not rep.passed


def test_verify_bound_detects_hypothesis_violation():
    k = ones_kernel(1024)
    C = 0.5 ** np.arange(4)
    f = np.asarray(lf.equality_sequence(k, C, 3)).copy()
    f[2] += 0.2
    rep = lf.verify_bound(f, C, k, M=C[0])
    assert not rep.hypothesis_ok
    assert rep.hypothesis_failure[0] == 2
    assert not rep.passed


def test_verify_bound_csv(tmp_path):
    k = ones_kernel(512)
    C = 0.5 ** np.arange(4)
    f = lf.equality_sequence(k, C, 3)
    rep = lf.verify_bound(f, C, k, M=C[0])
    out = tmp_path / "bound.csv"
    rep.to_csv(out)
    assert out.read_text().splitlines()[0] == "n,t,f_n,bound,margin"


def test_bound_on_solver_iterate_differences(window, busy_noise,
                                             wave_problem):
    # end-to-end: the measured Picard second-moment differences satisfy the
    # renewal recursion with 4-sigma statistical constants
    rep = lf.existence_diagnostics(wave_problem, busy_noise,
                                   n_realizations=100, n_iter=5,
                                   master_seed=0)
    t_grid = np.asarray(rep.t_grid)
    H = np.asarray(rep.h_values)
    se_sup = np.asarray(rep.h_stderr).max(axis=1)

    v = busy_noise.second_moment
    lip = wave_problem.sigma.lipschitz
    j = np.vectorize(lf.wave_kernel().square_integral)
    g = lf.ConvolutionKernel(lambda s: v * lip * lip * j(np.maximum(s, 1e-12)),
                             1.0, resolution=1024)
    f = np.stack([np.interp(g.grid, t_grid, row) for row in H])
    n_max = f.shape[0] - 1
    # C_n absorbs the Monte Carlo noise of level n plus the noise the
    # convolution inherits from level n-1; C_0 = 1 recovers a_n * M
    consts = np.ones(n_max + 1)
    consts[1:] = 4.0 * (se_sup[1:] + g.total_mass * se_sup[:-1])
    bound = lf.verify_bound(f, consts, g, M=float(f[0].max()))
    assert bound.hypothesis_ok
    assert bound.passed


# ------------------------------------------------------------ summability

def test_summability_factorial_sequence():
    a = factorials(12)
    rep = lf.summability_check(a, 2.0)
    want = np.sqrt(1.0 / (1.0 + np.arange(12.0)))
    assert np.allclose(rep.ratios, want, rtol=1e-12)
    assert rep.decreasing_ok and rep.tail_ok and rep.passed


def test_summability_rejects_constant_sequence():
    assert not lf.summability_check(np.ones(8), 2.0).passed


def test_summability_of_renewal_sequence():
    a = lf.renewal_probabilities(ones_kernel(1024), 10)
    assert lf.summability_check(a, 2.0).passed


def test_summability_validation():
    with pytest.raises(GronwallError):
        lf.summability_check(factorials(5), 1.0)
    with pytest.raises(GronwallError):
        lf.summability_check([1.0, -0.5], 2.0)
