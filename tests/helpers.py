"""Functions only the tests call: removing an atom from a configuration,
the iterated renewal convolutions, the Ito integral as a path functional,
the uniform bound on the deterministic part and the compensator's grid
operator built one block per lag."""

import math
from dataclasses import replace

import numpy as np

import levyfield as lf
from levyfield.solver import (_compensator_rows, _trapezoid,
                              pairwise_interaction_matrix)


def remove_atom(config, index: int):
    """The configuration without its atom number index."""
    if not 0 <= index < config.n_atoms:
        raise lf.NoiseError(f"atom index {index} out of range")
    return replace(config,
                   times=np.delete(config.times, index),
                   positions=np.delete(config.positions, index),
                   jumps=np.delete(config.jumps, index))


def iterated_convolutions(kernel, n_max: int) -> np.ndarray:
    """b_n on the grid with b_0 = 1 and b_{n+1} = b_n * g; b_n(T) equals
    a_n of gronwall.renewal_probabilities."""
    if n_max < 0:
        raise lf.GronwallError("n_max must be non-negative")
    out = np.empty((n_max + 1, kernel.grid.size))
    out[0] = 1.0
    for n in range(1, n_max + 1):
        out[n] = kernel.convolve(out[n - 1])
    return out


def integral_functional(h, measure=None):
    """The compensated Poisson integral L(h) as a path functional."""
    return lf.PathFunctional(f"L({h.name})",
                             lambda cfg: lf.ito_integral(cfg, h, measure))


def initial_condition_bound(problem) -> float:
    """Uniform bound on |w| over the window (w is continuous and bounded)."""
    if problem.ic_kind == "constant":
        return abs(problem.ic_value)
    if problem.ic_kind == "cosine":
        return 1.0
    return math.sqrt(2.0)


def per_lag_compensator_operator(problem, config):
    """solver._compensator_operator's reference: one block per distinct
    grid time difference, every block built by pairwise_interaction_matrix
    and multiplied by every grid time of sigma(u) at each apply."""
    kernel = problem.kernel
    grid_t, grid_x = problem.grid()
    n_t, n_x = grid_t.size, grid_x.size
    wx = _trapezoid(grid_x)

    # grid target j, grid source time i < j: pairs in row order
    jj, ii = np.tril_indices(n_t, -1)
    lags, lag_of = np.unique(grid_t[jj] - grid_t[ii], return_inverse=True)
    blocks = pairwise_interaction_matrix(
        kernel, np.repeat(lags, n_x), np.tile(grid_x, lags.size),
        np.zeros(n_x), grid_x) * wx                    # (U n_x, n_x)
    pair_w = np.concatenate([_trapezoid(grid_t[:j]) for j in range(1, n_t)])
    row_starts = np.searchsorted(jj, np.arange(1, n_t))
    tail = kernel.cumulative_mass_integral(np.diff(grid_t))[:, None]
    rows = _compensator_rows(problem, config.times, config.positions)

    def apply(svals):
        per_lag = (blocks @ svals.T).reshape(lags.size, n_x, n_t)
        terms = pair_w[:, None] * per_lag[lag_of, :, ii]
        grid = np.zeros((n_t, n_x))
        grid[1:] = np.add.reduceat(terms, row_starts, axis=0) \
            + tail * svals[:-1]
        return rows @ svals.ravel(), grid

    return apply
