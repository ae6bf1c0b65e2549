"""Functions only the tests call: adding an atom to and removing one from a
path's row, the Ito integral, also as a path functional, the iterated
renewal convolutions, the uniform bound on the deterministic part and the
compensator's grid operator built one block per lag.  The row functions
are the tests' own, plain np.insert, np.delete and np.dot, apart from the
batch code they check."""

import math

import numpy as np

import levyfield as lf
from levyfield.solver import (_compensator_rows, _trapezoid,
                              pairwise_interaction_matrix)


def _row(config, times, positions, jumps):
    """A path's row with config's window, measure and seed label."""
    return lf.PointBatch(times, positions, jumps, times.size, config.window,
                         config.measure, config.master_seed, config.start)


def add_atom(config, time: float, x: float, jump: float):
    """The path's (K,) row with one atom inserted in time order."""
    k = int(np.searchsorted(config.times, time))
    return _row(config, np.insert(config.times, k, time),
                np.insert(config.positions, k, x),
                np.insert(config.jumps, k, jump))


def remove_atom(config, index: int):
    """The path's (K,) row without its atom number index."""
    if not 0 <= index < config.n_atoms:
        raise lf.NoiseError(f"atom index {index} out of range")
    return _row(config, np.delete(config.times, index),
                np.delete(config.positions, index),
                np.delete(config.jumps, index))


def ito_integral(config, h, measure=None) -> float:
    """The compensated integral L(h) of one path's (K,) row."""
    measure = measure or config.measure
    total = float(np.dot(np.asarray(h(config.times, config.positions),
                                    dtype=float), config.jumps)) \
        if config.n_atoms else 0.0
    if measure.first_moment != 0.0:
        total -= measure.first_moment * lf.window_integral(h, config.window)
    return total


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
                             lambda cfg: ito_integral(cfg, h, measure))


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
