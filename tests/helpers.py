"""Functions only the tests call: removing an atom from a configuration,
the iterated renewal convolutions, the Ito integral as a path functional
and the uniform bound on the deterministic part."""

import math
from dataclasses import replace

import numpy as np

import levyfield as lf


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
