"""Pathwise compensated integrals against one noise realization.

For a finite-activity configuration, one row of a PointBatch, the
compensated integral of a deterministic integrand h is

    L(h) = sum_i h(t_i, x_i) z_i  -  m1 * int_0^T int_{-R}^{R} h(t, x) dx dt,

where m1 is the first moment of the jump measure.  The jump sum is exact;
the compensator's window integral is a tensor Gauss-Legendre rule, split
into panels at the integrand's declared x breakpoints and checked to 1e-9
relative, and it drops out entirely when m1 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .noise import LevyMeasure, PointBatch, SpaceTimeWindow, sample_batches
from .reporting import EstimatorSummary, summarize

# the window rule: Gauss-Legendre of orders _ORDERS per panel must agree to
# _RULE_RTOL of int int |h|, else every panel is halved, at most
# _MAX_HALVINGS times.  One order is even and one odd, so the two never place
# an undeclared jump at the same point of a panel's interior (two even
# orders both put one between their central nodes at the panel's midpoint).
_ORDERS = (16, 33)
_RULE_RTOL = 1e-9
_MAX_HALVINGS = 4


class IntegrandError(ValueError):
    pass


class MissingFieldError(ValueError):
    """A required field value (atom or grid) was absent or non-finite."""


@dataclass(frozen=True)
class Integrand:
    """Deterministic integrand h(t, x), vectorized over numpy arrays.

    `breaks` lists the x values where h may jump; the window rule splits its
    panels there.  Window integrals are memoized per window since they are
    reused across every realization of an ensemble.
    """

    fn: object
    name: str = "h"
    breaks: tuple = ()
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __call__(self, t, x):
        return self.fn(t, x)


def integrand(fn, name: str = "h",
              window: SpaceTimeWindow | None = None) -> Integrand:
    """Wrap h; if a window is given, run the finiteness gate on it."""
    h = Integrand(fn, name)
    if window is not None:
        check_square_integrable(h, window)
    return h


def box_indicator(x_lo: float, x_hi: float, name: str | None = None) -> Integrand:
    if not x_lo < x_hi:
        raise IntegrandError("need x_lo < x_hi")
    return Integrand(lambda t, x: np.where((x >= x_lo) & (x <= x_hi), 1.0, 0.0),
                     name or f"1[{x_lo},{x_hi}]", (x_lo, x_hi))


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def _composite(edges: np.ndarray, order: int):
    """Nodes and weights of the order-`order` rule on every panel."""
    nodes, weights = _gauss_legendre(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def _rule(fn, t_edges, x_edges, order: int):
    """(int int fn, int int |fn|) by the tensor rule of one order."""
    t, wt = _composite(t_edges, order)
    x, wx = _composite(x_edges, order)
    vals = np.broadcast_to(np.asarray(fn(t[:, None], x[None, :]),
                                      dtype=float), (t.size, x.size))
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("integrand is not finite at a quadrature node")
    return float(wt @ vals @ wx), float(wt @ np.abs(vals) @ wx)


def _halve(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.insert(edges, np.arange(1, edges.size), mids)


def _window_quad(fn, window: SpaceTimeWindow, breaks=()) -> float:
    """int_0^T int_{-R}^{R} fn(t, x) dx dt by tensor Gauss-Legendre on panels
    split at the x breakpoints inside the window.  The higher order's value
    is returned once the two orders agree to 1e-9 of int int |fn|; raises
    IntegrandError if halving every panel does not get there.  An
    undeclared jump is caught unless it lies between a panel's edge and
    both orders' outermost nodes, where no rule that samples fn can see it."""
    t_edges = np.array([0.0, window.T])
    x_edges = np.unique(np.concatenate(
        [[-window.R, window.R],
         [b for b in breaks if -window.R < b < window.R]]))
    low, high = _ORDERS
    for _ in range(_MAX_HALVINGS + 1):
        coarse, _ = _rule(fn, t_edges, x_edges, low)
        fine, scale = _rule(fn, t_edges, x_edges, high)
        if abs(fine - coarse) <= _RULE_RTOL * scale:
            return fine
        t_edges, x_edges = _halve(t_edges), _halve(x_edges)
    raise IntegrandError(
        f"window rule missed rel. tol {_RULE_RTOL:g} after {_MAX_HALVINGS} "
        "panel halvings: h is too peaked, or jumps at an x it does not "
        "declare in Integrand.breaks")


def window_integral(h: Integrand, window: SpaceTimeWindow) -> float:
    """int int h over the window by the window rule, memoized."""
    key = ("int", window.T, window.R)
    if key not in h._cache:
        h._cache[key] = _window_quad(h.fn, window, h.breaks)
    return h._cache[key]


def window_sq_integral(h: Integrand, window: SpaceTimeWindow) -> float:
    """int int h^2 over the window (the isometry normalizer), memoized."""
    key = ("sq", window.T, window.R)
    if key not in h._cache:
        h._cache[key] = _window_quad(lambda t, x: h.fn(t, x) ** 2, window,
                                     h.breaks)
    return h._cache[key]


def inner_product(h: Integrand, g: Integrand, window: SpaceTimeWindow) -> float:
    """int int h * g over the window, split at the breakpoints of both."""
    return _window_quad(lambda t, x: h.fn(t, x) * g.fn(t, x), window,
                        h.breaks + g.breaks)


def check_square_integrable(h: Integrand, window: SpaceTimeWindow,
                            n_grid: int = 129) -> float:
    """Finiteness gate: h must evaluate finite on a grid and have a finite
    squared window integral.  Returns the squared integral."""
    t = np.linspace(0.0, window.T, n_grid)
    x = np.linspace(-window.R, window.R, n_grid)
    vals = np.asarray(h(t[:, None], x[None, :]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise IntegrandError(f"integrand {h.name!r} is not finite on the window")
    sq = window_sq_integral(h, window)
    if not np.isfinite(sq):
        raise IntegrandError(f"integrand {h.name!r} has non-finite square integral")
    return sq


def ito_integrals(batch: PointBatch, h: Integrand,
                  measure: LevyMeasure | None = None) -> np.ndarray:
    """The compensated integral L(h) of each row: (n_paths,) for a batch's
    (P, K) rows, a float for one path's (K,) row.  h is evaluated at the
    atoms only, never at the padding."""
    measure = measure or batch.measure
    vals = np.asarray(h(batch.times[batch.mask], batch.positions[batch.mask]),
                      dtype=float)
    if not np.all(np.isfinite(vals)):
        raise IntegrandError(f"integrand {h.name!r} not finite at an atom")
    terms = np.zeros(batch.times.shape)
    terms[batch.mask] = vals * batch.jumps[batch.mask]
    # a running total per path over its atoms in time order
    total = np.ascontiguousarray(terms.T).sum(axis=0)
    if measure.first_moment != 0.0:
        total -= measure.first_moment * window_integral(h, batch.window)
    return total


def isometry_test(measure: LevyMeasure, h: Integrand, window: SpaceTimeWindow,
                  n_samples: int, seed: int) -> EstimatorSummary:
    """Monte Carlo check of E L(h)^2 = v * int int h^2.

    Realization i uses the derived stream (seed, i), so the estimate is
    reproducible and independent of evaluation order; the summary passes
    within SLACK_SIGMAS standard errors.
    """
    target = measure.second_moment * window_sq_integral(h, window)
    vals = np.concatenate([ito_integrals(batch, h, measure) for batch
                           in sample_batches(measure, window, seed,
                                             n_samples)])
    return summarize(f"isometry:{h.name}", vals * vals, target)
