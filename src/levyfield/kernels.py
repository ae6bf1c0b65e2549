"""Closed-form Green functions of the 1d wave and heat operators.

wave  (d^2/dt^2 - d^2/dx^2):      G(t,x) = (1/2) 1{|x| <= t}
heat  (d/dt - (1/2) d^2/dx^2):    G(t,x) = (2 pi t)^(-1/2) exp(-x^2 / (2t))

Both have explicit Fourier transforms in x and explicit squared-mass
integrals, which the solvers and bound checkers lean on; quadrature versions
live in the test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reporting import write_csv

WAVE = "wave"
HEAT = "heat"


class KernelError(ValueError):
    pass


def _require(t, positive: bool, message: str):
    # every time > 0 (positive) or >= 0; NaN fails both, as min() keeps it
    if t.size and not (t.min() > 0.0 if positive else t.min() >= 0.0):
        raise KernelError(message)


_POSITIVE = "kernel evaluation needs strictly positive time"


@dataclass(frozen=True)
class GreenKernel:
    kind: str

    def __post_init__(self):
        if self.kind not in (WAVE, HEAT):
            raise KernelError(f"unknown kernel kind {self.kind!r}")

    def evaluate(self, t, x, out=None):
        """G(t, x) at t and x broadcast together; every t must be > 0 (a NaN
        time raises too).  Heat computes exp(-x x / (2 t)) / sqrt(2 pi t)
        operation by operation in one output buffer, so the only other
        temporaries have t's shape; the inputs are never written.

        out, a float array of the broadcast shape, takes the result in
        place of a new array and is returned; t is checked before out is
        written."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        _require(t, True, _POSITIVE)
        if out is None:
            out = np.empty(np.broadcast_shapes(t.shape, x.shape))
        if self.kind == WAVE:
            np.multiply(np.abs(x) <= t, 0.5, out=out)
        else:
            np.negative(x, out=out)
            out *= x
            scale = np.multiply(t, 2.0, out=np.empty(t.shape))
            out /= scale
            np.exp(out, out=out)
            np.multiply(t, 2.0 * math.pi, out=scale)
            out /= np.sqrt(scale, out=scale)
        return out if out.ndim else float(out)

    def fourier(self, t, xi):
        """Spatial Fourier transform F G(t,.)(xi); t >= 0.

        wave: sin(t|xi|)/|xi| (value t at xi = 0), heat: exp(-t xi^2 / 2).
        """
        t = np.asarray(t, dtype=float)
        xi = np.asarray(xi, dtype=float)
        _require(t, False, "fourier transform needs t >= 0")
        if self.kind == WAVE:
            # sin(t xi)/xi == t * sinc(t xi / pi), continuous through xi = 0
            out = t * np.sinc(t * xi / math.pi)
        else:
            out = np.exp(-0.5 * t * xi * xi)
        return out if out.ndim else float(out)

    def square_integral(self, t):
        """int G(t,x)^2 dx; wave t/2, heat (4 pi t)^(-1/2); t > 0."""
        t = np.asarray(t, dtype=float)
        _require(t, True, "square integral needs strictly positive time")
        out = t / 2.0 if self.kind == WAVE else 1.0 / np.sqrt(4.0 * math.pi * t)
        return out if out.ndim else float(out)

    def cumulative_square_integral(self, t):
        """int_0^t int G(s,x)^2 dx ds; wave t^2/4, heat sqrt(t/pi); t >= 0."""
        t = np.asarray(t, dtype=float)
        _require(t, False, "cumulative square integral needs t >= 0")
        out = t * t / 4.0 if self.kind == WAVE else np.sqrt(t / math.pi)
        return out if out.ndim else float(out)

    def mass_integral(self, t):
        """int G(t,x) dx; wave t, heat 1; t > 0."""
        t = np.asarray(t, dtype=float)
        _require(t, True, "mass integral needs strictly positive time")
        out = t if self.kind == WAVE else np.ones_like(t)
        return out if out.ndim else float(out)

    def cumulative_mass_integral(self, t):
        """int_0^t int G(s,x) dx ds; wave t^2/2, heat t; t >= 0."""
        t = np.asarray(t, dtype=float)
        _require(t, False, "cumulative mass integral needs t >= 0")
        out = t * t / 2.0 if self.kind == WAVE else t.copy()
        return out if out.ndim else float(out)


def wave_kernel() -> GreenKernel:
    return GreenKernel(WAVE)


def heat_kernel() -> GreenKernel:
    return GreenKernel(HEAT)


@dataclass
class H2Clause:
    clause: str
    quantity: str
    value: float
    passed: bool


@dataclass
class H2Report:
    """Grid certificate for the integrability hypotheses on a kernel.

    (a) finite cumulative squared mass over [0, horizon];
    (b) time-continuity of the Fourier transform, certified by grid
        refinement: the max consecutive-time jump must shrink when the time
        step is halved;
    (c) square-integrability of the dominating function
        k_t(xi) = sup_{h in [0,eps]} |FG(t+h,.)(xi) - FG(t,.)(xi)|,
        evaluated on the supplied grids.

    The certificate is only as strong as the grids: `note` records that the
    sup over h and the xi/t integrals are grid approximations, not proofs.
    """

    kernel_kind: str
    horizon: float
    eps: float
    clauses: list
    insufficient_resolution: bool
    note: str

    @property
    def passed(self) -> bool:
        return (not self.insufficient_resolution
                and all(c.passed for c in self.clauses))

    def to_csv(self, path) -> None:
        write_csv(path, ["clause", "quantity", "value", "pass"],
                  [[c.clause, c.quantity, c.value, c.passed]
                   for c in self.clauses])


# Gauss-Legendre of order n is exact up to degree 2n - 1; clause (a)'s
# integrand in u is a polynomial of degree at most 3
_CLAUSE_A_ORDER = 4


def _max_consecutive_jump(kernel, t_grid, xi_grid):
    ft = kernel.fourier(t_grid[:, None], xi_grid[None, :])
    return float(np.max(np.abs(np.diff(ft, axis=0))))


def check_h2(kernel: GreenKernel, horizon: float, eps: float,
             xi_grid=None, n_t: int = 101, n_h: int = 16) -> H2Report:
    """Certify the three integrability clauses on a grid.

    Degenerate grids (fewer than two xi points or three time points) are
    flagged as insufficient resolution rather than evaluated.
    """
    if xi_grid is None:
        xi_grid = np.linspace(-10.0, 10.0, 201)
    xi_grid = np.asarray(xi_grid, dtype=float)
    note = ("grid certificate: sup over h and the (t, xi) integrals are "
            "evaluated on finite grids")
    if xi_grid.size < 2 or n_t < 3 or eps <= 0 or horizon <= 0:
        return H2Report(kernel.kind, horizon, eps,
                        [H2Clause("resolution", "grid_points",
                                  float(xi_grid.size), False)],
                        insufficient_resolution=True, note=note)

    clauses = []

    # (a) nu_horizon < inf, by quadrature of the squared-mass integrand apart
    # from cumulative_square_integral: Gauss-Legendre in u = sqrt(s), where
    # int_0^h J(s) ds = int_0^sqrt(h) 2 u J(u^2) du is u^3 (wave) or constant
    # (heat), so the rule is exact and never meets heat's s^(-1/2) at s = 0
    nodes, weights = np.polynomial.legendre.leggauss(_CLAUSE_A_ORDER)
    u = 0.5 * math.sqrt(horizon) * (nodes + 1.0)
    val_a = 0.5 * math.sqrt(horizon) * float(
        np.sum(weights * 2.0 * u * kernel.square_integral(u * u)))
    clauses.append(H2Clause("a", "cumulative_square_mass", val_a,
                            bool(np.isfinite(val_a))))

    # (b) refinement of the max time-jump of the Fourier transform
    t_coarse = np.linspace(0.0, horizon, n_t)
    t_fine = np.linspace(0.0, horizon, 2 * n_t - 1)
    jump_c = _max_consecutive_jump(kernel, t_coarse, xi_grid)
    jump_f = _max_consecutive_jump(kernel, t_fine, xi_grid)
    ratio = jump_f / jump_c if jump_c > 0 else 0.0
    ok_b = (jump_f <= 0.75 * jump_c + 1e-12)
    clauses.append(H2Clause("b", "jump_refinement_ratio", float(ratio), ok_b))

    # (c) dominating function k_t(xi) over an h-grid in (0, eps]
    t_grid = t_coarse
    h_grid = np.linspace(0.0, eps, n_h + 1)[1:]
    ft_base = kernel.fourier(t_grid[:, None], xi_grid[None, :])
    k = np.zeros_like(ft_base)
    for h in h_grid:
        shifted = kernel.fourier(t_grid[:, None] + h, xi_grid[None, :])
        np.maximum(k, np.abs(shifted - ft_base), out=k)
    val_c = float(np.trapezoid(np.trapezoid(k * k, xi_grid, axis=1), t_grid))
    clauses.append(H2Clause("c", "dominating_sq_integral", val_c,
                            bool(np.isfinite(val_c))))

    return H2Report(kernel.kind, horizon, eps, clauses,
                    insufficient_resolution=False, note=note)
