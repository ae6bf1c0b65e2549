"""Iterated-convolution (renewal) bounds for nonnegative kernels on [0, T].

The central quantity is a_n = G(T)^n P(S_n <= T) where S_n is a sum of n
i.i.d. variables with density g / G(T) and G(T) = int_0^T g.  These scalars
control the sequence bound

    f_n(t) <= C_n + sum_{j=1}^{n-1} C_j a_{n-j} + C_0 a_n M          (*)

for any sequence of nonnegative grid functions satisfying the recursion
hypothesis f_{n+1}(t) <= C_n + int_0^t f_n(s) g(t-s) ds with non-increasing
constants C_n and M = sup f_0.  Everything here is deterministic grid
quadrature: densities by repeated trapezoid convolution (FFT with endpoint
corrections), probabilities by trapezoid integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .reporting import write_csv


class GronwallError(ValueError):
    pass


@dataclass(frozen=True)
class ConvolutionKernel:
    """Non-negative kernel g sampled on a uniform grid over [0, horizon].

    resolution = number of intervals; the grid has resolution + 1 points.
    """

    fn: object
    horizon: float
    resolution: int = 4096
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise GronwallError("horizon must be positive and finite")
        if self.resolution < 2:
            raise GronwallError("resolution must be at least 2 intervals")
        grid = np.linspace(0.0, self.horizon, self.resolution + 1)
        values = np.asarray([float(self.fn(t)) for t in grid], dtype=float)
        if not np.all(np.isfinite(values)):
            raise GronwallError("kernel takes non-finite values on the grid")
        if np.any(values < 0.0):
            raise GronwallError("kernel must be non-negative on [0, T]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> float:
        return self.horizon / self.resolution

    @property
    def total_mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """(u * g)(t_i) = int_0^{t_i} u(s) g(t_i - s) ds by trapezoid rule.

        A real FFT of length at least u.size + v.size - 1 (no wrap-around)
        supplies the full lattice sum; the two endpoint terms enter with
        weight 1 there but 1/2 in the trapezoid rule, hence the
        corrections.  Mass leaving [0, T] is irrelevant for nonnegative
        inputs, so the tail of the full convolution is discarded.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid.shape:
            raise GronwallError("grid function has wrong shape")
        v = self.values
        n = 1 << (u.size + v.size - 2).bit_length()
        full = np.fft.irfft(np.fft.rfft(u, n) * np.fft.rfft(v, n), n)[:u.size]
        out = self.step * (full - 0.5 * u[0] * v - 0.5 * u * v[0])
        return np.maximum(out, 0.0)


def renewal_probabilities(kernel: ConvolutionKernel, n_max: int) -> np.ndarray:
    """a_n = G(T)^n P(S_n <= T) for n = 0..n_max, with a_0 = 1.

    The density of S_n (restricted to [0, T], which is all that matters for
    the probability) is built by repeated grid convolution of the normalized
    density g / G(T) with itself.
    """
    if n_max < 1:
        raise GronwallError("n_max must be at least 1")
    mass = kernel.total_mass
    if mass <= 0.0:
        raise GronwallError("degenerate kernel: G(T) = 0")
    q = kernel.values / mass
    out = np.empty(n_max + 1)
    out[0] = 1.0
    dens = q.copy()
    for n in range(1, n_max + 1):
        prob = float(np.trapezoid(dens, kernel.grid))
        out[n] = mass ** n * min(prob, 1.0)
        if n < n_max:
            # convolve applies g = mass * q, so divide once to stay with q
            dens = kernel.convolve(dens) / mass
    return out


def equality_sequence(kernel: ConvolutionKernel, constants,
                      n_max: int) -> np.ndarray:
    """f_0 = C_0, f_n = C_n + f_{n-1} * g: the recursion run at equality.

    For non-increasing constants this satisfies the bound hypothesis
    (f_{n+1} = C_{n+1} + f_n * g <= C_n + f_n * g), and unrolling gives
    f_n = C_n + sum C_{n-j} b_j + C_0 b_n, which meets (*) with equality at
    t = T when C_0 >= 1 and M = C_0.
    """
    C = np.asarray(constants, dtype=float)
    if C.size < n_max + 1:
        raise GronwallError("need n_max + 1 constants")
    f = np.empty((n_max + 1, kernel.grid.size))
    f[0] = C[0]
    for n in range(1, n_max + 1):
        f[n] = C[n] + kernel.convolve(f[n - 1])
    return f


@dataclass
class BoundReport:
    """Outcome of the sequence-bound check.

    margins[n - 1] = min over the grid of (bound_n - f_n); the bound for
    each n is a constant in t.  hypothesis_failure, when set, is the first
    (n, t) where the recursion hypothesis broke beyond slack.
    """

    n_max: int
    grid: np.ndarray
    f_at_worst: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray
    worst_t: np.ndarray
    slack: float
    hypothesis_ok: bool
    hypothesis_failure: tuple | None = None

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins)) if self.margins.size else 0.0

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and bool(np.all(self.margins >= -self.slack))

    def to_csv(self, path):
        rows = [[n + 1, self.worst_t[n], self.f_at_worst[n], self.bounds[n],
                 self.margins[n]] for n in range(self.n_max)]
        write_csv(path, ["n", "t", "f_n", "bound", "margin"], rows)


def verify_bound(f, constants, kernel: ConvolutionKernel, M: float,
                 slack: float | None = None) -> BoundReport:
    """Check the sequence bound (*) for f_1..f_{n_max} on the grid.

    The recursion hypothesis is checked first; a violation beyond slack
    short-circuits with the first failing (n, t) recorded.  slack defaults
    to 1e-4 relative to each compared level, covering the trapezoid error
    of both sides at default resolution.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[None, :]
    if f.ndim != 2 or f.shape[1] != kernel.grid.size:
        raise GronwallError("f must be a sequence of grid functions")
    n_max = f.shape[0] - 1
    C = np.asarray(constants, dtype=float)
    if C.size < n_max + 1:
        raise GronwallError("need one constant per sequence element")
    if np.any(f < 0.0) or np.any(C < 0.0) or M < 0.0:
        raise GronwallError("bound check needs nonnegative data")
    rel = 1e-4 if slack is None else slack

    hypothesis_ok = True
    failure = None
    for n in range(n_max):
        # target-indexed: f_{n+1} <= C_{n+1} + f_n * g, matching the bound
        rhs = C[n + 1] + kernel.convolve(f[n])
        gap = f[n + 1] - rhs
        tol = rel * (1.0 + np.abs(rhs))
        bad = np.nonzero(gap > tol)[0]
        if bad.size:
            hypothesis_ok = False
            failure = (n + 1, float(kernel.grid[bad[0]]))
            break

    a = renewal_probabilities(kernel, max(n_max, 1))
    bounds = np.empty(max(n_max, 0))
    margins = np.empty(max(n_max, 0))
    worst_t = np.empty(max(n_max, 0))
    f_at_worst = np.empty(max(n_max, 0))
    slack_abs = 0.0
    for n in range(1, n_max + 1):
        bound = C[n] + float(np.dot(C[1:n], a[1:n][::-1])) + C[0] * a[n] * M
        j = int(np.argmax(f[n]))
        bounds[n - 1] = bound
        margins[n - 1] = bound - f[n, j]
        worst_t[n - 1] = kernel.grid[j]
        f_at_worst[n - 1] = f[n, j]
        slack_abs = max(slack_abs, rel * (1.0 + abs(bound)))
    return BoundReport(n_max, kernel.grid, f_at_worst, bounds, margins,
                       worst_t, slack_abs, hypothesis_ok, failure)


@dataclass
class SummabilityReport:
    """Partial sums and successive ratios of a_n^{1/p}.

    A finite computation cannot certify an infinite sum; the pass criterion
    encodes the decay mechanism instead: the ratio sequence must be strictly
    decreasing over the computed range and end below 1.
    """

    p: float
    a: np.ndarray
    roots: np.ndarray
    partial_sums: np.ndarray
    ratios: np.ndarray
    decreasing_ok: bool
    tail_ok: bool

    @property
    def passed(self) -> bool:
        return self.decreasing_ok and self.tail_ok

    def to_csv(self, path):
        rows = [[n, self.a[n], self.partial_sums[n]]
                for n in range(self.a.size)]
        write_csv(path, ["n", "a_n", "partial_sum_p"], rows)


def summability_check(a, p: float) -> SummabilityReport:
    if p <= 1.0:
        raise GronwallError("summability exponent must satisfy p > 1")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise GronwallError("sequence must be nonnegative and finite")
    roots = a ** (1.0 / p)
    partial = np.cumsum(roots)
    # ratios only over the strictly positive prefix; a zero tail is
    # super-geometric decay by itself
    pos = np.nonzero(roots <= 0.0)[0]
    stop = int(pos[0]) if pos.size else roots.size
    ratios = roots[1:stop] / roots[:stop - 1] if stop >= 2 \
        else np.empty(0)
    decreasing_ok = bool(ratios.size >= 2
                         and np.all(np.diff(ratios) < 0.0))
    tail_ok = bool(ratios.size and ratios[-1] < 1.0)
    if stop < roots.size:
        # hit an exact zero: treat as decayed
        decreasing_ok = True
        tail_ok = True
    return SummabilityReport(p, a, roots, partial, ratios, decreasing_ok,
                             tail_ok)
