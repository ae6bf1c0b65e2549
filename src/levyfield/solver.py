"""Pathwise mild-equation solvers.

The mild form of the perturbed equation is

    u(t,x) = w(t,x) + int_0^t int G(t-s, x-y) sigma(u(s,y)) dL(s,y),

with w the deterministic part of the unperturbed equation.  For a
finite-activity realization with m1 = 0 the right-hand side is a finite sum
over atoms strictly before t, so solving forward in atom time is exact:
the value at atom k depends only on atoms j < k.  Picard iteration from
u_0 = w is the constructive counterpart; at the atoms its dependency
structure is strictly lower triangular, so it reaches the forward solution
exactly once the iteration count passes the longest interaction chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import GreenKernel
from .integrals import GridField, MissingFieldError, stochastic_convolution
from .noise import (LevyMeasure, PointConfiguration, SpaceTimeWindow,
                    sample_prm)
from .reporting import SLACK_SIGMAS, write_csv


class SolverError(ValueError):
    pass


def _abs_map(u):
    return np.abs(u)


def _sin_map(u):
    return np.sin(u)


@dataclass(frozen=True)
class ScalarMap:
    """The multiplicative nonlinearity sigma with its declared constants.

    lipschitz bounds |sigma(x)-sigma(y)| <= lipschitz*|x-y| and growth bounds
    |sigma(x)| <= growth*(1+|x|).  `kind` names the map: "affine"
    (a*u + b), "abs" and "sin" are built in; any other kind calls `fn`.
    Every check in the package holds for any Lipschitz sigma, so no kind
    is special beyond how it is evaluated.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    fn: object = field(default=None, compare=False, repr=False)
    lipschitz: float = 0.0
    growth: float = 0.0

    def __call__(self, u):
        if self.kind == "affine":
            return self.a * u + self.b
        if self.kind == "abs":
            return _abs_map(u)
        if self.kind == "sin":
            return _sin_map(u)
        return self.fn(u)

    def label(self) -> str:
        if self.kind == "affine":
            return f"affine({self.a:g},{self.b:g})"
        return self.kind


def affine_map(a: float, b: float) -> ScalarMap:
    return ScalarMap("affine", a=a, b=b,
                     lipschitz=abs(a), growth=max(abs(a), abs(b)))


def constant_map(b: float) -> ScalarMap:
    return affine_map(0.0, b)


_NAMED_MAPS = ("affine", "constant", "abs", "sin")


def custom_map(fn, lipschitz: float, name: str = "custom") -> ScalarMap:
    # ScalarMap dispatches on its kind, so a built-in name would silently
    # replace fn by the built-in map
    if name in _NAMED_MAPS:
        raise SolverError(f"custom map name {name!r} is reserved for "
                          "named_map")
    return ScalarMap(name, fn=fn, lipschitz=lipschitz,
                     growth=max(lipschitz, abs(float(fn(0.0)))))


def named_map(name: str, a: float = 0.5, b: float = 1.0) -> ScalarMap:
    if name == "affine":
        return affine_map(a, b)
    if name == "constant":
        return constant_map(b)
    if name == "abs":
        return ScalarMap("abs", lipschitz=1.0, growth=1.0)
    if name == "sin":
        return ScalarMap("sin", lipschitz=1.0, growth=1.0)
    raise SolverError(f"unknown nonlinearity {name!r}")


_IC_KINDS = ("constant", "cosine", "wave-pair")


@dataclass(frozen=True)
class ProblemSpec:
    """One perturbed-equation setup: kernel, nonlinearity, deterministic
    part, window, and the default output grid resolution."""

    kernel: GreenKernel
    sigma: ScalarMap
    ic_kind: str
    window: SpaceTimeWindow
    ic_value: float = 1.0
    n_t: int = 64
    n_x: int = 64

    def __post_init__(self):
        if self.ic_kind not in _IC_KINDS:
            raise SolverError(f"unknown initial condition {self.ic_kind!r}")
        if self.ic_kind == "wave-pair" and self.kernel.kind != "wave":
            raise SolverError("wave-pair initial data needs the wave kernel")
        if self.n_t < 2 or self.n_x < 2:
            raise SolverError("grid resolution must be at least 2x2")
        self._spot_check_sigma()

    def _spot_check_sigma(self, n_pairs: int = 256):
        # cheap randomized audit of the declared constants
        rng = np.random.default_rng(0)
        xs = rng.uniform(-10.0, 10.0, size=(n_pairs, 2))
        fx = self.sigma(xs[:, 0])
        fy = self.sigma(xs[:, 1])
        gap = np.abs(xs[:, 0] - xs[:, 1])
        tol = 1e-9
        if np.any(np.abs(fx - fy) > self.sigma.lipschitz * gap + tol):
            raise SolverError("sigma violates its declared Lipschitz constant")
        if np.any(np.abs(fx) > self.sigma.growth * (1.0 + np.abs(xs[:, 0])) + tol):
            raise SolverError("sigma violates its declared growth constant")

    def grid(self):
        t = np.linspace(0.0, self.window.T, self.n_t)
        x = np.linspace(-self.window.R, self.window.R, self.n_x)
        return t, x


def deterministic_part(problem: ProblemSpec, t, x):
    """Closed-form solution of the unperturbed equation at (t, x).

    heat/constant c -> c;   heat/cosine -> exp(-t/2) cos x
    wave/constant c -> c (initial velocity 0)
    wave/cosine     -> cos x cos t (initial velocity 0)
    wave/wave-pair  -> cos x (cos t + sin t) (initial position and velocity
                       both cos, by the d'Alembert formula)
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t < 0.0) or np.any(t > problem.window.T):
        raise SolverError("deterministic part evaluated outside [0, T]")
    kind = problem.ic_kind
    if kind == "constant":
        out = np.broadcast_to(np.asarray(problem.ic_value, dtype=float),
                              np.broadcast_shapes(t.shape, x.shape)).copy()
    elif kind == "cosine":
        if problem.kernel.kind == "heat":
            out = np.exp(-t / 2.0) * np.cos(x)
        else:
            out = np.cos(x) * np.cos(t)
    else:  # wave-pair
        out = np.cos(x) * (np.cos(t) + np.sin(t))
    return out if out.ndim else float(out)


def initial_condition_bound(problem: ProblemSpec) -> float:
    """Uniform bound on |w| over the window (w is continuous and bounded)."""
    if problem.ic_kind == "constant":
        return abs(problem.ic_value)
    if problem.ic_kind == "cosine":
        return 1.0
    return math.sqrt(2.0)


def _column(v):
    return np.asarray(v, dtype=float).reshape(-1, 1)


def _row(v):
    return np.asarray(v, dtype=float).reshape(1, -1)


def pairwise_interaction_matrix(kernel: GreenKernel, target_t, target_x,
                                source_t, source_x):
    """Out[i, j] = G(target_t_i - source_t_j, target_x_i - source_x_j) where
    the source time is strictly earlier, else 0.

    Target times and positions broadcast against each other (one grid time
    with a vector of positions gives one grid row).  G is evaluated only at
    the causal pairs, and without a mask when every pair is causal.
    """
    dt = _column(target_t) - _row(source_t)
    dx = _column(target_x) - _row(source_x)
    if dt.size and dt.min() > 0.0:
        return kernel.evaluate(dt, dx)
    shape = np.broadcast_shapes(dt.shape, dx.shape)
    out = np.zeros(shape)
    mask = np.broadcast_to(dt > 0.0, shape)
    if mask.any():
        out[mask] = kernel.evaluate(np.broadcast_to(dt, shape)[mask],
                                    np.broadcast_to(dx, shape)[mask])
    return out


@dataclass
class SolutionPath:
    """Solution values at the atoms (exact support of the jump part) and on
    a rectangular output grid."""

    config: PointConfiguration
    problem: ProblemSpec
    atom_values: np.ndarray
    solver: str
    grid_times: np.ndarray | None = None
    grid_positions: np.ndarray | None = None
    grid_values: np.ndarray | None = None

    def atoms_csv(self, path) -> None:
        rows = [[t, x, z, u] for (t, x, z), u
                in zip(self.config.atoms, self.atom_values)]
        write_csv(path, ["t", "x", "z", "u"], rows)

    def grid_csv(self, path) -> None:
        if self.grid_values is None:
            raise SolverError("path has no grid values")
        rows = [[tj, xl, self.grid_values[j, l]]
                for j, tj in enumerate(self.grid_times)
                for l, xl in enumerate(self.grid_positions)]
        write_csv(path, ["t", "x", "u"], rows)


def evaluate_solution(path: SolutionPath, t: float, x: float) -> float:
    """Evaluate the mild-form right-hand side at (t, x) from the atom values."""
    problem = path.problem
    grid_field = None
    if path.config.measure.first_moment != 0.0:
        if path.grid_values is None:
            raise MissingFieldError("m1 != 0 evaluation needs grid values")
        grid_field = GridField(path.grid_times, path.grid_positions,
                               path.grid_values)
    w = deterministic_part(problem, t, x)
    return w + stochastic_convolution(path.config, problem.kernel,
                                      problem.sigma, path.atom_values, t, x,
                                      grid_field=grid_field)


def _project_grid(problem: ProblemSpec, config: PointConfiguration, coefs):
    """Grid values w + sum_{t_i < t_j} G(t_j - t_i, x_l - x_i) coefs_i.

    coefs is (k,) for one field or (m, k) for m fields over the same atoms
    (out: (n_t, n_x) or (m, n_t, n_x)).  Atoms are time sorted, so the
    atoms before grid time t_j are a prefix; each grid time's kernel block
    is built once and applied to every field.
    """
    grid_t, grid_x = problem.grid()
    coefs = np.asarray(coefs, dtype=float)
    w = np.asarray(deterministic_part(problem, grid_t[:, None],
                                      grid_x[None, :]), dtype=float)
    out = np.broadcast_to(w, coefs.shape[:-1] + w.shape).copy()
    prefix = np.searchsorted(config.times, grid_t)
    for j, (tj, kj) in enumerate(zip(grid_t, prefix)):
        if kj:
            block = pairwise_interaction_matrix(
                problem.kernel, tj, grid_x, config.times[:kj],
                config.positions[:kj])
            out[..., j, :] += coefs[..., :kj] @ block.T
    return grid_t, grid_x, out


def picard_grid_iterates(problem: ProblemSpec, config: PointConfiguration,
                         iterates):
    """Grid values (n + 1, n_t, n_x) of the Picard iterates u_0..u_n from
    their atom values: u_0 = w, and u_m projects sigma(u_{m-1}) z."""
    coefs = np.zeros((len(iterates), config.n_atoms))
    for m, prev in enumerate(iterates[:-1], start=1):
        coefs[m] = problem.sigma(prev) * config.jumps
    return _project_grid(problem, config, coefs)[2]


def sup_estimate(sums, sums_sq, n: int):
    """Grid sup of an ensemble mean, from the ensemble sums of a quantity
    and of its square: the max over the last axis of sums / n, and the
    standard error of that mean at the maximizing grid point."""
    mean = sums / n
    var = np.maximum(sums_sq / n - mean ** 2, 0.0) * (n / max(n - 1, 1))
    arg = np.argmax(mean, axis=-1)[..., None]
    return (np.take_along_axis(mean, arg, axis=-1)[..., 0],
            np.sqrt(np.take_along_axis(var, arg, axis=-1)[..., 0] / n))


def solve_forward(config: PointConfiguration, problem: ProblemSpec,
                  with_grid: bool = True) -> SolutionPath:
    """Exact pathwise solution by forward substitution over time-sorted atoms.

    Only valid when the jump measure is compensator-free (m1 = 0); otherwise
    the solution is not a finite jump sum and picard_solve must be used.
    """
    if config.measure.first_moment != 0.0:
        raise SolverError("solve_forward requires m1 = 0; use picard_solve")
    kernel, sigma = problem.kernel, problem.sigma
    t, x, z = config.times, config.positions, config.jumps
    n = config.n_atoms
    u = np.empty(n)
    sigz = np.empty(n)
    for k in range(n):
        w = deterministic_part(problem, t[k], x[k])
        if k == 0:
            u[k] = w
        else:
            row = kernel.evaluate(t[k] - t[:k], x[k] - x[:k])
            u[k] = w + float(np.dot(np.atleast_1d(row), sigz[:k]))
        sigz[k] = sigma(u[k]) * z[k]
    path = SolutionPath(config, problem, u, solver="forward")
    if with_grid:
        path.grid_times, path.grid_positions, path.grid_values = \
            _project_grid(problem, config, sigz)
    return path


def mild_residual(path: SolutionPath) -> float:
    """Re-evaluate the mild equation at the atoms through an independent
    (full matrix) code path; returns the max absolute defect."""
    config, problem = path.config, path.problem
    if config.n_atoms == 0:
        return 0.0
    t, x = config.times, config.positions
    M = pairwise_interaction_matrix(problem.kernel, t, x, t, x)
    w = deterministic_part(problem, t, x)
    rhs = w + M @ (problem.sigma(path.atom_values) * config.jumps)
    return float(np.max(np.abs(path.atom_values - rhs)))


@dataclass
class PicardDiagnostics:
    sup_differences: np.ndarray  # max-atom |u_m - u_{m-1}|, m = 1..n_iter

    def to_csv(self, path) -> None:
        write_csv(path, ["n", "sup_diff"],
                  [[m + 1, d] for m, d in enumerate(self.sup_differences)])


def picard_iterates_at_atoms(config: PointConfiguration, problem: ProblemSpec,
                             n_iter: int, M=None):
    """Atom-value Picard iterates [u_0, ..., u_n]; m1 = 0 fast path.  M is
    the atoms' interaction matrix, when the caller already holds it."""
    if config.measure.first_moment != 0.0:
        raise SolverError("atom-only iteration requires m1 = 0")
    t, x = config.times, config.positions
    if M is None:
        M = pairwise_interaction_matrix(problem.kernel, t, x, t, x)
    w = np.atleast_1d(np.asarray(deterministic_part(problem, t, x),
                                 dtype=float))
    iterates = [w.copy()]
    for _ in range(n_iter):
        prev = iterates[-1]
        iterates.append(w + M @ (problem.sigma(prev) * config.jumps))
    return iterates


def picard_solve(config: PointConfiguration, problem: ProblemSpec,
                 n_iter: int, with_grid: bool = True):
    """Picard iteration u_{m+1} = w + int G sigma(u_m) dL from u_0 = w.

    Returns (SolutionPath of the n-th iterate, PicardDiagnostics with the
    sup-atom differences).  When m1 != 0 the compensator is quadratured on
    the problem grid, so accuracy is grid-limited; with m1 = 0 the iteration
    is exact arithmetic on the atoms.

    The m1 != 0 branch builds the compensator once per call as a linear
    operator (_compensator_operator) and applies it with one matrix product
    per iteration.  It holds U * n_x^2 * 8 bytes of grid blocks, U the
    number of distinct grid time differences t_j - t_i (169 on the default
    64 x 64 grid: 5.5 MB), plus n_atoms * n_t * n_x * 8 bytes of atom rows
    (about four times that while they are built).
    """
    if n_iter < 0:
        raise SolverError("n_iter must be >= 0")
    kernel, sigma = problem.kernel, problem.sigma
    measure = config.measure
    if measure.first_moment == 0.0:
        iterates = picard_iterates_at_atoms(config, problem, n_iter)
        u = iterates[-1]
        diffs = np.array([float(np.max(np.abs(b - a))) if a.size else 0.0
                          for a, b in zip(iterates[:-1], iterates[1:])])
        path = SolutionPath(config, problem, u, solver=f"picard({n_iter})")
        if with_grid:
            # iterate n projects sigma of iterate n-1 (nothing for n = 0)
            coef = sigma(iterates[-2]) * config.jumps if n_iter else \
                np.zeros(config.n_atoms)
            path.grid_times, path.grid_positions, path.grid_values = \
                _project_grid(problem, config, coef)
        return path, PicardDiagnostics(diffs)

    # m1 != 0: carry the iterate on the grid for the compensator quadrature
    t, x = config.times, config.positions
    w_at = np.atleast_1d(np.asarray(deterministic_part(problem, t, x),
                                    dtype=float))
    grid_t, grid_x = problem.grid()
    u_gr = np.asarray(deterministic_part(problem, grid_t[:, None],
                                         grid_x[None, :]), dtype=float)
    M = pairwise_interaction_matrix(kernel, t, x, t, x)
    compensator = _compensator_operator(problem, config)
    u_at = w_at.copy()
    diffs = []
    m1 = measure.first_moment
    for _ in range(n_iter):
        comp_at, comp_gr = compensator(sigma(u_gr))
        coef = sigma(u_at) * config.jumps
        new_at = w_at + M @ coef - m1 * comp_at
        _, _, new_gr = _project_grid(problem, config, coef)
        new_gr -= m1 * comp_gr
        diffs.append(float(np.max(np.abs(new_at - u_at))) if u_at.size else
                     float(np.max(np.abs(new_gr - u_gr))))
        u_at, u_gr = new_at, new_gr
    path = SolutionPath(config, problem, u_at, solver=f"picard({n_iter})",
                        grid_times=grid_t, grid_positions=grid_x,
                        grid_values=u_gr)
    return path, PicardDiagnostics(np.array(diffs))


def _trapezoid_weights(s, counts):
    """Row r: trapezoid weights over the first counts[r] points of s, zero
    after them (and everywhere when counts[r] < 2)."""
    half = 0.5 * np.diff(s)
    i = np.arange(s.size)
    c = np.asarray(counts)[:, None]
    return (np.where(i < c - 1, np.append(half, 0.0), 0.0)
            + np.where((i >= 1) & (i < c), np.insert(half, 0, 0.0), 0.0))


def _compensator_operator(problem: ProblemSpec, config: PointConfiguration):
    """integrals._grid_compensator at every grid point and every atom, as
    one linear map of sigma(u) on the problem grid, built once.

    The quadrature is the same: trapezoid weights in t and x over the grid
    times before the target, plus the first-order tail
    sigma(u(s_last, x)) * int_0^{t - s_last} int G, linear in x at atoms
    (np.interp).  Grid targets use one block G(d, x_l - x_m) w_m per
    distinct floating-point time difference d = t_j - t_i; one block per
    lag at a representative time would flip the wave kernel's light-cone
    ties |x_l - x_m| = t_j - t_i.  Atom targets use dense rows over the
    grid.  Returns apply(svals), svals = sigma(u) on the grid (n_t, n_x),
    which gives (compensator at the atoms, compensator on the grid).
    """
    kernel = problem.kernel
    grid_t, grid_x = problem.grid()
    n_t, n_x = grid_t.size, grid_x.size
    wx = _trapezoid_weights(grid_x, [n_x])[0]

    # grid target j, grid source time i < j: pairs in row order
    jj, ii = np.tril_indices(n_t, -1)
    lags, lag_of = np.unique(grid_t[jj] - grid_t[ii], return_inverse=True)
    blocks = pairwise_interaction_matrix(
        kernel, np.repeat(lags, n_x), np.tile(grid_x, lags.size),
        np.zeros(n_x), grid_x) * wx                    # (U n_x, n_x)
    pair_w = _trapezoid_weights(grid_t, np.arange(n_t))[jj, ii]
    row_starts = np.searchsorted(jj, np.arange(1, n_t))
    tail = kernel.cumulative_mass_integral(np.diff(grid_t))[:, None]

    # atom k: sources at the grid times before t_k, tail on the last of them
    t, x = config.times, config.positions
    rows = pairwise_interaction_matrix(
        kernel, t, x, np.repeat(grid_t, n_x),
        np.tile(grid_x, n_t)).reshape(t.size, n_t, n_x)
    before = np.searchsorted(grid_t, t)
    rows *= _trapezoid_weights(grid_t, before)[:, :, None] * wx
    k = np.flatnonzero(before)
    last = before[k] - 1
    m = np.clip(np.searchsorted(grid_x, x[k], side="right") - 1, 0, n_x - 2)
    frac = (x[k] - grid_x[m]) / (grid_x[m + 1] - grid_x[m])
    mass = kernel.cumulative_mass_integral(t[k] - grid_t[last])
    rows[k, last, m] += (1.0 - frac) * mass
    rows[k, last, m + 1] += frac * mass
    rows = rows.reshape(t.size, n_t * n_x)

    def apply(svals):
        per_lag = (blocks @ svals.T).reshape(lags.size, n_x, n_t)
        terms = pair_w[:, None] * per_lag[lag_of, :, ii]
        grid = np.zeros((n_t, n_x))
        grid[1:] = np.add.reduceat(terms, row_starts, axis=0) \
            + tail * svals[:-1]
        return rows @ svals.ravel(), grid

    return apply


def convolve_square_mass(kernel: GreenKernel, t_grid, values, j: int) -> float:
    """int_0^{t_j} values(s) J(t_j - s) ds with J the squared-mass integrand,
    using exact per-cell masses of J (handles the heat-kernel endpoint
    singularity) and trapezoid values for the integrand.
    """
    if j == 0:
        return 0.0
    tj = t_grid[j]
    edges = kernel.cumulative_square_integral(tj - t_grid[:j + 1])
    cell_mass = edges[:-1] - edges[1:]  # mass of J over [s_l, s_{l+1}]
    mid_vals = 0.5 * (values[:j] + values[1:j + 1])
    return float(np.dot(cell_mass, mid_vals))


@dataclass
class ExistenceReport:
    """Ensemble diagnostics for the Picard scheme.

    h_values[n-1, j] estimates sup_x E|u_n - u_{n-1}|^2(t_j, x); the sup is a
    grid max (whether the true sup sits off-grid is not examined).  The
    recursion check compares each H_{n+1}(t) against
    v * lipschitz^2 * int_0^t H_n(s) J(t-s) ds plus SLACK_SIGMAS propagated
    standard errors.
    """

    t_grid: np.ndarray
    h_values: np.ndarray      # (n_iter, n_t)
    h_stderr: np.ndarray
    bounds: np.ndarray        # (n_iter, n_t); NaN where undefined (n = 1)
    bound_pass: np.ndarray    # bool, same shape
    sqrt_ratios: np.ndarray   # (n_iter - 1,)
    second_moment_sup: np.ndarray  # K-hat estimates per iterate, 0..n_iter
    n_realizations: int
    recursion_ok: bool
    decay_ok: bool
    bounded_ok: bool
    note: str = "sup over x is a grid max"

    @property
    def passed(self) -> bool:
        return self.recursion_ok and self.decay_ok and self.bounded_ok

    def to_csv(self, path) -> None:
        rows = []
        n_iter, n_t = self.h_values.shape
        for n in range(n_iter):
            for j in range(n_t):
                b = self.bounds[n, j]
                rows.append([n + 1, self.t_grid[j], self.h_values[n, j],
                             None if math.isnan(b) else b,
                             bool(self.bound_pass[n, j])])
        write_csv(path, ["n", "t", "H_n", "bound", "pass"], rows)


def existence_diagnostics(problem: ProblemSpec, measure: LevyMeasure,
                          n_realizations: int = 100, n_iter: int = 6,
                          master_seed: int = 0) -> ExistenceReport:
    """Monte Carlo audit of the Picard convergence mechanism.

    Checks, per grid time t: the recursion bound on successive-difference
    second moments (with statistical slack), the geometric decay of
    sqrt(sup_t H_n), and boundedness of the running second-moment sup.
    """
    if measure.first_moment != 0.0:
        raise SolverError("diagnostics assume a compensator-free measure")
    if n_iter < 2:
        raise SolverError("need at least two iterates to difference")
    grid_t, grid_x = problem.grid()
    n_t, n_x = grid_t.size, grid_x.size
    kernel, sigma = problem.kernel, problem.sigma

    s1 = np.zeros((n_iter, n_t, n_x))   # sum of squared differences
    s2 = np.zeros((n_iter, n_t, n_x))   # sum of fourth powers
    u1 = np.zeros((n_iter + 1, n_t, n_x))
    u2 = np.zeros((n_iter + 1, n_t, n_x))

    for i in range(n_realizations):
        config = sample_prm(measure, problem.window, (master_seed, i))
        grids = picard_grid_iterates(
            problem, config, picard_iterates_at_atoms(config, problem, n_iter))
        delta = np.diff(grids, axis=0)
        s1 += delta ** 2
        s2 += delta ** 4
        u1 += grids ** 2
        u2 += grids ** 4

    nr = n_realizations
    h, se_h = sup_estimate(s1, s2, nr)                # (n_iter, n_t)

    v = measure.second_moment
    lip2 = sigma.lipschitz ** 2
    bounds = np.full((n_iter, n_t), np.nan)
    bound_pass = np.ones((n_iter, n_t), dtype=bool)
    for n in range(1, n_iter):     # bound for H_{n+1} from H_n
        for j in range(n_t):
            conv = convolve_square_mass(kernel, grid_t, h[n - 1], j)
            conv_se = convolve_square_mass(kernel, grid_t, se_h[n - 1], j)
            bound = v * lip2 * conv
            slack = SLACK_SIGMAS * (se_h[n, j] + v * lip2 * conv_se) + 1e-15
            bounds[n, j] = bound
            bound_pass[n, j] = h[n, j] <= bound + slack
    recursion_ok = bool(np.all(bound_pass[1:]))

    sup_h = np.max(h, axis=1)
    ratios = np.array([math.sqrt(sup_h[n + 1] / sup_h[n]) if sup_h[n] > 0
                       else 0.0 for n in range(n_iter - 1)])
    tail = ratios[max(0, ratios.size - 3):]
    decay_ok = bool(tail.size == 0 or np.all(tail <= 0.9))

    k_mean, k_se = sup_estimate(u1.reshape(n_iter + 1, -1),
                                u2.reshape(n_iter + 1, -1), nr)
    bounded_ok = True
    for n in range(max(1, n_iter - 2), n_iter):
        step = abs(k_mean[n + 1] - k_mean[n])
        if step > SLACK_SIGMAS * (k_se[n + 1] + k_se[n]) + 0.05 * (1 + k_mean[n]):
            bounded_ok = False

    return ExistenceReport(grid_t, h, se_h, bounds, bound_pass, ratios,
                           k_mean, n_realizations, recursion_ok, decay_ok,
                           bool(bounded_ok))
