"""Add-one-point difference derivatives of pathwise functionals.

For a functional F of the noise configuration, the derivative at the point
(r, xi, z) is the plain difference

    D_{r,xi,z} F = F(config + atom(r, xi, z)) - F(config),

i.e. the response of F to one extra atom.  All identity checks in this
module (chain rule, exponential formula, duality, the derivative
fixed-point equation and its Picard version) are verified against that
definition, with the two sides always assembled through independent code
paths.  difference_derivative takes one path's (K,) row.  The other
identities are checked a batch at a time (a path's row is a batch of one
row), the left side from the plus batch (add_atoms of each path's
derivative point): one CheckRow per path (per path and map for the chain
rule), with its raw residual, for the caller to gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrals import Integrand, inner_product, ito_integrals
from .noise import (LevyMeasure, PointBatch, SpaceTimeWindow, add_atoms,
                    atomic_decomposition, sample_batches)
from .reporting import (SLACK_SIGMAS, CheckRow, EstimatorSummary, summarize,
                        write_check_rows)
from .solver import (ProblemSpec, batched_matvec, causal_sums,
                     deterministic_part, evaluate_batch, evaluate_solution,
                     iterate_moment_sums, pairwise_interaction_matrix,
                     picard_iterates_at_atoms, solve_batch, solve_forward,
                     solve_forward_pair, sup_estimate)


class MalliavinError(ValueError):
    pass


@dataclass(frozen=True)
class DerivativePoint:
    """Location (time, x) and mark (jump) of the added atom."""

    time: float
    x: float
    jump: float

    def label(self) -> str:
        return f"r={self.time:.6g};xi={self.x:.6g};z={self.jump:.6g}"


@dataclass(frozen=True)
class PathFunctional:
    """Named deterministic map from one path's (K,) row to a real number."""

    name: str
    fn: object

    def __call__(self, config: PointBatch) -> float:
        return float(self.fn(config))

    def pair(self, config: PointBatch, point: DerivativePoint) -> tuple:
        """(F(config), F(config plus the atom at point)) by evaluating F
        twice, the plus row from add_atoms; a functional whose two values
        share work overrides it."""
        plus = add_atoms(config, point.time, point.x, point.jump)
        return self(config), self(plus)


@dataclass(frozen=True)
class _SolutionFunctional(PathFunctional):
    problem: ProblemSpec
    t: float
    x: float

    def pair(self, config: PointBatch, point: DerivativePoint) -> tuple:
        paths = solve_forward_pair(config, self.problem, point.time, point.x,
                                   point.jump)
        return tuple(float(evaluate_solution(p, self.t, self.x))
                     for p in paths)


def solution_functional(problem: ProblemSpec, t: float, x: float) -> PathFunctional:
    """Solution of the mild equation evaluated at (t, x); m1 = 0 only.  Its
    pair solves the path with and without the added atom in one sweep
    (solve_forward_pair)."""

    def fn(cfg):
        path = solve_forward(cfg, problem, with_grid=False)
        return evaluate_solution(path, t, x)

    return _SolutionFunctional(f"u({t:g},{x:g})", fn, problem, t, x)


def _validate_point(config: PointBatch, point: DerivativePoint):
    if not (0.0 < point.time < config.window.T):
        raise MalliavinError("derivative point time must lie in (0, T)")
    if not abs(point.x) <= config.window.R:
        raise MalliavinError("derivative point position outside [-R, R]")
    if point.jump == 0.0 or not math.isfinite(point.jump):
        raise MalliavinError("derivative point jump must be finite nonzero")


def difference_derivative(F: PathFunctional, config: PointBatch,
                          point: DerivativePoint) -> float:
    """D_{r,xi,z} F as the literal add-one-point difference of one path's
    row, F(config + atom) - F(config), both values from F.pair."""
    _validate_point(config, point)
    base, plus = F.pair(config, point)
    return plus - base


def _plus_batch(batch: PointBatch, points):
    """(batch, r, xi, z, plus): the rows as (P, K), one path's (K,) row as
    a batch of one row; (r, xi, z) of one DerivativePoint per path; and
    the plus batch."""
    if batch.times.ndim == 1:
        batch = PointBatch(batch.times[None], batch.positions[None],
                           batch.jumps[None], batch.counts[None],
                           batch.window, batch.measure, batch.master_seed,
                           batch.start)
    r, xi, z = (np.array([getattr(p, name) for p in points], dtype=float)
                for name in ("time", "x", "jump"))
    return batch, r, xi, z, add_atoms(batch, r, xi, z)


def _rows(check: str, params, lhs, rhs, residuals) -> list:
    return [CheckRow(check, p, float(a), float(b), float(c), None)
            for p, a, b, c in zip(params, lhs, rhs, residuals)]


def _integrals(h: Integrand, batch: PointBatch, points, measure):
    """(L(h), L(h) with the point added, h(r, xi) z), each per path."""
    batch, r, xi, z, plus = _plus_batch(batch, points)
    return (ito_integrals(batch, h, measure), ito_integrals(plus, h, measure),
            np.asarray(h(r, xi), dtype=float) * z)


def chain_rule_rows(h: Integrand, maps, batch: PointBatch, points,
                    measure: LevyMeasure | None = None) -> list:
    """D g(F) = g(F + DF) - g(F), F = L(h), for each (name, g) of maps (g
    vectorized): the difference operator obeys this chain rule exactly, so
    |lhs - rhs| is rounding only.  The left side differences g(F) over the
    plus batch and the batch; the right side adds DF = h(r, xi) z to F."""
    f0, f1, df = _integrals(h, batch, points, measure)
    lhs = np.stack([g(f1) - g(f0) for _, g in maps], axis=1).ravel()
    rhs = np.stack([g(f0 + df) - g(f0) for _, g in maps], axis=1).ravel()
    labels = [f"g={name};{p.label()}" for p in points for name, _ in maps]
    return _rows("chain-rule", labels, lhs, rhs, np.abs(lhs - rhs))


def exp_derivative_rows(h: Integrand, batch: PointBatch, points,
                        measure: LevyMeasure | None = None) -> list:
    """D exp(L(h)) = exp(L(h)) (exp(h(r, xi) z) - 1).  The left side
    differences exp(L(h)) over the plus batch and the batch; the right
    side uses expm1, never a difference of exponentials.  The residual is
    relative to the larger of |rhs| and exp(L(h))."""
    f0, f1, hz = _integrals(h, batch, points, measure)
    base = np.exp(f0)
    lhs, rhs = np.exp(f1) - base, base * np.expm1(hz)
    scale = np.maximum(np.maximum(np.abs(rhs), base), 1e-300)
    return _rows("exp-derivative", [p.label() for p in points], lhs, rhs,
                 np.abs(lhs - rhs) / scale)


def derivative_equation_rows(problem: ProblemSpec, batch: PointBatch,
                             points, t, x) -> list:
    """The derivative fixed-point equation of path j at (t[j], x[j]):

        Du(t,x) = G(t-r, x-xi) sigma(u(r,xi)) z
                  + sum_{r < t_i < t} G(t-t_i, x-x_i)
                        [sigma(u + Du) - sigma(u)](t_i,x_i) z_i

    for any Lipschitz sigma (the bracket is the exact increment); m1 = 0
    only.  The left side differences evaluate_batch over the solve_batch of
    the plus batch and the batch; the right side takes the kernel at the
    point, the base solve and the differenced atom values.  For r >= t the
    left side of an adapted functional must read exactly 0 (else
    MalliavinError), and the row is all 0."""
    batch, r, xi, z, plus = _plus_batch(batch, points)
    t, x = (np.asarray(v, dtype=float) for v in (t, x))
    kernel, sigma = problem.kernel, problem.sigma
    u, u_plus = solve_batch(batch, problem), solve_batch(plus, problem)
    lhs = evaluate_batch(plus, problem, u_plus, t, x) \
        - evaluate_batch(batch, problem, u, t, x)
    late = r >= t
    if np.any(lhs[late] != 0.0):
        j = int(np.flatnonzero(late & (lhs != 0.0))[0])
        raise MalliavinError(f"adaptedness violated: D at r={r[j]} >= "
                             f"t={t[j]} returned {lhs[j]!r}")
    # Du at the batch's atoms: the plus batch's added atom is the one at r
    du = u_plus[plus.times != r[:, None]].reshape(u.shape) - u
    sel = batch.mask & (batch.times > r[:, None]) & (batch.times < t[:, None])
    path = np.nonzero(sel)[0]
    terms = np.zeros(u.shape)
    terms[sel] = kernel.evaluate(t[path] - batch.times[sel],
                                 x[path] - batch.positions[sel]) \
        * (sigma(u[sel] + du[sel]) - sigma(u[sel])) * batch.jumps[sel]
    g_point = np.zeros(r.shape)
    g_point[~late] = kernel.evaluate(t[~late] - r[~late], x[~late] - xi[~late])
    # the atoms' terms as a running total per path, in time order
    rhs = g_point * sigma(evaluate_batch(batch, problem, u, r, xi)) * z \
        + np.ascontiguousarray(terms.T).sum(axis=0)
    labels = [f"{p.label()};t={a:.6g};x={b:.6g}"
              for p, a, b in zip(points, t, x)]
    return _rows("derivative-eq", labels, lhs, rhs, np.abs(lhs - rhs))


def duality_test(h: Integrand, g: Integrand, measure: LevyMeasure,
                 window: SpaceTimeWindow, n_samples: int,
                 seed: int) -> EstimatorSummary:
    """Monte Carlo duality check E[L(h) L(g)] = v <h, g>.

    The left side couples the functional F = L(h) with the divergence of the
    deterministic field X(t,x,z) = g(t,x) z, whose compensated integral is
    L(g) pathwise; the right side is exact quadrature.  The summary passes
    within SLACK_SIGMAS standard errors.
    """
    target = measure.second_moment * inner_product(h, g, window)
    prods = np.concatenate([
        ito_integrals(batch, h, measure) * ito_integrals(batch, g, measure)
        for batch in sample_batches(measure, window, seed, n_samples)])
    return summarize(f"duality:{h.name},{g.name}", prods, target)


def _plus_iterates(problem: ProblemSpec, z, base, at_point, M, A,
                   jump: float):
    """Yield the Picard iterates u_0, u_1, ..., (P, B, K) at the atoms of
    a padded batch plus the atom (r_b, xi_b, jump) for each of its B
    points, from _derivative_samples' base iterates, M and A.

    It stays apart from add_atoms: the plus batch of every path and point
    would hold P * B rows and their (P * B, K + 1, K + 1) kernel blocks,
    at BATCH_PATHS = 256 paths, B = 64 points and K about 36 atoms about
    170 MB, against the 31 MB peak of BATCH_PATHS' comment.  Here the
    plus atom's kernel row and column, A and at_point, are computed once
    per point and the base matrix M serves every point."""
    sigma = problem.sigma
    w_at = base[0][..., None, :]
    plus = np.broadcast_to(w_at, A.shape).copy()
    yield plus
    for m in range(1, len(base)):
        plus = (w_at + (sigma(plus) * z[..., None, :]) @ M.swapaxes(-1, -2)
                + A * (sigma(at_point[m - 1]) * jump)[..., None])
        yield plus


# the Picard derivative recursion is exact for the difference operator, so
# its residuals are rounding only; successive derivative iterates must
# contract by this ratio after their peak
RESIDUAL_TOL = 1e-12
DECAY_RATIO = 0.9


def _decays(cauchy, floor):
    """Per path, geometric decay of the increments (P, n) from their peak
    onward: early orders may grow while new interaction chains open up;
    the peak (rows <= floor (P,) are rounding: 0) must arrive within the
    first few orders, and the rows contract by DECAY_RATIO after it."""
    floor = floor[:, None]
    peak = np.argmax(np.where(cauchy > floor, cauchy, 0.0), axis=1)
    grows = cauchy[:, 1:] > np.maximum(DECAY_RATIO * cauchy[:, :-1], floor)
    after = np.arange(1, cauchy.shape[1]) > peak[:, None]
    return (peak <= 3) & ~np.any(grows & after, axis=1)


def picard_derivative_rows(problem: ProblemSpec, batch: PointBatch, points,
                           n_iter: int) -> tuple:
    """The Picard derivative recursion of each path of a batch, checked at
    its atoms for every order n (n_iter >= 1):

        Du_{n+1}(t,x) = G(t-r, x-xi) sigma(u_n(r,xi)) z
            + sum_i G(t-t_i, x-x_i) [sigma(u_n + Du_n) - sigma(u_n)](t_i) z_i

    Du_n is the literal difference of the picard_iterates_at_atoms runs of
    the plus batch and the batch; the right side uses the base iterates and
    Du only: the kick column G(t_i - r, x_i - xi), the added atom's value
    (the base iterate at the point, from its kernel row: it sees only
    earlier atoms), and causal_sums of the brackets.

    Returns (rows, verdict).  Per path, in path order: the n = 1 hand
    formula Du_1 = G sigma(w(r,xi)) z, the recursion at n = 1..n_iter, both
    gated at RESIDUAL_TOL * (1 + max|u_n|), and the Cauchy rows
    max|Du_{n+1} - Du_n| (ungated).  A path passes when Du_0 is exactly 0,
    its gated rows pass and its Cauchy rows decay (_decays)."""
    if n_iter < 1:
        raise MalliavinError("picard derivative recursion needs n_iter >= 1")
    measure = batch.measure
    if measure.first_moment != 0.0:
        raise MalliavinError("picard derivative recursion assumes m1 = 0")
    if measure.total_mass == 0.0:
        raise MalliavinError("picard derivative recursion needs a measure "
                             "of positive mass: no path has an atom")
    kernel, sigma = problem.kernel, problem.sigma
    batch, r, xi, jump, plus = _plus_batch(batch, points)
    t, x, z = batch.times, batch.positions, batch.jumps
    expected = measure.total_mass * batch.window.volume
    base, plus_its = (picard_iterates_at_atoms(problem, b.times, b.positions,
                                               b.jumps, n_iter, expected)
                      for b in (batch, plus))
    # drop the added atom, the one at r, from each plus iterate
    keep = plus.times != r[:, None]
    du = [p[keep].reshape(t.shape) - b for p, b in zip(plus_its, base)]
    r, xi = r[:, None], xi[:, None]
    kick = pairwise_interaction_matrix(kernel, t, x, r, xi)[..., 0]
    row = pairwise_interaction_matrix(kernel, r, xi, t, x)
    w_pt = deterministic_part(problem, r[:, 0], xi[:, 0])
    # the base iterate n at the point, from sigma of iterate n - 1
    at_point = [w_pt] + [w_pt + batched_matvec(row, sigma(b) * z)[:, 0]
                         for b in base[:-2]]
    kicks = [kick * (sigma(a) * jump)[:, None] for a in at_point]
    sums = causal_sums(kernel, t, x, np.stack(
        [(sigma(b + d) - sigma(b)) * z for b, d in zip(base, du[:-1])],
        axis=1))

    def sup(v):     # per path, over its atoms
        return np.max(np.where(batch.mask, np.abs(v), 0.0), axis=-1,
                      initial=0.0)

    # per path: the hand formula, then the recursion at n = 1..n_iter
    residuals = np.stack([sup(du[1] - kicks[0])] + [
        sup(d - (k + s)) for d, k, s in
        zip(du[1:], kicks, sums.swapaxes(0, 1))], axis=1)
    cauchy = np.stack([sup(b - a) for a, b in zip(du[:-1], du[1:])], axis=1)
    scale = 1.0 + np.max([sup(b) for b in base], axis=0)
    gated = residuals <= RESIDUAL_TOL * scale[:, None]
    passed = (sup(du[0]) == 0.0) & gated.all(axis=1) \
        & _decays(cauchy, 1e-14 * scale)
    labels = ["n=1 hand formula"] + [f"recursion n={i + 1}"
                                     for i in range(n_iter)]
    rows = []
    for j in range(batch.n_paths):
        rows += [CheckRow("picard-derivative", p, 0.0, 0.0, float(v), bool(ok))
                 for p, v, ok in zip(labels, residuals[j], gated[j])]
        rows += [CheckRow("picard-derivative", f"cauchy n={i}", float(c),
                          0.0, float(c), None)
                 for i, c in enumerate(cauchy[j])]
    return rows, bool(passed.all())


@dataclass
class DerivativeBoundReport:
    """Monte Carlo estimates of E || Du_n(t,x) ||^2 (integral of the squared
    difference derivative over dr dxi nu(dz)) with the moment-recursion
    bound

        A_{n+1} <= 4 v growth^2 (1 + K_n) nu_t + 2 v lipschitz^2 A_n nu_t

    checked up to SLACK_SIGMAS propagated standard errors.  Derivative
    points are sampled uniformly from the window (an unbiased reference
    measure), jumps reduced to the atomic/quadrature form of nu.
    """

    eval_points: list
    estimates: np.ndarray      # (n_iter, n_pts)
    stderrs: np.ndarray
    second_moment_sup: np.ndarray   # K-hat per iterate 0..n_iter
    rows: list
    recursion_ok: bool
    stable_ok: bool

    @property
    def passed(self) -> bool:
        return self.recursion_ok and self.stable_ok

    def to_csv(self, path):
        write_check_rows(path, self.rows)


def derivative_bound_estimate(problem: ProblemSpec, measure: LevyMeasure,
                              n_realizations: int = 100, n_points: int = 64,
                              n_iter: int = 8, eval_points=None,
                              master_seed: int = 0) -> DerivativeBoundReport:
    """Estimate the derivative second moments of the Picard iterates.

    Per realization, derivative points (r, xi) are drawn uniformly on the
    window and the squared batch derivative at each evaluation point is
    averaged against the jump measure's atomic decomposition; the window
    volume turns the average into the H-norm integral.  K-hat (the running
    sup of E|u_n|^2) is estimated as a grid max from the same ensemble.
    The rows gate the recursion at every evaluation point and iterate, and
    each of the last three steps A_{n+1} - A_n (stable_ok).

    For the heat kernel the SLACK_SIGMAS gate is not valid: int int G^4
    diverges as r -> t, so the estimate has infinite variance and its
    studentized error is not close to N(0, 1).
    """
    if measure.first_moment != 0.0:
        raise MalliavinError("derivative bound estimation assumes m1 = 0")
    if measure.total_mass == 0.0:
        raise MalliavinError("derivative bound needs a measure of positive "
                             "mass: no path has an atom")
    if n_realizations < 100:
        raise MalliavinError("derivative bound needs at least 100 realizations")
    if n_iter < 2:      # else the recursion and stability gates have no row
        raise MalliavinError("derivative bound needs n_iter >= 2")
    window = problem.window
    if eval_points is None:
        eval_points = [(window.T, 0.0)]
    if n_points < 1 or not len(eval_points):
        raise MalliavinError("derivative bound needs at least one derivative "
                             "point and one evaluation point")
    per_real = np.zeros((n_realizations, n_iter, len(eval_points)))
    k_sums = None
    for batch in sample_batches(measure, window, master_seed,
                                n_realizations):
        rows = slice(batch.start, batch.start + batch.n_paths)
        per_real[rows], part = _derivative_samples(
            problem, batch, n_points, n_iter, eval_points)
        k_sums = part if k_sums is None else \
            [a + b for a, b in zip(k_sums, part)]
    return _derivative_bound_report(problem, measure, list(eval_points),
                                    per_real, *k_sums)


def _derivative_samples(problem: ProblemSpec, batch, n_points: int,
                        n_iter: int, eval_points):
    """One batch of derivative_bound_estimate's ensemble:
    ((paths, n_iter, eval points) per-realization estimates of
    E||Du_n||^2, [sum u_m^2, sum u_m^4] on the grid).  Realization i draws
    its derivative points from its own stream (master_seed, i, 1)."""
    kernel, sigma = problem.kernel, problem.sigma
    window = problem.window
    zq, wq = atomic_decomposition(batch.measure)
    t, x, z = batch.times, batch.positions, batch.jumps
    pts_t = np.empty((batch.n_paths, n_points))
    pts_x = np.empty_like(pts_t)
    for j in range(batch.n_paths):
        rng = np.random.default_rng(np.random.SeedSequence(
            batch.master_seed, spawn_key=(batch.start + j, 1)))
        pts_t[j] = rng.uniform(0.0, window.T, n_points)
        pts_x[j] = rng.uniform(-window.R, window.R, n_points)
    M = pairwise_interaction_matrix(kernel, t, x, t, x)
    P = pairwise_interaction_matrix(kernel, pts_t, pts_x, t, x)
    A = pairwise_interaction_matrix(kernel, t, x, pts_t,
                                    pts_x).swapaxes(-1, -2)
    base = picard_iterates_at_atoms(problem, t, x, z, n_iter,
                                    batch.measure.total_mass * window.volume)
    w_pt = np.array(deterministic_part(problem, pts_t, pts_x), dtype=float,
                    ndmin=1)
    at_point = [w_pt] + [w_pt + batched_matvec(P, sigma(b) * z)
                         for b in base[:-1]]
    k_sums = iterate_moment_sums(problem, t, x, z, base)
    # iterate n at an evaluation point from sigma of iterate n-1; the base
    # values and kernel rows do not depend on the jump mark
    sig_pt = [sigma(a) for a in at_point[:-1]]
    evals = []
    for te, xe in eval_points:
        w = float(np.asarray(deterministic_part(problem, te, xe)))
        g_row = pairwise_interaction_matrix(kernel, te, xe, t, x)[:, 0]
        g_pt = pairwise_interaction_matrix(kernel, te, xe, pts_t, pts_x)[:, 0]
        base_vals = [w + batched_matvec(g_row[:, None, :], sigma(b) * z)
                     for b in base[:-1]]
        evals.append((w, g_row, g_pt, base_vals))
    dens = np.zeros((n_iter, len(eval_points), batch.n_paths, n_points))
    for z_val, z_w in zip(zq, wq):
        plus = _plus_iterates(problem, z, base, at_point, M, A, z_val)
        for n, p_it in zip(range(1, n_iter + 1), plus):
            sig_plus = sigma(p_it) * z[:, None, :]
            for p, (w, g_row, g_pt, base_vals) in enumerate(evals):
                pval = w + batched_matvec(sig_plus, g_row) \
                    + g_pt * sig_pt[n - 1] * z_val
                dens[n - 1, p] += z_w * (pval - base_vals[n - 1]) ** 2
    per_real = window.volume * np.moveaxis(dens.mean(axis=-1), -1, 0)
    return per_real, k_sums


def _derivative_bound_report(problem: ProblemSpec, measure: LevyMeasure,
                             eval_points, per_real, k1, k2
                             ) -> DerivativeBoundReport:
    """The estimates and gates of derivative_bound_estimate from its
    per-realization estimates and its sums of u_m^2 and u_m^4 on the
    grid."""
    kernel, sigma = problem.kernel, problem.sigma
    n_realizations, n_iter, _ = per_real.shape
    est = per_real.mean(axis=0)
    se = per_real.std(axis=0, ddof=1) / math.sqrt(n_realizations) \
        if n_realizations > 1 else np.zeros_like(est)
    k_hat, k_se = sup_estimate(k1.reshape(n_iter + 1, -1),
                               k2.reshape(n_iter + 1, -1), n_realizations)

    v = measure.second_moment
    growth2 = sigma.growth ** 2
    lip2 = sigma.lipschitz ** 2
    rows_out = []
    recursion_ok = True
    for p, (te, xe) in enumerate(eval_points):
        nu_t = kernel.cumulative_square_integral(te)
        for n in range(1, n_iter):
            bound = 4.0 * v * growth2 * (1.0 + k_hat[n]) * nu_t \
                + 2.0 * v * lip2 * est[n - 1, p] * nu_t
            slack = SLACK_SIGMAS * (se[n, p]
                                    + 2.0 * v * lip2 * nu_t * se[n - 1, p]
                                    + 4.0 * v * growth2 * nu_t * k_se[n]) \
                + 1e-15
            ok = bool(est[n, p] <= bound + slack)
            recursion_ok = recursion_ok and ok
            rows_out.append(CheckRow(
                "derivative-bound", f"n={n + 1};t={te:g};x={xe:g}",
                lhs=float(est[n, p]), rhs=float(bound),
                residual_or_z=float(est[n, p] - bound), passed=ok))

    stable_ok = True
    for p, (te, xe) in enumerate(eval_points):
        for n in range(max(1, n_iter - 3), n_iter):
            step = est[n, p] - est[n - 1, p]
            allowance = SLACK_SIGMAS * (se[n, p] + se[n - 1, p]) \
                + 0.05 * (1.0 + est[n - 1, p])
            ok = not step > allowance
            stable_ok = stable_ok and ok
            rows_out.append(CheckRow(
                "derivative-bound", f"step n={n + 1};t={te:g};x={xe:g}",
                lhs=float(step), rhs=float(allowance),
                residual_or_z=float(step - allowance), passed=ok))

    return DerivativeBoundReport(eval_points, est, se, k_hat, rows_out,
                                 recursion_ok, stable_ok)
