"""Per-path references of the batch identity checks.

levyfield checks the chain rule, the exponential formula, the derivative
fixed-point equation and the Picard derivative recursion one batch at a
time (malliavin.chain_rule_rows, exp_derivative_rows,
derivative_equation_rows, picard_derivative_rows).  The functions here
check the same identities one realization, one path's (K,) row, at a
time, through PathFunctional, solve_forward_pair and
picard_iterates_at_atoms, with the tests' own np.insert add-atom and
np.dot L(h) (helpers.add_atom, helpers.ito_integral), and are the
references the batch checks are tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

import levyfield as lf
from levyfield.malliavin import DECAY_RATIO, RESIDUAL_TOL
from levyfield.solver import (causal_sums, deterministic_part,
                              pairwise_interaction_matrix,
                              picard_iterates_at_atoms, solve_forward_pair)

import helpers


def compose_functional(g, F, gname="g"):
    return lf.PathFunctional(f"{gname}({F.name})", lambda cfg: g(F(cfg)))


def exp_integral_functional(h, measure=None):
    return lf.PathFunctional(
        f"exp(L({h.name}))",
        lambda cfg: math.exp(helpers.ito_integral(cfg, h, measure)))


def chain_rule_residual(g, F, config, point, gname="g"):
    """|D g(F) - [g(F + DF) - g(F)]| with both sides built independently;
    residual_or_z is the raw residual."""
    lhs = lf.difference_derivative(compose_functional(g, F, gname), config,
                                   point)
    f0 = F(config)
    df = lf.difference_derivative(F, config, point)
    rhs = g(f0 + df) - g(f0)
    return lf.CheckRow(check="chain-rule",
                       params=f"g={gname};{point.label()}", lhs=lhs, rhs=rhs,
                       residual_or_z=abs(lhs - rhs), passed=None)


def exp_derivative_residual(h, config, point, measure=None):
    """D exp(L(h)) = exp(L(h)) (exp(h(r, xi) z) - 1) on one realization,
    the right side by expm1."""
    lhs = lf.difference_derivative(exp_integral_functional(h, measure),
                                   config, point)
    base = math.exp(helpers.ito_integral(config, h, measure))
    rhs = base * math.expm1(float(h(point.time, point.x)) * point.jump)
    scale = max(abs(rhs), abs(base), 1e-300)
    return lf.CheckRow(check="exp-derivative", params=point.label(),
                       lhs=lhs, rhs=rhs, residual_or_z=abs(lhs - rhs) / scale,
                       passed=None)


@dataclass
class EquationCheck:
    lhs: float
    rhs: float
    residual: float
    trivial: bool = False


def derivative_equation_residual(problem, config, point, t, x):
    """The derivative fixed-point equation at (t, x) on one realization:
    the left side differences the forward solves with and without the
    atom (solve_forward_pair), the right side re-assembles the equation
    from the base solve and the differenced atom values.  For r >= t the
    left side must be exactly 0."""
    sigma = problem.sigma
    base, plus = solve_forward_pair(config, problem, point.time, point.x,
                                    point.jump)
    lhs = lf.evaluate_solution(plus, t, x) - lf.evaluate_solution(base, t, x)
    if point.time >= t:
        if lhs != 0.0:
            raise lf.MalliavinError(f"adaptedness violated: {lhs!r}")
        return EquationCheck(lhs=0.0, rhs=0.0, residual=0.0, trivial=True)
    insert = int(np.searchsorted(config.times, point.time))
    du_at = np.delete(plus.atom_values, insert) - base.atom_values
    u_r = lf.evaluate_solution(base, point.time, point.x)
    g_main = pairwise_interaction_matrix(problem.kernel, t, x, point.time,
                                         point.x)[0, 0]
    rhs = g_main * sigma(u_r) * point.jump
    sel = (config.times > point.time) & (config.times < t)
    if sel.any():
        g_row = pairwise_interaction_matrix(problem.kernel, t, x,
                                            config.times[sel],
                                            config.positions[sel])[0]
        u_sel = base.atom_values[sel]
        bracket = sigma(u_sel + du_at[sel]) - sigma(u_sel)
        rhs += float(np.dot(g_row, bracket * config.jumps[sel]))
    return EquationCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


@dataclass
class PicardDerivativeReport:
    """Pathwise audit of the Picard derivative recursion

        Du_{n+1}(t,x) = G(t-r, x-xi) sigma(u_n(r,xi)) z
            + sum_i G(t-t_i, x-x_i) [sigma(u_n + Du_n) - sigma(u_n)](t_i) z_i

    checked at every atom for each n, plus the hand formula at n = 1
    (Du_1 = G sigma(w(r,xi)) z) and the Cauchy decay of successive
    derivative iterates.
    """

    point: lf.DerivativePoint
    residuals: np.ndarray          # max-atom residual of the recursion per n
    hand_formula_residual: float   # n = 1 against the closed form
    start_zero: bool               # Du_0 == 0 exactly
    cauchy: np.ndarray             # max-atom |Du_{n+1} - Du_n|
    scale: float

    @property
    def recursion_ok(self) -> bool:
        return bool(np.all(self.residuals <= RESIDUAL_TOL * self.scale))

    @property
    def decay_ok(self) -> bool:
        """Geometric decay of the increments from their peak onward (rows
        <= 1e-14 * scale are rounding: 0): the peak within the first few
        orders, then contraction by DECAY_RATIO."""
        if self.cauchy.size < 2:
            return True
        floor = 1e-14 * self.scale
        peak = int(np.argmax(np.where(self.cauchy > floor, self.cauchy, 0.0)))
        if peak > 3:
            return False
        tail = self.cauchy[peak:]
        for prev, cur in zip(tail[:-1], tail[1:]):
            if cur > max(DECAY_RATIO * prev, floor):
                return False
        return True

    @property
    def passed(self) -> bool:
        return (self.start_zero and self.recursion_ok and self.decay_ok
                and self.hand_formula_residual <= RESIDUAL_TOL * self.scale)

    def rows(self):
        out = [lf.CheckRow("picard-derivative", "n=1 hand formula", 0.0, 0.0,
                           self.hand_formula_residual,
                           self.hand_formula_residual
                           <= RESIDUAL_TOL * self.scale)]
        for i, r in enumerate(self.residuals):
            out.append(lf.CheckRow("picard-derivative", f"recursion n={i + 1}",
                                   0.0, 0.0, r,
                                   bool(r <= RESIDUAL_TOL * self.scale)))
        for i, c in enumerate(self.cauchy):
            out.append(lf.CheckRow("picard-derivative", f"cauchy n={i}",
                                   c, 0.0, c, None))
        return out


def picard_derivative_report(problem, config, point, n_iter=8):
    """Difference the Picard iterates of one realization with and without
    the added atom and verify the derivative recursion at each order
    (n_iter >= 1): Du_n is the difference of two picard_iterates_at_atoms
    runs, the right side the kick column, the base iterate at the point
    and causal_sums of the brackets."""
    if n_iter < 1:
        raise lf.MalliavinError("picard derivative needs n_iter >= 1")
    if config.measure.first_moment != 0.0:
        raise lf.MalliavinError("picard derivative recursion assumes m1 = 0")
    kernel, sigma = problem.kernel, problem.sigma
    t, x, z = config.times, config.positions, config.jumps
    expected = config.measure.total_mass * config.window.volume
    base, plus = (picard_iterates_at_atoms(problem, c.times, c.positions,
                                           c.jumps, n_iter, expected)
                  for c in (config, helpers.add_atom(config, point.time,
                                                     point.x, point.jump)))
    du = [np.delete(p, np.searchsorted(t, point.time)) - b
          for p, b in zip(plus, base)]
    kick = pairwise_interaction_matrix(kernel, t, x, point.time,
                                      point.x)[:, 0]
    row = pairwise_interaction_matrix(kernel, point.time, point.x, t, x)[0]
    w_pt = deterministic_part(problem, point.time, point.x)
    # the base iterate n at the point, from sigma of iterate n - 1
    at_point = [w_pt] + [w_pt + row @ (sigma(b) * z) for b in base[:-2]]
    kicks = [kick * (sigma(a) * point.jump) for a in at_point]
    sums = causal_sums(kernel, t, x, np.array(
        [(sigma(b + d) - sigma(b)) * z for b, d in zip(base, du[:-1])]))

    def sup(v):
        return float(np.max(np.abs(v), initial=0.0))

    residuals = np.array([sup(d - (k + s))
                          for d, k, s in zip(du[1:], kicks, sums)])
    cauchy = np.array([sup(b - a) for a, b in zip(du[:-1], du[1:])])
    return PicardDerivativeReport(point, residuals, sup(du[1] - kicks[0]),
                                  bool(np.all(du[0] == 0.0)), cauchy,
                                  1.0 + max(sup(b) for b in base))
