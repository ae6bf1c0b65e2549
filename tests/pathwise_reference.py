"""Per-path references of the batch identity checks.

levyfield checks the chain rule, the exponential formula and the derivative
fixed-point equation one batch at a time (malliavin.chain_rule_rows,
exp_derivative_rows, derivative_equation_rows).  The functions here check
the same identities one realization at a time, through PathFunctional,
add_atom and solve_forward_pair, and are the references the batch checks
are tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

import levyfield as lf
from levyfield.solver import pairwise_interaction_matrix, solve_forward_pair


def one_row_batch(config):
    """config as a PointBatch of one row, for the batch checks."""
    return lf.PointBatch(config.times[None], config.positions[None],
                         config.jumps[None], np.array([config.n_atoms]),
                         config.window, config.measure, 0, 0)


def compose_functional(g, F, gname="g"):
    return lf.PathFunctional(f"{gname}({F.name})", lambda cfg: g(F(cfg)))


def exp_integral_functional(h, measure=None):
    return lf.PathFunctional(
        f"exp(L({h.name}))",
        lambda cfg: math.exp(lf.ito_integral(cfg, h, measure)))


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
    base = math.exp(lf.ito_integral(config, h, measure))
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
