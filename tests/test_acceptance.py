"""Acceptance criteria: one pass/fail line per criterion, stated tolerances.

Every test prints `criterion NN <name>: PASS|FAIL - <detail>` and then
asserts, so the printed line and the pytest verdict always agree.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

import levyfield as lf

WINDOW = lf.SpaceTimeWindow(1.0, 2.0)
UNIT = lf.rademacher()
BUSY = lf.two_point_measure(1.0, 5.0)  # about 20 atoms per realization
WAVE_AFFINE = lf.ProblemSpec(kernel=lf.wave_kernel(),
                             sigma=lf.named_map("affine", 0.5, 1.0),
                             ic_kind="cosine", window=WINDOW)
H_POS = lf.integrand(lambda t, x: 0.5 + 0.3 * np.cos(x) * np.exp(-t),
                     name="hpos")
G_SMOOTH = lf.integrand(lambda t, x: np.sin(x + t), name="gsmooth")


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_isometry():
    start = time.perf_counter()
    s = lf.isometry_test(UNIT, lf.box_indicator(-1.0, 1.0), WINDOW,
                         10_000, 101)
    elapsed = time.perf_counter() - start
    ok = abs(s.estimate - 2.0) <= 3.0 * s.stderr and elapsed < 10.0
    assert _report(1, "isometry", ok,
                   f"estimate {s.estimate:.4f} vs 2, |z| = "
                   f"{abs(s.studentized):.3f} <= 3, {elapsed:.2f}s")


def _draws(seed, r_hi=0.95, xi_hi=2.0):
    """The 100 realizations (seed, i) as one batch, and a derivative point
    for each from the stream (seed, 50_000 + i), with that stream."""
    batch = lf.sample_batch(BUSY, WINDOW, seed, 0, 100)
    points, rngs = [], []
    for i in range(100):
        rng = lf.derive_rng(seed, 50_000 + i)
        points.append(lf.DerivativePoint(rng.uniform(0.05, r_hi),
                                         rng.uniform(-xi_hi, xi_hi),
                                         1.0 if i % 2 else -1.0))
        rngs.append(rng)
    return batch, points, rngs


def test_criterion_02_exponential_derivative():
    start = time.perf_counter()
    batch, points, _ = _draws(202)
    rows = lf.exp_derivative_rows(H_POS, batch, points)
    worst = max(abs(row.residual_or_z) for row in rows)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report(2, "exponential derivative", ok,
                   f"worst rel residual {worst:.2e} <= 1e-12 over 100 draws, "
                   f"{elapsed:.2f}s")


def test_criterion_03_chain_rule():
    maps = [("square", lambda v: v * v), ("exp", np.exp), ("sin", np.sin)]
    batch, points, _ = _draws(303)
    worst = max(abs(row.residual_or_z)
                / max(1.0, abs(row.lhs), abs(row.rhs))
                for row in lf.chain_rule_rows(H_POS, maps, batch, points))
    ok = worst <= 1e-12
    assert _report(3, "chain rule", ok,
                   f"worst scaled residual {worst:.2e} <= 1e-12 "
                   "for square/exp/sin over 100 draws")


def test_criterion_04_duality():
    start = time.perf_counter()
    s = lf.duality_test(H_POS, G_SMOOTH, UNIT, WINDOW, 10_000, 404)
    elapsed = time.perf_counter() - start
    ok = abs(s.studentized) <= 3.0 and elapsed < 10.0
    assert _report(4, "duality", ok,
                   f"estimate {s.estimate:.4f} vs target {s.target:.4f}, "
                   f"|z| = {abs(s.studentized):.3f} <= 3, {elapsed:.2f}s")


def test_criterion_05_derivative_equation():
    start = time.perf_counter()
    batch, points, rngs = _draws(505, r_hi=0.7, xi_hi=1.5)
    t = np.array([rng.uniform(p.time + 0.02, 1.0)
                  for p, rng in zip(points, rngs)])
    x = np.array([rng.uniform(-1.0, 1.0) for rng in rngs])
    rows = lf.derivative_equation_rows(WAVE_AFFINE, batch, points, t, x)
    worst = max(row.residual_or_z / (1.0 + abs(row.lhs)) for row in rows)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _report(5, "derivative fixed-point equation", ok,
                   f"worst residual/(1+|lhs|) {worst:.2e} <= 1e-10 over "
                   f"100 draws, {elapsed:.2f}s")


def test_criterion_06_picard_derivative():
    # the realizations (606, i) as one batch, a point for each from the
    # stream (606, 50_000 + i)
    batch = lf.sample_batch(BUSY, WINDOW, 606, 0, 20)
    points = []
    for i in range(20):
        rng = lf.derive_rng(606, 50_000 + i)
        points.append(lf.DerivativePoint(rng.uniform(0.05, 0.6),
                                         rng.uniform(-1.5, 1.5), 1.0))
    rows, decay_ok = lf.picard_derivative_rows(WAVE_AFFINE, batch, points, 8)
    hand = [row for row in rows if row.params == "n=1 hand formula"]
    worst_hand = max(row.residual_or_z for row in hand)
    ok = len(hand) == 20 and all(row.passed for row in hand) and decay_ok
    assert _report(6, "picard derivative", ok,
                   f"hand formula residual {worst_hand:.2e} <= 1e-12 x "
                   "(1 + max|u_n|), increments decay geometrically over "
                   "n <= 8 (20 configs)")


def test_criterion_07_existence():
    worst_gap = 0.0
    for i in range(20):
        cfg = lf.sample_prm(BUSY, WINDOW, (707, i))
        fwd = lf.solve_forward(cfg, WAVE_AFFINE, with_grid=False)
        pic, _ = lf.picard_solve(cfg, WAVE_AFFINE, 10, with_grid=False)
        if cfg.n_atoms:
            worst_gap = max(worst_gap, float(np.max(
                np.abs(fwd.atom_values - pic.atom_values))))
    rep = lf.existence_diagnostics(WAVE_AFFINE, BUSY, n_realizations=100,
                                   n_iter=6, master_seed=707)
    ok = worst_gap <= 1e-8 and rep.passed
    assert _report(7, "existence diagnostics", ok,
                   f"cross-solver gap {worst_gap:.2e} <= 1e-8 (20 paths, "
                   f"n=10), recursion bound with slack: {rep.passed}")


def test_criterion_08_gronwall():
    kernel = lf.ConvolutionKernel(lambda t: np.ones_like(t), 1.0,
                                  resolution=4096)
    a = lf.renewal_probabilities(kernel, 10)
    worst = max(abs(a[n] * math.factorial(n) - 1.0) for n in range(11))
    C = 0.5 ** np.arange(11)
    f = lf.equality_sequence(kernel, C, 10)
    bound = lf.verify_bound(f, C, kernel, M=C[0])
    summ = lf.summability_check(a, 2.0)
    strictly_decreasing = bool(np.all(np.diff(summ.ratios) < 0.0))
    ok = worst <= 1e-4 and bound.passed and summ.passed \
        and strictly_decreasing
    assert _report(8, "renewal bounds", ok,
                   f"max |a_n n! - 1| = {worst:.2e} <= 1e-4 at 4096, "
                   f"equality-sequence margin {bound.worst_margin:.1e}, "
                   "p=2 ratios strictly decreasing")


def test_criterion_09_kernel_certificate():
    reports = [lf.check_h2(k, 1.0, 0.1)
               for k in (lf.wave_kernel(), lf.heat_kernel())]
    clauses_ok = all(r.passed for r in reports)
    worst = 0.0
    for kernel in (lf.wave_kernel(), lf.heat_kernel()):
        for t in (0.1, 0.5, 1.0, 2.0):
            lim = t if kernel.kind == "wave" else np.inf
            jq, _ = quad(lambda y: kernel.evaluate(t, y) ** 2, -lim, lim)
            worst = max(worst, abs(kernel.square_integral(t) - jq) / jq)
            nq, _ = quad(kernel.square_integral, 0.0, t)
            worst = max(worst,
                        abs(kernel.cumulative_square_integral(t) - nq) / nq)
    ok = clauses_ok and worst <= 1e-8
    assert _report(9, "kernel integrability certificate", ok,
                   "all three clauses pass for wave and heat; worst "
                   f"quadrature gap {worst:.2e} <= 1e-8")


def test_criterion_10_adaptedness():
    exact = True
    for i in range(100):
        cfg = lf.sample_prm(BUSY, WINDOW, (1010, i))
        rng = lf.derive_rng(1010, 50_000 + i)
        t = rng.uniform(0.2, 0.9)
        x = rng.uniform(-1.0, 1.0)
        r = rng.uniform(t, 0.999)  # never earlier than the observation
        F = lf.solution_functional(WAVE_AFFINE, t, x)
        d = lf.difference_derivative(
            F, cfg, lf.DerivativePoint(r, rng.uniform(-2.0, 2.0), 1.0))
        exact = exact and (d == 0.0)
    assert _report(10, "adaptedness", exact,
                   "derivative at or after the observation time is exactly "
                   "0.0 in all 100 draws")
