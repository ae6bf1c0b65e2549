"""Check the oracles' closed forms against brute-force quadrature.

Run on its own with `python3 perfbench/selftest.py`; run.py also runs it
after every traced (`--trace 1`) run.  selftest() returns a list of failure
messages.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles


def _midpoint(n: int, lo: float, hi: float):
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n, (hi - lo) / n


def selftest() -> list:
    failures = []

    def close(name, got, want, rtol):
        if not abs(got - want) <= rtol * max(abs(want), 1e-300):
            failures.append(f"selftest {name}: {got!r} vs {want!r}")

    T, R, v, a, b = 1.0, 2.0, 5.0, 0.5, 1.0
    t, dt = _midpoint(800, 0.0, T)
    x, dx = _midpoint(1600, -R, R)
    tt, xx = np.meshgrid(t, x, indexing="ij")

    close("duality", float(np.sum(np.cos(xx) * np.exp(-tt) * np.sin(xx + tt)))
          * dt * dx * v, oracles.duality_target(v, T, R), 1e-5)
    close("isometry", float(np.sum((np.abs(xx) <= 1.0) * 1.0)) * dt * dx * v,
          oracles.isometry_target(v, T), 1e-3)

    # nu_T over t = s^2 (the heat integrand is singular at t = 0)
    s, ds = _midpoint(4000, 0.0, math.sqrt(T))
    y, dy = _midpoint(4000, -6.0, 6.0)
    for kind in ("wave", "heat"):
        g2 = oracles.green(kind, s[:, None] ** 2, y[None, :]) ** 2
        close(f"nu {kind}", float(np.sum(2.0 * s[:, None] * g2)) * ds * dy,
              oracles.nu(kind, T), 2e-3)

    # first iterate: Gauss-Legendre against a midpoint rule in t - s = r^2
    r, dr = _midpoint(600, 0.0, math.sqrt(T))
    y, dy = _midpoint(1200, -R, R)
    for kind in ("wave", "heat"):
        for x0 in (0.0, 1.3):
            s = T - r[:, None] ** 2
            sig = (a * oracles.deterministic(kind, s, y[None, :]) + b) ** 2
            g2 = oracles.green(kind, r[:, None] ** 2, x0 - y[None, :]) ** 2
            brute = v * float(np.sum(2.0 * r[:, None] * g2 * sig)) * dr * dy
            close(f"first iterate {kind} x={x0}",
                  float(oracles.first_iterate_moment(kind, T, x0, v, a, b,
                                                     R)[0]), brute, 5e-3)

    # window mass of G: closed form (wave) and quadrature (heat) vs midpoint
    for kind in ("wave", "heat"):
        for x0 in (0.0, 1.7, 2.0):
            g = oracles.green(kind, r[:, None] ** 2, x0 - y[None, :])
            brute = float(np.sum(2.0 * r[:, None] * g)) * dr * dy
            close(f"window mass {kind} x={x0}",
                  float(oracles.window_green_mass(kind, T, x0, R)), brute,
                  5e-3)

    # Volterra solver.  Cone integral of b^2 (a = 0); of 2abw, from the part
    # odd in a, (v/4) 2ab t sin t cos x + O(a^3); and the cosh solution of
    # m = (v/4) int int (a^2 m + b^2) with w = 0.
    pts = [(1.0, 0.0), (0.75, 0.5), (1.0, 1.0)]
    flat, _ = oracles.wave_second_moment(pts, v, 0.0, b, R)
    eps = 1e-3
    up, _ = oracles.wave_second_moment(pts, v, eps, b, R)
    down, _ = oracles.wave_second_moment(pts, v, -eps, b, R)
    for k, (t0, x0) in enumerate(pts):
        close(f"volterra a=0 at ({t0},{x0})", float(flat[k]),
              (math.cos(x0) * math.cos(t0)) ** 2 + v / 4 * b * b * t0 * t0,
              1e-8)
        close(f"volterra odd part at ({t0},{x0})",
              float(up[k] - down[k]) / 2.0,
              v / 4 * 2 * eps * b * t0 * math.sin(t0) * math.cos(x0), 1e-5)
    got, _ = oracles.wave_second_moment(pts, v, a, b, R,
                                        w=lambda s, y: 0.0 * s)
    for (t0, x0), val in zip(pts, got):
        close(f"volterra cosh at ({t0},{x0})", float(val),
              b * b / (a * a) * (math.cosh(math.sqrt(v * a * a / 2) * t0) - 1),
              1e-8)
    full, change = oracles.wave_second_moment(pts, v, a, b, R)
    if float(np.max(change / full)) > 1e-4:
        failures.append(f"selftest volterra extrapolation moved {change}")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for line in problems:
        print(line)
    print("selftest:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
