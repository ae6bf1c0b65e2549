"""Reference values the benchmark computes without levyfield.

Nothing here imports levyfield.  The Green kernels, the deterministic parts,
the closed forms and the quadratures are written out again from their
definitions, so that a check of the program's output against these values
does not share code with the program.

Problem set-up assumed throughout (the one every workload uses): cosine
initial data, affine sigma(u) = a u + b, window [0, T] x [-R, R].
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_NODES = 64     # Gauss-Legendre nodes per variable
_BLOCK = 64     # rows of kernel values held at a time

# -- kernels and deterministic parts -----------------------------------------


def green(kind: str, dt, dx):
    """G(dt, dx) for dt > 0 and 0 for dt <= 0 (causal), elementwise.

    wave: 1/2 on |dx| <= dt;  heat: exp(-dx^2 / (2 dt)) / sqrt(2 pi dt).
    """
    dt = np.asarray(dt, dtype=float)
    dx = np.asarray(dx, dtype=float)
    live = dt > 0.0
    if kind == "wave":
        return np.where(live & (np.abs(dx) <= dt), 0.5, 0.0)
    safe = np.where(live, dt, 1.0)
    return np.where(live, np.exp(-dx * dx / (2.0 * safe))
                    / np.sqrt(2.0 * math.pi * safe), 0.0)


def deterministic(kind: str, t, x):
    """Unperturbed solution for cosine initial data (zero initial velocity
    for the wave equation)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if kind == "wave":
        return np.cos(x) * np.cos(t)
    return np.exp(-t / 2.0) * np.cos(x)


def nu(kind: str, T: float) -> float:
    """int_0^T int_R G(t, x)^2 dx dt."""
    return T * T / 4.0 if kind == "wave" else math.sqrt(T / math.pi)


def isometry_target(v: float, T: float) -> float:
    """v * int int 1[-1, 1](x)^2 dx dt over [0, T] x R."""
    return v * 2.0 * T


def duality_target(v: float, T: float, R: float) -> float:
    """v * int_0^T int_{-R}^{R} cos(x) e^{-t} sin(x + t) dx dt.

    cos x sin(x + t) = (sin(2x + t) + sin t) / 2 integrates over x to
    sin t (R + sin(2R) / 2), and int_0^T e^{-t} sin t dt =
    (1 - e^{-T}(cos T + sin T)) / 2.
    """
    return v * (R + math.sin(2.0 * R) / 2.0) \
        * (1.0 - math.exp(-T) * (math.cos(T) + math.sin(T))) / 2.0


# -- dense interaction blocks -------------------------------------------------


def field_at(kind: str, t, x, src_t, src_x, coef):
    """sum_i G(t - src_t_i, x - src_x_i) coef_i at the points (t, x), and the
    same sum of absolute terms (the rounding scale of the first)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    coef = np.asarray(coef, dtype=float)
    val = np.empty((t.size,) + coef.shape[1:])
    mag = np.empty_like(val)
    for r0 in range(0, t.size, _BLOCK):
        r1 = min(t.size, r0 + _BLOCK)
        g = green(kind, t[r0:r1, None] - src_t[None, :],
                  x[r0:r1, None] - src_x[None, :])
        val[r0:r1] = g @ coef
        mag[r0:r1] = g @ np.abs(coef)
    return val, mag


def forward_solve(kind: str, t, x, z, a: float, b: float) -> np.ndarray:
    """u at the atoms of a small time-sorted path: forward substitution of
    u_k = w_k + sum_{j<k} G(t_k - t_j, x_k - x_j) (a u_j + b) z_j."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    m = green(kind, t[:, None] - t[None, :], x[:, None] - x[None, :])
    u = deterministic(kind, t, x).astype(float)
    sz = np.empty(t.size)
    for k in range(t.size):
        u[k] += m[k, :k] @ sz[:k]
        sz[k] = (a * u[k] + b) * z[k]
    return u


def picard_iterates(kind: str, t, x, z, a: float, b: float,
                    n_iter: int) -> np.ndarray:
    """Picard iterates u_0 = w, u_{m+1} = w + M (a u_m + b) z at the atoms of
    a small time-sorted path, as rows 0..n_iter."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    m = green(kind, t[:, None] - t[None, :], x[:, None] - x[None, :])
    out = np.empty((n_iter + 1, t.size))
    out[0] = deterministic(kind, t, x)
    for k in range(n_iter):
        out[k + 1] = out[0] + m @ ((a * out[k] + b) * z)
    return out


# -- second moment of the wave solution ---------------------------------------


def wave_second_moment(points, v: float, a: float, b: float, R: float,
                       w=None):
    """E u(t, x)^2 for the wave equation, from its Volterra equation

        m = w^2 + (v / 4) int int_{cone(t, x)} (a^2 m + 2 a b w + b^2),

    which follows from the isometry of the compensated integral and
    E u = w.  It holds as written while the backward cone stays inside the
    window, i.e. on |x| + t <= R.  In null coordinates alpha = s + y,
    beta = s - y that region is the triangle alpha <= R, beta <= R,
    alpha + beta >= 0, the cone becomes the quadrant below (alpha, beta)
    and ds dy = d alpha d beta / 2.  The equation is marched over
    anti-diagonals with the trapezoid rule (second order) on grids of 256
    and 512 cells, and the two are Richardson-extrapolated.

    w(s, y) is the deterministic part, cos y cos s unless given.  Returns
    (values, extrapolation change) at the points (t, x).
    """
    if w is None:
        def w(s, y):
            return np.cos(y) * np.cos(s)
    coarse = _goursat(points, v, a, b, R, 256, w)
    fine = _goursat(points, v, a, b, R, 512, w)
    best = (4.0 * fine - coarse) / 3.0
    return best, np.abs(best - fine)


def _goursat(points, v, a, b, R, n, w):
    h = 2.0 * R / n
    grid = -R + h * np.arange(n + 1)
    al, be = np.meshgrid(grid, grid, indexing="ij")
    s, y = 0.5 * (al + be), 0.5 * (al - be)
    wv = w(s, y)
    rest = 2.0 * a * b * wv + b * b          # the part of g free of m
    lam = v / 8.0                            # (v / 4) * (1 / 2) Jacobian
    q = np.zeros((n + 1, n + 1))             # int int g over the quadrant
    g = np.zeros((n + 1, n + 1))
    on_base = np.arange(n + 1)
    g[on_base, n - on_base] = a * a * wv[on_base, n - on_base] ** 2 \
        + rest[on_base, n - on_base]
    for d in range(n + 1, 2 * n + 1):
        i = np.arange(d - n, n + 1)
        j = d - i
        if d == n + 1:
            # cell cut by s = 0: triangle with vertices (i,j), (i-1,j), (i,j-1)
            kappa = h * h / 6.0
            known = kappa * (g[i - 1, j] + g[i, j - 1])
        else:
            kappa = h * h / 4.0
            known = q[i - 1, j] + q[i, j - 1] - q[i - 1, j - 1] \
                + kappa * (g[i - 1, j] + g[i, j - 1] + g[i - 1, j - 1])
        free = a * a * wv[i, j] ** 2 + rest[i, j]
        q[i, j] = (known + kappa * free) / (1.0 - kappa * a * a * lam)
        g[i, j] = a * a * (wv[i, j] ** 2 + lam * q[i, j]) + rest[i, j]
    m = wv ** 2 + lam * q
    out = []
    for t, x in points:
        ia, ib = (t + x + R) / h, (t - x + R) / h
        if abs(ia - round(ia)) > 1e-9 or abs(ib - round(ib)) > 1e-9:
            raise ValueError(f"point ({t}, {x}) is not a grid node")
        out.append(m[int(round(ia)), int(round(ib))])
    return np.array(out)


# -- first Picard iterate: v int int G^2 sigma(w)^2 ---------------------------


def first_iterate_moment(kind: str, t: float, x, v: float, a: float,
                         b: float, R: float):
    """v int_0^t int_{-R}^{R} G(t - s, x - y)^2 sigma(w(s, y))^2 dy ds.

    This is E |u_1 - u_0|^2 (t, x), and also ||D u_1(t, x)||^2, which is
    deterministic because u_0 = w is.  Gauss-Legendre in both variables:
    for the wave kernel on the cone clipped to the window, split where the
    cone meets the window edge; for the heat kernel after t - s = r^2,
    x - y = r eta, which removes the singularity at s = t and leaves
    e^{-eta^2} / pi.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gx, gw = np.polynomial.legendre.leggauss(_NODES)

    def sigma2(s, y):
        return (a * deterministic(kind, s, y) + b) ** 2

    def on(lo, hi):
        # nodes and weights of [lo, hi] along the last axis
        half = 0.5 * (hi - lo)[..., None]
        return 0.5 * (hi + lo)[..., None] + half * gx, half * gw

    out = np.empty(x.size)
    for k, xk in enumerate(x):
        if kind == "wave":
            cuts = sorted({0.0, t, *(c for c in (R - xk, R + xk)
                                       if 0.0 < c < t)})
            total = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                tau, wt = on(np.array(lo), np.array(hi))
                y_lo = np.maximum(-R, xk - tau)
                y_hi = np.minimum(R, xk + tau)
                y, wy = on(y_lo, y_hi)
                inner = np.sum(wy * sigma2(t - tau[:, None], y), axis=-1)
                total += float(np.sum(wt * inner))
            out[k] = v * 0.25 * total
        else:
            r, wr = on(np.array(0.0), np.array(math.sqrt(t)))
            e_lo = np.maximum(-9.0, (xk - R) / r)
            e_hi = np.minimum(9.0, (xk + R) / r)
            eta, we = on(e_lo, e_hi)
            vals = np.exp(-eta ** 2) / math.pi \
                * sigma2(t - r[:, None] ** 2, xk - r[:, None] * eta)
            out[k] = v * float(np.sum(wr * np.sum(we * vals, axis=-1)))
    return out


# -- compensator of a constant sigma -------------------------------------------


def window_green_mass(kind: str, t, x, R: float):
    """int_0^t int_{-R}^{R} G(t - s, x - y) dy ds, for |x| <= R."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    if kind == "wave":
        # (1/2) int_0^t (min(R - x, tau) + min(R + x, tau)) d tau
        def ramp(c):
            return np.where(t <= c, t * t / 2.0, c * t - c * c / 2.0)
        return 0.5 * (ramp(R - x) + ramp(R + x))
    gx, gw = np.polynomial.legendre.leggauss(_NODES)
    # tau = t u^2 keeps the nodes dense near tau = 0, where the mass of a
    # point on the window edge changes fastest
    u = 0.5 * (gx + 1.0)
    wu = 0.5 * gw
    tau = t[..., None] * u ** 2
    safe = np.where(tau > 0.0, tau, 1.0)
    mass = 0.5 * (erf((R - x)[..., None] / np.sqrt(2.0 * safe))
                  + erf((R + x)[..., None] / np.sqrt(2.0 * safe)))
    return np.sum(wu * 2.0 * t[..., None] * u * mass, axis=-1)
