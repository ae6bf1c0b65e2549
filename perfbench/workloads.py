"""The benchmark workloads: what one round runs, and its oracles.

Each workload is a closed batch with one caller: a round calls levyfield's
public entry points one after another, times each call, and after the
timed call checks the output against perfbench.oracles.  Every round runs
the same operations, so the share of failed operations does not depend on
the seed or on how many rounds fit in a run.
"""

from __future__ import annotations

import csv
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import levyfield as lf
from levyfield import cli
from levyfield.harness import RunConfig, build_measure, build_problem

import oracles
import speed

T, R = 1.0, 2.0             # RunConfig window
A, B = 0.5, 1.0             # RunConfig affine sigma(u) = A u + B
V = 5.0                     # second moment of the two-point jump measures
KERNELS = ("wave", "heat")
SLACK = 4.0                 # standard errors allowed to Monte Carlo estimates

# Gates in these checks are tuned and fail on some seeds (ROADMAP item 2), so
# they run on the CLI's default seed, where wave passes and heat fails.
FIXED_SEED_CHECKS = ("picard-derivative", "cross-solver")
MOMENT_POINTS = [(T, 0.0), (T / 2, 0.0), (T, R / 2), (T / 2, -R / 2),
                 (3 * T / 4, R / 4)]   # the points `levyfield moments` uses
N_DIAGNOSTIC = RunConfig().n_diagnostic  # realizations per pathwise check
REPLAY_TOL = 1e-12          # scaled agreement of a verify CSV with its replay


@dataclass
class Op:
    """One timed call into levyfield, and the reference task's time just
    before it (perfbench/speed.py)."""

    label: str
    kernel: str
    seconds: float
    failed: bool
    reference: float


class Checks:
    """Oracle verdicts of a run; `correct` is their conjunction."""

    def __init__(self):
        self.failures = []
        self.count = 0

    def expect(self, ok: bool, what: str):
        self.count += 1
        if not ok:
            self.failures.append(what)

    def close(self, name: str, got: float, want: float, tol: float,
              scale: float = 1.0):
        err = abs(got - want)
        self.expect(err <= tol * scale,
                    f"{name}: got {got!r}, want {want!r}, |diff| {err:.3g} "
                    f"> {tol:.3g} x {scale:.3g}")

    def within_se(self, name: str, est: float, target: float, se: float,
                  slack: float = SLACK):
        self.expect(abs(est - target) <= slack * se,
                    f"{name}: estimate {est!r} vs {target!r} is "
                    f"{abs(est - target) / se:.2f} standard errors off")

    @property
    def correct(self) -> bool:
        return not self.failures


def timed(ops: list, label: str, kernel: str, fn, *args, **kwargs):
    """Call fn, append its Op, return its result (None if it raised).

    A raised exception is a failed operation, not a crash of the benchmark;
    its traceback goes to stderr.
    """
    reference = speed.reference_seconds()
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
        failed = False
    except Exception:   # noqa: BLE001 - boundary: record and keep running
        traceback.print_exc()
        result, failed = None, True
    ops.append(Op(label, kernel, time.perf_counter() - t0, failed,
                  reference))
    return result


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _problem(kind: str, sigma=None, n: int = 64) -> lf.ProblemSpec:
    return lf.ProblemSpec(kernel=lf.wave_kernel() if kind == "wave"
                          else lf.heat_kernel(),
                          sigma=sigma or lf.affine_map(A, B),
                          ic_kind="cosine", window=lf.SpaceTimeWindow(T, R),
                          n_t=n, n_x=n)


class Workload:
    """round(index) runs and checks one round; final_checks() runs the
    checks that need only one pass per run."""

    def final_checks(self):
        pass


# -- ensemble ------------------------------------------------------------------


class Ensemble(Workload):
    """Many ~20-atom paths: every `verify` check for both kernels, `moments`
    at N = 10^4, existence and derivative-bound diagnostics."""

    def __init__(self, seed: int, outdir: Path, checks: Checks):
        self.seed, self.out, self.checks = seed, outdir, checks
        self.measure = build_measure(RunConfig())
        self.problems = {k: build_problem(RunConfig(kernel=k))
                         for k in KERNELS}
        self.grid_x = np.linspace(-R, R, RunConfig().n_x)
        self.moments_ref, _ = oracles.wave_second_moment(MOMENT_POINTS, V, A,
                                                         B, R)
        self.h1_ref = {k: oracles.first_iterate_moment(k, T, self.grid_x, V,
                                                       A, B, R)
                       for k in KERNELS}
        self.moments_replay = self._replay_moments()
        self.h1_replay = {}
        self.verify_replay = {}

    def _paths(self, n: int, seed: int | None = None):
        window = lf.SpaceTimeWindow(T, R)
        seed = self.seed if seed is None else seed
        for i in range(n):
            yield lf.sample_prm(self.measure, window, (seed, i))

    def _replay_moments(self) -> np.ndarray:
        """The estimates `moments` must print, recomputed exactly: the same
        realizations (seed, i) solved by oracles.forward_solve."""
        pt = np.array([p[0] for p in MOMENT_POINTS])
        px = np.array([p[1] for p in MOMENT_POINTS])
        w = oracles.deterministic("wave", pt, px)
        sq = []
        for cfg in self._paths(10_000):
            t, x, z = cfg.times, cfg.positions, cfg.jumps
            u = oracles.forward_solve("wave", t, x, z, A, B)
            val, _ = oracles.field_at("wave", pt, px, t, x, (A * u + B) * z)
            sq.append((w + val) ** 2)
        return np.mean(sq, axis=0)

    def _replay_h1(self, kind: str, n: int) -> np.ndarray:
        """H_1(t_j) = max_x mean_i (u_1 - u_0)^2 over the realizations
        (seed, i), i < n, that existence_diagnostics draws, recomputed."""
        gt, gx = self.problems[kind].grid()
        pt, px = np.repeat(gt, gx.size), np.tile(gx, gt.size)
        total = np.zeros(pt.size)
        for cfg in self._paths(n):
            t, x, z = cfg.times, cfg.positions, cfg.jumps
            coef = (A * oracles.deterministic(kind, t, x) + B) * z
            total += oracles.field_at(kind, pt, px, t, x, coef)[0] ** 2
        return np.max(total.reshape(gt.size, gx.size) / n, axis=1)

    def round(self, index: int) -> list:
        # kernels alternate, so that wave_s and heat_s sample the same stretch
        # of the machine's time
        ops = []
        for check in cli.CHECKS:
            seed = 0 if check in FIXED_SEED_CHECKS else self.seed
            for kind in KERNELS:
                outdir = self.out / kind
                argv = ["verify", check, "--kernel", kind, "--seed", str(seed),
                        "--outdir", str(outdir)]
                code = timed(ops, f"verify {check}", kind, cli.main, argv)
                ops[-1].failed = code != 0
                if code == 0:
                    self._check_verify(check, kind, seed, outdir)
        out = self.out / "moments"
        timed(ops, "moments", "wave", cli.main,
              ["moments", "--kernel", "wave", "--n", "10000",
               "--seed", str(self.seed), "--outdir", str(out)])
        if not ops[-1].failed:
            self._check_moments(out / "second_moments.csv")
        for kind in KERNELS:
            rep = timed(ops, "existence", kind, lf.existence_diagnostics,
                        self.problems[kind], self.measure,
                        master_seed=self.seed)
            if rep is not None:
                self._check_h1(kind, rep)
        for kind in KERNELS:
            rep = timed(ops, "derivative-bound", kind,
                        lf.derivative_bound_estimate, self.problems[kind],
                        self.measure, master_seed=self.seed)
            if rep is not None:
                self._check_du1(kind, float(rep.estimates[0, 0]),
                                float(rep.stderrs[0, 0]))
        return ops

    def _check_h1(self, kind: str, rep):
        h1 = rep.h_values[0]
        if kind not in self.h1_replay:
            self.h1_replay[kind] = self._replay_h1(kind, rep.n_realizations)
        err = float(np.max(np.abs(h1 - self.h1_replay[kind])))
        self.checks.expect(err <= 1e-10 * float(np.max(h1)),
                           f"{kind} existence H_1 off its replay by {err:.3g}")
        self.checks.within_se(f"{kind} existence H_1(T)", float(h1[-1]),
                              float(np.max(self.h1_ref[kind])),
                              float(rep.h_stderr[0, -1]))

    def _check_du1(self, kind: str, est: float, se: float):
        """E||Du_1(T, 0)||^2 is a deterministic integral; the program
        estimates it as a mean over 6400 uniform derivative points.

        For the wave kernel the integrand is bounded, but skewed: 3000
        simulated replicates of the estimator reached -3.8 standard errors,
        so the gate is 5.  For the heat kernel int int G^4 diverges at
        r = T, the variance is infinite and a standard-error gate is not
        valid below the target; there the deviations of the mean shrink like
        n^(-1/3) and have a light lower tail (lowest ratio in 3000
        replicates: 0.83), so the gate is a ratio of 0.7 below and 5
        standard errors above, where a large sample also inflates the
        standard error.
        """
        name = f"{kind} E||Du_1(T,0)||^2"
        target = float(oracles.first_iterate_moment(kind, T, 0.0, V, A, B,
                                                    R)[0])
        if kind == "wave":
            self.checks.within_se(name, est, target, se, slack=5.0)
            return
        self.checks.expect(0.7 * target <= est <= target + 5.0 * se,
                           f"{name}: estimate {est!r} outside "
                           f"[0.7 x {target!r}, target + 5 x {se!r}]")

    def _check_verify(self, check: str, kind: str, seed: int, outdir: Path):
        c = self.checks
        if check in ("isometry", "duality"):
            row = _read_csv(outdir / f"{check}.csv")[0]
            want = oracles.isometry_target(V, T) if check == "isometry" \
                else oracles.duality_target(V, T, R)
            c.close(f"{kind} {check} target", float(row["target"]), want,
                    1e-8, abs(want))
            c.within_se(f"{kind} {check} estimate", float(row["estimate"]),
                        want, float(row["stderr"]))
        elif check == "gronwall":
            for row in _read_csv(outdir / "gronwall_renewal.csv"):
                n = int(row["n"])
                c.close(f"gronwall a_{n} n!", float(row["a_n"])
                        * math.factorial(n), 1.0, 1e-4)
        elif check == "h2":
            for k in KERNELS:
                row = next(r for r in _read_csv(outdir / f"h2_{k}.csv")
                           if r["clause"] == "a")
                want = oracles.nu(k, T)
                c.close(f"h2 {k} clause (a)", float(row["value"]), want,
                        1e-8, want)
        else:
            if (check, kind) not in self.verify_replay:
                self.verify_replay[check, kind] = REPLAYS[check](self, kind,
                                                                 seed)
            csv_name, want = self.verify_replay[check, kind]
            self._compare(f"{kind} {check}", _read_csv(outdir / csv_name),
                          want)

    def _compare(self, name: str, rows: list, want: list):
        """The rows of a verify CSV against their replay.  Each replayed row
        is ({column: exact text}, {column: value}, scale): the text columns
        name the draw, the values must agree within REPLAY_TOL x scale."""
        c = self.checks
        c.expect(len(rows) == len(want),
                 f"{name}: {len(rows)} rows, replay has {len(want)}")
        worst, strangers = 0.0, []
        for row, (ident, values, scale) in zip(rows, want):
            if any(row[col] != text for col, text in ident.items()):
                strangers.append(row)
            for col, value in values.items():
                worst = max(worst, abs(float(row[col]) - value) / scale)
        c.expect(not strangers, f"{name}: rows {strangers[:2]} are not the "
                 "replayed draws")
        c.expect(worst <= REPLAY_TOL, f"{name}: off its replay by "
                 f"{worst:.3g} (scaled), above {REPLAY_TOL:g}")

    # Replays of the pathwise verify checks: the same realizations and
    # derivative points, recomputed by perfbench.oracles.  Each returns
    # (csv name, replayed rows) for _compare.

    def _cli_point(self, seed: int, i: int):
        """The derivative point `verify` adds to realization i, drawn as the
        CLI draws it, and its label in the CSV."""
        rng = lf.derive_rng(seed, 100_000 + i)
        r, xi = float(rng.uniform(0.0, T)), float(rng.uniform(-R, R))
        jump = 1.0 if i % 2 == 0 else -1.0
        return (r, xi, jump), f"r={r:.6g};xi={xi:.6g};z={jump:.6g}"

    def _integral_pair(self, h, cfg, point):
        """L(h) without and with the added atom (m1 = 0: no compensator)."""
        f0 = float(np.dot(h(cfg.times, cfg.positions), cfg.jumps))
        r, xi, jump = point
        return f0, f0 + float(h(r, xi)) * jump

    def _replay_chain_rule(self, kind, seed):
        maps = (("square", lambda v: v * v), ("exp", math.exp),
                ("sin", math.sin))
        want = []
        for i, cfg in enumerate(self._paths(N_DIAGNOSTIC, seed)):
            point, label = self._cli_point(seed, i)
            f0, f1 = self._integral_pair(
                lambda t, x: np.cos(x) * np.exp(-t), cfg, point)
            for gname, g in maps:
                d = g(f1) - g(f0)
                want.append(({"params": f"g={gname};{label}"},
                              {"lhs": d, "rhs": d},
                              1.0 + abs(g(f0)) + abs(g(f1))))
        return "chain_rule.csv", want

    def _replay_exp_derivative(self, kind, seed):
        want = []
        for i, cfg in enumerate(self._paths(N_DIAGNOSTIC, seed)):
            point, label = self._cli_point(seed, i)
            f0, f1 = self._integral_pair(
                lambda t, x: 0.5 + 0.3 * np.cos(x) * np.exp(-t), cfg, point)
            d = math.exp(f1) - math.exp(f0)
            want.append(({"params": label}, {"lhs": d, "rhs": d},
                         max(abs(d), math.exp(f0))))
        return "exp_derivative.csv", want

    def _replay_derivative_eq(self, kind, seed):
        """Du(t, x) = u(t, x; path + atom) - u(t, x; path), both sides of
        the program's equation against two forward solves."""
        want = []
        for i, cfg in enumerate(self._paths(N_DIAGNOSTIC, seed)):
            point, label = self._cli_point(seed, i)
            rng = lf.derive_rng(seed, 200_000 + i)
            t, x = float(rng.uniform(0.0, T)), float(rng.uniform(-R, R))
            vals = []
            for pt, px, pz in (_path_arrays(cfg), _path_arrays(cfg, point)):
                u = oracles.forward_solve(kind, pt, px, pz, A, B)
                vals.append(oracles.field_at(kind, t, x, pt, px,
                                             _sigma(u) * pz))
            (v0, m0), (v1, m1) = vals
            du = float(v1[0] - v0[0])
            scale = 1.0 + abs(float(oracles.deterministic(kind, t, x))) \
                + float(m0[0] + m1[0])
            want.append(({"params": f"{label};t={t:.6g};x={x:.6g}"},
                         {"lhs": du, "rhs": du}, scale))
        return "derivative_eq.csv", want

    def _replay_picard_derivative(self, kind, seed):
        """The Cauchy rows max |Du_{m+1} - Du_m| from Picard iterates of the
        path with and without the added atom."""
        n_iter, want = RunConfig().n_iter, []
        for i, cfg in enumerate(self._paths(min(N_DIAGNOSTIC, 25), seed)):
            point, _ = self._cli_point(seed, i)
            base = oracles.picard_iterates(kind, *_path_arrays(cfg), A, B,
                                           n_iter)
            plus = oracles.picard_iterates(kind, *_path_arrays(cfg, point),
                                           A, B, n_iter)
            k = int(np.searchsorted(cfg.times, point[0]))
            du = np.delete(plus, k, axis=1) - base
            cauchy = np.max(np.abs(np.diff(du, axis=0)), axis=1, initial=0.0)
            scale = 1.0 + float(np.max(np.abs(base), initial=0.0))
            want.append(({"params": "n=1 hand formula"}, {}, scale))
            want += [({"params": f"recursion n={m + 1}"}, {}, scale)
                     for m in range(n_iter)]
            want += [({"params": f"cauchy n={m}"}, {"lhs": float(cauchy[m])},
                      scale) for m in range(n_iter)]
        return "picard_derivative.csv", want

    def _replay_cross_solver(self, kind, seed):
        """Gaps between Picard max(n_iter, 10) and the forward solve, at the
        atoms and on the grid (Picard projects sigma of its last but one
        iterate)."""
        n_iter = max(RunConfig().n_iter, 10)
        gt, gx = self.problems[kind].grid()
        pt, px = np.repeat(gt, gx.size), np.tile(gx, gt.size)
        w_grid = np.abs(oracles.deterministic(kind, pt, px))
        want = []
        for i, cfg in enumerate(self._paths(N_DIAGNOSTIC, seed)):
            t, x, z = _path_arrays(cfg)
            u = oracles.forward_solve(kind, t, x, z, A, B)
            it = oracles.picard_iterates(kind, t, x, z, A, B, n_iter)
            gap, _ = oracles.field_at(kind, pt, px, t, x,
                                      (_sigma(it[-2]) - _sigma(u)) * z)
            _, mag = oracles.field_at(kind, pt, px, t, x, _sigma(u) * z)
            scale = 1.0 + float(np.max(w_grid + mag))
            want.append(({"realization": str(i), "atoms": str(t.size)},
                         {"atom_gap": float(np.max(np.abs(it[-1] - u),
                                                   initial=0.0)),
                          "grid_gap": float(np.max(np.abs(gap)))}, scale))
        return "cross_solver.csv", want

    def _check_moments(self, path: Path):
        rows = _read_csv(path)
        self.checks.expect(len(rows) == len(MOMENT_POINTS),
                           f"moments: {len(rows)} rows")
        for row, ref, replay, (t, x) in zip(rows, self.moments_ref,
                                            self.moments_replay,
                                            MOMENT_POINTS):
            name = f"wave E u({t:g},{x:g})^2"
            est = float(row["estimate"])
            self.checks.expect(int(row["n"]) == 10_000, "moments sample size")
            self.checks.close(f"{name} replay", est, float(replay), 1e-10,
                              abs(est))
            self.checks.within_se(name, est, float(ref), float(row["stderr"]))


REPLAYS = {"chain-rule": Ensemble._replay_chain_rule,
           "exp-derivative": Ensemble._replay_exp_derivative,
           "derivative-eq": Ensemble._replay_derivative_eq,
           "picard-derivative": Ensemble._replay_picard_derivative,
           "cross-solver": Ensemble._replay_cross_solver}


def _sigma(u):
    return A * u + B


def _path_arrays(cfg, point=None):
    """Times, positions and jumps of a path, with point = (r, xi, jump)
    inserted in time order if given."""
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    if point is None:
        return t, x, z
    k = int(np.searchsorted(t, point[0]))
    return (np.insert(t, k, point[0]), np.insert(x, k, point[1]),
            np.insert(z, k, point[2]))


# -- large-path ------------------------------------------------------------------


def _atom_pass(kind, t, x, z, w, u_fwd, point, u_point):
    """One sweep over row blocks of the atom-atom kernel matrix.

    Returns, all rebuilt from oracles.green:
      resid  - max defect of u_fwd in the mild equation, and its scale;
      iters  - Picard iterates u_1..u_8 from u_0 = w;
      du     - the add-one-atom derivative at every atom, by forward
               substitution of the configuration with the extra atom
               (point = (r, xi, jump)); the extra atom only sees earlier
               atoms, so its own value is u_point.
    The scale of each quantity is the largest sum of absolute terms that
    rounding acts on.
    """
    n = t.size
    r, xi, jump = point
    kick = oracles.green(kind, t - r, x - xi) * _sigma(u_point) * jump
    sz = _sigma(u_fwd) * z
    iters = np.empty((9, n))
    iters[0] = w
    plus = np.empty(n)
    resid = scale = 0.0
    block = 256     # rows of the 4000 x 4000 matrix held at a time: 8 MB
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        g = oracles.green(kind, t[r0:r1, None] - t[None, :r1],
                          x[r0:r1, None] - x[None, :r1])
        rhs = w[r0:r1] + g @ sz[:r1]
        mag = np.abs(w[r0:r1]) + np.abs(g) @ np.abs(sz[:r1])
        resid = max(resid, float(np.max(np.abs(u_fwd[r0:r1] - rhs))))
        scale = max(scale, float(np.max(mag)))
        for m in range(8):
            iters[m + 1, r0:r1] = w[r0:r1] + g @ (_sigma(iters[m, :r1])
                                                  * z[:r1])
        # forward substitution of the configuration with the extra atom
        early = w[r0:r1] + kick[r0:r1] + g[:, :r0] @ (_sigma(plus[:r0])
                                                      * z[:r0])
        local = g[:, r0:r1]
        for k in range(r1 - r0):
            plus[r0 + k] = early[k] + local[k, :k] @ (
                _sigma(plus[r0:r0 + k]) * z[r0:r0 + k])
    return resid, scale, iters, plus - u_fwd


class LargePath(Workload):
    """PATHS fresh paths of ~4000 atoms per round (mass 1000, jumps
    +-1/sqrt(200), so v = 5): forward solve with the grid, Picard-8, and an
    add-one-atom derivative of u(T, 0), for each kernel."""

    MASS = 1000.0
    # The three calls take about 1.3 s per path and kernel, the compensated
    # Picard-8 about 2.7 s: two paths make each path about half of a
    # kernel's time in the `solvers` round.
    PATHS = 2

    def __init__(self, seed: int, outdir: Path, checks: Checks):
        self.seed, self.checks = seed, checks
        self.jump = math.sqrt(V / self.MASS)
        self.measure = lf.two_point_measure(self.jump, self.MASS)
        self.window = lf.SpaceTimeWindow(T, R)
        self.problems = {k: _problem(k) for k in KERNELS}
        gt, gx = self.problems["wave"].grid()
        self.grid = (np.repeat(gt, gx.size), np.tile(gx, gt.size))

    def round(self, index: int) -> list:
        return [op for j in range(self.PATHS)
                for op in self._path(self.PATHS * index + j)]

    def _path(self, index: int) -> list:
        cfg = lf.sample_prm(self.measure, self.window, (self.seed, index))
        rng = np.random.default_rng([self.seed, index, 1])
        point = lf.DerivativePoint(float(rng.uniform(0.2 * T, 0.8 * T)),
                                   float(rng.uniform(-R / 2, R / 2)),
                                   self.jump * float(rng.choice([-1, 1])))
        ops, out = [], {}
        calls = (("forward", lf.solve_forward, ()),
                 ("picard", lf.picard_solve, (8,)))
        for label, fn, extra in calls:
            for kind in KERNELS:
                out[label, kind] = timed(ops, label, kind, fn, cfg,
                                         self.problems[kind], *extra)
        for kind in KERNELS:
            out["derivative", kind] = timed(
                ops, "derivative", kind, lf.difference_derivative,
                lf.solution_functional(self.problems[kind], T, 0.0), cfg,
                point)
        for kind in KERNELS:
            fwd, pic, der = (out[label, kind] for label in
                             ("forward", "picard", "derivative"))
            if fwd is not None and pic is not None and der is not None:
                self._check(kind, cfg, point, fwd, pic, der)
        return ops

    def _check(self, kind, cfg, point, fwd, pic, der):
        c = self.checks
        t, x, z = cfg.times, cfg.positions, cfg.jumps
        path, diag = pic
        u = fwd.atom_values
        u_point = float(oracles.deterministic(kind, point.time, point.x)
                        + oracles.field_at(kind, point.time, point.x, t, x,
                                           _sigma(u) * z)[0][0])
        resid, scale, iters, du = _atom_pass(
            kind, t, x, z, oracles.deterministic(kind, t, x), u,
            (point.time, point.x, point.jump), u_point)
        tol = 1e-12 * (1.0 + scale)
        tag = f"{kind} large-path ({cfg.n_atoms} atoms)"
        c.expect(resid <= tol, f"{tag}: mild residual {resid:.3g}")
        err = float(np.max(np.abs(path.atom_values - iters[8])))
        c.expect(err <= tol, f"{tag}: picard-8 atoms off by {err:.3g}")
        diffs = np.max(np.abs(np.diff(iters, axis=0)), axis=1)
        err = float(np.max(np.abs(diag.sup_differences - diffs)))
        c.expect(err <= tol, f"{tag}: picard sup-differences off by {err:.3g}")
        # grid values: the forward solve projects sigma(u), Picard-8 sigma(u_7)
        gt, gx = self.grid
        w_grid = oracles.deterministic(kind, gt, gx)
        coef = np.stack([_sigma(u) * z, _sigma(iters[7]) * z], axis=1)
        val, mag = oracles.field_at(kind, gt, gx, t, x, coef)
        for j, (name, got) in enumerate((("forward", fwd.grid_values),
                                         ("picard-8", path.grid_values))):
            err = float(np.max(np.abs(got.ravel() - w_grid - val[:, j])))
            s = 1.0 + float(np.max(np.abs(w_grid) + mag[:, j]))
            c.expect(err <= 1e-12 * s, f"{tag}: {name} grid off by {err:.3g}")
        # derivative equation at (T, 0), increment sigma(u + Du) - sigma(u)
        inc, inc_mag = oracles.field_at(kind, T, 0.0, t, x,
                                        (_sigma(u + du) - _sigma(u)) * z)
        want = float(oracles.green(kind, T - point.time, -point.x)
                     * _sigma(u_point) * point.jump + inc[0])
        c.close(f"{tag}: derivative", float(der), want, 1e-10,
                1.0 + scale + float(inc_mag[0]))


# -- compensated ------------------------------------------------------------------


class Compensated(Workload):
    """One ~20-atom path per round with Gaussian jumps (intensity 5, mean
    0.5, std 1, so m1 = 2.5): affine-sigma Picard-8 on the 64 x 64 grid, for
    each kernel."""

    def __init__(self, seed: int, outdir: Path, checks: Checks):
        self.seed, self.checks = seed, checks
        self.measure = lf.gaussian_measure(5.0, 0.5, 1.0)
        self.window = lf.SpaceTimeWindow(T, R)
        self.problems = {k: _problem(k) for k in KERNELS}

    def round(self, index: int) -> list:
        cfg = lf.sample_prm(self.measure, self.window, (self.seed, index))
        ops = []
        for kind in KERNELS:
            res = timed(ops, "compensated", kind, lf.picard_solve, cfg,
                        self.problems[kind], 8)
            if res is not None:
                d = res[1].sup_differences
                self.checks.expect(
                    bool(np.all(np.isfinite(res[0].grid_values)))
                    and d[-1] < d[0],
                    f"{kind} compensated: sup-differences {d[0]:.3g} -> "
                    f"{d[-1]:.3g}")
        return ops

    def final_checks(self):
        """Constant sigma = B: u = w + B (sum G z - m1 int int G) exactly.  The
        compensator quadrature must stay within the first-order bound
        |m1 B| T (dt + dx) on the 32^2 and 64^2 grids, and its error on the
        grid must shrink.  Heat atoms less than dt / 500 after a grid time
        are left out: there the trapezoid rule in x samples a Gaussian
        narrower than dx and the error grows like 1 / sqrt(t_atom - t_grid),
        a fault of the program (see CHANGES.md).  At dt / 500 the worst
        error over a cell of x is 0.54 of the bound on both grids; it
        crosses the bound near dt / 1500 (32^2) and dt / 3200 (64^2)."""
        cfg = lf.sample_prm(self.measure, self.window, (self.seed, 10**6))
        m1 = self.measure.first_moment
        t, x, z = cfg.times, cfg.positions, cfg.jumps
        for kind in KERNELS:
            grid_errs = []
            for n in (32, 64):
                path, _ = lf.picard_solve(cfg, _problem(
                    kind, lf.constant_map(B), n), 1)
                dt = T / (n - 1)
                keep = np.ones(t.size, dtype=bool)
                if kind == "heat":
                    keep = t - np.floor(t / dt) * dt >= dt / 500
                pt = np.concatenate([t[keep], np.repeat(path.grid_times, n)])
                px = np.concatenate([x[keep], np.tile(path.grid_positions, n)])
                jumps, _ = oracles.field_at(kind, pt, px, t, x, z)
                exact = oracles.deterministic(kind, pt, px) + B * (
                    jumps - m1 * oracles.window_green_mass(kind, pt, px, R))
                got = np.concatenate([path.atom_values[keep],
                                      path.grid_values.ravel()])
                err = np.abs(got - exact)
                bound = abs(m1 * B) * T * (T + 2 * R) / (n - 1)
                grid_errs.append(float(np.max(err[keep.sum():])))
                self.checks.expect(
                    float(np.max(err)) <= bound,
                    f"{kind} compensator on {n}^2 grid: error "
                    f"{float(np.max(err)):.3g} above first-order bound "
                    f"{bound:.3g}")
            self.checks.expect(grid_errs[1] < grid_errs[0],
                               f"{kind} compensator grid error does not "
                               f"shrink: {grid_errs[0]:.3g} -> "
                               f"{grid_errs[1]:.3g}")


# -- single paths of growing size (traced runs only) ----------------------------

SWEEP_SIZES = (20, 200, 1000, 4000)


def size_sweep(tracer, seed: int) -> dict:
    """Layer figures for one path of about n atoms, for each n in SWEEP_SIZES:
    sampling, forward solve without and with the grid, Picard-8 on the atoms
    and the kernel matrix it assembles.  The mass is n / |window| and the
    jump keeps v = V."""
    window = lf.SpaceTimeWindow(T, R)
    out = {}

    def delta(fn, *args):
        before = tracer.snapshot()
        result = fn(*args)
        after = tracer.snapshot()
        return result, {k: after[k] - before.get(k, 0) for k in after}

    for n in SWEEP_SIZES:
        mass = n / window.volume
        measure = lf.two_point_measure(math.sqrt(V / mass), mass)
        cfg, d = delta(lf.sample_prm, measure, window, (seed, 10**6 + n))
        out[f"sweep.n{n}.sample_prm_us"] = 1e6 * d["noise.sample_prm.s"]
        for kind in KERNELS:
            problem = _problem(kind)
            pre = f"sweep.{kind}.n{n}"
            _, d = delta(lf.solve_forward, cfg, problem, False)
            out[f"{pre}.forward_ms"] = 1e3 * d["solver.solve_forward.s"]
            out[f"{pre}.kernel_evals"] = d.get("kernels.evaluate.evals", 0)
            _, d = delta(lf.solve_forward, cfg, problem)
            out[f"{pre}.forward_grid_ms"] = 1e3 * d["solver.solve_forward.s"]
            _, d = delta(lf.picard_solve, cfg, problem, 8, False)
            out[f"{pre}.picard8_ms"] = 1e3 * d["solver.picard_solve.s"]
            out[f"{pre}.kernel_matrix_ms"] = 1e3 * d["solver.kernel_matrix.s"]
    return out


class Solvers(Workload):
    """The large-path and the compensated rounds, one after the other.

    They share a workload so that each run can be twice as long within the
    same total benchmark time: on a shared host the CPU speed can drift over
    tens of seconds, and there runs half as long were not steady enough
    (perfbench/README.md).  LargePath.PATHS keeps each part about half of
    wave_s and heat_s, so that either part slowing by about half shows.
    """

    def __init__(self, seed: int, outdir: Path, checks: Checks):
        self.parts = (LargePath(seed, outdir, checks),
                      Compensated(seed, outdir, checks))

    def round(self, index: int) -> list:
        return [op for part in self.parts for op in part.round(index)]

    def final_checks(self):
        for part in self.parts:
            part.final_checks()


WORKLOADS = {"ensemble": Ensemble, "solvers": Solvers}
