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

Atoms come as the rows of a PointBatch: one path's time-sorted atoms (n,)
or a batch's padded rows (P, K), and outputs keep the rows' leading shape.
The per-path entry points (solve_forward, solve_forward_pair, picard_solve
and SolutionPath) take one path's (n,) row.  The row
count alone picks the machinery (_one_row).  One row, (n,) or (1, n),
takes the per-path code at any length: the Fenwick sweep or _heat_forward,
blocks built in one reused, CPU-split _BlockWork above ATOM_BLOCK_ROWS
atoms, and _null_plan for wave.  Several rows, including an all-empty
(P, 0) batch, take the batch code: the rank loop of _forward, (P, K, K)
blocks and the causal-prefix gather of _grid_blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import GreenKernel
from .integrals import MissingFieldError
from .noise import (LevyMeasure, PointBatch, SpaceTimeWindow, add_atoms,
                    sample_batches)
from . import parallel
from .reporting import SLACK_SIGMAS, CheckRow, write_check_rows, write_csv


class SolverError(ValueError):
    pass


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
            return np.abs(u)
        if self.kind == "sin":
            return np.sin(u)
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


def _column(v):
    return np.asarray(v, dtype=float)[..., None]


def _row(v):
    return np.atleast_1d(np.asarray(v, dtype=float))[..., None, :]


def _one_row(times) -> bool:
    """True for one row of atoms, (n,) or (1, n): the per-path code."""
    return math.prod(np.shape(times)[:-1]) == 1


def _expected(atoms) -> float:
    """The expected atom count of a path's or a batch's measure in its
    window, which sizes the null-coordinate buckets (_null_buckets)."""
    return atoms.measure.total_mass * atoms.window.volume


def batched_matvec(M, v):
    """M @ v over leading batch axes: (..., n, k) with (..., k) -> (..., n);
    for one path it is M @ v bit for bit."""
    return np.matmul(M, v[..., None])[..., 0]


def pairwise_interaction_matrix(kernel: GreenKernel, target_t, target_x,
                                source_t, source_x, work=None):
    """Out[..., i, j] = G(target_t_i - source_t_j, target_x_i - source_x_j)
    where the source time is strictly earlier, else 0.

    Leading axes are batch axes: (P, n) targets and (P, k) sources give
    (P, n, k), one block per path of a padded batch.  Target times and
    positions broadcast against each other (one grid time with a vector of
    positions gives one grid row).  One rule for every block: where a
    source is not strictly earlier, G is evaluated at dt = 1 in its place
    and the entry zeroed; when every pair is causal G is evaluated as it
    stands.  dt keeps the times' broadcast shape, (..., 1, k) for a grid
    time, and takes the 1s in place; no caller's array is written.

    With work (a _BlockWork), the sources are one path's (k,) and the
    block is built in work's buffers by the same operations (so with the
    same bits), and is a view of them, valid only until the next block
    built in work.
    """
    tt, tx = _column(target_t), _column(target_x)
    st, sx = _row(source_t), _row(source_x)
    if work is not None:
        return work.fill(kernel.evaluate, tt, tx, st, sx)
    dt = tt - st
    dx = tx - sx
    causal = dt > 0.0
    if causal.all():
        return kernel.evaluate(dt, dx)
    np.copyto(dt, 1.0, where=~causal)
    out = kernel.evaluate(dt, dx)
    out *= causal
    return out


def _causal_times(tt, st, dt, causal) -> bool:
    """dt = tt - st and causal = dt > 0 in place, then dt = 1 where a pair
    is not causal; True if every pair is."""
    np.subtract(tt, st, out=dt)
    np.greater(dt, 0.0, out=causal)
    if causal.all():
        return True
    np.copyto(dt, 1.0, where=~causal)
    return False


class _BlockWork:
    """The dt, causal, dx and out buffers of one pass over the kernel
    blocks of one path, allocated once per pass: flat, each as long as the
    pass's largest block needs.  Consecutive blocks reuse the same memory,
    so a block is valid only until the next one is built."""

    def __init__(self, t_size: int, size: int):
        self.dt = np.empty(t_size)
        self.causal = np.empty(t_size, dtype=bool)
        self.dx = np.empty(size)
        self.out = np.empty(size)

    def fill(self, evaluate, tt, tx, st, sx):
        """The (n, k) block of targets (tt, tx), columns, over sources
        (st, sx), rows, by pairwise_interaction_matrix's rule: views of
        the first entries of the buffers, dt and causal in the times'
        shape.  evaluate (the kernel's) is entered once, here.  Its rows go
        in min(parallel.PARTS, n k // RANGE_ENTRIES) ranges, on the calling
        thread alone when that is below 2, and each range writes its dx,
        dt and causal rows, then G, then the mask, so one thread writes
        all of a row.  A grid time's dt, (1, k), is written once first."""
        n, k = tx.shape[0], sx.shape[-1]
        m = tt.shape[0]     # n, or 1 for one grid time
        dt = self.dt[:m * k].reshape(m, k)
        causal = self.causal[:m * k].reshape(m, k)
        dx = self.dx[:n * k].reshape(n, k)
        out = self.out[:n * k].reshape(n, k)
        by_row = m == n
        # one grid time: its dt row, written here, serves every range
        every = by_row or _causal_times(tt, st, dt, causal)
        parts = min(parallel.PARTS, n * k // RANGE_ENTRIES)

        def block_rows(fill, r0, r1):
            np.subtract(tx[r0:r1], sx, out=dx[r0:r1])
            if by_row:
                mask = causal[r0:r1]
                all_causal = _causal_times(tt[r0:r1], st, dt[r0:r1], mask)
            else:
                mask, all_causal = causal, every
            fill(r0, r1)
            if not all_causal:
                out[r0:r1] *= mask

        if parts < 2:
            block_rows(lambda r0, r1: evaluate(dt, dx, out=out), 0, n)
            return out

        def rows(fill, n):
            parallel.map_rows(functools.partial(block_rows, fill), n, parts)

        return evaluate(dt, dx, out=out, rows=rows)


@dataclass
class SolutionPath:
    """Solution values at the atoms (exact support of the jump part) and on
    a rectangular output grid."""

    config: PointBatch
    problem: ProblemSpec
    atom_values: np.ndarray
    solver: str
    grid_times: np.ndarray | None = None
    grid_positions: np.ndarray | None = None
    grid_values: np.ndarray | None = None

    def atoms_csv(self, path) -> None:
        config = self.config
        rows = [[t, x, z, u] for t, x, z, u in zip(
            config.times, config.positions, config.jumps, self.atom_values)]
        write_csv(path, ["t", "x", "z", "u"], rows)

    def grid_csv(self, path) -> None:
        if self.grid_values is None:
            raise SolverError("path has no grid values")
        rows = [[tj, xl, self.grid_values[j, l]]
                for j, tj in enumerate(self.grid_times)
                for l, xl in enumerate(self.grid_positions)]
        write_csv(path, ["t", "x", "u"], rows)


def evaluate_solution(path: SolutionPath, t: float, x: float) -> float:
    """Evaluate the mild-form right-hand side at (t, x): w plus the jump sum
    over the atoms before t, from the atom values, and, when m1 != 0,
    minus m1 times the compensator by _compensator_rows, from the grid
    values.  Raises MissingFieldError for m1 != 0 without grid values and
    for a non-finite atom value before t."""
    problem, config = path.problem, path.config
    m1 = config.measure.first_moment
    if m1 != 0.0 and path.grid_values is None:
        raise MissingFieldError("m1 != 0 evaluation needs grid values")
    mask = config.times < t
    u = path.atom_values[mask]
    if not np.all(np.isfinite(u)):
        raise MissingFieldError("atom values are non-finite before t")
    total = 0.0
    if u.size:
        G = problem.kernel.evaluate(t - config.times[mask],
                                    x - config.positions[mask])
        total = float(np.dot(G * problem.sigma(u), config.jumps[mask]))
    if m1 != 0.0:
        # the rule reads sigma(u) only at the grid times before t
        n = int(np.searchsorted(path.grid_times, t))
        svals = problem.sigma(path.grid_values[:n]).ravel()
        row = _compensator_rows(problem, t, x)[0, :svals.size]
        total -= m1 * float(row @ svals)
    return deterministic_part(problem, t, x) + total


def evaluate_batch(batch: PointBatch, problem: ProblemSpec, atom_values,
                   t, x) -> np.ndarray:
    """evaluate_solution at (t, x) for every path of a batch, (n_paths,),
    from the (n_paths, K) atom values of solve_batch; (t, x) is one point,
    or (n_paths,) arrays of path j's point (t[j], x[j]).  A path with a
    non-finite atom value before its t gets a non-finite value."""
    if batch.measure.first_moment != 0.0:
        raise MissingFieldError("m1 != 0 evaluation needs grid values")
    tt, tx = (np.broadcast_to(_column(v), batch.times.shape) for v in (t, x))
    mask = batch.mask & (batch.times < tt)
    terms = np.zeros(batch.times.shape)
    terms[mask] = problem.kernel.evaluate(
        tt[mask] - batch.times[mask], tx[mask] - batch.positions[mask]) \
        * problem.sigma(np.asarray(atom_values)[mask]) * batch.jumps[mask]
    # a running total per path over its atoms in time order
    return deterministic_part(problem, t, x) \
        + np.ascontiguousarray(terms.T).sum(axis=0)


def _grid_blocks(problem: ProblemSpec, times, positions):
    """The kernel block of each grid time t_j over rows of atoms: the atoms
    before t_j, a prefix of each row k_j atoms long in the longest, give the
    (..., n_x, k_j) block G(t_j - t_i, x_l - x_i), zero after each row's
    prefix.  A block built in a buffer of the pass is valid only until the
    next one is yielded; a caller that holds them all copies each.

    One row builds its blocks by pairwise_interaction_matrix, in one
    _BlockWork above ATOM_BLOCK_ROWS atoms.  Several rows evaluate G only on
    each row's causal prefix, one call per grid time on those (pairs, n_x)
    points, written into a zeroed (P, k_j, n_x) array at the start of one
    buffer per pass; the block is its swapaxes view, so grid_projection's
    operand is contiguous, and pairwise_interaction_matrix's bit for bit."""
    grid_t, grid_x = problem.grid()
    before = np.sum(times[..., None, :] < grid_t[:, None], axis=-1)
    widest = int(before.max(initial=0))
    if _one_row(times):
        t, x = times.reshape(-1), positions.reshape(-1)
        work = _BlockWork(widest, grid_x.size * widest) \
            if t.size > ATOM_BLOCK_ROWS else None
        for tj, kj in zip(grid_t, before.reshape(-1)):
            yield pairwise_interaction_matrix(
                problem.kernel, tj, grid_x, t[:kj], x[:kj], work).reshape(
                    times.shape[:-1] + (grid_x.size, kj))
        return
    shared = np.empty(times.shape[0] * widest * grid_x.size)
    for tj, counts in zip(grid_t, before.T):
        causal = np.arange(counts.max(initial=0)) < counts[:, None]
        kj = causal.shape[1]
        shape = causal.shape + grid_x.shape
        block = shared[:math.prod(shape)].reshape(shape)
        block[~causal] = 0.0
        block[causal] = problem.kernel.evaluate(
            tj - times[:, :kj][causal][:, None],
            grid_x - positions[:, :kj][causal][:, None])
        yield block.swapaxes(-1, -2)


# target atoms per causal row block of _atom_blocks.  On one path of 1000
# and of 4000 atoms, 32 to 64 rows ran Picard-8 and the forward solve
# fastest; at 64 a padded batch of the default noise (K about 20 to 40)
# is one block.
ATOM_BLOCK_ROWS = 64

# the fewest entries per row range of a split block fill (_BlockWork.fill):
# over smaller ranges the threads mostly take turns at the interpreter
# lock.  Picard-8 plus a forward solve on a heat path, best of 5 on 2
# vCPUs: 4195 atoms 271-310 ms at this size against 324-369 ms serial;
# 200 atoms (no block split) 10-14 ms against 34-42 ms with every block
# split.  16 384 and 65 536 did no better on paths of 200 to 4195 atoms.
RANGE_ENTRIES = 32_768


def _atom_blocks(kernel: GreenKernel, times, positions):
    """(r0, r1, G) over causal row blocks of rows of time-sorted atoms: G is
    the (..., r1 - r0, r1) block G(t_i - t_j, x_i - x_j) of targets
    r0 <= i < r1 over the sources j < r1, zero where t_j >= t_i.  Atom i
    only sees atoms before it, so these blocks hold every nonzero entry of
    the atoms' interaction matrix, ATOM_BLOCK_ROWS target rows at a time.

    One row of more than ATOM_BLOCK_ROWS atoms builds its blocks in one
    _BlockWork of ATOM_BLOCK_ROWS x n entries per buffer, its target rows
    split across the CPUs (_BlockWork.fill): a yielded G is valid only
    until the next one.  Other rows build G as new arrays."""
    lead, n = times.shape[:-1], times.shape[-1]
    work = None
    if _one_row(times):
        times, positions = times.reshape(-1), positions.reshape(-1)
        if n > ATOM_BLOCK_ROWS:
            work = _BlockWork(ATOM_BLOCK_ROWS * n, ATOM_BLOCK_ROWS * n)
    for r0 in range(0, n, ATOM_BLOCK_ROWS):
        r1 = min(r0 + ATOM_BLOCK_ROWS, n)
        G = pairwise_interaction_matrix(
            kernel, times[..., r0:r1], positions[..., r0:r1],
            times[..., :r1], positions[..., :r1], work)
        yield r0, r1, G.reshape(lead + G.shape[-2:])


def causal_sums(kernel: GreenKernel, times, positions, coefs):
    """s[..., i] = sum_{t_j < t_i} G(t_i - t_j, x_i - x_j) coefs[..., j] at
    rows of atoms, coefs (..., m, K) for m fields or the rows' shape: one
    pass over _atom_blocks for every field and kernel (wave too, apart
    from _null_plan)."""
    out = np.empty_like(coefs)
    for r0, r1, G in _atom_blocks(kernel, times, positions):
        out[..., r0:r1] = coefs[..., :r1] @ G.swapaxes(-1, -2)
    return out


def _null_buckets(window: SpaceTimeWindow, expected: float, t, x):
    """(bucket of b = t - x for each point, bucket count): equal buckets
    over [-R, T + R], 8 expected atoms each.  Monotone in b and fixed by the
    window and the expected count: adding an atom moves no other bucket."""
    n_buckets = max(1, int(expected / 8.0))
    scale = n_buckets / (window.T + 2.0 * window.R)
    k = np.floor((t - x + window.R) * scale).astype(np.intp)
    return np.clip(k, 0, n_buckets - 1), n_buckets


def _null_plan(window: SpaceTimeWindow, expected: float, t, x, tq, xq):
    """apply(v) -> s in the targets' shape: s_q sums the values v of the
    atoms (t, x) of one row, in time order, strictly before target q in its
    closed light cone, that is a_j <= a_q and b_j <= b_q for a = t + x,
    b = t - x.  The sweep order is (a, t), targets first on ties.  s_q adds
    what _wave_forward's Fenwick tree adds, in its order: the running sum
    of each dyadic range of buckets below q's, then the earlier atoms of
    q's bucket with b_j <= b_q."""
    shape = np.shape(tq)
    t, x, tq, xq = (np.ravel(a) for a in (t, x, tq, xq))
    n, nq = t.size, tq.size
    order = np.argsort(t + x, kind="stable")    # the atoms in sweep order
    # atoms swept before each target: complex numbers sort by (real, imag)
    before = np.searchsorted((t + x + 1j * t)[order], tq + xq + 1j * tq)
    k, n_buckets = _null_buckets(window, expected, t[order], x[order])
    kq = _null_buckets(window, expected, tq, xq)[0]
    b = np.append((t - x)[order], 0.0)
    levels = (n_buckets - 1).bit_length()
    pads, rows, offset = [], [], 1
    for level in [*range(levels), 0]:           # then q's own bucket
        # pad[g]: the sweep ranks of the atoms of group g = k >> level,
        # then n; seen: how many of them each target sweeps after
        group = k >> level
        perm = np.argsort(group.astype(np.min_scalar_type(n_buckets)),
                          kind="stable")        # a radix sort
        first = np.searchsorted(group[perm],
                                np.arange(((n_buckets - 1) >> level) + 2))
        pad = np.full((first.size - 1, int(np.diff(first).max())), n)
        pad[group[perm], np.arange(n) - first[group[perm]]] = perm
        own = len(pads) == levels
        g = (kq >> level) - (not own)
        seen = np.searchsorted(group[perm] * (n + 1) + perm,
                               g * (n + 1) + before) - first[np.maximum(g, 0)]
        at = offset + g * pad.shape[1]
        if not own:     # the Fenwick node of this level: bit `level` of kq
            rows.append(np.where((g & 1 == 0) & (seen > 0), at + seen - 1, 0))
        for slot in range(int(seen.max(initial=0)) if own else 0):
            rows.append(np.where((slot < seen) & (b[pad[kq, slot]] <= tq - xq),
                                 at + slot, 0))
        pads.append(pad)
        offset += pad.size
    index = np.array(rows, dtype=np.intp).reshape(-1, nq)

    def apply(v):
        v = np.append(np.ravel(np.asarray(v, dtype=float))[order], 0.0)
        terms = [[0.0], *(np.cumsum(v[pad], axis=1).ravel()
                          for pad in pads[:-1]), v[pads[-1]].ravel()]
        s = np.zeros(nq)
        for row in np.concatenate(terms)[index]:    # in the sweep's order
            s += row
        return s.reshape(shape)

    return apply


def _wave_forward(problem: ProblemSpec, t, x, z, expected: float):
    """(u, sigma(u) z) at the atoms (t, x, z), (n,), of one wave path, swept
    in (a, t) order: u_i = w_i + 1/2 sum sigma(u_j) z_j over the swept atoms
    with b_j <= b_i, by a Fenwick tree over the buckets below i's and a scan
    of i's own (buckets sized by expected, _null_buckets)."""
    order = np.argsort(t + x, kind="stable")    # (a, t): t is sorted
    k, n_buckets = _null_buckets(problem.window, expected, t, x)
    w = np.array(deterministic_part(problem, t, x), dtype=float, ndmin=1)
    tree, own = [0.0] * (n_buckets + 1), [[] for _ in range(n_buckets)]
    u, sigz = np.empty(t.size), np.empty(t.size)
    for i, ki, bi, wi, zi in zip(order.tolist(), k[order].tolist(),
                                 (t - x)[order].tolist(), w[order].tolist(),
                                 z[order].tolist()):
        s, j = 0.0, ki
        while j:                    # buckets [0, ki), lowest level first
            s += tree[j]
            j &= j - 1
        for bj, vj in own[ki]:
            if bj <= bi:
                s += vj
        u[i] = ui = wi + 0.5 * s
        sigz[i] = vi = float(problem.sigma(ui)) * zi
        own[ki].append((bi, vi))
        j = ki + 1
        while j <= n_buckets:
            tree[j] += vi
            j += j & -j
    return u, sigz


def grid_projection(problem: ProblemSpec, times, positions, coefs,
                    blocks=None):
    """Yield (j, values) for each grid time t_j, with values[..., l] =
    w(t_j, x_l) + sum_{t_i < t_j} G(t_j - t_i, x_l - x_i) coefs[..., i].

    coefs is (..., m, K) for m fields or in the rows' shape for one; values
    has coefs' shape with n_x in place of the atom axis.  Each grid time's
    kernel block (_grid_blocks) is built once and applied to every field
    and row with one (batched) matrix product; with no atom before t_j the
    values are w.  blocks is a list of copies of _grid_blocks' blocks from
    a caller that projects the same atoms again; without it each block is
    built, used and dropped, so a caller that reduces each grid time's
    values as they come never holds the whole grid.
    """
    grid_t, grid_x = problem.grid()
    coefs = np.asarray(coefs, dtype=float)
    w = np.asarray(deterministic_part(problem, grid_t[:, None],
                                      grid_x[None, :]), dtype=float)
    if blocks is None:
        blocks = _grid_blocks(problem, times, positions)
    for j, block in enumerate(blocks):
        yield j, w[j] + coefs[..., :block.shape[-1]] @ block.swapaxes(-1, -2)


def _project_grid(problem: ProblemSpec, times, positions, coefs,
                  expected=None, blocks=None):
    """Grid values w + sum_{t_i < t_j} G(t_j - t_i, x_l - x_i) coefs_i of
    one row and one field, coefs in the row's shape: grid_projection
    collected into (..., n_t, n_x).  Given expected, the measure's expected
    atom count (m1 = 0), a wave row takes the grid points as the targets of
    _null_plan, whose buckets it sizes, in place of kernel blocks."""
    grid_t, grid_x = problem.grid()
    shape = np.shape(times)[:-1] + (grid_t.size, grid_x.size)
    if problem.kernel.kind == "wave" and expected is not None:
        tq, xq = np.repeat(grid_t, grid_x.size), np.tile(grid_x, grid_t.size)
        s = _null_plan(problem.window, expected, times, positions, tq,
                       xq)(coefs)
        return grid_t, grid_x, (deterministic_part(problem, tq, xq)
                                + 0.5 * s).reshape(shape)
    out = np.empty(shape)
    for j, values in grid_projection(problem, times, positions, coefs,
                                     blocks):
        out[..., j, :] = values
    return grid_t, grid_x, out


def iterate_moment_sums(problem: ProblemSpec, times, positions, jumps,
                        iterates, increments: bool = False):
    """Sums over the rows of a batch of the grid values of the Picard
    iterates u_0..u_n (iterates at the atoms, each (P, K)).

    Returns [sum u_m^2, sum u_m^4], each (n + 1, n_t, n_x), followed with
    increments by [sum (u_m - u_{m-1})^2, sum (u_m - u_{m-1})^4], each
    (n, n_t, n_x).  The grid values are reduced one grid time at a time,
    so the (P, n + 1, n_t, n_x) grid values are never held whole.
    """
    grid_t, grid_x = problem.grid()
    shape = (grid_t.size, grid_x.size)
    m = len(iterates)
    sums = [np.zeros((m,) + shape), np.zeros((m,) + shape)]
    if increments:
        sums += [np.zeros((m - 1,) + shape), np.zeros((m - 1,) + shape)]
    # u_0 = w projects nothing, and u_m projects sigma(u_{m-1}) z
    coefs = np.zeros(jumps.shape[:-1] + (m, jumps.shape[-1]))
    for k, prev in enumerate(iterates[:-1], start=1):
        coefs[..., k, :] = problem.sigma(prev) * jumps
    for j, grids in grid_projection(problem, times, positions, coefs):
        fields = (grids, np.diff(grids, axis=1)) if increments else (grids,)
        for k, values in enumerate(fields):
            sq = np.square(values)
            sums[2 * k][:, j] = sq.sum(axis=0)
            sums[2 * k + 1][:, j] = np.square(sq).sum(axis=0)
    return sums


def sup_estimate(sums, sums_sq, n: int):
    """Grid sup of an ensemble mean, from the ensemble sums of a quantity
    and of its square: the max over the last axis of sums / n, and the
    standard error of that mean at the maximizing grid point."""
    mean = sums / n
    var = np.maximum(sums_sq / n - mean ** 2, 0.0) * (n / max(n - 1, 1))
    arg = np.argmax(mean, axis=-1)[..., None]
    return (np.take_along_axis(mean, arg, axis=-1)[..., 0],
            np.sqrt(np.take_along_axis(var, arg, axis=-1)[..., 0] / n))


def _forward(problem: ProblemSpec, atoms):
    """(u, sigma(u) z) in the rows' shape, 0 at padding atoms: the exact
    solution at the atoms of the rows of a PointBatch by forward
    substitution in atom time; m1 = 0 only.

    One row: wave sweeps in null coordinates (_wave_forward), heat, whose G
    is never exactly 0, over _atom_blocks (_heat_forward).  Several rows:
    step k solves atom k of the a rows with more than k atoms, the (a, k)
    prefix of the rows sorted by decreasing count.  On 100 rows this beat
    per-row sweeps at 20 to 256 atoms a row; on one row the sweep won at
    27 to 4094 atoms."""
    if atoms.measure.first_moment != 0.0:
        raise SolverError("forward solve requires m1 = 0; use picard_solve")
    shape = atoms.times.shape
    if _one_row(atoms.times):
        t, x, z = (a.reshape(-1) for a in (atoms.times, atoms.positions,
                                           atoms.jumps))
        if problem.kernel.kind == "wave":
            u, sigz = _wave_forward(problem, t, x, z, _expected(atoms))
        else:
            u = np.array(deterministic_part(problem, t, x), dtype=float,
                         ndmin=1)
            sigz = _heat_forward(problem, t, x, u, z)
        return u.reshape(shape), sigz.reshape(shape)
    by_count = np.argsort(-atoms.counts, kind="stable")
    t, x, z = (a[by_count] for a in (atoms.times, atoms.positions,
                                     atoms.jumps))
    # active[k]: the number of rows with more than k atoms
    active = np.searchsorted(-atoms.counts[by_count], -np.arange(shape[1]))
    u = np.array(deterministic_part(problem, t, x), dtype=float, ndmin=2)
    sigz = np.zeros_like(u)
    for k, a in enumerate(active.tolist()):
        if k:
            G = problem.kernel.evaluate(t[:a, k, None] - t[:a, :k],
                                        x[:a, k, None] - x[:a, :k])
            u[:a, k] += np.sum(G * sigz[:a, :k], axis=1)
        sigz[:a, k] = problem.sigma(u[:a, k]) * z[:a, k]
    unsort = np.argsort(by_count)
    return np.where(atoms.mask, u[unsort], 0.0), sigz[unsort]


def _path_row(config: PointBatch):
    """Refuse anything but one path's (n,) row."""
    if config.times.ndim != 1:
        raise SolverError("a per-path solver takes one path's (n,) row; "
                          "take batch.path(j)")


def solve_forward(config: PointBatch, problem: ProblemSpec,
                  with_grid: bool = True) -> SolutionPath:
    """The exact solution of one path's row at its atoms (_forward; m1 = 0
    only) and with_grid on the grid, projecting sigma(u) z (_project_grid:
    by _null_plan on wave, by kernel blocks on heat)."""
    _path_row(config)
    u, sigz = _forward(problem, config)
    path = SolutionPath(config, problem, u, solver="forward")
    if with_grid:
        path.grid_times, path.grid_positions, path.grid_values = \
            _project_grid(problem, config.times, config.positions, sigz,
                          _expected(config))
    return path


def solve_batch(batch: PointBatch, problem: ProblemSpec) -> np.ndarray:
    """solve_forward's atom values for every path of a batch, (n_paths, K)
    like the batch's rows, 0 at the padding atoms; m1 = 0 only."""
    return _forward(problem, batch)[0]


def _heat_forward(problem: ProblemSpec, times, positions, u, z,
                  shared: int = 0):
    """Forward substitution over _atom_blocks of one path's atoms (n,) in
    place: u holds w at the atoms on entry, the solution on return; returns
    sigma(u) z.  A block's rows take the atoms before it with one matrix
    product, then are solved one at a time.  u and z are (n,), or (n, m)
    for m jump fields sharing each block, copying field 0 at rows below
    shared."""
    sigma = problem.sigma
    sigz = np.empty_like(u)
    for r0, r1, G in _atom_blocks(problem.kernel, times, positions):
        if r0:
            u[r0:r1] += G[:, :r0] @ sigz[:r0]
        for k in range(r0, r1):
            if k > r0:
                u[k] += np.dot(G[k - r0, r0:k], sigz[r0:k])
            if k < shared:
                u[k] = u[k, 0]
            sigz[k] = sigma(u[k]) * z[k]
    return sigz


def solve_forward_pair(config: PointBatch, problem: ProblemSpec,
                       time: float, x: float, jump: float):
    """(base, plus): solve_forward's paths, without the grid, of one path's
    row and of the row with the atom (time, x, jump) added (add_atoms);
    m1 = 0 only.

    Wave sweeps twice (_wave_forward evaluates no kernel).  Heat runs one
    _heat_forward over the plus atoms with two jump fields, the added jump
    0 in the base one, so each kernel block is built once; atoms before
    the added one copy base into plus, so adaptedness holds bit for bit.
    The base values round apart from solve_forward(config)'s."""
    _path_row(config)
    if config.measure.first_moment != 0.0:
        raise SolverError("solve_forward_pair requires m1 = 0")
    plus = add_atoms(config, time, x, jump)
    if problem.kernel.kind == "wave":
        return (solve_forward(config, problem, with_grid=False),
                solve_forward(plus, problem, with_grid=False))
    k = int(np.searchsorted(config.times, time))
    z = np.stack([plus.jumps, plus.jumps], axis=1)
    z[k, 0] = 0.0
    u = np.repeat(_column(deterministic_part(problem, plus.times,
                                             plus.positions)), 2, axis=1)
    _heat_forward(problem, plus.times, plus.positions, u, z, shared=k)
    return (SolutionPath(config, problem, np.delete(u[:, 0], k), "forward"),
            SolutionPath(plus, problem, u[:, 1].copy(), "forward"))


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


def picard_iterates_at_atoms(problem: ProblemSpec, times, positions, jumps,
                             n_iter: int, expected: float):
    """Atom-value Picard iterates [u_0, ..., u_n] for m1 = 0 at rows of
    atoms, each in the rows' shape.

    One wave row of more than ATOM_BLOCK_ROWS atoms applies one _null_plan
    to each iterate, its buckets sized by expected, the measure's expected
    atom count in the window, so an added atom moves no bucket.  Otherwise
    one sweep over _atom_blocks: u_{m+1} at rows [r0, r1) needs u_m only
    before r1, so each block computes all n iterates of its rows, one
    (batched) matrix-vector product each, and is dropped."""
    if n_iter < 0:
        raise SolverError("n_iter must be >= 0")
    sigma = problem.sigma
    w = np.array(deterministic_part(problem, times, positions), dtype=float,
                 ndmin=1)
    if problem.kernel.kind == "wave" and _one_row(times) \
            and times.size > ATOM_BLOCK_ROWS:
        dominance = _null_plan(problem.window, expected, times, positions,
                               times, positions)
        iterates = [w]
        for _ in range(n_iter):
            iterates.append(w + 0.5 * dominance(sigma(iterates[-1]) * jumps))
        return iterates
    iterates = [w] + [np.empty_like(w) for _ in range(n_iter)]
    sigz = np.empty((n_iter,) + w.shape)     # sigma(u_m) z, m < n
    for r0, r1, G in _atom_blocks(problem.kernel, times, positions):
        for m in range(n_iter):
            sigz[m, ..., r0:r1] = sigma(iterates[m][..., r0:r1]) \
                * jumps[..., r0:r1]
            iterates[m + 1][..., r0:r1] = w[..., r0:r1] + batched_matvec(
                G, sigz[m, ..., :r1])
    return iterates


def picard_solve(config: PointBatch, problem: ProblemSpec,
                 n_iter: int, with_grid: bool = True):
    """Picard iteration u_{m+1} = w + int G sigma(u_m) dL from u_0 = w on
    one path's row.

    Returns (SolutionPath of the n-th iterate, PicardDiagnostics with the
    sup-atom differences).  When m1 != 0 the compensator is quadratured on
    the problem grid by _compensator_rows' rule, so accuracy is
    grid-limited; with m1 = 0 the iteration is exact arithmetic on the
    atoms.

    With m1 = 0 the iterates come from picard_iterates_at_atoms, never the
    n_atoms^2 matrix.  A wave path projects on the grid by _null_plan, a
    heat path builds one grid time's kernel block at a time.  With m1 != 0
    the grid is returned whatever with_grid says: the compensator's
    quadrature carries the iterate on it.

    The m1 != 0 branch holds the dense atoms x atoms matrix (its paths are
    short) and the compensator, built once per call as a linear operator
    (_compensator_operator) applied with one matrix product per iteration:
    B * n_x^2 * 8 bytes of grid blocks, B the number of distinct blocks over
    the grid time differences (on the default 64 x 64 grid wave 38: 1.2 MB,
    heat 169: 5.5 MB), plus n_atoms * n_t * n_x * 8 bytes of atom rows.
    It holds the grid projection's kernel blocks too, copied out of
    _grid_blocks' workspace, about n_atoms * n_t * n_x * 4 bytes.
    """
    if n_iter < 0:
        raise SolverError("n_iter must be >= 0")
    _path_row(config)
    kernel, sigma = problem.kernel, problem.sigma
    measure, t, x = config.measure, config.times, config.positions
    if measure.first_moment == 0.0:
        expected = _expected(config)
        iterates = picard_iterates_at_atoms(problem, t, x, config.jumps,
                                            n_iter, expected)
        u = iterates[-1]
        diffs = np.array([float(np.max(np.abs(b - a))) if a.size else 0.0
                          for a, b in zip(iterates[:-1], iterates[1:])])
        path = SolutionPath(config, problem, u, solver=f"picard({n_iter})")
        if with_grid:
            # iterate n projects sigma of iterate n-1 (nothing for n = 0)
            coef = sigma(iterates[-2]) * config.jumps if n_iter else \
                np.zeros(config.n_atoms)
            path.grid_times, path.grid_positions, path.grid_values = \
                _project_grid(problem, t, x, coef, expected)
        return path, PicardDiagnostics(diffs)

    # m1 != 0: carry the iterate on the grid for the compensator quadrature
    w_at = np.atleast_1d(np.asarray(deterministic_part(problem, t, x),
                                    dtype=float))
    grid_t, grid_x = problem.grid()
    u_gr = np.asarray(deterministic_part(problem, grid_t[:, None],
                                         grid_x[None, :]), dtype=float)
    M = pairwise_interaction_matrix(kernel, t, x, t, x)
    compensator = _compensator_operator(problem, config)
    blocks = [b.copy() for b in _grid_blocks(problem, t, x)]
    u_at = w_at.copy()
    diffs = []
    m1 = measure.first_moment
    for _ in range(n_iter):
        comp_at, comp_gr = compensator(sigma(u_gr))
        coef = sigma(u_at) * config.jumps
        new_at = w_at + M @ coef - m1 * comp_at
        _, _, new_gr = _project_grid(problem, t, x, coef, blocks=blocks)
        new_gr -= m1 * comp_gr
        diffs.append(float(np.max(np.abs(new_at - u_at))) if u_at.size else
                     float(np.max(np.abs(new_gr - u_gr))))
        u_at, u_gr = new_at, new_gr
    path = SolutionPath(config, problem, u_at, solver=f"picard({n_iter})",
                        grid_times=grid_t, grid_positions=grid_x,
                        grid_values=u_gr)
    return path, PicardDiagnostics(np.array(diffs))


def cross_solver_gaps(batch: PointBatch, problem: ProblemSpec, n_iter: int):
    """(atom gaps, grid gaps), each (n_paths,): per path of a batch, the
    largest |Picard(n_iter) - forward solve| at the atoms and on the grid
    (solve_batch, and Picard projecting sigma of its last but one
    iterate, as picard_solve does); m1 = 0, n_iter >= 1."""
    if n_iter < 1:
        raise SolverError("n_iter must be >= 1")
    t, x, z = batch.times, batch.positions, batch.jumps
    exact = solve_batch(batch, problem)
    approx = picard_iterates_at_atoms(problem, t, x, z, n_iter,
                                      _expected(batch))
    atom_gaps = np.max(np.where(batch.mask, np.abs(approx[-1] - exact),
                                0.0), axis=-1, initial=0.0)
    coefs = np.stack([problem.sigma(approx[-2]) * z,
                      problem.sigma(exact) * z], axis=1)
    grid_gaps = np.zeros(batch.n_paths)
    for _, grids in grid_projection(problem, t, x, coefs):
        grid_gaps = np.maximum(grid_gaps, np.max(
            np.abs(grids[:, 0] - grids[:, 1]), axis=-1))
    return atom_gaps, grid_gaps


def _trapezoid(s):
    """Trapezoid weights over the points s (0 for a single point)."""
    half = 0.5 * np.diff(s)
    w = np.zeros(s.size)
    w[:-1] += half
    w[1:] += half
    return w


def _compensator_rows(problem: ProblemSpec, t, x):
    """The compensator's quadrature rule at time-sorted points (t, x), as
    the (k, n_t n_x) rows whose product with sigma(u) on the problem grid,
    raveled, approximates int_0^t int G(t - s, x - y) sigma(u(s, y)) dy ds.

    Trapezoid weights in s over the grid times before t and in y over the
    grid positions, plus the first-order tail
    sigma(u(s_last, x)) * int_0^{t - s_last} int G over the cell touching
    s = t, which keeps the heat kernel's concentration near s = t from
    being dropped; sigma(u(s_last, .)) is linear in x between grid
    positions and constant beyond the edges (np.interp).  The points
    between two consecutive grid times share one kernel evaluation over
    the grid times before them, so one point costs one evaluation and no
    temporary is larger than one such group's rows.
    """
    kernel = problem.kernel
    grid_t, grid_x = problem.grid()
    n_t, n_x = grid_t.size, grid_x.size
    t, x = np.atleast_1d(t), np.atleast_1d(x)
    wx = _trapezoid(grid_x)
    rows = np.zeros((t.size, n_t, n_x))
    before = np.searchsorted(grid_t, t)
    counts, starts = np.unique(before, return_index=True)
    for c, k0, k1 in zip(counts, starts, np.append(starts[1:], t.size)):
        if c:
            tw = _trapezoid(grid_t[:c])
            rows[k0:k1, :c] = kernel.evaluate(
                (t[k0:k1, None] - grid_t[:c])[..., None],
                (x[k0:k1, None] - grid_x)[:, None]) * (tw[:, None] * wx)
    k = np.flatnonzero(before)
    last = before[k] - 1
    m = np.clip(np.searchsorted(grid_x, x[k], side="right") - 1, 0, n_x - 2)
    frac = np.clip((x[k] - grid_x[m]) / (grid_x[m + 1] - grid_x[m]),
                   0.0, 1.0)
    mass = kernel.cumulative_mass_integral(t[k] - grid_t[last])
    rows[k, last, m] += (1.0 - frac) * mass
    rows[k, last, m + 1] += frac * mass
    return rows.reshape(t.size, n_t * n_x)


def _compensator_operator(problem: ProblemSpec, config: PointBatch):
    """The compensator at every grid point and every atom, as one linear
    map of sigma(u) on the problem grid, built once.

    Atom targets are the dense rows of _compensator_rows, the one
    quadrature rule.  Grid targets apply the same rule, whose tail there
    is sigma(u(t_{j-1}, x_l)) * int_0^{t_j - t_{j-1}} int G, with one
    block G(d, x_l - x_m) w_m per distinct floating-point time difference
    d = t_j - t_i; one block per lag at a representative time would flip
    the wave kernel's light-cone ties |x_l - x_m| = t_j - t_i.  Every d is
    > 0, so the blocks are one kernel evaluation with no causal mask.
    Equal blocks are kept once: G(d, .) on the grid's differences is
    monotone in d for the wave kernel (the cone 1{|xi| <= d} only grows),
    so equal blocks are runs of neighbouring lags in sorted order and a
    comparison with the previous lag finds them (wave keeps 38 of 169 on
    the default 64 x 64 grid; heat's G(d, 0) falls strictly with d, so it
    keeps them all).  Returns apply(svals), svals = sigma(u) on the grid
    (n_t, n_x), which gives (compensator at the atoms, compensator on the
    grid): one product of svals with every kept block, read at each
    (source time, block) pair of a grid target.
    """
    kernel = problem.kernel
    grid_t, grid_x = problem.grid()
    n_t, n_x = grid_t.size, grid_x.size

    # grid target j, grid source time i < j: pairs in row order
    jj, ii = np.tril_indices(n_t, -1)
    lags, lag_of = np.unique(grid_t[jj] - grid_t[ii], return_inverse=True)
    G = kernel.evaluate(lags[:, None, None],
                        (grid_x[:, None] - grid_x)[None])  # (U, n_x, n_x)
    new_block = np.ones(lags.size, dtype=bool)
    new_block[1:] = np.any(G[1:] != G[:-1], axis=(1, 2))
    kept = G[new_block]                                  # (B, n_x, n_x)
    kept *= _trapezoid(grid_x)
    kept = kept.reshape(-1, n_x).T                       # (n_x, B n_x)
    block_of = (np.cumsum(new_block) - 1)[lag_of]
    pair_w = np.concatenate([_trapezoid(grid_t[:j]) for j in range(1, n_t)])
    row_starts = np.searchsorted(jj, np.arange(1, n_t))
    tail = kernel.cumulative_mass_integral(np.diff(grid_t))[:, None]
    rows = _compensator_rows(problem, config.times, config.positions)

    def apply(svals):
        per_block = (svals @ kept).reshape(n_t, -1, n_x)
        terms = pair_w[:, None] * per_block[ii, block_of]
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
    second_moment_se: np.ndarray   # their standard errors
    n_realizations: int
    recursion_ok: bool
    decay_ok: bool
    bounded_ok: bool
    note: str = "sup over x is a grid max"

    @property
    def passed(self) -> bool:
        return self.recursion_ok and self.decay_ok and self.bounded_ok

    @property
    def rows(self) -> list:
        """Every criterion of passed as a CheckRow, built from the arrays on
        demand: H_n(t) against its recursion bound (n = 1 has none and is
        not gated), the sqrt-ratio sqrt(sup_t H_n / sup_t H_{n-1}) against
        DECAY_LIMIT (the last three gated: decay_ok) and the K-hat steps
        |K_{n} - K_{n-1}| that bounded_ok gates against their allowance."""
        rows = []
        for (n, j), h in np.ndenumerate(self.h_values):
            bound = None if n == 0 else float(self.bounds[n, j])
            rows.append(CheckRow(
                "existence", f"n={n + 1};t={self.t_grid[j]:g}", float(h),
                bound, None if n == 0 else float(h) - bound,
                None if n == 0 else bool(self.bound_pass[n, j])))
        gated = dict(_decay_gates(self.sqrt_ratios))
        for n, ratio in enumerate(self.sqrt_ratios.tolist()):
            rows.append(CheckRow("existence", f"decay n={n + 2}", ratio,
                                 DECAY_LIMIT, ratio - DECAY_LIMIT,
                                 gated.get(n)))
        for n, step, allowance in _k_hat_steps(self.second_moment_sup,
                                                self.second_moment_se):
            rows.append(CheckRow("existence", f"K-hat step n={n + 1}",
                                 float(step), float(allowance),
                                 float(step - allowance),
                                 not step > allowance))
        return rows

    def to_csv(self, path) -> None:
        write_check_rows(path, self.rows)


# existence_diagnostics' decay gate: the last three sqrt-ratios of
# sup_t H_n at most DECAY_LIMIT
DECAY_LIMIT = 0.9


def _decay_gates(ratios):
    """(index, passed) of the sqrt-ratios that decay_ok gates."""
    return [(n, bool(ratios[n] <= DECAY_LIMIT))
            for n in range(max(0, ratios.size - 3), ratios.size)]


def _k_hat_steps(k_mean, k_se):
    """(n, |K_{n+1} - K_n|, allowance) of the steps that bounded_ok gates:
    the last two, each within SLACK_SIGMAS standard errors plus 5% of
    1 + K_n."""
    n_iter = k_mean.size - 1
    return [(n, abs(k_mean[n + 1] - k_mean[n]),
             SLACK_SIGMAS * (k_se[n + 1] + k_se[n]) + 0.05 * (1 + k_mean[n]))
            for n in range(max(1, n_iter - 2), n_iter)]


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
    if measure.total_mass == 0.0:
        raise SolverError("existence diagnostics need a measure of positive "
                          "mass: no path has an atom")
    if n_iter < 2:
        raise SolverError("need at least two iterates to difference")
    sums, expected = None, measure.total_mass * problem.window.volume
    for batch in sample_batches(measure, problem.window, master_seed,
                                n_realizations):
        t, x, z = batch.times, batch.positions, batch.jumps
        part = iterate_moment_sums(
            problem, t, x, z, picard_iterates_at_atoms(problem, t, x, z,
                                                       n_iter, expected),
            increments=True)
        sums = part if sums is None else [a + b for a, b in zip(sums, part)]
    return _existence_report(problem, measure, n_realizations, *sums)


def _existence_report(problem: ProblemSpec, measure: LevyMeasure,
                      n_realizations: int, u1, u2, s1, s2) -> ExistenceReport:
    """The gates of existence_diagnostics on its ensemble sums (the order
    of iterate_moment_sums with increments)."""
    grid_t = problem.grid()[0]
    n_iter, n_t = s1.shape[:2]
    kernel, sigma = problem.kernel, problem.sigma
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
    decay_ok = all(ok for _, ok in _decay_gates(ratios))

    k_mean, k_se = sup_estimate(u1.reshape(n_iter + 1, -1),
                                u2.reshape(n_iter + 1, -1), nr)
    bounded_ok = not any(step > allowance
                         for _, step, allowance in _k_hat_steps(k_mean, k_se))

    return ExistenceReport(grid_t, h, se_h, bounds, bound_pass, ratios,
                           k_mean, k_se, n_realizations, recursion_ok,
                           decay_ok, bounded_ok)
