"""Wave paths in null coordinates a = t + x, b = t - x: the forward solve,
the Picard iterates and the grid projection against the dense
pairwise_interaction_matrix, bit for bit where every sum is exact, and
adaptedness on a path of about 4000 atoms."""

import math

import numpy as np
import pytest

import levyfield as lf
from levyfield import solver

import pathwise_reference as ref

B = solver.ATOM_BLOCK_ROWS
WINDOW = lf.SpaceTimeWindow(1.0, 2.0)
# grid times j / 64 and positions -2 + l / 16: dyadic
DYADIC = lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.affine_map(0.5, 0.5),
                        ic_kind="constant", window=WINDOW, n_t=65, n_x=65)
# every value below is a multiple of 2^-EXACT_BITS
EXACT_BITS = 44


def _dyadic_path(n: int, seed: int):
    """n atoms on the lattice of step 1/256, jumps +-1/2.  About half of
    them sit exactly on the light cone of an earlier atom (sharing its a or
    its b); one sits at grid time 1/2 off the grid positions, and one at the
    grid point (3/4, 1/4)."""
    rng = np.random.default_rng(seed)
    ticks = rng.choice(np.setdiff1d(np.arange(1, 256), [128, 192]), n - 2,
                       replace=False)
    times = np.sort(np.append(ticks, [128, 192])) / 256.0
    pos = rng.integers(-512, 513, n) / 256.0
    for i in range(1, n):
        j = rng.integers(0, i)
        cone = pos[j] + rng.choice([-1.0, 1.0]) * (times[i] - times[j])
        if rng.random() < 0.5 and abs(cone) <= WINDOW.R:
            pos[i] = cone
    pos[times == 0.5] = 1.0 / 256.0
    pos[times == 0.75] = 0.25
    jumps = rng.choice([-0.5, 0.5], n)
    return lf.PointBatch(times, pos, jumps, n, WINDOW,
                         lf.two_point_measure(0.5, n / WINDOW.volume))


def _exact(values):
    # multiples of 2^-EXACT_BITS whose absolute sum stays below 2^53: then
    # every sum over them, in any order, is exact
    scaled = np.asarray(values) * 2.0 ** EXACT_BITS
    return bool(np.all(scaled == np.round(scaled))
                and np.sum(np.abs(scaled)) < 2.0 ** 53)


@pytest.mark.parametrize("n", [40, 150])
def test_exact_cone_matches_dense_bit_for_bit(n):
    cfg = _dyadic_path(n, n)
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    kernel, sigma = DYADIC.kernel, DYADIC.sigma
    M = solver.pairwise_interaction_matrix(kernel, t, x, t, x)
    # the closed cone and shared null coordinates are well represented
    dt, dx = t[:, None] - t[None, :], x[:, None] - x[None, :]
    assert np.sum((dt > 0) & (np.abs(dx) == dt)) >= n // 3
    assert np.any((dt > 0) & (dx == dt)) and np.any((dt > 0) & (dx == -dt))
    grid_t, grid_x = DYADIC.grid()
    gt, gx = np.repeat(grid_t, grid_x.size), np.tile(grid_x, grid_t.size)
    on_grid = (gt[:, None] == t) & (gx[:, None] == x)
    assert on_grid.sum() >= 1 and np.any(grid_t == 0.5)
    Mg = solver.pairwise_interaction_matrix(kernel, gt, gx, t, x)

    # the forward solve, from the dense matrix one atom at a time
    u = np.ones(n)
    for i in range(n):
        u[i] += M[i, :i] @ (sigma(u[:i]) * z[:i])
    assert _exact(sigma(u) * z)
    path = lf.solve_forward(cfg, DYADIC)
    assert np.array_equal(path.atom_values, u)
    assert np.array_equal(path.grid_values.ravel(),
                          1.0 + Mg @ (sigma(u) * z))

    want = [np.ones(n)]
    for _ in range(8):
        assert _exact(sigma(want[-1]) * z)
        want.append(1.0 + M @ (sigma(want[-1]) * z))
    got = solver.picard_iterates_at_atoms(DYADIC, cfg, 8)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    path, _ = lf.picard_solve(cfg, DYADIC, 8)
    assert np.array_equal(path.atom_values, want[-1])
    assert np.array_equal(path.grid_values.ravel(),
                          1.0 + Mg @ (sigma(want[-2]) * z))


def _wave_path():
    # the ~4000-atom path of test_picard_at_atoms_holds_no_atoms_by_atoms_matrix
    mass = 4000 / WINDOW.volume
    measure = lf.two_point_measure(math.sqrt(5.0 / mass), mass)
    return lf.sample_prm(measure, WINDOW, (61, 0))


def _problem(kernel):
    return lf.ProblemSpec(kernel=lf.GreenKernel(kernel),
                          sigma=lf.affine_map(0.5, 1.0), ic_kind="cosine",
                          window=WINDOW)


def test_adding_an_atom_keeps_the_past_bit_for_bit():
    cfg = _wave_path()
    assert cfg.n_atoms > 3500
    problem = _problem("wave")
    base = lf.solve_forward(cfg, problem)
    for r, xi in ((0.25, -1.0), (0.5, 0.3), (0.9, 1.7)):
        point = lf.DerivativePoint(r, xi, -cfg.jumps[0])
        plus = lf.solve_forward(lf.add_atoms(cfg, r, xi, point.jump), problem)
        early = cfg.times < r
        assert np.array_equal(plus.atom_values[:early.sum()],
                              base.atom_values[early])
        rows = base.grid_times <= r
        assert np.array_equal(plus.grid_values[rows], base.grid_values[rows])
        for t in (r, 0.5 * r):
            check = ref.derivative_equation_residual(problem, cfg, point, t,
                                                    0.1)
            assert check.trivial and check.lhs == 0.0
    # paths of about 20 atoms, where one more atom often changes a count
    # taken from the realized atoms
    measure = lf.two_point_measure(1.0, 20 / WINDOW.volume)
    for i in range(200):
        cfg = lf.sample_prm(measure, WINDOW, (7, i))
        rng = np.random.default_rng([7, i])
        r = float(rng.uniform(0.1, 0.9))
        base = lf.solve_forward(cfg, problem, with_grid=False)
        plus = lf.solve_forward(lf.add_atoms(cfg, r, float(rng.uniform(-2, 2)),
                                             1.0), problem, with_grid=False)
        early = cfg.times < r
        assert np.array_equal(plus.atom_values[:early.sum()],
                              base.atom_values[early])


def test_wave_paths_build_no_kernel_blocks(monkeypatch):
    cfg = _wave_path()
    built = []

    def refuse(*args):
        raise AssertionError("a wave path built kernel blocks")

    monkeypatch.setattr(solver, "_atom_blocks", refuse)
    monkeypatch.setattr(solver, "_grid_blocks", refuse)
    problem = _problem("wave")
    lf.solve_forward(cfg, problem)
    lf.picard_solve(cfg, problem, 8)
    point = lf.DerivativePoint(0.5, 0.0, cfg.jumps[0])
    lf.difference_derivative(lf.solution_functional(problem, 1.0, 0.0), cfg,
                             point)

    # heat stays on blocks
    def count(name, real):
        def spy(*args):
            built.append(name)
            return real(*args)
        return spy

    monkeypatch.undo()
    for name in ("_atom_blocks", "_grid_blocks"):
        monkeypatch.setattr(solver, name, count(name, getattr(solver, name)))
    short = lf.PointBatch(cfg.times[:B + 1], cfg.positions[:B + 1],
                          cfg.jumps[:B + 1], B + 1, WINDOW, cfg.measure)
    lf.solve_forward(short, _problem("heat"))
    lf.picard_solve(short, _problem("heat"), 2)
    assert built.count("_atom_blocks") == 2
    assert built.count("_grid_blocks") == 2
    # one heat derivative builds each block once for both solves
    mid = 0.5 * (short.times[B // 2] + short.times[B // 2 + 1])
    lf.difference_derivative(lf.solution_functional(_problem("heat"), 1.0,
                                                    0.0), short,
                             lf.DerivativePoint(mid, 0.0, 1.0))
    assert built.count("_atom_blocks") == 3
    assert built.count("_grid_blocks") == 2
