"""The causal row-block engine of solve_forward and the m1 = 0 Picard
iterates against the dense atoms x atoms matrix and the per-atom solve,
the one causal rule of pairwise_interaction_matrix against G gathered at
the causal pairs, and the blocks of one long path, built in one reused
workspace, against new arrays."""

import math
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

import levyfield as lf
from levyfield import solver

from conftest import child_env

B = solver.ATOM_BLOCK_ROWS
EPS = np.finfo(float).eps
WINDOW = lf.SpaceTimeWindow(1.0, 2.0)
SIGMAS = {"affine": lf.affine_map(0.5, 1.0), "sin": lf.named_map("sin")}


def _problem(kernel, sigma="affine"):
    return lf.ProblemSpec(kernel=lf.GreenKernel(kernel), sigma=SIGMAS[sigma],
                          ic_kind="cosine", window=WINDOW)


def _noise(atoms: float):
    # about `atoms` atoms per path at v = 5, as in the benchmark's paths
    mass = atoms / WINDOW.volume
    return lf.two_point_measure(math.sqrt(5.0 / mass), mass)


def _path(n: int):
    """The first n atoms of one path of about 1600 atoms."""
    measure = _noise(1600)
    cfg = lf.sample_prm(measure, WINDOW, (17, 0))
    assert cfg.n_atoms >= n
    return lf.PointBatch(cfg.times[:n], cfg.positions[:n], cfg.jumps[:n], n,
                         WINDOW, measure)


def _dense_iterates(problem, t, x, z, n_iter):
    # u_{m+1} = w + M sigma(u_m) z from one call for the whole matrix
    M = solver.pairwise_interaction_matrix(problem.kernel, t, x, t, x)
    w = np.array(solver.deterministic_part(problem, t, x), dtype=float,
                 ndmin=1)
    iterates = [w]
    for _ in range(n_iter):
        iterates.append(w + np.matmul(
            M, (problem.sigma(iterates[-1]) * z)[..., None])[..., 0])
    return iterates


def _forward_by_atom(cfg, problem):
    # forward substitution one atom at a time, each row from its own
    # kernel evaluation: the reference for the blocked solve
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    w = np.array(solver.deterministic_part(problem, t, x), dtype=float,
                 ndmin=1)
    u, sigz = np.empty(t.size), np.empty(t.size)
    for k in range(t.size):
        u[k] = w[k]
        if k:
            row = problem.kernel.evaluate(t[k] - t[:k], x[k] - x[:k])
            u[k] = w[k] + float(np.dot(np.atleast_1d(row), sigz[:k]))
        sigz[k] = problem.sigma(u[k]) * z[k]
    return u


def _scale(arrays):
    return 1.0 + max((float(np.max(np.abs(a))) for a in arrays if a.size),
                     default=0.0)


def _gathered(kernel, target_t, target_x, source_t, source_x):
    # G evaluated at the gathered causal pairs only, zeros elsewhere: the
    # reference for evaluating G at dt = 1 in place of the non-causal pairs
    # and zeroing them
    dt = np.asarray(target_t, dtype=float)[..., None] \
        - np.atleast_1d(np.asarray(source_t, dtype=float))[..., None, :]
    dx = np.asarray(target_x, dtype=float)[..., None] \
        - np.atleast_1d(np.asarray(source_x, dtype=float))[..., None, :]
    shape = np.broadcast_shapes(dt.shape, dx.shape)
    dt, dx = np.broadcast_to(dt, shape), np.broadcast_to(dx, shape)
    out = np.zeros(shape)
    mask = dt > 0.0
    if mask.any():
        out[mask] = kernel.evaluate(dt[mask], dx[mask])
    return out


def _interaction_cases():
    """(name, target_t, target_x, source_t, source_x) for every shape a
    caller passes."""
    cfg = _path(300)
    t, x = cfg.times, cfg.positions
    batch = lf.sample_batch(lf.two_point_measure(1.0, 0.1), WINDOW, 2, 0, 40)
    assert np.any(batch.counts == 0)
    bt, bx = batch.times, batch.positions
    none = lf.sample_batch(lf.two_point_measure(1.0, 0.0), WINDOW, 2, 0, 5)
    assert none.times.shape == (5, 0)
    grid_x = np.linspace(-WINDOW.R, WINDOW.R, 64)
    rng = np.random.default_rng(3)
    pts_t = rng.uniform(0.0, WINDOW.T, 16)
    pts_x = rng.uniform(-WINDOW.R, WINDOW.R, 16)
    bpts_t = rng.uniform(0.0, WINDOW.T, (batch.n_paths, 8))
    bpts_x = rng.uniform(-WINDOW.R, WINDOW.R, (batch.n_paths, 8))
    cases = [("atoms_x_atoms", t, x, t, x),
             ("row_block", t[B:2 * B], x[B:2 * B], t[:2 * B], x[:2 * B]),
             ("batch", bt, bx, bt, bx),
             ("empty_batch", none.times, none.positions, none.times,
              none.positions),
             ("points_x_atoms", pts_t, pts_x, t, x),
             ("atoms_x_points", t, x, pts_t, pts_x),
             ("batch_points_x_atoms", bpts_t, bpts_x, bt, bx),
             ("batch_atoms_x_points", bt, bx, bpts_t, bpts_x),
             ("scalar_target", WINDOW.T, 0.0, t, x),
             ("scalar_target_batch", WINDOW.T, 0.0, bt, bx),
             ("zero_sources", t, x, t[:0], x[:0]),
             ("scalar_zero_sources", 0.5, 0.0, t[:0], x[:0])]
    for tj in (0.0, float(t[150]), WINDOW.T):
        k = int(np.searchsorted(t, tj))
        cases.append((f"grid_row_path_{tj:.3g}", tj, grid_x, t[:k], x[:k]))
        cases.append((f"grid_row_batch_{tj:.3g}", tj, grid_x, bt, bx))
        cases.append((f"grid_row_empty_batch_{tj:.3g}", tj, grid_x,
                      none.times, none.positions))
    return cases


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_interaction_matrix_equals_gathered_causal_pairs(kernel):
    # evaluating G at dt = 1 where the source is not strictly earlier and
    # zeroing those entries gives the matrix of G gathered at the causal
    # pairs, bit for bit, on every shape the solvers pass
    k = lf.GreenKernel(kernel)
    for name, tt, tx, st, sx in _interaction_cases():
        got = solver.pairwise_interaction_matrix(k, tt, tx, st, sx)
        want = _gathered(k, tt, tx, st, sx)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    # a padded batch of at most B atoms per path is one row block, the
    # whole atoms x atoms matrix of the batch
    batch = lf.sample_batch(lf.two_point_measure(1.0, 5.0), WINDOW, 4, 0, 30)
    t, x = batch.times, batch.positions
    assert t.shape[1] <= B
    [(r0, r1, G)] = solver._atom_blocks(k, t, x)
    assert (r0, r1) == (0, t.shape[1])
    assert G.tobytes() == _gathered(k, t, x, t, x).tobytes()


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 1500])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_atom_blocks_are_slices_of_the_dense_matrix(kernel, n):
    cfg = _path(n)
    t, x = cfg.times, cfg.positions
    k = lf.GreenKernel(kernel)
    M = solver.pairwise_interaction_matrix(k, t, x, t, x)
    rows = 0
    for r0, r1, G in solver._atom_blocks(k, t, x):
        assert (r0, r1) == (rows, min(rows + B, n))
        assert np.array_equal(G, M[r0:r1, :r1])
        rows = r1
    assert rows == n
    # the blocks hold every nonzero entry: M is strictly lower triangular
    assert not np.any(np.triu(M))


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 1500])
@pytest.mark.parametrize("sigma", ["affine", "sin"])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_blocked_solvers_match_dense(kernel, sigma, n):
    problem = _problem(kernel, sigma)
    cfg = _path(n)
    t, x, z = cfg.times, cfg.positions, cfg.jumps

    want = _dense_iterates(problem, t, x, z, 8)
    got = solver.picard_iterates_at_atoms(problem, cfg, 8)
    assert len(got) == 9
    tol = 1e-14 * _scale(want)
    for m, (a, b) in enumerate(zip(got, want)):
        assert a.shape == (n,)
        assert np.max(np.abs(a - b), initial=0.0) <= tol, m

    path = lf.solve_forward(cfg, problem, with_grid=False)
    ref = _forward_by_atom(cfg, problem)
    if n <= B and kernel == "heat":
        # one block: the per-atom solve's arithmetic, bit for bit (a wave
        # path sums in null coordinates, bit for bit where every sum is
        # exact: tests/test_null_coordinates.py)
        assert np.array_equal(path.atom_values, ref)
    assert np.max(np.abs(path.atom_values - ref), initial=0.0) \
        <= 1e-14 * _scale([ref])
    assert lf.mild_residual(path) <= 1e-13 * _scale([ref])


def test_mild_residual_keeps_its_own_dense_matrix(monkeypatch):
    # the two sides of the residual stay on independent code paths
    path = lf.solve_forward(_path(B + 1), _problem("heat"), with_grid=False)

    def refuse(*args):
        raise AssertionError("mild_residual built causal row blocks")

    monkeypatch.setattr(solver, "_atom_blocks", refuse)
    assert lf.mild_residual(path) <= 1e-13 * _scale([path.atom_values])


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_batched_blocks_match_dense_per_path(kernel):
    # a padded batch longer than one block: (P, b, r1) blocks
    problem = _problem(kernel)
    batch = lf.sample_batch(_noise(2.5 * B), WINDOW, 5, 0, 6)
    assert batch.times.shape[1] > 2 * B
    t, x, z = batch.times, batch.positions, batch.jumps
    got = solver.picard_iterates_at_atoms(problem, batch, 6)
    for j in range(batch.n_paths):
        k = batch.counts[j]
        want = _dense_iterates(problem, t[j, :k], x[j, :k], z[j, :k], 6)
        tol = 1e-14 * _scale(want)
        for a, b in zip(got, want):
            assert np.max(np.abs(a[j, :k] - b), initial=0.0) <= tol


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_picard_at_atoms_holds_no_atoms_by_atoms_matrix(kernel):
    # Picard-8 at the atoms of a ~4000-atom path: the dense matrix alone
    # would be 8 n^2 bytes
    problem = _problem(kernel)
    cfg = lf.sample_prm(_noise(4000), WINDOW, (61, 0))
    n = cfg.n_atoms
    assert n > 3500
    tracemalloc.start()
    try:
        path, diag = lf.picard_solve(cfg, problem, 8, with_grid=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4, (peak, n)
    assert path.atom_values.shape == (n,) and diag.sup_differences.size == 8


# -- the blocks of one long path, built in one workspace ----------------------


def _grid_reference(problem, t, x):
    # one pairwise_interaction_matrix call per grid time, in new arrays
    grid_t, grid_x = problem.grid()
    for tj in grid_t:
        k = int(np.sum(t < tj))
        yield solver.pairwise_interaction_matrix(problem.kernel, tj, grid_x,
                                                 t[:k], x[:k])


@pytest.mark.parametrize("n", [B + 1, 200, 1000])
def test_workspace_blocks_equal_new_blocks(n):
    # the atom then the grid blocks of the first n atoms, each built in the
    # pass's workspace, have the bits of their own
    # pairwise_interaction_matrix call in new arrays; each is compared
    # before the next block overwrites it
    problem = _problem("heat")
    cfg = _path(n)
    t, x = cfg.times, cfg.positions
    M = solver.pairwise_interaction_matrix(problem.kernel, t, x, t, x)
    rows = 0
    for r0, r1, G in solver._atom_blocks(problem.kernel, t, x):
        want = solver.pairwise_interaction_matrix(
            problem.kernel, t[r0:r1], x[r0:r1], t[:r1], x[:r1])
        assert G.shape == want.shape and G.tobytes() == want.tobytes(), r0
        assert np.array_equal(G, M[r0:r1, :r1])
        rows = r1
    assert rows == n
    blocks = solver._grid_blocks(problem, t, x)
    for j, (G, want) in enumerate(zip(blocks, _grid_reference(problem, t,
                                                               x))):
        assert G.shape == want.shape and G.tobytes() == want.tobytes(), j
    assert j == problem.n_t - 1


def test_no_solve_starts_a_thread():
    # a heat row long enough for the largest blocks of any dense pass
    # (64 x 1100 entries), whose measure expects too few atoms for the far
    # field, through every solve of one row, then a padded batch of
    # ensemble-sized paths, on every CPU the process has
    code = textwrap.dedent("""
        import math, threading
        import levyfield as lf
        from levyfield import solver
        window = lf.SpaceTimeWindow(1.0, 2.0)
        mass = 1600 / window.volume
        measure = lf.two_point_measure(math.sqrt(5.0 / mass), mass)
        cfg = lf.sample_prm(measure, window, (17, 0))
        n = 1100
        dense = lf.two_point_measure(math.sqrt(5.0 / mass), mass / 2)
        assert dense.total_mass * window.volume <= solver.SPECTRAL_ROWS
        cfg = lf.PointBatch(cfg.times[:n], cfg.positions[:n],
                            cfg.jumps[:n], n, window, dense)
        problem = lf.ProblemSpec(kernel=lf.heat_kernel(),
                                 sigma=lf.named_map("sin"),
                                 ic_kind="cosine", window=window)
        solver.causal_sums(problem.kernel, cfg, cfg.jumps)
        lf.solve_forward(cfg, problem)
        lf.picard_solve(cfg, problem, 8)
        solver.solve_forward_pair(cfg, problem, 0.5, 0.3, 0.2)
        batch = lf.sample_batch(lf.two_point_measure(1.0, 5.0), window, 5,
                                0, 8)
        solver.solve_batch(batch, problem)
        solver.cross_solver_gaps(batch, problem, 4)
        print(threading.active_count())
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=child_env(), capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.strip() == "1"


def test_a_solve_fills_only_its_own_blocks():
    # nothing but the solve's own blocks is filled, even on the first long
    # heat path of a process: no sample fill is timed
    code = textwrap.dedent("""
        import math
        import numpy as np
        import levyfield as lf
        from levyfield import solver
        entries = []
        evaluate = lf.GreenKernel.evaluate

        def counting(self, t, x, out=None):
            result = evaluate(self, t, x, out)
            entries.append(np.size(result))
            return result

        lf.GreenKernel.evaluate = counting
        window = lf.SpaceTimeWindow(1.0, 2.0)
        mass = 1600 / window.volume
        measure = lf.two_point_measure(math.sqrt(5.0 / mass), mass)
        cfg = lf.sample_prm(measure, window, (17, 0))
        t, x = cfg.times[:200], cfg.positions[:200]
        cfg = lf.PointBatch(t, x, cfg.jumps[:200], 200, window, measure)
        problem = lf.ProblemSpec(kernel=lf.heat_kernel(),
                                 sigma=lf.affine_map(0.5, 1.0),
                                 ic_kind="cosine", window=window)
        lf.picard_solve(cfg, problem, 8)
        solved = sum(entries)
        own = sum(G.size for *_, G in solver._atom_blocks(problem.kernel,
                                                          t, x))
        own += sum(G.size for G in solver._grid_blocks(problem, t, x))
        print(solved, own)
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=child_env(), capture_output=True, text=True,
                         timeout=120)
    solved, own = map(int, out.stdout.split())
    assert solved == own > 0


def test_kernel_layers_are_entered_on_the_calling_thread(monkeypatch):
    # the benchmark's tracer keeps one span stack per process: an atom
    # block's fill enters pairwise_interaction_matrix and
    # GreenKernel.evaluate once per block, a grid block's GreenKernel.evaluate
    # once, on the calling thread, with the block's full size
    problem = _problem("heat")
    cfg = _path(300)
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, threading.get_ident(), np.size(result)))
            return result
        return wrapper

    monkeypatch.setattr(lf.GreenKernel, "evaluate",
                        recording("evaluate", lf.GreenKernel.evaluate))
    monkeypatch.setattr(solver, "pairwise_interaction_matrix",
                        recording("matrix",
                                  solver.pairwise_interaction_matrix))
    atom = [G.size for _, _, G in solver._atom_blocks(problem.kernel,
                                                      cfg.times,
                                                      cfg.positions)]
    grid = [G.size for G in solver._grid_blocks(problem, cfg.times,
                                                cfg.positions)]
    assert {ident for _, ident, _ in calls} == {threading.get_ident()}
    assert [size for n, _, size in calls if n == "matrix"] == atom
    assert [size for n, _, size in calls if n == "evaluate"] == atom + grid


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_compensated_picard_grid_is_the_mild_sum_at_each_grid_point(kernel):
    # the m1 != 0 grid of iterate n is w plus the jump sum of sigma of
    # iterate n - 1 at the atoms before each grid point, minus m1 times the
    # compensator of sigma of iterate n - 1 on the grid: evaluate_solution
    # of iterate n - 1, one grid point at a time, with its own kernel
    # evaluation over the atoms before it
    problem = lf.ProblemSpec(kernel=lf.GreenKernel(kernel),
                             sigma=SIGMAS["sin"], ic_kind="cosine",
                             window=WINDOW, n_t=20, n_x=24)
    measure = lf.gaussian_measure(60.0, 0.5, 1.0)
    cfg = lf.sample_prm(measure, WINDOW, (7, 0))
    assert cfg.n_atoms > B and measure.first_moment != 0.0
    m1 = measure.first_moment
    grid_t, grid_x = problem.grid()
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    terms = cfg.n_atoms + grid_t.size * grid_x.size
    for n in (1, 2, 3):
        prev, _ = lf.picard_solve(cfg, problem, n - 1)
        got = lf.picard_solve(cfg, problem, n)[0].grid_values
        sig_z = np.abs(problem.sigma(prev.atom_values) * z)
        sig_gr = np.abs(problem.sigma(prev.grid_values)).ravel()
        for (j, l), value in np.ndenumerate(got):
            tj, xl, early = grid_t[j], grid_x[l], t < grid_t[j]
            # both sides sum the same terms, each in its own order, so each
            # is within (N + 4) eps of the sum of their magnitudes (Higham,
            # Accuracy and Stability of Numerical Algorithms, 2002, 3.1)
            size = abs(lf.deterministic_part(problem, tj, xl)) \
                + np.abs(problem.kernel.evaluate(tj - t[early],
                                                 xl - x[early])) \
                @ sig_z[early] + abs(m1) * (np.abs(solver._compensator_rows(
                    problem, tj, xl)) @ sig_gr)[0]
            assert abs(value - lf.evaluate_solution(prev, tj, xl)) \
                <= 2 * (terms + 4) * EPS * size, (n, j, l)


def test_import_starts_no_thread():
    code = ("import threading, levyfield; "
            "print(threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "1"


def test_evaluate_into_out_checks_time_before_writing():
    dt = np.full((6, 50), 0.5)
    dt[5, 7] = np.nan
    out = np.zeros((6, 50))
    with pytest.raises(lf.KernelError):
        lf.heat_kernel().evaluate(dt, np.zeros((6, 50)), out=out)
    assert not out.any()
    dt[5, 7] = 0.5
    got = lf.heat_kernel().evaluate(dt, np.zeros((6, 50)), out=out)
    assert got is out and np.array_equal(out, lf.heat_kernel().evaluate(
        dt, np.zeros((6, 50))))
