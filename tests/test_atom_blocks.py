"""The causal row-block engine of solve_forward and the m1 = 0 Picard
iterates against the dense atoms x atoms matrix and the per-atom solve,
the one causal rule of pairwise_interaction_matrix against G gathered at
the causal pairs, and the blocks of one long path, filled on every CPU
into one reused workspace, against the serial matrix."""

import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import levyfield as lf
from levyfield import parallel, solver

from conftest import child_env

B = solver.ATOM_BLOCK_ROWS
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
    return lf.PointConfiguration(cfg.times[:n], cfg.positions[:n],
                                 cfg.jumps[:n], WINDOW, measure)


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
    got = solver.picard_iterates_at_atoms(problem, t, x, z, 8)
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
    got = solver.picard_iterates_at_atoms(problem, t, x, z, 6)
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


# -- the blocks of one long path, filled on every CPU into one workspace ------


def _grid_reference(problem, t, x):
    # one serial pairwise_interaction_matrix call per grid time
    grid_t, grid_x = problem.grid()
    for tj in grid_t:
        k = int(np.sum(t < tj))
        yield solver.pairwise_interaction_matrix(problem.kernel, tj, grid_x,
                                                 t[:k], x[:k])


def _split_every_block(monkeypatch, parts):
    # as if a split over `parts` ranges paid at any size
    monkeypatch.setattr(parallel, "PARTS", parts)
    monkeypatch.setattr(solver, "_least_range", lambda *args: 1)


@pytest.mark.parametrize("parts", [1, 2, 3, 9])
@pytest.mark.parametrize("n", [B + 1, 200, 1000])
def test_parallel_blocks_equal_serial_blocks(monkeypatch, n, parts):
    # each block, built in the pass's workspace with its rows split, has
    # the bits of the serial matrix; it is compared before the next block
    # overwrites it.  9 parts queue on the pool, and a short switch
    # interval interleaves the threads often: a range written by the wrong
    # thread or left unwritten would show
    _split_every_block(monkeypatch, parts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _check_blocks(n)
    finally:
        sys.setswitchinterval(interval)


def _check_blocks(n):
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


def _solve_all(problem, cfg):
    path = lf.solve_forward(cfg, problem)
    pic, diag = lf.picard_solve(cfg, problem, 8)
    base, plus = solver.solve_forward_pair(cfg, problem, 0.5, 0.3, 0.2)
    return [path.atom_values, path.grid_values, pic.atom_values,
            pic.grid_values, diag.sup_differences, base.atom_values,
            plus.atom_values]


@pytest.mark.parametrize("n", [B + 1, 200, 1000])
def test_solvers_do_not_depend_on_the_part_count(monkeypatch, n):
    problem = _problem("heat", "sin")
    cfg = _path(n)
    _split_every_block(monkeypatch, 1)
    want = _solve_all(problem, cfg)
    for parts in (2, 3):
        monkeypatch.setattr(parallel, "PARTS", parts)
        got = _solve_all(problem, cfg)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), (parts, i)


def _refuse(*args, **kwargs):
    raise AssertionError("a thread pool was asked for")


def test_ensemble_sized_inputs_start_no_thread(monkeypatch, heat_problem):
    # a path of one block and a padded batch keep the serial code
    _split_every_block(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_executor", _refuse)
    measure = lf.two_point_measure(1.0, 5.0)
    cfg = lf.sample_prm(measure, WINDOW, (5, 0))
    assert 0 < cfg.n_atoms <= B
    _solve_all(heat_problem, cfg)
    batch = lf.sample_batch(measure, WINDOW, 5, 0, 8)
    t, x, z = batch.times, batch.positions, batch.jumps
    assert t.ndim == 2
    solver.solve_batch(batch, heat_problem)
    its = solver.picard_iterates_at_atoms(heat_problem, t, x, z, 4)
    solver.iterate_moment_sums(heat_problem, t, x, z, its, increments=True)
    solver.cross_solver_gaps(batch, heat_problem, 4)


def test_blocks_below_the_measured_size_are_filled_serially(monkeypatch):
    # a split where none was measured to pay, or of a block under twice
    # the measured range, asks for no thread; the 200-atom path gets the
    # serial blocks' bits either way
    monkeypatch.setattr(parallel, "PARTS", 2)
    monkeypatch.setattr(parallel, "least_range", lambda samples: None)
    monkeypatch.setattr(solver, "_SPLIT", {})
    monkeypatch.setattr(parallel, "_executor", _refuse)
    _check_blocks(200)
    largest = B * 200
    monkeypatch.setattr(solver, "_least_range",
                        lambda *args: largest // 2 + 1)
    _check_blocks(200)


def test_split_is_measured_once_per_width(monkeypatch):
    # _least_range measures the widths up to the pass's widest block that
    # no earlier pass tried, once per kernel kind and form, and stops once
    # a split has paid; it enters no traced layer
    monkeypatch.setattr(parallel, "PARTS", 2)
    monkeypatch.setattr(solver, "_SPLIT", {})
    monkeypatch.setattr(lf.GreenKernel, "evaluate", _refuse)
    widths, verdict = [], [None]

    def least_range(samples):
        for run, entries in samples:
            widths.append(entries // B)
            run(1)
            run(2)
        return verdict[0]

    monkeypatch.setattr(parallel, "least_range", least_range)
    heat = lf.heat_kernel()
    assert solver._least_range(heat, False, 200) is None
    assert widths == [64, 128, 200]
    assert solver._least_range(heat, False, 150) is None
    verdict[0] = 777
    assert solver._least_range(heat, False, 1000) == 777
    assert widths == [64, 128, 200, 400, 800, 1000]
    assert solver._least_range(heat, False, 5000) == 777
    assert solver._least_range(heat, True, 100) == 777
    assert widths[6:] == [64, 100]
    monkeypatch.setattr(parallel, "PARTS", 1)
    monkeypatch.setattr(solver, "_SPLIT", {})
    assert solver._least_range(heat, False, 1000) is None
    assert len(widths) == 8


def test_least_range_takes_the_first_size_whose_split_is_faster(
        monkeypatch):
    # a split that costs half the serial time plus 100 first pays above
    # 200 entries; no larger sample is run once one has paid
    runs = []
    monkeypatch.setattr(
        parallel, "_seconds",
        lambda run, parts: run(parts) if parts == 1 else run(parts) / 2 + 100)

    def samples(sizes):
        for e in sizes:
            yield (lambda parts, e=e: runs.append(e) or float(e)), e

    assert parallel.least_range(samples([64, 128, 256, 512])) == 128
    assert set(runs) == {64, 128, 256}
    assert len(runs) == 3 * 2 * parallel.TRIALS
    assert parallel.least_range(samples([64, 128, 200])) is None


def test_kernel_layers_are_entered_on_the_calling_thread(monkeypatch):
    # the benchmark's tracer keeps one span stack per process: the split
    # fill must enter pairwise_interaction_matrix and GreenKernel.evaluate
    # once per block, on the calling thread, with the block's full size
    _split_every_block(monkeypatch, 2)
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
    sizes = [G.size for _, _, G in solver._atom_blocks(problem.kernel,
                                                       cfg.times,
                                                       cfg.positions)]
    sizes += [G.size for G in solver._grid_blocks(problem, cfg.times,
                                                  cfg.positions)]
    assert {ident for _, ident, _ in calls} == {threading.get_ident()}
    for name in ("evaluate", "matrix"):
        assert [size for n, _, size in calls if n == name] == sizes


def test_compensated_picard_holds_blocks_of_their_own(monkeypatch):
    # the m1 != 0 branch holds every grid block at once: on a heat path of
    # more than one block they must not be views of one workspace
    _split_every_block(monkeypatch, 2)
    problem = _problem("heat")
    measure = lf.gaussian_measure(60.0, 0.5, 1.0)
    cfg = lf.sample_prm(measure, WINDOW, (7, 0))
    assert cfg.n_atoms > B and measure.first_moment != 0.0
    got, got_diag = lf.picard_solve(cfg, problem, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_grid_blocks",
                   lambda problem, t, x, fresh=False:
                   _grid_reference(problem, t, x))
        want, want_diag = lf.picard_solve(cfg, problem, 3)
    assert got.atom_values.tobytes() == want.atom_values.tobytes()
    assert got.grid_values.tobytes() == want.grid_values.tobytes()
    assert np.array_equal(got_diag.sup_differences, want_diag.sup_differences)


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


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_map_rows_raises_from_any_range_after_every_range_ends(
        monkeypatch, bad):
    # the calling thread's range or a pool range raises; by then no range
    # that started is still running, and a queued one never starts late
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(1)
    running, started = [], []

    def fill(r0, r1):
        started.append(r0)
        running.append(r0)
        try:
            if r0 == 10 * bad:
                raise ValueError(r0)
            threading.Event().wait(0.05)
        finally:
            running.remove(r0)

    try:
        monkeypatch.setattr(parallel, "PARTS", 3)
        monkeypatch.setattr(parallel, "_executor", lambda: pool)
        with pytest.raises(ValueError):
            parallel.map_rows(fill, 30, 3)
        assert running == []
        pool.shutdown(wait=True)
        assert running == [] and len(started) == len(set(started)) <= 3
    finally:
        pool.shutdown()


def test_map_rows_fills_the_ranges_no_thread_has_started(monkeypatch):
    # with every pool thread busy (or its CPU taken), the calling thread
    # fills the pool's ranges itself and does not wait for a thread
    from concurrent.futures import ThreadPoolExecutor
    pool, release = ThreadPoolExecutor(1), threading.Event()
    try:
        blocker = pool.submit(release.wait, 60)
        monkeypatch.setattr(parallel, "PARTS", 3)
        monkeypatch.setattr(parallel, "_executor", lambda: pool)
        threads = []
        got = parallel.map_rows(
            lambda r0, r1: threads.append(threading.get_ident()) or (r0, r1),
            10, 3)
        assert got == [(0, 3), (3, 6), (6, 10)]
        assert threads == [threading.get_ident()] * 3
        assert not blocker.done()
        # never more ranges than CPUs, nor fewer than one
        assert parallel.map_rows(lambda r0, r1: (r0, r1), 10, 0) == [(0, 10)]
        monkeypatch.setattr(parallel, "PARTS", 2)
        assert len(parallel.map_rows(lambda r0, r1: (r0, r1), 10, 5)) == 2
    finally:
        release.set()
        pool.shutdown()
