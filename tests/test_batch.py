"""The batch engine: padded-row sampling, forward solves by atom rank,
per-path sums, and the batched Picard and grid projection of the ensemble
diagnostics, each against its one-path counterpart."""

import csv
import functools

import numpy as np
import pytest

import levyfield as lf
import levyfield.noise as noise
from levyfield import cli, malliavin, solver

import helpers

WINDOW = lf.SpaceTimeWindow(1.0, 2.0)
MEASURES = {
    "rademacher": lf.rademacher(),
    "two_point": lf.two_point_measure(0.7, 5.0),
    "gaussian": lf.gaussian_measure(5.0, 0.0, 1.0),
    "power_law": lf.truncated_power_law_measure(1.2, 0.2, 3.0),
    "discrete": lf.discrete_measure([-1.0, 0.5, 2.0], [1.0, 3.0, 0.5]),
    "low_mass": lf.two_point_measure(1.0, 0.1),   # most paths are empty
}


def _same_atoms(a, b):
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.positions, b.positions)
            and np.array_equal(a.jumps, b.jumps))


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_batch_atoms_equal_sample_prm(name):
    measure = MEASURES[name]
    batch = lf.sample_batch(measure, WINDOW, 17, 0, 2000)
    assert batch.n_paths == 2000
    for i in range(2000):
        path = batch.path(i)
        assert path.seed() == (17, i)
        assert _same_atoms(path, lf.sample_prm(measure, WINDOW, (17, i))), i
    if name == "low_mass":
        assert np.count_nonzero(batch.counts == 0) > 1000


MASTER_SEEDS = (0, 61, 4242, 2**32 - 1, 2**32, 2**70 + 3)


def _seed_sequence_states(master, start, n):
    return np.array([np.random.SeedSequence(master, spawn_key=(start + j,))
                     .generate_state(4, np.uint64) for j in range(n)],
                    dtype=np.uint64).reshape(n, 4)


@pytest.mark.parametrize("master", MASTER_SEEDS)
@pytest.mark.parametrize("start, n", [
    (0, 5), (2**32 - 1, 1), (2**32, 1), (2**33 + 5, 1),
    (2**32 - 3, 7),        # straddles 2**32: one-word then two-word indices
    (2**64 - 2, 4),        # straddles 2**64: two-word then three-word
    (7, 0),
])
def test_stream_states_equal_seed_sequence(master, start, n):
    got = noise.stream_states(master, start, n)
    assert got.dtype == np.uint64 and got.shape == (n, 4)
    assert np.array_equal(got, _seed_sequence_states(master, start, n))


def test_batch_streams_are_derive_rng():
    for master in MASTER_SEEDS:
        for j, rng in enumerate(noise._batch_streams(master, 2**32 - 2, 4)):
            want = lf.derive_rng(master, 2**32 - 2 + j)
            assert np.array_equal(rng.random(8), want.random(8))
            assert rng.poisson(3.0, 8).tolist() == want.poisson(3.0, 8).tolist()


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_batch_straddling_two_to_the_32_equals_sample_prm(name):
    measure, start = MEASURES[name], 2**32 - 20
    batch = lf.sample_batch(measure, WINDOW, 2**32 + 1, start, 40)
    for j in range(40):
        want = lf.sample_prm(measure, WINDOW, (2**32 + 1, start + j))
        assert _same_atoms(batch.path(j), want), j


@pytest.mark.parametrize("master, start", [(-1, 0), (0, -1), (-2**64, 3)])
def test_streams_refuse_negative_seeds(master, start):
    with pytest.raises(lf.NoiseError, match="non-negative"):
        noise.stream_states(master, start, 3)
    with pytest.raises(lf.NoiseError, match="non-negative"):
        lf.sample_batch(MEASURES["rademacher"], WINDOW, master, start, 3)


class _TiedTimes:
    """A stream whose first draw of atom times repeats time 0 as time 1."""

    def __init__(self, rng):
        self.rng = rng
        self.tie = True

    def _tied(self, u):
        if self.tie:
            u[1] = u[0]
            self.tie = False
        return u

    def poisson(self, lam):
        return self.rng.poisson(lam)

    def random(self, size):          # the batch draws its times here
        return self._tied(self.rng.random(size))

    def uniform(self, low, high, size):   # sample_prm draws them here
        return self._tied(self.rng.uniform(low, high, size))


def test_tied_path_is_drawn_again_by_sample_prm(monkeypatch):
    measure = MEASURES["rademacher"]
    honest = lf.sample_batch(measure, WINDOW, 4, 0, 30)
    tied = int(np.argmax(honest.counts >= 2))
    real_streams, real_rng = noise._batch_streams, noise.derive_rng
    real_prm = noise.sample_prm
    calls = []

    # stream (4, tied) repeats a time wherever it is built: in the batch's
    # one pass over its streams and in sample_prm's derive_rng
    def streams(master, start, n):
        for j, rng in enumerate(real_streams(master, start, n)):
            yield _TiedTimes(rng) if start + j == tied else rng

    def derive(master, index):
        rng = real_rng(master, index)
        return _TiedTimes(rng) if index == tied else rng

    def spy(*args):
        calls.append(args[2])
        return real_prm(*args)

    monkeypatch.setattr(noise, "_batch_streams", streams)
    monkeypatch.setattr(noise, "derive_rng", derive)
    monkeypatch.setattr(noise, "sample_prm", spy)
    batch = lf.sample_batch(measure, WINDOW, 4, 0, 30)
    assert calls == [(4, tied)]
    monkeypatch.setattr(noise, "sample_prm", real_prm)
    want = lf.sample_prm(measure, WINDOW, (4, tied))   # re-draws its tie
    assert _same_atoms(batch.path(tied), want)
    assert not _same_atoms(batch.path(tied), honest.path(tied))
    assert np.all(np.diff(batch.path(tied).times) > 0.0)
    for i in range(30):
        if i != tied:
            assert _same_atoms(batch.path(i), honest.path(i))


def _concat(batches):
    batches = list(batches)
    return (np.concatenate([b.times[b.mask] for b in batches]),
            np.concatenate([b.jumps[b.mask] for b in batches]),
            np.concatenate([b.counts for b in batches]))


def test_paths_do_not_depend_on_batch_size(monkeypatch):
    measure = MEASURES["gaussian"]
    want = _concat([lf.sample_batch(measure, WINDOW, 8, 0, 150)])
    for size in (7, 64, 1024):
        monkeypatch.setattr(noise, "BATCH_PATHS", size)
        got = _concat(lf.sample_batches(measure, WINDOW, 8, 150))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), size
    longer = lf.sample_batch(measure, WINDOW, 8, 0, 200)
    n = int(want[2].sum())
    assert np.array_equal(longer.times[longer.mask][:n], want[0])
    tail = lf.sample_batch(measure, WINDOW, 8, 100, 50)
    for j in range(50):
        assert _same_atoms(tail.path(j), longer.path(100 + j))


_NO_REALIZATION = {
    "sample_batches_0": lambda m, p: list(lf.sample_batches(m, WINDOW, 0, 0)),
    "sample_batches_-1": lambda m, p: list(lf.sample_batches(m, WINDOW, 0,
                                                             -1)),
    "existence": lambda m, p: lf.existence_diagnostics(p, m,
                                                       n_realizations=0),
    "isometry": lambda m, p: lf.isometry_test(m, cli.H_SMOOTH, WINDOW, 0, 0),
    "duality": lambda m, p: lf.duality_test(cli.H_SMOOTH, cli.H_SMOOTH, m,
                                            WINDOW, 0, 0),
}


@pytest.mark.parametrize("entry", sorted(_NO_REALIZATION))
def test_an_ensemble_of_no_realization_is_refused(entry):
    # each failed inside numpy or, for n < 0, silently drew nothing
    problem = _problem(lf.wave_kernel(), "affine")
    with pytest.raises(lf.NoiseError, match="at least one realization"):
        _NO_REALIZATION[entry](MEASURES["two_point"], problem)
    # one path is an ensemble; sample_batch itself still takes n = 0
    assert [b.n_paths for b in lf.sample_batches(MEASURES["two_point"],
                                                 WINDOW, 0, 1)] == [1]
    assert lf.sample_batch(MEASURES["two_point"], WINDOW, 0, 0, 0).n_paths \
        == 0


def _problem(kernel, sigma):
    return lf.ProblemSpec(kernel=kernel, sigma=lf.named_map(sigma),
                          ic_kind="cosine", window=WINDOW)


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
@pytest.mark.parametrize("sigma", ["affine", "sin", "abs"])
def test_solve_batch_matches_solve_forward(kernel, sigma):
    problem = _problem(kernel, sigma)
    measure = lf.two_point_measure(1.0, 8.0)     # about 32 atoms a path
    batch = lf.sample_batch(measure, WINDOW, 3, 0, 120)
    u = lf.solve_batch(batch, problem)
    assert u.shape == batch.times.shape
    assert np.all(u[~batch.mask] == 0.0)
    for j in range(batch.n_paths):
        path = lf.solve_forward(batch.path(j), problem, with_grid=False)
        got = u[j, :batch.counts[j]]
        want = path.atom_values
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))), j
        mine = lf.SolutionPath(batch.path(j), problem, got, solver="batch")
        assert lf.mild_residual(mine) <= 1e-12
        for t, x in ((1.0, 0.0), (0.5, -1.0)):
            val = lf.evaluate_batch(batch, problem, u, t, x)[j]
            ref = lf.evaluate_solution(path, t, x)
            assert abs(val - ref) <= 1e-13 * (1.0 + abs(ref))


def test_solve_batch_empty_paths(wave_problem):
    batch = lf.sample_batch(MEASURES["low_mass"], WINDOW, 2, 0, 50)
    u = lf.solve_batch(batch, wave_problem)
    vals = lf.evaluate_batch(batch, wave_problem, u, 1.0, 0.5)
    empty = batch.counts == 0
    assert empty.any()
    w = lf.deterministic_part(wave_problem, 1.0, 0.5)
    assert np.all(vals[empty] == w)


@pytest.mark.parametrize("name", ["two_point", "low_mass"])
def test_point_batch_padding_convention(name):
    batch = lf.sample_batch(MEASURES[name], WINDOW, 9, 0, 300)
    K = int(batch.counts.max())
    assert batch.times.shape == batch.positions.shape == batch.jumps.shape \
        == batch.mask.shape == (300, K)
    assert np.array_equal(batch.mask, np.arange(K) < batch.counts[:, None])
    pad = ~batch.mask
    assert pad.any()
    assert np.all(batch.times[pad] == WINDOW.T)
    assert np.all(batch.positions[pad] == 0.0)
    assert np.all(batch.jumps[pad] == 0.0)
    assert np.all(batch.times[batch.mask] < WINDOW.T)
    assert np.all(batch.jumps[batch.mask] != 0.0)
    for field in ("times", "positions", "jumps", "counts", "mask"):
        arr = getattr(batch, field)
        assert not arr.flags.writeable, field
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def _rebuilt(batch, **arrays):
    """batch's PointBatch from copies of its arrays, some replaced."""
    fields = {name: np.array(getattr(batch, name))
              for name in ("times", "positions", "jumps", "counts")}
    fields.update(arrays)
    return noise.PointBatch(fields["times"], fields["positions"],
                            fields["jumps"], fields["counts"], batch.window,
                            batch.measure, batch.master_seed, batch.start)


def test_point_batch_rejects_bad_padding_and_counts():
    batch = lf.sample_batch(MEASURES["two_point"], WINDOW, 9, 0, 20)
    assert _rebuilt(batch).path(3).n_atoms == batch.counts[3]
    short, long = int(np.argmin(batch.counts)), int(np.argmax(batch.counts))
    k = int(batch.counts[short])
    assert k < batch.counts[long]
    for name, value in (("times", 0.5), ("positions", 0.1), ("jumps", 1.0)):
        arr = np.array(getattr(batch, name))
        arr[short, k] = value
        with pytest.raises(lf.NoiseError, match="padding"):
            _rebuilt(batch, **{name: arr})
    for j, step in ((short, 1), (short, -1), (long, -1)):
        counts = np.array(batch.counts)
        counts[j] += step
        with pytest.raises(lf.NoiseError):
            _rebuilt(batch, counts=counts)
    with pytest.raises(lf.NoiseError, match="counts"):
        _rebuilt(batch, counts=batch.counts[:-1])
    wider = {name: np.pad(getattr(batch, name), ((0, 0), (0, 1)),
                          constant_values=fill)
             for name, fill in (("times", WINDOW.T), ("positions", 0.0),
                                ("jumps", 0.0))}
    with pytest.raises(lf.NoiseError, match="counts"):
        _rebuilt(batch, **wider)


def _one_row(times, positions, jumps):
    """A one-row PointBatch of the given atoms on WINDOW (T = 1, R = 2)."""
    return noise.PointBatch(*(np.array([a], dtype=float)
                              for a in (times, positions, jumps)),
                            np.array([len(times)]), WINDOW,
                            MEASURES["rademacher"], 0, 0)


@pytest.mark.parametrize("times, positions, jumps, match", [
    ([0.2, 0.5], [0.0, 9.0], [1.0, -1.0], "positions"),     # |x| > R
    ([0.2, 0.5], [0.0, np.nan], [1.0, -1.0], "positions"),
    ([0.2, 0.5], [0.0, 0.3], [1.0, np.nan], "jump"),
    ([0.2, 0.5], [0.0, 0.3], [np.inf, -1.0], "jump"),
    ([0.5, 0.2], [0.0, 0.3], [1.0, -1.0], "increasing"),    # unsorted
    ([0.5, 0.5], [0.0, 0.3], [1.0, -1.0], "increasing"),    # tied
    ([0.0, 0.5], [0.0, 0.3], [1.0, -1.0], "inside"),
    ([0.5, 1.0], [0.0, 0.3], [1.0, -1.0], "inside"),
    ([np.nan], [0.0], [1.0], "inside"),
])
def test_point_batch_checks_its_atom_rows(times, positions, jumps, match):
    # as a (1, K) batch and as one path's (K,) row, before any solver sees
    # the row
    assert _one_row([0.2, 0.5], [0.0, 0.3], [1.0, -1.0]).n_paths == 1
    with pytest.raises(lf.NoiseError, match=match):
        _one_row(times, positions, jumps)
    with pytest.raises(lf.NoiseError, match=match):
        lf.PointBatch(np.array(times), np.array(positions), np.array(jumps),
                      len(times), WINDOW, MEASURES["rademacher"])


def _insert_points(batch, seed):
    """One point per row of batch: before its first atom, after its last,
    or between two of its atoms in turn, anywhere in an empty row."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 0.95, batch.n_paths)
    for j in range(batch.n_paths):
        row = batch.times[j, :batch.counts[j]]
        if row.size:
            ends = (0.0, *row, WINDOW.T)
            k = (0, row.size, 1)[j % 3 if row.size > 1 else j % 2]
            t[j] = 0.5 * (ends[k] + ends[k + 1])
    x = rng.uniform(-WINDOW.R, WINDOW.R, batch.n_paths)
    z = rng.choice([-1.5, 1.0], batch.n_paths)
    return t, x, z


@pytest.mark.parametrize("measure", [lf.two_point_measure(1.0, 0.5),
                                     MEASURES["gaussian"]],
                         ids=["sparse", "gaussian"])
def test_add_atoms_is_add_atom_row_by_row(measure):
    # sparse: about 2 atoms a path, so some paths are empty
    batch = lf.sample_batch(measure, WINDOW, 12, 0, 90)
    t, x, z = _insert_points(batch, 12)
    plus = lf.add_atoms(batch, t, x, z)
    assert np.array_equal(plus.counts, batch.counts + 1)
    assert plus.times.shape == (batch.n_paths, batch.times.shape[1] + 1)
    ranks = set()
    for j in range(batch.n_paths):
        want = helpers.add_atom(batch.path(j), t[j], x[j], z[j])
        got = plus.path(j)
        assert _same_atoms(got, want) and got.seed() == want.seed(), j
        assert _same_atoms(lf.add_atoms(batch.path(j), t[j], x[j], z[j]),
                           want), j
        k = int(np.searchsorted(want.times, t[j]))
        ranks.add("empty" if batch.counts[j] == 0 else "first" if k == 0
                  else "last" if k == batch.counts[j] else "inner")
    assert {"first", "last", "inner"} <= ranks
    assert ("empty" in ranks) == bool(np.any(batch.counts == 0))


def test_add_atoms_refuses_what_add_atom_refuses():
    batch = lf.sample_batch(MEASURES["two_point"], WINDOW, 9, 0, 20)
    j = int(np.argmax(batch.counts))
    good = _insert_points(batch, 9)
    lf.add_atoms(batch, *good)
    # (argument, value at row j, message)
    bad = [(0, batch.times[j, 1], "increasing"), (0, 0.0, "inside"),
           (0, WINDOW.T, "inside"), (0, np.nan, "inside"),
           (1, WINDOW.R + 0.1, "position"), (1, np.nan, "position"),
           (2, 0.0, "jump"), (2, np.nan, "jump"), (2, np.inf, "jump")]
    for arg, value, message in bad:
        args = [np.array(a) for a in good]
        args[arg][j] = value
        with pytest.raises(lf.NoiseError, match=message):
            lf.add_atoms(batch, *args)
        with pytest.raises(lf.NoiseError):
            lf.add_atoms(batch.path(j), *(a[j] for a in args))
    with pytest.raises(lf.NoiseError, match="each row"):
        lf.add_atoms(batch, *(a[:-1] for a in good))


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
def test_evaluate_batch_takes_a_point_per_path(kernel):
    problem = _problem(kernel, "sin")
    batch = lf.sample_batch(MEASURES["two_point"], WINDOW, 5, 0, 80)
    u = lf.solve_batch(batch, problem)
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, WINDOW.T, batch.n_paths)
    x = rng.uniform(-WINDOW.R, WINDOW.R, batch.n_paths)
    got = lf.evaluate_batch(batch, problem, u, t, x)
    for j in range(batch.n_paths):
        path = lf.SolutionPath(batch.path(j), problem,
                               u[j, :batch.counts[j]], solver="batch")
        ref = lf.evaluate_solution(path, t[j], x[j])
        assert abs(got[j] - ref) <= 1e-13 * (1.0 + abs(ref)), j
    same = np.full(batch.n_paths, 0.7), np.full(batch.n_paths, -0.2)
    assert np.array_equal(lf.evaluate_batch(batch, problem, u, *same),
                          lf.evaluate_batch(batch, problem, u, 0.7, -0.2))


EMPTY_CASES = {"empty_paths": (MEASURES["low_mass"], 60),
               "all_empty": (lf.two_point_measure(1.0, 0.0), 5)}


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
@pytest.mark.parametrize("case", sorted(EMPTY_CASES))
def test_batch_operations_match_per_path_with_empty_paths(kernel, case):
    measure, n = EMPTY_CASES[case]
    batch = lf.sample_batch(measure, WINDOW, 4, 0, n)
    assert np.any(batch.counts == 0)
    if case == "all_empty":
        assert batch.times.shape == (n, 0)
    problem = _problem(kernel, "sin")
    u = lf.solve_batch(batch, problem)
    assert u.shape == batch.times.shape
    vals = lf.ito_integrals(batch, cli.H_SMOOTH)
    evals = {(t, x): lf.evaluate_batch(batch, problem, u, t, x)
             for t, x in ((1.0, 0.0), (0.5, -1.0))}
    for j in range(n):
        cfg = batch.path(j)
        path = lf.solve_forward(cfg, problem, with_grid=False)
        want = path.atom_values
        assert np.all(np.abs(u[j, :cfg.n_atoms] - want)
                      <= 1e-13 * (1.0 + np.abs(want))), j
        for (t, x), got in evals.items():
            ref = lf.evaluate_solution(path, t, x)
            assert abs(got[j] - ref) <= 1e-13 * (1.0 + abs(ref)), (j, t)
        ref = helpers.ito_integral(cfg, cli.H_SMOOTH)
        assert abs(vals[j] - ref) <= 1e-13 * (1.0 + abs(ref)), j
    # the grid projection where no atom precedes a grid time: every grid
    # time of an empty path, and grid time 0 of every path, is exactly w
    grid_t, grid_x = problem.grid()
    w = lf.deterministic_part(problem, grid_t[:, None], grid_x[None, :])
    empty = batch.counts == 0
    coefs = (problem.sigma(u) * batch.jumps)[:, None, :]
    for j, values in solver.grid_projection(problem, batch, coefs):
        assert values.shape == (n, 1, grid_x.size)
        assert np.array_equal(values[empty, 0], np.broadcast_to(
            w[j], (int(empty.sum()), grid_x.size))), j
        if j == 0:
            assert np.array_equal(values[:, 0],
                                  np.broadcast_to(w[0], (n, grid_x.size)))
    for j in np.flatnonzero(empty)[:3]:
        path = lf.solve_forward(batch.path(j), problem)
        assert np.array_equal(path.grid_values, w), j
        path, _ = lf.picard_solve(batch.path(j), problem, 2)
        assert np.array_equal(path.grid_values, w), j


def test_padding_atoms_never_reach_h_or_sigma():
    batch = lf.sample_batch(MEASURES["low_mass"], WINDOW, 2, 0, 50)
    n_atoms = int(batch.counts.sum())
    seen = []

    def logged(u):
        seen.append(np.array(u, ndmin=1))
        return np.sin(u)

    problem = lf.ProblemSpec(kernel=lf.heat_kernel(),
                             sigma=lf.custom_map(logged, 1.0, "logged"),
                             ic_kind="cosine", window=WINDOW)
    seen.clear()
    u = lf.solve_batch(batch, problem)
    assert sum(a.size for a in seen) == n_atoms
    seen.clear()
    lf.evaluate_batch(batch, problem, u, WINDOW.T, 0.0)
    assert sum(a.size for a in seen) == n_atoms     # every atom is before T
    seen.clear()
    lf.ito_integrals(batch, lf.Integrand(
        lambda t, x: logged(t) + np.where(t < WINDOW.T, 0.0, np.nan), "t"))
    assert np.array_equal(np.concatenate(seen), batch.times[batch.mask])


def test_solve_batch_refuses_compensated_measure(wave_problem):
    batch = lf.sample_batch(lf.gaussian_measure(5.0, 0.5, 1.0), WINDOW, 0, 0,
                            3)
    with pytest.raises(lf.SolverError, match="m1"):
        lf.solve_batch(batch, wave_problem)


@pytest.mark.parametrize("measure", [lf.two_point_measure(1.0, 5.0),
                                     lf.gaussian_measure(5.0, 0.5, 1.0),
                                     MEASURES["low_mass"]],
                         ids=["two_point", "compensated", "low_mass"])
def test_ito_integrals_match_ito_integral(measure):
    batch = lf.sample_batch(measure, WINDOW, 6, 0, 200)
    vals = lf.ito_integrals(batch, cli.H_SMOOTH, measure)
    for j in range(batch.n_paths):
        want = helpers.ito_integral(batch.path(j), cli.H_SMOOTH, measure)
        assert abs(vals[j] - want) <= 1e-13 * (1.0 + abs(want)), j
        got = lf.ito_integrals(batch.path(j), cli.H_SMOOTH, measure)
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), j


def test_ito_integrals_reject_non_finite_integrand():
    batch = lf.sample_batch(lf.rademacher(), WINDOW, 0, 0, 20)
    h = lf.Integrand(lambda t, x: np.where(x > 0.0, np.inf, 1.0), "inf")
    with pytest.raises(lf.IntegrandError):
        lf.ito_integrals(batch, h)


# The diagnostics engine: batched Picard at the atoms and batched grid
# projection, against dense per-path references.  The references build one
# full kernel matrix per path (atoms x atoms, and every grid point x atoms)
# with pairwise_interaction_matrix and never pad, batch or project one grid
# time at a time.

def _dense_picard(problem, cfg, n_iter):
    """Picard iterates of one path at its atoms, [u_0..u_n], and on the
    grid, (n + 1, n_t, n_x), from full kernel matrices; and the grid
    projection w + G coef of atom coefficients."""
    kernel, sigma = problem.kernel, problem.sigma
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    gt, gx = problem.grid()
    tt, xx = np.repeat(gt, gx.size), np.tile(gx, gt.size)
    M = solver.pairwise_interaction_matrix(kernel, t, x, t, x)
    G = solver.pairwise_interaction_matrix(kernel, tt, xx, t, x)
    w = np.array(lf.deterministic_part(problem, t, x), ndmin=1)
    wg = lf.deterministic_part(problem, tt, xx)

    def project(coef):
        return (wg + G @ coef).reshape(gt.size, gx.size)

    at, grid = [w], [project(np.zeros(t.size))]
    for _ in range(n_iter):
        coef = sigma(at[-1]) * z
        at.append(w + M @ coef)
        grid.append(project(coef))
    return at, np.stack(grid), project


def _close(got, want, tol=1e-13):
    """|got - want| <= tol (1 + sup |want|): the sup norm, because a grid
    value can be a cancelling sum of terms as large as the field."""
    scale = 1.0 + np.max(np.abs(want), initial=0.0)
    return np.all(np.abs(got - want) <= tol * scale)


ENGINE_CASES = {
    "paths": (lf.two_point_measure(1.0, 5.0), 40, 6),
    "empty_paths": (MEASURES["low_mass"], 60, 4),
    "one_long_path": (lf.two_point_measure(1.0, 250.0), 1, 3),  # ~1000 atoms
}


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
@pytest.mark.parametrize("sigma", ["affine", "sin", "abs"])
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_batched_picard_and_projection_match_dense(kernel, sigma, case):
    problem = _problem(kernel, sigma)
    measure, n_paths, n_iter = ENGINE_CASES[case]
    batch = lf.sample_batch(measure, WINDOW, 11, 0, n_paths)
    if case == "empty_paths":
        assert np.any(batch.counts == 0)
    if case == "one_long_path":
        assert batch.counts[0] > 900
    t, x, z = batch.times, batch.positions, batch.jumps
    iterates = solver.picard_iterates_at_atoms(problem, batch, n_iter)
    coefs = np.zeros((batch.n_paths, n_iter + 1, t.shape[1]))
    for m in range(1, n_iter + 1):
        coefs[:, m] = problem.sigma(iterates[m - 1]) * z
    grids = np.empty((batch.n_paths, n_iter + 1) + (problem.n_t,
                                                    problem.n_x))
    for j, values in solver.grid_projection(problem, batch, coefs):
        grids[:, :, j] = values
    for p in range(batch.n_paths):
        at, grid, _ = _dense_picard(problem, batch.path(p), n_iter)
        k = batch.counts[p]
        for m in range(n_iter + 1):
            assert _close(iterates[m][p, :k], at[m]), (p, m)
        for m in range(n_iter + 1):
            assert _close(grids[p, m], grid[m]), (p, m)


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
def test_interaction_matrix_branches_agree(kernel):
    # grid rows of a batch broadcast one time over the positions; the same
    # targets spelt out in full, one time per target, give the same block
    batch = lf.sample_batch(lf.two_point_measure(1.0, 5.0), WINDOW, 5, 0, 30)
    t, x = batch.times, batch.positions
    grid_x = np.linspace(-WINDOW.R, WINDOW.R, 64)
    for tj in (0.0, 0.3, 0.7, WINDOW.T):
        row = solver.pairwise_interaction_matrix(kernel, tj, grid_x, t, x)
        full = solver.pairwise_interaction_matrix(
            kernel, np.full((batch.n_paths, grid_x.size), tj),
            np.broadcast_to(grid_x, (batch.n_paths, grid_x.size)), t, x)
        assert row.shape == full.shape == (batch.n_paths, 64, t.shape[1])
        assert np.array_equal(row, full), tj


# a batch's grid blocks evaluate G on each row's causal prefix only; the
# dense rule builds every row over the longest prefix and zeroes the rest
BLOCK_CASES = {
    "paths": (lf.two_point_measure(1.0, 5.0), 30),
    "empty_paths": (MEASURES["low_mass"], 40),
    "all_empty": (lf.two_point_measure(1.0, 0.0), 5),     # K = 0
    "one_row": (lf.two_point_measure(1.0, 5.0), 1),
}


def _grid_block_batch(kernel, case):
    measure, n_paths = BLOCK_CASES[case]
    batch = lf.sample_batch(measure, WINDOW, 3, 0, n_paths)
    if case == "empty_paths":
        assert np.any(batch.counts == 0) and np.any(batch.counts > 0)
    if case == "all_empty":
        assert batch.times.shape == (n_paths, 0)
    return _problem(kernel, "affine"), batch


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_batch_grid_blocks_are_the_dense_rule_bit_for_bit(kernel, case):
    problem, batch = _grid_block_batch(kernel, case)
    t, x = batch.times, batch.positions
    grid_t, grid_x = problem.grid()
    dense = []
    for tj in grid_t:
        kj = int(np.max(np.sum(t < tj, axis=1), initial=0))
        dense.append(solver.pairwise_interaction_matrix(
            kernel, tj, grid_x, t[:, :kj], x[:, :kj]))
    # t_0 = 0 comes before every atom
    assert dense[0].shape == (batch.n_paths, grid_x.size, 0)
    # one buffer per pass: compare each block as it comes
    n = 0
    for n, got in enumerate(solver._grid_blocks(problem, t, x), start=1):
        want = dense[n - 1]
        assert got.shape == want.shape, n
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), n
    assert n == grid_t.size


@pytest.mark.parametrize("kernel", [lf.wave_kernel(), lf.heat_kernel()],
                         ids=["wave", "heat"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_batch_grid_blocks_evaluate_only_causal_pairs(monkeypatch, kernel,
                                                      case):
    problem, batch = _grid_block_batch(kernel, case)
    t, x = batch.times, batch.positions
    grid_t, grid_x = problem.grid()
    before = np.sum(t[:, None, :] < grid_t[:, None], axis=-1)
    points, real = [], lf.GreenKernel.evaluate

    def counting(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        points.append(np.size(out))
        return out

    monkeypatch.setattr(lf.GreenKernel, "evaluate", counting)
    for j, _ in enumerate(solver._grid_blocks(problem, t, x)):
        assert sum(points) == before[:, j].sum() * grid_x.size, j
        points.clear()


# a one-row batch is a path: the row count picks the machinery, so one row
# of any length takes the per-path code and gives the path's bits

def _one_row_batch(atoms, n_paths=1):
    """n_paths rows of about `atoms` atoms (v = 5), the first one-path
    batch on either side of ATOM_BLOCK_ROWS."""
    mass = atoms / WINDOW.volume
    measure = lf.two_point_measure(float(np.sqrt(5.0 / mass)), mass)
    batch = lf.sample_batch(measure, WINDOW, 61, 0, n_paths)
    assert (batch.counts > solver.ATOM_BLOCK_ROWS).all() \
        == (atoms > solver.ATOM_BLOCK_ROWS)
    return batch


# the heat row of about 1000 expected atoms sums its far sources spectrally
@pytest.mark.parametrize("kernel, atoms", [
    ("wave", 30), ("wave", 200), ("heat", 30), ("heat", 200), ("heat", 1000)])
def test_a_one_row_batch_is_its_path_bit_for_bit(kernel, atoms):
    problem = _problem(lf.GreenKernel(kernel), "sin")
    batch = _one_row_batch(atoms)
    path = batch.path(0)
    t, z = batch.times, batch.jumps
    fwd = lf.solve_forward(path, problem)
    u = lf.solve_batch(batch, problem)
    assert u.shape == t.shape
    assert u[0].tobytes() == fwd.atom_values.tobytes()
    rows = solver.picard_iterates_at_atoms(problem, batch, 8)
    flat = solver.picard_iterates_at_atoms(problem, path, 8)
    for m, (a, b) in enumerate(zip(rows, flat)):
        assert a.shape == t.shape and a[0].tobytes() == b.tobytes(), m
    pic, _ = lf.picard_solve(path, problem, 8)
    # the row's grid projections are the path's grids: sigma(u) z as one
    # field in the row's shape, and beside sigma(u_7) z as two fields
    one = problem.sigma(u) * z
    two = np.stack([one, problem.sigma(rows[7]) * z], axis=1)
    for (j, a), (_, b) in zip(solver.grid_projection(problem, batch, one),
                              solver.grid_projection(problem, batch, two)):
        assert a.shape == (1, problem.n_x) and b.shape == (1, 2, problem.n_x)
        assert a[0].tobytes() == fwd.grid_values[j].tobytes(), j
        assert b[0, 0].tobytes() == fwd.grid_values[j].tobytes(), j
        assert b[0, 1].tobytes() == pic.grid_values[j].tobytes(), j
    # and so are the grids that the batch reducers take
    squares = solver.iterate_moment_sums(problem, batch, rows)[0]
    assert squares[8].tobytes() == np.square(pic.grid_values).tobytes()
    atom_gap, grid_gap = solver.cross_solver_gaps(batch, problem, 8)
    assert atom_gap[0] == np.max(np.abs(pic.atom_values - fwd.atom_values))
    assert grid_gap[0] == np.max(np.abs(pic.grid_values - fwd.grid_values))


@pytest.mark.parametrize("atoms", [30, 200])
@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_causal_sums_take_rows_shaped_coefs_as_one_field(kernel, atoms):
    # coefs in the rows' shape (P, K) are one field per row: the (P, 1, K)
    # call's sums in the rows' shape, bit for bit, and each row's sums at
    # its atoms are its path's, up to the rounding of a reordered sum of
    # K terms
    k = lf.GreenKernel(kernel)
    batch = _one_row_batch(atoms, 2)
    t, z = batch.times, batch.jumps
    got = solver.causal_sums(k, batch, z)
    assert got.shape == t.shape
    want = solver.causal_sums(k, batch, z[:, None, :])
    assert got.tobytes() == want[:, 0].tobytes()
    for p, n in enumerate(batch.counts):
        path = batch.path(p)
        row = solver.causal_sums(k, path, path.jumps)
        size = solver.causal_sums(k, path, np.abs(path.jumps))
        tol = t.shape[1] * np.finfo(float).eps * size
        assert np.all(np.abs(got[p, :n] - row) <= tol), p


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_grid_projection_takes_rows_shaped_coefs_as_one_field(kernel):
    # as in causal_sums: coefs in the rows' shape (P, K) are one field per
    # row, the (P, 1, K) call's values in the rows' shape, bit for bit
    problem = _problem(lf.GreenKernel(kernel), "sin")
    batch = _one_row_batch(30, 3)
    z = batch.jumps
    for (j, got), (_, want) in zip(
            solver.grid_projection(problem, batch, z),
            solver.grid_projection(problem, batch, z[:, None, :])):
        assert got.shape == (3, problem.n_x), j
        assert got.tobytes() == want[:, 0].tobytes(), j


def _spy_builds(monkeypatch):
    built = []
    for name in ("_null_plan", "_BlockWork"):
        def spy(*args, _name=name, _real=getattr(solver, name)):
            built.append(_name)
            return _real(*args)
        monkeypatch.setattr(solver, name, spy)
    return built


@pytest.mark.parametrize("kernel, builds", [("wave", "_null_plan"),
                                            ("heat", "_BlockWork")])
def test_a_long_one_row_batch_takes_the_per_path_machinery(monkeypatch,
                                                           kernel, builds):
    problem = _problem(lf.GreenKernel(kernel), "affine")
    built = _spy_builds(monkeypatch)
    for n_paths, want in ((1, [builds]), (2, [])):
        batch = _one_row_batch(200, n_paths)
        solver.picard_iterates_at_atoms(problem, batch, 4)
        # several rows of long paths keep the batch code
        assert built == want, n_paths
        built.clear()


def test_per_path_entry_points_refuse_a_batch(tmp_path, wave_problem):
    # a (P, K) batch would mix its rows in a path's grid projection, so the
    # per-path entry points take one path's (K,) row only
    batch = lf.sample_batch(MEASURES["two_point"], WINDOW, 3, 0, 2)
    for call in (lambda b: lf.solve_forward(b, wave_problem),
                 lambda b: lf.picard_solve(b, wave_problem, 2),
                 lambda b: solver.solve_forward_pair(b, wave_problem, 0.5,
                                                     0.1, 1.0)):
        with pytest.raises(lf.SolverError, match="batch.path"):
            call(batch)
        call(batch.path(1))
    with pytest.raises(lf.NoiseError, match="batch.path"):
        lf.save_configuration(batch, tmp_path / "batch.csv")


# existence_diagnostics, derivative_bound_estimate and verify cross-solver
# at their defaults, against one dense per-path pass over the same
# realizations.  The per-path sums go through the same report (gate) code,
# so the verdicts compare the batched ensemble with the per-path one.

N_PATHS, N_POINTS = 100, 64
EXIST_ITER, DERIV_ITER, CROSS_ITER = 6, 8, 10


def _derivative_row(problem, cfg, at, seed, i):
    """One realization of derivative_bound_estimate at (T, 0): the mean over
    its derivative points of the squared add-one-atom difference of each
    iterate n = 1..DERIV_ITER, integrated against the jump measure."""
    kernel, sigma = problem.kernel, problem.sigma
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(i, 1)))
    pts_t = rng.uniform(0.0, WINDOW.T, N_POINTS)
    pts_x = rng.uniform(-WINDOW.R, WINDOW.R, N_POINTS)
    M = solver.pairwise_interaction_matrix(kernel, t, x, t, x)
    to_pt = solver.pairwise_interaction_matrix(kernel, pts_t, pts_x, t, x)
    from_pt = solver.pairwise_interaction_matrix(kernel, t, x, pts_t,
                                                 pts_x).T
    g_row = solver.pairwise_interaction_matrix(kernel, WINDOW.T, 0.0, t,
                                               x)[0]
    g_pt = solver.pairwise_interaction_matrix(kernel, WINDOW.T, 0.0, pts_t,
                                              pts_x)[0]
    w_pt = lf.deterministic_part(problem, pts_t, pts_x)
    w_end = lf.deterministic_part(problem, WINDOW.T, 0.0)
    at_pt = [w_pt + to_pt @ (sigma(u) * z) for u in at[:DERIV_ITER - 1]]
    at_pt.insert(0, w_pt)
    dens = np.zeros(DERIV_ITER)
    for z_val, z_w in zip(*lf.atomic_decomposition(cfg.measure)):
        plus = np.tile(at[0], (N_POINTS, 1))
        for n in range(1, DERIV_ITER + 1):
            with_pt = w_end + (sigma(plus) * z) @ g_row \
                + g_pt * sigma(at_pt[n - 1]) * z_val
            base = w_end + g_row @ (sigma(at[n - 1]) * z)
            dens[n - 1] += z_w * np.mean((with_pt - base) ** 2)
            plus = at[0] + (sigma(plus) * z) @ M.T \
                + from_pt * (sigma(at_pt[n - 1]) * z_val)[:, None]
    return WINDOW.volume * dens


@functools.lru_cache(maxsize=None)
def _per_path_reference(kind, seed):
    config = lf.RunConfig(kernel=kind, seed=seed)
    problem, measure = lf.build_problem(config), lf.build_measure(config)
    sums = [0.0] * 4                  # u^2, u^4, increment^2, increment^4
    k_sums = [0.0, 0.0]
    per_real = np.zeros((N_PATHS, DERIV_ITER, 1))
    cross = []
    for i in range(N_PATHS):
        cfg = lf.sample_prm(measure, WINDOW, (seed, i))
        at, grid, project = _dense_picard(problem, cfg, CROSS_ITER)
        sq = np.square(grid)
        inc = np.square(np.diff(grid[:EXIST_ITER + 1], axis=0))
        for k, v in enumerate((sq[:EXIST_ITER + 1],
                               np.square(sq[:EXIST_ITER + 1]), inc,
                               np.square(inc))):
            sums[k] = sums[k] + v
        k_sums[0] = k_sums[0] + sq[:DERIV_ITER + 1]
        k_sums[1] = k_sums[1] + np.square(sq[:DERIV_ITER + 1])
        per_real[i, :, 0] = _derivative_row(problem, cfg, at, seed, i)
        exact = lf.solve_forward(cfg, problem, with_grid=False).atom_values
        exact_grid = project(problem.sigma(exact) * cfg.jumps)
        atom_gap = float(np.max(np.abs(at[-1] - exact), initial=0.0))
        grid_gap = float(np.max(np.abs(grid[-1] - exact_grid)))
        scale = 1.0 + float(np.max(np.abs(exact_grid)))
        cross.append((cfg.n_atoms, atom_gap, grid_gap, scale))
    existence = solver._existence_report(problem, measure, N_PATHS, *sums)
    derivative = malliavin._derivative_bound_report(
        problem, measure, [(WINDOW.T, 0.0)], per_real, *k_sums)
    return existence, derivative, cross


@functools.lru_cache(maxsize=None)
def _batched(kind, seed, tmp):
    config = lf.RunConfig(kernel=kind, seed=seed)
    problem, measure = lf.build_problem(config), lf.build_measure(config)
    existence = lf.existence_diagnostics(problem, measure, N_PATHS,
                                         EXIST_ITER, master_seed=seed)
    derivative = lf.derivative_bound_estimate(
        problem, measure, N_PATHS, N_POINTS, DERIV_ITER, master_seed=seed)
    outdir = tmp / f"{kind}{seed}"
    code = cli.main(["verify", "cross-solver", "--kernel", kind, "--seed",
                     str(seed), "--outdir", str(outdir)])
    with open(outdir / "cross_solver.csv") as fh:
        rows = list(csv.DictReader(fh))
    return existence, derivative, code, rows


@pytest.fixture(scope="module")
def diagnostics_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("diagnostics")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_diagnostics_values_match_per_path_reference(kind, seed,
                                                     diagnostics_tmp):
    ref_ex, ref_db, ref_cross = _per_path_reference(kind, seed)
    ex, db, _, rows = _batched(kind, seed, diagnostics_tmp)
    for name in ("h_values", "h_stderr", "second_moment_sup",
                 "sqrt_ratios"):
        assert _close(getattr(ex, name), getattr(ref_ex, name)), name
    defined = ~np.isnan(ref_ex.bounds)
    assert np.array_equal(defined, ~np.isnan(ex.bounds))
    assert _close(ex.bounds[defined], ref_ex.bounds[defined])
    for name in ("estimates", "stderrs", "second_moment_sup"):
        assert _close(getattr(db, name), getattr(ref_db, name)), name
    assert len(rows) == N_PATHS
    for i, (row, (n_atoms, atom_gap, grid_gap, scale)) in enumerate(
            zip(rows, ref_cross)):
        assert (int(row["realization"]), int(row["atoms"])) == (i, n_atoms)
        assert abs(float(row["atom_gap"]) - atom_gap) <= 1e-12 * scale, i
        assert abs(float(row["grid_gap"]) - grid_gap) <= 1e-12 * scale, i


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_diagnostics_verdicts_match_per_path_reference(kind, seed,
                                                       diagnostics_tmp):
    ref_ex, ref_db, ref_cross = _per_path_reference(kind, seed)
    ex, db, code, rows = _batched(kind, seed, diagnostics_tmp)
    for name in ("recursion_ok", "decay_ok", "bounded_ok"):
        assert getattr(ex, name) == getattr(ref_ex, name), name
    assert np.array_equal(ex.bound_pass, ref_ex.bound_pass)
    for name in ("recursion_ok", "stable_ok"):
        assert getattr(db, name) == getattr(ref_db, name), name
    assert [r.passed for r in db.rows] == [r.passed for r in ref_db.rows]
    want = [max(a, g) <= cli.TOL_CROSS for _, a, g, _ in ref_cross]
    assert [row["pass"] == "true" for row in rows] == want
    assert code == (0 if all(want) else 2)
    if kind == "heat":     # the heat kernel's causal chains outrun Picard(10)
        assert code == 2


@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_diagnostics_do_not_depend_on_batch_size(kind, diagnostics_tmp,
                                                 monkeypatch):
    # N_PATHS in batches of 30, 30, 30 and 10 against one batch of 100
    ex, db, code, rows = _batched(kind, 0, diagnostics_tmp)
    monkeypatch.setattr(noise, "BATCH_PATHS", 30)
    config = lf.RunConfig(kernel=kind, seed=0)
    problem, measure = lf.build_problem(config), lf.build_measure(config)
    ex30 = lf.existence_diagnostics(problem, measure, N_PATHS, EXIST_ITER,
                                    master_seed=0)
    db30 = lf.derivative_bound_estimate(problem, measure, N_PATHS, N_POINTS,
                                        DERIV_ITER, master_seed=0)
    outdir = diagnostics_tmp / f"{kind}0-batch30"
    code30 = cli.main(["verify", "cross-solver", "--kernel", kind, "--seed",
                       "0", "--outdir", str(outdir)])
    with open(outdir / "cross_solver.csv") as fh:
        rows30 = list(csv.DictReader(fh))
    for name in ("h_values", "h_stderr", "second_moment_sup"):
        assert _close(getattr(ex30, name), getattr(ex, name)), name
    for name in ("estimates", "stderrs", "second_moment_sup"):
        assert _close(getattr(db30, name), getattr(db, name)), name
    assert code30 == code and len(rows30) == len(rows)
    for row30, row in zip(rows30, rows):   # padding changes the rounding
        for key in ("realization", "atoms", "pass"):
            assert row30[key] == row[key], (row["realization"], key)
        for key in ("atom_gap", "grid_gap"):
            assert abs(float(row30[key]) - float(row[key])) <= 1e-12, \
                (row["realization"], key)
