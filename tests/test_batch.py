"""The batch engine: CSR sampling, forward solves by atom rank, and per-path
sums, each against its one-path counterpart."""

import numpy as np
import pytest

import levyfield as lf
import levyfield.noise as noise
from levyfield import cli

WINDOW = lf.SpaceTimeWindow(1.0, 2.0)
MEASURES = {
    "rademacher": lf.rademacher(),
    "two_point": lf.two_point_measure(0.7, 5.0),
    "gaussian": lf.gaussian_measure(5.0, 0.0, 1.0),
    "power_law": lf.truncated_power_law_measure(1.2, 0.2, 3.0),
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
        assert path.seed == (17, i)
        assert _same_atoms(path, lf.sample_prm(measure, WINDOW, (17, i))), i
    if name == "low_mass":
        assert np.count_nonzero(batch.counts == 0) > 1000


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
    real_rng, real_prm = noise.derive_rng, noise.sample_prm
    calls = []

    def derive(master, index):
        rng = real_rng(master, index)
        return _TiedTimes(rng) if index == tied else rng

    def spy(*args):
        calls.append(args[2])
        return real_prm(*args)

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
    return (np.concatenate([b.times for b in batches]),
            np.concatenate([b.jumps for b in batches]),
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
    assert np.array_equal(longer.times[:n], want[0])
    tail = lf.sample_batch(measure, WINDOW, 8, 100, 50)
    for j in range(50):
        assert _same_atoms(tail.path(j), longer.path(100 + j))


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
    for j in range(batch.n_paths):
        path = lf.solve_forward(batch.path(j), problem, with_grid=False)
        got = u[batch.offsets[j]:batch.offsets[j + 1]]
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
        want = lf.ito_integral(batch.path(j), cli.H_SMOOTH, measure)
        assert abs(vals[j] - want) <= 1e-13 * (1.0 + abs(want)), j


def test_ito_integrals_reject_non_finite_integrand():
    batch = lf.sample_batch(lf.rademacher(), WINDOW, 0, 0, 20)
    h = lf.Integrand(lambda t, x: np.where(x > 0.0, np.inf, 1.0), "inf")
    with pytest.raises(lf.IntegrandError):
        lf.ito_integrals(batch, h)
