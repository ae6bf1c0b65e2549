"""The spectral far field of one long heat row (solver._FarField) against
sums over full rows of pairwise_interaction_matrix, with a gate derived
from its truncation, its aliasing and the length of its sums; which rows
take it; and adaptedness bit for bit on a row that takes it."""

import math

import numpy as np
import pytest

import levyfield as lf
from levyfield import malliavin, solver

import helpers

WINDOW = lf.SpaceTimeWindow(1.0, 2.0)
EPS = np.finfo(float).eps
HEAT = lf.heat_kernel()


def _measure(expected):
    # about `expected` atoms per path at v = 5, as in the benchmark's paths
    mass = expected / WINDOW.volume
    return lf.two_point_measure(math.sqrt(5.0 / mass), mass)


def _problem(sigma="affine", kernel=HEAT, n=64):
    return lf.ProblemSpec(kernel=kernel, sigma=lf.named_map(sigma),
                          ic_kind="cosine", window=WINDOW, n_t=n, n_x=n)


def _row(expected, seed=0):
    cfg = lf.sample_prm(_measure(expected), WINDOW, (71, seed))
    far = solver._far_field(HEAT, cfg)
    assert far is not None and far.n_slabs > 2
    return cfg, far


# targets per block of kernel rows: 512 x 8000 entries is 32 MB
ROWS = 512


def _dense_sums(tt, tx, t, x, coefs):
    """sum_j G(tt_i - t_j, tx_i - x_j) coefs[..., j] over the sources
    strictly before each target, from rows of pairwise_interaction_matrix
    (zero where a source is not earlier), as mild_residual builds them:
    ROWS targets at a time over every source before the latest of them."""
    out = []
    for r in range(0, tt.size, ROWS):
        k = np.searchsorted(t, tt[r:r + ROWS].max())
        out.append(coefs[..., :k] @ solver.pairwise_interaction_matrix(
            HEAT, tt[r:r + ROWS], tx[r:r + ROWS], t[:k], x[:k]).T)
    return np.concatenate(out, axis=-1)


def _dense_forward(problem, t, x, u, z):
    """Forward substitution one atom at a time in place, each atom's sum
    one product with its row of pairwise_interaction_matrix over every
    atom up to the end of its block of ROWS: u holds w on entry, the
    solution on return; returns sigma(u) z."""
    sigz = np.zeros(t.size)
    for r in range(0, t.size, ROWS):
        rows = solver.pairwise_interaction_matrix(
            HEAT, t[r:r + ROWS], x[r:r + ROWS], t[:r + ROWS], x[:r + ROWS])
        for i, row in enumerate(rows, start=r):
            u[i] += row @ sigz[:r + ROWS]
            sigz[i] = problem.sigma(u[i]) * z[i]
    return sigz


def _dense_grid(problem, t, x, coefs):
    """_dense_sums at every grid point, (..., n_t, n_x)."""
    grid_t, grid_x = problem.grid()
    return _dense_sums(np.repeat(grid_t, grid_x.size),
                       np.tile(grid_x, grid_t.size), t, x, coefs).reshape(
                           coefs.shape[:-1] + (grid_t.size, grid_x.size))


def _gate(far, n):
    """(c, b): |spectral - dense| <= c eps (S + F) + b sum|coef| at a
    target whose dense sum of |G| |coef| over n sources is S - 1, where F
    is sum|coef| times the largest far term per unit |coef|.

    b is the dropped Fourier tail plus the aliases, per unit |coef| of a
    far source (tau >= tau0, |x - x_j| <= 2R):
    - tail: (h / pi) sum_{k > M} exp(-tau0 (k h)^2 / 2), at most
      exp(-tau0 xi_M^2 / 2) / (pi tau0 xi_M) with xi_M = M h, since the
      sum of a decreasing function is below its integral from xi_M;
    - aliases: the trapezoid sum of the inverse Fourier integral is
      sum_m G(tau, x + m L), L = 2 pi / h (Poisson summation), and
      |x + m L| >= |m| L - 2R; G(tau, d) grows with tau while
      d^2 >= tau, so each alias is at most G(T, |m| L - 2R).

    c counts the roundings along the longest chain of either sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 3.1): the n
    terms of the dense sum, the 2 (M + 1) products of the far read, the
    largest slab's sum into the state, three roundings per slab carried
    (decay, its exp, the add), each phase's argument k h x rounded three
    times, an error of eps |k h x| <= eps xi_M R in each of two phases,
    and 16 for the exps, the phase tables' products and the weights."""
    xi_m = float(far.xi[-1])
    tail = math.exp(-0.5 * far.tau0 * xi_m ** 2) \
        / (math.pi * far.tau0 * xi_m)
    period = 2.0 * math.pi / far.h
    assert (period - 2.0 * WINDOW.R) ** 2 >= WINDOW.T
    alias = 2.0 * sum(HEAT.evaluate(WINDOW.T, m * period - 2.0 * WINDOW.R)
                      for m in range(1, 20))
    c = n + 2 * far.xi.size + int(np.diff(far.starts).max()) \
        + 3 * far.n_slabs + 6 * xi_m * WINDOW.R + 16
    return c, tail + alias


def _far_magnitude(far):
    """The largest sum of |far terms| per unit |coef|: a far pair has
    tau >= tau0, and each term falls with tau."""
    return float(np.sum(far.weights * np.exp(-0.5 * far.tau0 * far.xi ** 2)))


def test_the_gate_is_below_rounding_of_the_sums():
    # the derived truncation and aliasing term is below a fiftieth of one
    # rounding of a sum of size 1 (solver.FAR_EFOLDS), so the far field is
    # exact to rounding
    for expected in (2 * solver.SPECTRAL_ROWS, 8000):
        _, far = _row(expected)
        c, b = _gate(far, expected)
        assert b < EPS / 50
        assert c * EPS < 1e-11


# the shorter row's grid has more positions than its largest slab has atoms
@pytest.mark.parametrize("expected, sigma, n_grid", [
    (2 * solver.SPECTRAL_ROWS, "sin", 240), (8000, "affine", 64)])
def test_spectral_sums_match_the_dense_blocks(expected, sigma, n_grid):
    problem = _problem(sigma, n=n_grid)
    cfg, far = _row(expected)
    assert (n_grid > np.diff(far.starts).max()) == (n_grid == 240)
    t, x, z = cfg.times, cfg.positions, cfg.jumps
    n = t.size
    c, b = _gate(far, n)
    mag = _far_magnitude(far)

    # causal sums of two fields
    coefs = np.random.default_rng(3).normal(size=(2, n))
    dense, size = np.split(_dense_sums(t, x, t, x, np.concatenate(
        [coefs, np.abs(coefs)])), 2)
    spec = solver.causal_sums(HEAT, cfg, coefs)
    size += 1.0
    total = np.sum(np.abs(coefs), axis=1, keepdims=True)
    assert np.all(np.abs(spec - dense)
                  <= c * EPS * (size + mag * total) + b * total)

    # forward solve: the per-atom sum errors e of both sides grow through
    # the substitution by at most a = e + G L |z| a, itself a forward solve
    # (of the linear map L u on |z|, whose terms are all >= 0)
    w = np.asarray(solver.deterministic_part(problem, t, x), dtype=float)
    u_dense = w.copy()
    sigz = _dense_forward(problem, t, x, u_dense, z)
    u_spec = w.copy()
    solver._heat_forward(problem, cfg, u_spec, z)
    total = float(np.sum(np.abs(sigz)))
    size = 1.0 + np.abs(w) + _dense_sums(t, x, t, x, np.abs(sigz))
    bound = c * EPS * (size + mag * total) + b * total
    growth = lf.ProblemSpec(kernel=HEAT,
                            sigma=lf.affine_map(problem.sigma.lipschitz, 0.0),
                            ic_kind="cosine", window=WINDOW)
    _dense_forward(growth, t, x, bound, np.abs(z))
    assert np.all(np.abs(u_spec - u_dense) <= bound * (1.0 + c * EPS))
    assert np.max(np.abs(u_spec - u_dense)) > 0.0     # not the dense code

    # grid projection of sigma(u) z, with the grid's own magnitudes
    grid_t, grid_x = problem.grid()
    w = solver.deterministic_part(problem, grid_t[:, None], grid_x[None, :])
    dense, size = _dense_grid(problem, t, x, np.stack([sigz, np.abs(sigz)]))
    dense += w
    size += 1.0 + np.abs(w)
    spec = np.stack([v for _, v in solver.grid_projection(problem, cfg,
                                                          sigz)])
    assert np.all(np.abs(spec - dense)
                  <= c * EPS * (size + mag * total) + b * total)


def _spy(monkeypatch):
    built = []
    real = solver._FarField

    def spy(atoms):
        built.append(solver._expected(atoms))
        return real(atoms)

    monkeypatch.setattr(solver, "_FarField", spy)
    return built


def _everything(problem, cfg):
    lf.solve_forward(cfg, problem)
    lf.picard_solve(cfg, problem, 4)
    lf.difference_derivative(lf.solution_functional(problem, 1.0, 0.0), cfg,
                             lf.DerivativePoint(0.5, 0.1, cfg.jumps[0]))


def test_only_one_heat_row_above_the_crossover_sums_spectrally(monkeypatch):
    built = _spy(monkeypatch)
    below = 0.75 * solver.SPECTRAL_ROWS
    cfg = lf.sample_prm(_measure(below), WINDOW, (71, 1))
    assert cfg.n_atoms > solver.ATOM_BLOCK_ROWS
    _everything(_problem(), cfg)
    assert built == []
    above = 2 * solver.SPECTRAL_ROWS
    cfg = lf.sample_prm(_measure(above), WINDOW, (71, 1))
    _everything(_problem(kernel=lf.wave_kernel()), cfg)
    assert built == []
    # the forward solve and Picard each on the atoms and on the grid, and
    # the derivative's one sweep of both fields
    _everything(_problem(), cfg)
    assert built == [above] * 5
    built.clear()
    # several rows keep the batch code
    batch = lf.sample_batch(_measure(above), WINDOW, 71, 0, 2)
    solver.picard_iterates_at_atoms(_problem(), batch, 4)
    solver.causal_sums(HEAT, batch, batch.jumps[:, None, :])
    for _ in solver.grid_projection(_problem(), batch, batch.jumps):
        pass
    assert built == []


def _insertions(far, t):
    """Added atom times: in the first two slabs, just after a slab edge,
    just before one, between two atoms mid-slab and after the last atom."""
    edges = far.tau0 * np.arange(1, far.n_slabs)
    mid = far.starts[far.n_slabs // 2] + 3
    return [0.5 * t[3], edges[0] + 1e-9, edges[2] + 1e-9, edges[3] - 1e-9,
            edges[-1] - 1e-9, 0.5 * (t[mid] + t[mid + 1]),
            0.5 * (t[-1] + WINDOW.T)]


def test_a_spectral_row_is_adapted_bit_for_bit(monkeypatch):
    # every value before the added atom is the base row's, bit for bit: the
    # slabs are fixed by the measure, so the far state of every earlier
    # slab holds the same atoms in both rows
    expected = 2 * solver.SPECTRAL_ROWS
    problem = _problem("sin")
    cfg, far = _row(expected, 2)
    built = _spy(monkeypatch)
    t = cfg.times
    base_its = solver.picard_iterates_at_atoms(problem, cfg, 8)
    base_fwd = lf.solve_forward(cfg, problem, with_grid=False).atom_values
    for r in _insertions(far, t):
        plus = helpers.add_atom(cfg, r, -0.7, 0.05)
        k = int(np.searchsorted(t, r))
        its = solver.picard_iterates_at_atoms(problem, plus, 8)
        for m, (a, b) in enumerate(zip(base_its, its)):
            assert a[:k].tobytes() == b[:k].tobytes(), (r, m)
        fwd = lf.solve_forward(plus, problem, with_grid=False).atom_values
        assert fwd[:k].tobytes() == base_fwd[:k].tobytes(), r
        base, plus_path = solver.solve_forward_pair(cfg, problem, r, -0.7,
                                                    0.05)
        assert plus_path.atom_values[:k].tobytes() \
            == base.atom_values[:k].tobytes(), r
    assert len(built) == 1 + 1 + 7 * 3
    # and through picard_derivative_rows, whose Du_n before the atom is 0
    runs = []

    def record(*args):
        runs.append(iterates(*args))
        return runs[-1]

    iterates = solver.picard_iterates_at_atoms
    monkeypatch.setattr(malliavin, "picard_iterates_at_atoms", record)
    point = lf.DerivativePoint(float(_insertions(far, t)[3]), 0.3, 0.05)
    rows, _ = lf.picard_derivative_rows(problem, cfg, [point], 8)
    assert all(row.passed for row in rows if row.passed is not None)
    k = int(np.searchsorted(t, point.time))
    for b, p in zip(*runs):
        assert np.all(p[0, :k] - b[0, :k] == 0.0)
