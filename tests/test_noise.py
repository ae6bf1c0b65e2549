"""Jump measures, Poisson sampling, and point-configuration surgery."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import levyfield as lf
from levyfield import NoiseError

import helpers
from conftest import assert_close, make_empty_config


# ---------------------------------------------------------------- measures

def test_measure_moment_examples():
    assert lf.moments(lf.rademacher()) == (1.0, 0.0, 1.0)
    assert lf.moments(lf.two_point_measure(0.5, 2.0)) == (0.5, 0.0, 2.0)
    v, m1, mass = lf.moments(lf.gaussian_measure(3.0))
    assert m1 == 0.0
    assert_close(v, 3.0, rel=1e-9, label="gaussian v")
    assert_close(mass, 3.0, rel=1e-12, label="gaussian mass")


def test_discrete_measure_moments():
    m = lf.discrete_measure([1.0, -2.0, 0.5], [1.0, 2.0, 0.5])
    assert m.total_mass == 3.5
    assert m.first_moment == 1.0 - 4.0 + 0.25
    assert m.second_moment == 1.0 + 8.0 + 0.125


def test_power_law_moments_match_quadrature():
    # the closed form's power branch, its log branch at exponent 2 and the
    # power branch just beside it
    c, zmax, scale = 0.05, 3.0, 0.7
    for a in (0.5, 1.0, 1.2, 1.5, 2.0, 1.999999):
        m = lf.truncated_power_law_measure(a, c, zmax, scale)
        dens = lambda z: scale * z ** (-1.0 - a)
        mass, _ = quad(dens, c, zmax, epsabs=0.0, epsrel=1e-13, limit=200)
        v, _ = quad(lambda z: z * z * dens(z), c, zmax, epsabs=0.0,
                    epsrel=1e-13)
        assert m.first_moment == 0.0  # symmetric by construction
        assert_close(m.total_mass, 2.0 * mass, rel=1e-12,
                     label=f"power-law mass, exponent {a}")
        assert_close(m.second_moment, 2.0 * v, rel=1e-12,
                     label=f"power-law v, exponent {a}")


def test_power_law_second_moment_is_continuous_at_exponent_two():
    # v = 2 scale int z^(1 - a) dz: the power branch meets the log branch
    at_two = lf.truncated_power_law_measure(2.0, 0.05, 3.0).second_moment
    assert at_two == 2.0 * math.log(3.0 / 0.05)
    for d in (1e-6, 1e-9, 1e-12):
        for a in (2.0 - d, 2.0 + d):
            near = lf.truncated_power_law_measure(a, 0.05, 3.0).second_moment
            # d/da of v is -v log(M c) / 2 near a = 2: |.| < 2 v
            assert abs(near - at_two) <= 2.0 * d * at_two + 1e-15 * at_two


# offset and narrow bumps, which an adaptive quad over (-inf, inf) once
# missed entirely (mass, v and m1 all read 0)
@pytest.mark.parametrize("intensity, mean, std", [
    (1.0, 100.0, 0.01), (1.0, 1000.0, 1.0), (2.0, 0.0, 1e-4),
    (3.0, -40.0, 0.5), (0.5, 1e-3, 1e-6), (5.0, 0.5, 1.0)])
def test_gaussian_measure_moments_offset_and_narrow(intensity, mean, std):
    m = lf.gaussian_measure(intensity, mean, std)
    assert m.total_mass == intensity
    assert_close(m.second_moment, intensity * (std * std + mean * mean),
                 rel=1e-15)
    assert m.first_moment == intensity * mean
    # quad over the bump's own support, where it cannot miss it
    dens = lambda z: intensity * math.exp(-0.5 * ((z - mean) / std) ** 2) \
        / (std * math.sqrt(2.0 * math.pi))
    lo, hi = mean - 40.0 * std, mean + 40.0 * std
    for k, got in ((0, m.total_mass), (1, m.first_moment),
                   (2, m.second_moment)):
        size = intensity * (abs(mean) + std) ** k
        want, _ = quad(lambda z: z ** k * dens(z), lo, hi, points=[mean],
                       epsabs=1e-13 * size, epsrel=1e-12, limit=200)
        assert_close(got, want, rel=1e-9, abs_=1e-12 * size,
                     label=f"gaussian moment {k}")
    # and the measure samples atoms: about intensity * |window| = 4 intensity
    window = lf.SpaceTimeWindow(1.0, 2.0)
    counts = [lf.sample_prm(m, window, (7, i)).n_atoms for i in range(50)]
    assert_close(np.mean(counts), intensity * window.volume,
                 rel=0.5, label="atoms per path")


def test_measure_validation_errors():
    with pytest.raises(NoiseError):
        lf.LevyMeasure(kind="two_point", params=(1.0, 1.0), total_mass=-1.0,
                       second_moment=1.0, first_moment=0.0)
    with pytest.raises(NoiseError):  # positive mass needs positive v
        lf.LevyMeasure(kind="two_point", params=(1.0, 1.0), total_mass=1.0,
                       second_moment=0.0, first_moment=0.0)
    with pytest.raises(NoiseError):  # m1^2 > v * mass
        lf.LevyMeasure(kind="two_point", params=(1.0, 1.0), total_mass=1.0,
                       second_moment=1.0, first_moment=2.0)
    with pytest.raises(NoiseError):
        lf.LevyMeasure(kind="two_point", params=(1.0, 1.0),
                       total_mass=math.inf, second_moment=1.0,
                       first_moment=0.0)
    with pytest.raises(NoiseError):
        lf.discrete_measure([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(NoiseError):  # mass beyond the float range
        lf.truncated_power_law_measure(40.0, 1e-10, 1.0)
    with pytest.raises(NoiseError):  # v beyond the float range
        lf.truncated_power_law_measure(0.5, 1e-300, 1e300)
    with pytest.raises(NoiseError):
        lf.discrete_measure([1.0, 2.0], [1.0, -1.0])


# ---------------------------------------------------------------- sampling

def test_sample_reproducible_and_streams(window, busy_noise):
    a = lf.sample_prm(busy_noise, window, 42)
    b = lf.sample_prm(busy_noise, window, 42)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.jumps, b.jumps)
    c = lf.sample_prm(busy_noise, window, (42, 0))
    d = lf.sample_prm(busy_noise, window, (42, 1))
    assert not (c.n_atoms == d.n_atoms and np.array_equal(c.times, d.times))
    e = lf.sample_prm(busy_noise, window, (42, 0))
    assert np.array_equal(c.times, e.times) and np.array_equal(c.jumps, e.jumps)


def test_zero_mass_gives_empty_configuration(window):
    cfg = make_empty_config(window)
    assert cfg.n_atoms == 0
    assert cfg.times.shape == (0,)


def test_atom_arrays_sorted_and_in_window(window, busy_noise):
    for seed in range(20):
        cfg = lf.sample_prm(busy_noise, window, seed)
        assert np.all(np.diff(cfg.times) > 0.0)
        if cfg.n_atoms:
            assert 0.0 < cfg.times[0] and cfg.times[-1] < window.T
            assert np.all(np.abs(cfg.positions) <= window.R)
            assert np.all(cfg.jumps != 0.0)


def test_count_moments_poisson():
    # Poisson(mass * 2RT) atom counts: mean and variance both match the rate.
    window = lf.SpaceTimeWindow(1.0, 1.0)
    measure = lf.rademacher()
    n = 10_000
    counts = np.array([lf.sample_prm(measure, window, (7, i)).n_atoms
                       for i in range(n)], dtype=float)
    rate = measure.total_mass * 2.0 * window.R * window.T
    se_mean = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - rate) <= 3.0 * se_mean
    s2 = counts.var(ddof=1)
    m4 = np.mean((counts - counts.mean()) ** 4)
    se_var = math.sqrt(max(m4 - s2 ** 2, 0.0) / n)
    assert abs(s2 - rate) <= 4.0 * se_var


def test_jump_second_moment_matches_measure():
    window = lf.SpaceTimeWindow(1.0, 1.0)
    measure = lf.gaussian_measure(3.0)
    zs = np.concatenate([lf.sample_prm(measure, window, (11, i)).jumps
                         for i in range(2000)])
    z2 = zs ** 2
    se = z2.std(ddof=1) / math.sqrt(z2.size)
    target = measure.second_moment / measure.total_mass
    assert abs(z2.mean() - target) <= 4.0 * se


# ------------------------------------------------------------ atom surgery

def test_add_atom_inserts_in_time_order(window, busy_noise):
    cfg = lf.sample_prm(busy_noise, window, 3)
    mid = 0.5 * (cfg.times[0] + cfg.times[1])
    out = lf.add_atoms(cfg, mid, 0.25, -1.0)
    assert out.n_atoms == cfg.n_atoms + 1
    assert np.all(np.diff(out.times) > 0.0)
    assert out.times[1] == mid and out.positions[1] == 0.25
    assert out.jumps[1] == -1.0
    # input untouched
    assert cfg.n_atoms == out.n_atoms - 1
    assert not cfg.times.flags.writeable


def test_add_atom_rejects_bad_points(window, busy_noise):
    cfg = lf.sample_prm(busy_noise, window, 3)
    with pytest.raises(NoiseError):
        lf.add_atoms(cfg, cfg.times[0], 0.0, 1.0)  # time collision
    with pytest.raises(NoiseError):
        lf.add_atoms(cfg, 0.0, 0.0, 1.0)
    with pytest.raises(NoiseError):
        lf.add_atoms(cfg, window.T, 0.0, 1.0)
    with pytest.raises(NoiseError):
        lf.add_atoms(cfg, 0.5, window.R + 0.1, 1.0)
    with pytest.raises(NoiseError):
        lf.add_atoms(cfg, 0.5, 0.0, 0.0)


def test_add_atom_rejects_nan(window, busy_noise):
    cfg = lf.sample_prm(busy_noise, window, 3)
    with pytest.raises(NoiseError, match="position"):
        lf.add_atoms(cfg, 0.5, np.nan, 1.0)
    with pytest.raises(NoiseError, match="time"):
        lf.add_atoms(cfg, np.nan, 0.0, 1.0)
    with pytest.raises(NoiseError, match="jump"):
        lf.add_atoms(cfg, 0.5, 0.0, np.nan)


def test_remove_atom_roundtrip(window, busy_noise):
    cfg = lf.sample_prm(busy_noise, window, 3)
    mid = 0.5 * (cfg.times[2] + cfg.times[3])
    back = helpers.remove_atom(lf.add_atoms(cfg, mid, 0.1, 1.0), 3)
    assert np.array_equal(back.times, cfg.times)
    assert np.array_equal(back.positions, cfg.positions)
    assert np.array_equal(back.jumps, cfg.jumps)
    with pytest.raises(NoiseError):
        helpers.remove_atom(cfg, cfg.n_atoms)


@given(pts=st.lists(
    st.tuples(st.floats(0.01, 0.99), st.floats(-2.0, 2.0),
              st.floats(0.1, 3.0), st.booleans()),
    min_size=1, max_size=12, unique_by=lambda p: p[0]))
def test_add_atom_keeps_sorted_distinct(pts):
    cfg = make_empty_config(lf.SpaceTimeWindow(1.0, 2.0))
    for r, xi, z, neg in pts:
        cfg = lf.add_atoms(cfg, r, xi, -z if neg else z)
    assert cfg.n_atoms == len(pts)
    assert np.all(np.diff(cfg.times) > 0.0)
    assert np.unique(cfg.times).size == cfg.n_atoms


def test_configuration_validation(window, unit_noise):
    bad = dict(window=window, measure=unit_noise)
    with pytest.raises(NoiseError):
        lf.PointBatch(np.array([0.5, 0.4]), np.zeros(2), np.ones(2), 2, **bad)
    with pytest.raises(NoiseError):
        lf.PointBatch(np.array([0.0]), np.zeros(1), np.ones(1), 1, **bad)
    with pytest.raises(NoiseError):
        lf.PointBatch(np.array([0.5]), np.array([2.5]), np.ones(1), 1, **bad)
    with pytest.raises(NoiseError):
        lf.PointBatch(np.array([0.5]), np.zeros(1), np.zeros(1), 1, **bad)


@pytest.mark.parametrize("times, positions", [
    ([np.nan], [0.0]),
    ([0.2, np.nan, 0.7], [0.0, 0.0, 0.0]),
    ([0.2, 0.7, np.nan], [0.0, 0.0, 0.0]),
    ([0.5], [np.nan]),
    ([0.2, 0.7], [0.0, np.nan]),
])
def test_configuration_refuses_nan_atoms(window, unit_noise, times,
                                         positions):
    with pytest.raises(NoiseError):
        lf.PointBatch(np.array(times), np.array(positions),
                      np.ones(len(times)), len(times), window, unit_noise)


def test_window_validation():
    with pytest.raises(NoiseError):
        lf.SpaceTimeWindow(0.0, 1.0)
    with pytest.raises(NoiseError):
        lf.SpaceTimeWindow(1.0, -1.0)


def test_an_integer_window_samples_as_its_float_window():
    # the batch pads each row with the window's T, which must be a float
    # for the padded rows to sort and validate as sampled
    window = lf.SpaceTimeWindow(1, 2)
    assert (type(window.T), type(window.R)) == (float, float)
    assert window == lf.SpaceTimeWindow(1.0, 2.0)
    got = lf.sample_batch(lf.rademacher(), window, 0, 0, 3)
    want = lf.sample_batch(lf.rademacher(), lf.SpaceTimeWindow(1.0, 2.0), 0,
                           0, 3)
    for name in ("times", "positions", "jumps", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    one = lf.sample_prm(lf.rademacher(), window, 5)
    assert one.times.tobytes() == lf.sample_prm(
        lf.rademacher(), lf.SpaceTimeWindow(1.0, 2.0), 5).times.tobytes()


# ------------------------------------------------------------ persistence

def test_save_load_roundtrip(tmp_path, window, busy_noise):
    cfg = lf.sample_prm(busy_noise, window, (9, 4))
    path = tmp_path / "atoms.csv"
    sidecar = lf.save_configuration(cfg, path)
    assert path.exists() and sidecar.exists()
    assert path.read_text().splitlines()[0] == "t,x,z"
    back = lf.load_configuration(path)
    assert np.array_equal(back.times, cfg.times)
    assert np.array_equal(back.positions, cfg.positions)
    assert np.array_equal(back.jumps, cfg.jumps)
    assert back.window == cfg.window
    assert back.measure.describe() == cfg.measure.describe()
    assert back.seed() == (9, 4)



@pytest.mark.parametrize("seed,label", [
    (np.int64(3), 3), ((np.int64(61), np.int64(2)), (61, 2))],
    ids=["int", "pair"])
def test_numpy_int_seeds_save_and_load_as_plain_ints(tmp_path, window,
                                                     busy_noise, seed, label):
    # np.arange indices give numpy ints; the draws are the plain ints' and
    # the label is written to the sidecar and read back as plain ints
    cfg = lf.sample_prm(busy_noise, window, seed)
    plain = lf.sample_prm(busy_noise, window, label)
    assert np.array_equal(cfg.times, plain.times)
    assert np.array_equal(cfg.jumps, plain.jumps)
    path = tmp_path / "atoms.csv"
    lf.save_configuration(cfg, path)
    back = lf.load_configuration(path)
    assert back.seed() == label and back.seed() == cfg.seed()
    assert type(cfg.seed()) is type(label)


def test_batch_seed_labels_are_plain_ints(tmp_path, window, busy_noise):
    batch = lf.sample_batch(busy_noise, window, np.int64(61), np.int64(1), 3)
    j = np.arange(3)[1]
    assert batch.seed(j) == (61, 2)
    assert all(type(v) is int for v in batch.seed(j))
    path = tmp_path / "atoms.csv"
    lf.save_configuration(batch.path(j), path)
    assert lf.load_configuration(path).seed() == (61, 2)


@pytest.mark.parametrize("j", [-1, 3, 99])
def test_batch_refuses_a_row_it_does_not_hold(window, busy_noise, j):
    # row -1 would hold stream (7, 12) but be labelled (7, 9); row 3 and
    # on are no row of the batch
    batch = lf.sample_batch(busy_noise, window, 7, 10, 3)
    with pytest.raises(NoiseError, match="row"):
        batch.seed(j)
    with pytest.raises(NoiseError, match="row"):
        batch.path(j)
    path = batch.path(2)
    assert path.seed() == (7, 12)
    with pytest.raises(NoiseError, match="row"):
        path.path(j if j < 0 else 1)


@pytest.mark.parametrize("kernel", ["wave", "heat"])
def test_save_load_keeps_the_seed_and_the_solution(tmp_path, window,
                                                   busy_noise, kernel):
    problem = lf.ProblemSpec(
        kernel=lf.wave_kernel() if kernel == "wave" else lf.heat_kernel(),
        sigma=lf.named_map("sin"), ic_kind="cosine", window=window)
    rows = {"int": lf.sample_prm(busy_noise, window, 5),
            "pair": lf.sample_prm(busy_noise, window, (5, 7)),
            "batch": lf.sample_batch(busy_noise, window, 5, 20, 4).path(2)}
    labels = {"int": 5, "pair": [5, 7], "batch": [5, 22]}
    for name, row in rows.items():
        path = tmp_path / f"{name}.csv"
        sidecar = lf.save_configuration(row, path)
        assert json.loads(sidecar.read_text())["seed"] == labels[name]
        back = lf.load_configuration(path)
        assert back.seed() == row.seed()
        assert back.n_atoms == row.n_atoms > 0
        want, got = (lf.solve_forward(r, problem) for r in (row, back))
        assert want.atom_values.tobytes() == got.atom_values.tobytes()
        assert want.grid_values.tobytes() == got.grid_values.tobytes()

def test_save_load_empty(tmp_path, empty_config):
    path = tmp_path / "empty.csv"
    lf.save_configuration(empty_config, path)
    back = lf.load_configuration(path)
    assert back.n_atoms == 0


# ----------------------------------------------------------- decomposition

def test_atomic_decomposition_two_point():
    z, w = lf.atomic_decomposition(lf.two_point_measure(0.5, 2.0))
    assert np.array_equal(z, [0.5, -0.5]) and np.array_equal(w, [1.0, 1.0])


@pytest.mark.parametrize("measure", [
    lf.gaussian_measure(2.0), lf.discrete_measure([1.0, -0.5], [2.0, 1.0]),
    lf.truncated_power_law_measure(1.5, 0.1, 2.0, 0.7)])
def test_atomic_decomposition_moments(measure):
    z, w = lf.atomic_decomposition(measure, n_quad=128)
    assert_close(w.sum(), measure.total_mass, rel=1e-8, label="mass")
    assert_close((z * w).sum(), measure.first_moment,
                 abs_=1e-8 * measure.total_mass, label="m1")
    assert_close((z * z * w).sum(), measure.second_moment, rel=1e-8,
                 label="v")


def test_derive_rng_streams():
    a = lf.derive_rng(7, 3).random(4)
    b = lf.derive_rng(7, 3).random(4)
    c = lf.derive_rng(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
