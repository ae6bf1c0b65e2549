"""Finite-activity jump measures and Poisson random measure sampling.

A realization of the driving noise on the window [0,T] x [-R,R] is a finite
set of atoms (t_i, x_i, z_i): a Poisson number of space-time points, uniform
on the window, each carrying an i.i.d. jump size drawn from the normalized
jump measure.  Everything downstream (integrals, solvers, derivatives) is a
deterministic function of one such configuration.

One type holds realizations: PointBatch, one path's atoms as a (K,) row
(sample_prm, PointBatch.path, load_configuration) or many paths as padded
(P, K) rows (sample_batch).  add_atoms adds one atom to each row, the
Malliavin derivative's add-one-atom step.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class NoiseError(ValueError):
    """Invalid measure parameterization or configuration operation."""


def derive_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream #index split off a master seed.

    Uses SeedSequence(master_seed, spawn_key=(index,)), a counter-based
    derivation: stream `index` is identical no matter how many sibling
    streams exist or in which order they are created.
    """
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(index,)))


# SeedSequence's hash (NumPy's bit_generator, after O'Neill's seed_seq), which
# NEP 19 keeps fixed: a pool of 4 uint32 words mixed from the entropy words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """The uint32 words of a non-negative int, least significant first, as
    SeedSequence splits it ([0] for 0)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mixed_pool(entropy: list) -> list:
    """SeedSequence's pool of 4 words from its entropy words, each word a
    uint32 array; the arrays broadcast, so one pass mixes many entropies."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    return pool


def stream_states(master_seed: int, start: int, n: int) -> np.ndarray:
    """(n, 4) uint64 rows, row j equal to SeedSequence(master_seed,
    spawn_key=(start + j,)).generate_state(4, np.uint64): the PCG64 seed of
    derive_rng(master_seed, start + j), for the n streams in one pass.

    The entropy of stream i is master_seed's uint32 words, zero-padded to
    4, then i's words (one below 2**32, two from 2**32 up), so the indices
    are mixed in groups of one word count.
    """
    master_seed, start, n = (operator.index(v) for v in (master_seed, start, n))
    if master_seed < 0 or start < 0 or n < 0:
        raise NoiseError(f"streams need a non-negative master seed, start "
                         f"and count, got {master_seed}, {start}, {n}")
    master = [np.array([w], dtype=np.uint32) for w in _uint32_words(master_seed)]
    master += [np.zeros(1, dtype=np.uint32)] * (4 - len(master))
    rows = [np.empty((0, 4), dtype=np.uint64)]
    lo, stop = start, start + n
    while lo < stop:
        k = len(_uint32_words(lo))
        hi = min(stop, 1 << 32 * k)
        index = np.arange(lo, hi, dtype=object)
        pool = _mixed_pool(master + [(index >> 32 * q & _MASK32).astype(np.uint32)
                                     for q in range(k)])
        h, state = _INIT_B, []
        for i in range(8):
            value = pool[i % 4] ^ h
            h = h * _MULT_B & _MASK32
            value = value * h
            state.append((value ^ value >> 16).astype(np.uint64))
        # word pairs little-endian, as generate_state views them as uint64
        rows.append(np.stack([state[2 * q] | state[2 * q + 1] << 32
                              for q in range(4)], axis=1))
        lo = hi
    return np.concatenate(rows)


class _StreamSeed(ISeedSequence):
    """One row of stream_states, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NoiseError("a derived stream holds only the 4 uint64 words "
                             "of a PCG64 seed")
        return self.words


def _batch_streams(master_seed: int, start: int, n: int):
    """The generators of the streams (master_seed, start + j), j < n, each
    derive_rng(master_seed, start + j) bit for bit."""
    for words in stream_states(master_seed, start, n):
        yield np.random.Generator(np.random.PCG64(_StreamSeed(words)))


def _as_rng(seed) -> np.random.Generator:
    # int -> plain seeded generator; (master, index) -> derived stream
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, tuple) and len(seed) == 2:
        return derive_rng(int(seed[0]), int(seed[1]))
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SpaceTimeWindow:
    """Bounded simulation window [0,T] x [-R,R].  T and R are stored as
    floats, so an integer window pads and compares as its float one."""

    T: float
    R: float

    def __post_init__(self):
        # frozen: set the floats through object.__setattr__
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "R", float(self.R))
        if not (self.T > 0 and math.isfinite(self.T)):
            raise NoiseError(f"horizon T must be finite positive, got {self.T}")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise NoiseError(f"half-width R must be finite positive, got {self.R}")

    @property
    def volume(self) -> float:
        return 2.0 * self.R * self.T


@dataclass(frozen=True)
class LevyMeasure:
    """A jump-size measure nu with finite total mass and cached moments.

    total_mass    nu(R \\ {0}), the expected atom count per unit volume
    second_moment int z^2 nu(dz)  (written v below)
    first_moment  int z  nu(dz)   (the compensator density; 0 for symmetric kinds)

    Moments are exact sums for atomic kinds and closed forms for density
    kinds; symmetric density parameterizations set first_moment to exactly
    0.0 so that downstream code can branch on `first_moment == 0`.
    """

    kind: str
    params: tuple
    total_mass: float
    second_moment: float
    first_moment: float

    def __post_init__(self):
        v, m1, mass = self.second_moment, self.first_moment, self.total_mass
        for label, val in (("total_mass", mass), ("second_moment", v),
                           ("first_moment", m1)):
            if not math.isfinite(val):
                raise NoiseError(f"{label} is not finite: {val}")
        if mass < 0 or v < 0:
            raise NoiseError("total_mass and second_moment must be nonnegative")
        if mass > 0 and v == 0:
            raise NoiseError("second_moment can vanish only for the zero measure")
        # Cauchy-Schwarz: (int z nu)^2 <= (int z^2 nu) * nu(R0)
        if m1 * m1 > v * mass * (1.0 + 1e-9) + 1e-300:
            raise NoiseError("moments violate Cauchy-Schwarz; inconsistent measure")

    def describe(self) -> dict:
        return {"kind": self.kind, "params": list(self.params),
                "total_mass": self.total_mass,
                "second_moment": self.second_moment,
                "first_moment": self.first_moment}


def moments(measure: LevyMeasure) -> tuple[float, float, float]:
    """(second moment, first moment, total mass) of the jump measure."""
    return measure.second_moment, measure.first_moment, measure.total_mass


def two_point_measure(jump: float, mass: float = 1.0) -> LevyMeasure:
    """Symmetric two-point measure mass*(delta_{+jump} + delta_{-jump})/2."""
    if jump <= 0 or not math.isfinite(jump):
        raise NoiseError(f"jump size must be finite positive, got {jump}")
    if mass < 0 or not math.isfinite(mass):
        raise NoiseError(f"mass must be finite nonnegative, got {mass}")
    return LevyMeasure("two_point", (jump, mass),
                       total_mass=mass,
                       second_moment=mass * jump * jump,
                       first_moment=0.0)


def rademacher() -> LevyMeasure:
    """Unit-rate +-1 jumps: nu = (delta_1 + delta_{-1})/2."""
    return two_point_measure(1.0, 1.0)


def discrete_measure(jumps, weights) -> LevyMeasure:
    """Finite atomic measure sum_k weights[k] * delta_{jumps[k]}."""
    jumps = np.asarray(jumps, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if jumps.shape != weights.shape or jumps.ndim != 1 or jumps.size == 0:
        raise NoiseError("jumps and weights must be matching 1d arrays")
    if np.any(jumps == 0.0) or not np.all(np.isfinite(jumps)):
        raise NoiseError("jump sizes must be finite and nonzero")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise NoiseError("weights must be finite and positive")
    if np.unique(jumps).size != jumps.size:
        raise NoiseError("jump sizes must be distinct")
    mass = float(np.sum(weights))
    return LevyMeasure("discrete", (tuple(jumps), tuple(weights)),
                       total_mass=mass,
                       second_moment=float(np.sum(weights * jumps ** 2)),
                       first_moment=float(np.sum(weights * jumps)))


def gaussian_measure(intensity: float, mean: float = 0.0,
                     std: float = 1.0) -> LevyMeasure:
    """Density intensity * N(mean, std^2); moments in closed form:
    mass = intensity, v = intensity (std^2 + mean^2), m1 = intensity mean."""
    if intensity < 0 or not math.isfinite(intensity):
        raise NoiseError(f"intensity must be finite nonnegative, got {intensity}")
    if std <= 0 or not math.isfinite(std):
        raise NoiseError(f"std must be finite positive, got {std}")
    return LevyMeasure("gaussian", (intensity, mean, std), intensity,
                       intensity * (std * std + mean * mean),
                       intensity * mean)


def truncated_power_law_measure(exponent: float, cutoff: float, z_max: float,
                                scale: float = 1.0) -> LevyMeasure:
    """Symmetric density scale * |z|^(-1-exponent) on cutoff <= |z| <= z_max.

    The small-jump truncation at `cutoff` is what keeps the activity finite;
    exponent > 0 and 0 < cutoff < z_max < inf are required.  The moments
    are the power integrals int_c^M z^(p-1) dz = c^p expm1(p log(M/c)) / p
    (log(M/c) at p = 0, which v meets at exponent 2), written with expm1
    so that they stay accurate as p -> 0.
    """
    if exponent <= 0 or not math.isfinite(exponent):
        raise NoiseError(f"exponent must be positive, got {exponent}")
    if not (0 < cutoff < z_max) or not math.isfinite(z_max):
        raise NoiseError("need 0 < cutoff < z_max < inf for a finite measure")
    if scale <= 0 or not math.isfinite(scale):
        raise NoiseError(f"scale must be finite positive, got {scale}")
    log_ratio = math.log(z_max / cutoff)

    def power_integral(p):
        if p == 0.0:
            return log_ratio
        try:
            return cutoff ** p * math.expm1(p * log_ratio) / p
        except OverflowError:
            return math.inf  # LevyMeasure refuses it

    mass = 2.0 * scale * power_integral(-exponent)
    v = 2.0 * scale * power_integral(2.0 - exponent)
    return LevyMeasure("power_law", (exponent, cutoff, z_max, scale),
                       mass, v, 0.0)


def atomic_decomposition(measure: LevyMeasure, n_quad: int = 64):
    """(jumps, weights) with sum_k w_k f(z_k) ~= int f dnu.

    Exact for atomic kinds.  Density kinds are reduced to Gauss-Legendre
    nodes/weights on their support (n_quad points per sign).
    """
    if measure.kind == "two_point":
        jump, mass = measure.params
        return (np.array([jump, -jump]), np.array([mass / 2.0, mass / 2.0]))
    if measure.kind == "discrete":
        jumps, weights = measure.params
        return np.asarray(jumps, dtype=float), np.asarray(weights, dtype=float)
    if measure.kind == "gaussian":
        intensity, mean, std = measure.params
        nodes, w = np.polynomial.legendre.leggauss(2 * n_quad)
        lo, hi = mean - 10.0 * std, mean + 10.0 * std
        z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        dens = intensity * np.exp(-0.5 * ((z - mean) / std) ** 2) \
            / (std * math.sqrt(2.0 * math.pi))
        return z, 0.5 * (hi - lo) * w * dens
    if measure.kind == "power_law":
        exponent, cutoff, z_max, scale = measure.params
        nodes, w = np.polynomial.legendre.leggauss(n_quad)
        z = 0.5 * (z_max - cutoff) * nodes + 0.5 * (z_max + cutoff)
        dens = scale * z ** (-1.0 - exponent)
        zq = np.concatenate([z, -z])
        wq = np.concatenate([0.5 * (z_max - cutoff) * w * dens] * 2)
        return zq, wq
    raise NoiseError(f"unknown measure kind {measure.kind!r}")


def _check_atoms(window: SpaceTimeWindow, t, x, z, steps):
    """Refuse atoms (t, x, z) outside the window or with a zero or
    non-finite jump, and steps of a path's time not > 0; NaN fails each."""
    if not ((steps > 0.0).all() and ((0.0 < t) & (t < window.T)).all()):
        raise NoiseError("atom times must be strictly increasing inside "
                         "(0, T)")
    if not (np.abs(x) <= window.R).all():
        raise NoiseError("atom positions must lie in [-R, R]")
    if not (np.isfinite(z) & (z != 0.0)).all():
        raise NoiseError("jump marks must be finite and nonzero")


# uniforms per jump of the kinds whose jumps are a function of uniforms; a
# batch draws them with the atoms' times and positions in one call per path
_UNIFORMS_PER_JUMP = {"two_point": 1, "power_law": 2}


def _jumps_from_uniforms(measure: LevyMeasure, u):
    """Jumps of a two_point or power_law measure from u, one row per uniform
    a jump uses (row q holds uniform q of every jump)."""
    if measure.kind == "two_point":
        jump, _ = measure.params
        return jump * (2.0 * (u[0] < 0.5) - 1.0)
    exponent, cutoff, z_max, _ = measure.params
    a = exponent
    mag = (cutoff ** -a - u[0] * (cutoff ** -a - z_max ** -a)) ** (-1.0 / a)
    sign = 2.0 * (u[1] < 0.5) - 1.0
    return sign * mag


def _draw_jumps(measure: LevyMeasure, rng: np.random.Generator, n: int):
    if measure.kind in _UNIFORMS_PER_JUMP:
        return _jumps_from_uniforms(
            measure, rng.random((_UNIFORMS_PER_JUMP[measure.kind], n)))
    if measure.kind == "discrete":
        jumps, weights = measure.params
        p = np.asarray(weights) / measure.total_mass
        return rng.choice(np.asarray(jumps), size=n, p=p)
    if measure.kind == "gaussian":
        _, mean, std = measure.params
        z = mean + std * rng.standard_normal(n)
        while np.any(z == 0.0):  # measure lives on R \ {0}
            bad = z == 0.0
            z[bad] = mean + std * rng.standard_normal(int(bad.sum()))
        return z
    raise NoiseError(f"unknown measure kind {measure.kind!r}")


def sample_prm(measure: LevyMeasure, window: SpaceTimeWindow,
               seed) -> PointBatch:
    """Sample one Poisson random measure realization on the window, as a
    (K,) row.

    Atom count ~ Poisson(total_mass * |window|); times and positions uniform;
    jump sizes i.i.d. from the normalized measure.  Deterministic given
    `seed` (an int, or a (master, index) pair for a derived stream).
    Ties and boundary times have probability zero but are re-drawn anyway so
    the strict-ordering invariant holds exactly.  The row's seed label
    (PointBatch.seed) holds an integer seed's entries as plain ints (numpy's
    too, so save_configuration can write them), any other seed as None.
    """
    if isinstance(seed, tuple) and len(seed) == 2:
        label = tuple(operator.index(v) for v in seed)
    elif isinstance(seed, (int, np.integer)):
        label = (operator.index(seed), None)
    else:
        label = (None, None)
    rng = _as_rng(seed)
    n = int(rng.poisson(measure.total_mass * window.volume))
    times = rng.uniform(0.0, window.T, size=n)
    for _ in range(64):
        bad = (times <= 0.0) | (times >= window.T)
        uniq, counts = np.unique(times, return_counts=True)
        if not bad.any() and (counts <= 1).all():
            break
        dup_vals = uniq[counts > 1]
        redraw = bad | np.isin(times, dup_vals)
        times[redraw] = rng.uniform(0.0, window.T, size=int(redraw.sum()))
    positions = rng.uniform(-window.R, window.R, size=n)
    jumps = _draw_jumps(measure, rng, n)
    order = np.argsort(times, kind="stable")
    return PointBatch(times[order], positions[order], jumps[order], n,
                      window, measure, *label)


# Paths per batch in every ensemble.  Rows are padded to the longest path,
# K atoms, and the diagnostics hold (paths, K, K) interaction and
# (paths, 64, K) added-point arrays: at 256 paths of about 20 atoms (K about
# 35) derivative_bound_estimate peaks at about 31 MB of arrays.  No result
# depends on this size beyond the rounding of the ensemble sums.
BATCH_PATHS = 256


@dataclass(frozen=True)
class PointBatch:
    """Noise realizations as rows of atoms: one path's (K,) row, or a
    batch's (n_paths, K) rows.

    Row j holds path j's counts[j] atoms in time order, times pairwise
    distinct inside (0, T), jumps finite and nonzero; a batch's row then
    holds padding atoms at time T, position 0, with jump 0, K the longest
    path's count.  No atom or grid time of the window comes after a
    padding atom, so it is never a source, and its zero jump adds nothing
    to any sum.  counts has the rows' leading shape (0-d for one path,
    which holds no padding); mask is true at the atoms; measure is the
    generating jump measure, whose compensator density solvers read.
    Arrays are read-only.

    Row j is labelled seed(j): (master_seed, start + j), the stream
    derive_rng(master_seed, start + j) drew it from, or, with start None,
    master_seed, the int seed of one path drawn from default_rng (None for
    any other source).  sample_batch's row j is sample_prm(measure, window,
    (master_seed, start + j)) atom for atom.
    """

    times: np.ndarray
    positions: np.ndarray
    jumps: np.ndarray
    counts: np.ndarray
    window: SpaceTimeWindow
    measure: LevyMeasure
    master_seed: int | None = None
    start: int | None = None
    mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t, x, z = (np.asarray(getattr(self, name), dtype=float)
                   for name in ("times", "positions", "jumps"))
        counts = np.asarray(self.counts)
        shape = t.shape
        if len(shape) not in (1, 2) or counts.shape != shape[:-1] \
                or x.shape != shape or z.shape != shape \
                or (counts < 0).any() or shape[-1] != counts.max(initial=0):
            raise NoiseError("batch counts do not match its atom arrays")
        mask = np.arange(shape[-1]) < counts[..., None]
        _check_atoms(self.window, t[mask], x[mask], z[mask],
                     np.diff(t)[mask[..., 1:]])
        pad = ~mask
        if pad.any() and ((t[pad] != self.window.T).any()
                          or (x[pad] != 0.0).any() or (z[pad] != 0.0).any()):
            raise NoiseError("batch row j must hold counts[j] atoms, then "
                             "padding atoms (T, 0, 0)")
        for name, arr in (("times", t), ("positions", x), ("jumps", z),
                          ("counts", counts), ("mask", mask)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_paths(self) -> int:
        return int(self.counts.size)

    @property
    def n_atoms(self) -> int:
        return int(self.counts.sum())

    def seed(self, j: int = 0):
        """The seed label of row j, 0 <= j < n_paths (NoiseError else)."""
        j = operator.index(j)
        if not 0 <= j < self.n_paths:
            raise NoiseError(f"row {j} is not one of the {self.n_paths} rows")
        if self.start is None:
            return self.master_seed
        return (self.master_seed, self.start + j)

    def path(self, j: int) -> PointBatch:
        """Row j as one path's (counts[j],) row, labelled seed(j)."""
        seed = self.seed(j)
        if self.times.ndim == 1:
            return self
        k = self.counts[j]
        return PointBatch(self.times[j, :k], self.positions[j, :k],
                          self.jumps[j, :k], k, self.window, self.measure,
                          self.master_seed,
                          None if self.start is None else seed[1])


def sample_batch(measure: LevyMeasure, window: SpaceTimeWindow,
                 master_seed: int, start: int, n: int) -> PointBatch:
    """The realizations (master_seed, start + j), j < n, as one PointBatch.

    Each path draws from its own stream in sample_prm's order: the atom
    count, the times, the positions, the jumps.  The streams are derive_rng's,
    seeded from one stream_states pass over the batch.  The atoms are drawn
    concatenated, path after path, and padded into rows; each row is then
    ordered by a stable argsort of its times (the padding, at T, sorts
    last) and sample_prm's checks run over the sorted rows.  A path that
    fails them (a tie or a boundary time, probability zero) is drawn again
    by sample_prm itself, whose re-draws consume its stream before the
    positions, into its own row.  master_seed and start are kept as plain
    ints, the labels of the batch's paths.
    """
    master_seed, start = operator.index(master_seed), operator.index(start)
    lam = measure.total_mass * window.volume
    per_jump = _UNIFORMS_PER_JUMP.get(measure.kind, 0)
    counts, uniforms, drawn_jumps = [], [np.empty(0)], [np.empty(0)]
    for rng in _batch_streams(master_seed, start, n):
        counts.append(int(rng.poisson(lam)))
        uniforms.append(rng.random((2 + per_jump) * counts[-1]))
        if not per_jump:
            drawn_jumps.append(_draw_jumps(measure, rng, counts[-1]))
    counts = np.array(counts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    u = np.concatenate(uniforms)
    # atom r of path j: time uniform at (2 + per_jump) * offsets[j] + r,
    # position uniform counts[j] later, jump uniform q (2 + q) * counts[j]
    # later
    path = np.repeat(np.arange(n), counts)
    cnt = counts[path]
    base = (1 + per_jump) * offsets[path] + np.arange(offsets[-1])
    # rng.uniform(low, high) is low + (high - low) * random(), bit for bit
    times = window.T * u[base]
    positions = -window.R + (2.0 * window.R) * u[base + cnt]
    if per_jump:
        jumps = _jumps_from_uniforms(measure, [
            u[base + (2 + q) * cnt] for q in range(per_jump)])
    else:
        jumps = np.concatenate(drawn_jumps)

    mask = np.arange(counts.max(initial=0)) < counts[:, None]
    rows = []
    for values, fill in ((times, window.T), (positions, 0.0), (jumps, 0.0)):
        row = np.full(mask.shape, fill)
        row[mask] = values
        rows.append(row)
    order = np.argsort(rows[0], axis=1, kind="stable")
    rows = [np.take_along_axis(a, order, axis=1) for a in rows]
    times = rows[0]
    bad = np.any(mask & ((times <= 0.0) | (times >= window.T)), axis=1)
    bad |= np.any(mask[:, 1:] & (times[:, 1:] == times[:, :-1]), axis=1)
    for j in np.flatnonzero(bad):
        cfg = sample_prm(measure, window, (master_seed, start + int(j)))
        for row, values in zip(rows, (cfg.times, cfg.positions, cfg.jumps)):
            row[j, :counts[j]] = values
    return PointBatch(*rows, counts, window, measure, master_seed, start)


def sample_batches(measure: LevyMeasure, window: SpaceTimeWindow,
                   master_seed: int, n: int):
    """sample_batch over the realizations 0 .. n - 1, BATCH_PATHS at a
    time.  n < 1 is refused: an ensemble of no realization compares
    nothing (sample_batch itself takes n = 0)."""
    if n < 1:
        raise NoiseError("an ensemble needs at least one realization, "
                         f"got {n}")
    for start in range(0, n, BATCH_PATHS):
        yield sample_batch(measure, window, master_seed, start,
                           min(BATCH_PATHS, n - start))


def add_atoms(batch: PointBatch, times, positions, jumps) -> PointBatch:
    """The rows with the atom (times[j], positions[j], jumps[j]) added to
    row j at its time rank, the atom arrays in the rows' leading shape (one
    atom, scalars, for one path's (K,) row): a stable sort of each row,
    after which the padding (time T) stays last.  The new rows' checks
    refuse a time outside (0, T) or equal to an atom's (the caller
    perturbs), a position outside [-R, R] and a zero or non-finite jump."""
    t, x, z = (np.asarray(v, dtype=float) for v in (times, positions, jumps))
    if not t.shape == x.shape == z.shape == batch.counts.shape:
        raise NoiseError("add_atoms takes one atom for each row of the batch")
    rows = [np.concatenate([a, v[..., None]], axis=-1) for a, v in
            ((batch.times, t), (batch.positions, x), (batch.jumps, z))]
    order = np.argsort(rows[0], axis=-1, kind="stable")
    return PointBatch(*(np.take_along_axis(a, order, axis=-1) for a in rows),
                      batch.counts + 1, batch.window, batch.measure,
                      batch.master_seed, batch.start)


def save_configuration(config: PointBatch, path) -> Path:
    """Write one path's (K,) row of atoms as CSV (t,x,z; 17 significant
    digits) plus a JSON sidecar with the window, measure, and seed label."""
    if config.times.ndim != 1:
        raise NoiseError("save_configuration writes one path's (K,) row; "
                         "take batch.path(j)")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,z\n")
        for t, x, z in zip(config.times, config.positions, config.jumps):
            fh.write(f"{t:.17g},{x:.17g},{z:.17g}\n")
    seed = config.seed()
    meta = {"window": {"T": config.window.T, "R": config.window.R},
            "measure": config.measure.describe(),
            "seed": list(seed) if isinstance(seed, tuple) else seed}
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=1) + "\n")
    return sidecar


def _measure_from_description(desc: dict) -> LevyMeasure:
    kind, params = desc["kind"], desc["params"]
    if kind == "two_point":
        return two_point_measure(*params)
    if kind == "discrete":
        return discrete_measure(*params)
    if kind == "gaussian":
        return gaussian_measure(*params)
    if kind == "power_law":
        return truncated_power_law_measure(*params)
    raise NoiseError(f"unknown measure kind {kind!r}")


def load_configuration(path) -> PointBatch:
    """The (K,) row that save_configuration wrote to path, with its seed
    label."""
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:] if line]
    data = np.array([[float(c) for c in row] for row in rows],
                    dtype=float).reshape(-1, 3)
    window = SpaceTimeWindow(**meta["window"])
    measure = _measure_from_description(meta["measure"])
    seed = meta.get("seed")
    return PointBatch(data[:, 0], data[:, 1], data[:, 2], len(data), window,
                      measure, *(seed if isinstance(seed, list)
                                 else (seed, None)))
