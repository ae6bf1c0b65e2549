"""Run configuration and seeded ensemble execution.

One RunConfig holds everything a verification run needs: the problem, the
jump measure, ensemble sizes and the master seed.  Gate thresholds are
constants of the checks, not configuration.  Config files are
flat key=value text ('#' starts a comment); unknown keys are rejected so
typos fail loudly.  Ensembles derive a per-index seed (master, index) and
run on batches of realizations (noise.sample_batch), so realization i is the
same whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .kernels import heat_kernel, wave_kernel
from .noise import (LevyMeasure, SpaceTimeWindow, gaussian_measure,
                    sample_batches, two_point_measure)
from .solver import (ProblemSpec, SolverError, evaluate_batch, named_map,
                     solve_batch)


class ConfigError(ValueError):
    pass


class EnsembleError(RuntimeError):
    """A realization failed; carries the index and derived seed."""

    def __init__(self, index: int, seed, cause: BaseException):
        super().__init__(
            f"realization {index} (seed {seed}) failed: {cause!r}")
        self.index = index
        self.seed = seed
        self.cause = cause


_NOISE_KINDS = ("two_point", "gaussian")
_KERNEL_KINDS = ("wave", "heat")


@dataclass(frozen=True)
class RunConfig:
    """Desk-scale defaults: unit horizon, R = 2, jump rate 5, 64x64 grid,
    10^4 samples for statistical checks and 10^2 for solver diagnostics."""

    kernel: str = "wave"
    sigma: str = "affine"
    sigma_a: float = 0.5
    sigma_b: float = 1.0
    ic: str = "cosine"
    ic_value: float = 1.0
    T: float = 1.0
    R: float = 2.0
    noise: str = "two_point"
    jump: float = 1.0
    mass: float = 5.0
    noise_mean: float = 0.0
    noise_std: float = 1.0
    n_t: int = 64
    n_x: int = 64
    n_samples: int = 10_000
    n_diagnostic: int = 100
    n_iter: int = 8
    seed: int = 0
    outdir: str = "."

    def __new__(cls, *args, **kwargs):
        # a removed or misspelt field is a configuration error, as an
        # unknown key of a config file is
        unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return super().__new__(cls)

    def __post_init__(self):
        if self.kernel not in _KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.noise not in _NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.noise!r}")
        if self.n_samples < 1 or self.n_diagnostic < 1:
            raise ConfigError("ensemble sizes must be at least 1")
        if self.n_iter < 0:
            raise ConfigError("n_iter must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (self.T > 0.0 and self.R > 0.0):
            raise ConfigError("window must have positive extent")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Flat key=value file -> raw string dict. Unknown keys are errors."""
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _coerce(name: str, value):
    if not isinstance(value, str):
        return value
    kind = _FIELD_TYPES.get(name)  # an unknown name fails in RunConfig
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"config key {name!r}: {exc}") from exc
    return value


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Defaults < config file < overrides (CLI flags / env), None skipped."""
    data = {}
    for source in (file_values, overrides):
        if source:
            data.update({k: v for k, v in source.items() if v is not None})
    return RunConfig(**{k: _coerce(k, v) for k, v in data.items()})


def build_window(config: RunConfig) -> SpaceTimeWindow:
    return SpaceTimeWindow(config.T, config.R)


def build_measure(config: RunConfig) -> LevyMeasure:
    if config.noise == "two_point":
        return two_point_measure(config.jump, config.mass)
    return gaussian_measure(config.mass, config.noise_mean, config.noise_std)


def build_problem(config: RunConfig) -> ProblemSpec:
    kernel = wave_kernel() if config.kernel == "wave" else heat_kernel()
    sigma = named_map(config.sigma, config.sigma_a, config.sigma_b)
    return ProblemSpec(kernel=kernel, sigma=sigma, ic_kind=config.ic,
                       window=build_window(config), ic_value=config.ic_value,
                       n_t=config.n_t, n_x=config.n_x)


def solution_squares(problem: ProblemSpec, measure: LevyMeasure, points,
                     n: int, seed: int) -> np.ndarray:
    """u(t, x)^2 at each of the points for the realizations (seed, i),
    i < n, by exact forward solves: an (n, len(points)) array.

    Runs on batches of noise.BATCH_PATHS realizations.  A realization with
    a non-finite value aborts the run with its index and seed attached.
    """
    if n < 1:
        raise ConfigError("ensemble size must be at least 1")
    out = np.empty((n, len(points)))
    for batch in sample_batches(measure, problem.window, seed, n):
        u = solve_batch(batch, problem)
        vals = np.stack([evaluate_batch(batch, problem, u, t, x)
                         for t, x in points], axis=1)
        bad = ~np.isfinite(vals).all(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            t, x = points[int(np.argmax(~np.isfinite(vals[j])))]
            raise EnsembleError(batch.start + j, batch.seed(j), SolverError(
                f"u({t:g},{x:g}) is not finite"))
        out[batch.start:batch.start + batch.n_paths] = vals ** 2
    return out
