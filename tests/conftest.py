import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import levyfield as lf

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def window():
    return lf.SpaceTimeWindow(1.0, 2.0)


@pytest.fixture(scope="session")
def unit_noise():
    # +-1 jumps at unit rate: v = 1, m1 = 0
    return lf.rademacher()


@pytest.fixture(scope="session")
def busy_noise():
    # +-1 jumps at rate 5: about 20 atoms per default window draw
    return lf.two_point_measure(1.0, 5.0)


@pytest.fixture(scope="session")
def wave_problem(window):
    return lf.ProblemSpec(kernel=lf.wave_kernel(), sigma=lf.named_map("affine"),
                          ic_kind="cosine", window=window)


@pytest.fixture(scope="session")
def heat_problem(window):
    return lf.ProblemSpec(kernel=lf.heat_kernel(), sigma=lf.named_map("affine"),
                          ic_kind="cosine", window=window)


def make_empty_config(window):
    return lf.sample_prm(lf.two_point_measure(1.0, 0.0), window, 0)


@pytest.fixture()
def empty_config(window):
    return make_empty_config(window)


def assert_close(got, want, rel=0.0, abs_=0.0, label=""):
    got, want = float(got), float(want)
    tol = abs_ + rel * abs(want)
    assert abs(got - want) <= tol, \
        f"{label}: got {got!r}, want {want!r} (tol {tol:g})"


def child_env():
    """The environment for a child process that imports the same levyfield
    as the tests, whatever the working directory and whatever else is
    installed."""
    src = str(Path(lf.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
