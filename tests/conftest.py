import os

import numpy as np
import pytest
from hypothesis import settings

from laxhopf import OuterGrid, SolverConfig

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# failure seen in CI reproduces locally with the same setting.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def fast_cfg():
    """Small but accurate solver settings for unit tests."""
    return SolverConfig(n_steps=16, multi_starts=2, max_iter=120, seed=0)


@pytest.fixture
def scalar_grid():
    """Outer grid for 1-D scenarios on T = 1 with upsilon in [-2, 2]."""
    return OuterGrid.build(omega_max=1.0, n_omega=8, upsilon_box=[[-2, 2]], n_upsilon=21)


def constant_start(upsilon, n):
    return np.tile(np.atleast_1d(upsilon), (n, 1))
