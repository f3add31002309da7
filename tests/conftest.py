import os

import numpy as np
import pytest
from hypothesis import settings

from anosovlab.geometry import (ConformalTorus, ConstantCurvature,
                                FuchsianOctagon)

TWO_PI = 2.0 * np.pi

# HYPOTHESIS_PROFILE=ci draws the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def octagon():
    return FuchsianOctagon()


@pytest.fixture(scope="session")
def flat_torus():
    return ConformalTorus.from_expression("0", TWO_PI, TWO_PI, 32, 32)


@pytest.fixture(scope="session")
def curved_torus():
    return ConformalTorus.from_expression("0.1*cos(x)*sin(y)",
                                          TWO_PI, TWO_PI, 64, 64)


@pytest.fixture(scope="session")
def sphere():
    return ConstantCurvature(1.0)


@pytest.fixture(scope="session")
def hyperbolic():
    return ConstantCurvature(-1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
