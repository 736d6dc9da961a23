import numpy as np
import pytest
from hypothesis import settings

from almgren_lab import WeightParams, hemisphere_eigs

# One profile for every property test: no deadline (a first call may build
# rules or solve a profile), no example database, and a failing example
# printed with the blob that reproduces it (@reproduce_failure).  Each test's
# @settings sets only its own max_examples.
settings.register_profile("almgren-lab", deadline=None, database=None, print_blob=True)
settings.load_profile("almgren-lab")


@pytest.fixture(scope="session")
def params_n1():
    return WeightParams(s=1.5, N=1)          # b = 0


@pytest.fixture(scope="session")
def params_n3():
    return WeightParams(s=1.25, N=3)         # b = 0.5, regime holds


@pytest.fixture(scope="session")
def params_n4():
    return WeightParams.from_b(-0.5, 4)      # s = 1.75, regime holds


@pytest.fixture(scope="session")
def modes_n1(params_n1):
    return hemisphere_eigs(params_n1, per_k=6, resolution=256, refinements=2)


@pytest.fixture(scope="session")
def modes_n3(params_n3):
    return hemisphere_eigs(params_n3, k_max=3, per_k=4, resolution=256, refinements=2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
