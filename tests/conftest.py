import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import magprop as mp

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")

# (t, k) domain table shared by the structured-against-dense checks: a test
# that takes the ``domain_tk`` argument runs once per row. It holds k = 0 and
# a tiny k, k < 0, |cos kt| = 1e-3 and 1e-5 on both sides of the first
# caustic kt = pi/2, kt past the second caustic 3 pi/2, and kt = 300.
DOMAIN_TK = {
    "k_zero": (1.0, 0.0),
    "k_1e-6": (1.0, 1e-6),
    "k_negative": (0.7, -2.5),
    "cos_+1e-3": (math.acos(1e-3), 1.0),
    "cos_-1e-3": (math.acos(-1e-3), 1.0),
    "cos_+1e-5": (math.acos(1e-5), 1.0),
    "cos_-1e-5": (math.acos(-1e-5), 1.0),
    "past_3pi/2": (5.0, 1.0),
    "kt_300": (1.5, 200.0),
}


def pytest_generate_tests(metafunc):
    if "domain_tk" in metafunc.fixturenames:
        metafunc.parametrize("domain_tk", list(DOMAIN_TK.values()), ids=list(DOMAIN_TK))


@pytest.fixture(scope="session")
def unit_grid():
    return mp.make_grid(1.0, 256)


@pytest.fixture(scope="session")
def cp_unit(unit_grid):
    """Charged-particle operators at t = 1, k = 1 on the session grid."""
    return mp.build_cp_operators(unit_grid, 1.0)


@pytest.fixture(scope="session")
def pins_unit(unit_grid):
    n = unit_grid.n
    ones, zeros = np.ones(n), np.zeros(n)
    eta1 = mp.GridFunction.stack(unit_grid, [ones, zeros, zeros, zeros])
    eta3 = mp.GridFunction.stack(unit_grid, [zeros, zeros, ones, zeros])
    return eta1, eta3
