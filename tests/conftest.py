import numpy as np
import pytest
from hypothesis import settings

import optoepr as oe

TWO_PI = 2.0 * np.pi

# a long run of the property tests, loaded by --hypothesis-profile fuzz; the default
# profile is unchanged
settings.register_profile("fuzz", max_examples=20000)


@pytest.fixture(scope="session")
def paper_params():
    return oe.paper_default_config().params


@pytest.fixture(scope="session")
def paper_derived(paper_params):
    return oe.solve_steady_state(paper_params)


@pytest.fixture(scope="session")
def optimum_params(paper_params, paper_derived):
    """Paper parameters retuned to the closed-form optimum d."""
    return oe.retuned_d(paper_params, oe.optimum_d(paper_derived).d_o)


@pytest.fixture(scope="session")
def optimum_derived(optimum_params):
    return oe.solve_steady_state(optimum_params)


@pytest.fixture(scope="session")
def omega_grid(paper_params):
    return oe.default_omega_grid(paper_params.gamma)
