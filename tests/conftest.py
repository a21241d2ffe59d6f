"""Shared fixtures (standard scenario builders used across the test modules)
and left_to_right, the reference sum that the bitwise tests import."""

import numpy as np
import pytest
from hypothesis import settings

from copesim.costs import LINEAR, linear_cost, quadratic_cost
from copesim.model import CostTypeDistribution, GaussianPrior, Scenario

# property tests here do real numerics; the default deadline is too twitchy
settings.register_profile("numeric", deadline=None, max_examples=50)
settings.load_profile("numeric")


@pytest.fixture
def prior01():
    return GaussianPrior(0.0, 1.0)


@pytest.fixture
def uniform01():
    return CostTypeDistribution.uniform(0.0, 1.0)


@pytest.fixture
def make_scenario(prior01, uniform01):
    def build(cost_kind: str, n_agents: int, var0: float = 1.0) -> Scenario:
        prior = prior01 if var0 == 1.0 else GaussianPrior(0.0, var0)
        model = linear_cost() if cost_kind == LINEAR else quadratic_cost()
        return Scenario(prior=prior, type_dist=uniform01, n_agents=n_agents,
                        cost_model=model)
    return build


def left_to_right(a):
    """Sums over the last axis adding the terms in index order from 0.0,
    computed independently of mechanism.row_sums: np.add.accumulate runs
    the same adds from the first term, and adding 0.0 afterwards gives the
    +0.0 that a start from 0.0 gives an all-zero sum."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])[()]
    return (np.add.accumulate(a, axis=-1)[..., -1] + 0.0)[()]
