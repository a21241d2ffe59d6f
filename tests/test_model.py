"""World model: prior, type distribution, posterior update, and the seeded
draws and observations the engine makes from it."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copesim import engine, rng
from copesim.costs import linear_cost
from copesim.model import (CostTypeDistribution, GaussianPrior, Scenario,
                           TYPE_CLAMP, posterior_mean_var,
                           principal_bayes_risk, agent_bayes_risk,
                           agent_bayes_risk_deriv)


def _cdf_atom_at_lo(t):
    # half the mass sits at theta_lo = 0: ppf(u) = 0 for every u <= 1/2
    return np.where(np.asarray(t, dtype=float) > 0.0,
                    0.5 + 0.5 * np.asarray(t, dtype=float), 0.0)


def _pdf_atom_at_lo(t):
    return np.full_like(np.asarray(t, dtype=float), 0.5)


# -- posterior: hand-evaluated conjugate updates ------------------------------

def test_posterior_no_reports_returns_prior():
    mean, var = posterior_mean_var(GaussianPrior(0.0, 1.0), [])
    assert mean == 0.0 and var == 1.0


def test_posterior_single_unit_report():
    # (0*1 + 2*1)/(1 + 1) = 1, variance 1/2
    mean, var = posterior_mean_var(GaussianPrior(0.0, 1.0), [(2.0, 1.0)])
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(0.5)


def test_posterior_informative_prior():
    # (1*0.5 + 1*5)/(0.5 + 5) = 1, variance 1/5.5
    mean, var = posterior_mean_var(GaussianPrior(1.0, 2.0), [(1.0, 5.0)])
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(1.0 / 5.5)


def test_posterior_ignores_zero_effort_reports():
    base = posterior_mean_var(GaussianPrior(0.0, 1.0), [(2.0, 1.0)])
    padded = posterior_mean_var(GaussianPrior(0.0, 1.0),
                                [(99.0, 0.0), (2.0, 1.0), (-5.0, 0.0)])
    assert padded == base


def test_posterior_rejects_negative_effort():
    with pytest.raises(ValueError):
        posterior_mean_var(GaussianPrior(0.0, 1.0), [(1.0, -0.5)])


@given(mu0=st.floats(-5, 5), var0=st.floats(0.1, 10),
       reports=st.lists(st.tuples(st.floats(-10, 10), st.floats(0, 10)),
                        max_size=6))
def test_posterior_precision_adds_and_mean_interpolates(mu0, var0, reports):
    mean, var = posterior_mean_var(GaussianPrior(mu0, var0), reports)
    assert 1.0 / var == pytest.approx(
        1.0 / var0 + sum(q for _, q in reports), rel=1e-12)
    anchors = [mu0] + [y for y, q in reports if q > 0]
    assert min(anchors) - 1e-9 <= mean <= max(anchors) + 1e-9


# -- seeded draws and observations, through the engine that owns them --------

def test_zero_effort_yields_sentinel():
    # under linear cost only the winner works: every other agent observes
    # nothing (NaN) and reports the prior mean
    scen = Scenario(prior=GaussianPrior(0.7, 2.0),
                    type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                    n_agents=4, cost_model=linear_cost())
    rec = engine.run_trial(scen, engine.COPE_LINEAR, engine.TRUTHFUL, seed=1)
    idle = rec.efforts == 0.0
    assert idle.sum() >= 3
    assert np.all(np.isnan(rec.observations[idle]))
    assert np.all(rec.reports[idle] == 0.7)
    assert np.all(np.isfinite(rec.observations[~idle]))


def test_huge_effort_pins_observation_to_state():
    x = np.array([0.3])
    noise = rng.normals(7, 1, rng.NOISE, 1).reshape(1, 1)
    obs, est = engine._observe(x, np.array([[1e12]]), noise,
                               GaussianPrior(0.0, 1.0))
    assert abs(obs[0, 0] - 0.3) < 1e-5 and abs(est[0, 0] - 0.3) < 1e-5


def test_unit_effort_noise_variance():
    # y - x = eps/sqrt(1): the chunk's noise is the NOISE stream, read
    # positionally, and its sample variance over 1e5 draws sits near 1
    scen = Scenario(prior=GaussianPrior(0.0, 1.0),
                    type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                    n_agents=2, cost_model=linear_cost())
    settings = engine.EngineSettings()
    x, _, noise = engine._draw_chunk(scen, 42, 10, 50_010, settings)
    stream = rng.normals(42, 2, rng.NOISE, 100_000, offset=20)
    assert np.array_equal(noise.ravel(), stream)
    obs, _ = engine._observe(x, np.ones_like(noise), noise, scen.prior)
    assert np.allclose(obs - x[:, None], noise)
    assert abs(stream.var(ddof=1) - 1.0) < 0.02


def test_draw_world_is_deterministic_and_clamped():
    scen = Scenario(prior=GaussianPrior(0.0, 1.0),
                    type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                    n_agents=4, cost_model=linear_cost())

    def draw(seed, trial_index):
        rec = engine.run_trial(scen, engine.CENTRALIZED, engine.TRUTHFUL,
                               seed=seed, trial_index=trial_index)
        return rec.x, rec.types

    x1, t1 = draw(3, 5)
    x2, t2 = draw(3, 5)
    assert x1 == x2 and np.array_equal(t1, t2)
    assert np.all(t1 >= TYPE_CLAMP) and np.all(t1 <= 1.0)
    x3, _ = draw(4, 5)
    assert x3 != x1
    # a type distribution whose ppf reaches theta_lo is clamped just above it
    atom = CostTypeDistribution.custom(0.0, 1.0, cdf=_cdf_atom_at_lo,
                                       pdf=_pdf_atom_at_lo, validate=False)
    _, types, _ = engine._draw_chunk(
        Scenario(scen.prior, atom, 4, linear_cost()), 3, 0, 50,
        engine.EngineSettings())
    assert types.min() == TYPE_CLAMP and types.max() <= 1.0


# -- prior and type distribution ----------------------------------------------

def test_prior_requires_positive_variance():
    with pytest.raises(ValueError):
        GaussianPrior(0.0, 0.0)
    assert GaussianPrior(0.0, 4.0).precision == 0.25


def test_uniform_virtual_cost_is_two_theta_minus_lo():
    dist = CostTypeDistribution.uniform(0.2, 1.0)
    theta = np.array([0.3, 0.6, 1.0])
    assert np.allclose(dist.virtual_cost(theta), 2.0 * theta - 0.2)
    assert np.allclose(dist.inverse_hazard(theta), theta - 0.2)


def test_uniform_ppf_cdf_roundtrip():
    dist = CostTypeDistribution.uniform(0.0, 1.0)
    u = np.linspace(0, 1, 11)
    assert np.allclose(dist.cdf(dist.ppf(u)), u)


def test_custom_distribution_power_cdf_accepted():
    dist = CostTypeDistribution.custom(
        0.0, 1.0, cdf=lambda t: np.asarray(t) ** 2,
        pdf=lambda t: 2.0 * np.asarray(t))
    # bisection inverse: F(t) = t^2 so ppf(0.25) = 0.5
    assert float(dist.ppf(0.25)) == pytest.approx(0.5, abs=1e-9)
    assert float(dist.virtual_cost(0.5)) == pytest.approx(0.5 + 0.25, rel=1e-12)


def test_custom_distribution_rejects_log_convex_kink():
    # piecewise-linear cdf whose log-slope jumps up at 0.9: not log-concave
    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.9, 0.1 * t, 0.09 + (t - 0.9) * 9.1)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.9, 0.1, 9.1)

    with pytest.raises(ValueError):
        CostTypeDistribution.custom(0.0, 1.0, cdf=cdf, pdf=pdf)


# -- Bayes risks --------------------------------------------------------------

def test_bayes_risk_closed_forms():
    prior = GaussianPrior(0.0, 2.0)
    assert principal_bayes_risk(prior, [1.0, 0.5]) == pytest.approx(1.0 / 2.0)
    assert agent_bayes_risk(prior, 1.5) == pytest.approx(0.5)
    assert agent_bayes_risk_deriv(prior, 1.5) == pytest.approx(-0.25)


@given(var0=st.floats(0.1, 10), q=st.floats(0, 50))
def test_agent_risk_derivative_matches_finite_difference(var0, q):
    prior = GaussianPrior(0.0, var0)
    h = 1e-5
    fd = (agent_bayes_risk(prior, q + h) - agent_bayes_risk(prior, q)) / h
    assert float(agent_bayes_risk_deriv(prior, q + h / 2)) == pytest.approx(
        fd, rel=1e-6, abs=1e-9)
