"""Agent-side oracles: reporting, reward-driven effort, interim payoffs, and
the numeric best-response searches used by the incentive verification suite."""

import warnings

import numpy as np
import pytest

from copesim import agents, mechanism
from copesim.costs import LINEAR, QUADRATIC
from copesim.model import GaussianPrior


def test_truthful_report_shrinks_toward_prior_mean(prior01):
    # unit prior, unit effort: posterior mean is the midpoint
    assert agents.truthful_report_obs(2.0, 1.0, prior01) == pytest.approx(1.0)
    # observing the prior mean never moves the report
    wide = GaussianPrior(0.7, 2.0)
    assert agents.truthful_report_obs(0.7, 3.0, wide) == pytest.approx(0.7)
    # huge effort: shrinkage vanishes
    assert agents.truthful_report_obs(2.0, 1e9, prior01) == pytest.approx(2.0, abs=1e-8)
    # zero effort: report collapses to the prior mean
    assert agents.truthful_report_obs(5.0, 0.0, prior01) == 0.0


def test_truthful_report_vectorized(prior01):
    y = np.array([2.0, -2.0, 0.0])
    q = np.array([1.0, 3.0, 0.0])
    out = agents.truthful_report_obs(y, q, prior01)
    assert out.shape == (3,)
    assert np.allclose(out, [1.0, -1.5, 0.0])


def test_linear_reward_effort_closed_form():
    assert agents.optimal_effort_linear(1.0, 0.25, 1.0) == pytest.approx(1.0)
    # reward too weak to beat the prior precision: corner at zero
    assert agents.optimal_effort_linear(0.01, 1.0, 1.0) == 0.0
    assert agents.optimal_effort_linear(0.0, 0.5, 0.0) == 0.0
    out = agents.optimal_effort_linear(np.array([1.0, 0.01]), 0.25, 1.0)
    assert np.allclose(out, [1.0, 0.0])


def test_quadratic_reward_effort_foc():
    # K/(prec+q)^2 = theta q with prec = 0, K = theta: q = 1
    assert agents.reward_effort_quadratic(0.5, 0.5, 0.0) == pytest.approx(1.0)
    assert agents.reward_effort_quadratic(0.0, 0.5, 1.0) == 0.0
    gen = np.random.default_rng(3)
    K = gen.uniform(0.1, 2.0, size=40)
    theta = gen.uniform(0.1, 1.0, size=40)
    for prec in (0.0, 0.5, 1.0):
        q = agents.reward_effort_quadratic(K, theta, prec)
        resid = K - theta * q * (prec + q) ** 2
        assert np.all(np.abs(resid) <= 1e-10 * np.maximum(1.0, K))
    # broadcasting: vector rewards against a scalar type
    out = agents.reward_effort_quadratic(np.array([0.5, 0.0]), 0.5, 0.0)
    assert np.allclose(out, [1.0, 0.0])


def _effort_bisection(K, theta, prec, n_iter=110):
    """110-step bisection on K - theta q (prec+q)^2 (strictly decreasing in
    q, root below (K/theta)^(1/3)): the independent oracle for the
    closed-form effort solve."""
    K_b, theta_b = np.broadcast_arrays(np.asarray(K, dtype=float),
                                       np.asarray(theta, dtype=float))
    hi = np.cbrt(np.maximum(K_b, 0.0) / theta_b)
    lo = np.zeros_like(hi)
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        high = K_b - theta_b * mid * (prec + mid) ** 2 > 0.0
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return np.where(K_b > 0.0, 0.5 * (lo + hi), 0.0)


@pytest.mark.parametrize("prec", [0.0, 1e-6, 1e-3, 0.25, 1.0, 4.0, 100.0, 1e4])
def test_quadratic_reward_effort_matches_bisection(prec):
    gen = np.random.default_rng(20)
    K = 10.0 ** gen.uniform(-14.0, 3.0, 200_000)
    theta = 10.0 ** gen.uniform(-12.0, 0.0, 200_000)
    q = agents.reward_effort_quadratic(K, theta, prec)
    ref = _effort_bisection(K, theta, prec)
    assert np.all(q > 0.0)
    assert np.max(np.abs(q - ref) / ref) <= 1e-14


@pytest.mark.parametrize("prec", [0.0, 1.0])
def test_quadratic_reward_effort_zero_reward_and_broadcasting(prec):
    K = np.array([0.0, 0.3, 2.0])
    theta = np.array([[0.1], [0.5], [0.9]])
    cases = [(0.0, 0.5), (0.3, 0.5), (K, 0.5), (0.3, theta[:, 0]), (K, theta)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # K = 0 at prec = 0 must stay quiet
        for k, th in cases:
            q = agents.reward_effort_quadratic(k, th, prec)
            ref = _effort_bisection(k, th, prec)
            assert np.shape(q) == np.broadcast(k, th).shape
            # K = 0 entries must be exactly 0
            assert np.all(np.abs(q - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_interim_payoff_zero_at_top_type(make_scenario, kind):
    # the top type earns no rent: loses every linear auction, and the
    # quadratic transfers net out exactly at the designated effort
    scen = make_scenario(kind, 3)
    p = agents.interim_payoff(1.0, 1.0, "optimal", scen,
                              n_mc=4000, seed=5)
    assert abs(p.value) <= 1e-12


@pytest.mark.parametrize("kind,theta", [(LINEAR, 0.35), (QUADRATIC, 0.6)])
def test_interim_payoff_matches_information_rent(make_scenario, kind, theta):
    # envelope identity holds per rival draw, so with a shared rival stream
    # the two estimates agree to roundoff, not just to 3 SE
    scen = make_scenario(kind, 3)
    p = agents.interim_payoff(theta, theta, "optimal", scen,
                              n_mc=4000, seed=11)
    r = agents.information_rent(theta, scen, n_mc=4000, seed=11)
    assert p.value >= -3.0 * p.se
    assert abs(p.value - r.value) <= 1e-12


def test_optimal_effort_matches_designated_at_truth(make_scenario):
    scen = make_scenario(LINEAR, 3)
    opt = agents.interim_payoff(0.3, 0.3, "optimal", scen,
                                n_mc=2000, seed=9)
    desig = agents.interim_payoff(0.3, 0.3, "designated", scen,
                                  n_mc=2000, seed=9)
    # at a truthful report the reward weight makes the designated effort the
    # agent's own optimum
    assert abs(opt.value - desig.value) <= 1e-12


@pytest.mark.parametrize("policy", [0.0, "fixed"])
def test_interim_payoff_rejects_other_effort_policies(make_scenario, policy):
    with pytest.raises(ValueError, match="unknown effort policy"):
        agents.interim_payoff(0.3, 0.3, policy, make_scenario(LINEAR, 3),
                              n_mc=10)


def test_truth_is_best_response_linear(make_scenario):
    scen = make_scenario(LINEAR, 3)
    br = agents.best_response_type(0.3, scen, n_grid=101,
                                   n_mc=3000, seed=2)
    assert np.min(np.abs(br.argmax_set - 0.3)) <= 1e-9
    assert abs(br.theta_star - 0.3) <= 0.05


def test_truth_is_best_response_quadratic(make_scenario):
    scen = make_scenario(QUADRATIC, 3)
    br = agents.best_response_type(0.7, scen, n_grid=101,
                                   n_mc=3000, seed=2)
    assert np.min(np.abs(br.argmax_set - 0.7)) <= 1e-9
    assert abs(br.theta_star - 0.7) <= 0.05


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_payoff_rows_do_not_depend_on_blocking(make_scenario, kind):
    # 2^15 draws make blocks of 4 candidates; each row must be bitwise what
    # the candidate scores alone
    scen = make_scenario(kind, 3)
    rivals = agents._rival_types(scen, 1 << 15, 4)
    candidates = np.linspace(0.05, 0.95, 9)
    for policy in ("optimal", "designated"):
        together = agents._payoff_matrix(0.4, candidates, policy, scen, rivals)
        for row, th in zip(together, candidates):
            alone = agents._payoff_matrix(0.4, [th], policy, scen, rivals)
            assert np.array_equal(row, alone[0])


def test_best_response_effort_matches_designated_levels(make_scenario):
    # linear winner at theta = 0.125: gamma = 0.25, Q = 2 - 1 = 1
    scen = make_scenario(LINEAR, 3)
    q = agents.best_response_effort(0.125, scen, theta_rest=(0.5, 0.9))
    assert q == pytest.approx(1.0, abs=1e-6)
    # a rival reporting lower wins instead; the loser gets K = 0 and shirks
    assert agents.best_response_effort(0.5, scen, theta_rest=(0.1, 0.9)) == 0.0
    # single quadratic agent under a nearly flat prior: q -> 1
    flat = make_scenario(QUADRATIC, 1, var0=1e8)
    q = agents.best_response_effort(0.5, flat)
    assert q == pytest.approx(1.0, abs=1e-6)


def test_best_response_effort_is_stationary(make_scenario):
    scen = make_scenario(QUADRATIC, 2)
    theta = 0.4
    qstar = agents.best_response_effort(theta, scen, theta_rest=(0.7,))
    rule = mechanism.payment_rule_quadratic(np.array([theta, 0.7]), 0.0, 1.0, 1.0)
    K, S, pi = rule.K[0], rule.S[0], rule.pi[0]
    h = 1e-5
    up = agents.effort_payoff(qstar + h, theta, K, S, pi, scen.cost_model, 1.0)
    dn = agents.effort_payoff(qstar - h, theta, K, S, pi, scen.cost_model, 1.0)
    assert abs(float(up - dn) / (2.0 * h)) <= 1e-6
