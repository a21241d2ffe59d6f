"""Simulation engine: trial/batch equivalence, determinism across chunking and
worker counts, per-mechanism structural invariants, and agent modes."""

import pickle

import numpy as np
import pytest

from copesim import agents, engine
from copesim.costs import (LINEAR, QUADRATIC, cost, general_cost, linear_cost,
                           quadratic_cost)
from copesim.engine import (BEST_RESPONSE, CENTRALIZED, COPE_GENERAL,
                            COPE_LINEAR, COPE_QUADRATIC, METRICS, TRUTHFUL,
                            EngineSettings, MechanismSpec, homogeneous_spec,
                            normalize_payoff, run_batch, run_experiment,
                            run_trial)
from copesim.model import CostTypeDistribution, GaussianPrior, Scenario

TRIAL_METRICS = ("principal_payoff", "network_profit", "bayes_network_profit",
                 "prediction_sq_error", "expected_sq_error")


def _mech_cases(make_scenario):
    return [
        (make_scenario(LINEAR, 3), COPE_LINEAR),
        (make_scenario(QUADRATIC, 3), COPE_QUADRATIC),
        (make_scenario(LINEAR, 2), COPE_GENERAL),
        (make_scenario(QUADRATIC, 3), CENTRALIZED),
        (make_scenario(LINEAR, 3), homogeneous_spec(0.2)),
    ]


def test_trial_equals_batch_row(make_scenario):
    # run_trial addresses the same positional draws as the batched runner
    for scen, mech in _mech_cases(make_scenario):
        batch = run_batch(scen, mech, seed=4, n_trials=6)
        for t in (0, 3, 5):
            rec = run_trial(scen, mech, TRUTHFUL, seed=4, trial_index=t)
            for name in TRIAL_METRICS:
                assert getattr(rec, name) == batch[name][t], (mech.kind, name)
            assert rec.payments.sum() == batch["total_payment"][t]


def test_batch_rerun_and_chunking_are_bitwise_stable(make_scenario):
    scen = make_scenario(QUADRATIC, 4)
    a = run_batch(scen, COPE_QUADRATIC, seed=11, n_trials=25,
                  settings=EngineSettings(chunk_size=7))
    b = run_batch(scen, COPE_QUADRATIC, seed=11, n_trials=25,
                  settings=EngineSettings(chunk_size=200))
    for k in METRICS:
        assert np.array_equal(a[k], b[k]), k


def test_cope_linear_winner_take_all(make_scenario):
    scen = make_scenario(LINEAR, 5)
    batch = run_batch(scen, COPE_LINEAR, seed=2, n_trials=300)
    assert batch["positive_effort_count"].max() <= 1.0
    for t in range(8):
        rec = run_trial(scen, COPE_LINEAR, TRUTHFUL, seed=2, trial_index=t)
        assert np.array_equal(rec.reported_types, rec.types)
        winner = int(np.argmin(rec.reported_types))
        others = np.delete(np.arange(5), winner)
        assert np.all(rec.payments[others] == 0.0)
        assert np.all(rec.efforts[others] == 0.0)


def test_centralized_trial_pays_nothing(make_scenario):
    scen = make_scenario(QUADRATIC, 3)
    rec = run_trial(scen, CENTRALIZED, TRUTHFUL, seed=3, trial_index=1)
    assert np.all(rec.payments == 0.0)
    assert np.all(np.isnan(rec.reported_types))
    assert np.all(rec.efforts > 0.0)


def test_quadratic_recruits_everyone(make_scenario):
    scen = make_scenario(QUADRATIC, 5)
    batch = run_batch(scen, COPE_QUADRATIC, seed=6, n_trials=200)
    assert batch["positive_effort_count"].min() == 5.0


def test_degenerate_homogeneous_matches_designed_effort(make_scenario):
    # all true types pinned at theta_dagger: every agent participates and
    # plays exactly the designed per-agent effort
    scen = make_scenario(QUADRATIC, 3)
    settings = EngineSettings(fixed_types=(0.5, 0.5, 0.5))
    rec = run_trial(scen, homogeneous_spec(0.5), TRUTHFUL, seed=1,
                    trial_index=2, settings=settings)
    from copesim import benchmarks
    c = benchmarks.homogeneous_contract(0.5, 3, QUADRATIC, 1.0)
    assert np.allclose(rec.efforts, c.q_dagger, atol=1e-10)


def test_homogeneous_opt_out_trial(make_scenario):
    # contract known (exactly) to cost more than it earns: principal falls
    # back to the prior mean and pays nothing
    scen = make_scenario(QUADRATIC, 19, var0=0.5)
    rec = run_trial(scen, homogeneous_spec(0.95), TRUTHFUL, seed=8,
                    trial_index=0)
    assert rec.prediction == 0.0
    assert np.all(rec.payments == 0.0)
    assert np.all(rec.efforts == 0.0)
    assert rec.expected_sq_error == 0.5


def test_centralized_dominates_on_bayes_profit(make_scenario):
    # common random numbers: same types per trial index, and the centralized
    # profile maximizes exactly the model-implied profit
    for kind, mech in ((LINEAR, COPE_LINEAR), (QUADRATIC, COPE_QUADRATIC)):
        scen = make_scenario(kind, 4)
        cope = run_batch(scen, mech, seed=13, n_trials=400)
        cen = run_batch(scen, CENTRALIZED, seed=13, n_trials=400)
        assert np.all(cen["bayes_network_profit"]
                      >= cope["bayes_network_profit"] - 1e-12)


def test_realized_error_tracks_model_error(make_scenario):
    scen = make_scenario(QUADRATIC, 3)
    batch = run_batch(scen, COPE_QUADRATIC, seed=5, n_trials=4000)
    diff = batch["prediction_sq_error"] - batch["expected_sq_error"]
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.0 * se


def test_seeded_tie_break_is_deterministic(make_scenario):
    scen = make_scenario(LINEAR, 2)
    settings = EngineSettings(fixed_types=(0.3, 0.3),
                              tie_break="seeded-random")
    winners = []
    for t in range(40):
        rec = run_trial(scen, COPE_LINEAR, TRUTHFUL, seed=21, trial_index=t,
                        settings=settings)
        winners.append(int(np.argmax(rec.efforts > 0.0)))
        rec2 = run_trial(scen, COPE_LINEAR, TRUTHFUL, seed=21, trial_index=t,
                         settings=settings)
        assert np.array_equal(rec.efforts, rec2.efforts)
    assert set(winners) == {0, 1}


def test_general_trial_recruits_one_agent_on_a_linear_tie(make_scenario):
    # tied reports under linear cost: the general path recruits and pays the
    # same single agent as the closed-form path
    scen = make_scenario(LINEAR, 2, var0=4.0)
    settings = EngineSettings(fixed_types=(0.3, 0.3))
    gen = run_trial(scen, COPE_GENERAL, TRUTHFUL, seed=3, trial_index=0,
                    settings=settings)
    lin = run_trial(scen, COPE_LINEAR, TRUTHFUL, seed=3, trial_index=0,
                    settings=settings)
    assert np.count_nonzero(gen.efforts) == 1
    assert np.allclose(gen.efforts, lin.efforts, rtol=0.0, atol=1e-9)
    assert np.allclose(gen.payments, lin.payments, rtol=0.0, atol=1e-8)


def test_general_trial_pays_the_linear_rent_past_a_close_rival(make_scenario):
    # the winner's rent integrand drops to 0 where its report crosses the
    # runner-up's (0.0211), a drop quad sees only as a breakpoint
    scen = make_scenario(LINEAR, 5)
    settings = EngineSettings(fixed_types=(
        0.020449594899177304, 0.02111864755550094, 0.189823649630528,
        0.4927207742599688, 0.9551254718368857))
    gen = run_trial(scen, COPE_GENERAL, TRUTHFUL, seed=0, trial_index=0,
                    settings=settings)
    lin = run_trial(scen, COPE_LINEAR, TRUTHFUL, seed=0, trial_index=0,
                    settings=settings)
    assert np.allclose(gen.payments, lin.payments, rtol=0.0, atol=1e-8)


def test_best_response_mode_stays_near_truth(make_scenario):
    settings = EngineSettings(br_grid=21, br_mc=500)
    for kind, mech in ((LINEAR, COPE_LINEAR), (QUADRATIC, COPE_QUADRATIC)):
        scen = make_scenario(kind, 2)
        rec = run_trial(scen, mech, BEST_RESPONSE, seed=17, trial_index=0,
                        settings=settings)
        close = np.abs(rec.reported_types - rec.types) <= 0.1
        if kind == LINEAR:
            # types at or above the clamp point (0.5 here) are never
            # recruited under any such report, so those reports tie at zero
            # payoff and the oracle may return any point of the plateau
            plateau = (rec.types >= 0.5 - 1e-9) \
                & (rec.reported_types >= 0.5 - 1e-9)
            assert np.all(close | plateau)
            assert np.sum(rec.efforts > 0.0) <= 1
        else:
            assert np.all(close)
            assert np.all(rec.efforts > 0.0)


def test_best_response_mode_rejects_general(make_scenario):
    scen = make_scenario(LINEAR, 2)
    with pytest.raises(ValueError):
        run_trial(scen, COPE_GENERAL, BEST_RESPONSE, seed=0)


def test_single_trial_experiment_equals_trial(make_scenario):
    scen = make_scenario(LINEAR, 3)
    res, = run_experiment(scen.prior, scen.type_dist, scen.cost_model, [3],
                          [COPE_LINEAR], n_trials=1, master_seed=9)
    rec = run_trial(scen, COPE_LINEAR, TRUTHFUL, seed=9, trial_index=0)
    for name in TRIAL_METRICS:
        st = res.stats[name]
        assert st.mean == getattr(rec, name)
        assert st.se == 0.0
        assert st.minimum == st.maximum == st.mean


def test_worker_count_does_not_change_results(make_scenario):
    scen = make_scenario(LINEAR, 2)
    args = (scen.prior, scen.type_dist, scen.cost_model, [2, 3],
            [COPE_LINEAR, CENTRALIZED])
    serial = run_experiment(*args, n_trials=200, master_seed=1, n_workers=1)
    parallel = run_experiment(*args, n_trials=200, master_seed=1, n_workers=2)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a == b or (a.stats == b.stats and a.mechanism == b.mechanism)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_rejects_nonpositive_workers(make_scenario, workers):
    scen = make_scenario(LINEAR, 2)
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        run_experiment(scen.prior, scen.type_dist, scen.cost_model, [2],
                       [COPE_LINEAR], n_trials=10, master_seed=1,
                       n_workers=workers)


def _power_cdf(t):
    return np.asarray(t, dtype=float) ** 2


def _power_pdf(t):
    return 2.0 * np.asarray(t, dtype=float)


def _cubic_marginal(q, theta):
    return np.asarray(theta, dtype=float) * (1.0 + np.asarray(q, dtype=float) ** 2)


@pytest.mark.parametrize("model", [linear_cost(), quadratic_cost(),
                                   general_cost(_cubic_marginal)])
def test_scenarios_pickle(model):
    scen = Scenario(prior=GaussianPrior(0.0, 1.0),
                    type_dist=CostTypeDistribution.custom(
                        0.0, 1.0, cdf=_power_cdf, pdf=_power_pdf),
                    n_agents=3, cost_model=model)
    back = pickle.loads(pickle.dumps(scen))
    assert back.cost_kind == scen.cost_kind and back.prior == scen.prior
    q, theta = np.array([0.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.9])
    assert np.array_equal(cost(back.cost_model, q, theta),
                          cost(scen.cost_model, q, theta))
    assert np.array_equal(back.type_dist.cdf(theta), scen.type_dist.cdf(theta))


def _assert_same_results(args, **kwargs):
    serial = run_experiment(*args, n_workers=1, **kwargs)
    parallel = run_experiment(*args, n_workers=2, **kwargs)
    assert len(serial) == len(parallel) > 1
    for a, b in zip(serial, parallel):
        assert (a.mechanism, a.n_agents, a.stats) == \
            (b.mechanism, b.n_agents, b.stats)


def test_workers_parallelize_custom_type_distribution():
    dist = CostTypeDistribution.custom(0.0, 1.0, cdf=_power_cdf,
                                       pdf=_power_pdf)
    _assert_same_results((GaussianPrior(0.0, 1.0), dist, linear_cost(),
                          [2, 3], [CENTRALIZED, homogeneous_spec(0.5)]),
                         n_trials=200, master_seed=4)


def test_closed_form_mechanisms_reject_non_uniform_types():
    # cope-linear and cope-quadratic pay for the uniform virtual cost
    # 2 theta - theta_lo; under F(t) = t^2 it is 1.5 theta
    dist = CostTypeDistribution.custom(0.0, 1.0, cdf=_power_cdf,
                                       pdf=_power_pdf)
    for model, mech in ((linear_cost(), COPE_LINEAR),
                        (quadratic_cost(), COPE_QUADRATIC)):
        scen = Scenario(prior=GaussianPrior(0.0, 1.0), type_dist=dist,
                        n_agents=2, cost_model=model)
        with pytest.raises(ValueError, match="uniform types"):
            run_batch(scen, mech, seed=0, n_trials=1)
        with pytest.raises(ValueError, match="uniform types"):
            agents.interim_payoff(0.3, 0.3, "designated", scen, n_mc=10)


def test_workers_parallelize_general_cost():
    _assert_same_results((GaussianPrior(0.0, 1.0),
                          CostTypeDistribution.uniform(0.0, 1.0),
                          general_cost(_cubic_marginal), [2, 3],
                          [COPE_GENERAL]), n_trials=2, master_seed=0)


def test_workers_reject_unpicklable_scenario():
    model = general_cost(lambda q, t: np.asarray(t) * (1.0 + np.asarray(q)))
    calls = []
    with pytest.raises(ValueError, match="pickle"):
        run_experiment(GaussianPrior(0.0, 1.0),
                       CostTypeDistribution.uniform(0.0, 1.0), model, [2, 3],
                       [COPE_GENERAL], n_trials=1, master_seed=0,
                       n_workers=2, progress=lambda *a: calls.append(a))
    assert calls == []


def test_normalize_payoff():
    assert normalize_payoff(-0.75) == -0.75
    assert normalize_payoff(-4.0, 4.0) == -1.0
    assert np.allclose(normalize_payoff(np.array([-4.0, -2.0]), 4.0),
                       [-1.0, -0.5])


def test_reported_payoffs_are_raw_with_baseline_minus_var0():
    # types in [20, 30] make every virtual cost exceed var0^-2 = 1/16, so
    # nobody is recruited: the principal predicts the prior mean, pays
    # nothing and scores -(x - mu0)^2, whose mean is -var0, not -1
    scen = Scenario(prior=GaussianPrior(0.0, 4.0),
                    type_dist=CostTypeDistribution.uniform(20.0, 30.0),
                    n_agents=3, cost_model=linear_cost())
    batch = run_batch(scen, COPE_LINEAR, seed=3, n_trials=20_000)
    assert np.all(batch["positive_effort_count"] == 0.0)
    assert np.all(batch["total_payment"] == 0.0)
    payoff = batch["principal_payoff"]
    mean = payoff.mean()
    se = payoff.std(ddof=1) / np.sqrt(payoff.size)
    assert abs(mean + 4.0) <= 3.0 * se
    assert normalize_payoff(-4.0, 4.0) == -1.0
    assert abs(normalize_payoff(mean, 4.0) + 1.0) <= 3.0 * se / 4.0


def test_pairing_and_spec_validation(make_scenario):
    with pytest.raises(ValueError):
        run_batch(make_scenario(QUADRATIC, 2), COPE_LINEAR, seed=0, n_trials=1)
    with pytest.raises(ValueError):
        run_batch(make_scenario(LINEAR, 2), COPE_QUADRATIC, seed=0, n_trials=1)
    with pytest.raises(ValueError):
        MechanismSpec("homogeneous")
    with pytest.raises(ValueError):
        MechanismSpec("ascending-auction")
    with pytest.raises(ValueError):
        run_trial(make_scenario(LINEAR, 2), COPE_LINEAR, "mixed", seed=0)
