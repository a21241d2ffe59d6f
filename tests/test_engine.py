"""Simulation engine: trial/batch equivalence, determinism across chunking and
worker counts, per-mechanism structural invariants, and input validation."""

import math
import pickle

import numpy as np
import pytest

from copesim import agents, benchmarks, engine, mechanism, rng
from copesim.costs import (LINEAR, QUADRATIC, cost, general_cost, linear_cost,
                           quadratic_cost)
from copesim.engine import (CENTRALIZED, COPE_GENERAL, COPE_LINEAR,
                            COPE_QUADRATIC, METRICS, TRUTHFUL, EngineSettings,
                            MechanismSpec, homogeneous_spec, normalize_payoff,
                            run_batch, run_experiment, run_trial)
from copesim.model import (NO_OBSERVATION, CostTypeDistribution,
                           GaussianPrior, Scenario, principal_bayes_risk)

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


def test_statistics_do_not_depend_on_the_chunk_size(make_scenario):
    # the moments merge fixed 4 096-trial blocks aligned to trial 0, so a
    # chunk size that does not divide 4 096 reduces the same blocks
    scen = make_scenario(LINEAR, 3)
    args = (scen.prior, scen.type_dist, scen.cost_model, [3, 7],
            [COPE_LINEAR, CENTRALIZED, homogeneous_spec(0.5)])
    runs = [run_experiment(*args, n_trials=10_000, master_seed=0,
                           n_workers=1,
                           settings=EngineSettings(chunk_size=size))
            for size in (4096, 1000, 777)]
    assert runs[0] == runs[1] == runs[2]


def _observe_where(x, efforts, noise, prior):
    """Observations and reports as three masked np.where passes; the oracle
    for the engine's dense form."""
    active = efforts > 0
    safe_q = np.where(active, efforts, 1.0)
    obs = np.where(active, x[..., None] + noise / np.sqrt(safe_q),
                   NO_OBSERVATION)
    reports = np.where(active, agents.truthful_report_obs(obs, efforts, prior),
                       prior.mu0)
    return obs, reports


@pytest.mark.parametrize("var0", [0.25, 1.0, math.inf])
@pytest.mark.parametrize("mask", ["all", "winner", "almost none", "half"])
def test_observe_matches_the_masked_formula(mask, var0):
    gen = np.random.default_rng(4)
    T, N = 600, 19
    x = gen.normal(size=T)
    noise = gen.normal(size=(T, N))
    active = {"all": np.ones((T, N), dtype=bool),
              "winner": np.arange(N) == gen.integers(0, N, T)[:, None],
              "almost none": gen.random((T, N)) < 2e-3,
              "half": gen.random((T, N)) < 0.5}[mask]
    efforts = np.where(active, gen.uniform(1e-3, 3.0, (T, N)), 0.0)
    efforts[0, 0] = 1e12
    prior = GaussianPrior(0.4, var0)
    # every agent engaged: the (T, N) chunk, x broadcast over the agents
    for got, want in zip(engine._observe(x[:, None], efforts, noise, prior),
                         _observe_where(x, efforts, noise, prior)):
        assert np.array_equal(got, want, equal_nan=True)
    # the engaged entries alone (here the active ones plus every tenth idle
    # one), each with its trial's latent state
    flat = np.flatnonzero(active.ravel() | (np.arange(T * N) % 10 == 0))
    eng = engine._Engaged((T, N), flat)
    for got, want in zip(engine._observe(eng.at_trial(x), eng.take(efforts),
                                         eng.take(noise), prior),
                         _observe_where(x, efforts, noise, prior)):
        assert np.array_equal(got, eng.take(want), equal_nan=True)


# -- the engaged-agent pipeline against the dense one -------------------------
#
# The oracle is the dense pipeline the engine ran before it worked on the
# engaged agents alone: every stage after designate formed (T, N) arrays and
# reduced them over the agent axis.

def _observe_dense(x, efforts, noise, prior):
    prec = prior.precision
    with np.errstate(divide="ignore", invalid="ignore"):
        obs = np.sqrt(efforts)
        np.divide(noise, obs, out=obs)
        obs += x[..., None]
        reports = obs * efforts
        reports += prior.mu0 * prec
        reports /= prec + efforts
    idle = ~(efforts > 0)
    obs[idle] = NO_OBSERVATION
    reports[idle] = prior.mu0
    return obs, reports


def _designate_dense(cell, reported, t0):
    """Dense efforts and the dense pipeline's terms: the winners' (pi, K, S)
    and every agent's q under linear cost, who takes a posted contract."""
    scen, kind = cell.scenario, cell.mech.kind
    dist, var0 = scen.type_dist, scen.prior.var0
    T, n = reported.shape
    if kind == "cope-linear":
        tie = cell.settings.tie_break
        winner = mechanism.argmin_winner_batch(
            reported, tie, rng.uniforms(cell.seed, n, rng.TIEBREAK, T, t0)
            if tie == "seeded-random" else None)
        pi, K, S, q_w = mechanism.linear_components_batch(
            reported, winner, dist.theta_lo, dist.theta_hi, var0)
        q = np.zeros_like(reported)
        q[np.arange(T), winner] = q_w
        return q, (pi, K, S, q)
    if kind == "cope-quadratic":
        terms = mechanism.quadratic_components_batch(
            reported, dist.theta_lo, dist.theta_hi, var0)
        return terms[3], terms
    if kind == "cope-general":
        rules = [mechanism.payment_rule_general(
            scen.cost_model, cell.state, dist, row, var0) for row in reported]
        terms = tuple(np.array([getattr(r, k) for r in rules])
                      for k in ("pi", "K", "S", "efforts"))
        return terms[3], terms
    if kind == "centralized":
        return benchmarks.centralized_efforts(reported, scen.cost_kind,
                                              var0), None
    contract, posted, _, _ = cell.state
    if not posted:
        return np.zeros_like(reported), np.zeros(reported.shape, dtype=bool)
    q, take = benchmarks.homogeneous_response_batch(
        reported, contract, scen.cost_kind, var0)
    return np.where(take, q, 0.0), take


def _settle_dense(cell, x, obs, est, efforts, terms):
    prior = cell.scenario.prior
    kind = cell.mech.kind
    if kind == "cope-linear":
        pi, K, S, q = terms
        rows, winner = np.arange(x.size), np.argmax(q, axis=1)
        y = est[rows, winner]
        prediction = np.where(q[rows, winner] > 0.0, y, prior.mu0)
        payments = np.zeros_like(est)
        payments[rows, winner] = pi - K * (x - y) ** 2 + S
        return prediction, payments, principal_bayes_risk(prior, efforts), est
    if kind.startswith("cope"):
        pi, K, S, q = terms
        prediction = mechanism.predict_batch(prior, est, q)
        payments = pi - K * (x[:, None] - est) ** 2 + S
        return prediction, payments, principal_bayes_risk(prior, efforts), est
    if kind == "centralized":
        num = prior.mu0 * prior.precision + np.where(
            efforts > 0, obs * efforts, 0.0).sum(axis=1)
        den = prior.precision + efforts.sum(axis=1)
        return num / den, np.zeros_like(efforts), 1.0 / den, obs
    contract, posted, n_den, _ = cell.state
    reports = np.where(terms, est, np.nan)
    if not posted:
        return np.full(x.size, prior.mu0), np.zeros_like(efforts), \
            np.full(x.size, prior.var0), reports
    # trials without a participant predict mu0, pay nothing and err by var0
    rows = terms.any(axis=1)
    prediction = np.full(x.size, prior.mu0)
    payments = np.zeros_like(efforts)
    expected_sq = np.full(x.size, prior.var0)
    prediction[rows], payments[rows], expected_sq[rows] = \
        benchmarks.homogeneous_settle_batch(contract, x[rows], reports[rows],
                                            efforts[rows], terms[rows], prior,
                                            n_den)
    return prediction, payments, expected_sq, reports


def _finish_metrics_dense(scenario, x, types, efforts, prediction, payments,
                          expected_sq):
    prior = scenario.prior
    err = (x - prediction) ** 2
    total_pay = payments.sum(axis=1)
    total_cost = cost(scenario.cost_model, efforts, types).sum(axis=1)
    risk = principal_bayes_risk(prior, efforts)
    return {
        "principal_payoff": -err - total_pay,
        "network_profit": -err - total_cost,
        "bayes_network_profit": -risk - total_cost,
        "prediction_sq_error": err,
        "expected_sq_error": expected_sq,
        "total_payment": total_pay,
        "total_cost": total_cost,
        "positive_effort_count": (efforts > 0).sum(axis=1).astype(float),
    }


def _dense_oracle(cell, draws, t0):
    """(metrics, record) of one chunk through the dense pipeline."""
    x, types, noise = draws
    cope = cell.mech.kind.startswith("cope")
    efforts, terms = _designate_dense(cell, types, t0)
    obs, est = _observe_dense(x, efforts, noise, cell.scenario.prior)
    prediction, payments, expected_sq, reports = _settle_dense(
        cell, x, obs, est, efforts, terms)
    metrics = _finish_metrics_dense(cell.scenario, x, types, efforts,
                                    prediction, payments, expected_sq)
    record = dict(x=x, types=types, reported_types=types if cope
                  else np.full_like(types, np.nan), efforts=efforts,
                  observations=obs, reports=reports, prediction=prediction,
                  payments=payments)
    return metrics, record


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True), what
    assert np.all(np.isnan(want) | (np.signbit(got) == np.signbit(want))), what


def _oracle_scenario(kind, n, var0=1.0):
    # a prior mean off 0, so that idle reports and fills are told apart
    return Scenario(prior=GaussianPrior(0.3, var0),
                    type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                    n_agents=n, cost_model=linear_cost() if kind == LINEAR
                    else quadratic_cost())


def _oracle_cells(scen, settings):
    """Every mechanism of the scenario's cost family, three posted contracts
    and, under linear cost, a contract forced to post with no cut: at
    var0 = 0.25 its zero-effort tail takes it (the principal would opt
    out)."""
    kind = scen.cost_kind
    mechs = [COPE_LINEAR if kind == LINEAR else COPE_QUADRATIC, CENTRALIZED,
             homogeneous_spec(0.2), homogeneous_spec(0.5),
             homogeneous_spec(0.8)]
    cells = [engine._Cell(scen, mech, 5, settings,
                          engine._cell_state(scen, mech, settings))
             for mech in mechs]
    if kind == LINEAR:
        contract = benchmarks.homogeneous_contract(0.001, scen.n_agents, kind,
                                                   scen.prior.var0)
        n_den = scen.n_agents if settings.hom_denominator == "full-n" else None
        cells.append(engine._Cell(scen, homogeneous_spec(0.001), 5, settings,
                                  (contract, True, n_den, math.inf)))
    return cells


@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0, math.inf])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_engaged_pipeline_matches_dense_oracle(kind, var0):
    # every metric and record array of every chunk equals the dense
    # pipeline's bit for bit.  At var0 = inf the latent state is drawn
    # infinite and the prior has no precision, so both pipelines meet
    # inf - inf and 1/0 and must give the same NaNs and infinities
    with np.errstate(**(dict(all="ignore") if var0 == math.inf else {})):
        seen = _compare_with_dense_oracle(kind, var0)
    # the quadratic contracts and the linear tail crowd the engaged rows
    want = set()
    if kind == QUADRATIC or var0 == 0.25:
        want.add("three or more engaged")
    if kind == LINEAR and var0 == 0.25:
        want.add("zero-effort taker")
    assert want <= seen


def _compare_with_dense_oracle(kind, var0):
    seen = set()
    for n, tie, den in ((1, "lowest-index", "participants"),
                        (2, "seeded-random", "full-n"),
                        (3, "lowest-index", "full-n"),
                        (8, "seeded-random", "participants"),
                        (19, "lowest-index", "participants"),
                        (19, "seeded-random", "full-n")):
        scen = _oracle_scenario(kind, n, var0)
        settings = EngineSettings(chunk_size=777, tie_break=tie,
                                  hom_denominator=den)
        cells = _oracle_cells(scen, settings)
        for t0 in range(0, 1600, settings.chunk_size):
            draws = engine._draw_chunk(scen, 5, t0, min(t0 + 777, 1600),
                                       settings)
            for cell in cells:
                metrics, stages = engine._run_mechanism(cell, draws, t0)
                want_m, want_r = _dense_oracle(cell, draws, t0)
                what = (cell.mech, n, tie, den, t0)
                for k, got in zip(METRICS, metrics):
                    _assert_same_bits(got, want_m[k], (k,) + what)
                record = stages.record()
                assert record.keys() == want_r.keys()
                for k in record:
                    _assert_same_bits(record[k], want_r[k], (k,) + what)
                eng = stages.engaged
                if eng.flat is not None and eng.flat.size:
                    if n >= 8 and eng.runs[2].max() >= 3:
                        seen.add("three or more engaged")
                    if np.any(stages.efforts == 0.0):
                        seen.add("zero-effort taker")
    return seen


@pytest.mark.parametrize("types", [(0.3, 0.3, 0.7), (0.4, 0.2, 0.2)])
def test_engaged_pipeline_matches_dense_oracle_on_ties_and_general(types):
    # tied reports under both tie-breaks, and cope-general on fixed types
    for kind in (LINEAR, QUADRATIC):
        scen = _oracle_scenario(kind, 3)
        for tie in ("lowest-index", "seeded-random"):
            settings = EngineSettings(chunk_size=777, tie_break=tie,
                                      fixed_types=types)
            cells = _oracle_cells(scen, settings)
            cells.append(engine._Cell(
                scen, COPE_GENERAL, 5, settings,
                engine._cell_state(scen, COPE_GENERAL, settings)))
            n_trials = 40
            draws = engine._draw_chunk(scen, 5, 0, n_trials, settings)
            for cell in cells:
                if cell.mech.kind == "cope-general":
                    # a numeric solve per trial: a few trials suffice
                    draws = tuple(d[:3] for d in draws)
                metrics, stages = engine._run_mechanism(cell, draws, 0)
                want_m, want_r = _dense_oracle(cell, draws, 0)
                for k, got in zip(METRICS, metrics):
                    _assert_same_bits(got, want_m[k], (k, cell.mech, tie))
                record = stages.record()
                for k in record:
                    _assert_same_bits(record[k], want_r[k], (k, cell.mech))


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_engaged_pipeline_matches_dense_oracle_in_run_trial(kind):
    # run_trial's dense record and metrics equal the dense pipeline's for
    # every mechanism
    scen = _oracle_scenario(kind, 3)
    settings = EngineSettings()
    cells = _oracle_cells(scen, settings)
    for t in (0, 4):
        draws = engine._draw_chunk(scen, 5, t, t + 1, settings)
        for cell in cells:
            if cell.state != engine._cell_state(scen, cell.mech, settings):
                continue    # the forced contract is no mechanism of its own
            rec = run_trial(scen, cell.mech, TRUTHFUL, seed=5, trial_index=t,
                            settings=settings)
            want_m, want_r = _dense_oracle(cell, draws, t)
            for k in TRIAL_METRICS:
                _assert_same_bits(getattr(rec, k), want_m[k][0], (k, t))
            for k, want in want_r.items():
                _assert_same_bits(getattr(rec, k), want[0], (k, t))


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


def _sweep_args(make_scenario):
    scen = make_scenario(LINEAR, 2)
    return (scen.prior, scen.type_dist, scen.cost_model, [2, 3],
            [COPE_LINEAR, CENTRALIZED, homogeneous_spec(0.5)])


def test_each_n_draws_once_per_chunk(make_scenario, monkeypatch):
    draws = []
    draw_chunk = engine._draw_chunk

    def counted(scenario, seed, t0, t1, settings):
        draws.append((scenario.n_agents, t0))
        return draw_chunk(scenario, seed, t0, t1, settings)

    monkeypatch.setattr(engine, "_draw_chunk", counted)
    run_experiment(*_sweep_args(make_scenario), n_trials=25, master_seed=3,
                   n_workers=1, settings=EngineSettings(chunk_size=10))
    # two Ns, three chunks each, shared by all three mechanisms
    assert draws == [(2, 0), (2, 10), (2, 20), (3, 0), (3, 10), (3, 20)]


def test_grouped_mechanisms_match_each_run_alone(make_scenario):
    args = _sweep_args(make_scenario)
    settings = EngineSettings(chunk_size=7)
    grouped = run_experiment(*args, n_trials=25, master_seed=5, n_workers=1,
                             settings=settings)
    alone = [res for n in args[3] for mech in args[4]
             for res in run_experiment(*args[:3], [n], [mech], n_trials=25,
                                       master_seed=5, n_workers=1,
                                       settings=settings)]
    assert grouped == alone


def test_progress_fires_once_per_cell_in_order(make_scenario):
    args = _sweep_args(make_scenario)
    calls = []
    results = run_experiment(*args, n_trials=12, master_seed=0, n_workers=1,
                             progress=lambda *a: calls.append(a))
    assert [(n, mech.kind) for n in args[3] for mech in args[4]] == \
        [(res.n_agents, res.mechanism) for res in results]
    assert calls == [(i + 1, len(results), res)
                     for i, res in enumerate(results)]


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


@pytest.mark.parametrize("field,value", [
    ("chunk_size", -4096), ("chunk_size", 0), ("tie_break", "bogus"),
    ("hom_denominator", "bogus")])
def test_settings_reject_bad_values(field, value):
    # each message names the field it rejects
    with pytest.raises(ValueError, match=field):
        EngineSettings(**{field: value})


def test_run_trial_rejects_a_negative_trial_index(make_scenario):
    with pytest.raises(ValueError, match="trial_index must be >= 0, got -1"):
        run_trial(make_scenario(LINEAR, 2), COPE_LINEAR, TRUTHFUL, seed=0,
                  trial_index=-1)


def test_run_batch_rejects_no_trials(make_scenario):
    with pytest.raises(ValueError, match="n_trials must be >= 1, got 0"):
        run_batch(make_scenario(LINEAR, 2), COPE_LINEAR, seed=0, n_trials=0)
