"""Benchmark mechanisms: the full-information centralized optimum and the
posted homogeneous contract with its exact expected-payoff fallback."""

import math

import numpy as np
import pytest

from copesim import benchmarks as B
from copesim import engine, mechanism
from copesim.costs import LINEAR, QUADRATIC, linear_cost, quadratic_cost
from copesim.model import (TYPE_CLAMP, CostTypeDistribution, GaussianPrior,
                           Scenario)


def test_centralized_linear_concentrates_on_cheapest():
    efforts = B.centralized_efforts([0.25, 0.8], LINEAR, 1.0)
    assert np.allclose(efforts, [1.0, 0.0])
    # the lone type 1.0 sits exactly at the clamp: no effort worth buying
    assert np.allclose(B.centralized_efforts([1.0], LINEAR, 1.0), [0.0])
    # ordering, not position, picks the winner
    efforts = B.centralized_efforts([0.8, 0.25], LINEAR, 1.0)
    assert efforts[0] == 0.0 and efforts[1] > 0.0


def test_centralized_quadratic_flat_prior_frozen():
    efforts = B.centralized_efforts([0.5], QUADRATIC, math.inf)
    # total precision W = sum q = 2^(1/3) with no prior precision
    assert np.sum(efforts) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert efforts[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("var0", [1.0, 4.0, math.inf])
def test_centralized_quadratic_cubic_residual(var0):
    gen = np.random.default_rng(7)
    theta = gen.uniform(0.05, 1.0, size=5)
    efforts = B.centralized_efforts(theta, QUADRATIC, var0)
    prec = 0.0 if math.isinf(var0) else 1.0 / var0
    W = prec + np.sum(efforts)   # total precision solves the cubic
    assert abs(W ** 3 - prec * W ** 2 - np.sum(1.0 / theta)) <= 1e-10
    assert np.allclose(efforts, 1.0 / (theta * W * W))


def test_centralized_rejects_nonpositive_types():
    with pytest.raises(ValueError):
        B.centralized_efforts([0.5, 0.0], QUADRATIC, 1.0)


@pytest.mark.parametrize("var0", [1.0, math.inf])
def test_centralized_exceeds_mechanism_efforts_quadratic(var0):
    # virtual costs double the raw ones under Uniform[0,1], so the screened
    # schedule is uniformly below the first-best profile
    gen = np.random.default_rng(11)
    for _ in range(5):
        theta = gen.uniform(0.05, 1.0, size=5)
        first_best = B.centralized_efforts(theta, QUADRATIC, var0)
        screened = mechanism.effort_quadratic(theta, 0.0, var0)
        assert np.all(first_best > screened)


def test_homogeneous_contract_linear_frozen():
    c = B.homogeneous_contract(0.25, 2, LINEAR, 1.0)
    assert c.q_dagger == pytest.approx(0.5)
    assert c.alpha == pytest.approx(0.3125)
    assert c.beta == pytest.approx(0.5625)
    # the top type is exactly at the clamp: degenerate zero-effort contract
    assert B.homogeneous_contract(1.0, 2, LINEAR, 1.0).q_dagger == 0.0
    with pytest.raises(ValueError):
        B.homogeneous_contract(0.0, 2, LINEAR, 1.0)


def test_homogeneous_contract_quadratic_frozen():
    c = B.homogeneous_contract(1.0, 1, QUADRATIC, math.inf)
    assert c.q_dagger == pytest.approx(1.0, abs=1e-12)
    c = B.homogeneous_contract(0.5, 3, QUADRATIC, 1.0)
    q = c.q_dagger
    # per-agent effort solves 1/(prec + N q)^2 = theta_dagger q
    assert abs(1.0 / (1.0 + 3.0 * q) ** 2 - 0.5 * q) <= 1e-12
    # the flat part is built to zero out the type-theta_dagger payoff exactly
    payoff_at_dagger = c.alpha - c.beta / (1.0 + q) - 0.25 * q ** 2
    assert abs(payoff_at_dagger) <= 1e-12
    with pytest.raises(ValueError):
        B.homogeneous_contract(-0.5, 3, QUADRATIC, 1.0)


@pytest.mark.parametrize("kind,var0", [(LINEAR, 1.0), (QUADRATIC, 1.0),
                                       (QUADRATIC, math.inf)])
def test_homogeneous_response_self_consistent(kind, var0):
    # the reward weight beta is sized so theta_dagger's own best response is
    # exactly the designed effort
    c = B.homogeneous_contract(0.25 if kind == LINEAR else 0.5, 3, kind, var0)
    q, _ = B.homogeneous_response_batch([c.theta_dagger], c, kind, var0)
    assert abs(q[0] - c.q_dagger) <= 1e-10


def test_homogeneous_response_monotone_in_type():
    c = B.homogeneous_contract(0.25, 2, LINEAR, 1.0)
    (q_low,), _ = B.homogeneous_response_batch([0.1], c, LINEAR, 1.0)
    assert q_low == pytest.approx(math.sqrt(0.5625 / 0.1) - 1.0)
    assert q_low > c.q_dagger
    qs, _ = B.homogeneous_response_batch(np.array([0.1, 0.2, 0.4]), c,
                                         LINEAR, 1.0)
    assert np.all(np.diff(qs) < 0)


def test_linear_participation_excludes_theta_dagger():
    # under linear cost the printed flat part does not cover theta_dagger's
    # cost at its own best response; only sufficiently cheap types opt in
    # (threshold 0.0625 for this contract)
    c = B.homogeneous_contract(0.25, 2, LINEAR, 1.0)
    (q,), (take,) = B.homogeneous_response_batch([0.25], c, LINEAR, 1.0)
    assert q == pytest.approx(c.q_dagger) and not take
    _, (take_lo,) = B.homogeneous_response_batch([0.05], c, LINEAR, 1.0)
    _, (take_edge,) = B.homogeneous_response_batch([0.0625], c, LINEAR, 1.0)
    _, (take_out,) = B.homogeneous_response_batch([0.0626], c, LINEAR, 1.0)
    assert take_lo and take_edge and not take_out


def test_quadratic_participation_binds_at_theta_dagger():
    c = B.homogeneous_contract(0.5, 3, QUADRATIC, 1.0)
    _, (take_at,) = B.homogeneous_response_batch([0.5], c, QUADRATIC, 1.0)
    _, (take_above,) = B.homogeneous_response_batch([0.5001], c, QUADRATIC,
                                                    1.0)
    assert take_at and not take_above


def test_top_type_shirks_and_declines():
    c = B.homogeneous_contract(0.8, 3, LINEAR, 1.0)
    (q,), (take,) = B.homogeneous_response_batch([1.0], c, LINEAR, 1.0)
    assert q == 0.0 and not take


def test_homogeneous_predict_frozen():
    prior = GaussianPrior(0.0, 1.0)
    c = B.homogeneous_contract(0.25, 1, LINEAR, 1.0)   # q_dagger = 1
    assert c.q_dagger == pytest.approx(1.0)
    # one participant at the designed effort: un-shrink then re-shrink is the
    # identity, the report passes through
    assert B.homogeneous_predict(c, [0.5], prior) == pytest.approx(0.5)
    wide = GaussianPrior(0.7, 2.0)
    c2 = B.homogeneous_contract(0.0625, 2, LINEAR, 2.0)
    assert B.homogeneous_predict(c2, [0.7, 0.7], wide) == pytest.approx(0.7)
    assert B.homogeneous_predict(c, [], prior) == 0.0
    # fixing the denominator at N shrinks the aggregate toward the prior mean
    assert B.homogeneous_predict(c, [0.5], prior, n_denominator=3) == \
        pytest.approx(0.25)


def test_homogeneous_predict_degenerate_contract():
    prior = GaussianPrior(0.0, 1.0)
    c = B.homogeneous_contract(1.0, 1, LINEAR, 1.0)   # q_dagger = 0
    assert B.homogeneous_predict(c, [0.9], prior) == 0.0


def test_fallback_degenerate_contract_ties_baseline():
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    prior = GaussianPrior(0.0, 1.0)
    c = B.homogeneous_contract(1.0, 1, LINEAR, 1.0)
    run, value = B.homogeneous_fallback(c, u01, prior, 1, LINEAR)
    assert run and value == -1.0


def test_fallback_opts_out_when_contract_overpays():
    # a strong prior plus a pessimistic contract for many agents: paying
    # nearly everyone alpha buys less accuracy than predicting the prior mean
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    prior = GaussianPrior(0.0, 0.5)
    c = B.homogeneous_contract(0.95, 19, QUADRATIC, 0.5)
    run, value = B.homogeneous_fallback(c, u01, prior, 19, QUADRATIC)
    assert not run
    assert value < -0.5


def _two_agent_payoff(contract, cost_kind, type_dist, prior, full_n,
                      order=64):
    """Expected principal payoff at N = 2 by tensor-product Gauss-Legendre
    over the type square, built from the per-profile squared error and the
    participants' expected scores; no binomial mixture, no type moments."""
    var0, prec = prior.var0, prior.precision
    lo, hi = type_dist.theta_lo, type_dist.theta_hi
    # split where the integrand kinks: participation, the design point and
    # the linear response's clamp edge
    theta_star = B._participation_threshold(contract, type_dist, var0,
                                            cost_kind)
    kinks = (theta_star, contract.theta_dagger, contract.beta * var0 ** 2)
    cuts = sorted({lo, hi} | {t for t in kinks if lo < t < hi})
    x, wx = np.polynomial.legendre.leggauss(order)
    t = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x
                        for a, b in zip(cuts[:-1], cuts[1:])])
    wt = np.concatenate([0.5 * (b - a) * wx
                         for a, b in zip(cuts[:-1], cuts[1:])])
    wt = wt * type_dist.pdf(t)
    q, take = B.homogeneous_response_batch(t, contract, cost_kind, var0)
    b = np.where(take, q / (prec + q), 0.0)
    w = np.where(take, q / (prec + q) ** 2, 0.0)
    score = np.where(take, contract.alpha - contract.beta / (prec + q), 0.0)
    m = take[:, None].astype(int) + take[None, :]
    q_dag = contract.q_dagger
    den = prec + (2 if full_n else np.maximum(m, 1)) * q_dag
    c = np.where(m > 0, (q_dag + prec) / den, 0.0)
    sq_err = var0 * (1.0 - c * (b[:, None] + b[None, :])) ** 2 \
        + c ** 2 * (w[:, None] + w[None, :])
    payoff = -sq_err - score[:, None] - score[None, :]
    return float(wt @ payoff @ wt)


@pytest.mark.parametrize("full_n", [True, False])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_expected_payoff_matches_two_agent_quadrature(kind, full_n):
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    prior = GaussianPrior(0.0, 1.0)
    for td in (0.2, 0.5, 0.8):
        c = B.homogeneous_contract(td, 2, kind, prior.var0)
        exact = B.homogeneous_expected_payoff(c, u01, prior, 2, kind,
                                              2 if full_n else None)
        check = _two_agent_payoff(c, kind, u01, prior, full_n)
        assert abs(exact - check) <= 1e-6, (td, exact, check)


def _four_moment_payoff(contract, type_dist, prior, n, kind, n_den):
    """The expected payoff from E[b], E[b^2], E[w] and E[hA] of the
    participating types (b = q/(prec+q), w = q/(prec+q)^2, hA = 1/(prec+q)),
    each on the quadrature nodes homogeneous_expected_payoff uses."""
    var0, prec, q_dag = prior.var0, prior.precision, contract.q_dagger
    theta_star = B._participation_threshold(contract, type_dist, var0, kind)
    p = float(type_dist.cdf(theta_star))
    x, wts = B._moment_rule()
    lo, edge = max(type_dist.theta_lo, TYPE_CLAMP), contract.beta * var0 ** 2
    segments = [(lo, edge), (edge, theta_star)] \
        if kind == LINEAR and lo < edge < theta_star else [(lo, theta_star)]
    sums = np.zeros(5)   # b, b^2, w, hA and the mass
    for a, z in segments:
        t = 0.5 * (a + z) + 0.5 * (z - a) * x
        q, _ = B.homogeneous_response_batch(t, contract, kind, var0)
        h = 1.0 / (prec + q)
        for i, v in enumerate((q * h, (q * h) ** 2, q * h * h, h, 1.0)):
            sums[i] += 0.5 * (z - a) * np.sum(wts * type_dist.pdf(t) * v)
    eb, eb2, ew, eh = sums[:4] / sums[4]

    def err(m):
        if m == 0:
            return var0
        c = (q_dag + prec) / (prec + (m if n_den is None else n_den) * q_dag)
        shape = 1.0 - 2.0 * c * m * eb + c * c * (m * (eb2 - eb * eb)
                                                  + m * m * eb * eb)
        return var0 * shape + c * c * m * ew
    mse = sum(math.comb(n, m) * p ** m * (1.0 - p) ** (n - m) * err(m)
              for m in range(n + 1))
    return -mse - n * p * (contract.alpha - contract.beta * eh)


@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_expected_payoff_matches_the_four_moment_form(kind, var0):
    # the error given m participants needs E[hA] alone, since b = 1 - prec hA
    # and w = b hA; it equals the form over all four moments to roundoff
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    prior = GaussianPrior(0.3, var0)
    for n in (1, 2, 3, 8, 19):
        for td in (0.2, 0.5, 0.8):
            c = B.homogeneous_contract(td, n, kind, var0)
            for n_den in (None, n):
                got = B.homogeneous_expected_payoff(c, u01, prior, n, kind,
                                                    n_den)
                want = _four_moment_payoff(c, u01, prior, n, kind, n_den)
                assert abs(got - want) <= 1e-14 * abs(want), (n, td, n_den)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_flat_prior_posts_without_warnings(kind):
    # at var0 = inf a trial without a participant errs infinitely, so the
    # expected payoff is -inf and ties the no-action baseline: the contract
    # is posted, with no inf * 0 on the way
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    prior = GaussianPrior(0.3, math.inf)
    for n in (1, 2, 3, 8, 19):
        for denominator in ("participants", "full-n"):
            settings = engine.EngineSettings(hom_denominator=denominator)
            scen = Scenario(prior=prior, type_dist=u01, n_agents=n,
                            cost_model=linear_cost() if kind == LINEAR
                            else quadratic_cost())
            contract, posted, n_den, _ = engine._cell_state(
                scen, engine.homogeneous_spec(0.5), settings)
            assert posted, (n, denominator)
            assert B.homogeneous_fallback(contract, u01, prior, n, kind,
                                          n_den) == (True, -math.inf)


def _compliance_payoff(theta_dagger, n, type_dist, prior):
    # quadratic posted contract with participants who exert exactly q_dagger
    # instead of best-responding: types at or below theta_dagger join, each
    # earns its expected score theta_dagger q_dagger^2 / 2, full-n predictor
    var0, prec = prior.var0, prior.precision
    c = B.homogeneous_contract(theta_dagger, n, QUADRATIC, var0)
    q = c.q_dagger
    p = float(type_dist.cdf(theta_dagger))
    b, w = q / (prec + q), q / (prec + q) ** 2
    c_n = (q + prec) / (prec + n * q)
    mse = sum(math.comb(n, m) * p ** m * (1.0 - p) ** (n - m)
              * (var0 * (1.0 - c_n * m * b) ** 2 + c_n ** 2 * m * w)
              for m in range(n + 1))
    return -mse - n * p * 0.5 * theta_dagger * q ** 2


def test_quadratic_design_point_ordering_compliance_vs_best_response():
    # the paper's ordering 0.8 > 0.5 > 0.2 holds when participants comply
    # with q_dagger; best-responding participants (the modelled behaviour)
    # put 0.5 on top instead
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    prior = GaussianPrior(0.0, 1.0)
    for n in range(9, 20):
        lo, mid, hi = (_compliance_payoff(td, n, u01, prior)
                       for td in (0.2, 0.5, 0.8))
        assert hi > mid > lo, (n, lo, mid, hi)
        lo, mid, hi = (B.homogeneous_expected_payoff(
            B.homogeneous_contract(td, n, QUADRATIC, prior.var0), u01, prior,
            n, QUADRATIC, n_denominator=n) for td in (0.2, 0.5, 0.8))
        assert mid > hi > lo, (n, lo, mid, hi)


# -- posted contract away from a zero prior mean ------------------------------

def _posted_cell(mu0, n_trials=40_000):
    """Per-trial metrics of the quadratic posted contract (theta_dagger 0.3,
    N = 5, var0 = 1, full-n predictor) at prior mean mu0."""
    scen = Scenario(prior=GaussianPrior(mu0, 1.0),
                    type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                    n_agents=5, cost_model=quadratic_cost())
    settings = engine.EngineSettings(hom_denominator="full-n")
    return engine.run_batch(scen, engine.homogeneous_spec(0.3), 0, n_trials,
                            settings)


def test_posted_contract_exact_at_nonzero_prior_mean():
    # full-n counts non-participants at the prior mean, so the exact
    # expected payoff and per-trial squared error hold at mu0 = 2
    prior = GaussianPrior(2.0, 1.0)
    metrics = _posted_cell(prior.mu0)
    c = B.homogeneous_contract(0.3, 5, QUADRATIC, prior.var0)
    exact = B.homogeneous_expected_payoff(
        c, CostTypeDistribution.uniform(0.0, 1.0), prior, 5, QUADRATIC, 5)

    def mean_se(v):
        return v.mean(), v.std(ddof=1) / math.sqrt(v.size)

    payoff, se = mean_se(metrics["principal_payoff"])
    assert abs(payoff - exact) <= 3.0 * se, (payoff, exact, se)
    gap, se = mean_se(metrics["prediction_sq_error"]
                      - metrics["expected_sq_error"])
    assert abs(gap) <= 3.0 * se, (gap, se)


def test_posted_contract_payoffs_do_not_depend_on_prior_mean():
    # the latent state, every observation and every report move with mu0
    at0 = _posted_cell(0.0, n_trials=5_000)
    at2 = _posted_cell(2.0, n_trials=5_000)
    for k in engine.METRICS:
        assert np.allclose(at2[k], at0[k], rtol=0.0, atol=1e-9), k


# -- the posted contract evaluated only where it can be taken ------------------

CUT_CASES = [(kind, td, var0, n) for kind in (LINEAR, QUADRATIC)
             for td in (0.2, 0.5, 0.8) for var0 in (0.25, 1.0, 4.0)
             for n in (1, 3, 19)] \
    + [(kind, 0.5, math.inf, 3) for kind in (LINEAR, QUADRATIC)]


def _full_response(types, contract, kind, var0):
    q, take = B.homogeneous_response_batch(types, contract, kind, var0)
    return np.where(take, q, 0.0), take


@pytest.mark.parametrize("kind,td,var0,n", CUT_CASES)
def test_cut_designate_matches_full_response(kind, td, var0, n):
    # types crowd the cut and the participation threshold below it; the
    # masked designate step must give the full evaluation's (q, take) bit
    # for bit, and nobody above the cut may take the contract
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    contract = B.homogeneous_contract(td, n, kind, var0)
    cut = B.homogeneous_type_cut(contract, u01, var0, kind)
    star = B._participation_threshold(contract, u01, var0, kind)
    assert cut >= star
    gen = np.random.default_rng(3)
    centre = min(cut, 1.0)
    band = np.concatenate([
        gen.uniform(max(centre - 0.05, 1e-12), min(centre + 0.05, 1.0), 6000),
        centre * (1.0 + gen.uniform(-1e-6, 1e-6, 2000)),
        star * (1.0 + gen.uniform(-1e-9, 1e-9, 2000)),
        gen.uniform(1e-12, 1.0, 2000), [star, centre]])
    band = np.clip(band, 1e-12, 1.0)
    types = band[:band.size - band.size % n].reshape(-1, n)
    scen = Scenario(prior=GaussianPrior(0.0, var0), type_dist=u01,
                    n_agents=n, cost_model=linear_cost() if kind == LINEAR
                    else quadratic_cost())
    cell = engine._Cell(scen, engine.homogeneous_spec(td), 0,
                        engine.EngineSettings(), (contract, True, None, cut))
    draws = engine._Draws(np.zeros(types.shape[0]), types, None)
    _, flat, q, _ = engine._designate_homogeneous(cell, draws, 0)
    engaged = engine._Engaged(types.shape, flat)
    efforts, take = engaged.dense(q, 0.0), engaged.dense(True, False)
    want_q, want_take = _full_response(types, contract, kind, var0)
    assert np.array_equal(efforts, want_q)
    assert np.array_equal(take, want_take)
    assert not np.any(want_take & (types > cut))


def test_cut_is_finite_where_the_sweep_needs_it():
    # the headline contracts (var0 = 1) all admit a cut inside the type range
    u01 = CostTypeDistribution.uniform(0.0, 1.0)
    for kind in (LINEAR, QUADRATIC):
        for td in (0.2, 0.5, 0.8):
            for n in (3, 19):
                c = B.homogeneous_contract(td, n, kind, 1.0)
                assert B.homogeneous_type_cut(c, u01, 1.0, kind) < 1.0


def _designate_full(cell, draws, t0):
    """The engine's designate step with every type evaluated and every
    agent engaged; the terms are who takes the contract."""
    types = draws.types
    contract, posted, _, _ = cell.state
    if not posted:
        return None, None, np.zeros_like(types), \
            np.zeros(types.shape, dtype=bool)
    q, take = _full_response(types, contract, cell.scenario.cost_kind,
                             cell.scenario.prior.var0)
    return None, None, q, take


def _settle_full(cell, x, eng, efforts, obs, est, take):
    """The principal's side computed on every trial, participants or not;
    every agent is engaged, so the arrays are the (T, N) chunk's; idle
    agents file no report."""
    prior = cell.scenario.prior
    contract, posted, n_den, _ = cell.state
    reports = np.where(take, est, np.nan)
    if not posted:
        return np.full(x.size, prior.mu0), np.zeros_like(efforts), \
            np.full(x.size, prior.var0), reports, np.nan
    return (*_dense_settle(contract, x, reports, efforts, take, prior, n_den),
            reports, np.nan)


def _dense_settle(contract, x, reports, efforts, take, prior, n_den):
    """(prediction, payments, expected squared error) of (T, N) arrays:
    homogeneous_predict and the expected-squared-error formula over every
    agent, zeros where nobody takes the contract."""
    var0, prec, q_dag = prior.var0, prior.precision, contract.q_dagger
    prediction = B.homogeneous_predict(contract, reports, prior, n_den)
    payments = np.where(
        take, contract.alpha - contract.beta * (x[:, None] - reports) ** 2, 0.0)
    m = take.sum(axis=1)
    den = prec + (m if n_den is None else n_den) * q_dag
    b = np.where(take, efforts / (prec + efforts), 0.0)
    w = np.where(take, efforts / (prec + efforts) ** 2, 0.0)
    c_m = np.where(m > 0, (q_dag + prec) / np.where(den > 0, den, 1.0), 0.0)
    expected_sq = var0 * (1.0 - c_m * b.sum(axis=1)) ** 2 \
        + c_m ** 2 * w.sum(axis=1)
    return prediction, payments, expected_sq


@pytest.mark.parametrize("n_den", [None, 12])
@pytest.mark.parametrize("kind,var0", [(LINEAR, 1.0), (QUADRATIC, 4.0)])
def test_flat_settle_matches_the_dense_settle(kind, var0, n_den):
    # the settle from the takers' flat arrays equals the dense (T, N)
    # evaluation bit for bit, on trials with 0, 1, 2, 8 and 12 takers and
    # takers at zero effort, in chunks where some trials, no trial or every
    # trial has a taker
    N, prior = 12, GaussianPrior(0.3, var0)
    contract = B.homogeneous_contract(0.4, N, kind, var0)
    gen = np.random.default_rng(11)
    for takers in ([0, 1, 2, 8, 12], [0], [1, 2, 8, 12]):
        counts = np.repeat(takers, 40)
        take = np.argsort(gen.random((counts.size, N)), axis=1) \
            < counts[:, None]
        efforts = np.where(gen.random(take.shape) < 0.1, 0.0,
                           gen.uniform(0.0, 3.0, take.shape))
        est = gen.normal(0.3, 1.0, take.shape)
        x = gen.normal(0.3, 1.0, counts.size)
        eng = engine._Engaged(take.shape, np.flatnonzero(take))
        got = B.homogeneous_settle(contract, eng.at_trial(x), eng.take(est),
                                   eng.take(efforts), eng.counts(),
                                   eng.totals, prior, n_den)
        want = _dense_settle(contract, x, np.where(take, est, np.nan),
                             efforts, take, prior, n_den)
        for g, w in zip(got, (want[0], eng.take(want[1]), want[2])):
            assert g.shape == w.shape
            assert np.array_equal(g, w)
            assert np.all(np.signbit(g) == np.signbit(w))
        assert np.all(got[0][counts == 0] == 0.3)
        assert np.all(got[2][counts == 0] == var0)


@pytest.mark.parametrize("denominator", ["participants", "full-n"])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_posted_cells_match_full_evaluation(kind, denominator, monkeypatch):
    # every per-trial metric and record array of the posted-contract cells
    # equals the all-agents, all-trials evaluation bit for bit
    mechs = [engine.homogeneous_spec(td) for td in (0.2, 0.5, 0.8)]
    settings = engine.EngineSettings(chunk_size=1000,
                                     hom_denominator=denominator)
    cut_steps = engine._STEPS["homogeneous"]
    seen = set()
    for var0 in (0.25, 1.0, 4.0):
        for n in (1, 3, 19):
            scen = Scenario(prior=GaussianPrior(0.3, var0),
                            type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                            n_agents=n, cost_model=linear_cost()
                            if kind == LINEAR else quadratic_cost())
            for mech in mechs:
                _, posted, _, cut = engine._cell_state(scen, mech, settings)
                seen.add("posted" if posted else "opted out")
                if posted and cut < 1.0:
                    seen.add("cut")
            runs = []
            for steps in (cut_steps, (_designate_full, _settle_full)):
                monkeypatch.setitem(engine._STEPS, "homogeneous", steps)
                runs.append(list(engine._chunks(scen, mechs, 5, 0, 2500,
                                                settings)))
            for (i, got_m, got_s), (j, want_m, want_s) in zip(*runs):
                assert i == j
                for k, got, want in zip(engine.METRICS, got_m, want_m):
                    assert np.array_equal(got, want), (var0, n, k)
                got_r, want_r = got_s.record(), want_s.record()
                assert got_r.keys() == want_r.keys()
                for k in got_r:
                    assert np.array_equal(got_r[k], want_r[k],
                                          equal_nan=True), (var0, n, k)
    assert seen == {"posted", "opted out", "cut"}
