"""Agent-side oracles: reporting, reward-driven effort, interim payoffs, and
the numeric best-response searches used by the incentive verification suite."""

import warnings

import numpy as np
import pytest

from copesim import agents, mechanism, rng, verify
from copesim.costs import LINEAR, QUADRATIC
from copesim.model import TYPE_CLAMP, GaussianPrior


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


def _payoffs(theta, candidates, effort_policy, scenario, summary):
    """The (candidates, draws) COPE payoffs of agents._scorer, every
    candidate against every draw."""
    candidates = np.asarray(candidates, dtype=float).reshape(-1)
    return agents._scorer(theta, candidates, effort_policy, scenario,
                          summary)(0, candidates.size, 0)


def _summaries_in_draw_order(scenario, n_mc, seed):
    """Each rival draw's summary in draw order, rebuilt from the rival
    stream: the lowest rival report under linear cost, the summed inverse
    virtual costs under quadratic cost."""
    dist = scenario.type_dist
    n_rivals = scenario.n_agents - 1
    gen = rng.generator(seed, scenario.n_agents, agents._STREAM_RIVALS)
    u = gen.random((n_mc, max(n_rivals, 1)))[:, :n_rivals]
    rivals = np.clip(dist.ppf(u), dist.theta_lo + TYPE_CLAMP, dist.theta_hi)
    if scenario.cost_kind == LINEAR:
        return rivals.min(axis=1, initial=np.inf)
    return mechanism.inverse_cost_sum(rivals, dist.theta_lo)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_rival_draws_are_the_sorted_rival_stream(make_scenario, kind, n):
    scen = make_scenario(kind, n)
    draws = agents._rival_draws(scen, 3000, 7)
    assert np.array_equal(draws, np.sort(_summaries_in_draw_order(scen, 3000,
                                                                  7)))


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_rival_draws_are_shared_and_read_only(make_scenario, kind):
    # equal but distinct scenarios share one draw
    first = agents._rival_draws(make_scenario(kind, 3), 2000, 1)
    assert agents._rival_draws(make_scenario(kind, 3), 2000, 1) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    other = agents._rival_draws(make_scenario(kind, 3), 2000, 2)
    assert not np.array_equal(other, first)


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_suite_bir_draws_each_key_once(monkeypatch, kind):
    # interim_payoff and information_rent of one instance share a draw
    keys = []
    generator = rng.generator

    def counting(seed, n_agents, stream):
        if stream == agents._STREAM_RIVALS:
            keys.append((seed, n_agents))
        return generator(seed, n_agents, stream)

    agents._sorted_draws.cache_clear()
    monkeypatch.setattr(rng, "generator", counting)
    checks = verify.suite_bir(kind, seed=3, n_instances=2, n_mc=500)
    assert verify.suite_passed(checks)
    # two instances and three top types, each its own key unless one
    # repeats an instance's
    assert 3 <= len(keys) == len(set(keys)) <= 5


@pytest.mark.parametrize("n_mc", [0, 1])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_oracles_reject_fewer_than_two_draws(make_scenario, kind, n_mc):
    scen = make_scenario(kind, 3)
    for oracle in (lambda: agents.interim_payoff(0.3, 0.3, "optimal", scen,
                                                 n_mc=n_mc),
                   lambda: agents.information_rent(0.3, scen, n_mc=n_mc),
                   lambda: agents.best_response_type(0.3, scen, n_mc=n_mc)):
        with pytest.raises(ValueError, match=f"n_mc must be >= 2, got {n_mc}"):
            oracle()


@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_interim_estimates_match_dense_draw_order(make_scenario, kind, n,
                                                  var0):
    # 0.7 lies above the linear clamp point at var0 = 0.25 and 1; 1.0 is
    # the top type.  The statistics differ only in summation order.
    scen = make_scenario(kind, n, var0=var0)
    lo, hi = scen.type_dist.theta_lo, scen.type_dist.theta_hi
    n_mc = 4000 if kind == LINEAR else 2000
    summary = _summaries_in_draw_order(scen, n_mc, 5)
    got, want = [], []

    def dense(draws):
        return draws.mean(), draws.std(ddof=1) / np.sqrt(n_mc)

    for theta, theta_hat in ((0.3, 0.3), (0.3, 0.15), (0.3, 0.5),
                             (0.7, 0.7), (1.0, 1.0)):
        for policy in ("optimal", "designated"):
            p = agents.interim_payoff(theta, theta_hat, policy, scen,
                                      n_mc=n_mc, seed=5)
            got.append((p.value, p.se))
            want.append(dense(_payoffs(
                theta, [theta_hat], policy, scen, summary)[0]))
        r = agents.information_rent(theta, scen, n_mc=n_mc, seed=5)
        got.append((r.value, r.se))
        want.append(dense(
            mechanism.linear_tail_closed(theta, np.minimum(hi, summary), lo,
                                         var0) if kind == LINEAR else
            0.5 * mechanism.quadratic_pi_tail_gl(theta, summary, lo, hi,
                                                 var0)))
    got, want = np.array(got), np.array(want)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


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
    # each row must be bitwise what the candidate scores alone; 2^15 draws
    # make the oracle's blocks at most 4 quadratic candidates, each row of
    # which is bitwise that row on its paid suffix and exactly 0 before it
    scen = make_scenario(kind, 3)
    summary = agents._rival_draws(scen, 1 << 15, 4)
    candidates = np.linspace(0.05, 0.95, 9)
    for policy in ("designated", "optimal"):
        together = _payoffs(0.4, candidates, policy, scen, summary)
        for row, th in zip(together, candidates):
            alone = _payoffs(0.4, [th], policy, scen, summary)
            assert np.array_equal(row, alone[0])
        blocks = agents._score_blocks(0.4, candidates, scen, summary, policy)
        assert len(blocks) > 1
        rows = [(k, r) for k, values in blocks for r in values]
        assert len(rows) == candidates.size
        for (k, row), full in zip(rows, together):
            assert not full[:k].any()
            assert np.array_equal(row, full[k:])


def _broadcast_linear_payoffs(theta, candidates, policy, scenario, summary):
    """The linear payoff matrix as one broadcast of the winner's transfer
    components and effort_payoff over (candidates, draws), the paid mask
    applied last: the reference for the column-and-row build."""
    lo, hi = scenario.type_dist.theta_lo, scenario.type_dist.theta_hi
    var0, prec = scenario.prior.var0, scenario.prior.precision
    th = np.asarray(candidates, dtype=float).reshape(-1, 1)
    pi, K, S, Q = mechanism.linear_winner_components(
        th, np.minimum(hi, summary), lo, var0)
    paid = (th < summary) & (Q > 0.0)
    q = agents.optimal_effort_linear(K, theta, prec) \
        if policy == "optimal" else Q
    return np.where(paid, agents.effort_payoff(q, theta, K, S, pi,
                                               scenario.cost_model, prec),
                    0.0)


@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0, np.inf])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_linear_payoffs_match_the_broadcast_bit_for_bit(make_scenario, n,
                                                        var0):
    # sorted and draw-order draws (all +inf at N = 1), candidates equal to
    # a draw, at the clamp point and above it, and the top type
    scen = make_scenario(LINEAR, n, var0=var0)
    lo, hi = scen.type_dist.theta_lo, scen.type_dist.theta_hi
    draw_order = _summaries_in_draw_order(scen, 3000, 3)
    assert np.all(np.isinf(draw_order)) == (n == 1)
    clamp = mechanism.linear_clamp_point(lo, var0)
    candidates = np.concatenate([
        np.clip(np.linspace(lo, hi, 41), lo + TYPE_CLAMP, hi),
        draw_order[np.isfinite(draw_order)][:3],
        [c for c in (clamp, np.nextafter(clamp, 0.0), clamp + 0.01)
         if lo < c <= hi]])
    if n > 1:
        assert np.isin(candidates, draw_order).sum() == 3
    for summary in (draw_order, np.sort(draw_order)):
        for policy in ("optimal", "designated"):
            got = _payoffs(0.3, candidates, policy, scen, summary)
            want = _broadcast_linear_payoffs(0.3, candidates, policy, scen,
                                             summary)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            if var0 < 4.0:
                assert not got[candidates >= clamp].any()


def test_oracle_results_do_not_depend_on_call_order(make_scenario):
    # each call reduces in its own scratch buffers: A, then B, then A again
    # gives A bitwise
    calls = [lambda: agents.best_response_type(0.3, make_scenario(LINEAR, 3),
                                               n_mc=4000, seed=1),
             lambda: agents.best_response_type(0.6, make_scenario(LINEAR, 7),
                                               n_mc=9000, seed=2)]
    first = [calls[0](), calls[1](), calls[0]()]
    assert not np.array_equal(first[0].payoffs, first[1].payoffs)
    for name in ("theta_star", "argmax_set", "grid", "payoffs", "ses",
                 "paired_ses"):
        a, again = getattr(first[0], name), getattr(first[2], name)
        assert np.asarray(a).tobytes() == np.asarray(again).tobytes(), name
    scen = make_scenario(LINEAR, 4)
    pay = agents.interim_payoff(0.3, 0.25, "optimal", scen, n_mc=5000)
    agents.best_response_type(0.3, scen, n_mc=5000)
    assert agents.interim_payoff(0.3, 0.25, "optimal", scen,
                                 n_mc=5000) == pay


def _dense_best_response_type(theta, scenario, n_grid=101, n_mc=10_000,
                              seed=0):
    """The oracle as a dense (candidates, draws) payoff matrix in draw
    order, rows concatenated and reduced with numpy's mean and std: the
    reference for the paid-suffix scoring."""
    lo, hi = scenario.type_dist.theta_lo, scenario.type_dist.theta_hi
    summary = _summaries_in_draw_order(scenario, n_mc, seed)
    coarse = np.linspace(lo, hi, n_grid)
    step = (hi - lo) / (n_grid - 1)
    draws = _payoffs(theta, np.clip(coarse, lo + TYPE_CLAMP, hi), "optimal",
                     scenario, summary)
    t0 = coarse[int(np.argmax(draws.mean(axis=1)))]
    fine = np.linspace(max(lo, t0 - step), min(hi, t0 + step), 21)
    grid, first = np.unique(np.concatenate([coarse, fine]), return_index=True)
    draws = np.concatenate([draws, _payoffs(
        theta, np.clip(fine, lo + TYPE_CLAMP, hi), "optimal", scenario,
        summary)])[first]
    payoffs = draws.mean(axis=1)
    ses = draws.std(axis=1, ddof=1) / np.sqrt(n_mc)
    best = int(np.argmax(payoffs))
    paired_ses = (draws[best] - draws).std(axis=1, ddof=1) / np.sqrt(n_mc)
    in_set = payoffs[best] - payoffs <= 3.0 * paired_ses + 1e-12
    return agents.BestResponseType(
        theta_star=float(grid[best]), argmax_set=grid[in_set], grid=grid,
        payoffs=payoffs, ses=ses, paired_ses=paired_ses)


def _assert_matches_dense(br, ref):
    # the statistics differ only in summation order
    assert np.array_equal(br.grid, ref.grid)
    assert np.array_equal(br.argmax_set, ref.argmax_set)
    assert br.theta_star == ref.theta_star
    for name in ("payoffs", "ses", "paired_ses"):
        got, want = getattr(br, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_best_response_type_matches_dense_oracle(make_scenario, kind, n,
                                                  var0):
    # 0.7 lies above the linear clamp point (var0^2 + theta_lo)/2 at var0 =
    # 0.25 and 1, where every candidate ties at the rounding level
    scen = make_scenario(kind, n, var0=var0)
    n_mc = 10_000 if kind == LINEAR else 2_000
    for i, theta in enumerate((0.3, 0.7)):
        br = agents.best_response_type(theta, scen, n_mc=n_mc, seed=i)
        _assert_matches_dense(br, _dense_best_response_type(
            theta, scen, n_mc=n_mc, seed=i))


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_best_response_type_matches_dense_oracle_on_two_draws(make_scenario,
                                                              kind):
    scen = make_scenario(kind, 3)
    for seed in range(4):
        _assert_matches_dense(
            agents.best_response_type(0.3, scen, n_mc=2, seed=seed),
            _dense_best_response_type(0.3, scen, n_mc=2, seed=seed))


def test_unpaid_linear_candidates_score_exactly_zero(make_scenario):
    # above the clamp point 1/32 at var0 = 0.25 no candidate's effort is
    # positive, so its paid suffix is empty; one rival lies below 0.2 in
    # every draw, so candidates from 0.2 on never win
    for var0, cut in ((0.25, 1.0 / 32.0), (4.0, 0.2)):
        scen = make_scenario(LINEAR, 40 if var0 == 4.0 else 3, var0=var0)
        summary = agents._rival_draws(scen, 1000, 1)
        if var0 == 4.0:
            assert summary[-1] < cut
        br = agents.best_response_type(0.5, scen, n_mc=1000, seed=1)
        unpaid = br.grid > cut
        assert unpaid.sum() >= 70
        # scored on no draw at all
        first = agents._first_paid(br.grid[unpaid], scen, summary)
        assert np.all(first == summary.size)
        assert np.all(br.payoffs[unpaid] == 0.0)
        assert np.all(br.ses[unpaid] == 0.0)
        _assert_matches_dense(br, _dense_best_response_type(
            0.5, scen, n_mc=1000, seed=1))


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
