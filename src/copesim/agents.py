"""Agent-side behavior and numeric best-response oracles.

The oracles rebuild deviation payoffs from the raw payment components and the
agent's closed-form posterior risk instead of reusing the mechanism's own
optimality reasoning, so incentive checks run through an independent route.
The inner expectation over the latent state and the agent's own noise is
analytic (E[(x - report)^2 | q] = 1/(1/var0 + q) under truthful reporting);
Monte-Carlo is only over rival types, with common random numbers across
candidate reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mechanism, rng
from .costs import CostModel, LINEAR, QUADRATIC, cost
from .model import TYPE_CLAMP, Scenario

# rng.generator stream tags for oracle draws
_STREAM_RIVALS = 101

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def truthful_report_obs(y, q, prior):
    """Posterior-mean shrinkage of the raw observation toward the prior mean;
    the exact minimizer of the agent's expected squared report error."""
    scalar = np.ndim(y) == 0 and np.ndim(q) == 0
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    prec = prior.precision
    denom = prec + q
    out = np.where(denom > 0, (prior.mu0 * prec + y * q) / np.where(denom > 0, denom, 1.0),
                   prior.mu0)
    return float(out) if scalar else out


def optimal_effort_linear(K, theta, prec):
    """Best response to a squared-error reward of weight K under linear cost:
    argmax_q -K/(prec+q) - theta q = max{sqrt(K/theta) - prec, 0}."""
    K = np.asarray(K, dtype=float)
    return np.maximum(np.sqrt(np.maximum(K, 0.0) / theta) - prec, 0.0)


def reward_effort_quadratic(K, theta, prec) -> np.ndarray:
    """Positive root of K/(prec+q)^2 = theta q (the effort first-order
    condition under quadratic cost).  K = 0 -> 0.

    With v = prec + q and c = K/theta this is the mechanism's cubic
    v^3 - prec v^2 = c.  q = c/v^2 sidesteps the cancellation in v - prec at
    small q, and one Newton step on q (prec+q)^2 = c polishes the last bits.
    """
    K = np.asarray(K, dtype=float)
    c = np.maximum(K, 0.0) / np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):   # K = 0, prec = 0
        v = mechanism.cubic_root(prec, c)
        q = c / (v * v)
        vq = prec + q
        q = q - (q * vq * vq - c) / (vq * (prec + 3.0 * q))
    return np.where(K > 0.0, q, 0.0)


def effort_payoff(q, theta, K, S, pi, cost_model: CostModel, prec: float):
    """Agent's interim payoff at effort q after truthful observation
    reporting: pi - K/(prec+q) + S - C(q, theta)."""
    q = np.asarray(q, dtype=float)
    return pi - K / (prec + q) + S - cost(cost_model, q, theta)


@dataclass(frozen=True)
class InterimPayoff:
    value: float
    se: float
    n_mc: int


def _rival_types(scenario: Scenario, n_mc: int, seed: int) -> np.ndarray:
    """(n_mc, N-1) rival type draws; the same (seed, scenario) key always
    yields the same draws, which is what makes paired comparisons exact."""
    n_rivals = scenario.n_agents - 1
    gen = rng.generator(seed, scenario.n_agents, _STREAM_RIVALS)
    u = gen.random((n_mc, max(n_rivals, 1)))[:, :n_rivals]
    dist = scenario.type_dist
    th = dist.ppf(u)
    return np.clip(th, dist.theta_lo + TYPE_CLAMP, dist.theta_hi)


def _closed_form_kind(scenario: Scenario) -> str:
    """Cost kind of a scenario with closed-form COPE transfers: linear or
    quadratic cost with uniform types, whose virtual cost 2*theta - theta_lo
    the transfers are written for."""
    kind = scenario.cost_kind
    if kind not in (LINEAR, QUADRATIC):
        raise ValueError(
            f"no closed-form COPE transfers for cost kind {kind!r}")
    if scenario.type_dist.kind != "uniform":
        raise ValueError("the closed-form COPE transfers need uniform types")
    return kind


#: candidate x draw elements scored at once, which bounds the temporaries of
#: the quadratic family's cubic roots
_BLOCK = 1 << 17


def _payoff_matrix(theta: float, candidates, effort_policy,
                   scenario: Scenario, rivals: np.ndarray) -> np.ndarray:
    """(n_candidates, n_mc) COPE payoffs of an agent of type theta reporting
    each candidate against each rival draw.  effort_policy: "optimal" (the
    agent's reply to the stake K) or "designated" (the mechanism's Q)."""
    if effort_policy not in ("optimal", "designated"):
        raise ValueError(f"unknown effort policy {effort_policy!r}; use "
                         "'optimal' or 'designated'")
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    if _closed_form_kind(scenario) == LINEAR:
        m = rivals.min(axis=1, initial=np.inf)
        reply = optimal_effort_linear

        def components(th):
            pi, K, S, Q = mechanism.linear_winner_components(
                th, np.minimum(hi, m), lo, var0)
            # only a winner is paid, and not if its effort clamps to 0
            return pi, K, S, Q, (th < m) & (Q > 0.0)
    else:
        s_rest = mechanism.inverse_cost_sum(rivals, lo)
        reply = reward_effort_quadratic

        def components(th):
            Q = mechanism.quadratic_effort_at(th, s_rest, lo, var0)
            return (*mechanism.quadratic_transfers(th, Q, s_rest, lo, hi, var0),
                    Q, True)
    th_c = np.asarray(candidates, dtype=float)
    out = np.empty((th_c.size, rivals.shape[0]))
    rows = max(1, _BLOCK // max(rivals.shape[0], 1))
    for start in range(0, th_c.size, rows):
        pi, K, S, Q, paid = components(th_c[start:start + rows, None])
        q = reply(K, theta, prec) if effort_policy == "optimal" else Q
        out[start:start + rows] = np.where(paid, effort_payoff(
            q, theta, K, S, pi, scenario.cost_model, prec), 0.0)
    return out


def interim_payoff(theta: float, theta_hat: float, effort_policy: str,
                   scenario: Scenario, n_mc: int = 10_000,
                   seed: int = 0) -> InterimPayoff:
    """Expected COPE payoff of an agent of type theta reporting theta_hat,
    all rivals truthful; Monte-Carlo over rival types only (the inner
    expectation is analytic).  effort_policy: "optimal" or "designated".
    """
    rivals = _rival_types(scenario, n_mc, seed)
    draws = _payoff_matrix(theta, [theta_hat], effort_policy, scenario,
                           rivals)[0]
    se = float(draws.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return InterimPayoff(value=float(draws.mean()), se=se, n_mc=n_mc)


@dataclass(frozen=True)
class BestResponseType:
    theta_star: float
    argmax_set: np.ndarray    # candidate reports not distinguishable from best
    grid: np.ndarray
    payoffs: np.ndarray
    ses: np.ndarray
    paired_ses: np.ndarray    # SE of (best - candidate), common random numbers


def best_response_type(theta: float, scenario: Scenario, n_grid: int = 101,
                       n_mc: int = 10_000, seed: int = 0) -> BestResponseType:
    """Grid-search maximizer of the interim COPE payoff over deviation
    reports, with one refinement decade around the coarse argmax.  The agent
    plays the optimal effort for each candidate report."""
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    rivals = _rival_types(scenario, n_mc, seed)
    coarse = np.linspace(lo, hi, n_grid)
    step = (hi - lo) / (n_grid - 1)
    draws = _payoff_matrix(theta, np.clip(coarse, lo + TYPE_CLAMP, hi),
                           "optimal", scenario, rivals)
    t0 = coarse[int(np.argmax(draws.mean(axis=1)))]
    fine = np.linspace(max(lo, t0 - step), min(hi, t0 + step), 21)
    # a fine candidate equal to a coarse one keeps the coarse row
    grid, first = np.unique(np.concatenate([coarse, fine]), return_index=True)
    draws = np.concatenate([draws, _payoff_matrix(
        theta, np.clip(fine, lo + TYPE_CLAMP, hi), "optimal", scenario,
        rivals)])[first]
    payoffs = draws.mean(axis=1)
    ses = draws.std(axis=1, ddof=1) / np.sqrt(n_mc)
    best = int(np.argmax(payoffs))
    diff = draws[best] - draws
    paired_ses = diff.std(axis=1, ddof=1) / np.sqrt(n_mc)
    in_set = payoffs[best] - payoffs <= 3.0 * paired_ses + 1e-12
    return BestResponseType(theta_star=float(grid[best]),
                            argmax_set=grid[in_set], grid=grid,
                            payoffs=payoffs, ses=ses, paired_ses=paired_ses)


def best_response_effort(theta: float, scenario: Scenario,
                         theta_rest=()) -> float:
    """Golden-section maximizer, to a bracket of 1e-12, of the analytic
    interim payoff pi - K/(prec+q) + S - C(q, theta) over [0, q_max], given a
    truthful type report and realized rival reports; q_max bounds the
    optimum of either cost family."""
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    rest = np.asarray(theta_rest, dtype=float)
    payment_rule = (mechanism.payment_rule_linear
                    if _closed_form_kind(scenario) == LINEAR
                    else mechanism.payment_rule_quadratic)
    rule = payment_rule(np.concatenate([[theta], rest]), lo, hi, var0)
    K, S, pi = rule.K[0], rule.S[0], rule.pi[0]
    if K == 0.0:
        return 0.0   # payoff strictly decreasing in effort
    q_max = 2.0 * (np.sqrt(K / theta) + np.cbrt(K / theta)) + 10.0
    phi = lambda q: float(effort_payoff(q, theta, K, S, pi,
                                        scenario.cost_model, prec))
    a, b = 0.0, float(q_max)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = phi(d)
    return 0.5 * (a + b)


def information_rent(theta: float, scenario: Scenario, n_mc: int = 10_000,
                     seed: int = 0) -> InterimPayoff:
    """Expected truthful surplus from the type-derivative envelope: the
    integral over reports above theta of the type-derivative of the cost along
    the designated schedule, averaged over rival draws.  Uses the same rival
    stream as interim_payoff so the comparison is paired."""
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    rivals = _rival_types(scenario, n_mc, seed)
    if _closed_form_kind(scenario) == LINEAR:
        draws = mechanism.linear_tail_closed(
            theta, np.minimum(hi, rivals.min(axis=1, initial=np.inf)), lo, var0)
    else:
        draws = 0.5 * mechanism.quadratic_pi_tail_gl(
            theta, mechanism.inverse_cost_sum(rivals, lo), lo, hi, var0)
    se = float(draws.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return InterimPayoff(value=float(draws.mean()), se=se, n_mc=n_mc)
