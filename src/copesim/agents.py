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
from typing import Optional, Union

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


def _linear_payoff_draws(theta: float, theta_hat, rivals: np.ndarray,
                         scenario: Scenario, effort_policy) -> np.ndarray:
    """(n_candidates, n_mc) payoff matrix for deviation reports under the
    linear-cost mechanism; theta_hat may be scalar or vector."""
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))[:, None]   # (C,1)
    m = rivals.min(axis=1)[None, :] if rivals.shape[1] else \
        np.full((1, rivals.shape[0]), np.inf)                          # (1,D)
    win = th < m
    Q = mechanism.linear_effort_at(th, lo, var0)                       # (C,1)
    g = 2.0 * th - lo
    K = th / g
    S = th * g ** -0.5
    pi = th * Q + mechanism.linear_tail_closed(th, np.minimum(hi, m), lo, var0)
    if effort_policy == "optimal":
        q = optimal_effort_linear(K, theta, prec)
    elif effort_policy == "designated":
        q = Q
    else:
        q = float(effort_policy) + np.zeros_like(th)
    inner = pi - K / (prec + q) + S - theta * q
    # zero rule: a winner whose designated effort clamps to 0 is not paid
    payoff = np.where(win & (Q > 0.0), inner, 0.0)
    return payoff


def _quadratic_payoff_draws(theta: float, theta_hat, rivals: np.ndarray,
                            scenario: Scenario, effort_policy) -> np.ndarray:
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    th_c = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    gam_rest = 2.0 * rivals - lo
    s_rest = (1.0 / gam_rest).sum(axis=1) if rivals.shape[1] else \
        np.zeros(rivals.shape[0])                                      # (D,)
    out = np.empty((th_c.size, s_rest.size))
    for i, th in enumerate(th_c):
        gam = mechanism._virtual_costs(th, lo)
        W = mechanism.cubic_root(prec, s_rest + 1.0 / gam)
        Q = 1.0 / (gam * W * W)                                        # (D,)
        K = (prec + Q) ** 2 * Q * th
        S = (prec + Q) * Q * th
        tail = mechanism.quadratic_pi_tail_gl(np.full_like(s_rest, th), s_rest,
                                              lo, hi, var0)
        pi = 0.5 * (th * Q ** 2 + tail)
        if effort_policy == "optimal":
            q = reward_effort_quadratic(K, theta, prec)
        elif effort_policy == "designated":
            q = Q
        else:
            q = np.full_like(Q, float(effort_policy))
        out[i] = pi - K / (prec + q) + S - 0.5 * theta * q ** 2
    return out


def _homogeneous_payoff(theta: float, scenario: Scenario, contract) -> float:
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    kind = scenario.cost_kind
    beta = contract.beta
    if kind == LINEAR:
        q = float(optimal_effort_linear(beta, theta, prec))
        c = theta * q
    elif kind == QUADRATIC:
        q = float(reward_effort_quadratic(beta, theta, prec))
        c = 0.5 * theta * q ** 2
    else:
        raise ValueError(f"homogeneous benchmark has no {kind} cost variant")
    payoff = contract.alpha - beta / (prec + q) - c
    return payoff if payoff >= 0.0 else 0.0   # negative -> opt out, payoff 0


def _payoff_matrix(theta: float, candidates, effort_policy, mech: str,
                   scenario: Scenario, rivals: np.ndarray,
                   contract=None) -> np.ndarray:
    if mech == "homogeneous":
        if contract is None:
            raise ValueError("homogeneous oracle needs the contract")
        value = _homogeneous_payoff(theta, scenario, contract)
        n_c = np.atleast_1d(np.asarray(candidates, dtype=float)).size
        return np.full((n_c, rivals.shape[0]), value)
    if mech != "cope":
        raise ValueError(f"unknown mechanism {mech!r}")
    kind = scenario.cost_kind
    if kind == LINEAR:
        return _linear_payoff_draws(theta, candidates, rivals, scenario,
                                    effort_policy)
    if kind == QUADRATIC:
        return _quadratic_payoff_draws(theta, candidates, rivals, scenario,
                                       effort_policy)
    raise ValueError(
        "the best-response oracle needs a closed-form payment path; "
        f"cost kind {kind!r} is not supported")


def interim_payoff(theta: float, theta_hat: float, effort_policy,
                   mech: str, scenario: Scenario, n_mc: int = 10_000,
                   seed: int = 0, contract=None) -> InterimPayoff:
    """Expected payoff of an agent of type theta reporting theta_hat, all
    rivals truthful; Monte-Carlo over rival types only (the inner expectation
    is analytic).  effort_policy: "optimal", "designated", or a fixed level.
    """
    rivals = _rival_types(scenario, n_mc, seed)
    draws = _payoff_matrix(theta, [theta_hat], effort_policy, mech,
                           scenario, rivals, contract)[0]
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


def best_response_type(theta: float, mech: str, scenario: Scenario,
                       n_grid: int = 101, n_mc: int = 10_000, seed: int = 0,
                       contract=None, refine: bool = True) -> BestResponseType:
    """Grid-search maximizer of the interim payoff over deviation reports,
    with one refinement decade around the coarse argmax.  The agent plays the
    optimal effort for each candidate report."""
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    rivals = _rival_types(scenario, n_mc, seed)
    coarse = np.linspace(lo, hi, n_grid)
    grid = coarse
    if refine:
        step = (hi - lo) / (n_grid - 1)
        draws = _payoff_matrix(theta, np.clip(coarse, lo + TYPE_CLAMP, hi),
                               "optimal", mech, scenario, rivals, contract)
        t0 = coarse[int(np.argmax(draws.mean(axis=1)))]
        fine = np.linspace(max(lo, t0 - step), min(hi, t0 + step), 21)
        grid = np.unique(np.concatenate([coarse, fine]))
    draws = _payoff_matrix(theta, np.clip(grid, lo + TYPE_CLAMP, hi),
                           "optimal", mech, scenario, rivals, contract)
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
                         theta_hat: Optional[float] = None,
                         theta_rest=(), q_max: Optional[float] = None,
                         tol: float = 1e-12) -> float:
    """Golden-section maximizer of the analytic interim payoff
    pi - K/(prec+q) + S - C(q, theta) over [0, q_max], given a truthful (or
    specified) type report and realized rival reports."""
    if theta_hat is None:
        theta_hat = theta
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    rest = np.asarray(theta_rest, dtype=float)
    kind = scenario.cost_kind
    reports = np.concatenate([[theta_hat], rest])
    if kind == LINEAR:
        rule = mechanism.payment_rule_linear(reports, lo, hi, var0)
    elif kind == QUADRATIC:
        rule = mechanism.payment_rule_quadratic(reports, lo, hi, var0)
    else:
        raise ValueError(
            f"best_response_effort supports closed payment paths, not {kind!r}")
    K, S, pi = rule.K[0], rule.S[0], rule.pi[0]
    if K == 0.0:
        return 0.0   # payoff strictly decreasing in effort
    if q_max is None:
        q_max = 2.0 * (np.sqrt(K / theta) + np.cbrt(K / theta)) + 10.0
    phi = lambda q: float(effort_payoff(q, theta, K, S, pi,
                                        scenario.cost_model, prec))
    a, b = 0.0, float(q_max)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > tol:
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
    kind = scenario.cost_kind
    if kind == LINEAR:
        m = rivals.min(axis=1) if rivals.shape[1] else \
            np.full(rivals.shape[0], np.inf)
        draws = mechanism.linear_tail_closed(theta, np.minimum(hi, m), lo, var0)
    elif kind == QUADRATIC:
        gam_rest = 2.0 * rivals - lo
        s_rest = (1.0 / gam_rest).sum(axis=1) if rivals.shape[1] else \
            np.zeros(rivals.shape[0])
        tail = mechanism.quadratic_pi_tail_gl(np.full_like(s_rest, theta),
                                              s_rest, lo, hi, var0)
        draws = 0.5 * tail
    else:
        raise ValueError(f"no closed-form rent for cost kind {kind!r}")
    draws = np.asarray(draws, dtype=float)
    se = float(draws.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return InterimPayoff(value=float(draws.mean()), se=se, n_mc=n_mc)
