"""Agent-side behavior and numeric best-response oracles.

The oracles rebuild deviation payoffs from the raw payment components and the
agent's closed-form posterior risk instead of reusing the mechanism's own
optimality reasoning, so incentive checks run through an independent route.
The inner expectation over the latent state and the agent's own noise is
analytic (E[(x - report)^2 | q] = 1/(1/var0 + q) under truthful reporting);
Monte-Carlo is only over rival types, with common random numbers across
candidate reports.  A candidate's payoff depends on a draw only through one
summary of it: the lowest rival report under linear cost, the rivals' summed
inverse virtual costs under quadratic cost.

Each (scenario, n_mc >= 2, seed) is drawn once, sorted by that summary and
shared by all oracles (_rival_draws).  A linear candidate, and its rent
tail, is scored only on the draws where it undercuts every rival, a suffix
of the sorted draws (none if its effort clamps to 0); a quadratic one on
every draw.  A linear candidate's payoff is its own column, computed once
per oracle call, plus one per-draw term, the rent tail's antiderivative at
the lowest rival report; the terms are added in the association of the
broadcast transfer and payoff formulas, so each entry is bitwise the
broadcast one.  Each statistic adds the exact zeros of the unpaid draws, so
it is the dense draw-order one up to summation order, and every scored
entry is bitwise the dense entry.  The statistics reduce in scratch
buffers that each oracle call allocates for itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _rival_draws(scenario: Scenario, n_mc: int, seed: int) -> np.ndarray:
    """Ascending, read-only summaries of n_mc rival draws (the lowest rival
    report, inf without rivals, under linear cost; the summed inverse virtual
    costs under quadratic cost), drawn once per key; n_mc >= 2 for an SE."""
    kind = _closed_form_kind(scenario)
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2, got {n_mc}")
    return _sorted_draws(kind, scenario.type_dist, scenario.n_agents, n_mc,
                         seed)


@lru_cache(maxsize=4)
def _sorted_draws(kind, dist, n_agents, n_mc, seed) -> np.ndarray:
    gen = rng.generator(seed, n_agents, _STREAM_RIVALS)
    u = gen.random((n_mc, max(n_agents - 1, 1)))[:, :n_agents - 1]
    rivals = np.clip(dist.ppf(u), dist.theta_lo + TYPE_CLAMP, dist.theta_hi)
    if kind == LINEAR:      # the lowest rival, a column at a time
        summary = np.full(n_mc, np.inf)
        for c in rivals.T:
            np.minimum(summary, c, out=summary)
    else:
        summary = mechanism.inverse_cost_sum(rivals, dist.theta_lo)
    summary.sort()
    summary.setflags(write=False)
    return summary


def _scorer(theta: float, candidates: np.ndarray, effort_policy: str,
            scenario: Scenario, summary: np.ndarray):
    """score(i, j, k): the (j - i, n - k) COPE payoffs of an agent of type
    theta reporting each of candidates[i:j] against each of the draws
    summary[k:] (_rival_draws, in any order).  effort_policy: "optimal"
    (the agent's reply to the stake K) or "designated" (the mechanism's Q).

    A paid linear entry is pi - K/(prec+q) + S - C(q, theta) with pi = th Q
    + A(min(theta_hi, m)) - A(min(th, theta_hi)), A the clamped
    antiderivative (mechanism.linear_tail_anti) and m the draw's lowest
    rival report: only that one term depends on the draw.  The
    per-candidate columns and the per-draw row are computed once; a block
    adds them in the association of linear_winner_components and
    effort_payoff, so each entry is bitwise the broadcast one.  Only a
    winner (th < m) is paid, and not if its effort clamps to 0; the mask
    holds for draws in any order."""
    if effort_policy not in ("optimal", "designated"):
        raise ValueError(f"unknown effort policy {effort_policy!r}; use "
                         "'optimal' or 'designated'")
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0 = scenario.prior.var0
    prec = scenario.prior.precision
    # a (rows, 1) column, never a 0-d scalar: numpy's scalar power rounds
    # differently from its array loop
    th = candidates.reshape(-1, 1)
    if _closed_form_kind(scenario) != LINEAR:
        def score(i, j, k):
            Q, W = mechanism.quadratic_effort_at(th[i:j], summary[k:], lo,
                                                 var0)
            pi, K, S = mechanism.quadratic_transfers(
                th[i:j], Q, summary[k:], lo, hi, var0, W_from=W)
            q = reward_effort_quadratic(K, theta, prec) \
                if effort_policy == "optimal" else Q
            return effort_payoff(q, theta, K, S, pi, scenario.cost_model,
                                 prec)
        return score

    # a zero-width tail: the first component is the cost th Q alone
    thQ, K, S, Q = mechanism.linear_winner_components(th, th, lo, var0)
    q = optimal_effort_linear(K, theta, prec) \
        if effort_policy == "optimal" else Q
    tail_from = mechanism.linear_tail_anti(np.minimum(th, hi), lo, var0)
    reward = K / (prec + q)
    spent = cost(scenario.cost_model, q, theta)
    idle = Q[:, 0] == 0.0
    tail_to = mechanism.linear_tail_anti(np.minimum(hi, summary), lo, var0)

    def score(i, j, k):
        out = np.subtract(tail_to[k:], tail_from[i:j])
        out += thQ[i:j]
        out -= reward[i:j]
        out += S[i:j]
        out -= spent[i:j]
        np.copyto(out, 0.0, where=summary[k:] <= th[i:j])
        out[idle[i:j]] = 0.0
        return out
    return score


@dataclass(frozen=True)
class BestResponseType:
    theta_star: float
    argmax_set: np.ndarray    # candidate reports not distinguishable from best
    grid: np.ndarray
    payoffs: np.ndarray
    ses: np.ndarray
    paired_ses: np.ndarray    # SE of (best - candidate), common random numbers


#: candidate x draw elements scored at once, which bounds the temporaries of
#: the quadratic family's cubic roots
_BLOCK = 1 << 17


def _first_paid(candidates: np.ndarray, scenario: Scenario,
                summary: np.ndarray) -> np.ndarray:
    """Index of each candidate's first paid draw in the ascending summary;
    the candidate is paid on every draw from there on.  A linear candidate
    is paid only where it undercuts every rival, and nowhere if its effort
    clamps to 0; a quadratic candidate is paid on every draw."""
    if _closed_form_kind(scenario) != LINEAR:
        return np.zeros(candidates.size, dtype=int)
    live = mechanism.linear_effort_at(candidates, scenario.type_dist.theta_lo,
                                      scenario.prior.var0) > 0.0
    return np.where(live, np.searchsorted(summary, candidates, "right"),
                    summary.size)


def _score_blocks(theta: float, candidates: np.ndarray, scenario: Scenario,
                  summary: np.ndarray, effort_policy: str) -> list:
    """[(k, payoffs)]: consecutive candidates in blocks of at most _BLOCK
    elements, each scored (_scorer) against the ascending summary's
    draws from k, its first paid draw, on; every row is 0 before k.  A block
    takes no candidate whose paid suffix is under 3/4 of the block's, which
    bounds the columns scored in vain."""
    n = summary.size
    score = _scorer(theta, candidates, effort_policy, scenario, summary)
    first = _first_paid(candidates, scenario, summary)
    blocks = []
    i = 0
    while i < candidates.size:
        k, j = first[i], i + 1
        while (j < candidates.size and 4 * (n - first[j]) >= 3 * (n - k)
               and (j + 1 - i) * (n - min(k, first[j])) <= _BLOCK):
            k, j = min(k, first[j]), j + 1
        blocks.append((k, score(i, j, k)))
        i = j
    return blocks


class _Scratch:
    """One flat float buffer that an oracle call reduces its blocks in,
    grown to the largest (rows, columns) shape asked for and reused."""

    def __init__(self):
        self._flat = np.empty(0)

    def __call__(self, shape) -> np.ndarray:
        size = shape[0] * shape[1]
        if self._flat.size < size:
            self._flat = np.empty(size)
        return self._flat[:size].reshape(shape)


def _mean_se(values: np.ndarray, n: int, zeros: int, work: _Scratch,
             prefix: np.ndarray = np.empty(0)):
    """Mean and standard error of rows of n draws: `zeros` exact zeros, then
    the shared `prefix`, then each row of `values`.  The same sums as a dense
    row's mean and std(ddof=1), up to summation order.  The deviations are
    squared and summed in work, which values may occupy itself."""
    mean = values.sum(axis=1)
    mean += prefix.sum()
    mean /= n
    dev = np.subtract(values, mean[:, None], out=work(values.shape))
    np.square(dev, out=dev)
    ss = dev.sum(axis=1)
    dev = np.subtract(prefix, mean[:, None],
                      out=work((mean.size, prefix.size)))
    np.square(dev, out=dev)
    ss += dev.sum(axis=1)
    ss += zeros * np.square(mean)
    return mean, np.sqrt(ss / (n - 1)) / np.sqrt(n)


def interim_payoff(theta: float, theta_hat: float, effort_policy: str,
                   scenario: Scenario, n_mc: int = 10_000,
                   seed: int = 0) -> InterimPayoff:
    """Expected COPE payoff of an agent of type theta reporting theta_hat,
    all rivals truthful; Monte-Carlo over rival types only (the inner
    expectation is analytic).  effort_policy: "optimal" or "designated"."""
    [(k, values)] = _score_blocks(theta, np.array([theta_hat], dtype=float),
                                  scenario, _rival_draws(scenario, n_mc, seed),
                                  effort_policy)
    mean, se = _mean_se(values, n_mc, k, _Scratch())
    return InterimPayoff(value=float(mean[0]), se=float(se[0]), n_mc=n_mc)


def best_response_type(theta: float, scenario: Scenario, n_grid: int = 101,
                       n_mc: int = 10_000, seed: int = 0) -> BestResponseType:
    """Grid-search maximizer of the interim COPE payoff over deviation
    reports, with one refinement decade around the coarse argmax.  The agent
    plays the optimal effort for each candidate report."""
    lo, hi = scenario.type_dist.theta_lo, scenario.type_dist.theta_hi
    summary = _rival_draws(scenario, n_mc, seed)
    coarse = np.linspace(lo, hi, n_grid)
    step = (hi - lo) / (n_grid - 1)
    blocks = _score_blocks(theta, np.clip(coarse, lo + TYPE_CLAMP, hi),
                           scenario, summary, "optimal")
    work = _Scratch()
    stats = [_mean_se(values, n_mc, k, work) for k, values in blocks]
    t0 = coarse[int(np.argmax(np.concatenate([m for m, _ in stats])))]
    fine = np.linspace(max(lo, t0 - step), min(hi, t0 + step), 21)
    fine_blocks = _score_blocks(theta, np.clip(fine, lo + TYPE_CLAMP, hi),
                                scenario, summary, "optimal")
    blocks += fine_blocks
    stats += [_mean_se(values, n_mc, k, work) for k, values in fine_blocks]
    # a fine candidate equal to a coarse one keeps the coarse row
    grid, first = np.unique(np.concatenate([coarse, fine]), return_index=True)
    payoffs = np.concatenate([m for m, _ in stats])[first]
    ses = np.concatenate([se for _, se in stats])[first]
    best = int(np.argmax(payoffs))
    k_best, row = [(k, r) for k, values in blocks for r in values][first[best]]
    best_row = np.zeros(n_mc)
    best_row[k_best:] = row
    paired_ses = np.concatenate([
        _mean_se(np.subtract(best_row[k:], values, out=work(values.shape)),
                 n_mc, min(k, k_best), work, best_row[min(k, k_best):k])[1]
        for k, values in blocks])[first]
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
    the designated schedule, averaged over rival draws.  interim_payoff
    shares its draws, so the two agree to rounding; the bir suite combines
    their SEs as if independent, a conservative SE for the difference."""
    lo, hi = scenario.type_dist.theta_lo, scenario.type_dist.theta_hi
    var0 = scenario.prior.var0
    summary = _rival_draws(scenario, n_mc, seed)
    k = _first_paid(np.array([theta], dtype=float), scenario, summary)[0]
    if scenario.cost_kind == LINEAR:
        tail = mechanism.linear_tail_closed(theta, np.minimum(hi, summary[k:]),
                                            lo, var0)
    else:
        tail = 0.5 * mechanism.quadratic_pi_tail_gl(theta, summary, lo, hi,
                                                    var0)
    mean, se = _mean_se(tail[None, :], n_mc, k, _Scratch())
    return InterimPayoff(value=float(mean[0]), se=float(se[0]), n_mc=n_mc)
