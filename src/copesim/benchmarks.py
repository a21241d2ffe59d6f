"""Comparison systems: the integrated (centralized) planner and the
single-belief homogeneous mechanism.

The homogeneous mechanism posts one contract computed as if every agent had
cost type theta_dagger.  The types at or below a closed-form threshold take
it and respond non-truthfully (their effort solves their own first-order
condition against the posted reward weight), the principal aggregates
reports while wrongly assuming everyone exerted the designed effort, and she
opts out entirely when her exact expected payoff falls below the no-action
baseline.  The opt-out decision is deterministic:
a binomial mixture over the participant count against closed-form / quadrature
type moments, no Monte-Carlo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import mechanism
from .agents import optimal_effort_linear, reward_effort_quadratic
# perfbench's tracer wraps benchmarks.cost, so the name stays importable here
from .costs import LINEAR, QUADRATIC, cost  # noqa: F401
from .model import CostTypeDistribution, GaussianPrior, TYPE_CLAMP


# -- centralized (integrated) planner -----------------------------------------

def centralized_efforts(theta, cost_kind: str, var0: float) -> np.ndarray:
    """First-best effort profile for known types: linear cost concentrates all
    effort on the cheapest agent (the lowest index on ties), quadratic cost
    spreads it through the same cubic as the mechanism but with raw instead
    of virtual costs.  Vectorized over the leading dimensions of a (..., N)
    type array."""
    theta = _positive_types(theta)
    if cost_kind == LINEAR:
        winner, q = centralized_winner(theta, var0)
        efforts = np.zeros_like(theta)
        np.put_along_axis(efforts, winner[..., None], q[..., None], axis=-1)
        return efforts
    if cost_kind == QUADRATIC:
        W = mechanism.cubic_root(1.0 / var0,
                                 mechanism.row_sums(1.0 / theta)[..., None])
        return 1.0 / (theta * W * W)
    raise ValueError(f"no centralized closed form for cost kind {cost_kind!r}")


def centralized_winner(theta, var0: float, rank=None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """The linear-cost first best of a (..., N) type array as (winner,
    effort): the cheapest agent, the lowest index on ties, exerts
    max(theta^-1/2 - 1/var0, 0) and every other agent nothing.  rank is
    mechanism.rank_rows(theta) where the caller has it already."""
    theta = _positive_types(theta)
    winner, th_w, _ = mechanism.rank_rows(theta) if rank is None else rank
    return winner, np.maximum(th_w ** -0.5 - 1.0 / var0, 0.0)


def _positive_types(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise ValueError("cost types must be positive")
    return theta


# -- homogeneous contract ------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousContract:
    theta_dagger: float
    q_dagger: float
    alpha: float
    beta: float


def homogeneous_contract(theta_dagger: float, n_agents: int, cost_kind: str,
                         var0: float) -> HomogeneousContract:
    """Posted contract under the belief that all N agents share type
    theta_dagger: the per-agent designed effort plus the flat part alpha and
    the squared-error reward weight beta."""
    if theta_dagger <= 0.0:
        raise ValueError("theta_dagger must be positive")
    td = float(theta_dagger)
    prec = 1.0 / var0
    if cost_kind == LINEAR:
        q = max((td ** -0.5 - prec) / n_agents, 0.0)
        alpha = (prec + q) * td * q + td * q
        beta = (prec + q) ** 2 * td
        return HomogeneousContract(td, q, alpha, beta)
    if cost_kind == QUADRATIC:
        # 1/(prec + N q)^2 = theta q; with v = prec + N q this is the
        # mechanism's cubic v^3 - prec v^2 = N/theta, and q = 1/(theta v^2)
        v = float(mechanism.cubic_root(prec, n_agents / td))
        q = 1.0 / (td * v * v)
        alpha = (prec + q) * td * q + 0.5 * td * q ** 2
        beta = (prec + q) ** 2 * td * q
        return HomogeneousContract(td, float(q), alpha, beta)
    raise ValueError(f"no homogeneous contract for cost kind {cost_kind!r}")


def homogeneous_response_batch(theta, contract: HomogeneousContract,
                               cost_kind: str, var0: float) -> np.ndarray:
    """Best-response efforts to the posted reward weight beta for an array of
    true types.  Who takes the contract is participation_threshold's
    decision, not this function's."""
    theta = np.asarray(theta, dtype=float)
    prec = 1.0 / var0
    if cost_kind == LINEAR:
        return optimal_effort_linear(contract.beta, theta, prec)
    if cost_kind == QUADRATIC:
        return reward_effort_quadratic(contract.beta, theta, prec)
    raise ValueError(f"no homogeneous response for cost kind {cost_kind!r}")


def participation_threshold(contract: HomogeneousContract,
                            type_dist: CostTypeDistribution, var0: float,
                            cost_kind: str) -> float:
    """theta*: an agent takes the contract exactly when its type is at or
    below theta*, clipped to the type range.  The exact expected payoff
    alpha - beta/(1/var0+q) - C(q,theta) at the agent's own best response q
    falls in type, so the takers are the types where it is not negative."""
    if cost_kind == QUADRATIC:
        # alpha is built to make the type-theta_dagger payoff exactly zero
        t = contract.theta_dagger
    elif cost_kind == LINEAR:
        # payoff alpha - 2 sqrt(beta t) + t/var0 while the response is
        # positive (t < beta var0^2), then the constant alpha - beta var0: a
        # quadratic in sqrt(t) whose smaller root lies inside the positive
        # part.  Without a real root (beta <= alpha/var0) no payoff is
        # negative and every type takes the contract
        alpha, beta = contract.alpha, contract.beta
        disc = beta - alpha / var0
        if disc <= 0.0:
            t = type_dist.theta_hi
        else:
            t = (alpha / (math.sqrt(beta) + math.sqrt(disc))) ** 2
    else:
        raise ValueError(f"no participation threshold for cost kind "
                         f"{cost_kind!r}")
    return float(np.clip(t, type_dist.theta_lo, type_dist.theta_hi))


def homogeneous_predict(contract: HomogeneousContract, reports, prior:
                        GaussianPrior, n_denominator: Optional[int] = None):
    """Principal's aggregate under the (wrong) assumption that every
    participant exerted q_dagger: un-shrink each report as if it were a
    posterior mean at effort q_dagger, then average at the assumed precision.
    NaN marks an agent that filed no report.  The denominator uses the
    participant count unless n_denominator is given.  The aggregate is
    formed in deviations from mu0, so under a fixed denominator each agent
    without a report counts at the prior mean.  Vectorized over the leading
    dimensions of a (..., N) report array; a float for one vector.
    """
    reports = np.asarray(reports, dtype=float)
    mu0, prec, q = prior.mu0, prior.precision, contract.q_dagger
    filed = ~np.isnan(reports)
    m = filed.sum(axis=-1)
    if q <= 0.0:
        out = np.full(m.shape, mu0)
    else:
        g = reports + (reports - mu0) * (prec / q)
        den = prec + (m if n_denominator is None else n_denominator) * q
        dev = q * mechanism.row_sums(np.where(filed, g - mu0, 0.0))
        out = np.where(m > 0, mu0 + dev / np.where(den > 0, den, 1.0), mu0)
    return float(out) if out.ndim == 0 else out


def homogeneous_settle(contract: HomogeneousContract, x, reports, efforts,
                       m, totals: Callable, prior: GaussianPrior,
                       n_denominator: Optional[int] = None) -> Tuple:
    """A posted contract (q_dagger > 0) settled from the participants'
    reports, efforts and trials' latent states x, with m the participant
    count of each trial and totals(v) summing their values v per trial:
    homogeneous_predict's prediction and the exact expected squared error
    per trial (each report weighs c_m in the aggregate), and each one's
    payment alpha - beta (x - report)^2.  The per-trial terms are formed
    only on the trials with a participant; the others predict mu0 and err
    by var0, which is what c_m = 0 gives exactly."""
    var0, mu0, prec = prior.var0, prior.mu0, prior.precision
    q_dag = contract.q_dagger
    risk = prec + efforts
    sums = (totals(reports + (reports - mu0) * (prec / q_dag) - mu0),
            totals(efforts / risk), totals(efforts / risk ** 2))
    n_trials = m.size
    taker = m > 0
    taken = None if taker.all() else np.flatnonzero(taker)
    if taken is not None:
        m, sums = m[taken], [v[taken] for v in sums]
    den = prec + (m if n_denominator is None else n_denominator) * q_dag
    den = np.where(den > 0, den, 1.0)
    c_m = (q_dag + prec) / den
    prediction = mu0 + q_dag * sums[0] / den
    expected_sq = var0 * (1.0 - c_m * sums[1]) ** 2 + c_m ** 2 * sums[2]
    if taken is not None:
        prediction = _filled(n_trials, taken, prediction, mu0)
        expected_sq = _filled(n_trials, taken, expected_sq, var0)
    return prediction, contract.alpha - contract.beta * (x - reports) ** 2, \
        expected_sq


def _filled(size: int, index: np.ndarray, values: np.ndarray,
            fill: float) -> np.ndarray:
    """A (size,) array holding values at index, fill elsewhere."""
    out = np.full(size, fill)
    out[index] = values
    return out


# -- principal's exact expected payoff and the opt-out decision ----------------

@functools.lru_cache(maxsize=None)
def _moment_rule() -> Tuple[np.ndarray, np.ndarray]:
    """200-node Gauss-Legendre rule for the participating-type moments."""
    return np.polynomial.legendre.leggauss(200)


def _participating_moments(contract: HomogeneousContract,
                           type_dist: CostTypeDistribution, var0: float,
                           cost_kind: str, theta_star: float) -> float:
    """E[hA] over the participating types, hA = 1/(prec+q) the posterior
    risk at the agent's own best-response effort."""
    prec = 1.0 / var0
    lo = max(type_dist.theta_lo, TYPE_CLAMP)
    x, wts = _moment_rule()
    # the linear response kinks where it clamps at zero; split there
    segments = [(lo, theta_star)]
    if cost_kind == LINEAR and prec > 0:
        edge = contract.beta * var0 * var0
        if lo < edge < theta_star:
            segments = [(lo, edge), (edge, theta_star)]
    num_h = mass = 0.0
    for a, b_end in segments:
        if b_end <= a:
            continue
        mid, half = 0.5 * (a + b_end), 0.5 * (b_end - a)
        t = mid + half * x
        q = homogeneous_response_batch(t, contract, cost_kind, var0)
        pdf = type_dist.pdf(t)
        with np.errstate(divide="ignore"):
            inv = np.where(prec + q > 0.0, 1.0 / (prec + q), np.inf)
        num_h += half * np.sum(wts * pdf * inv)
        mass += half * np.sum(wts * pdf)
    return num_h / mass if mass > 0.0 else var0


def homogeneous_expected_payoff(contract: HomogeneousContract,
                                type_dist: CostTypeDistribution,
                                prior: GaussianPrior, n_agents: int,
                                cost_kind: str,
                                n_denominator: Optional[int] = None) -> float:
    """Exact ex-ante expected payoff of running the homogeneous mechanism:
    minus the expected squared prediction error (binomial mixture over the
    participant count, Gaussian quadrature over the participating-type
    moments) minus the expected payments.  No Monte-Carlo anywhere."""
    var0 = prior.var0
    prec = prior.precision
    q_dag = contract.q_dagger
    if q_dag <= 0.0:
        return -var0
    theta_star = participation_threshold(contract, type_dist, var0, cost_kind)
    p = float(np.clip(type_dist.cdf(theta_star), 0.0, 1.0))
    if p <= 0.0:
        return -var0
    eh = _participating_moments(contract, type_dist, var0, cost_kind,
                                theta_star)

    # expected squared error given m participants, var0 (1 - c sum b)^2 +
    # c^2 sum w, with the predictor weight c = (q_dag + prec)/D, D = prec +
    # d q_dag, from un-shrinking at q_dag.  b = q/(prec+q) = 1 - prec hA and
    # w = b hA, so the E[hA^2] terms cancel and E[hA] suffices.  The var0
    # term is formed only where a1 != 0, so var0 = inf meets no inf * 0
    def err(m: int) -> float:
        if m == 0:
            return var0
        d = m if n_denominator is None else n_denominator
        den = prec + d * q_dag
        c = (q_dag + prec) / den
        a1 = (d - m) * q_dag
        a2 = (1 - m) + m * (q_dag + prec) * eh
        bias = 2.0 * a1 * a2 + prec * a2 * a2
        if a1 != 0.0:
            bias += var0 * a1 * a1
        return bias / (den * den) + c * c * m * eh * (1.0 - prec * eh)
    weights = (math.comb(n_agents, m) * p ** m * (1.0 - p) ** (n_agents - m)
               for m in range(n_agents + 1))
    mse = sum(w * err(m) for m, w in enumerate(weights) if w > 0.0)
    payments = n_agents * p * (contract.alpha - contract.beta * eh)
    return float(-mse - payments)


def homogeneous_fallback(contract: HomogeneousContract,
                         type_dist: CostTypeDistribution,
                         prior: GaussianPrior, n_agents: int, cost_kind: str,
                         n_denominator: Optional[int] = None
                         ) -> Tuple[bool, float]:
    """Deterministic opt-out decision: run the mechanism unless its exact
    expected payoff is strictly below the no-action baseline -var0 (predict
    the prior mean, pay nothing)."""
    value = homogeneous_expected_payoff(contract, type_dist, prior, n_agents,
                                        cost_kind, n_denominator)
    return value >= -prior.var0, value
