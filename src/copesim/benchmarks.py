"""Comparison systems: the integrated (centralized) planner and the
single-belief homogeneous mechanism.

The homogeneous mechanism posts one contract computed as if every agent had
cost type theta_dagger.  Agents respond non-truthfully (their effort solves
their own first-order condition against the posted reward weight), the
principal aggregates reports while wrongly assuming everyone exerted the
designed effort, and she opts out entirely when her exact expected payoff
falls below the no-action baseline.  The opt-out decision is deterministic:
a binomial mixture over the participant count against closed-form / quadrature
type moments, no Monte-Carlo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import brentq

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
        W = mechanism.cubic_root(1.0 / var0, np.sum(1.0 / theta, axis=-1,
                                                    keepdims=True))
        return 1.0 / (theta * W * W)
    raise ValueError(f"no centralized closed form for cost kind {cost_kind!r}")


def centralized_winner(theta, var0: float) -> Tuple[np.ndarray, np.ndarray]:
    """The linear-cost first best of a (..., N) type array as (winner,
    effort): the cheapest agent, the lowest index on ties, exerts
    max(theta^-1/2 - 1/var0, 0) and every other agent nothing."""
    theta = _positive_types(theta)
    winner = np.argmin(theta, axis=-1)
    th_w = np.take_along_axis(theta, winner[..., None], axis=-1)[..., 0]
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
                               cost_kind: str, var0: float
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """(efforts, participate) for an array of true types.  Participation is
    decided on the exact expected payoff alpha - beta/(1/var0+q) - C(q,theta)
    at the agent's own optimal effort."""
    theta = np.asarray(theta, dtype=float)
    prec = 1.0 / var0
    beta = contract.beta
    if cost_kind == LINEAR:
        q = optimal_effort_linear(beta, theta, prec)
        c = theta * q
    elif cost_kind == QUADRATIC:
        q = reward_effort_quadratic(beta, theta, prec)
        c = 0.5 * theta * q ** 2
    else:
        raise ValueError(f"no homogeneous response for cost kind {cost_kind!r}")
    with np.errstate(divide="ignore"):
        risk = np.where(prec + q > 0.0, 1.0 / (prec + q), np.inf)
    payoff = contract.alpha - beta * risk - c
    return q, payoff >= -_take_tol(contract)


def _take_tol(contract: HomogeneousContract) -> float:
    """Quadratic contracts bind exactly at theta_dagger; an indifferent agent
    participates, so the rule absorbs the rounding residue of a zero
    payoff."""
    return 1e-9 * max(1.0, abs(contract.alpha))


def homogeneous_type_cut(contract: HomogeneousContract,
                         type_dist: CostTypeDistribution, var0: float,
                         cost_kind: str) -> float:
    """A type above which homogeneous_response_batch admits no agent, or inf
    when no type in the distribution's range can be ruled out.  The payoff
    at the agent's own best response falls in type, so the cut is where the
    closed-form payoff sits far below the rule's tolerance; past it the
    rule's rounding cannot reach -tol."""
    hi = type_dist.theta_hi
    prec = 1.0 / var0
    alpha, beta = contract.alpha, contract.beta
    tol = _take_tol(contract)
    if cost_kind == LINEAR:
        # alpha - 2 sqrt(beta t) + t/var0 while the response is positive
        # (t < beta var0^2), then the constant alpha - beta var0
        target = -1000.0 * tol
        if prec > 0.0 and alpha - beta * var0 >= target:
            return math.inf
        u = lambda t: alpha - 2.0 * math.sqrt(beta * t) + t * prec - target
        if u(0.0) <= 0.0:
            return 0.0
        # u(edge) < 0: the tail constant, or -(alpha - target) when prec = 0
        edge = beta * var0 * var0 if prec > 0.0 else (alpha - target) ** 2 / beta
        cut = float(brentq(u, 0.0, edge, xtol=1e-15, maxiter=200))
    elif cost_kind == QUADRATIC:
        # U'(t) = -q(t)^2/2 with q falling in t and U(theta_dagger) = 0, so
        # U(t) <= -(t - theta_dagger) q(theta_hi)^2/2 < -2 tol past the cut
        q_hi = float(reward_effort_quadratic(beta, hi, prec))
        if not q_hi > 0.0:
            return math.inf
        cut = contract.theta_dagger + 4.0 * tol / (q_hi * q_hi)
    else:
        raise ValueError(f"no homogeneous response for cost kind {cost_kind!r}")
    return cut if cut < hi else math.inf


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
    filed = ~np.isnan(reports)
    out = _predict_filed(contract, reports, filed, filed.sum(axis=-1), prior,
                         n_denominator)
    return float(out) if out.ndim == 0 else out


def _predict_filed(contract: HomogeneousContract, reports, filed, m,
                   prior: GaussianPrior, n_denominator: Optional[int]):
    """homogeneous_predict given the filed mask and its per-trial count m."""
    mu0, prec, q = prior.mu0, prior.precision, contract.q_dagger
    if q <= 0.0:
        return np.full(m.shape, mu0)
    g = reports + (reports - mu0) * (prec / q)
    den = prec + (m if n_denominator is None else n_denominator) * q
    dev = q * np.where(filed, g - mu0, 0.0).sum(axis=-1)
    return np.where(m > 0, mu0 + dev / np.where(den > 0, den, 1.0), mu0)


def homogeneous_settle_batch(contract: HomogeneousContract, x, reports,
                             efforts, take, prior: GaussianPrior,
                             n_denominator: Optional[int] = None
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The principal's side of the posted contract for a (T, N) block of
    trials with latent states x (T,), each trial with a participant:
    (prediction, payments, expected squared error).  take marks the
    participants, whose reports count; each is paid alpha - beta (x -
    report)^2.  The expected squared error is exact given the trial's
    efforts and participation: the mis-specified aggregate is linear in the
    latent state and the noises, each report weighted by c_m.  A trial
    without a participant predicts mu0, pays nothing and errs by var0 under
    either denominator; the caller fills those trials."""
    var0, prec, q_dag = prior.var0, prior.precision, contract.q_dagger
    m = take.sum(axis=1)
    prediction = _predict_filed(contract, reports, take, m, prior,
                                n_denominator)
    payments = np.where(
        take, contract.alpha - contract.beta * (x[:, None] - reports) ** 2, 0.0)
    den = prec + (m if n_denominator is None else n_denominator) * q_dag
    b = np.where(take, efforts / (prec + efforts), 0.0)
    w = np.where(take, efforts / (prec + efforts) ** 2, 0.0)
    c_m = np.where(m > 0, (q_dag + prec) / np.where(den > 0, den, 1.0), 0.0)
    expected_sq = var0 * (1.0 - c_m * b.sum(axis=1)) ** 2 \
        + c_m ** 2 * w.sum(axis=1)
    return prediction, payments, expected_sq


# -- principal's exact expected payoff and the opt-out decision ----------------

def _participation_threshold(contract: HomogeneousContract,
                             type_dist: CostTypeDistribution, var0: float,
                             cost_kind: str) -> float:
    """Largest type that still participates (payoff is decreasing in type,
    then constant once the linear response clamps at zero)."""
    lo, hi = type_dist.theta_lo, type_dist.theta_hi
    prec = 1.0 / var0
    alpha, beta = contract.alpha, contract.beta
    if cost_kind == QUADRATIC:
        # alpha is built to make the type-theta_dagger payoff exactly zero
        return float(np.clip(contract.theta_dagger, lo, hi))
    # linear: payoff = alpha - 2 sqrt(beta t) + t/var0 while the response is
    # positive (t < beta var0^2), then constant alpha - beta var0
    lo_eval = max(lo, TYPE_CLAMP)
    u_live = lambda t: alpha - 2.0 * math.sqrt(beta * t) + t * prec
    edge = min(beta * var0 * var0, hi) if prec > 0 else hi
    if edge <= lo_eval:
        return hi if alpha - beta * var0 >= 0.0 else lo
    if u_live(lo_eval) < 0.0:
        return lo
    if u_live(edge) >= 0.0:
        if edge >= hi:
            return hi
        return hi if alpha - beta * var0 >= 0.0 else edge
    return float(brentq(u_live, lo_eval, edge, xtol=1e-15, maxiter=200))


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
        q, _ = homogeneous_response_batch(t, contract, cost_kind, var0)
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
    theta_star = _participation_threshold(contract, type_dist, var0, cost_kind)
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
