"""World model shared by all mechanisms.

A latent state x ~ N(mu0, var0) is observed by agents through Gaussian noise
whose precision equals the effort they exert: y = x + eps/sqrt(q).  Agents
carry a private cost type theta drawn i.i.d. from a distribution on
[theta_lo, theta_hi].  This module owns the prior, the type distribution and
the posterior update; the engine draws the states, types and noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .costs import CostModel

#: sentinel for "no observation" (zero effort buys an uninformative signal)
NO_OBSERVATION = math.nan

#: lower clamp applied to type draws so 1/theta stays finite in benchmarks
TYPE_CLAMP = 1e-12


@dataclass(frozen=True)
class GaussianPrior:
    mu0: float = 0.0
    var0: float = 1.0

    def __post_init__(self):
        if not self.var0 > 0:
            raise ValueError(f"prior variance must be positive, got {self.var0}")

    @property
    def precision(self) -> float:
        return 1.0 / self.var0


@dataclass(frozen=True)
class CostTypeDistribution:
    """Type distribution on [theta_lo, theta_hi].

    kind "uniform" is closed form.  kind "custom" takes cdf/pdf callables and
    is validated numerically: the cdf must be continuous, increasing, and
    log-concave on the support (log-concavity makes the virtual cost
    theta + F/f nondecreasing, which the effort schedules rely on).
    """

    theta_lo: float
    theta_hi: float
    kind: str = "uniform"
    cdf_fn: Optional[Callable] = None
    pdf_fn: Optional[Callable] = None

    def __post_init__(self):
        if not (0 <= self.theta_lo < self.theta_hi < math.inf):
            raise ValueError(
                f"need 0 <= theta_lo < theta_hi < inf, got [{self.theta_lo}, {self.theta_hi}]")
        if self.kind not in ("uniform", "custom"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "custom" and (self.cdf_fn is None or self.pdf_fn is None):
            raise ValueError("custom distribution requires cdf_fn and pdf_fn")

    @classmethod
    def uniform(cls, theta_lo: float = 0.0, theta_hi: float = 1.0) -> "CostTypeDistribution":
        return cls(theta_lo=theta_lo, theta_hi=theta_hi, kind="uniform")

    @classmethod
    def custom(cls, theta_lo: float, theta_hi: float, cdf: Callable,
               pdf: Callable, validate: bool = True) -> "CostTypeDistribution":
        dist = cls(theta_lo=theta_lo, theta_hi=theta_hi, kind="custom",
                   cdf_fn=cdf, pdf_fn=pdf)
        if validate and not dist.cdf_is_log_concave():
            raise ValueError("custom cdf is not log-concave on the support")
        return dist

    # -- distribution functions (vectorized) --------------------------------

    def cdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "uniform":
            return np.clip((theta - self.theta_lo) / (self.theta_hi - self.theta_lo), 0.0, 1.0)
        return np.asarray(self.cdf_fn(theta), dtype=float)

    def pdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "uniform":
            inside = (theta >= self.theta_lo) & (theta <= self.theta_hi)
            return np.where(inside, 1.0 / (self.theta_hi - self.theta_lo), 0.0)
        return np.asarray(self.pdf_fn(theta), dtype=float)

    def inverse_hazard(self, theta):
        """F(theta)/f(theta), with the theta_lo limit taken as 0."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "uniform":
            return theta - self.theta_lo
        f = self.pdf(theta)
        out = np.zeros_like(np.broadcast_arrays(theta, f)[0], dtype=float)
        np.divide(self.cdf(theta), f, out=out, where=f > 0)
        return out

    def virtual_cost(self, theta):
        """theta + F(theta)/f(theta); 2*theta - theta_lo for the uniform case."""
        return np.asarray(theta, dtype=float) + self.inverse_hazard(theta)

    def ppf(self, u):
        """Inverse cdf; bisection for custom distributions."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return self.theta_lo + (self.theta_hi - self.theta_lo) * u
        lo = np.full_like(u, self.theta_lo, dtype=float)
        hi = np.full_like(u, self.theta_hi, dtype=float)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def cdf_is_log_concave(self) -> bool:
        """Second differences of log F on a 257-point grid must be <= 1e-7
        (relative) on the interior."""
        tol = 1e-7
        theta = np.linspace(self.theta_lo, self.theta_hi, 257)[1:]
        logf = np.log(np.maximum(self.cdf(theta), 1e-300))
        second = logf[:-2] - 2.0 * logf[1:-1] + logf[2:]
        h = theta[1] - theta[0]
        return bool(np.all(second / h ** 2 <= tol * max(1.0, np.abs(logf).max())))


@dataclass(frozen=True)
class Scenario:
    prior: GaussianPrior
    type_dist: CostTypeDistribution
    n_agents: int
    cost_model: CostModel

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")

    @property
    def cost_kind(self) -> str:
        return self.cost_model.kind


# -- posterior --------------------------------------------------------------

def posterior_mean_var(prior: GaussianPrior,
                       reports: Sequence[Tuple[float, float]]
                       ) -> Tuple[float, float]:
    """Conjugate update from (y, q) pairs; q = 0 entries contribute nothing."""
    num = prior.mu0 * prior.precision
    prec = prior.precision
    for y, q in reports:
        if q < 0:
            raise ValueError(f"effort must be >= 0, got {q}")
        if q > 0:
            num += y * q
            prec += q
    return num / prec, 1.0 / prec


def principal_bayes_risk(prior: GaussianPrior, efforts) -> np.ndarray:
    """Expected squared error of the optimal predictor given effort vector(s):
    1/(1/var0 + sum q).  Sums over the last axis."""
    total = np.sum(np.asarray(efforts, dtype=float), axis=-1)
    return 1.0 / (prior.precision + total)


def agent_bayes_risk(prior: GaussianPrior, q):
    """Expected squared error of one agent's own posterior mean: 1/(1/var0 + q)."""
    return 1.0 / (prior.precision + np.asarray(q, dtype=float))


def agent_bayes_risk_deriv(prior: GaussianPrior, q):
    """d/dq of agent_bayes_risk: -1/(1/var0 + q)^2."""
    return -1.0 / (prior.precision + np.asarray(q, dtype=float)) ** 2
