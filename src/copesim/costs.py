"""Effort-cost families and numeric regularity checks.

A cost model is a marginal cost c(q, theta) plus its integral C(q, theta).
The two closed-form families are linear (C = q*theta) and quadratic
(C = theta*q^2/2); arbitrary marginals are supported with the total obtained
by quadrature.  Regularity of the marginal (signs of its partials) decides
which mechanism guarantees apply, so it is checked numerically, not assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate

LINEAR = "linear"
QUADRATIC = "quadratic"
GENERAL = "general"


@dataclass(frozen=True)
class CostModel:
    kind: str
    marginal: Callable   # c(q, theta)
    total: Callable      # C(q, theta) = integral of c from 0 to q


def _linear_marginal(q, theta):
    return np.asarray(theta, float) + 0.0 * np.asarray(q, float)


def _linear_total(q, theta):
    return np.asarray(q, float) * np.asarray(theta, float)


def _quadratic_marginal(q, theta):
    return np.asarray(theta, float) * np.asarray(q, float)


def _quadratic_total(q, theta):
    return 0.5 * np.asarray(theta, float) * np.asarray(q, float) ** 2


def _quadrature_total(marginal: Callable, q, theta):
    """C(q, theta) as the integral of the marginal from 0 to q, elementwise."""
    def scalar(qv, tv):
        if qv == 0:
            return 0.0
        val, _ = integrate.quad(lambda z: marginal(z, tv), 0.0, qv,
                                epsabs=1e-12, epsrel=1e-12, limit=200)
        return val
    return np.vectorize(scalar, otypes=[float])(q, theta)


# Cost models hold module-level functions (bound with functools.partial where
# needed) so that a Scenario pickles and can be sent to worker processes.

def linear_cost() -> CostModel:
    return CostModel(kind=LINEAR, marginal=_linear_marginal, total=_linear_total)


def quadratic_cost() -> CostModel:
    return CostModel(kind=QUADRATIC, marginal=_quadratic_marginal,
                     total=_quadratic_total)


def general_cost(marginal: Callable,
                 total: Optional[Callable] = None) -> CostModel:
    """Cost model from an arbitrary marginal; total by quadrature if omitted."""
    if total is None:
        total = functools.partial(_quadrature_total, marginal)
    return CostModel(kind=GENERAL, marginal=marginal, total=total)


def cost(model: CostModel, q, theta):
    """Total cost C(q, theta); effort must be >= 0."""
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0):
        raise ValueError("effort must be >= 0")
    out = model.total(q_arr, np.asarray(theta, dtype=float))
    return float(out) if np.isscalar(q) and np.isscalar(theta) else out


# -- finite differences ------------------------------------------------------

def _step(v, rel: float = 1e-6):
    return rel * np.maximum(1.0, np.abs(v))


def fd_marginal_dq(model: CostModel, q: float, theta: float) -> float:
    h = _step(q)
    return (model.marginal(q + h, theta) - model.marginal(max(q - h, 0.0), theta)) / (
        (q + h) - max(q - h, 0.0))


def fd_marginal_dtheta(model: CostModel, q: float, theta: float) -> float:
    h = _step(theta)
    return (model.marginal(q, theta + h) - model.marginal(q, theta - h)) / (2 * h)


def fd_total_dtheta(model: CostModel, q: float, theta: float) -> float:
    """dC/dtheta by central difference on the total cost."""
    h = _step(theta)
    return (model.total(q, theta + h) - model.total(q, theta - h)) / (2 * h)


def fd_marginal_dtheta2(model: CostModel, q: float, theta: float) -> float:
    h = _step(theta, rel=1e-4)
    return (model.marginal(q, theta + h) - 2.0 * model.marginal(q, theta)
            + model.marginal(q, theta - h)) / h ** 2


def fd_marginal_cross(model: CostModel, q: float, theta: float) -> float:
    hq = _step(q, rel=1e-4)
    ht = _step(theta, rel=1e-4)
    qm = max(q - hq, 0.0)
    return (model.marginal(q + hq, theta + ht) - model.marginal(q + hq, theta - ht)
            - model.marginal(qm, theta + ht) + model.marginal(qm, theta - ht)) / (
        ((q + hq) - qm) * 2 * ht)


# -- regularity report -------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Signs of the marginal-cost partials over the sampled grid.

    marginal_in_q_strict asks for dc/dq > 0; linear cost has dc/dq = 0 so it
    only passes the weak (>= 0) version.  The remaining three conditions are
    dc/dtheta > 0, d2c/dtheta2 >= 0 and d2c/(dq dtheta) >= 0.
    """
    marginal_in_q_strict: bool
    marginal_in_q_weak: bool
    marginal_in_theta: bool
    convex_in_theta: bool
    cross_partial: bool
    worst: dict = field(default_factory=dict)

    @property
    def strictly_regular(self) -> bool:
        return (self.marginal_in_q_strict and self.marginal_in_theta
                and self.convex_in_theta and self.cross_partial)

    @property
    def weakly_regular(self) -> bool:
        return (self.marginal_in_q_weak and self.marginal_in_theta
                and self.convex_in_theta and self.cross_partial)


def check_regularity(model: CostModel) -> RegularityReport:
    """Partials sampled by finite differences on a 15 x 15 grid, q in
    [1/3, 5] and theta in [0.05, 1], with tolerance 1e-6 of the marginal's
    scale."""
    n, tol = 15, 1e-6
    qs = np.linspace(5.0 / n, 5.0, n)
    thetas = np.linspace(0.05, 1.0, n)
    vals = {"dc_dq": np.inf, "dc_dtheta": np.inf, "d2c_dtheta2": np.inf,
            "d2c_dq_dtheta": np.inf}
    scale = max(1.0, max(abs(float(model.marginal(q, t)))
                         for q in (qs[0], qs[-1]) for t in (thetas[0], thetas[-1])))
    atol = tol * scale
    for q in qs:
        for t in thetas:
            vals["dc_dq"] = min(vals["dc_dq"], fd_marginal_dq(model, q, t))
            vals["dc_dtheta"] = min(vals["dc_dtheta"], fd_marginal_dtheta(model, q, t))
            vals["d2c_dtheta2"] = min(vals["d2c_dtheta2"], fd_marginal_dtheta2(model, q, t))
            vals["d2c_dq_dtheta"] = min(vals["d2c_dq_dtheta"], fd_marginal_cross(model, q, t))
    # second differences see more roundoff than first differences
    atol2 = 100 * atol
    return RegularityReport(
        marginal_in_q_strict=vals["dc_dq"] > atol,
        marginal_in_q_weak=vals["dc_dq"] >= -atol,
        marginal_in_theta=vals["dc_dtheta"] > atol,
        convex_in_theta=vals["d2c_dtheta2"] >= -atol2,
        cross_partial=vals["d2c_dq_dtheta"] >= -atol2,
        worst=vals,
    )


# -- report-sensitivity condition for truthful bidding -----------------------

def own_effort(efforts: Callable, t: float, theta_rest) -> float:
    """Agent 0's designated effort under the effort rule efforts (report
    vector -> designated efforts) at reports (t, *theta_rest)."""
    return float(efforts(np.concatenate(([t], theta_rest)))[0])


@dataclass(frozen=True)
class ScheduleConditionReport:
    theta_grid: np.ndarray
    values: np.ndarray        # curvature-weighted sensitivity, needs <= 0
    efforts: np.ndarray
    passes: np.ndarray        # per grid point

    @property
    def ok_where_active(self) -> bool:
        """Pass on every grid point with positive designated effort."""
        active = self.efforts > 0
        return bool(np.all(self.passes[active])) if active.any() else True


def theorem3_condition(model: CostModel, efforts: Callable, theta_grid,
                       var0: float = 1.0,
                       theta_rest=()) -> ScheduleConditionReport:
    """Check that a lower report never lowers the agent's effective marginal
    cost the wrong way: the curvature-weighted sensitivity

        dc/dtheta(Q(t), t) + 2 c(Q(t), t) Q'(t) / (1/var0 + Q(t))  <=  0

    along the effort rule, with Q(t) = own_effort(efforts, t, theta_rest),
    by finite differences, up to 1e-6 of the largest value.  This is the
    quantity whose sign drives the truthful-bidding argument; with squared
    loss the factor 2/(1/var0 + q) is -hA''/hA' for the agent's posterior
    risk hA.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    prec = 1.0 / var0
    vals = np.empty_like(theta_grid)
    effs = np.empty_like(theta_grid)
    for i, t in enumerate(theta_grid):
        h = _step(t)
        q = own_effort(efforts, t, theta_rest)
        dq = (own_effort(efforts, t + h, theta_rest)
              - own_effort(efforts, t - h, theta_rest)) / (2 * h)
        c = float(model.marginal(q, t))
        c_t = fd_marginal_dtheta(model, q, t)
        vals[i] = c_t + 2.0 * c * dq / (prec + q)
        effs[i] = q
    scale = max(1.0, np.abs(vals).max())
    return ScheduleConditionReport(theta_grid=theta_grid, values=vals,
                                   efforts=effs, passes=vals <= 1e-6 * scale)
