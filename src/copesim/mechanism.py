"""Incentive mechanism for buying effort and predictions from strategic agents.

The principal screens privately known cost types with a virtual-cost schedule
and pays through a three-part transfer: an unconditional part pi covering cost
plus information rent, an accuracy stake K multiplying the squared prediction
error, and a constant S returning the stake's expected value at the designated
effort.  Two closed-form families are implemented (linear cost: a single
winner is recruited; quadratic cost: everyone works) plus a numeric solver for
arbitrary regular cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize

from . import costs as costs_mod
from . import rng
from .costs import CostModel, fd_marginal_dtheta, fd_total_dtheta
from .model import CostTypeDistribution, GaussianPrior


class SolverError(RuntimeError):
    """Optimizer failed to converge; carries diagnostics."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SingularPaymentRule(ValueError):
    """Accuracy stake undefined because the agent risk has zero slope."""


# ---------------------------------------------------------------------------
# effort schedules
# ---------------------------------------------------------------------------

def argmin_winner(theta_hat: np.ndarray, tie_break: str = "lowest-index",
                  tie_uniform: Optional[float] = None) -> int:
    """Index of the recruited agent under linear cost.  Ties go to the lowest
    index unless tie_break = "seeded-random", which picks uniformly among the
    tied entries using the provided uniform draw."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.size == 0:
        raise ValueError("empty report vector")
    if tie_break == "lowest-index" or tie_uniform is None:
        return int(np.argmin(theta_hat))
    ties = np.flatnonzero(theta_hat == theta_hat.min())
    return int(ties[min(int(tie_uniform * ties.size), ties.size - 1)])


def effort_linear(theta_hat, theta_lo: float, var0: float,
                  tie_break: str = "lowest-index",
                  tie_uniform: Optional[float] = None) -> np.ndarray:
    """Designated efforts under linear cost: the lowest bidder is asked for
    max{(2*theta - theta_lo)^(-1/2) - 1/var0, 0}, everyone else for 0."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    winner = argmin_winner(theta_hat, tie_break, tie_uniform)
    q = np.zeros_like(theta_hat)
    gamma = 2.0 * theta_hat[winner] - theta_lo
    if gamma <= 0:
        raise ValueError(f"virtual cost must be positive, got {gamma}")
    q[winner] = max(gamma ** -0.5 - 1.0 / var0, 0.0)
    return q


@dataclass(frozen=True)
class CubicSolution:
    W: float
    lam: float

    def residual(self, theta_hat, theta_lo: float, var0: float) -> float:
        theta_hat = np.asarray(theta_hat, dtype=float)
        b = float(np.sum(1.0 / (2.0 * theta_hat - theta_lo)))
        a = 1.0 / var0
        return abs(self.W ** 3 - a * self.W ** 2 - b) / max(1.0, self.W ** 3)


def cubic_root(a, b):
    """Positive real root of W^3 - a W^2 - b = 0 (a >= 0, b >= 0, a + b > 0).

    Closed form for the depressed cubic plus one Newton polish step; an extra
    step is applied only if the first leaves a residual above 1e-12 relative
    (cancellation when b << a^3).  Vectorized over broadcastable a, b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a3 = a * a * a
    lam = a3 * b / 27.0 + b * b / 4.0
    t = a3 / 27.0 + b / 2.0
    s = np.sqrt(lam)
    W = a / 3.0 + np.cbrt(t + s) + np.cbrt(t - s)

    def polish(W):
        W2 = W * W
        f = W2 * W - a * W2 - b
        fp = 3.0 * W2 - 2.0 * a * W
        return np.where(fp > 0, W - f / np.where(fp > 0, fp, 1.0), W)

    W = polish(W)
    W2 = W * W
    W3 = W2 * W
    res = np.abs(W3 - a * W2 - b) / np.maximum(1.0, W3)
    if np.any(res > 1e-12):
        W = np.where(res > 1e-12, polish(W), W)
    return W


def _virtual_cost_sum(theta_hat: np.ndarray, theta_lo: float) -> float:
    gamma = 2.0 * theta_hat - theta_lo
    if np.any(gamma <= 0):
        raise ValueError("virtual cost must be positive for every report")
    return float(np.sum(1.0 / gamma))


def solve_W(theta_hat, theta_lo: float, var0: float) -> CubicSolution:
    """Aggregate-precision root for the quadratic-cost schedule."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    b = _virtual_cost_sum(theta_hat, theta_lo)
    a = 1.0 / var0
    if a == 0.0 and b == 0.0:
        raise ValueError("degenerate cubic: no positive root")
    lam = a ** 3 * b / 27.0 + b * b / 4.0
    return CubicSolution(W=float(cubic_root(a, b)), lam=float(lam))


def effort_quadratic(theta_hat, theta_lo: float, var0: float) -> np.ndarray:
    """Designated efforts under quadratic cost: q_n = 1/(gamma_n W^2), all
    strictly positive."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    sol = solve_W(theta_hat, theta_lo, var0)
    return 1.0 / ((2.0 * theta_hat - theta_lo) * sol.W ** 2)


# ---------------------------------------------------------------------------
# payment rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaymentRule:
    """Per-agent transfer components for one report vector.

    Realized payment to agent n is pi_n - K_n * (x - report_n)^2 + S_n with
    squared loss; efforts holds the designated schedule the rule was built
    for.
    """
    pi: np.ndarray
    K: np.ndarray
    S: np.ndarray
    efforts: np.ndarray
    loss: str = "squared"

    def realized(self, x, reports) -> np.ndarray:
        reports = np.asarray(reports, dtype=float)
        return self.pi - self.K * (np.asarray(x, dtype=float) - reports) ** 2 + self.S


def linear_effort_at(z, theta_lo: float, var0: float):
    """Clamped winner-effort schedule as a function of the winning report."""
    z = np.asarray(z, dtype=float)
    return np.maximum((2.0 * z - theta_lo) ** -0.5 - 1.0 / var0, 0.0)


def linear_clamp_point(theta_lo: float, var0: float) -> float:
    """Report above which the designated linear-cost effort is 0."""
    if not math.isfinite(var0):
        return math.inf
    return (var0 ** 2 + theta_lo) / 2.0


def _tail_upper(theta_hi: float, theta_rest) -> float:
    """Upper integration limit for the winner's rent tail.

    The tail integrates the full schedule in the winner's report, and the
    schedule drops to zero as soon as some rival bids lower, so the effective
    upper limit is the lowest rival report (capped at theta_hi).
    """
    rest = np.asarray(theta_rest, dtype=float)
    return float(min(theta_hi, rest.min())) if rest.size else float(theta_hi)


def linear_pi_quad(theta_hat_win: float, theta_rest, theta_lo: float,
                   theta_hi: float, var0: float, tol: float = 1e-10) -> float:
    """Winner's unconditional payment by adaptive quadrature: own cost at the
    designated effort plus the rent tail of the clamped schedule up to the
    lowest rival report."""
    q_win = float(linear_effort_at(theta_hat_win, theta_lo, var0))
    if q_win == 0.0:
        return 0.0
    upper = _tail_upper(theta_hi, theta_rest)
    if upper <= theta_hat_win:
        return theta_hat_win * q_win
    zstar = linear_clamp_point(theta_lo, var0)
    points = [zstar] if theta_hat_win < zstar < upper else None
    tail, _ = integrate.quad(
        lambda z: float(linear_effort_at(z, theta_lo, var0)),
        theta_hat_win, upper, points=points, epsabs=tol, epsrel=tol, limit=200)
    return theta_hat_win * q_win + tail


def linear_tail_closed(a, b, theta_lo: float, var0: float) -> np.ndarray:
    """Exact integral of the clamped schedule max{(2z-lo)^(-1/2) - 1/var0, 0}
    over [a, b] (0 when b <= a); antiderivative sqrt(2z-lo) - z/var0.
    Vectorized."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    prec = 1.0 / var0
    zstar = linear_clamp_point(theta_lo, var0)
    hi = np.minimum(b_arr, zstar)
    lo_ = np.minimum(a_arr, zstar)
    anti = lambda z: np.sqrt(np.maximum(2.0 * z - theta_lo, 0.0)) - prec * z
    return np.where(hi > lo_, anti(hi) - anti(lo_), 0.0)


def linear_pi_closed(theta_hat_win, tail_upper, theta_lo: float,
                     var0: float) -> np.ndarray:
    """Closed form of the winner's payment given the effective tail upper
    limit (min of theta_hi and the lowest rival report); fast path verified
    against linear_pi_quad in tests.  Vectorized."""
    th = np.asarray(theta_hat_win, dtype=float)
    q = linear_effort_at(th, theta_lo, var0)
    return th * q + np.where(q > 0,
                             linear_tail_closed(th, tail_upper, theta_lo, var0),
                             0.0)


def linear_pi_doubled_tail(theta_hat_win: float, theta_lo: float,
                           theta_hi: float, var0: float) -> float:
    """Alternative closed form that doubles the tail term.  It disagrees with
    the integral of the clamped schedule (the antiderivative of
    (2z - theta_lo)^(-1/2) is (2z - theta_lo)^(1/2), without a 2); kept only
    as a diagnostic."""
    th = float(theta_hat_win)
    prec = 1.0 / var0
    g = 2.0 * th - theta_lo
    q = max(g ** -0.5 - prec, 0.0)
    m = min(theta_hi, linear_clamp_point(theta_lo, var0))
    tail = (math.sqrt(2.0 * m - theta_lo) - math.sqrt(g) - prec * (m - th)) if th < m else 0.0
    return th * q + 2.0 * tail


def linear_pi_diagnostic(theta_hat_win: float, theta_lo: float, theta_hi: float,
                         var0: float) -> dict:
    """Report the discrepancy between the quadrature value (full tail, no
    rival cutoff, to match the rival-independent closed form) and the
    doubled-tail closed form."""
    quad_val = linear_pi_quad(theta_hat_win, (), theta_lo, theta_hi, var0)
    doubled = linear_pi_doubled_tail(theta_hat_win, theta_lo, theta_hi, var0)
    return {"quadrature": quad_val, "doubled_tail": doubled,
            "abs_diff": abs(quad_val - doubled)}


def payment_rule_linear(theta_hat, theta_lo: float, theta_hi: float,
                        var0: float, tie_break: str = "lowest-index",
                        tie_uniform: Optional[float] = None) -> PaymentRule:
    """Transfers under linear cost: only the winner is paid.  If the winner's
    designated effort clamps to 0 the rule is identically zero."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    efforts = effort_linear(theta_hat, theta_lo, var0, tie_break, tie_uniform)
    n = theta_hat.size
    pi = np.zeros(n)
    K = np.zeros(n)
    S = np.zeros(n)
    winner = int(np.argmax(efforts > 0)) if np.any(efforts > 0) else None
    if winner is not None:
        th = theta_hat[winner]
        g = 2.0 * th - theta_lo
        K[winner] = th / g
        S[winner] = th * g ** -0.5
        rest = np.delete(theta_hat, winner)
        pi[winner] = linear_pi_quad(th, rest, theta_lo, theta_hi, var0)
    return PaymentRule(pi=pi, K=K, S=S, efforts=efforts)


def _quadratic_KS(theta_hat: np.ndarray, efforts: np.ndarray, var0: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    prec = 1.0 / var0
    K = (efforts + prec) ** 2 * theta_hat * efforts
    S = (efforts + prec) * theta_hat * efforts
    return K, S


def quadratic_pi_quad(agent: int, theta_hat, theta_lo: float, theta_hi: float,
                      var0: float, tol: float = 1e-10) -> float:
    """Unconditional payment for one agent under quadratic cost by adaptive
    quadrature; every node re-solves the cubic with that agent's report
    replaced by the integration variable."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    gamma = 2.0 * theta_hat - theta_lo
    if np.any(gamma <= 0):
        raise ValueError("virtual cost must be positive for every report")
    s_rest = float(np.sum(1.0 / gamma)) - 1.0 / gamma[agent]
    a = 1.0 / var0

    def q_sq(z):
        gz = 2.0 * z - theta_lo
        W = float(cubic_root(a, s_rest + 1.0 / gz))
        return (1.0 / (gz * W * W)) ** 2

    tail, _ = integrate.quad(q_sq, float(theta_hat[agent]), theta_hi,
                             epsabs=tol, epsrel=tol, limit=200)
    q_own = effort_quadratic(theta_hat, theta_lo, var0)[agent]
    return 0.5 * (theta_hat[agent] * q_own ** 2 + tail)


_GL_CACHE: dict = {}

#: rows of the rent tail evaluated together: 512 rows x 48 nodes keep each
#: float64 temporary at 192 KiB
_TAIL_BLOCK_ROWS = 512


def _gauss_legendre(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def quadratic_pi_tail_gl(theta_from, s_rest, theta_lo: float, theta_hi: float,
                         var0: float, order: int = 48) -> np.ndarray:
    """Vectorized tail integral of the squared quadratic-cost schedule over
    [theta_from, theta_hi].  Substituting u = (2z - theta_lo)^(1/3) bounds the
    integrand at the low end (it behaves like gamma^(-2/3) there), so a fixed
    Gauss-Legendre rule converges fast; verified against quadratic_pi_quad in
    tests.  Broadcasts over leading dimensions of theta_from / s_rest.

    Rows are evaluated in blocks of _TAIL_BLOCK_ROWS so the (rows, order)
    temporaries stay cache-resident; each row's arithmetic does not depend on
    the blocking, so the result is the same bits as one whole-array pass."""
    tf, s = np.broadcast_arrays(np.asarray(theta_from, dtype=float),
                                np.asarray(s_rest, dtype=float))
    shape = tf.shape
    tf = tf.reshape(-1)
    s = s.reshape(-1)
    a = 1.0 / var0
    x, w = _gauss_legendre(order)
    ub = np.cbrt(2.0 * theta_hi - theta_lo)
    out = np.empty(tf.size)
    for start in range(0, tf.size, _TAIL_BLOCK_ROWS):
        rows = slice(start, start + _TAIL_BLOCK_ROWS)
        ua = np.cbrt(2.0 * tf[rows] - theta_lo)
        mid = 0.5 * (ua + ub)
        half = 0.5 * (ub - ua)
        u = mid[:, None] + half[:, None] * x          # (rows, order)
        gam = u ** 3
        W = cubic_root(a, s[rows, None] + 1.0 / gam)
        q = 1.0 / (gam * W * W)
        integrand = q * q * 1.5 * u * u               # dz = (3/2) u^2 du
        out[rows] = (integrand * w).sum(axis=-1) * half
    return out.reshape(shape)


def quadratic_components_batch(theta_hat: np.ndarray, theta_lo: float,
                               theta_hi: float, var0: float
                               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(pi, K, S, efforts) for every agent, vectorized over leading dims of a
    (..., N) report array.  Fast path used by the simulation engine."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    gamma = 2.0 * theta_hat - theta_lo
    if np.any(gamma <= 0):
        raise ValueError("virtual cost must be positive for every report")
    inv_gamma = 1.0 / gamma
    s_total = inv_gamma.sum(axis=-1, keepdims=True)
    a = 1.0 / var0
    W = cubic_root(a, s_total)                        # (..., 1)
    efforts = inv_gamma / (W * W)
    tail = quadratic_pi_tail_gl(theta_hat, s_total - inv_gamma,
                                theta_lo, theta_hi, var0)
    pi = 0.5 * (theta_hat * efforts ** 2 + tail)
    K, S = _quadratic_KS(theta_hat, efforts, var0)
    return pi, K, S, efforts


def payment_rule_quadratic(theta_hat, theta_lo: float, theta_hi: float,
                           var0: float, tol: float = 1e-10) -> PaymentRule:
    """Transfers under quadratic cost; every agent is recruited and paid."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    efforts = effort_quadratic(theta_hat, theta_lo, var0)
    K, S = _quadratic_KS(theta_hat, efforts, var0)
    pi = np.array([quadratic_pi_quad(i, theta_hat, theta_lo, theta_hi, var0, tol)
                   for i in range(theta_hat.size)])
    return PaymentRule(pi=pi, K=K, S=S, efforts=efforts)


# ---------------------------------------------------------------------------
# general cost models: numeric schedule and payments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralSolverConfig:
    n_starts: int = 8
    start_scale: float = 5.0
    max_iter: int = 500
    pg_tol: float = 1e-9
    seed: int = 0


def _virtual_total(model: CostModel, q: np.ndarray, theta: np.ndarray,
                   inv_hazard: np.ndarray) -> np.ndarray:
    """C(q, theta) + dC/dtheta(q, theta) * F/f, the per-agent virtual cost."""
    h = 1e-6 * np.maximum(1.0, np.abs(theta))
    dC = (model.total(q, theta + h) - model.total(q, theta - h)) / (2.0 * h)
    return model.total(q, theta) + dC * inv_hazard


def _virtual_marginal(model: CostModel, q: np.ndarray, theta: np.ndarray,
                      inv_hazard: np.ndarray) -> np.ndarray:
    h = 1e-6 * np.maximum(1.0, np.abs(theta))
    dc = (model.marginal(q, theta + h) - model.marginal(q, theta - h)) / (2.0 * h)
    return model.marginal(q, theta) + dc * inv_hazard


def effort_general(model: CostModel, type_dist: CostTypeDistribution,
                   var0: float, theta_hat,
                   cfg: Optional[GeneralSolverConfig] = None) -> np.ndarray:
    """Designated efforts for an arbitrary regular cost model: maximize
    -(posterior risk) - sum of virtual costs over q >= 0 by multistart
    projected quasi-Newton.  Raises SolverError if the projected gradient
    norm cannot be brought under cfg.pg_tol."""
    cfg = cfg or GeneralSolverConfig()
    theta_hat = np.asarray(theta_hat, dtype=float)
    n = theta_hat.size
    prec = 1.0 / var0
    inv_hazard = np.asarray(type_dist.inverse_hazard(theta_hat), dtype=float)

    def neg_objective(q):
        # flat prior at zero total effort has infinite risk; keep it finite so
        # L-BFGS-B can still rank the point against interior iterates
        s = max(prec + float(q.sum()), 1e-150)
        return 1.0 / s + float(np.sum(_virtual_total(model, q, theta_hat, inv_hazard)))

    def neg_gradient(q):
        s = max(prec + float(q.sum()), 1e-150)
        return -1.0 / s ** 2 + _virtual_marginal(model, q, theta_hat, inv_hazard)

    gen = rng.generator(cfg.seed, 101)
    starts = [np.zeros(n),
              np.maximum((2.0 * theta_hat - type_dist.theta_lo) ** -0.5 - prec, 0.0)]
    while len(starts) < cfg.n_starts:
        starts.append(gen.uniform(0.0, cfg.start_scale, size=n))

    best = None
    for q0 in starts:
        res = optimize.minimize(
            neg_objective, q0, jac=neg_gradient, method="L-BFGS-B",
            bounds=[(0.0, None)] * n,
            options={"maxiter": cfg.max_iter, "ftol": 1e-18, "gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res

    q = np.maximum(best.x, 0.0)

    def pg_norm(q):
        g = neg_gradient(q)
        pg = np.where(q > 1e-14, g, np.minimum(g, 0.0))
        return float(np.linalg.norm(pg))

    def vm_i(i, u):
        return float(_virtual_marginal(model, np.array([u]), theta_hat[i:i + 1],
                                       inv_hazard[i:i + 1])[0])

    def solve_coordinate(i, s_rest):
        # exact 1D minimizer over u >= 0 of 1/(prec + s_rest + u) + gamma_i(u);
        # the gradient -(prec + s_rest + u)^-2 + gamma_i'(u) is increasing
        def grad(u):
            denom = prec + s_rest + u
            if denom <= 0.0:
                return -math.inf   # flat prior, no effort anywhere: risk slope diverges
            inv = 1.0 / denom
            return -inv * inv + vm_i(i, u)
        if grad(0.0) >= 0.0:
            return 0.0
        hi = max(float(q[i]), 1.0)
        while grad(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e12:
                return hi      # effectively free effort; let the caller fail
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if grad(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)

    # cyclic exact coordinate minimization: the coordinates couple only
    # through the total effort, so each pass reduces the (strictly convex)
    # objective and cannot stall the way a scalar-step polish can
    norm = pg_norm(q)
    for _ in range(300):
        if norm <= cfg.pg_tol:
            break
        for i in range(n):
            q[i] = solve_coordinate(i, float(q.sum() - q[i]))
        norm = pg_norm(q)
    if norm > cfg.pg_tol:
        raise SolverError(
            f"effort solver did not converge: projected gradient {norm:.3e}",
            diagnostics={"theta_hat": theta_hat.tolist(), "q": q.tolist(),
                         "pg_norm": norm, "objective": -neg_objective(q)})
    return q


def general_objective_hessian(model: CostModel, type_dist: CostTypeDistribution,
                              var0: float, theta_hat, q, h: float = 1e-5
                              ) -> np.ndarray:
    """Finite-difference Hessian of the effort objective at q (for concavity
    checks; strictly regular models give a negative-definite matrix)."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    prec = 1.0 / var0
    inv_hazard = np.asarray(type_dist.inverse_hazard(theta_hat), dtype=float)

    def obj(qv):
        return -1.0 / (prec + qv.sum()) - float(
            np.sum(_virtual_total(model, qv, theta_hat, inv_hazard)))

    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.eye(n)[i] * h
            ej = np.eye(n)[j] * h
            H[i, j] = (obj(q + ei + ej) - obj(q + ei - ej)
                       - obj(q - ei + ej) + obj(q - ei - ej)) / (4 * h * h)
            H[j, i] = H[i, j]
    return H


def payment_rule_general(model: CostModel, schedule: "EffortSchedule",
                         type_dist: CostTypeDistribution, theta_hat,
                         var0: float,
                         agent_risk: Optional[Callable] = None,
                         agent_risk_deriv: Optional[Callable] = None,
                         quad_tol: float = 1e-10,
                         quad_limit: int = 60) -> PaymentRule:
    """Transfers for an arbitrary cost model given its effort schedule.

    K = -c(Q, theta_hat)/(dhA/dq at Q) and S = K * hA(Q) for an agent risk
    hA (Gaussian posterior risk by default); pi covers the cost at the
    designated effort plus the information rent, integrating the
    type-derivative of the total cost along the schedule.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    prec = 1.0 / var0
    if agent_risk is None:
        agent_risk = lambda q: 1.0 / (prec + q)
    if agent_risk_deriv is None:
        agent_risk_deriv = lambda q: -1.0 / (prec + q) ** 2

    n = theta_hat.size
    pi = np.zeros(n)
    K = np.zeros(n)
    S = np.zeros(n)
    efforts = np.zeros(n)
    for i in range(n):
        rest = np.delete(theta_hat, i)
        Q = schedule.eval(float(theta_hat[i]), rest)
        efforts[i] = Q
        if Q <= 0.0:
            continue   # not recruited: no transfer at all
        c = float(model.marginal(Q, theta_hat[i]))
        dh = float(agent_risk_deriv(Q))
        if c != 0.0:
            if dh == 0.0:
                raise SingularPaymentRule(
                    f"agent risk slope is zero at effort {Q}")
            K[i] = -c / dh
            S[i] = K[i] * float(agent_risk(Q))
        rent, _ = integrate.quad(
            lambda z: fd_total_dtheta(model, schedule.eval(z, rest), z),
            float(theta_hat[i]), type_dist.theta_hi,
            epsabs=quad_tol, epsrel=quad_tol, limit=quad_limit)
        pi[i] = float(model.total(Q, theta_hat[i])) + rent
    return PaymentRule(pi=pi, K=K, S=S, efforts=efforts)


# ---------------------------------------------------------------------------
# effort schedules as first-class objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffortSchedule:
    """Designated effort for one agent as a function of (own report, others'
    reports)."""
    kind: str
    eval_fn: Callable

    def eval(self, theta_n: float, theta_rest=()) -> float:
        return float(self.eval_fn(float(theta_n), np.asarray(theta_rest, dtype=float)))


def linear_schedule(theta_lo: float, var0: float) -> EffortSchedule:
    def ev(theta_n, rest):
        if rest.size and rest.min() < theta_n:
            return 0.0
        return float(linear_effort_at(theta_n, theta_lo, var0))
    return EffortSchedule(kind="linear", eval_fn=ev)


def quadratic_schedule(theta_lo: float, var0: float) -> EffortSchedule:
    def ev(theta_n, rest):
        full = np.concatenate(([theta_n], rest))
        return float(effort_quadratic(full, theta_lo, var0)[0])
    return EffortSchedule(kind="quadratic", eval_fn=ev)


def general_schedule(model: CostModel, type_dist: CostTypeDistribution,
                     var0: float,
                     cfg: Optional[GeneralSolverConfig] = None) -> EffortSchedule:
    def ev(theta_n, rest):
        full = np.concatenate(([theta_n], rest))
        return float(effort_general(model, type_dist, var0, full, cfg)[0])
    return EffortSchedule(kind="general", eval_fn=ev)


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------

def predict(prior: GaussianPrior, reports, efforts) -> float:
    """Principal's point prediction from shrunk reports.

    Each active agent (designated effort > 0) reported his own posterior mean;
    weighting report n by (1/var0 + q_n) and adding (1 - #active) prior
    pseudo-observations recovers exactly the posterior mean that raw
    observations would give.  No active agents: the prior mean.
    """
    reports = np.asarray(reports, dtype=float)
    efforts = np.asarray(efforts, dtype=float)
    active = efforts > 0
    if not np.any(active):
        return prior.mu0
    prec = prior.precision
    n_active = int(active.sum())
    num = (1 - n_active) * prior.mu0 * prec + np.sum(
        (prec + efforts[active]) * reports[active])
    den = prec + float(efforts[active].sum())
    return float(num / den)


def predict_batch(prior: GaussianPrior, reports: np.ndarray,
                  efforts: np.ndarray) -> np.ndarray:
    """Vectorized predict over leading dimensions of (..., N) arrays."""
    active = efforts > 0
    prec = prior.precision
    n_active = active.sum(axis=-1)
    num = (1 - n_active) * prior.mu0 * prec + np.sum(
        np.where(active, (prec + efforts) * reports, 0.0), axis=-1)
    den = prec + np.sum(np.where(active, efforts, 0.0), axis=-1)
    return num / den


# ---------------------------------------------------------------------------
# numeric property reports (monotonicity, truthful-bidding ratio)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    theta_grid: np.ndarray
    efforts: np.ndarray
    nonincreasing: bool
    max_increase: float


def schedule_monotonicity_report(schedule: EffortSchedule, theta_rest,
                                 theta_lo: float, theta_hi: float,
                                 n: int = 200, slack: float = 1e-10) -> SweepReport:
    """Designated effort must not increase in the agent's own report."""
    lo_eps = theta_lo + max(1e-9, 1e-9 * (theta_hi - theta_lo))
    grid = np.linspace(lo_eps, theta_hi, n)
    efforts = np.array([schedule.eval(t, theta_rest) for t in grid])
    diffs = np.diff(efforts)
    max_inc = float(diffs.max()) if diffs.size else 0.0
    return SweepReport(theta_grid=grid, efforts=efforts,
                       nonincreasing=bool(max_inc <= slack), max_increase=max_inc)


@dataclass(frozen=True)
class RatioReport:
    theta_grid: np.ndarray
    ratios: np.ndarray      # -Q'(t) * t / (Q(t) + 1/var0) where Q > 0, else nan
    min_ratio: float
    passes_half: bool       # sufficient condition for truthful bidding


def sufficient_ratio_report(schedule: EffortSchedule, theta_rest,
                            theta_lo: float, theta_hi: float, var0: float,
                            n: int = 60, tol: float = 1e-6) -> RatioReport:
    """Elasticity-style ratio whose lower bound 1/2 is a sufficient (not
    necessary) condition for truthful type reports.  Reported as measured;
    consumers decide what to conclude when it dips below 1/2."""
    prec = 1.0 / var0
    lo_eps = theta_lo + max(1e-6, 1e-6 * (theta_hi - theta_lo))
    grid = np.linspace(lo_eps, theta_hi * (1 - 1e-9), n)
    ratios = np.full(n, np.nan)
    for i, t in enumerate(grid):
        # keep the backward probe strictly above theta_lo
        h = min(1e-6 * max(1.0, t), 0.5 * (t - theta_lo))
        q = schedule.eval(t, theta_rest)
        if q <= 0 or h <= 0:
            continue
        dq = (schedule.eval(t + h, theta_rest) - schedule.eval(t - h, theta_rest)) / (2 * h)
        ratios[i] = -dq * t / (q + prec)
    valid = ratios[~np.isnan(ratios)]
    min_ratio = float(valid.min()) if valid.size else math.inf
    return RatioReport(theta_grid=grid, ratios=ratios, min_ratio=min_ratio,
                       passes_half=bool(min_ratio >= 0.5 - tol))
