"""Incentive mechanism for buying effort and predictions from strategic agents.

The principal screens privately known cost types with a virtual-cost schedule
and pays through a three-part transfer: an unconditional part pi covering cost
plus information rent, an accuracy stake K multiplying the squared prediction
error, and a constant S returning the stake's expected value at the designated
effort.  Two closed-form families are implemented (linear cost: a single
winner is recruited; quadratic cost: everyone works) plus a scalar solve in
the total precision for arbitrary regular cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import integrate, optimize

from .costs import CostModel, fd_marginal_dtheta, fd_total_dtheta, own_effort
from .model import (CostTypeDistribution, GaussianPrior, agent_bayes_risk,
                    agent_bayes_risk_deriv)


class SolverError(RuntimeError):
    """Optimizer failed to converge; carries diagnostics."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# effort rules: report vector -> designated efforts
# ---------------------------------------------------------------------------

def rank_rows(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(winner, lowest, runner-up) of each row of a (..., N) array: np.argmin
    (the lowest index on ties), the min and np.partition(theta, 1)[..., 1]
    (inf for N = 1), for entries that are not NaN.  One pass over the
    columns of a transposed copy; the values are selected, so exact."""
    theta = np.asarray(theta, dtype=float)
    lead, n = theta.shape[:-1], theta.shape[-1]
    cols = np.ascontiguousarray(theta.reshape(-1, n).T)
    lowest = cols[0].copy()
    winner = np.zeros(lowest.size, dtype=np.intp)
    second = np.full(lowest.size, np.inf)
    for j, c in enumerate(cols[1:], 1):
        # the runner-up is the old one or whichever of lowest, c stays above
        np.minimum(second, np.maximum(lowest, c), out=second)
        np.putmask(winner, c < lowest, j)
        np.minimum(lowest, c, out=lowest)
    return winner.reshape(lead), lowest.reshape(lead), second.reshape(lead)


def row_sums(a) -> np.ndarray:
    """a.sum(axis=-1) of a C-contiguous (..., N) array, bit for bit, by
    adding whole columns in the association of numpy's pairwise reduce over
    one contiguous row: that reduce starts from 0.0 and adds the terms in
    order below 8 of them, and in the blocks of _pairwise_columns above.
    numpy reduces a (T, N) block one short row at a time; the column adds
    run over all T rows at once."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:         # one contiguous row is numpy's own reduce
        return a.sum(axis=-1)
    lead, n = a.shape[:-1], a.shape[-1]
    cols = a.reshape(math.prod(lead), n).T
    out = np.zeros(cols.shape[1])
    if n < 8:
        for c in cols:
            out += c
    else:
        out += _pairwise_columns(cols)
    return out.reshape(lead)[()]


def _pairwise_columns(cols: np.ndarray) -> np.ndarray:
    """numpy's pairwise_sum of n >= 8 terms, elementwise over the columns of
    an (n, m) array: up to 128 terms, eight accumulators seeded with terms
    0-7 each add every 8th term up to n - n % 8, combine as ((r0 + r1) +
    (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the rest are added in order;
    above 128, the halves split at a multiple of 8 are summed alone."""
    n = cols.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise_columns(cols[:half])
        out += _pairwise_columns(cols[half:])
        return out
    k = n - n % 8
    r = [cols[j] + cols[j + 8] for j in range(8)] if k > 8 else list(cols[:8])
    for i in range(16, k, 8):
        for j in range(8):
            r[j] += cols[i + j]
    out = r[0] + r[1]
    out += r[2] + r[3]
    right = r[4] + r[5]
    right += r[6] + r[7]
    out += right
    for c in cols[k:]:
        out += c
    return out


def argmin_winner_batch(theta_hat: np.ndarray, tie_break: str = "lowest-index",
                        tie_uniforms: Optional[np.ndarray] = None,
                        rank=None) -> np.ndarray:
    """Recruited agent under linear cost, the lowest report, of every row of a
    (T, N) report array; ties go to the lowest index, or with tie_break =
    "seeded-random" to the tied entry that the uniform tie_uniforms[t] picks.
    rank is rank_rows(theta_hat) where the caller has it already."""
    winner, lowest, second = rank_rows(theta_hat) if rank is None else rank
    if tie_break == "lowest-index" or tie_uniforms is None:
        return winner
    winner = winner.copy()      # rank may be shared
    for t in np.flatnonzero(second == lowest):
        ties = np.flatnonzero(theta_hat[t] == lowest[t])
        winner[t] = ties[min(int(tie_uniforms[t] * ties.size), ties.size - 1)]
    return winner


def _virtual_costs(theta_hat, theta_lo: float) -> np.ndarray:
    """Uniform-type virtual costs 2*theta_hat - theta_lo, all positive."""
    gamma = 2.0 * np.asarray(theta_hat, dtype=float) - theta_lo
    if np.any(gamma <= 0):
        raise ValueError("virtual cost must be positive for every report")
    return gamma


def effort_linear(theta_hat, theta_lo: float, var0: float) -> np.ndarray:
    """Designated efforts under linear cost: the lowest bidder (lowest index
    on ties) is asked for linear_effort_at its report, everyone else for 0."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    winner = theta_hat.argmin()
    q = np.zeros(theta_hat.shape)
    # the winner holds the lowest report, so its virtual cost is the least
    if 2.0 * theta_hat[winner] - theta_lo <= 0:
        raise ValueError("virtual cost must be positive for every report")
    q[winner] = linear_effort_at(theta_hat[winner], theta_lo, var0)
    return q


def cubic_root(a, b):
    """Positive real root of W^3 - a W^2 - b = 0 (a >= 0, b >= 0, a + b > 0).

    Closed form for the depressed cubic plus one Newton polish step; an extra
    step is applied only if the first leaves a residual above 1e-12 relative
    (cancellation in the second cube root's argument when b >> a^3).
    Vectorized over broadcastable a, b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # each step in place where the operand order allows; a 0-d call gets
    # numpy scalars, which the augmented operators rebind
    a3 = a * a * a
    t = a3 / 27.0 + b / 2.0
    s = a3 * b
    s /= 27.0
    s += b * b / 4.0
    s = np.sqrt(s)
    W = np.cbrt(t + s)
    W += a / 3.0
    t -= s
    W += np.cbrt(t)
    del t, s                # free the temporaries before the polish

    def polish(W):
        W2 = W * W
        f = W2 * W
        f -= a * W2
        f -= b
        W2 *= 3.0           # now the slope 3 W^2 - 2 a W
        W2 -= 2.0 * a * W
        up = W2 > 0
        f /= np.where(up, W2, 1.0)
        return np.where(up, W - f, W)

    W = polish(W)
    W2 = W * W
    res = W2 * W
    scale = np.maximum(1.0, res)
    res -= a * W2
    res -= b
    res = np.abs(res)
    res /= scale
    off = res > 1e-12
    if off.any():
        W = np.where(off, polish(W), W)
    return W


def _quadratic_schedule(theta_hat, theta_lo: float, var0: float):
    """(q, 1/gamma, sum of 1/gamma) under quadratic cost for (..., N) reports:
    q_n = 1/(gamma_n W^2) with W^3 - W^2/var0 = sum of 1/gamma_n."""
    inv_gamma = 1.0 / _virtual_costs(theta_hat, theta_lo)
    s_total = row_sums(inv_gamma)
    W = cubic_root(1.0 / var0, s_total)[..., None]
    return inv_gamma / (W * W), inv_gamma, s_total[..., None]


def effort_quadratic(theta_hat, theta_lo: float, var0: float) -> np.ndarray:
    """Designated efforts under quadratic cost, all strictly positive."""
    return _quadratic_schedule(theta_hat, theta_lo, var0)[0]


def quadratic_effort_at(theta, s_rest, theta_lo: float, var0: float):
    """(effort, W) under quadratic cost of an agent reporting theta whose
    rivals' 1/gamma sum to s_rest: 1/(gamma W^2), W^3 - W^2/var0 =
    s_rest + 1/gamma.  W is the rent tail's W_from at theta."""
    inv_gamma = 1.0 / _virtual_costs(theta, theta_lo)
    W = cubic_root(1.0 / var0, s_rest + inv_gamma)
    return inv_gamma / (W * W), W


def inverse_cost_sum(theta_rest, theta_lo: float) -> np.ndarray:
    """Rival reports' summed inverse virtual costs 1/gamma, last axis."""
    return row_sums(1.0 / _virtual_costs(theta_rest, theta_lo))


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
                   theta_hi: float, var0: float) -> float:
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
        theta_hat_win, upper, points=points, epsabs=1e-10, epsrel=1e-10,
        limit=200)
    return theta_hat_win * q_win + tail


def linear_tail_anti(z, theta_lo: float, var0: float) -> np.ndarray:
    """Antiderivative sqrt(2z-lo) - z/var0 of the clamped schedule
    max{(2z-lo)^(-1/2) - 1/var0, 0}, taken at min(z, linear_clamp_point),
    past which the schedule is 0.  Vectorized."""
    z = np.minimum(np.asarray(z, dtype=float),
                   linear_clamp_point(theta_lo, var0))
    return np.sqrt(np.maximum(2.0 * z - theta_lo, 0.0)) - (1.0 / var0) * z


def linear_tail_closed(a, b, theta_lo: float, var0: float) -> np.ndarray:
    """Exact integral of the clamped schedule over [a, b]: the difference of
    linear_tail_anti, 0 when b <= a or a is past the clamp point.
    Vectorized."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    live = (b > a) & (a < linear_clamp_point(theta_lo, var0))
    return np.where(live, linear_tail_anti(b, theta_lo, var0)
                    - linear_tail_anti(a, theta_lo, var0), 0.0)


def linear_winner_components(theta_win, tail_upper, theta_lo: float,
                             var0: float):
    """(pi, K, S, q) of the recruited agent under linear cost, given its
    report and the upper limit of its rent tail (the lowest rival report,
    capped at theta_hi); all 0 where the designated effort q is 0.  pi is the
    cost theta*q plus the closed-form tail, verified against linear_pi_quad
    in tests.  Vectorized over broadcastable arrays, such as the lowest and
    runner-up reports of rank_rows, whichever tied entry wins."""
    th = np.asarray(theta_win, dtype=float)
    g = 2.0 * th - theta_lo
    q = linear_effort_at(th, theta_lo, var0)
    live = q > 0.0
    pi = th * q + np.where(live, linear_tail_closed(th, tail_upper, theta_lo,
                                                    var0), 0.0)
    return (pi, np.where(live, th / g, 0.0), np.where(live, th * g ** -0.5, 0.0),
            q)


def payment_rule_linear(theta_hat, theta_lo: float, theta_hi: float,
                        var0: float) -> PaymentRule:
    """Transfers under linear cost: only the winner (the lowest index on
    ties) is paid, its rent tail running up to the second-lowest report,
    and the rule is identically zero if its designated effort clamps to 0."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    _virtual_costs(theta_hat, theta_lo)       # every virtual cost positive
    winner, lowest, second = rank_rows(theta_hat)
    terms = linear_winner_components(lowest, np.minimum(theta_hi, second),
                                     theta_lo, var0)
    pi, K, S, q = (np.where(np.arange(theta_hat.size) == winner, t, 0.0)
                   for t in terms)
    return PaymentRule(pi=pi, K=K, S=S, efforts=q)


def quadratic_pi_quad(agent: int, theta_hat, theta_lo: float, theta_hi: float,
                      var0: float, tol: float = 1e-10) -> float:
    """Unconditional payment for one agent under quadratic cost by adaptive
    quadrature; every node re-solves the cubic with that agent's report
    replaced by the integration variable.

    The squared schedule varies on the scale of the own virtual cost, so a
    low report gets one breakpoint per decade of virtual cost up to theta_hi;
    without them quad can stop on a wrong value with only a warning."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    gamma = _virtual_costs(theta_hat, theta_lo)
    s_rest = float(np.sum(1.0 / gamma)) - 1.0 / gamma[agent]
    a = 1.0 / var0

    def q_sq(z):
        gz = 2.0 * z - theta_lo
        W = float(cubic_root(a, s_rest + 1.0 / gz))
        return (1.0 / (gz * W * W)) ** 2

    g_hi = 2.0 * theta_hi - theta_lo
    decades = math.ceil(math.log10(g_hi / gamma[agent]))
    points = ((np.geomspace(gamma[agent], g_hi, decades + 1)[1:-1] + theta_lo)
              / 2.0 if decades > 1 else None)
    tail, _ = integrate.quad(q_sq, float(theta_hat[agent]), theta_hi,
                             points=points, epsabs=tol, epsrel=tol, limit=200)
    q_own = effort_quadratic(theta_hat, theta_lo, var0)[agent]
    return 0.5 * (theta_hat[agent] * q_own ** 2 + tail)


# name and arity fixed by perfbench's tracer: it reads a 6th positional arg
# as order, so W_from is keyword-only
def quadratic_pi_tail_gl(theta_from, s_rest, theta_lo: float, theta_hi: float,
                         var0: float, *, W_from=None) -> np.ndarray:
    """Exact tail integral of the squared quadratic-cost schedule over
    [theta_from, theta_hi], vectorized over broadcastable theta_from, s_rest.

    With a = 1/var0, W(z) solves W^3 - a W^2 = s_rest + 1/(2z - theta_lo)
    and q = 1/((2z - theta_lo) W^2), so q^2 dz = -(3/(2W^2) - a/W^3) dW and
    the tail is G(W_hi) - G(W_from) with G(W) = 3/(2W) - a/(2W^2).  It is
    evaluated factored, W_from - W_hi taken from the difference of the two
    cubics, so it keeps full relative precision as theta_from nears
    theta_hi; verified against quadratic_pi_quad in tests.  W_from, if
    given, is W at theta_from (quadratic_effort_at's root), so the cubic is
    not solved again."""
    tf = np.asarray(theta_from, dtype=float)
    s = np.asarray(s_rest, dtype=float)
    a = 1.0 / var0
    g_f = 2.0 * tf - theta_lo
    g_h = 2.0 * theta_hi - theta_lo
    W_f = cubic_root(a, s + 1.0 / g_f) if W_from is None else W_from
    W_h = cubic_root(a, s + 1.0 / g_h)
    dW = 2.0 * (theta_hi - tf) / (
        g_f * g_h * (W_f * W_f + W_f * W_h + W_h * W_h - a * (W_f + W_h)))
    fh = W_f * W_h
    return dW * (1.5 / fh - 0.5 * a * (W_f + W_h) / (fh * fh))


def quadratic_transfers(theta_hat, efforts, s_rest, theta_lo: float,
                        theta_hi: float, var0: float, *, W_from=None):
    """(pi, K, S) under quadratic cost for reports theta_hat at designated
    efforts, with s_rest each agent's rivals' summed inverse virtual costs:
    pi = (theta q^2 + rent tail)/2, K = (1/var0 + q)^2 theta q and
    S = (1/var0 + q) theta q.  Vectorized over broadcastable arrays; W_from
    goes to quadratic_pi_tail_gl."""
    prec = 1.0 / var0
    tail = quadratic_pi_tail_gl(theta_hat, s_rest, theta_lo, theta_hi, var0,
                                W_from=W_from)
    pi = 0.5 * (theta_hat * efforts ** 2 + tail)
    return (pi, (efforts + prec) ** 2 * theta_hat * efforts,
            (efforts + prec) * theta_hat * efforts)


def quadratic_components_batch(theta_hat: np.ndarray, theta_lo: float,
                               theta_hi: float, var0: float
                               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(pi, K, S, efforts) for every agent, vectorized over leading dims of a
    (..., N) report array.  Fast path used by the simulation engine."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    efforts, inv_gamma, s_total = _quadratic_schedule(theta_hat, theta_lo,
                                                      var0)
    return (*quadratic_transfers(theta_hat, efforts, s_total - inv_gamma,
                                 theta_lo, theta_hi, var0), efforts)


def payment_rule_quadratic(theta_hat, theta_lo: float, theta_hi: float,
                           var0: float) -> PaymentRule:
    """Transfers under quadratic cost, one row of quadratic_components_batch;
    every agent is recruited and paid."""
    return PaymentRule(*quadratic_components_batch(theta_hat, theta_lo,
                                                   theta_hi, var0))


# ---------------------------------------------------------------------------
# general cost models: numeric schedule and payments
# ---------------------------------------------------------------------------

def _virtual_total(model: CostModel, q: np.ndarray, theta: np.ndarray,
                   inv_hazard: np.ndarray) -> np.ndarray:
    """C(q, theta) + dC/dtheta(q, theta) * F/f, the per-agent virtual cost."""
    return model.total(q, theta) + fd_total_dtheta(model, q, theta) * inv_hazard


def _virtual_marginal(model: CostModel, q: np.ndarray, theta: np.ndarray,
                      inv_hazard: np.ndarray) -> np.ndarray:
    return (model.marginal(q, theta)
            + fd_marginal_dtheta(model, q, theta) * inv_hazard)


#: _virtual_marginal differentiates in theta by central difference, so its
#: values carry 1e-11 to 1e-10 relative noise, and the effort solves stop at
#: that floor (a tighter stop need not terminate): an agent's effort once
#: |vm(q) - lam| <= _TOL * lam, the total precision once the Newton step in
#: lam = 1/P^2 is below _TOL * lam
_TOL = 1e-10
#: bound on the projected gradient of the returned efforts, relative to the
#: marginal value of precision 1/P^2 once that exceeds 1
_PG_TOL = 1e-9
_MAX_ITER = 200
_EPS = float(np.finfo(float).eps)


def _collapsed(lo, hi):
    """Bracket [lo, hi] within a few ulps (never with hi = inf)."""
    return lo >= hi * (1.0 - 4.0 * _EPS)


def _efforts_at_price(vm: Callable, lam: float, cap: float,
                      q_start: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Every agent's effort at marginal value lam of precision,
    q_i = min{q >= 0 : vm(q, i) >= lam}, searched on [0, cap].

    vm(q, idx) is the virtual marginal cost of agents idx at efforts q,
    nondecreasing in q.  Agents not settled by the bracket ends take Newton
    steps (slope by forward difference, in the same vm call) from q_start
    where it lies inside the bracket, from the false-position point
    otherwise, and bisect where a step would leave the bracket.

    Returns (q, dq_dlam, evals): q_i = inf where vm(cap, i) < lam; evals
    counts vm calls.  dq_dlam_i is 1/d for the forward-difference slope d of
    vm at the last iterate, from which the final step (Newton, or to the
    upper end of a collapsed bracket) is taken; so it is not 1/vm'(q_i) at
    the returned effort.  It is 0 where the bracket ends settle the agent,
    where the iteration cap ends the search or where d is not positive.
    """
    n = q_start.size
    every = np.arange(n)
    ends = vm(np.concatenate((np.zeros(n), np.full(n, cap))),
              np.concatenate((every, every)))
    v0, vb = ends[:n], ends[n:]
    q = np.where(v0 >= lam, 0.0, np.where(vb < lam, np.inf, np.nan))
    dq_dlam = np.zeros(n)
    todo = np.flatnonzero(np.isnan(q))
    lo = np.zeros(todo.size)
    hi = np.full(todo.size, cap)
    f_lo, f_hi = v0[todo] - lam, vb[todo] - lam
    x = q_start[todo]
    x = np.where((x > lo) & (x < hi), x, cap * f_lo / (f_lo - f_hi))
    evals = 1
    for _ in range(_MAX_ITER):
        if not todo.size:
            break
        m = todo.size
        h = np.maximum(1e-6 * x, 1e-300)
        vals = vm(np.concatenate((x, x + h)), np.concatenate((todo, todo)))
        evals += 1
        f = vals[:m] - lam
        d = (vals[m:] - vals[:m]) / h
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        up = d > 0.0
        inv_d = np.where(up, 1.0 / np.where(up, d, 1.0), 0.0)
        newton = x - f * inv_d
        inside = up & (newton > lo) & (newton < hi)
        root = np.abs(f) <= _TOL * lam
        stop = root | _collapsed(lo, hi)
        # a root takes the Newton step it has already paid for; a collapsed
        # bracket sits on a jump of vm, where hi is the least q
        q[todo[stop]] = np.where(root, np.where(inside, newton, x), hi)[stop]
        dq_dlam[todo[stop]] = inv_d[stop]
        step = np.where(inside, newton, 0.5 * (lo + hi))
        go = ~stop
        todo, x, lo, hi = todo[go], step[go], lo[go], hi[go]
    q[todo] = hi        # iteration cap: the upper bracket end meets vm >= lam
    return q, dq_dlam, evals


def effort_general(model: CostModel, type_dist: CostTypeDistribution,
                   var0: float, theta_hat) -> np.ndarray:
    """Designated efforts for an arbitrary regular cost model: maximize
    -1/P - sum of virtual costs over q >= 0, with P = 1/var0 + sum(q) the
    total precision.

    P is the only coupling between agents: at the optimum every active agent
    has virtual marginal cost 1/P^2 and every idle one at least that much.
    So with q_i(P) each agent's least effort whose virtual marginal cost
    reaches 1/P^2, the optimum is the root of the strictly decreasing
    F(P) = 1/var0 + sum q_i(P) - P, found by Newton steps in 1/P^2 kept
    inside a bracket (bisection otherwise), every step solving all agents at
    once, warm-started from the previous one.  A marginal cost flat in q
    (linear cost) makes F jump at the root; the agent whose effort jumps
    there takes the residual P - 1/var0 - sum(others), ties to the lowest
    index.

    Raises SolverError when no finite optimum exists (effort that costs
    nothing at the margin) or the projected gradient of the result exceeds
    1e-9 * max(1, 1/P^2), the scale of the virtual marginal cost at the
    optimum; its diagnostics carry P and the iteration counts.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    n = theta_hat.size
    prec = 1.0 / var0
    inv_hazard = np.asarray(type_dist.inverse_hazard(theta_hat), dtype=float)
    iterations = {"outer": 0, "inner": 0}

    def vm(q, idx):
        return _virtual_marginal(model, q, theta_hat[idx], inv_hazard[idx])

    def solve_at(P, q_start):
        # an effort above P - 1/var0 alone makes F(P) > 0; searching up to
        # twice that keeps F finite close to the root
        q, dq_dlam, evals = _efforts_at_price(vm, 1.0 / (P * P),
                                              2.0 * (P - prec), q_start)
        iterations["outer"] += 1
        iterations["inner"] += evals
        return q, dq_dlam, prec + float(q.sum()) - P

    def diagnostics(q, P):
        return {"theta_hat": theta_hat.tolist(), "q": q.tolist(), "P": P,
                "outer_iterations": iterations["outer"],
                "inner_iterations": iterations["inner"]}

    # F(lo) > 0 and F(hi) <= 0, with F = +inf where an effort exceeds the
    # search cap.  Each step is a Newton step in lam = 1/P^2 when it lands
    # inside the bracket and, once hi is known, at most halves the previous
    # step; otherwise P doubles (no hi yet) or the bracket is bisected.
    lo, q_lo, hi, q_hi = prec, np.full(n, np.inf), math.inf, None
    q = np.zeros(n)
    if prec > 0.0:
        q, _, F = solve_at(prec, q)
        if F == 0.0:
            return q        # nobody is worth recruiting
        q_lo = q
    P = 2.0 * prec if prec > 0.0 else 1.0
    step_old = math.inf
    lam, dq_dlam = 1.0 / (P * P), np.zeros(n)
    for _ in range(_MAX_ITER):
        # warm start: first-order prediction of each effort from the last P
        q, dq_dlam, F = solve_at(P, q + dq_dlam * (1.0 / (P * P) - lam))
        lam = 1.0 / (P * P)
        # Newton step in lam = 1/P^2: dF/dlam = sum dq_i/dlam + P^3/2
        dlam = -F / (float(dq_dlam.sum()) + 0.5 * P * P * P)
        converged = abs(dlam) <= _TOL * lam
        if converged:
            # the step, taken to first order
            q = np.maximum(q + dq_dlam * dlam, 0.0)
            break
        if F > 0.0:
            lo, q_lo = P, q
        else:
            hi, q_hi = P, q
        if _collapsed(lo, hi):
            break
        lam_new = lam + dlam
        newton = 1.0 / math.sqrt(lam_new) if lam_new > 0.0 else math.inf
        if math.isfinite(F) and lo < newton < hi and (
                hi == math.inf or abs(newton - P) <= 0.5 * step_old):
            new = newton
        else:
            new = 2.0 * P if hi == math.inf else 0.5 * (lo + hi)
        step_old, P = abs(new - P), new
        if not 1.0 / (P * P) > 0.0:
            break           # P * P overflows
    if not converged:
        if hi == math.inf:
            raise SolverError(
                "effort solver found no finite optimum: virtual marginal "
                f"cost stays below 1/P^2 up to P = {lo:.3e}",
                diagnostics=diagnostics(q_lo, lo))
        if not _collapsed(lo, hi):
            raise SolverError(
                f"effort solver did not converge: F(P) = {F:.3e} with P in "
                f"[{lo:.17g}, {hi:.17g}]", diagnostics=diagnostics(q, P))
        # F jumps across the collapsed bracket: the agent whose effort drops
        # most across it takes the residual (argmax: lowest index on ties)
        q = q_hi.copy()
        q[int(np.argmax(q_lo - q_hi))] += hi - prec - float(q_hi.sum())

    P = prec + float(q.sum())
    g = _virtual_marginal(model, q, theta_hat, inv_hazard) - 1.0 / (P * P)
    pg_norm = float(np.linalg.norm(np.where(q > 1e-14, g, np.minimum(g, 0.0))))
    if not pg_norm <= _PG_TOL * max(1.0, 1.0 / (P * P)):
        diag = diagnostics(q, P)
        diag["pg_norm"] = pg_norm
        diag["objective"] = -1.0 / P - float(
            np.sum(_virtual_total(model, q, theta_hat, inv_hazard)))
        raise SolverError(
            f"effort solver did not converge: projected gradient {pg_norm:.3e}",
            diagnostics=diag)
    return q


def payment_rule_general(model: CostModel, efforts: Callable,
                         type_dist: CostTypeDistribution, theta_hat,
                         var0: float) -> PaymentRule:
    """Transfers for an arbitrary cost model given its effort rule, a function
    from the report vector to the designated efforts (effort_general or a
    closed-form rule, bound with functools.partial).

    Every designated effort Q comes from one efforts(theta_hat) call.  K =
    -c(Q, theta_hat)/(dhA/dq at Q) and S = K * hA(Q) for the agent's Gaussian
    posterior risk hA; pi covers the cost at the designated effort plus the
    information rent, integrating the type-derivative of the total cost along
    the rule in the agent's own report z, the rivals' reports held fixed.
    Effort can drop to 0 as z rises (linear cost: at a rival's report or the
    agent's own clamp point), and quad misses such drops, so the rent stops
    where the agent exits.  Once its effort is 0 the rivals play their own
    equilibrium, of total precision P = 1/var0 + sum of efforts(rival
    reports), so the exit is the least z whose virtual marginal cost at zero
    effort reaches 1/P^2 (theta_hi if none): one more rule call and one
    scalar root.  Where the rule leaves some agent idle, the rival reports
    below the exit are breakpoints.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    prior = GaussianPrior(0.0, var0)
    q = efforts(theta_hat)
    pi, K, S = (np.zeros(theta_hat.size) for _ in range(3))
    reports = theta_hat.copy()
    hi = type_dist.theta_hi
    for i, Q in enumerate(q):
        if Q <= 0.0:
            continue   # not recruited: no transfer at all
        c = float(model.marginal(Q, theta_hat[i]))
        if c != 0.0:
            K[i] = -c / float(agent_bayes_risk_deriv(prior, Q))
            S[i] = K[i] * float(agent_bayes_risk(prior, Q))

        def effort_i(z):
            reports[i] = z
            return efforts(reports)[i]

        rivals = np.delete(theta_hat, i)
        p_rest = 1.0 / var0 + (float(efforts(rivals).sum()) if rivals.size
                               else 0.0)

        def exit_gap(z):
            # vm(0; z) P^2 - 1: never positive at P = 0 (var0 = inf, N = 1)
            return float(_virtual_marginal(model, 0.0, z,
                                           type_dist.inverse_hazard(z))
                         ) * p_rest * p_rest - 1.0

        lo = float(theta_hat[i])
        if exit_gap(lo) >= 0.0:
            upper = lo      # a tie: the rival that it ties takes over at once
        elif exit_gap(hi) <= 0.0:
            upper = hi
        else:
            upper = optimize.brentq(exit_gap, lo, hi, xtol=_EPS)
        jumps = theta_hat[(theta_hat > theta_hat[i]) & (theta_hat < upper)]
        rent, _ = integrate.quad(
            lambda z: fd_total_dtheta(model, effort_i(z), z),
            lo, upper, epsabs=1e-10, epsrel=1e-10, limit=60,
            points=jumps if jumps.size and np.any(q <= 0.0) else None)
        reports[i] = theta_hat[i]
        pi[i] = float(model.total(Q, theta_hat[i])) + rent
    return PaymentRule(pi=pi, K=K, S=S, efforts=q)


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------

def predict_batch(prior: GaussianPrior, reports: np.ndarray,
                  efforts: np.ndarray) -> np.ndarray:
    """Principal's point prediction from shrunk reports, vectorized over the
    leading dimensions of (..., N) arrays.

    Each active agent (designated effort > 0) reported its own posterior
    mean; weighting report n by (1/var0 + q_n) and adding (1 - #active)
    prior pseudo-observations recovers exactly the posterior mean that raw
    observations would give.  No active agents: the prior mean.
    """
    active = efforts > 0
    prec = prior.precision
    n_active = row_sums(active)
    num = (1 - n_active) * prior.mu0 * prec + row_sums(
        np.where(active, (prec + efforts) * reports, 0.0))
    den = prec + row_sums(np.where(active, efforts, 0.0))
    # den is 0 only at var0 = inf with nobody active
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), prior.mu0)


# ---------------------------------------------------------------------------
# numeric property reports (monotonicity, truthful-bidding ratio)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    theta_grid: np.ndarray
    efforts: np.ndarray
    nonincreasing: bool
    max_increase: float


def schedule_monotonicity_report(efforts: Callable, theta_rest,
                                 theta_lo: float, theta_hi: float,
                                 n: int = 200) -> SweepReport:
    """Designated effort must not increase in the agent's own report (slack
    1e-10)."""
    lo_eps = theta_lo + max(1e-9, 1e-9 * (theta_hi - theta_lo))
    grid = np.linspace(lo_eps, theta_hi, n)
    q = np.array([own_effort(efforts, t, theta_rest) for t in grid])
    diffs = np.diff(q)
    max_inc = float(diffs.max()) if diffs.size else 0.0
    return SweepReport(theta_grid=grid, efforts=q,
                       nonincreasing=bool(max_inc <= 1e-10),
                       max_increase=max_inc)


@dataclass(frozen=True)
class RatioReport:
    theta_grid: np.ndarray
    ratios: np.ndarray      # -Q'(t) * t / (Q(t) + 1/var0) where Q > 0, else nan
    min_ratio: float
    passes_half: bool       # sufficient condition for truthful bidding


def sufficient_ratio_report(efforts: Callable, theta_rest,
                            theta_lo: float, theta_hi: float,
                            var0: float) -> RatioReport:
    """Elasticity-style ratio on a 60-point grid whose lower bound 1/2 is a
    sufficient (not necessary) condition for truthful type reports.  Reported
    as measured; consumers decide what to conclude when it dips below 1/2."""
    n = 60
    prec = 1.0 / var0
    lo_eps = theta_lo + max(1e-6, 1e-6 * (theta_hi - theta_lo))
    grid = np.linspace(lo_eps, theta_hi * (1 - 1e-9), n)
    ratios = np.full(n, np.nan)
    for i, t in enumerate(grid):
        # keep the backward probe strictly above theta_lo
        h = min(1e-6 * max(1.0, t), 0.5 * (t - theta_lo))
        q = own_effort(efforts, t, theta_rest)
        if q <= 0 or h <= 0:
            continue
        dq = (own_effort(efforts, t + h, theta_rest)
              - own_effort(efforts, t - h, theta_rest)) / (2 * h)
        ratios[i] = -dq * t / (q + prec)
    valid = ratios[~np.isnan(ratios)]
    min_ratio = float(valid.min()) if valid.size else math.inf
    return RatioReport(theta_grid=grid, ratios=ratios, min_ratio=min_ratio,
                       passes_half=bool(min_ratio >= 0.5 - 1e-6))
