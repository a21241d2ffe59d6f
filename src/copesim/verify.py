"""Numeric verification suites behind the `verify` CLI subcommand.

Each suite reruns an invariant of the mechanism against an independent
numeric oracle and returns a list of Check rows; a suite passes iff every
required check passes.  Suites: bic (reporting truthfully and exerting the
designated effort is a grid-certified best response), bir (truthful interim
payoffs are nonnegative and match the rent integral), monotonicity (effort
schedules fall with the reported cost), cubic (aggregate-precision root
residuals), closed-forms (general-cost optimizer against the closed-form
schedules and transfers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy.optimize import brentq

from . import agents, mechanism, rng
from .costs import LINEAR, QUADRATIC, linear_cost, quadratic_cost
from .model import CostTypeDistribution, GaussianPrior, Scenario, TYPE_CLAMP


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""
    required: bool = True


def _scenario(cost_kind: str, n_agents: int) -> Scenario:
    model = linear_cost() if cost_kind == LINEAR else quadratic_cost()
    return Scenario(prior=GaussianPrior(0.0, 1.0),
                    type_dist=CostTypeDistribution.uniform(0.0, 1.0),
                    n_agents=n_agents, cost_model=model)


# -- cubic ---------------------------------------------------------------------

def suite_cubic(seed: int = 0, n_instances: int = 10_000) -> List[Check]:
    gen = rng.generator(seed, 0, 7001)
    a = np.where(gen.random(n_instances) < 0.1, 0.0,
                 10.0 ** gen.uniform(-3, 2, n_instances))
    b = 10.0 ** gen.uniform(-8, 3, n_instances)
    W = mechanism.cubic_root(a, b)
    res = np.abs(W ** 3 - a * W ** 2 - b) / np.maximum(1.0, W ** 3)
    worst = int(np.argmax(res))
    checks = [Check(
        name=f"cubic residual, {n_instances} random (a,b)",
        passed=bool(res.max() < 1e-10), measured=float(res.max()), bound=1e-10,
        detail=f"worst at a={a[worst]:.6g} b={b[worst]:.6g} (seed {seed})")]
    # independent root finder from a sign-changing bracket
    sub = gen.choice(n_instances, size=min(200, n_instances),
                     replace=False)
    max_dev = 0.0
    detail = ""
    for i in sub:
        f = lambda w: w ** 3 - a[i] * w ** 2 - b[i]
        lo = max(a[i], b[i] ** (1.0 / 3.0))
        hi = a[i] + b[i] ** (1.0 / 3.0) + 1.0
        w_ref = brentq(f, lo * 0.5, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        dev = abs(W[i] - w_ref) / max(1.0, abs(w_ref))
        if dev > max_dev:
            max_dev, detail = dev, f"worst at a={a[i]:.6g} b={b[i]:.6g}"
    checks.append(Check(
        name=f"cubic vs bracketing root finder, {len(sub)} instances",
        passed=bool(max_dev < 1e-10), measured=float(max_dev), bound=1e-10,
        detail=detail))
    return checks


# -- closed forms --------------------------------------------------------------

def _rel_dev(got, want) -> float:
    """Largest |got - want|, relative to max(1, largest |want|)."""
    return float(np.max(np.abs(got - want))
                 / max(1.0, float(np.max(np.abs(want)))))


def suite_closed_forms(seed: int = 0, n_vectors: int = 50) -> List[Check]:
    checks: List[Check] = []
    gen = rng.generator(seed, 0, 7002)
    dist = CostTypeDistribution.uniform(0.0, 1.0)
    var0 = 1.0
    for kind, closed_effort, closed_rule, model in (
            (LINEAR, mechanism.effort_linear, mechanism.payment_rule_linear,
             linear_cost()),
            (QUADRATIC, mechanism.effort_quadratic,
             mechanism.payment_rule_quadratic, quadratic_cost())):
        # (worst deviation, where) per row: q, K/S, general pi, quadrature pi
        worst = {row: (0.0, "") for row in ("q", "ks", "pi", "quad")}
        for v in range(n_vectors):
            n = int(gen.integers(1, 6))
            theta = np.sort(gen.uniform(0.05, 1.0, n))
            rule_c = closed_rule(theta, 0.0, 1.0, var0)
            rule_g = mechanism.payment_rule_general(
                model, partial(closed_effort, theta_lo=0.0, var0=var0), dist,
                theta, var0)
            # pi by adaptive quadrature; the sorted reports' first one wins
            # under linear cost
            pi_quad = np.array(
                [mechanism.linear_pi_quad(theta[0], theta[1:], 0.0, 1.0, var0)]
                + [0.0] * (n - 1) if kind == LINEAR else
                [mechanism.quadratic_pi_quad(i, theta, 0.0, 1.0, var0)
                 for i in range(n)])
            for row, comp, dev in (
                    ("q", "q", _rel_dev(mechanism.effort_general(
                        model, dist, var0, theta), rule_c.efforts)),
                    ("ks", "K", _rel_dev(rule_g.K, rule_c.K)),
                    ("ks", "S", _rel_dev(rule_g.S, rule_c.S)),
                    ("pi", "pi", _rel_dev(rule_g.pi, rule_c.pi)),
                    ("quad", "pi", _rel_dev(pi_quad, rule_c.pi))):
                if dev > worst[row][0]:
                    worst[row] = (dev, f"{comp}, vector {v}, N={n}")
        for row, name, bound in (
                ("q", f"general optimizer vs {kind} schedule, {n_vectors} "
                 "vectors", 1e-6),
                ("ks", f"general K/S vs {kind} closed form", 1e-8),
                ("pi", f"general pi vs {kind} closed form", 1e-6),
                ("quad", f"{kind} closed-form pi vs adaptive quadrature",
                 1e-9)):
            dev, detail = worst[row]
            checks.append(Check(name=name, passed=dev < bound, measured=dev,
                                bound=bound, detail=detail))
    return checks


# -- monotonicity --------------------------------------------------------------

def suite_monotonicity(seed: int = 0, n_grid: int = 400) -> List[Check]:
    checks: List[Check] = []
    var0 = 1.0
    for kind, effort, rest in ((LINEAR, mechanism.effort_linear, ()),
                               (QUADRATIC, mechanism.effort_quadratic,
                                (0.4, 0.7))):
        rep = mechanism.schedule_monotonicity_report(
            partial(effort, theta_lo=0.0, var0=var0), rest, 0.0, 1.0, n=n_grid)
        checks.append(Check(
            name=f"{kind} schedule nonincreasing in own report",
            passed=rep.nonincreasing, measured=rep.max_increase, bound=1e-10,
            detail=f"{n_grid}-point sweep, rivals {rest}"))
    gen = rng.generator(seed, 0, 7003)
    for kind in (LINEAR, QUADRATIC):
        worst = np.inf
        for _ in range(20):
            n = int(gen.integers(1, 6))
            theta = gen.uniform(0.05, 1.0, n)
            rule = (mechanism.payment_rule_linear(theta, 0.0, 1.0, var0)
                    if kind == LINEAR else
                    mechanism.payment_rule_quadratic(theta, 0.0, 1.0, var0))
            worst = min(worst, float(rule.K.min()), float(rule.S.min()),
                        float(rule.pi.min()))
        checks.append(Check(
            name=f"{kind} transfers nonnegative, 20 random vectors",
            passed=worst >= 0.0, measured=worst, bound=0.0))
    # informational: the elasticity bound >= 1/2 that would make truthfulness
    # obvious fails near the lower type boundary; truthfulness itself is
    # certified by the bic suite, so this row never gates the exit code
    ratio = mechanism.sufficient_ratio_report(
        partial(mechanism.effort_quadratic, theta_lo=0.0, var0=var0),
        (0.4, 0.7), 0.0, 1.0, var0)
    checks.append(Check(
        name="quadratic elasticity >= 1/2 (informational, sufficient only)",
        passed=ratio.passes_half, measured=ratio.min_ratio, bound=0.5,
        detail="not required for truthfulness; see bic suite",
        required=False))
    return checks


# -- bic -----------------------------------------------------------------------

def suite_bic(cost_kind: str = LINEAR, seed: int = 0, n_instances: int = 20,
              n_grid: int = 101, n_mc: int = 10_000) -> List[Check]:
    checks: List[Check] = []
    gen = rng.generator(seed, 0, 7004)
    step = 1.0 / (n_grid - 1)
    worst_gap = 0.0
    worst_eff = 0.0
    detail_gap = detail_eff = ""
    for inst in range(n_instances):
        n = int(gen.integers(1, 8))
        theta = float(gen.uniform(0.02, 0.98))
        scen = _scenario(cost_kind, n)
        br = agents.best_response_type(theta, scen, n_grid=n_grid,
                                       n_mc=n_mc, seed=seed + inst)
        gap = float(np.min(np.abs(br.argmax_set - theta))) \
            if br.argmax_set.size else np.inf
        if gap > worst_gap:
            worst_gap = gap
            detail_gap = f"instance {inst}: theta={theta:.4f} N={n} " \
                f"theta*={br.theta_star:.4f} (seed {seed + inst})"
        rest = np.clip(gen.uniform(0.0, 1.0, n - 1), TYPE_CLAMP, 1.0)
        q_br = agents.best_response_effort(theta, scen, theta_rest=rest)
        effort = (mechanism.effort_linear if cost_kind == LINEAR
                  else mechanism.effort_quadratic)
        q_des = effort(np.concatenate([[theta], rest]), 0.0, 1.0)[0]
        dev = abs(q_br - q_des) / max(1.0, q_des)
        if dev > worst_eff:
            worst_eff = dev
            detail_eff = f"instance {inst}: theta={theta:.4f} N={n} " \
                f"q_br={q_br:.6f} q_des={q_des:.6f}"
    checks.append(Check(
        name=f"{cost_kind} truthful report in argmax set, {n_instances} instances",
        passed=worst_gap <= step + 1e-12, measured=worst_gap, bound=step,
        detail=detail_gap))
    checks.append(Check(
        name=f"{cost_kind} designated effort is the best response",
        passed=worst_eff <= 1e-4, measured=worst_eff, bound=1e-4,
        detail=detail_eff))
    return checks


# -- bir -----------------------------------------------------------------------

def _zscore(diff: float, se: float) -> float:
    """|diff| in SE units with an absolute floor of 1e-12, so deterministic
    cases (SE zero or a few ulps) pass iff the difference is rounding-level."""
    return abs(diff) / max(se, 1e-12)


def suite_bir(cost_kind: str = LINEAR, seed: int = 0, n_instances: int = 20,
              n_mc: int = 20_000) -> List[Check]:
    checks: List[Check] = []
    gen = rng.generator(seed, 0, 7005)
    worst_neg = np.inf
    worst_rent = 0.0
    detail_neg = detail_rent = ""
    for inst in range(n_instances):
        n = int(gen.integers(1, 8))
        theta = float(gen.uniform(0.02, 0.98))
        scen = _scenario(cost_kind, n)
        pay = agents.interim_payoff(theta, theta, "designated", scen,
                                    n_mc=n_mc, seed=seed + inst)
        if pay.se > 0:
            margin = pay.value / pay.se
        else:
            margin = np.inf if pay.value >= -1e-12 else -np.inf
        if margin < worst_neg:
            worst_neg = margin
            detail_neg = f"instance {inst}: theta={theta:.4f} N={n} " \
                f"payoff={pay.value:.3e} se={pay.se:.3e}"
        rent = agents.information_rent(theta, scen, n_mc=n_mc, seed=seed + inst)
        z = _zscore(pay.value - rent.value, float(np.hypot(pay.se, rent.se)))
        if z > worst_rent:
            worst_rent = z
            detail_rent = f"instance {inst}: theta={theta:.4f} N={n} " \
                f"payoff={pay.value:.4e} rent={rent.value:.4e}"
    checks.append(Check(
        name=f"{cost_kind} truthful payoff >= 0 (in SE units), {n_instances} instances",
        passed=worst_neg >= -3.0, measured=float(worst_neg), bound=-3.0,
        detail=detail_neg))
    checks.append(Check(
        name=f"{cost_kind} payoff equals rent integral (z-score)",
        passed=worst_rent <= 3.0, measured=float(worst_rent), bound=3.0,
        detail=detail_rent))
    for n in (1, 3, 7):
        scen = _scenario(cost_kind, n)
        top = agents.interim_payoff(1.0, 1.0, "designated", scen,
                                    n_mc=n_mc, seed=seed)
        z = _zscore(top.value, top.se)
        checks.append(Check(
            name=f"{cost_kind} N={n} payoff at the top type is zero (z-score)",
            passed=z <= 3.0, measured=float(z), bound=3.0,
            detail=f"value={top.value:.3e} se={top.se:.3e}"))
    return checks


SUITES: Dict[str, Callable[..., List[Check]]] = {
    "cubic": suite_cubic,
    "closed-forms": suite_closed_forms,
    "monotonicity": suite_monotonicity,
    "bic": suite_bic,
    "bir": suite_bir,
}


def run_suite(name: str, **kwargs) -> List[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for count in ("n_instances", "n_mc"):
        if count in kwargs and kwargs[count] < 1:
            raise ValueError(f"{count} must be >= 1, got {kwargs[count]}")
    return SUITES[name](**kwargs)


def format_report(suite: str, checks: List[Check]) -> str:
    lines = [f"suite: {suite}"]
    for c in checks:
        status = "PASS" if c.passed else ("info" if not c.required else "FAIL")
        line = f"  [{status}] {c.name}: measured {c.measured:.3e} " \
            f"(bound {c.bound:.3e})"
        if c.detail:
            line += f" -- {c.detail}"
        lines.append(line)
    ok = all(c.passed for c in checks if c.required)
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines)


def suite_passed(checks: List[Check]) -> bool:
    return all(c.passed for c in checks if c.required)
