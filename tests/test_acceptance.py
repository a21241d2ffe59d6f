"""Acceptance gate: the headline experiment claims and the verification
suites, one test per criterion at its stated tolerance.

The payoff comparisons run the full sweep (N = 3..19, 50000 trials per cell,
seed 0) once per cost family at module scope; the module takes about 25 s on
one core of a 2-vCPU x86-64 VM.  Comparisons use the (value + 1) convention:
the no-action baseline (predict the prior mean, pay nothing) sits at -1 after
normalization, so relative gaps are measured against the distance above that
baseline.
"""

import csv
import math
import os

import numpy as np
import pytest

from copesim import benchmarks, cli, verify
from copesim.costs import LINEAR, QUADRATIC, linear_cost, quadratic_cost
from copesim.engine import (CENTRALIZED, EngineSettings, MechanismSpec,
                            homogeneous_spec, run_batch, run_experiment)
from copesim.model import CostTypeDistribution, GaussianPrior, Scenario

N_LIST = tuple(range(3, 20))
N_TRIALS = 50_000
THETA_DAGGERS = (0.2, 0.5, 0.8)
SEED = 0
PRIOR = GaussianPrior(0.0, 1.0)
TYPES = CostTypeDistribution.uniform(0.0, 1.0)


def _sweep(cost_kind):
    model = linear_cost() if cost_kind == LINEAR else quadratic_cost()
    mechs = [MechanismSpec(f"cope-{cost_kind}")]
    mechs += [homogeneous_spec(td) for td in THETA_DAGGERS]
    # posted-contract cells use the full-population predictor denominator,
    # the variant the headline comparisons are stated for; the library
    # default divides by the participant count instead
    settings = EngineSettings(hom_denominator="full-n")
    results = run_experiment(PRIOR, TYPES, model, N_LIST, mechs, N_TRIALS,
                             SEED, settings=settings)
    return {(r.mechanism, r.theta_dagger, r.n_agents): r for r in results}


@pytest.fixture(scope="module")
def linear_sweep():
    return _sweep(LINEAR)


@pytest.fixture(scope="module")
def quadratic_sweep():
    return _sweep(QUADRATIC)


def _bands(stat):
    return stat.mean - 3.0 * stat.se, stat.mean + 3.0 * stat.se


def test_criterion_01_cope_beats_best_homogeneous(linear_sweep,
                                                  quadratic_sweep):
    # mean principal payoff of the mechanism exceeds the best posted contract
    # by >= 10% (linear) / 5% (quadratic) above baseline for N >= 7, with a
    # 3 SE guard band on both sides
    fails = []
    cases = ((linear_sweep, "cope-linear", 0.10),
             (quadratic_sweep, "cope-quadratic", 0.05))
    for table, kind, margin in cases:
        for n in range(7, 20):
            cope_lo, _ = _bands(table[(kind, None, n)].stats["principal_payoff"])
            hom_hi = max(_bands(table[("homogeneous", td, n)]
                                .stats["principal_payoff"])[1]
                         for td in THETA_DAGGERS)
            if not cope_lo + 1.0 >= (1.0 + margin) * (hom_hi + 1.0):
                fails.append(f"{kind} N={n}: cope>={cope_lo + 1:.4f} "
                             f"hom<={hom_hi + 1:.4f} margin {margin:.0%}")
    assert not fails, "\n".join(fails)


def test_criterion_02_cope_tracks_centralized_profit():
    # network profit within 10% (linear) / 3% (quadratic) of the first-best
    # benchmark for N >= 7.  Both cells run on identical draws, so the gap is
    # estimated from the paired per-trial profit difference and the claim is
    # checked at 3 SE of that (much tighter) estimate.
    prior = GaussianPrior(0.0, 1.0)
    dist = CostTypeDistribution.uniform(0.0, 1.0)
    fails = []
    for kind, model, limit in ((LINEAR, linear_cost(), 0.10),
                               (QUADRATIC, quadratic_cost(), 0.03)):
        for n in range(7, 20):
            scen = Scenario(prior=prior, type_dist=dist, n_agents=n,
                            cost_model=model)
            cope = run_batch(scen, MechanismSpec(f"cope-{kind}"), seed=SEED,
                             n_trials=N_TRIALS)["network_profit"]
            cen = run_batch(scen, CENTRALIZED, seed=SEED,
                            n_trials=N_TRIALS)["network_profit"]
            diff = cen - cope
            base = cen.mean() + 1.0
            gap = diff.mean() / base
            se_gap = diff.std(ddof=1) / math.sqrt(diff.size) / base
            if not gap <= limit + 3.0 * se_gap:
                fails.append(f"cope-{kind} N={n}: gap {gap:.4f} "
                             f"(se {se_gap:.1e}) limit {limit:.0%}")
    assert not fails, "\n".join(fails)


def _exact_homogeneous_payoff(cost_kind, theta_dagger, n):
    # exact expected principal payoff of the posted-contract cell as the
    # sweep runs it (full-n denominator), including the opt-out decision
    contract = benchmarks.homogeneous_contract(theta_dagger, n, cost_kind,
                                               PRIOR.var0)
    run, value = benchmarks.homogeneous_fallback(contract, TYPES, PRIOR, n,
                                                 cost_kind, n_denominator=n)
    return value if run else -PRIOR.var0


def test_criterion_03_theta_dagger_ordering(linear_sweep, quadratic_sweep):
    # Posted contracts order by design point for N >= 9.  The paper claims
    # cheaper design points win under linear cost (0.2 > 0.5 > 0.8) and more
    # pessimistic ones under quadratic cost (0.8 > 0.5 > 0.2).  The modelled
    # contract (agents self-select and best-respond in effort, the principal
    # de-shrinks every report as if it came from q_dagger, full-n
    # denominator) keeps the linear ordering but reverses the quadratic top
    # pair: 0.5 > 0.8 > 0.2 at every N = 9..19 (exactly, at N = 9:
    # -0.5352 / -0.5897 / -0.7145 for 0.5 / 0.8 / 0.2).  Low types exert far
    # more than q_dagger, so the predictor over-weights their reports; the
    # full-n denominator partly offsets that, most nearly at 0.5.  The
    # paper's quadratic ordering holds only when participants exert exactly
    # q_dagger (compliance), which tests/test_benchmarks.py checks exactly.
    # Every cell is pinned to the exact expected payoff within 3 SE, so a
    # change to the modelled behaviour fails here even where the ordering
    # survives it.
    fails = []
    cases = ((linear_sweep, LINEAR, [(0.2, 0.5), (0.5, 0.8)]),
             (quadratic_sweep, QUADRATIC, [(0.5, 0.8), (0.8, 0.2)]))
    for table, kind, pairs in cases:
        for n in range(9, 20):
            for td in THETA_DAGGERS:
                s = table[("homogeneous", td, n)].stats["principal_payoff"]
                exact = _exact_homogeneous_payoff(kind, td, n)
                if not abs(s.mean - exact) <= 3.0 * s.se:
                    fails.append(f"{kind} N={n}: payoff({td}) {s.mean:.5f} "
                                 f"vs exact {exact:.5f} beyond "
                                 f"{3.0 * s.se:.2e}")
            for better, worse in pairs:
                b = table[("homogeneous", better, n)].stats["principal_payoff"]
                w = table[("homogeneous", worse, n)].stats["principal_payoff"]
                slack = 3.0 * math.hypot(b.se, w.se)
                if not b.mean - w.mean >= -slack:
                    fails.append(f"{kind} N={n}: payoff({better}) "
                                 f"{b.mean:.5f} < payoff({worse}) {w.mean:.5f}"
                                 f" beyond {slack:.2e}")
    assert not fails, "\n".join(fails)


def test_criterion_04_bic_suites():
    # truthful report lies in the grid-certified argmax set and the designated
    # effort is the agent's own best response, 20 instances per family
    for kind in (LINEAR, QUADRATIC):
        checks = verify.suite_bic(cost_kind=kind, seed=SEED, n_instances=20,
                                  n_mc=10_000)
        assert verify.suite_passed(checks), verify.format_report("bic", checks)


def test_criterion_05_bir_suites():
    # truthful interim payoffs nonnegative, zero at the top type, and equal to
    # the rent integral, all in 3 SE units
    for kind in (LINEAR, QUADRATIC):
        checks = verify.suite_bir(cost_kind=kind, seed=SEED, n_instances=20,
                                  n_mc=20_000)
        assert verify.suite_passed(checks), verify.format_report("bir", checks)


def test_criterion_06_cubic_solver():
    checks = verify.suite_cubic(seed=SEED, n_instances=10_000)
    assert verify.suite_passed(checks), verify.format_report("cubic", checks)


def test_criterion_07_general_closed_form_consistency():
    checks = verify.suite_closed_forms(seed=SEED, n_vectors=50)
    assert verify.suite_passed(checks), \
        verify.format_report("closed-forms", checks)


def test_monotonicity_suite():
    # the effort schedules fall in the own report and the transfers are
    # nonnegative; the elasticity bound stays an informational row that
    # fails near theta_lo without failing the suite
    checks = verify.suite_monotonicity(seed=SEED)
    assert verify.suite_passed(checks), \
        verify.format_report("monotonicity", checks)
    required = [c for c in checks if c.required]
    assert len(required) == 4 and all(c.passed for c in required)
    info, = [c for c in checks if not c.required]
    assert "elasticity" in info.name
    assert not info.passed and info.measured < info.bound == 0.5


def test_criterion_08_effort_sparsity_dichotomy(linear_sweep, quadratic_sweep):
    # winner-take-all under linear cost, everyone recruited under quadratic,
    # in every one of the 17 x 50000 trials
    for n in N_LIST:
        lin = linear_sweep[("cope-linear", None, n)] \
            .stats["positive_effort_count"]
        assert lin.maximum <= 1.0, f"linear N={n}: max {lin.maximum}"
        quad = quadratic_sweep[("cope-quadratic", None, n)] \
            .stats["positive_effort_count"]
        assert quad.minimum == float(n), f"quadratic N={n}: min {quad.minimum}"


def test_criterion_09_bayes_risk_identity():
    # realized squared prediction error against the model-implied risk of the
    # designated efforts, paired per trial, N = 5, 1e5 trials
    dist = CostTypeDistribution.uniform(0.0, 1.0)
    for kind, model in ((LINEAR, linear_cost()), (QUADRATIC, quadratic_cost())):
        scen = Scenario(prior=GaussianPrior(0.0, 1.0), type_dist=dist,
                        n_agents=5, cost_model=model)
        batch = run_batch(scen, MechanismSpec(f"cope-{kind}"), seed=SEED,
                          n_trials=100_000)
        diff = batch["prediction_sq_error"] - batch["expected_sq_error"]
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se, \
            f"{kind}: diff {diff.mean():.3e} se {se:.3e}"


def test_criterion_10_byte_identical_determinism(tmp_path):
    ini = tmp_path / "det.ini"
    ini.write_text("[model]\ncost = linear\n\n"
                   "[run]\nn_agents = 3, 5\nn_trials = 400\n",
                   encoding="utf-8")
    payloads = []
    fig_payloads = []
    for tag, workers in (("a", None), ("b", None), ("c", "2")):
        out = str(tmp_path / tag)
        argv = ["run", "-c", str(ini), "-o", out, "-q"]
        if workers:
            argv += ["-w", workers]
        assert cli.main(argv) == 0
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            payloads.append(fh.read())
        figdir = str(tmp_path / f"figs_{tag}")
        assert cli.main(["figures", os.path.join(out, "results.csv"),
                         "-o", figdir]) == 0
        with open(os.path.join(figdir, "figure2a.csv"), "rb") as fh:
            fig_payloads.append(fh.read())
    assert payloads[0] == payloads[1] == payloads[2]
    assert fig_payloads[0] == fig_payloads[1] == fig_payloads[2]
