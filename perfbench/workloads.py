"""The benchmark's workloads: inputs made from the seed, one timed unit of
work through copesim's public entry points, and the checks on its outputs.

Every call into the program goes through a module attribute looked up at
call time (``engine.run_experiment``, ``verify.run_suite``), so the traced
pass sees the wrappers ``tracing.Tracer.installed`` puts there.  Runs are
serial: ``n_workers=1`` is passed explicitly, so ``COPE_SIM_WORKERS`` cannot
change a run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from copesim import cli, config, costs, engine, mechanism, model, verify

HERE = os.path.dirname(os.path.abspath(__file__))

#: seeds with stored reference means: the default seed and one held out
REFERENCE_SEEDS = (0, 1)
#: a reference mean may move by this share of its standard error: deliberate
#: numerics changes near 1e-11 relative move a mean by about 1e-9 SE, while a
#: changed random stream or a payment off by 0.1% moves it by 0.005 SE or more
REFERENCE_TOL_SE = 1e-3
#: realized vs model-implied squared error, in standard errors, per cell
SQ_ERROR_TOL_SE = 4.0
#: general-path efforts against the quadratic closed form
EFFORT_TOL = 1e-6


@dataclass
class Unit:
    """One timed unit of work and what its checks need."""
    wall_s: float
    agent_trials: int = 0     # work in the timed region, at the stated size
    work_s: float = 0.0       # time spent on those agent-trials
    ops: int = 0              # cells, trials and verify checks attempted
    failures: list = field(default_factory=list)
    output: object = None
    sites: dict = field(default_factory=dict)   # benchmark-timed call sites


def _fail(failures: list, what: str) -> None:
    failures.append(what)
    traceback.print_exc(file=sys.stderr)


# -- sweeps --------------------------------------------------------------------

class Sweep:
    """config -> engine.run_experiment -> cli.write_results_csv, as
    ``scripts/reproduce_figures.py`` runs one cost family."""

    def __init__(self, name, cost, n_agents, n_trials, ref_n_agents,
                 ref_trials):
        self.name = name
        self.cost = cost
        self.n_agents = tuple(n_agents)
        self.n_trials = n_trials
        self.ref_n_agents = tuple(ref_n_agents)
        self.ref_trials = ref_trials

    def config(self, seed, n_agents=None, n_trials=None):
        return config.ExperimentConfig(
            cost=self.cost, n_agents_list=n_agents or self.n_agents,
            n_trials=n_trials or self.n_trials, master_seed=seed,
            hom_denominator="full-n").validate()

    def build(self, seed, out_dir):
        cfg = self.config(seed)
        return dict(cfg=cfg, args=self._args(cfg),
                    settings=engine.EngineSettings(
                        tie_break=cfg.tie_break,
                        hom_denominator=cfg.hom_denominator),
                    csv=os.path.join(out_dir, f"{self.name}-results.csv"))

    @staticmethod
    def _args(cfg):
        return (cfg.prior(), cfg.type_dist(), cfg.cost_model(),
                cfg.n_agents_list, cfg.mechanisms(), cfg.n_trials,
                cfg.master_seed)

    def _experiment(self, args, settings, progress=None):
        return engine.run_experiment(*args, n_workers=1, settings=settings,
                                     progress=progress)

    def unit(self, inp) -> Unit:
        cfg = inp["cfg"]
        n_cells = len(cfg.n_agents_list) * len(cfg.mechanisms())
        marks = []
        failures = []
        t0 = time.perf_counter()
        try:
            results = self._experiment(
                inp["args"], inp["settings"],
                lambda done, total, res: marks.append(time.perf_counter()))
        except Exception:
            _fail(failures, f"run_experiment failed after {len(marks)} cells")
            failures += ["cell not run"] * (n_cells - len(marks) - 1)
            return Unit(wall_s=time.perf_counter() - t0, ops=n_cells,
                        failures=failures)
        t1 = time.perf_counter()
        cli.write_results_csv(results, inp["csv"])
        t2 = time.perf_counter()
        with open(inp["csv"], "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        cell_s = np.diff([t0] + marks)
        kind_s, kind_at = {}, {}
        for res, dt in zip(results, cell_s):
            kind_s[res.mechanism] = kind_s.get(res.mechanism, 0.0) + dt
            kind_at[res.mechanism] = (kind_at.get(res.mechanism, 0)
                                      + res.n_agents * res.n_trials)
        sites = {"cli.write_results_csv.s": t2 - t1}
        for kind in kind_s:
            sites[f"engine.ns_per_agent_trial.{kind}"] = \
                1e9 * kind_s[kind] / kind_at[kind]
        return Unit(wall_s=t2 - t0, agent_trials=sum(kind_at.values()),
                    work_s=float(cell_s.sum()), ops=n_cells,
                    output=dict(results=results, sha=sha), sites=sites)

    def unit_checks(self, unit: Unit):
        """Per-cell output checks: the payoff identity and realized vs
        model-implied squared error."""
        out = []
        for r in unit.output["results"] if unit.output else ():
            s = r.stats
            cell = f"{r.mechanism} N={r.n_agents} td={r.theta_dagger}"
            err = s["prediction_sq_error"].mean
            pay = s["total_payment"].mean
            out.append((f"payoff identity, {cell}",
                        abs(s["principal_payoff"].mean + err + pay)
                        <= 1e-9 * (1.0 + abs(err) + abs(pay))))
            z = _z(err - s["expected_sq_error"].mean,
                   math.hypot(s["prediction_sq_error"].se,
                              s["expected_sq_error"].se))
            out.append((f"squared error within {SQ_ERROR_TOL_SE:g} SE "
                        f"(z={z:.2f}), {cell}", z <= SQ_ERROR_TOL_SE))
        return out

    def run_checks(self, units, seed, baseline):
        """Checks made once per run: repeat units agree byte for byte, the
        reference slices match, and the negative control is flagged."""
        out = []
        shas = {u.output["sha"] for u in units if u.output}
        out.append(("results.csv identical across repeated units",
                    len(shas) == 1))
        refs = load_reference().get(self.name, {})
        for ref_seed in REFERENCE_SEEDS:
            ref = refs.get(str(ref_seed))
            if ref is None:
                out.append((f"reference stored for seed {ref_seed}", False))
                continue
            got = reference_slice(self, ref_seed)
            out += compare_reference(got, ref, f"seed {ref_seed}")
            if ref_seed == REFERENCE_SEEDS[0]:
                shifted = json.loads(json.dumps(got))
                first = shifted[0]["stats"]["principal_payoff"]
                first["mean"] += first["se"]
                flagged = not all(ok for _, ok in
                                  compare_reference(shifted, ref, "control"))
                out.append(("negative control: a mean shifted by 1 SE is "
                            "flagged", flagged))
        info = {}
        want = baseline.get("results_csv_sha256", {}).get(self.name, {}) \
            .get(str(seed))
        if shas and want:
            info["results_csv_matches_seed_commit"] = (shas == {want})
        if shas:
            info["results_csv_sha256"] = sorted(shas)[0]
        return out, info


def _z(diff, se, floor=1e-12):
    return abs(diff) / max(se, floor)


def reference_slice(sweep: Sweep, seed: int) -> list:
    """Cell means and SEs of the small fixed slice kept in reference.json
    (its trials are a prefix of the full sweep's trials)."""
    cfg = sweep.config(seed, sweep.ref_n_agents, sweep.ref_trials)
    results = sweep._experiment(Sweep._args(cfg), engine.EngineSettings(
        tie_break=cfg.tie_break, hom_denominator=cfg.hom_denominator))
    return [dict(mechanism=r.mechanism, N=r.n_agents,
                 theta_dagger=r.theta_dagger,
                 stats={k: dict(mean=v.mean, se=v.se)
                        for k, v in r.stats.items()})
            for r in results]


def compare_reference(got: list, ref: list, label: str):
    """One check per cell: every metric mean within REFERENCE_TOL_SE of its
    stored standard error (relative 1e-9 where the SE is 0)."""
    if len(got) != len(ref):
        return [(f"reference {label}: {len(got)} cells vs {len(ref)}",
                 False)]
    out = []
    for g, r in zip(got, ref):
        cell = f"{r['mechanism']} N={r['N']} td={r['theta_dagger']}"
        same_cell = all(g[k] == r[k] for k in ("mechanism", "N",
                                               "theta_dagger"))
        worst = 0.0
        for metric, rs in r["stats"].items():
            floor = 1e-9 * max(1.0, abs(rs["mean"])) / REFERENCE_TOL_SE
            worst = max(worst, _z(g["stats"][metric]["mean"] - rs["mean"],
                                  rs["se"], floor))
        out.append((f"reference {label}, {cell}: worst {worst:.3g} SE",
                    same_cell and worst <= REFERENCE_TOL_SE))
    return out


def load_reference() -> dict:
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- verify oracles ------------------------------------------------------------

class VerifyOracles:
    """``verify.run_suite`` over the oracle suites of both cost families;
    the quadratic bic suite at reduced instances and draws."""

    name = "verify-oracles"
    #: (suite, cost, instances, Monte-Carlo draws); None keeps the default
    CALLS = (("cubic", None, None, None),
             ("monotonicity", None, None, None),
             ("bic", costs.LINEAR, 20, 10_000),
             ("bic", costs.QUADRATIC, 2, 1_000),
             ("bir", costs.LINEAR, 20, 20_000),
             ("bir", costs.QUADRATIC, 10, 5_000))

    def build(self, seed, out_dir):
        calls = []
        for suite, cost, n_inst, n_mc in self.CALLS:
            kw = {"seed": seed}
            if cost is not None:
                kw.update(cost_kind=cost, n_instances=n_inst, n_mc=n_mc)
            calls.append((suite if cost is None else f"{suite}.{cost}",
                          suite, kw))
        return dict(calls=calls)

    def unit(self, inp) -> Unit:
        unit = Unit(wall_s=0.0, output=[])
        t0 = time.perf_counter()
        for label, suite, kw in inp["calls"]:
            ts = time.perf_counter()
            try:
                rows = [c for c in verify.run_suite(suite, **kw) if c.required]
            except Exception:
                _fail(unit.failures, f"suite {label} raised")
                rows = None
            dt = time.perf_counter() - ts
            unit.sites[f"verify.{label}.s"] = dt
            if "n_mc" in kw:
                unit.agent_trials += kw["n_instances"] * kw["n_mc"]
                unit.work_s += dt
            if rows is None:
                unit.ops += 1
                continue
            unit.ops += len(rows)
            unit.failures += [f"{label}: {c.name}" for c in rows
                              if not c.passed]
            unit.output += [(label, c.name, c.passed) for c in rows]
        unit.wall_s = time.perf_counter() - t0
        return unit

    def unit_checks(self, unit):
        return []

    def run_checks(self, units, seed, baseline):
        verdicts = {tuple(u.output) for u in units}
        return [("verify verdicts identical across repeated units",
                 len(verdicts) == 1)], {}


# -- general cost ----------------------------------------------------------------

class GeneralCost:
    """The closed-forms suite plus one cope-general trial through
    ``engine.run_trial``, with the quadratic cost model on the general path
    so that ``mechanism.effort_quadratic`` gives the exact efforts."""

    name = "general-cost"
    N_VECTORS = 2
    #: N = 2 type profile of the trial, on the headline support [0, 1].
    #: The solver's work depends on the types: seeded N = 2 trials took 1 to
    #: 10 s on a 2-vCPU VM (44 to 128 effort solves), so the profile is
    #: fixed, one that needs 44 solves, and the seed draws the state, the
    #: noise and the suite's vectors.
    PROFILE = (0.67, 0.43)

    def build(self, seed, out_dir):
        scenario = model.Scenario(
            prior=model.GaussianPrior(0.0, 1.0),
            type_dist=model.CostTypeDistribution.uniform(0.0, 1.0),
            n_agents=len(self.PROFILE), cost_model=costs.quadratic_cost())
        return dict(seed=seed, scenario=scenario,
                    settings=engine.EngineSettings(fixed_types=self.PROFILE),
                    suite=dict(seed=seed, n_vectors=self.N_VECTORS))

    def unit(self, inp) -> Unit:
        unit = Unit(wall_s=0.0, ops=1, output=dict(rows=[], record=None))
        t0 = time.perf_counter()
        try:
            rows = [c for c in verify.run_suite("closed-forms", **inp["suite"])
                    if c.required]
            unit.ops += len(rows)
            unit.failures += [f"closed-forms: {c.name}" for c in rows
                              if not c.passed]
            unit.output["rows"] = [(c.name, c.passed) for c in rows]
        except Exception:
            _fail(unit.failures, "suite closed-forms raised")
            unit.ops += 1
        t1 = time.perf_counter()
        try:
            unit.output["record"] = engine.run_trial(
                inp["scenario"], engine.COPE_GENERAL, engine.TRUTHFUL,
                inp["seed"], 0, inp["settings"])
        except Exception:
            _fail(unit.failures, "cope-general trial raised")
        t2 = time.perf_counter()
        unit.wall_s = t2 - t0
        unit.work_s = t2 - t1
        unit.agent_trials = inp["scenario"].n_agents
        unit.sites = {
            "verify.closed-forms.s": t1 - t0,
            "engine.ns_per_agent_trial.cope-general":
                1e9 * unit.work_s / unit.agent_trials}
        return unit

    def unit_checks(self, unit):
        rec = unit.output["record"]
        if rec is None:
            return []
        exact = mechanism.effort_quadratic(rec.types, 0.0, 1.0)
        dev = float(np.max(np.abs(rec.efforts - exact))
                    / max(1.0, float(np.max(np.abs(exact)))))
        return [(f"general efforts vs effort_quadratic ({dev:.2e})",
                 dev <= EFFORT_TOL)]

    def run_checks(self, units, seed, baseline):
        outputs = set()
        for u in units:
            rec = u.output["record"]
            outputs.add(json.dumps([u.output["rows"]] + (
                [rec.efforts.tolist(), rec.payments.tolist()] if rec else [])))
        return [("closed-forms verdicts, efforts and payments identical "
                 "across repeated units", len(outputs) == 1)], {}


WORKLOADS = {w.name: w for w in (
    Sweep("sweep-linear", costs.LINEAR, range(3, 20), 50_000,
          ref_n_agents=(3, 11, 19), ref_trials=4096),
    Sweep("sweep-quadratic", costs.QUADRATIC, (3, 7, 11, 15, 19), 4096,
          ref_n_agents=(3, 11, 19), ref_trials=1024),
    VerifyOracles(),
    GeneralCost())}
