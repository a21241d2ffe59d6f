"""Seeded Monte-Carlo experiment runner.

One trial runs the full interaction: draw the latent state and agent types,
collect type reports and designate efforts, let agents observe and report
estimates, let the principal predict and settle payments, then score the
trial.  Every mechanism runs this one pipeline and supplies only its
designate and settle steps.  Trials are simulated in vectorized chunks;
every random quantity is read positionally from counter-based streams keyed
by (master seed, N, purpose), so trial t is the same no matter how work is
chunked or parallelized.  Each chunk of one N is drawn once and every
mechanism at that N runs on that draw, so the mechanisms share their world
draws trial by trial (common random numbers).  Posted-contract cells
evaluate best responses only at types at or below the cell's cut and settle
only the trials with a participant.  Statistics merge fixed 4 096-trial
blocks, so they do not depend on the chunk size either.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import agents, benchmarks, mechanism, rng
from .costs import LINEAR, QUADRATIC, cost
from .model import (NO_OBSERVATION, CostTypeDistribution, GaussianPrior,
                    Scenario, TYPE_CLAMP, principal_bayes_risk)

TRUTHFUL = "truthful"
BEST_RESPONSE = "best-response"

MECHANISM_KINDS = ("cope-linear", "cope-quadratic", "cope-general",
                   "centralized", "homogeneous")

METRICS = ("principal_payoff", "network_profit", "bayes_network_profit",
           "prediction_sq_error", "expected_sq_error", "total_payment",
           "total_cost", "positive_effort_count")

@dataclass(frozen=True)
class MechanismSpec:
    kind: str
    theta_dagger: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "homogeneous" and self.theta_dagger is None:
            raise ValueError("homogeneous mechanism needs theta_dagger")


def homogeneous_spec(theta_dagger: float) -> MechanismSpec:
    return MechanismSpec("homogeneous", float(theta_dagger))


COPE_LINEAR = MechanismSpec("cope-linear")
COPE_QUADRATIC = MechanismSpec("cope-quadratic")
COPE_GENERAL = MechanismSpec("cope-general")
CENTRALIZED = MechanismSpec("centralized")


@dataclass(frozen=True)
class EngineSettings:
    chunk_size: int = 4096
    tie_break: str = "lowest-index"        # or "seeded-random"
    hom_denominator: str = "participants"  # or "full-n"
    fixed_types: Optional[Tuple[float, ...]] = None
    br_grid: int = 41      # best-response agent mode oracle resolution
    br_mc: int = 2000


@dataclass(frozen=True)
class TrialRecord:
    x: float
    types: np.ndarray
    reported_types: np.ndarray
    efforts: np.ndarray
    observations: np.ndarray
    reports: np.ndarray
    prediction: float
    payments: np.ndarray
    principal_payoff: float
    network_profit: float
    prediction_sq_error: float
    bayes_network_profit: float
    expected_sq_error: float


@dataclass(frozen=True)
class MetricStat:
    mean: float
    se: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class ExperimentResult:
    mechanism: str
    cost: str
    n_agents: int
    theta_dagger: Optional[float]
    n_trials: int
    stats: Dict[str, MetricStat]


def check_pairing(scenario: Scenario, mech: MechanismSpec) -> None:
    kind = scenario.cost_kind
    if mech.kind == "cope-linear" and kind != LINEAR:
        raise ValueError("cope-linear needs a linear cost scenario")
    if mech.kind == "cope-quadratic" and kind != QUADRATIC:
        raise ValueError("cope-quadratic needs a quadratic cost scenario")
    if mech.kind in ("cope-linear", "cope-quadratic") and \
            scenario.type_dist.kind != "uniform":
        # their transfers are written for the uniform virtual cost
        raise ValueError(f"{mech.kind} needs uniform types; use cope-general")
    if mech.kind in ("centralized", "homogeneous") and kind not in (LINEAR, QUADRATIC):
        raise ValueError(f"{mech.kind} benchmark needs linear or quadratic cost")


def normalize_payoff(raw, var0: float = 1.0):
    """Scale payoffs so the no-action baseline (predict the prior mean, pay
    nothing, expected squared error var0) sits at -1."""
    return np.asarray(raw, dtype=float) / var0 if np.ndim(raw) else raw / var0


# -- the trial pipeline --------------------------------------------------------

@dataclass(frozen=True)
class _Cell:
    """What every chunk of one (scenario, mechanism) cell shares; state is
    the mechanism's per-cell setup (posted contract, general effort rule)."""
    scenario: Scenario
    mech: MechanismSpec
    seed: int
    settings: EngineSettings
    state: object = None


def _draw_chunk(scenario: Scenario, seed: int, t0: int, t1: int,
                settings: EngineSettings):
    n = scenario.n_agents
    T = t1 - t0
    prior = scenario.prior
    x = prior.mu0 + np.sqrt(prior.var0) * rng.normals(seed, n, rng.WORLD, T, t0)
    if settings.fixed_types is not None:
        fixed = np.asarray(settings.fixed_types, dtype=float)
        if fixed.size != n:
            raise ValueError("fixed_types length must equal n_agents")
        types = np.tile(fixed, (T, 1))
    else:
        u = rng.uniforms(seed, n, rng.TYPES, T * n, t0 * n).reshape(T, n)
        dist = scenario.type_dist
        types = np.clip(dist.ppf(u), dist.theta_lo + TYPE_CLAMP, dist.theta_hi)
    noise = rng.normals(seed, n, rng.NOISE, T * n, t0 * n).reshape(T, n)
    return x, types, noise


def _observe(x: np.ndarray, efforts: np.ndarray, noise: np.ndarray,
             prior: GaussianPrior):
    """Observations and truthful (posterior-mean) estimate reports; agents
    with zero effort observe nothing and report the prior mean.  Both are
    formed densely (agents.truthful_report_obs's shrinkage, exact for
    positive effort) and the idle entries overwritten afterwards."""
    prec = prior.precision
    with np.errstate(divide="ignore", invalid="ignore"):
        # x + noise/sqrt(q) and (mu0 prec + obs q)/(prec + q), in place
        obs = np.sqrt(efforts)
        np.divide(noise, obs, out=obs)
        obs += x[..., None]
        reports = obs * efforts
        reports += prior.mu0 * prec
        reports /= prec + efforts
    idle = ~(efforts > 0)
    obs[idle] = NO_OBSERVATION
    reports[idle] = prior.mu0
    return obs, reports


def _finish_metrics(scenario: Scenario, x, types, efforts, prediction,
                    payments, expected_sq):
    prior = scenario.prior
    err = (x - prediction) ** 2
    total_pay = payments.sum(axis=1)
    total_cost = cost(scenario.cost_model, efforts, types).sum(axis=1)
    risk = principal_bayes_risk(prior, efforts)
    return {
        "principal_payoff": -err - total_pay,
        "network_profit": -err - total_cost,
        "bayes_network_profit": -risk - total_cost,
        "prediction_sq_error": err,
        "expected_sq_error": expected_sq,
        "total_payment": total_pay,
        "total_cost": total_cost,
        "positive_effort_count": (efforts > 0).sum(axis=1).astype(float),
    }


# -- mechanisms: designate and settle steps ------------------------------------
#
# designate(cell, types, t0) -> (reported types, efforts, terms) and
# settle(cell, x, obs, est, efforts, terms) -> (prediction, payments,
# expected squared error, reports shown in the record).  The COPE steps
# designate from the reported types; their terms are the transfer components
# and designated efforts (pi, K, S, q), under linear cost the winners' pi, K
# and S alone.

def _designate_cope_linear(cell: _Cell, reported, t0):
    dist, tie_break = cell.scenario.type_dist, cell.settings.tie_break
    T, n = reported.shape
    winner = mechanism.argmin_winner_batch(
        reported, tie_break, rng.uniforms(cell.seed, n, rng.TIEBREAK, T, t0)
        if tie_break == "seeded-random" else None)
    terms = mechanism.linear_components_batch(
        reported, winner, dist.theta_lo, dist.theta_hi, cell.scenario.prior.var0)
    return reported, terms[3], terms


def _designate_cope_quadratic(cell: _Cell, reported, t0):
    dist = cell.scenario.type_dist
    terms = mechanism.quadratic_components_batch(
        reported, dist.theta_lo, dist.theta_hi, cell.scenario.prior.var0)
    return reported, terms[3], terms


def _designate_cope_general(cell: _Cell, reported, t0):
    """Numeric efforts and transfers, one report vector at a time."""
    scenario = cell.scenario
    pi, K, S, q = (np.empty_like(reported) for _ in range(4))
    for t, theta_hat in enumerate(reported):
        try:
            rule = mechanism.payment_rule_general(
                scenario.cost_model, cell.state, scenario.type_dist,
                theta_hat, scenario.prior.var0)
        except mechanism.SolverError as exc:
            raise mechanism.SolverError(
                f"trial {t0 + t} (seed {cell.seed}, N {scenario.n_agents}): "
                f"{exc}", exc.diagnostics)
        pi[t], K[t], S[t], q[t] = rule.pi, rule.K, rule.S, rule.efforts
    return reported, q, (pi, K, S, q)


def _best_response(cell: _Cell, types, t0, designate):
    """Best-response agents: each reports the oracle's best response to
    truthful rivals, then exerts its best-response effort to the transfers
    those reports set.  designate is the mechanism's own step; the principal
    still settles on the efforts it designates."""
    scenario, settings = cell.scenario, cell.settings
    reported = np.array([[agents.best_response_type(
        float(th), scenario, n_grid=settings.br_grid,
        n_mc=settings.br_mc).theta_star
        for th in row] for row in types])
    _, _, terms = designate(cell, reported, t0)
    efforts = np.array([[agents.best_response_effort(
        float(th), scenario, theta_hat=float(rep[i]),
        theta_rest=np.delete(rep, i)) for i, th in enumerate(row)]
        for row, rep in zip(types, reported)])
    return reported, efforts, terms


def _settle_cope(cell: _Cell, x, obs, est, efforts, terms):
    pi, K, S, q = terms
    prior = cell.scenario.prior
    if cell.mech.kind == "cope-linear":
        # only the winner is paid, and its report already is the posterior
        # mean; pi, K and S are the winners' (0 where nobody is recruited)
        rows, winner = np.arange(x.size), np.argmax(q, axis=1)
        y = est[rows, winner]
        prediction = np.where(q[rows, winner] > 0.0, y, prior.mu0)
        payments = np.zeros_like(est)
        payments[rows, winner] = pi - K * (x - y) ** 2 + S
    else:
        prediction = mechanism.predict_batch(prior, est, q)
        payments = pi - K * (x[:, None] - est) ** 2 + S
    return prediction, payments, principal_bayes_risk(prior, efforts), est


def _designate_centralized(cell: _Cell, types, t0):
    """The planner knows the types and assigns the first-best efforts."""
    efforts = benchmarks.centralized_efforts(
        types, cell.scenario.cost_kind, cell.scenario.prior.var0)
    return np.full_like(types, np.nan), efforts, None


def _settle_centralized(cell: _Cell, x, obs, est, efforts, terms):
    """The integrated planner reads the raw observations and pays nothing."""
    prior = cell.scenario.prior
    num = prior.mu0 * prior.precision + np.where(efforts > 0, obs * efforts,
                                                 0.0).sum(axis=1)
    den = prior.precision + efforts.sum(axis=1)
    return num / den, np.zeros_like(efforts), 1.0 / den, obs


def _designate_homogeneous(cell: _Cell, types, t0):
    """Agents who take the posted contract best-respond to its reward; terms
    are who takes it.  Responses are evaluated only at types at or below the
    cell's cut, above which nobody takes the contract."""
    contract, posted, _, cut = cell.state
    efforts = np.zeros_like(types)
    take = np.zeros(types.shape, dtype=bool)
    if posted:
        low = types <= cut
        q_low, take_low = benchmarks.homogeneous_response_batch(
            types[low], contract, cell.scenario.cost_kind,
            cell.scenario.prior.var0)
        efforts[low] = np.where(take_low, q_low, 0.0)
        take[low] = take_low
    return np.full_like(types, np.nan), efforts, take


def _settle_homogeneous(cell: _Cell, x, obs, est, efforts, take):
    prior = cell.scenario.prior
    contract, posted, n_den, _ = cell.state
    reports = np.where(take, est, np.nan)   # only participants file a report
    if not posted:
        # principal opts out: predict the prior mean, pay nothing
        return np.full(x.size, prior.mu0), np.zeros_like(efforts), \
            np.full(x.size, prior.var0), reports
    return (*benchmarks.homogeneous_settle_batch(
        contract, x, reports, efforts, take, prior, n_den), reports)


_STEPS = {
    "cope-linear": (_designate_cope_linear, _settle_cope),
    "cope-quadratic": (_designate_cope_quadratic, _settle_cope),
    "cope-general": (_designate_cope_general, _settle_cope),
    "centralized": (_designate_centralized, _settle_centralized),
    "homogeneous": (_designate_homogeneous, _settle_homogeneous),
}


def _cell_state(scenario: Scenario, mech: MechanismSpec,
                settings: EngineSettings):
    """Per-cell setup: the posted contract, whether the principal posts it at
    all (its exact expected payoff beats opting out and the designed effort
    is positive), the predictor's fixed denominator and the type cut above
    which nobody takes the contract; or the general-cost effort rule."""
    prior, n, kind = scenario.prior, scenario.n_agents, scenario.cost_kind
    if mech.kind == "homogeneous":
        contract = benchmarks.homogeneous_contract(mech.theta_dagger, n, kind,
                                                   prior.var0)
        n_den = n if settings.hom_denominator == "full-n" else None
        use_mech, _ = benchmarks.homogeneous_fallback(
            contract, scenario.type_dist, prior, n, kind, n_den)
        posted = use_mech and contract.q_dagger > 0.0
        cut = benchmarks.homogeneous_type_cut(
            contract, scenario.type_dist, prior.var0, kind) if posted else None
        return contract, posted, n_den, cut
    if mech.kind == "cope-general":
        return partial(mechanism.effort_general, scenario.cost_model,
                       scenario.type_dist, prior.var0)
    return None


def _run_mechanism(cell: _Cell, draws, t0: int, best_response: bool):
    """One mechanism on one chunk's draws: designate, observe, settle, score.
    Returns (metrics, record); every other (T, N) array dies on return."""
    scenario = cell.scenario
    x, types, noise = draws
    designate, settle = _STEPS[cell.mech.kind]
    reported, efforts, terms = (
        _best_response(cell, types, t0, designate) if best_response
        else designate(cell, types, t0))
    obs, est = _observe(x, efforts, noise, scenario.prior)
    prediction, payments, expected_sq, reports = settle(
        cell, x, obs, est, efforts, terms)
    metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                              payments, expected_sq)
    return metrics, dict(x=x, types=types, reported_types=reported,
                         efforts=efforts, observations=obs, reports=reports,
                         prediction=prediction, payments=payments)


def _chunks(scenario: Scenario, mechs: Sequence[MechanismSpec], seed: int,
            t_lo: int, t_hi: int, settings: EngineSettings,
            best_response: bool = False
            ) -> Iterator[Tuple[int, Dict[str, np.ndarray],
                                Dict[str, np.ndarray]]]:
    """Run trials [t_lo, t_hi) in chunks through the one pipeline.  Each
    chunk is drawn once and every mechanism of mechs runs on that draw, in
    order.  Yields (index into mechs, metrics, record) per chunk and
    mechanism; a consumer that drops the record before resuming keeps only
    one mechanism's (T, N) arrays alive at a time."""
    cells = [_Cell(scenario, mech, seed, settings,
                   _cell_state(scenario, mech, settings)) for mech in mechs]
    for t0 in range(t_lo, t_hi, settings.chunk_size):
        t1 = min(t0 + settings.chunk_size, t_hi)
        draws = _draw_chunk(scenario, seed, t0, t1, settings)
        for i, cell in enumerate(cells):
            yield (i, *_run_mechanism(cell, draws, t0, best_response))


# -- public entry points -------------------------------------------------------

def run_trial(scenario: Scenario, mech: MechanismSpec, agent_mode: str,
              seed: int, trial_index: int = 0,
              settings: EngineSettings = EngineSettings()) -> TrialRecord:
    """One fully-resolved trial; trial_index addresses the same draws the
    batched runner would use, so a record here equals the batch row.

    In best-response mode COPE agents pick their reports and efforts with the
    numeric oracles (slow, verification only).  The planner has no strategic
    agents and posted-contract agents always best-respond, so those two
    mechanisms run as in truthful mode."""
    check_pairing(scenario, mech)
    if agent_mode not in (TRUTHFUL, BEST_RESPONSE):
        raise ValueError(f"unknown agent mode {agent_mode!r}")
    best_response = agent_mode == BEST_RESPONSE and mech.kind.startswith("cope")
    if best_response and mech.kind == "cope-general":
        raise ValueError("best-response mode needs the closed-form payment "
                         "path; cope-general is not supported")
    _, metrics, rec = next(_chunks(scenario, [mech], seed, trial_index,
                                   trial_index + 1, settings, best_response))
    fields = {k: v[0] for k, v in rec.items()}
    fields.update({k: float(fields[k]) for k in ("x", "prediction")})
    fields.update({k: float(metrics[k][0]) for k in METRICS
                   if k in TrialRecord.__annotations__})
    return TrialRecord(**fields)


def run_batch(scenario: Scenario, mech: MechanismSpec, seed: int,
              n_trials: int, settings: EngineSettings = EngineSettings()
              ) -> Dict[str, np.ndarray]:
    """Per-trial metric arrays for n_trials truthful trials (chunked
    internally; concatenated output)."""
    check_pairing(scenario, mech)
    parts = [metrics for _, metrics, _ in _chunks(
        scenario, [mech], seed, 0, n_trials, settings)]
    return {k: np.concatenate([p[k] for p in parts]) for k in METRICS}


#: trials per moment block: statistics merge fixed blocks aligned to trial 0,
#: so they do not depend on the chunk size
_MOMENT_BLOCK = 4096


class _Moments:
    """Streaming mean/variance (Welford, merged over _MOMENT_BLOCK-trial
    blocks) plus min/max.  add() takes consecutive trials in any lengths and
    holds a partial block until it fills or stat() is called."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.mn = np.inf
        self.mx = -np.inf
        self._pending: List[np.ndarray] = []
        self._n_pending = 0

    def add(self, v: np.ndarray) -> None:
        self._pending.append(v)
        self._n_pending += v.size
        if self._n_pending < _MOMENT_BLOCK:
            return
        buf = self._pending[0] if len(self._pending) == 1 \
            else np.concatenate(self._pending)
        n_full = buf.size - buf.size % _MOMENT_BLOCK
        for b0 in range(0, n_full, _MOMENT_BLOCK):
            self.update(buf[b0:b0 + _MOMENT_BLOCK])
        self._pending = [buf[n_full:]] if n_full < buf.size else []
        self._n_pending = buf.size - n_full

    def update(self, v: np.ndarray) -> None:
        nb = v.size
        mb = float(v.mean())
        m2b = float(((v - mb) ** 2).sum())
        n = self.n + nb
        delta = mb - self.mean
        self.m2 += m2b + delta * delta * self.n * nb / n
        self.mean += delta * nb / n
        self.n = n
        self.mn = min(self.mn, float(v.min()))
        self.mx = max(self.mx, float(v.max()))

    def stat(self) -> MetricStat:
        if self._n_pending:
            self.update(np.concatenate(self._pending))
            self._pending, self._n_pending = [], 0
        if self.n > 1:
            se = float(np.sqrt(self.m2 / (self.n - 1) / self.n))
        else:
            se = 0.0
        return MetricStat(mean=self.mean, se=se, minimum=self.mn,
                          maximum=self.mx)


def _run_cells(scenario: Scenario, mechs: Sequence[MechanismSpec],
               seed: int, n_trials: int, settings: EngineSettings
               ) -> List[ExperimentResult]:
    """The sweep cells of one N, in mechs order: each chunk is drawn once and
    every mechanism's trials are reduced to its own metric moments."""
    acc = [{k: _Moments() for k in METRICS} for _ in mechs]
    for i, metrics, rec in _chunks(scenario, mechs, seed, 0, n_trials,
                                   settings):
        for k in METRICS:
            acc[i][k].add(metrics[k])
        # free this mechanism's (T, N) arrays before the next one designates
        del metrics, rec
    return [ExperimentResult(
        mechanism=mech.kind, cost=scenario.cost_kind,
        n_agents=scenario.n_agents, theta_dagger=mech.theta_dagger,
        n_trials=n_trials, stats={k: a[k].stat() for k in METRICS})
        for mech, a in zip(mechs, acc)]


def default_workers() -> int:
    env = os.environ.get("COPE_SIM_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(
            f"COPE_SIM_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"COPE_SIM_WORKERS must be >= 1, got {workers}")
    return workers


def run_experiment(prior: GaussianPrior, type_dist: CostTypeDistribution,
                   cost_model, n_agents_list: Sequence[int],
                   mechanisms: Sequence[MechanismSpec], n_trials: int,
                   master_seed: int, n_workers: Optional[int] = None,
                   settings: EngineSettings = EngineSettings(),
                   progress=None) -> List[ExperimentResult]:
    """Full sweep: one cell per (N, mechanism), returned in that order.
    Trial draws are split from the master seed per N; each chunk of one N is
    drawn once and every mechanism runs on that draw, so identical trial
    indices share world draws across mechanisms at the same N.  progress, if
    given, is called as progress(done, total, result) once per cell.  With
    more than one worker the Ns run in worker processes, so the scenario must
    pickle (ValueError otherwise); results are deterministic regardless of
    worker count."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    scenarios = {n: Scenario(prior=prior, type_dist=type_dist, n_agents=n,
                             cost_model=cost_model) for n in n_agents_list}
    for scenario in scenarios.values():
        for mech in mechanisms:
            check_pairing(scenario, mech)
    workers = default_workers() if n_workers is None else n_workers
    if workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {workers}")
    if workers > 1:
        try:
            pickle.dumps(scenarios)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(
                f"{workers} workers need a scenario that pickles: build its "
                "cost model and type distribution from module-level "
                f"functions ({exc})") from None
    total = len(n_agents_list) * len(mechanisms)
    parallel = workers > 1 and len(n_agents_list) > 1
    results: List[ExperimentResult] = []
    with (ProcessPoolExecutor(max_workers=workers) if parallel
          else contextlib.nullcontext()) as pool:
        for cells in (pool.map if parallel else map)(
                _run_cells, [scenarios[n] for n in n_agents_list],
                repeat(mechanisms), repeat(master_seed), repeat(n_trials),
                repeat(settings)):
            for res in cells:
                results.append(res)
                if progress:
                    progress(len(results), total, res)
    return results
