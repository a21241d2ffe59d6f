"""Seeded Monte-Carlo experiment runner.

One trial runs the full interaction: draw the latent state and agent types,
collect type reports, hand out contracts, let agents exert effort and report
estimates, let the principal predict, then settle payments.  Trials are
simulated in vectorized chunks; every random quantity is read positionally
from counter-based streams keyed by (master seed, N, purpose), so trial t is
the same no matter how work is chunked or parallelized, and the same trial
index shares its world draw across mechanisms (common random numbers).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import agents, benchmarks, mechanism, rng
from .costs import LINEAR, QUADRATIC, cost, linear_cost, quadratic_cost
from .model import (NO_OBSERVATION, CostTypeDistribution, GaussianPrior,
                    Scenario, TYPE_CLAMP)

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

    @property
    def label(self) -> str:
        return self.kind


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
    br_seed: int = 0


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
    if mech.kind in ("centralized", "homogeneous") and kind not in (LINEAR, QUADRATIC):
        raise ValueError(f"{mech.kind} benchmark needs linear or quadratic cost")


def normalize_payoff(raw, var0: float = 1.0):
    """Scale payoffs so the no-action baseline (predict the prior mean, pay
    nothing, expected squared error var0) sits at -1."""
    return np.asarray(raw, dtype=float) / var0 if np.ndim(raw) else raw / var0


# -- per-chunk simulation ------------------------------------------------------

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


def _argmin_winner_batch(reported: np.ndarray, settings: EngineSettings,
                         seed: int, n_agents: int, t0: int) -> np.ndarray:
    winner = np.argmin(reported, axis=1)
    if settings.tie_break == "seeded-random":
        lowest = reported[np.arange(reported.shape[0]), winner]
        tie_rows = np.flatnonzero((reported == lowest[:, None]).sum(axis=1) > 1)
        if tie_rows.size:
            u_all = rng.uniforms(seed, n_agents, rng.TIEBREAK,
                                 reported.shape[0], t0)
            for t in tie_rows:
                winner[t] = mechanism.argmin_winner(
                    reported[t], settings.tie_break, float(u_all[t]))
    return winner


def _observe(x: np.ndarray, efforts: np.ndarray, noise: np.ndarray,
             prior: GaussianPrior):
    """Observations and truthful (posterior-mean) estimate reports; agents
    with zero effort observe nothing and report the prior mean."""
    active = efforts > 0
    safe_q = np.where(active, efforts, 1.0)
    obs = np.where(active, x[..., None] + noise / np.sqrt(safe_q),
                   NO_OBSERVATION)
    prec = prior.precision
    reports = np.where(active,
                       (prior.mu0 * prec + np.where(active, obs, 0.0) * efforts)
                       / (prec + efforts),
                       prior.mu0)
    return obs, reports


def _finish_metrics(scenario: Scenario, x, types, efforts, prediction,
                    payments, expected_sq):
    prior = scenario.prior
    err = (x - prediction) ** 2
    total_pay = payments.sum(axis=1)
    total_cost = cost(scenario.cost_model, efforts, types).sum(axis=1)
    risk = 1.0 / (prior.precision + efforts.sum(axis=1))
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


def _chunk_cope_linear(scenario, seed, t0, t1, settings):
    prior = scenario.prior
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0, prec, mu0 = prior.var0, prior.precision, prior.mu0
    n = scenario.n_agents
    x, types, noise = _draw_chunk(scenario, seed, t0, t1, settings)
    T = x.size
    rows = np.arange(T)
    reported = types.copy()
    winner = _argmin_winner_batch(reported, settings, seed, n, t0)
    th_w = reported[rows, winner]
    g = 2.0 * th_w - lo
    q_w = np.maximum(g ** -0.5 - prec, 0.0)
    live = q_w > 0.0
    efforts = np.zeros_like(reported)
    efforts[rows, winner] = q_w
    second = np.partition(reported, 1, axis=1)[:, 1] if n > 1 else \
        np.full(T, np.inf)
    tail = mechanism.linear_tail_closed(th_w, np.minimum(hi, second), lo, var0)
    K = np.where(live, th_w / g, 0.0)
    S = np.where(live, th_w * g ** -0.5, 0.0)
    pi_w = np.where(live, th_w * q_w + tail, 0.0)
    obs, est = _observe(x, efforts, noise, prior)
    prediction = np.where(live, est[rows, winner], mu0)
    payments = np.zeros_like(reported)
    y_hat = est[rows, winner]
    payments[rows, winner] = np.where(
        live, pi_w - K * (x - y_hat) ** 2 + S, 0.0)
    expected_sq = 1.0 / (prec + efforts.sum(axis=1))
    metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                              payments, expected_sq)
    record = dict(x=x, types=types, reported_types=reported, efforts=efforts,
                  observations=obs, reports=est, prediction=prediction,
                  payments=payments)
    return metrics, record


def _chunk_cope_quadratic(scenario, seed, t0, t1, settings):
    prior = scenario.prior
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    var0, prec = prior.var0, prior.precision
    x, types, noise = _draw_chunk(scenario, seed, t0, t1, settings)
    reported = types.copy()
    pi, K, S, efforts = mechanism.quadratic_components_batch(
        reported, lo, hi, var0)
    obs, est = _observe(x, efforts, noise, prior)
    prediction = mechanism.predict_batch(prior, est, efforts)
    payments = pi - K * (x[:, None] - est) ** 2 + S
    expected_sq = 1.0 / (prec + efforts.sum(axis=1))
    metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                              payments, expected_sq)
    record = dict(x=x, types=types, reported_types=reported, efforts=efforts,
                  observations=obs, reports=est, prediction=prediction,
                  payments=payments)
    return metrics, record


def _chunk_cope_general(scenario, seed, t0, t1, settings):
    prior = scenario.prior
    dist = scenario.type_dist
    var0, prec = prior.var0, prior.precision
    x, types, noise = _draw_chunk(scenario, seed, t0, t1, settings)
    T = x.size
    n = scenario.n_agents
    model = scenario.cost_model
    schedule = mechanism.general_schedule(model, dist, var0)
    efforts = np.empty((T, n))
    payments = np.empty((T, n))
    pis = np.empty((T, n))
    Ks = np.empty((T, n))
    Ss = np.empty((T, n))
    for t in range(T):
        try:
            rule = mechanism.payment_rule_general(model, schedule, dist,
                                                  types[t], var0)
        except mechanism.SolverError as exc:
            raise mechanism.SolverError(
                f"trial {t0 + t} (seed {seed}, N {n}): {exc}",
                getattr(exc, "diagnostics", None))
        efforts[t] = rule.efforts
        pis[t], Ks[t], Ss[t] = rule.pi, rule.K, rule.S
    obs, est = _observe(x, efforts, noise, prior)
    prediction = mechanism.predict_batch(prior, est, efforts)
    payments = pis - Ks * (x[:, None] - est) ** 2 + Ss
    expected_sq = 1.0 / (prec + efforts.sum(axis=1))
    metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                              payments, expected_sq)
    record = dict(x=x, types=types, reported_types=types.copy(),
                  efforts=efforts, observations=obs, reports=est,
                  prediction=prediction, payments=payments)
    return metrics, record


def _chunk_centralized(scenario, seed, t0, t1, settings):
    prior = scenario.prior
    var0, prec, mu0 = prior.var0, prior.precision, prior.mu0
    kind = scenario.cost_kind
    x, types, noise = _draw_chunk(scenario, seed, t0, t1, settings)
    T = x.size
    n = scenario.n_agents
    rows = np.arange(T)
    if kind == LINEAR:
        efforts = np.zeros_like(types)
        winner = np.argmin(types, axis=1)
        th_w = types[rows, winner]
        efforts[rows, winner] = np.maximum(th_w ** -0.5 - prec, 0.0)
    else:
        b = (1.0 / types).sum(axis=1)
        W = mechanism.cubic_root(prec, b)[:, None]
        efforts = 1.0 / (types * W * W)
    active = efforts > 0
    safe_q = np.where(active, efforts, 1.0)
    obs = np.where(active, x[:, None] + noise / np.sqrt(safe_q),
                   NO_OBSERVATION)
    # integrated planner reads the raw observations
    num = mu0 * prec + np.where(active, obs * efforts, 0.0).sum(axis=1)
    den = prec + efforts.sum(axis=1)
    prediction = num / den
    payments = np.zeros_like(types)
    expected_sq = 1.0 / den
    nan = np.full_like(types, np.nan)
    metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                              payments, expected_sq)
    record = dict(x=x, types=types, reported_types=nan, efforts=efforts,
                  observations=obs, reports=obs, prediction=prediction,
                  payments=payments)
    return metrics, record


def _homogeneous_cell_state(scenario: Scenario, mech: MechanismSpec,
                            settings: EngineSettings):
    contract = benchmarks.homogeneous_contract(
        mech.theta_dagger, scenario.n_agents, scenario.cost_kind,
        scenario.prior.var0)
    n_den = scenario.n_agents if settings.hom_denominator == "full-n" else None
    use_mech, expected = benchmarks.homogeneous_fallback(
        contract, scenario.type_dist, scenario.prior, scenario.n_agents,
        scenario.cost_kind, n_den)
    return contract, use_mech


def _chunk_homogeneous(scenario, seed, t0, t1, settings, cell_state):
    prior = scenario.prior
    var0, prec, mu0 = prior.var0, prior.precision, prior.mu0
    kind = scenario.cost_kind
    contract, use_mech = cell_state
    x, types, noise = _draw_chunk(scenario, seed, t0, t1, settings)
    T = x.size
    n = scenario.n_agents
    nan = np.full_like(types, np.nan)
    if not use_mech or contract.q_dagger <= 0.0:
        # principal opts out: predict the prior mean, pay nothing
        efforts = np.zeros_like(types)
        payments = np.zeros_like(types)
        prediction = np.full(T, mu0)
        expected_sq = np.full(T, var0)
        metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                                  payments, expected_sq)
        record = dict(x=x, types=types, reported_types=nan, efforts=efforts,
                      observations=nan, reports=nan, prediction=prediction,
                      payments=payments)
        return metrics, record
    q_best, take = benchmarks.homogeneous_response_batch(types, contract,
                                                         kind, var0)
    efforts = np.where(take, q_best, 0.0)
    obs, est = _observe(x, efforts, noise, prior)
    est = np.where(take, est, mu0)      # only participants file a report
    q_dag = contract.q_dagger
    g = est + (est - mu0) * (prec / q_dag)
    m_count = take.sum(axis=1)
    denom_n = np.full(T, n) if settings.hom_denominator == "full-n" else m_count
    den = prec + denom_n * q_dag
    den_safe = np.where(den > 0, den, 1.0)
    num = mu0 * prec + q_dag * np.where(take, g, 0.0).sum(axis=1)
    prediction = np.where(m_count > 0, num / den_safe, mu0)
    payments = np.where(take,
                        contract.alpha - contract.beta * (x[:, None] - est) ** 2,
                        0.0)
    # exact expected squared error given this trial's efforts/participation:
    # the mis-specified aggregate is linear in the latent state and noises
    b = np.where(take, efforts / (prec + efforts), 0.0)
    w = np.where(take, efforts / (prec + efforts) ** 2, 0.0)
    c_m = np.where(m_count > 0, (q_dag + prec) / den_safe, 0.0)
    expected_sq = var0 * (1.0 - c_m * b.sum(axis=1)) ** 2 \
        + c_m ** 2 * w.sum(axis=1)
    metrics = _finish_metrics(scenario, x, types, efforts, prediction,
                              payments, expected_sq)
    obs_masked = np.where(take, obs, np.nan)
    record = dict(x=x, types=types, reported_types=nan, efforts=efforts,
                  observations=obs_masked,
                  reports=np.where(take, est, np.nan), prediction=prediction,
                  payments=payments)
    return metrics, record


def _simulate_chunk(scenario, mech: MechanismSpec, seed, t0, t1, settings,
                    cell_state=None):
    if mech.kind == "cope-linear":
        return _chunk_cope_linear(scenario, seed, t0, t1, settings)
    if mech.kind == "cope-quadratic":
        return _chunk_cope_quadratic(scenario, seed, t0, t1, settings)
    if mech.kind == "cope-general":
        return _chunk_cope_general(scenario, seed, t0, t1, settings)
    if mech.kind == "centralized":
        return _chunk_centralized(scenario, seed, t0, t1, settings)
    if mech.kind == "homogeneous":
        if cell_state is None:
            cell_state = _homogeneous_cell_state(scenario, mech, settings)
        return _chunk_homogeneous(scenario, seed, t0, t1, settings, cell_state)
    raise ValueError(f"unknown mechanism kind {mech.kind!r}")


# -- best-response agent mode (slow, verification only) ------------------------

def _best_response_trial(scenario, mech: MechanismSpec, seed, t, settings):
    if mech.kind == "cope-general":
        raise ValueError(
            "best-response mode needs the closed-form payment path; "
            "cope-general is not supported")
    if mech.kind == "centralized":
        # no strategic agents; identical to the truthful pipeline
        return _simulate_chunk(scenario, mech, seed, t, t + 1, settings)
    prior = scenario.prior
    var0, prec, mu0 = prior.var0, prior.precision, prior.mu0
    dist = scenario.type_dist
    lo, hi = dist.theta_lo, dist.theta_hi
    kind = scenario.cost_kind
    n = scenario.n_agents
    x_arr, types, noise = _draw_chunk(scenario, seed, t, t + 1, settings)
    x = float(x_arr[0])
    th = types[0]
    eps = noise[0]
    if mech.kind == "homogeneous":
        cell_state = _homogeneous_cell_state(scenario, mech, settings)
        return _chunk_homogeneous(scenario, seed, t, t + 1, settings,
                                  cell_state)
    # COPE: every agent reports the oracle-derived best response to rivals
    reported = np.empty(n)
    for i in range(n):
        br = agents.best_response_type(float(th[i]), "cope", scenario,
                                       n_grid=settings.br_grid,
                                       n_mc=settings.br_mc,
                                       seed=settings.br_seed)
        reported[i] = br.theta_star
    if kind == LINEAR:
        rule = mechanism.payment_rule_linear(reported, lo, hi, var0,
                                             settings.tie_break)
    else:
        rule = mechanism.payment_rule_quadratic(reported, lo, hi, var0)
    efforts = np.array([
        agents.best_response_effort(float(th[i]), scenario,
                                    theta_hat=float(reported[i]),
                                    theta_rest=np.delete(reported, i))
        for i in range(n)])
    active = efforts > 0
    safe_q = np.where(active, efforts, 1.0)
    obs = np.where(active, x + eps / np.sqrt(safe_q), NO_OBSERVATION)
    est = np.array([
        agents.truthful_report_obs(obs[i] if active[i] else mu0,
                                   efforts[i], prior)
        for i in range(n)])
    est = np.where(active, est, mu0)
    # the principal prices accuracy against the designated efforts
    prediction = mechanism.predict(prior, est, rule.efforts)
    payments = rule.realized(x, est)
    expected_sq = np.array([1.0 / (prec + efforts.sum())])
    metrics = _finish_metrics(scenario, np.array([x]), types,
                              efforts[None, :], np.array([prediction]),
                              payments[None, :], expected_sq)
    record = dict(x=np.array([x]), types=types,
                  reported_types=reported[None, :], efforts=efforts[None, :],
                  observations=obs[None, :], reports=est[None, :],
                  prediction=np.array([prediction]),
                  payments=payments[None, :])
    return metrics, record


# -- public entry points -------------------------------------------------------

def run_trial(scenario: Scenario, mech: MechanismSpec, agent_mode: str,
              seed: int, trial_index: int = 0,
              settings: EngineSettings = EngineSettings()) -> TrialRecord:
    """One fully-resolved trial; trial_index addresses the same draws the
    batched runner would use, so a record here equals the batch row."""
    check_pairing(scenario, mech)
    if agent_mode == TRUTHFUL:
        metrics, rec = _simulate_chunk(scenario, mech, seed, trial_index,
                                       trial_index + 1, settings)
    elif agent_mode == BEST_RESPONSE:
        metrics, rec = _best_response_trial(scenario, mech, seed, trial_index,
                                            settings)
    else:
        raise ValueError(f"unknown agent mode {agent_mode!r}")
    return TrialRecord(
        x=float(rec["x"][0]), types=rec["types"][0],
        reported_types=rec["reported_types"][0], efforts=rec["efforts"][0],
        observations=rec["observations"][0], reports=rec["reports"][0],
        prediction=float(rec["prediction"][0]), payments=rec["payments"][0],
        principal_payoff=float(metrics["principal_payoff"][0]),
        network_profit=float(metrics["network_profit"][0]),
        prediction_sq_error=float(metrics["prediction_sq_error"][0]),
        bayes_network_profit=float(metrics["bayes_network_profit"][0]),
        expected_sq_error=float(metrics["expected_sq_error"][0]))


def run_batch(scenario: Scenario, mech: MechanismSpec, seed: int,
              n_trials: int, settings: EngineSettings = EngineSettings(),
              trial_offset: int = 0) -> Dict[str, np.ndarray]:
    """Per-trial metric arrays for n_trials truthful trials (chunked
    internally; concatenated output)."""
    check_pairing(scenario, mech)
    cell_state = _homogeneous_cell_state(scenario, mech, settings) \
        if mech.kind == "homogeneous" else None
    parts: List[Dict[str, np.ndarray]] = []
    t = trial_offset
    while t < trial_offset + n_trials:
        t_hi = min(t + settings.chunk_size, trial_offset + n_trials)
        metrics, _ = _simulate_chunk(scenario, mech, seed, t, t_hi, settings,
                                     cell_state)
        parts.append(metrics)
        t = t_hi
    return {k: np.concatenate([p[k] for p in parts]) for k in METRICS}


class _Moments:
    """Streaming mean/variance (Welford, chunk-merged) plus min/max."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.mn = np.inf
        self.mx = -np.inf

    def update(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=float)
        nb = v.size
        if nb == 0:
            return
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
        if self.n > 1:
            se = float(np.sqrt(self.m2 / (self.n - 1) / self.n))
        else:
            se = 0.0
        return MetricStat(mean=self.mean, se=se, minimum=self.mn,
                          maximum=self.mx)


def _run_cell(scenario: Scenario, mech: MechanismSpec, seed: int,
              n_trials: int, settings: EngineSettings) -> ExperimentResult:
    check_pairing(scenario, mech)
    cell_state = _homogeneous_cell_state(scenario, mech, settings) \
        if mech.kind == "homogeneous" else None
    acc = {k: _Moments() for k in METRICS}
    t = 0
    while t < n_trials:
        t_hi = min(t + settings.chunk_size, n_trials)
        metrics, _ = _simulate_chunk(scenario, mech, seed, t, t_hi, settings,
                                     cell_state)
        for k in METRICS:
            acc[k].update(metrics[k])
        t = t_hi
    return ExperimentResult(
        mechanism=mech.label, cost=scenario.cost_kind,
        n_agents=scenario.n_agents, theta_dagger=mech.theta_dagger,
        n_trials=n_trials, stats={k: acc[k].stat() for k in METRICS})


def _run_cell_from_primitives(spec: dict) -> ExperimentResult:
    prior = GaussianPrior(spec["mu0"], spec["var0"])
    dist = CostTypeDistribution.uniform(spec["theta_lo"], spec["theta_hi"])
    model = linear_cost() if spec["cost_kind"] == LINEAR else quadratic_cost()
    scenario = Scenario(prior=prior, type_dist=dist,
                        n_agents=spec["n_agents"], cost_model=model)
    mech = MechanismSpec(spec["mech_kind"], spec["theta_dagger"])
    return _run_cell(scenario, mech, spec["seed"], spec["n_trials"],
                     spec["settings"])


def _portable(scenario: Scenario) -> bool:
    return (scenario.type_dist.kind == "uniform"
            and scenario.cost_kind in (LINEAR, QUADRATIC))


def default_workers() -> int:
    env = os.environ.get("COPE_SIM_WORKERS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"COPE_SIM_WORKERS must be an integer, got {env!r}") from None


def run_experiment(prior: GaussianPrior, type_dist: CostTypeDistribution,
                   cost_model, n_agents_list: Sequence[int],
                   mechanisms: Sequence[MechanismSpec], n_trials: int,
                   master_seed: int, n_workers: Optional[int] = None,
                   settings: EngineSettings = EngineSettings(),
                   progress=None) -> List[ExperimentResult]:
    """Full sweep: one cell per (N, mechanism), trial draws split from the
    master seed per cell, identical trial indices share world draws across
    mechanisms at the same N.  Cells run in parallel when possible; results
    are deterministic regardless of worker count."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    cells = [(n, mech) for n in n_agents_list for mech in mechanisms]
    scenarios = {n: Scenario(prior=prior, type_dist=type_dist, n_agents=n,
                             cost_model=cost_model) for n in n_agents_list}
    for n, mech in cells:
        check_pairing(scenarios[n], mech)
    workers = default_workers() if n_workers is None else max(1, n_workers)
    portable = all(_portable(s) for s in scenarios.values())
    results: List[Optional[ExperimentResult]] = [None] * len(cells)
    if workers > 1 and portable and len(cells) > 1:
        specs = []
        for n, mech in cells:
            specs.append(dict(
                mu0=prior.mu0, var0=prior.var0,
                theta_lo=type_dist.theta_lo, theta_hi=type_dist.theta_hi,
                cost_kind=scenarios[n].cost_kind, n_agents=n,
                mech_kind=mech.kind, theta_dagger=mech.theta_dagger,
                seed=master_seed, n_trials=n_trials, settings=settings))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, res in enumerate(pool.map(_run_cell_from_primitives, specs)):
                results[i] = res
                if progress:
                    progress(i + 1, len(cells), res)
    else:
        for i, (n, mech) in enumerate(cells):
            results[i] = _run_cell(scenarios[n], mech, master_seed, n_trials,
                                   settings)
            if progress:
                progress(i + 1, len(cells), results[i])
    return results
