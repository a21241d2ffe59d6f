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
draws trial by trial (common random numbers).  COPE agents are truthful: they
report their types and posterior-mean estimates and exert the designated
effort, the equilibrium that the bic and bir verify suites certify.  Agents
offered a posted contract best-respond to its reward; a cell evaluates those
responses only at types at or below its cut.

Every stage after designate (observe, settle, metrics) works on the chunk's
engaged agents, those that exert effort or file a report: the recruited
winner under cope-linear and the linear planner, the takers of a posted
contract, every agent otherwise.  Per-trial totals equal the (T, N) row
sums bit for bit: a trial with one engaged agent takes its value, trials
with more take numpy's row sum over a dense block of those trials.  Only
run_trial builds the dense per-agent record.  Statistics merge fixed
4 096-trial blocks of all metrics at once, so they do not depend on the
chunk size either.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import benchmarks, mechanism, rng
from .costs import LINEAR, QUADRATIC, cost
from .model import (NO_OBSERVATION, CostTypeDistribution, GaussianPrior,
                    Scenario, TYPE_CLAMP)

TRUTHFUL = "truthful"

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
    tie_break: str = "lowest-index"
    hom_denominator: str = "participants"
    fixed_types: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not (isinstance(self.chunk_size, (int, np.integer))
                and self.chunk_size >= 1):
            raise ValueError(
                f"chunk_size must be an integer >= 1, got {self.chunk_size!r}")
        for name, legal in (("tie_break", ("lowest-index", "seeded-random")),
                            ("hom_denominator", ("participants", "full-n"))):
            if getattr(self, name) not in legal:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"use {' or '.join(legal)}")


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


class _Engaged:
    """The engaged agents of a (T, N) chunk: those that exert effort or file
    a report.  flat holds their sorted flat indices into the chunk, or is
    None when every agent is engaged.  The stages after designate hold one
    entry per engaged agent, or the (T, N) arrays themselves when every
    agent is engaged, and reduce them to per-trial totals that equal the
    (T, N) row sums with zeros elsewhere bit for bit."""

    def __init__(self, shape: Tuple[int, int], flat: Optional[np.ndarray]):
        self.shape = shape
        self.flat = flat
        if flat is not None:
            # 32-bit rows and columns where they fit: a posted contract
            # can engage most of the chunk
            small = shape[0] * shape[1] <= np.iinfo(np.int32).max
            self._index = np.int32 if small else np.intp
            self.rows, self.cols = np.divmod(flat.astype(self._index),
                                             self._index(shape[1]))

    def take(self, a: np.ndarray) -> np.ndarray:
        """The engaged entries of a (T, N) array."""
        return a if self.flat is None else a.reshape(-1)[self.flat]

    def at_trial(self, v: np.ndarray) -> np.ndarray:
        """A per-trial (T,) array, aligned with the engaged entries."""
        return v[:, None] if self.flat is None else v[self.rows]

    @functools.cached_property
    def runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The trials with an engaged agent, in order, each engaged entry's
        index into them and each trial's engaged count, read off the
        sorted rows."""
        start = np.empty(self.rows.size, dtype=bool)
        start[:1] = True
        np.not_equal(self.rows[1:], self.rows[:-1], out=start[1:])
        size = np.diff(np.append(np.flatnonzero(start), start.size))
        return self.rows[start], np.cumsum(start, dtype=self._index) - 1, size

    @functools.cached_property
    def _split(self):
        """The entries alone in their trial, and the dense-block layout of
        the rest: their block rows and columns and the block's trials."""
        trials, run, size = self.runs
        crowded = size > 1
        alone = ~crowded[run]
        block_row = (np.cumsum(crowded, dtype=self._index) - 1)[run[~alone]]
        return alone, self.rows[alone], block_row, self.cols[~alone], \
            trials[crowded]

    def totals(self, v: np.ndarray) -> np.ndarray:
        """Per-trial sums of the engaged values v.  A trial with one engaged
        agent takes its value; trials with more take numpy's row sum over a
        dense block of those trials, which keeps the association of the
        (T, N) row sum."""
        if self.flat is None:
            return v.sum(axis=1)
        alone, alone_rows, block_row, block_col, block_trials = self._split
        out = np.zeros(self.shape[0])
        out[alone_rows] = v[alone]
        if block_trials.size:
            block = np.zeros((block_trials.size, self.shape[1]))
            block[block_row, block_col] = v[~alone]
            out[block_trials] = block.sum(axis=1)
        return out

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Per-trial count of the engaged entries where mask holds."""
        if self.flat is None:
            return mask.sum(axis=1).astype(float)
        return np.bincount(self.rows[mask],
                           minlength=self.shape[0]).astype(float)

    def dense(self, v, fill) -> np.ndarray:
        """A (T, N) array holding v at the engaged entries, fill elsewhere."""
        if self.flat is None:
            return v
        out = np.full(self.shape, fill)
        out.reshape(-1)[self.flat] = v
        return out


def _observe(x: np.ndarray, efforts: np.ndarray, noise: np.ndarray,
             prior: GaussianPrior):
    """Observations and truthful (posterior-mean) estimate reports of the
    engaged agents, with x the latent state of each one's trial; agents with
    zero effort observe nothing and report the prior mean.  Both are formed
    for every entry (agents.truthful_report_obs's shrinkage, exact for
    positive effort) and the idle entries overwritten afterwards."""
    prec = prior.precision
    with np.errstate(divide="ignore", invalid="ignore"):
        # x + noise/sqrt(q) and (mu0 prec + obs q)/(prec + q), in place
        obs = np.sqrt(efforts)
        np.divide(noise, obs, out=obs)
        obs += x
        reports = obs * efforts
        reports += prior.mu0 * prec
        reports /= prec + efforts
    idle = ~(efforts > 0)
    obs[idle] = NO_OBSERVATION
    reports[idle] = prior.mu0
    return obs, reports


def _finish_metrics(scenario: Scenario, x, eng: _Engaged, types, efforts,
                    prediction, payments, expected_sq) -> np.ndarray:
    """The METRICS rows of a (len(METRICS), T) array; types, efforts and
    payments are the engaged agents'.  expected_sq None is the principal's
    Bayes risk at the efforts."""
    prior = scenario.prior
    err = (x - prediction) ** 2
    total_pay = eng.totals(payments)
    total_cost = eng.totals(cost(scenario.cost_model, efforts, types))
    risk = 1.0 / (prior.precision + eng.totals(efforts))
    metrics = {
        "principal_payoff": -err - total_pay,
        "network_profit": -err - total_cost,
        "bayes_network_profit": -risk - total_cost,
        "prediction_sq_error": err,
        "expected_sq_error": risk if expected_sq is None else expected_sq,
        "total_payment": total_pay,
        "total_cost": total_cost,
        "positive_effort_count": eng.count(efforts > 0),
    }
    return np.stack([metrics[k] for k in METRICS])


# -- mechanisms: designate and settle steps ------------------------------------
#
# designate(cell, types, t0) -> (reported types or None, engaged, efforts,
# terms): engaged holds the sorted flat indices of the agents that exert
# effort or file a report, or is None for every agent, and efforts and terms
# are theirs.  settle(cell, x, eng, efforts, obs, est, terms) -> (prediction,
# payments, expected squared error or None for the Bayes risk, reports shown
# in the record, the report of an idle agent), on the engaged agents: idle
# agents report the prior mean under COPE and nothing (NaN) otherwise.  The
# COPE steps designate from the reported types; their terms are the transfer
# components and designated efforts (pi, K, S, q).  cope-linear engages the
# winners with positive effort, the only agents it pays.

def _designate_cope_linear(cell: _Cell, reported, t0):
    dist, tie_break = cell.scenario.type_dist, cell.settings.tie_break
    T, n = reported.shape
    winner = mechanism.argmin_winner_batch(
        reported, tie_break, rng.uniforms(cell.seed, n, rng.TIEBREAK, T, t0)
        if tie_break == "seeded-random" else None)
    terms = mechanism.linear_components_batch(
        reported, winner, dist.theta_lo, dist.theta_hi, cell.scenario.prior.var0)
    live = np.flatnonzero(terms[3] > 0.0)
    pi, K, S, q = (t[live] for t in terms)
    return reported, live * n + winner[live], q, (pi, K, S, q)


def _designate_cope_quadratic(cell: _Cell, reported, t0):
    dist = cell.scenario.type_dist
    terms = mechanism.quadratic_components_batch(
        reported, dist.theta_lo, dist.theta_hi, cell.scenario.prior.var0)
    return reported, None, terms[3], terms


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
    return reported, None, q, (pi, K, S, q)


def _settle_cope(cell: _Cell, x, eng, efforts, obs, est, terms):
    pi, K, S, q = terms
    prior = cell.scenario.prior
    payments = pi - K * (eng.at_trial(x) - est) ** 2 + S
    if cell.mech.kind == "cope-linear":
        # only the winner is paid, and its report already is the posterior
        # mean; every other agent's pi, K and S are 0
        paid = q > 0.0
        prediction = np.full(x.size, prior.mu0)
        prediction[np.nonzero(paid)[0] if eng.flat is None
                   else eng.rows[paid]] = est[paid]
    else:
        prediction = mechanism.predict_batch(prior, est, q)
    return prediction, payments, None, est, prior.mu0


def _designate_centralized(cell: _Cell, types, t0):
    """The planner knows the types and assigns the first-best efforts; under
    linear cost only the cheapest agent works."""
    kind, var0 = cell.scenario.cost_kind, cell.scenario.prior.var0
    if kind == LINEAR:
        winner, q = benchmarks.centralized_winner(types, var0)
        live = np.flatnonzero(q > 0.0)
        return None, live * types.shape[1] + winner[live], q[live], None
    return None, None, benchmarks.centralized_efforts(types, kind, var0), None


def _settle_centralized(cell: _Cell, x, eng, efforts, obs, est, terms):
    """The integrated planner reads the raw observations and pays nothing."""
    prior = cell.scenario.prior
    num = prior.mu0 * prior.precision + eng.totals(
        np.where(efforts > 0, obs * efforts, 0.0))
    den = prior.precision + eng.totals(efforts)
    return num / den, np.zeros_like(efforts), 1.0 / den, obs, NO_OBSERVATION


def _designate_homogeneous(cell: _Cell, types, t0):
    """Agents who take the posted contract best-respond to its reward; they
    are the engaged agents, a taker at zero effort included.  Responses are
    evaluated only at types at or below the cell's cut, above which nobody
    takes the contract."""
    contract, posted, _, cut = cell.state
    if not posted:
        return None, np.empty(0, dtype=np.intp), np.empty(0), None
    low = np.flatnonzero(types <= cut)
    q, take = benchmarks.homogeneous_response_batch(
        types.reshape(-1)[low], contract, cell.scenario.cost_kind,
        cell.scenario.prior.var0)
    return None, low[take], q[take], None


def _settle_homogeneous(cell: _Cell, x, eng, efforts, obs, est, terms):
    """The posted contract settled on a dense block of the trials with a
    participant; every other trial (all of them when the principal opts
    out) predicts the prior mean, pays nothing and errs by var0."""
    prior = cell.scenario.prior
    contract, _, n_den, _ = cell.state
    prediction = np.full(x.size, prior.mu0)
    expected_sq = np.full(x.size, prior.var0)
    if not eng.flat.size:
        return prediction, np.zeros(0), expected_sq, est, np.nan
    trials, at, col = eng.runs[0], eng.runs[1], eng.cols
    block = (trials.size, eng.shape[1])
    take = np.zeros(block, dtype=bool)
    take[at, col] = True
    reports = np.full(block, np.nan)   # only participants file a report
    reports[at, col] = est
    q = np.zeros(block)
    q[at, col] = efforts
    prediction[trials], payments, expected_sq[trials] = \
        benchmarks.homogeneous_settle_batch(contract, x[trials], reports, q,
                                            take, prior, n_den)
    return prediction, payments[at, col], expected_sq, est, np.nan


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


@dataclass(frozen=True)
class _Stages:
    """One chunk's run of one mechanism as run_trial reads it: the draws,
    the reported types (None where nobody reports a type) and the engaged
    agents' arrays.  Idle agents report report_fill."""
    x: np.ndarray
    types: np.ndarray
    reported_types: Optional[np.ndarray]
    engaged: _Engaged
    efforts: np.ndarray
    observations: np.ndarray
    reports: np.ndarray
    report_fill: float
    prediction: np.ndarray
    payments: np.ndarray

    def record(self) -> Dict[str, np.ndarray]:
        """The dense (T, N) record arrays of every trial of the chunk."""
        eng = self.engaged
        reported = np.full(self.types.shape, np.nan) \
            if self.reported_types is None else self.reported_types
        return dict(x=self.x, types=self.types, reported_types=reported,
                    efforts=eng.dense(self.efforts, 0.0),
                    observations=eng.dense(self.observations, NO_OBSERVATION),
                    reports=eng.dense(self.reports, self.report_fill),
                    prediction=self.prediction,
                    payments=eng.dense(self.payments, 0.0))


def _run_mechanism(cell: _Cell, draws, t0: int):
    """One mechanism on one chunk's draws: designate, then observe, settle
    and score the engaged agents only.  Returns (metrics, stages)."""
    scenario = cell.scenario
    x, types, noise = draws
    designate, settle = _STEPS[cell.mech.kind]
    reported, flat, efforts, terms = designate(cell, types, t0)
    eng = _Engaged(types.shape, flat)
    obs, est = _observe(eng.at_trial(x), efforts, eng.take(noise),
                        scenario.prior)
    prediction, payments, expected_sq, reports, fill = settle(
        cell, x, eng, efforts, obs, est, terms)
    metrics = _finish_metrics(scenario, x, eng, eng.take(types), efforts,
                              prediction, payments, expected_sq)
    return metrics, _Stages(x, types, reported, eng, efforts, obs, reports,
                            fill, prediction, payments)


def _chunks(scenario: Scenario, mechs: Sequence[MechanismSpec], seed: int,
            t_lo: int, t_hi: int, settings: EngineSettings
            ) -> Iterator[Tuple[int, np.ndarray, _Stages]]:
    """Run trials [t_lo, t_hi) in chunks through the one pipeline.  Each
    chunk is drawn once and every mechanism of mechs runs on that draw, in
    order.  Yields (index into mechs, metrics, stages) per chunk and
    mechanism, with metrics the (len(METRICS), T) rows of _finish_metrics; a
    consumer that drops the stages before resuming keeps only one
    mechanism's arrays alive at a time."""
    cells = [_Cell(scenario, mech, seed, settings,
                   _cell_state(scenario, mech, settings)) for mech in mechs]
    for t0 in range(t_lo, t_hi, settings.chunk_size):
        t1 = min(t0 + settings.chunk_size, t_hi)
        draws = _draw_chunk(scenario, seed, t0, t1, settings)
        for i, cell in enumerate(cells):
            yield (i, *_run_mechanism(cell, draws, t0))


# -- public entry points -------------------------------------------------------

def run_trial(scenario: Scenario, mech: MechanismSpec, agent_mode: str,
              seed: int, trial_index: int = 0,
              settings: EngineSettings = EngineSettings()) -> TrialRecord:
    """One fully-resolved trial with truthful agents; agent_mode must be
    TRUTHFUL.  trial_index addresses the same draws the batched runner would
    use, so a record here equals the batch row.  Only this entry point builds
    the dense per-agent record."""
    check_pairing(scenario, mech)
    if agent_mode != TRUTHFUL:
        raise ValueError(f"unknown agent mode {agent_mode!r}; agents are "
                         f"{TRUTHFUL!r}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    _, metrics, stages = next(_chunks(scenario, [mech], seed, trial_index,
                                      trial_index + 1, settings))
    fields = {k: v[0] for k, v in stages.record().items()}
    fields.update({k: float(fields[k]) for k in ("x", "prediction")})
    fields.update({k: float(row[0]) for k, row in zip(METRICS, metrics)
                   if k in TrialRecord.__annotations__})
    return TrialRecord(**fields)


def run_batch(scenario: Scenario, mech: MechanismSpec, seed: int,
              n_trials: int, settings: EngineSettings = EngineSettings()
              ) -> Dict[str, np.ndarray]:
    """Per-trial metric arrays for n_trials truthful trials (chunked
    internally; concatenated output)."""
    check_pairing(scenario, mech)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rows = np.concatenate([metrics for _, metrics, _ in _chunks(
        scenario, [mech], seed, 0, n_trials, settings)], axis=1)
    return dict(zip(METRICS, rows))


#: trials per moment block: statistics merge fixed blocks aligned to trial 0,
#: so they do not depend on the chunk size
_MOMENT_BLOCK = 4096


class _Moments:
    """Streaming mean/variance (Welford, merged over _MOMENT_BLOCK-trial
    blocks) plus min/max of every metric at once, one per row of the
    (len(METRICS), T) arrays add() takes.  add() takes consecutive trials in
    any lengths and holds a partial block until it fills or stats() is
    called.  A row reduce of a C-contiguous block sums like the 1-D reduce
    of that row, so each metric's moments do not depend on the stacking."""

    def __init__(self):
        k = len(METRICS)
        self.n = 0
        self.mean = np.zeros(k)
        self.m2 = np.zeros(k)
        self.mn = np.full(k, np.inf)
        self.mx = np.full(k, -np.inf)
        self._pending: List[np.ndarray] = []
        self._n_pending = 0

    def add(self, v: np.ndarray) -> None:
        self._pending.append(v)
        self._n_pending += v.shape[1]
        if self._n_pending < _MOMENT_BLOCK:
            return
        buf = self._pending[0] if len(self._pending) == 1 \
            else np.concatenate(self._pending, axis=1)
        size = buf.shape[1]
        n_full = size - size % _MOMENT_BLOCK
        for b0 in range(0, n_full, _MOMENT_BLOCK):
            self.update(buf[:, b0:b0 + _MOMENT_BLOCK])
        self._pending = [buf[:, n_full:]] if n_full < size else []
        self._n_pending = size - n_full

    def update(self, v: np.ndarray) -> None:
        v = np.ascontiguousarray(v)
        nb = v.shape[1]
        mb = v.mean(axis=1)
        dev = v - mb[:, None]
        dev *= dev
        m2b = dev.sum(axis=1)
        n = self.n + nb
        delta = mb - self.mean
        self.m2 += m2b + delta * delta * self.n * nb / n
        self.mean += delta * nb / n
        self.n = n
        # a NaN block leaves min and max as they were
        low, high = v.min(axis=1), v.max(axis=1)
        self.mn = np.where(low < self.mn, low, self.mn)
        self.mx = np.where(high > self.mx, high, self.mx)

    def stats(self) -> Dict[str, MetricStat]:
        if self._n_pending:
            self.update(np.concatenate(self._pending, axis=1))
            self._pending, self._n_pending = [], 0
        if self.n > 1:
            se = np.sqrt(self.m2 / (self.n - 1) / self.n)
        else:
            se = np.zeros(len(METRICS))
        return {k: MetricStat(mean=float(self.mean[i]), se=float(se[i]),
                              minimum=float(self.mn[i]),
                              maximum=float(self.mx[i]))
                for i, k in enumerate(METRICS)}


def _run_cells(scenario: Scenario, mechs: Sequence[MechanismSpec],
               seed: int, n_trials: int, settings: EngineSettings
               ) -> List[ExperimentResult]:
    """The sweep cells of one N, in mechs order: each chunk is drawn once and
    every mechanism's trials are reduced to its own metric moments."""
    acc = [_Moments() for _ in mechs]
    for i, metrics, stages in _chunks(scenario, mechs, seed, 0, n_trials,
                                      settings):
        acc[i].add(metrics)
        # free this mechanism's (T, N) arrays before the next one designates
        del stages
    return [ExperimentResult(
        mechanism=mech.kind, cost=scenario.cost_kind,
        n_agents=scenario.n_agents, theta_dagger=mech.theta_dagger,
        n_trials=n_trials, stats=a.stats())
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
