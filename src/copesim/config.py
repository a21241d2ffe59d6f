"""Declarative experiment configuration (INI file, one section per concern).

Defaults reproduce the headline comparison: standard normal prior, uniform
types on [0, 1], N from 3 to 19, posted-contract design points 0.2 / 0.5 /
0.8, 50000 trials per cell.  serialize/parse round-trip exactly; values are
read verbatim, with no % interpolation.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from typing import List, Tuple

from .costs import LINEAR, QUADRATIC, linear_cost, quadratic_cost
from .engine import EngineSettings, MechanismSpec, homogeneous_spec
from .model import CostTypeDistribution, GaussianPrior


class ConfigError(ValueError):
    """Unusable configuration (bad value, wrong type, missing file)."""


@dataclass(frozen=True)
class ExperimentConfig:
    mu0: float = 0.0
    var0: float = 1.0
    theta_lo: float = 0.0
    theta_hi: float = 1.0
    cost: str = LINEAR
    n_agents_list: Tuple[int, ...] = tuple(range(3, 20))
    n_trials: int = 50_000
    master_seed: int = 0
    tie_break: str = "lowest-index"
    use_cope: bool = True
    use_centralized: bool = True
    use_homogeneous: bool = True
    theta_dagger_list: Tuple[float, ...] = (0.2, 0.5, 0.8)
    hom_denominator: str = "participants"
    output_path: str = "results"

    def validate(self) -> "ExperimentConfig":
        try:
            self.prior()
            self.type_dist()
            EngineSettings(tie_break=self.tie_break,
                           hom_denominator=self.hom_denominator)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (math.isfinite(self.mu0) and math.isfinite(self.var0)):
            raise ConfigError(
                f"mu0 and var0 must be finite, got {self.mu0}, {self.var0}")
        if self.cost not in (LINEAR, QUADRATIC):
            raise ConfigError(f"cost must be linear or quadratic, got {self.cost!r}")
        if not self.n_agents_list or min(self.n_agents_list) < 1:
            raise ConfigError(f"n_agents must list Ns >= 1, got {self.n_agents_list}")
        repeated = sorted({n for n in self.n_agents_list
                           if self.n_agents_list.count(n) > 1})
        if repeated:
            raise ConfigError("n_agents repeats N = "
                              + ", ".join(map(str, repeated)))
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.use_homogeneous and not (self.theta_dagger_list and all(
                0 < td < math.inf for td in self.theta_dagger_list)):
            raise ConfigError(f"theta_dagger must list positive finite values, "
                              f"got {self.theta_dagger_list}")
        if not (self.use_cope or self.use_centralized or self.use_homogeneous):
            raise ConfigError("no mechanism enabled")
        return self

    # -- object builders -----------------------------------------------------

    def prior(self) -> GaussianPrior:
        return GaussianPrior(self.mu0, self.var0)

    def type_dist(self) -> CostTypeDistribution:
        return CostTypeDistribution.uniform(self.theta_lo, self.theta_hi)

    def cost_model(self):
        return linear_cost() if self.cost == LINEAR else quadratic_cost()

    def mechanisms(self) -> List[MechanismSpec]:
        mechs: List[MechanismSpec] = []
        if self.use_cope:
            mechs.append(MechanismSpec(f"cope-{self.cost}"))
        if self.use_centralized:
            mechs.append(MechanismSpec("centralized"))
        if self.use_homogeneous:
            mechs.extend(homogeneous_spec(td) for td in self.theta_dagger_list)
        return mechs


#: The INI schema, one (section, key, field) triple per key, in file order.
#: A value is read and written by the type of its field's default.
SCHEMA = (
    ("model", "mu0", "mu0"),
    ("model", "var0", "var0"),
    ("model", "theta_lo", "theta_lo"),
    ("model", "theta_hi", "theta_hi"),
    ("model", "cost", "cost"),
    ("run", "n_agents", "n_agents_list"),
    ("run", "n_trials", "n_trials"),
    ("run", "master_seed", "master_seed"),
    ("run", "tie_break", "tie_break"),
    ("run", "output", "output_path"),
    ("mechanism.cope", "enabled", "use_cope"),
    ("mechanism.centralized", "enabled", "use_centralized"),
    ("mechanism.homogeneous", "enabled", "use_homogeneous"),
    ("mechanism.homogeneous", "theta_dagger", "theta_dagger_list"),
    ("mechanism.homogeneous", "denominator", "hom_denominator"),
)
_FIELDS = {(section, key): field for section, key, field in SCHEMA}
_SECTIONS = {section for section, _ in _FIELDS} | {configparser.DEFAULTSECT}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _parse_int_list(text: str) -> Tuple[int, ...]:
    out: List[int] = []
    for part in text.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # range like 3-19 (minus sign of a negative excluded)
            idx = part.index("-", 1)
            lo, hi = int(part[:idx]), int(part[idx + 1:])
            if hi < lo:
                raise ConfigError(f"bad range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return tuple(out)


def _parse_value(text: str, default):
    """`text` read as the type of `default`."""
    if isinstance(default, bool):
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if isinstance(default, tuple) and isinstance(default[0], int):
        return _parse_int_list(text)
    if isinstance(default, tuple):
        return tuple(float(p) for p in text.replace(";", ",").split(",")
                     if p.strip())
    return type(default)(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, key, field in SCHEMA:
        parser.read_dict({section: {key: _format_value(getattr(cfg, field))}})
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    """Every key of every section, [DEFAULT] included, must be in SCHEMA."""
    parser = configparser.ConfigParser(interpolation=None)
    base = ExperimentConfig()
    values = {}
    try:
        parser.read_string(text)
        for section, proxy in parser.items():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in proxy.items():
                field = _FIELDS.get((section, key))
                if field is None:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                try:
                    values[field] = _parse_value(raw, getattr(base, field))
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError("cannot parse config: "
                          + "; ".join(str(exc).splitlines())) from None
    return ExperimentConfig(**values).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
