"""Plain-text experiment configuration: key/value sections, no scripting.

A config file selects a scenario, the particle/grid scale, seeds, and the
checks to run, in INI syntax.  :data:`CONFIG_KEYS` lists every key it may
hold; any other section or key is a :class:`ConfigError`.  Everything needed
to replay a run byte for byte lives in the parsed structure, which the
runner echoes into the JSON manifest.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ConfigError
from .scenarios import scenario_names


def _list_of(convert):
    """Converter of a comma- or space-separated list into a tuple."""
    return lambda text: tuple(convert(tok) for tok in text.replace(",", " ").split())


# Every key a config may contain outside [custom]:
# (section, key) -> (ExperimentConfig field, converter of the raw text).
CONFIG_KEYS = {
    ("experiment", "scenario"): ("scenario", str),
    ("experiment", "n_particles"): ("n_particles", int),
    ("experiment", "n_steps"): ("n_steps", int),
    ("experiment", "t"): ("t", float),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "ci_seeds"): ("ci_seeds", _list_of(int)),
    ("estimator", "schedule"): ("schedule", str),
    ("estimator", "schedules"): ("schedules", _list_of(str)),
    ("estimator", "observables"): ("observables", _list_of(str)),
    ("estimator", "perturbations"): ("perturbations", _list_of(str)),
    ("estimator", "checks"): ("checks", _list_of(str)),
    ("oracle", "eps_ladder"): ("eps_ladder", _list_of(float)),
    ("oracle", "t_grid"): ("t_grid", _list_of(float)),
    ("oracle", "tv_shift"): ("tv_shift", float),
    ("oracle", "moment_variances"): ("moment_variances", _list_of(float)),
    ("oracle", "stability_shifts"): ("stability_shifts", _list_of(float)),
    ("output", "directory"): ("out_dir", str),
    ("output", "parallel"): ("parallel", int),
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in CONFIG_KEYS)) + ("custom",)
# [custom] holds a family name, an integer d and floats; build_family checks the keys.
_CUSTOM_CONVERTERS = {"family": str, "d": int}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    scenario: str = "brownian"
    n_particles: int = 5000
    n_steps: int = 1000
    t: float = 1.0
    seed: int = 7
    ci_seeds: tuple = (101, 202, 303, 404)

    schedule: str = "linear"
    schedules: tuple = ("linear", "quadratic", "sine")
    observables: tuple = ("coord1",)
    perturbations: tuple = ("const_e1",)
    checks: tuple = ()            # empty: use the scenario's declared checks

    eps_ladder: tuple = (0.1, 0.05, 0.025)
    t_grid: tuple = (0.05, 0.1, 0.2, 0.4)
    tv_shift: float = 0.5
    moment_variances: tuple = (0.1, 1.0, 10.0, 100.0)
    stability_shifts: tuple = (0.02, 0.2, 2.0)

    out_dir: str = "out"
    parallel: int = 1
    custom: Optional[dict] = None

    @property
    def dt(self) -> float:
        return self.t / self.n_steps

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        problems = []
        if self.scenario not in scenario_names() + ["custom"]:
            problems.append(f"unknown scenario {self.scenario!r}")
        if (self.scenario == "custom") != bool(self.custom):
            problems.append("a [custom] section goes with scenario = custom, and only there")
        for key in ("n_particles", "n_steps", "t", "parallel", "tv_shift"):
            if not 0 < getattr(self, key) < math.inf:
                problems.append(f"{key} must be positive and finite")
        for key in ("ci_seeds", "observables", "perturbations"):
            if not getattr(self, key):
                problems.append(f"{key} must be nonempty")
        for key in ("eps_ladder", "t_grid", "moment_variances"):
            if not all(0 < v < math.inf for v in getattr(self, key)):
                problems.append(f"{key} entries must be positive and finite")
        for key in ("ci_seeds", "eps_ladder"):
            if len(set(getattr(self, key))) < len(getattr(self, key)):
                problems.append(f"{key} entries must be distinct")
        if not all(v != 0 and math.isfinite(v) for v in self.stability_shifts):
            problems.append("stability_shifts entries must be nonzero and finite")
        if problems:
            raise ConfigError("; ".join(problems))


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    kw = {}
    try:
        for section in parser:
            for key, raw in parser[section].items():
                if section == "custom":
                    kw.setdefault("custom", {})[key] = _CUSTOM_CONVERTERS.get(key, float)(raw)
                elif (section, key) in CONFIG_KEYS:
                    field, convert = CONFIG_KEYS[section, key]
                    kw[field] = convert(raw)
                elif section in _SECTIONS:
                    raise ConfigError(f"unknown key {key!r} in [{section}]; have "
                                      f"{[k for s, k in CONFIG_KEYS if s == section]}")
                else:
                    raise ConfigError(f"unknown section [{section}]; have {list(_SECTIONS)}")
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"config value error: {exc}") from exc

    cfg = ExperimentConfig(**kw)
    cfg.validate()
    return cfg


def load_config(path) -> tuple[ExperimentConfig, str]:
    """Parse and validate a config file; returns (config, raw text)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text), text
