"""Flat `section.key = value` configuration files for scenario runs.

The format is deliberately minimal: one assignment per line, `#`
comments, values parsed as int/float/string.  Every key must be
known (a typo is an error, never a silently ignored default), and every
known key has a documented default.  `ScenarioConfig.validate` checks
the values of an assembled config before a run starts.
"""

import math
from dataclasses import asdict, fields
from types import SimpleNamespace

from .closures import PhysicalConstants
from .curve import MIN_NODES
from .diagnostics import WeightParams
from .initial_data import TurningParams


class ConfigError(Exception):
    pass


SCENARIOS = (
    "muskat-linear",
    "muskat-turning",
    "muskat-breakdown",
    "waterwave-linear",
    "waterwave-turning",
    "ck-compare",
    "rt-verify",
)
# scenarios that start from the periodic turning candidate
PERIODIC_CANDIDATE = ("muskat-breakdown", "waterwave-turning", "rt-verify")


# section -> {key: default}, "" for the top-level keys.  The table fixes
# the known keys, their order in dump_config and their types: a value is
# parsed as the type of its default.
DEFAULTS = {
    "": {"scenario": "muskat-linear", "output_dir": "out"},
    "grid": {"n": 256, "L": 40.0},
    "physics": asdict(PhysicalConstants()),
    "turning": {**asdict(TurningParams()), "tilt": 0.05},
    # dt is the sampling interval: diagnostics, snapshots and event checks
    # happen at t0 + k dt on the dense output; it is also the first trial
    # step (the step size comes from the error estimate, stepping.STEP_TOL)
    "numerics": {"dt": 2e-3, "t_end": 0.5, "snapshot_cadence": 10},
    # M: mode/grid count used by the strip solver; T: continuation horizon
    "strip": {"r0": 0.04, "M": 512, "T": 0.02},
    "weights": asdict(WeightParams()),
    # delta: backward-construction horizon for the datum; epsilon and k:
    # linear-scenario amplitude and wavenumber
    "wave": {"delta": 1e-3, "epsilon": 1e-4, "k": 2},
}


# scenario -> the keys its pipeline reads besides scenario and output_dir;
# a section name stands for all of its keys.  validate rejects any other
# key that is moved from its default.  The periodic candidate shapes the
# curve with turning.beta1 and b alone; it reads beta2 and beta3 only
# through TurningParams, which orders beta1 < beta2 < beta3, so they
# must move to reach beta1 in [beta2's default, pi).  Water waves have
# vacuum above and only g in their right-hand side, and rho2 scales the
# sigma of their diagnostics.
PERIODIC_TURNING = ("turning.beta1", "turning.beta2", "turning.beta3", "turning.b")
READS = {
    "muskat-linear": ("grid.n", "physics", "numerics", "wave.k", "wave.epsilon"),
    "muskat-turning": ("grid", "physics", "turning", "numerics"),
    "muskat-breakdown": ("grid.n", "physics", *PERIODIC_TURNING, "numerics", "strip",
                         "wave.delta"),
    "waterwave-linear": ("grid.n", "physics.rho2", "physics.g", "numerics", "wave.k",
                         "wave.epsilon"),
    "waterwave-turning": ("grid.n", "physics.rho2", "physics.g", *PERIODIC_TURNING,
                          "numerics", "wave.delta"),
    "ck-compare": ("grid.n", "physics", "numerics.dt", "strip.r0", "strip.T"),
    "rt-verify": ("grid.n", "physics", *PERIODIC_TURNING, "numerics.snapshot_cadence",
                  "weights"),
}


class ScenarioConfig:
    """A scenario, its output directory and one attribute namespace per
    section of DEFAULTS (cfg.grid.n), all at their defaults until
    assigned."""

    def __init__(self, scenario: str = DEFAULTS[""]["scenario"]):
        if scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
        vars(self).update(DEFAULTS[""], scenario=scenario)
        for section, keys in DEFAULTS.items():
            if section:
                setattr(self, section, SimpleNamespace(**keys))

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and vars(self) == vars(other)

    def _build(self, cls, section: str):
        """cls from the keys of the section that are its fields."""
        values = getattr(self, section)
        return cls(**{f.name: getattr(values, f.name) for f in fields(cls)})

    def constants(self) -> PhysicalConstants:
        return self._build(PhysicalConstants, "physics")

    def turning_params(self) -> TurningParams:
        return self._build(TurningParams, "turning")

    def weight_params(self) -> WeightParams:
        return self._build(WeightParams, "weights")

    def validate(self) -> None:
        """Range checks on the assembled config, through the checks of the
        objects it builds (their messages begin with the field at fault)
        and on the values the pipelines need: positive finite times, at
        least MIN_NODES nodes (even on the period, odd on the open line),
        a resolved wavenumber and a strip of positive width.  The turning
        datum's own ranges hold per scenario: grid.L > beta3 on the open
        line, beta1 < pi on the period.  A string value must load back from
        the config.txt that dump_config writes: no '#', line break, or quote
        or blank at either end.  Last, every key that the scenario does not
        read (READS) must keep its default: a value it would ignore is an
        error, not a silent no-op."""
        for name in DEFAULTS[""]:
            value = getattr(self, name)
            if _parse_value(value, str) != value or any(c in value for c in "#\n\r"):
                raise ConfigError(f"{name} = {value!r} cannot be written to config.txt "
                                  f"and read back")
        for section, build in (("physics", self.constants),
                               ("turning", self.turning_params),
                               ("weights", self.weight_params)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}.{exc}") from exc
        n, open_line = self.grid.n, self.scenario == "muskat-turning"
        for key, ok, rule in (
                ("numerics.dt", 0 < self.numerics.dt < math.inf, "must be positive and finite"),
                ("numerics.t_end", 0 < self.numerics.t_end < math.inf,
                 "must be positive and finite"),
                ("numerics.snapshot_cadence", self.numerics.snapshot_cadence >= 1,
                 "must be >= 1"),
                ("grid.n", n >= MIN_NODES, f"must be >= {MIN_NODES}"),
                ("grid.n", n % 2 == open_line,
                 "must be odd on the open line (a node at alpha = 0)" if open_line
                 else "must be even on the period (alternating-point quadrature)"),
                ("wave.k", 1 <= self.wave.k < n / 2, "must lie in 1 .. grid.n/2 - 1"),
                ("strip.T", 0 < self.strip.T < math.inf, "must be positive and finite"),
                ("strip.r0", 0 < self.strip.r0 < math.inf, "must be positive and finite")):
            if not ok:
                section, _, name = key.partition(".")
                raise ConfigError(f"{key} = {getattr(getattr(self, section), name)!r} {rule}")
        if self.scenario == "muskat-turning" and not self.grid.L > self.turning.beta3:
            raise ConfigError(
                f"grid.L = {self.grid.L!r} must exceed turning.beta3 = "
                f"{self.turning.beta3!r}: the open candidate is flat only beyond beta3")
        if self.scenario in PERIODIC_CANDIDATE and not self.turning.beta1 < math.pi:
            raise ConfigError(
                f"turning.beta1 = {self.turning.beta1!r} must lie in (0, pi) "
                f"for the periodic candidate")
        reads = READS[self.scenario]
        for section, keys in DEFAULTS.items():
            if not section or section in reads:
                continue
            for name, default in keys.items():
                key, value = f"{section}.{name}", getattr(getattr(self, section), name)
                if key not in reads and value != default:
                    raise ConfigError(f"{key} = {value!r} is not read by scenario "
                                      f"{self.scenario}; leave it at {default!r}")


def _parse_value(text: str, target_type):
    text = text.strip()
    if target_type in (int, float):
        try:
            return target_type(text)
        except ValueError as exc:
            kind = "an integer" if target_type is int else "a number"
            raise ConfigError(f"expected {kind}, got {text!r}") from exc
    return text.strip("\"'")


def apply_assignment(config: ScenarioConfig, key: str, value: str) -> None:
    """Apply one `section.key` or top-level assignment, validating the key."""
    key = key.strip()
    section, _, name = key.partition(".") if "." in key else ("", "", key)
    if section not in DEFAULTS:
        raise ConfigError(f"unknown section {section!r} in key {key!r}")
    known = DEFAULTS[section]
    if name not in known:
        listing = f" (section {section!r} has: {', '.join(sorted(known))})"
        raise ConfigError(f"unknown key {key!r}{listing if section else ''}")
    setattr(getattr(config, section) if section else config, name,
            _parse_value(value, type(known[name])))
    if key == "scenario" and config.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario!r}")


def load_config(path) -> ScenarioConfig:
    """The config of a UTF-8 file of assignments; a line that is not UTF-8
    (its undecodable bytes read as lone surrogates) is a ConfigError."""
    config = ScenarioConfig()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text at column "
                                  f"{exc.start + 1}") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            try:
                apply_assignment(config, key, value)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return config


def dump_config(config: ScenarioConfig) -> str:
    """Every key of DEFAULTS in table order as `key = value`, the value as
    str() writes it."""
    lines = []
    for section, keys in DEFAULTS.items():
        holder = getattr(config, section) if section else config
        prefix = f"{section}." if section else ""
        lines += [f"{prefix}{name} = {getattr(holder, name)}" for name in keys]
    return "\n".join(lines) + "\n"
