"""Flat `section.key = value` configuration files for scenario runs.

The format is deliberately minimal: one assignment per line, `#`
comments, values parsed as int/float/string.  Every key must be
known (a typo is an error, never a silently ignored default), and every
known key has a documented default.  `ScenarioConfig.validate` checks
the values of an assembled config before a run starts.
"""

import math
from dataclasses import asdict, dataclass, field, fields

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


@dataclass
class GridConfig:
    n: int = 256
    L: float = 40.0


@dataclass
class NumericsConfig:
    # sampling interval: diagnostics, snapshots and event checks happen at
    # t0 + k dt on the dense output; it is also the first trial step (the
    # step size comes from the error estimate, stepping.STEP_TOL)
    dt: float = 2e-3
    t_end: float = 0.5
    snapshot_cadence: int = 10


@dataclass
class StripConfig:
    r0: float = 0.04
    M: int = 512            # mode/grid count used by the strip solver
    T: float = 0.02         # continuation horizon


@dataclass
class TurningConfig:
    beta1: float = 1.0
    beta2: float = 3.0
    beta3: float = 5.0
    b: float = 3.0
    cbar: float = -0.2
    tilt: float = 0.05


@dataclass
class WeightConfig:
    A: float = 100.0
    tau: float = 0.005


@dataclass
class PhysicsConfig:
    rho1: float = 0.0
    rho2: float = 1.0
    g: float = 1.0
    mu: float = 1.0
    kappa: float = 1.0


@dataclass
class WaveConfig:
    delta: float = 1e-3     # backward-construction horizon for the datum
    epsilon: float = 1e-4   # linear-scenario amplitude
    k: int = 2              # linear-scenario wavenumber


@dataclass
class ScenarioConfig:
    scenario: str = "muskat-linear"
    output_dir: str = "out"
    grid: GridConfig = field(default_factory=GridConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    turning: TurningConfig = field(default_factory=TurningConfig)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    strip: StripConfig = field(default_factory=StripConfig)
    weights: WeightConfig = field(default_factory=WeightConfig)
    wave: WaveConfig = field(default_factory=WaveConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {', '.join(SCENARIOS)}")

    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(**asdict(self.physics))

    def turning_params(self) -> TurningParams:
        t = self.turning
        return TurningParams(beta1=t.beta1, beta2=t.beta2, beta3=t.beta3,
                             b=t.b, cbar=t.cbar)

    def weight_params(self) -> WeightParams:
        return WeightParams(**asdict(self.weights))

    def validate(self) -> None:
        """Range checks on the assembled config, through the checks of the
        objects it builds (their messages begin with the field at fault)
        and on the values the pipelines need: positive finite times, at
        least MIN_NODES nodes (even on the period, odd on the open line),
        a resolved wavenumber and a strip of positive width.  The turning
        datum's own ranges hold per scenario: grid.L > beta3 on the open
        line, beta1 < pi on the period.  Water waves have vacuum above and
        only g in their right-hand side, so their configs keep rho1, mu and
        kappa at the defaults."""
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
        if self.scenario.startswith("waterwave-"):
            default = PhysicsConfig()
            for name in ("rho1", "mu", "kappa"):
                if getattr(self.physics, name) != getattr(default, name):
                    raise ConfigError(
                        f"physics.{name} does not enter the water-wave problem; "
                        f"leave it at {getattr(default, name)!r}")


_TOP_LEVEL = {"scenario": str, "output_dir": str}
_SECTIONS = {
    "grid": GridConfig,
    "physics": PhysicsConfig,
    "turning": TurningConfig,
    "numerics": NumericsConfig,
    "strip": StripConfig,
    "weights": WeightConfig,
    "wave": WaveConfig,
}


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
    if "." not in key:
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown key {key!r}")
        setattr(config, key, _parse_value(value, _TOP_LEVEL[key]))
        if key == "scenario" and config.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {config.scenario!r}")
        return
    section, _, name = key.partition(".")
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section {section!r} in key {key!r}")
    target = getattr(config, section)
    known = {f.name: f.type for f in fields(target)}
    if name not in known:
        raise ConfigError(f"unknown key {key!r} (section {section!r} has: "
                          f"{', '.join(sorted(known))})")
    current = getattr(target, name)
    setattr(target, name, _parse_value(value, type(current)))


def load_config(path) -> ScenarioConfig:
    config = ScenarioConfig()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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
    lines = [f"scenario = {config.scenario}",
             f"output_dir = {config.output_dir}"]
    for section, cls in _SECTIONS.items():
        target = getattr(config, section)
        for f in fields(cls):
            lines.append(f"{section}.{f.name} = {getattr(target, f.name)}")
    return "\n".join(lines) + "\n"
