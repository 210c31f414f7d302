"""Benchmark workloads: which bundled configs each one runs, how a seed
jitters them, and the headline values a run must reproduce.

Seed 0 hands the child the bundled configs byte for byte.  Any other seed
appends assignments for a fixed, listed set of physical parameters, each
drawn uniformly from the range given below.  Grid sizes, time steps and
horizons are never jittered, so the work per run stays close to that of
seed 0.
"""

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple           # bundled config names, run back to back
    why: str
    # config name -> {key: (low, high)}
    jitter: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "open-turning", ("muskat-turning",),
            "open curve N=513 to the Turning event: open Muskat kernel and "
            "arc-chord dominate; bypasses strip, closures and spectral",
            {"muskat-turning": {"turning.tilt": (0.04975, 0.05025),
                                "turning.b": (2.99, 3.01)}}),
        Workload(
            "periodic-breakdown", ("muskat-breakdown",),
            "periodic N=M=512 breakdown: ck_solve and the periodic kernel "
            "through strip; largest peak memory; bypasses closures",
            {"muskat-breakdown": {"turning.b": (2.95, 3.05),
                                  "strip.r0": (0.039, 0.041)}}),
        Workload(
            "waterwave-turning", ("waterwave-turning",),
            "water-wave N=256, 300 RK4 steps: BR matrix, geometric rate and "
            "LU solve; bypasses the Muskat kernels and strip",
            {"waterwave-turning": {"turning.b": (2.95, 3.05),
                                   "turning.beta1": (1.48, 1.52)}}),
        Workload(
            "small-grid",
            ("muskat-linear", "waterwave-linear", "ck-compare", "rt-verify"),
            "four small-N scenarios back to back: per-call overhead, "
            "diagnostics and artifact writing weigh as much as N^2 work",
            {"muskat-linear": {"wave.epsilon": (5e-5, 2e-4)},
             "waterwave-linear": {"wave.epsilon": (5e-5, 2e-4)},
             "ck-compare": {"strip.r0": (0.19, 0.21)},
             "rt-verify": {"weights.A": (90.0, 110.0),
                           "weights.tau": (0.0045, 0.0055)}}),
    )
}


def config_text(bundled: str, config_name: str, jitter: dict, seed: int) -> str:
    """The config file the child receives for one bundled config."""
    if seed == 0 or not jitter:
        return bundled
    rng = random.Random(f"{seed}:{config_name}")
    lines = [f"# seed {seed}: jittered physical parameters"]
    for key in sorted(jitter):
        lines.append(f"{key} = {round(rng.uniform(*jitter[key]), 9)!r}")
    sep = "" if bundled.endswith("\n") else "\n"
    return bundled + sep + "\n".join(lines) + "\n"


# --- headline values ---------------------------------------------------------
#
# Seed-0 references, copied from the reports the seed commit writes for the
# bundled configs.  Each tolerance is the accuracy the quantity claims:
# t* is located by linear interpolation between steps and its mesh shift
# is 5e-5 (acceptance criterion 5); the breakdown and water-wave data turn
# at t = wave.delta by construction, to within a tenth of a step; the RT
# sign change sits on a continuation node (spacing T/panels = 6.25e-4);
# errors and distances are roundoff-level and may move by an order of
# magnitude without changing the result.  The water-wave GraphBlowup event
# fires at the first step (the datum alone exceeds the threshold); that
# known defect is left as it is and is not part of any check here.

REFERENCES = {
    "muskat-turning": {"turning_time": (0.20435325156316164, 1e-4)},
    "muskat-breakdown": {"turning_time": (0.00999999999976902, 2e-5),
                         "rt_sign_change_time": (0.020625, 6.25e-4)},
    "waterwave-turning": {"turning_time": (0.000999999999963965, 1e-6),
                          "round_trip_error": (7.382983113757291e-15, 1e-10)},
    "muskat-linear": {"relative_error": (6.219654791195239e-09, 1e-7)},
    "waterwave-linear": {"relative_error": (7.0793958533106156e-09, 1e-7)},
    "ck-compare": {"max_node_distance": (1.0465656119507116e-12, 1e-10)},
}


def headline_misses(config_name: str, report: dict, cfg: dict, seed: int) -> list:
    """Headline checks for one scenario report; returns the misses.

    `cfg` is the parsed config ({"wave.delta": ..., ...}).  The breakdown
    and water-wave data are built backward from a curve that turns at t=0,
    so for every seed they must turn at t = wave.delta to within one step.
    """
    misses = []

    def near(key, ref, tol):
        value = report.get(key)
        if value is None or not abs(value - ref) <= tol:
            misses.append(f"{config_name}: {key} = {value!r}, "
                          f"expected {ref!r} +- {tol:g}")

    if config_name in ("muskat-breakdown", "waterwave-turning"):
        near("turning_time", cfg["wave.delta"], cfg["numerics.dt"])
    if seed == 0:
        for key, (ref, tol) in REFERENCES.get(config_name, {}).items():
            near(key, ref, tol)
    return misses
