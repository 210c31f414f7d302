"""Config parsing, CLI exit codes, artifact determinism, SVG rendering."""

import ast
import fnmatch
import glob
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import fields

import numpy as np
import pytest

from turnwave import stepping, strip
from turnwave.cli import main
from turnwave.closures import PhysicalConstants
from turnwave.config import (DEFAULTS, READS, SCENARIOS, ConfigError, ScenarioConfig,
                             apply_assignment, dump_config, load_config)
from turnwave.curve import load_csv
from turnwave.diagnostics import WeightParams
from turnwave.initial_data import TurningParams
from turnwave.scenarios import RECOMPUTED, _PIPELINES, _finish, verify_trajectory
from turnwave.strip import PICARD_TOL
from turnwave.svg import render_curve, render_series

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_round_trip(tmp_path):
    cfg = ScenarioConfig()
    path = write_cfg(tmp_path, dump_config(cfg))
    back = load_config(path)
    assert dump_config(back) == dump_config(cfg)


DEFAULT_DUMP = """\
scenario = muskat-linear
output_dir = out
grid.n = 256
grid.L = 40.0
physics.rho1 = 0.0
physics.rho2 = 1.0
physics.g = 1.0
physics.mu = 1.0
physics.kappa = 1.0
turning.beta1 = 1.0
turning.beta2 = 3.0
turning.beta3 = 5.0
turning.b = 3.0
turning.cbar = -0.2
turning.tilt = 0.05
numerics.dt = 0.002
numerics.t_end = 0.5
numerics.snapshot_cadence = 10
strip.r0 = 0.04
strip.M = 512
strip.T = 0.02
weights.A = 100.0
weights.tau = 0.005
wave.delta = 0.001
wave.epsilon = 0.0001
wave.k = 2
"""
# the lines of each bundled config's dump that differ from DEFAULT_DUMP
BUNDLED_DUMP_LINES = {
    "ck-compare.cfg": ["scenario = ck-compare", "output_dir = out/ck-compare",
                       "grid.n = 128", "numerics.dt = 0.0001", "strip.r0 = 0.2",
                       "strip.T = 0.05"],
    "muskat-breakdown.cfg": ["scenario = muskat-breakdown",
                             "output_dir = out/muskat-breakdown", "grid.n = 512",
                             "turning.beta1 = 1.5", "numerics.dt = 0.0002",
                             "numerics.t_end = 0.05", "wave.delta = 0.01"],
    "muskat-linear.cfg": ["output_dir = out/muskat-linear"],
    "muskat-turning.cfg": ["scenario = muskat-turning", "output_dir = out/muskat-turning",
                           "grid.n = 513", "grid.L = 15.0", "numerics.dt = 0.001",
                           "numerics.snapshot_cadence = 20"],
    "rt-verify.cfg": ["scenario = rt-verify", "output_dir = out/rt-verify",
                      "turning.beta1 = 1.5"],
    "waterwave-linear.cfg": ["scenario = waterwave-linear",
                             "output_dir = out/waterwave-linear", "grid.n = 64",
                             "numerics.dt = 0.005", "numerics.t_end = 2.5"],
    "waterwave-turning.cfg": ["scenario = waterwave-turning",
                              "output_dir = out/waterwave-turning", "turning.beta1 = 1.5",
                              "numerics.dt = 1e-05", "numerics.t_end = 0.005"],
}


def test_dump_text_is_pinned():
    """config.txt is read back by other tools (the benchmark takes
    wave.delta and numerics.dt from it), so its key order and value text
    are fixed: the defaults' dump, and each bundled config's dump as the
    defaults' lines with its own assignments in their places."""
    assert dump_config(ScenarioConfig()) == DEFAULT_DUMP
    default = DEFAULT_DUMP.splitlines()
    assert sorted(BUNDLED_DUMP_LINES) == sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    for name, changed in BUNDLED_DUMP_LINES.items():
        lines = dump_config(load_config(os.path.join(CONFIG_DIR, name))).splitlines()
        assert len(lines) == len(default), name
        assert [line for line, d in zip(lines, default) if line != d] == changed, name
        assert [line.split(" = ")[0] for line in lines] == \
            [d.split(" = ")[0] for d in default], name


def test_unknown_key_is_an_error(tmp_path):
    path = write_cfg(tmp_path, "numerics.dT = 0.1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "dT" in str(err.value)
    assert ":1:" in str(err.value)  # names the offending line


def test_unknown_scenario_is_an_error():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="muskat-sideways")


def test_assignment_type_coercion():
    cfg = ScenarioConfig()
    apply_assignment(cfg, "grid.n", "512")
    apply_assignment(cfg, "output_dir", "'runs/a'")
    apply_assignment(cfg, "numerics.dt", "1e-4")
    assert cfg.grid.n == 512 and cfg.output_dir == "runs/a"
    assert cfg.numerics.dt == 1e-4
    with pytest.raises(ConfigError):
        apply_assignment(cfg, "grid.n", "many")
    with pytest.raises(ConfigError):
        apply_assignment(cfg, "numerics.dt", "true")


def test_comments_and_blank_lines(tmp_path):
    path = write_cfg(tmp_path, "# hello\n\ngrid.n = 96  # trailing comment\n")
    assert load_config(path).grid.n == 96


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
                         ids=os.path.basename)
def test_bundled_config_loads_and_round_trips(tmp_path, path):
    """Every bundled config names only known keys, passes validation, and
    its resolved dump loads back to the same configuration."""
    cfg = load_config(path)
    cfg.validate()
    back = load_config(write_cfg(tmp_path, dump_config(cfg)))
    assert back == cfg


@pytest.mark.parametrize("out", ["runs/a b", "runs/x=1", "runs/it's"])
def test_output_dir_round_trips(tmp_path, out):
    """config.txt records output_dir; a '=', a blank or a quote inside the
    value loads back as written."""
    cfg = load_config(os.path.join(CONFIG_DIR, "muskat-turning.cfg"))
    cfg.output_dir = out
    cfg.validate()
    assert load_config(write_cfg(tmp_path, dump_config(cfg))) == cfg


@pytest.mark.parametrize("out", ["runs/x#1", "'quoted'", '"quoted"', "runs/a\nb", " runs/a"],
                         ids=["hash", "single-quotes", "double-quotes", "newline", "blank"])
def test_cli_output_dir_that_cannot_load_back_exit_2(tmp_path, monkeypatch, capsys, out):
    """An output_dir that config.txt cannot carry back (load_config cuts a
    line at '#', and strips blanks and quotes from its ends) is a config
    error that names the key, raised before anything is written."""
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, "scenario = muskat-linear\n")
    assert main(["run", path, "--out", out]) == 2
    assert "output_dir" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["case.cfg"]


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "numerics.dT = 0.1\n")
    assert main(["run", path]) == 2
    assert "dT" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "grid.periodic = false",          # each scenario fixes its own topology
    "strip.panels = 32",              # ck_solve chooses its time grid
    "strip.tol = 1e-10",              # strip.PICARD_TOL
    "strip.max_iter = 50",            # strip.PICARD_MAX_ITER
    "strip.shrink = exponential",     # the strip always shrinks linearly
    "strip.gamma = 2.0",
    "seed = 3",                       # nothing drew random numbers from it
    "turning.mollify_tau = 0.1",      # candidates are used unsmoothed
    "weights.literal_hbar = true",    # hbar uses sin^2(x/2), see diagnostics
    "numerics.filter_threshold = 0",  # the Krasny filter level is fixed
])
def test_cli_removed_keys_exit_2(tmp_path, capsys, assignment):
    """Keys that no longer choose anything are unknown, not silently
    ignored, and the message names the key."""
    path = write_cfg(tmp_path, f"scenario = muskat-linear\n{assignment}\n"
                               f"output_dir = {tmp_path}/out\n")
    assert main(["run", path]) == 2
    assert assignment.split(" =")[0] in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "physics.g=-1",
    "turning.b=-1",
    "weights.A=0.5",
    "numerics.dt=0",
    "numerics.snapshot_cadence=0",
    "numerics.t_end=nan",
    "numerics.t_end=-1",
    "grid.n=10",                      # below MIN_NODES
    "grid.n=255",                     # odd N on the period
    "wave.k=0",
])
def test_cli_out_of_range_value_exit_2(tmp_path, capsys, assignment):
    """An out-of-range value is a config error that names its key, raised
    before the run starts, whether or not the scenario reads the key."""
    path = write_cfg(tmp_path, "scenario = muskat-linear\ngrid.n = 64\n"
                               f"numerics.t_end = 0.01\noutput_dir = {tmp_path}/out\n")
    assert main(["run", path, "--set", assignment]) == 2
    assert assignment.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("assignment", ["physics.rho1=0.5", "physics.mu=2",
                                        "physics.kappa=3"])
def test_cli_waterwave_physics_keys_exit_2(tmp_path, capsys, assignment):
    """The water-wave problem has vacuum above and only g in its right-hand
    side, so moving rho1, mu or kappa there is a config error."""
    path = os.path.join(CONFIG_DIR, "waterwave-linear.cfg")
    assert main(["run", path, "--out", str(tmp_path / "out"), "--set", assignment]) == 2
    assert assignment.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("config,assignment", [
    ("rt-verify.cfg", "turning.tilt=0.3"),       # tilts only the open candidate
    ("muskat-breakdown.cfg", "grid.L=3"),         # L sizes only the open line
    ("muskat-linear.cfg", "strip.r0=0.1"),        # no strip pipeline
    ("ck-compare.cfg", "numerics.t_end=1"),       # compares up to strip.T
    ("rt-verify.cfg", "numerics.dt=1e-4"),        # samples at weights.tau / 200
    ("waterwave-turning.cfg", "turning.cbar=-0.5"),   # the periodic candidate
    ("muskat-turning.cfg", "weights.A=50"),       # only rt-verify weighs
])
def test_cli_unread_key_exit_2(tmp_path, capsys, config, assignment):
    """A key that the scenario never reads, moved from its default, is a
    config error that names the key and the scenario, raised before
    anything is written: the run would write the artifacts of the
    default."""
    out = tmp_path / "out"
    path = os.path.join(CONFIG_DIR, config)
    assert main(["run", path, "--out", str(out), "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert assignment.split("=")[0] in err and load_config(path).scenario in err
    assert not out.exists()


def _section_keys(section):
    return [f"{section}.{name}" for name in DEFAULTS[section]] if section in DEFAULTS \
        else [section]


def _read_keys(scenario):
    return {key for entry in READS[scenario] for key in _section_keys(entry)}


def test_read_table_names_known_keys():
    """READS has one entry per scenario, and each names a section or a
    key of DEFAULTS."""
    assert sorted(READS) == sorted(SCENARIOS)
    known = {key for section in DEFAULTS if section for key in _section_keys(section)}
    for scenario in SCENARIOS:
        assert _read_keys(scenario) <= known, scenario


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
                         ids=os.path.basename)
def test_bundled_config_assigns_only_keys_it_reads(path):
    """Every key a bundled config assigns is read by its scenario, also a
    key assigned its default value."""
    with open(path) as fh:
        keys = [line.split("#")[0].split("=")[0].strip() for line in fh]
    scenario = load_config(path).scenario
    assigned = {key for key in keys if "." in key}
    assert assigned and assigned <= _read_keys(scenario)


def test_benchmark_jittered_keys_are_read():
    """Every key that a benchmark seed jitters is read by the scenario of
    its config, so each seed runs different physics."""
    where = os.path.join(os.path.dirname(__file__), "..", "turnbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("turnbench_workloads", where)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jittered = [(name, key) for w in workloads.WORKLOADS.values()
                for name, keys in w.jitter.items() for key in keys]
    assert jittered
    for name, key in jittered:
        scenario = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg")).scenario
        assert key in _read_keys(scenario), (name, key)


# ScenarioConfig's builders: method -> (section, the dataclass it fills)
BUILDERS = {"constants": ("physics", PhysicalConstants),
            "turning_params": ("turning", TurningParams),
            "weight_params": ("weights", WeightParams)}


def _config_reads(function):
    """The keys that function's source names on its cfg argument, as two
    sets: each cfg.<section>.<key>, and the keys that a builder call
    (cfg.constants() ...) takes into the object it builds."""
    named, built = set(), set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
        if not isinstance(node, ast.Attribute):
            continue
        holder = node.value
        if isinstance(holder, ast.Attribute) and isinstance(holder.value, ast.Name) \
                and holder.value.id == "cfg":
            named.add(f"{holder.attr}.{node.attr}")
        if isinstance(holder, ast.Name) and holder.id == "cfg" and node.attr in BUILDERS:
            section, cls = BUILDERS[node.attr]
            built |= {f"{section}.{f.name}" for f in fields(cls)}
    return named, built


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_read_table_matches_the_pipeline(scenario):
    """READS agrees with the source of the scenario's pipeline.  Every key
    that the pipeline names on cfg is in READS, or validate would reject a
    key the run uses.  Every key in READS is named by the pipeline or by
    _finish, or is a field of an object the pipeline builds from cfg: a key
    in READS that nothing reads would pass validate and change nothing."""
    named, built = _config_reads(_PIPELINES[scenario])
    finish_named, _ = _config_reads(_finish)
    reads = _read_keys(scenario)
    assert named and named <= reads, named - reads
    assert reads <= named | built | finish_named, reads - (named | built | finish_named)


@pytest.mark.parametrize("config", ["muskat-breakdown.cfg", "waterwave-turning.cfg",
                                    "rt-verify.cfg"])
def test_periodic_candidate_takes_beta1_up_to_pi(config):
    """The periodic candidate allows beta1 in (0, pi), and TurningParams
    orders beta1 < beta2 < beta3: moving beta2 and beta3 out of the way is
    how a config reaches beta1 in [3, pi), so those keys pass validate in
    the periodic scenarios."""
    cfg = load_config(os.path.join(CONFIG_DIR, config))
    for assignment in ("turning.beta1=3.1", "turning.beta2=4", "turning.beta3=5"):
        apply_assignment(cfg, *assignment.split("="))
    cfg.validate()
    assert cfg.turning_params().beta1 == 3.1


def test_cli_rt_verify_with_beta1_near_pi_runs(tmp_path):
    """rt-verify at beta1 = 3.1 runs to its report (exit 0 or 4), not to a
    config error."""
    out = tmp_path / "out"
    code = main(["run", os.path.join(CONFIG_DIR, "rt-verify.cfg"), "--out", str(out),
                 "--set", "turning.beta1=3.1", "--set", "turning.beta2=4",
                 "--set", "turning.beta3=5"])
    assert code in (0, 4)
    assert "sigma10_checklist" in json.loads((out / "report.json").read_text())


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


def test_cli_bad_set_exit_2(tmp_path):
    path = write_cfg(tmp_path, "scenario = muskat-linear\n")
    assert main(["run", path, "--set", "numerics.dTime=1"]) == 2


def test_cli_run_verify_render_and_determinism(tmp_path, capsys):
    """A fast muskat-linear run: exit 0, artifacts exist, rerun is
    byte-identical, verify and render succeed."""
    path = write_cfg(tmp_path, "\n".join([
        "scenario = muskat-linear",
        "grid.n = 64",
        "wave.k = 1",
        "numerics.dt = 5e-3",
        "numerics.t_end = 0.1",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    for artifact in ("events.json", "diagnostics.csv", "metrics.json", "report.json",
                     "config.txt", "interface.svg", "min_slope.svg"):
        assert (out / artifact).exists(), artifact
    first = {f: (out / f).read_bytes()
             for f in os.listdir(out) if (out / f).is_file()}
    assert main(["run", path]) == 0
    for f, blob in first.items():
        assert (out / f).read_bytes() == blob, f"{f} not deterministic"

    assert main(["verify", str(out)]) == 0
    assert main(["render", str(out)]) == 0
    rendered = capsys.readouterr().out.splitlines()
    assert any(line.endswith("interface.svg") for line in rendered)


def test_waterwave_linear_frequency_fit_skips_off_grid_t_end(tmp_path):
    """The frequency fit uses only the samples every numerics.dt: a t_end
    off that grid adds a last sample at a shorter interval, which the fit
    leaves out (with it, the frequency here is off by 9%)."""
    out = tmp_path / "out"
    assert main(["run", os.path.join(CONFIG_DIR, "waterwave-linear.cfg"),
                 "--set", "numerics.t_end=2.4951", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["relative_error"] < 1e-7


def test_render_rewrites_fresh_plots_byte_identical(tmp_path):
    """The plots a run writes are the ones `render` draws from its files."""
    path = write_cfg(tmp_path, "\n".join([
        "scenario = muskat-linear",
        "grid.n = 64",
        "numerics.dt = 5e-3",
        "numerics.t_end = 0.1",
        "numerics.snapshot_cadence = 3",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 0
    plots = [tmp_path / "out" / f for f in ("interface.svg", "min_slope.svg", "sigma_min.svg")]
    first = [p.read_bytes() for p in plots]
    assert main(["render", str(tmp_path / "out")]) == 0
    assert [p.read_bytes() for p in plots] == first


def test_rt_verify_writes_every_cadence_th_step(tmp_path):
    """rt-verify thins its snapshots like every scenario: snap_i at the
    default cadence (10) is snap_{10 i} of a run that writes every step."""
    path = os.path.join(CONFIG_DIR, "rt-verify.cfg")
    every, thinned = tmp_path / "every", tmp_path / "thinned"
    assert main(["run", path, "--out", str(every), "--set", "grid.n=128",
                 "--set", "numerics.snapshot_cadence=1"]) == 0
    assert main(["run", path, "--out", str(thinned), "--set", "grid.n=128"]) == 0
    snaps = sorted(p.name for p in thinned.glob("snap_*.csv"))
    assert len(snaps) == 21 and len(list(every.glob("snap_*.csv"))) == 201
    for i, name in enumerate(snaps):
        assert (thinned / name).read_bytes() == (every / f"snap_{10 * i:05d}.csv").read_bytes()
    assert not (thinned / "rt_report.json").exists()


@pytest.mark.parametrize("sweeps, solve", [(2, "backward"), (6, "continuation")])
def test_cli_unconverged_breakdown_solve_exit_4(tmp_path, monkeypatch, capsys, sweeps, solve):
    """A breakdown run whose backward or continuation ck_solve returns
    unconverged after PICARD_MAX_ITER sweeps fails: exit 4, a report that
    does not pass, a message naming the solve and its sweeps, converged
    false in metrics.json, and no continuation.csv.  The bundled config
    converges in 6 (backward) and 7 (continuation) sweeps, so a cap of 2
    stops the backward solve and a cap of 6 the continuation."""
    monkeypatch.setattr(strip, "PICARD_MAX_ITER", sweeps)
    out = tmp_path / "out"
    assert main(["run", os.path.join(CONFIG_DIR, "muskat-breakdown.cfg"),
                 "--out", str(out)]) == 4
    assert f"{solve} solve did not converge in {sweeps} Picard sweeps" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["pass"] is False
    picard = json.loads((out / "metrics.json").read_text())["ck_solve"][solve]
    assert picard["converged"] is False and picard["sweeps"] == sweeps
    assert not (out / "continuation.csv").exists()


def test_cli_blowup_keeps_partial_trajectory_exit_3(tmp_path, monkeypatch):
    """A run that fails with BlowUpError exits 3, and its directory keeps the
    trajectory up to the failure: thinned snapshots, diagnostics.csv,
    events.json and metrics.json."""
    real_step = stepping.step_dp54
    starts = []

    def failing_step(state, h, k0=None):
        starts.append(state.t)
        if len(starts) == 3:
            raise stepping.BlowUpError("non-finite values", state=state)
        return real_step(state, h, k0)

    monkeypatch.setattr(stepping, "step_dp54", failing_step)
    path = write_cfg(tmp_path, "\n".join([
        "scenario = muskat-linear",
        "grid.n = 64",
        "numerics.dt = 5e-3",
        "numerics.t_end = 0.5",
        "numerics.snapshot_cadence = 3",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 3
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["error"].startswith("BlowUpError") and report["pass"] is False
    t = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)["t"]
    # the initial state and every sample up to the last accepted step
    assert t.size == int(starts[-1] / 5e-3 + 1e-9) + 1 and t.size > 7
    assert t == pytest.approx(5e-3 * np.arange(t.size), abs=1e-15)
    kept = sorted(set(range(0, t.size, 3)) | {t.size - 1})
    snaps = sorted(out.glob("snap_*.csv"))
    assert [load_csv(p)[1] for p in snaps] == list(t[kept])
    assert json.loads((out / "events.json").read_text()) == []
    metrics = json.loads((out / "metrics.json").read_text())["run"]
    assert metrics["accepted_steps"] + metrics["rejected_steps"] == 2
    assert metrics["samples"] == t.size
    assert (out / "interface.svg").exists()


def test_cli_nan_rhs_exits_3_below_step_floor(tmp_path, monkeypatch):
    """An RHS that turns NaN drives the step below its floor: exit 3 with a
    BlowUpError report and the samples taken before, in bounded time."""
    real = stepping._rhs
    calls = []

    def nan_after_two_steps(*args):
        calls.append(1)
        assert len(calls) < 200, "the controller does not give up"
        zt, wt = real(*args)
        return (zt * np.nan if len(calls) > 2 * stepping.STAGES else zt), wt

    monkeypatch.setattr(stepping, "_rhs", nan_after_two_steps)
    path = write_cfg(tmp_path, "\n".join([
        "scenario = muskat-linear",
        "grid.n = 64",
        "numerics.dt = 5e-3",
        "numerics.t_end = 0.5",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 3
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["error"].startswith("BlowUpError: step") and report["pass"] is False
    metrics = json.loads((out / "metrics.json").read_text())["run"]
    assert metrics["accepted_steps"] == 2 and metrics["rejected_steps"] > 0
    t = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)["t"]
    assert t.size == metrics["samples"] > 1


def test_metrics_repeat_and_count_seven_stage_steps(tmp_path, monkeypatch):
    """metrics.json holds the step counts of the forward run and of the
    backward `advance` of the water-wave datum.  It is byte-identical
    between runs, holds no timings, and its RHS counts are seven per trial
    step, less one for each retry of a rejected step, and add up to the
    RHS calls made."""
    real = stepping._rhs
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(stepping, "_rhs", counted)
    path = write_cfg(tmp_path, "\n".join([
        "scenario = waterwave-turning",
        "grid.n = 128",
        "turning.beta1 = 1.5",
        "wave.delta = 1e-3",
        "numerics.dt = 1e-5",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 0
    first = (tmp_path / "out" / "metrics.json").read_bytes()
    total = len(calls)
    assert main(["run", path]) == 0
    assert (tmp_path / "out" / "metrics.json").read_bytes() == first
    metrics = json.loads(first)
    assert sorted(metrics) == ["advance", "run"]
    for counts in metrics.values():
        assert sorted(counts) == ["accepted_steps", "rejected_steps",
                                  "rhs_evaluations", "samples"]
        assert counts["rhs_evaluations"] == stepping.STAGES * (
            counts["accepted_steps"] + counts["rejected_steps"]) - counts["rejected_steps"]
    assert metrics["advance"]["samples"] == 0
    assert metrics["run"]["samples"] == len(list(np.genfromtxt(
        tmp_path / "out" / "diagnostics.csv", delimiter=",", names=True)["t"]))
    assert total == sum(c["rhs_evaluations"] for c in metrics.values())


def test_open_run_metrics_count_reused_stages(tmp_path, monkeypatch):
    """On an open curve each trial step after the first reuses a stage of
    the one before, so metrics.json counts seven RHS evaluations for the
    first and six for each later one: the _rhs calls made."""
    real = stepping._rhs
    calls = []
    monkeypatch.setattr(stepping, "_rhs", lambda *args: calls.append(1) or real(*args))
    out = tmp_path / "out"
    assert main(["run", os.path.join(CONFIG_DIR, "muskat-turning.cfg"), "--out", str(out),
                 "--set", "grid.n=257"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert sorted(metrics) == ["run"]
    trials = metrics["run"]["accepted_steps"] + metrics["run"]["rejected_steps"]
    assert trials > 1
    assert len(calls) == metrics["run"]["rhs_evaluations"] == 1 + (stepping.STAGES - 1) * trials


def test_breakdown_metrics_record_both_picard_solves(tmp_path):
    """muskat-breakdown's metrics.json records the backward and the
    continuation ck_solve: nodes (N, then M), the panels each chose and
    their time-error estimate (within the tolerance), G evaluations,
    sweeps, convergence and the contraction history; it is byte-identical
    between runs."""
    out = tmp_path / "out"
    argv = ["run", os.path.join(CONFIG_DIR, "muskat-breakdown.cfg"), "--out", str(out),
            "--set", "grid.n=128", "--set", "strip.M=256"]
    assert main(argv) == 0
    first = (out / "metrics.json").read_bytes()
    assert main(argv) == 0
    assert (out / "metrics.json").read_bytes() == first
    metrics = json.loads(first)
    assert sorted(metrics) == ["ck_solve", "run"]
    picard = metrics["ck_solve"]
    assert sorted(picard) == ["backward", "continuation"]
    assert (picard["backward"]["n"], picard["backward"]["panels"]) == (128, 4)
    assert (picard["continuation"]["n"], picard["continuation"]["panels"]) == (256, 4)
    for solve in picard.values():
        assert sorted(solve) == ["contraction_history", "converged", "g_evaluations", "n",
                                 "panels", "sweeps", "time_error"]
        assert solve["converged"] is True
        assert 0.0 < solve["time_error"] <= PICARD_TOL
        # the first sweep reuses G(z0) at every node
        assert solve["g_evaluations"] == 1 + solve["panels"] * (solve["sweeps"] - 1)
        assert len(solve["contraction_history"]) == solve["sweeps"] > 1
        assert solve["contraction_history"][-1] < 1e-10


def test_breakdown_locates_rt_sign_change_between_nodes(tmp_path, monkeypatch):
    """The RT sign change is located on the continuation's dense output,
    strictly inside the pair of nodes that events.json names as its
    bracket, at the same time to 1e-11 whether the time grid starts at 4
    or at 16 intervals (a node-snapped time moves by a whole interval).
    continuation.csv lists every node to the horizon, and the curve at the
    located time is the last snapshot."""
    import turnwave.strip as strip_mod
    located = []
    for start in (4, 16):
        monkeypatch.setattr(strip_mod, "START_PANELS", start)
        out = tmp_path / f"start{start}"
        assert main(["run", os.path.join(CONFIG_DIR, "muskat-breakdown.cfg"),
                     "--out", str(out)]) == 0
        t_rt = json.loads((out / "report.json").read_text())["rt_sign_change_time"]
        (event,) = [e for e in json.loads((out / "events.json").read_text())
                    if e["kind"] == "RTSignChange"]
        t_a, t_b = event["payload"]["bracket"]
        rows = np.genfromtxt(out / "continuation.csv", delimiter=",", names=True)
        assert event["t"] == t_rt and t_a < t_rt < t_b
        assert list(rows["t"]).index(t_b) == list(rows["t"]).index(t_a) + 1
        assert rows.size == start + 1
        assert rows["t"][-1] - rows["t"][0] == pytest.approx(0.02, rel=1e-12)
        snaps = sorted(glob.glob(str(out / "snap_*.csv")))
        assert load_csv(snaps[-1])[1] == t_rt
        located.append(t_rt)
    assert abs(located[0] - located[1]) < 1e-11


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("config", ["muskat-linear.cfg", "waterwave-linear.cfg",
                                    "ck-compare.cfg", "rt-verify.cfg"])
def test_small_bundled_runs_write_strict_json(tmp_path, config):
    """Every events.json, report.json and metrics.json that the small
    bundled scenarios write parses as strict JSON: no NaN or Infinity."""
    out = tmp_path / "out"
    assert main(["run", os.path.join(CONFIG_DIR, config), "--out", str(out)]) == 0
    names = ["events.json", "report.json", "metrics.json"]
    written = [name for name in names if (out / name).exists()]
    assert "report.json" in written and "metrics.json" in written
    for name in written:
        json.loads((out / name).read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("config,assignments", [
    ("muskat-turning.cfg", ["grid.L=4"]),
    ("rt-verify.cfg", ["turning.beta1=3.2", "turning.beta2=4", "turning.beta3=5"]),
    ("ck-compare.cfg", ["strip.panels=32"]),
    ("ck-compare.cfg", ["strip.T=0"]),
    ("ck-compare.cfg", ["strip.r0=-1"]),
    ("muskat-turning.cfg", ["grid.n=512"]),
])
def test_cli_turning_datum_out_of_range_exit_2(tmp_path, capsys, config, assignments):
    """Values a bundled config's pipeline would reject or crash on are
    config errors: L must exceed beta3 on the open line, beta1 must lie in
    (0, pi) on the period, the strip needs a positive horizon and a
    positive width and chooses its own time grid (strip.panels is no
    longer a key), and the open candidate needs a node at alpha = 0 (odd
    N)."""
    sets = [arg for a in assignments for arg in ("--set", a)]
    out = tmp_path / "out"
    assert main(["run", os.path.join(CONFIG_DIR, config), "--out", str(out)] + sets) == 2
    err = capsys.readouterr().err
    assert assignments[0].split("=")[0] in err
    assert not out.exists()


def test_cli_waterwave_turning_stopped_before_delta_exit_4(tmp_path):
    """The round trip is read from the forward run at t = delta; a run that
    ends before then has no round trip and fails instead of skipping it."""
    path = write_cfg(tmp_path, "\n".join([
        "scenario = waterwave-turning",
        "grid.n = 128",
        "turning.beta1 = 1.5",
        "wave.delta = 1e-3",
        "numerics.dt = 1e-5",
        "numerics.t_end = 5e-4",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["round_trip_error"] is None
    assert report["pass"] is False


def test_cli_waterwave_turning_backward_run_misses_graph_exit_3(tmp_path):
    """A backward run by delta that does not reach a graph is a numerical
    failure: exit 3 with a report, not a traceback."""
    path = write_cfg(tmp_path, "\n".join([
        "scenario = waterwave-turning",
        "grid.n = 64",
        "turning.beta1 = 1.5",
        "wave.delta = 1e-3",
        "numerics.dt = 1e-5",
        f"output_dir = {tmp_path}/out",
    ]) + "\n")
    assert main(["run", path]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"].startswith("DeltaTooLargeError")
    assert report["pass"] is False


def test_cli_verify_missing_dir_exit_2(tmp_path):
    assert main(["verify", str(tmp_path / "missing")]) == 2
    assert main(["render", str(tmp_path / "missing")]) == 2


def test_render_curve_flat_single_polyline():
    a = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    doc = render_curve(a, a, np.zeros(64))
    assert doc.count("<polyline") == 1
    assert "viewBox" in doc and "timestamp" not in doc


def test_render_curve_negative_interval_overdraw():
    a = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    doc = render_curve(a, a - 1.2 * np.sin(a), np.cos(a),
                       negative_intervals=[(6.0, 0.3)])
    assert doc.count("<polyline") >= 2
    assert "#c1272d" in doc


def test_render_series_deterministic():
    t = np.linspace(0, 1, 50)
    v = np.sin(t)
    assert render_series(t, v, "x") == render_series(t, v, "x")


# Each bundled config, shrunk so that all of them run in a few seconds
# while every pipeline still reaches its numerical core.  Some of these
# small runs exit 3 or 4 (muskat-breakdown's handoff curve is not
# resolved on 64 nodes); the check is that SciPy changes no exit code.
SMALL_RUNS = {
    "ck-compare.cfg": ["grid.n=32"],
    "muskat-breakdown.cfg": ["grid.n=64", "strip.M=64", "numerics.t_end=0.02",
                             "numerics.dt=1e-3"],
    "muskat-linear.cfg": ["grid.n=32", "numerics.t_end=0.05", "numerics.dt=1e-2"],
    "muskat-turning.cfg": ["grid.n=129", "turning.tilt=0.01", "numerics.t_end=0.1",
                           "numerics.dt=1e-2"],
    "rt-verify.cfg": ["grid.n=32"],
    "waterwave-linear.cfg": ["grid.n=32", "numerics.t_end=0.5"],
    "waterwave-turning.cfg": ["grid.n=128", "numerics.t_end=2e-3", "numerics.dt=1e-4"],
}

# argv: block|allow OUT_DIR; prints the exit codes of SMALL_RUNS in order
# and whether scipy was imported
NO_SCIPY_CHILD = """
import json, os, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, BlockScipy())
from turnwave.cli import main
runs = json.loads(os.environ["SMALL_RUNS"])
codes = [main(["run", cfg, "--out", os.path.join(sys.argv[2], os.path.basename(cfg))]
              + [arg for kv in sets for arg in ("--set", kv)]) for cfg, sets in runs]
print(json.dumps({"codes": codes, "scipy_imported": "scipy" in sys.modules}))
"""


def test_bundled_configs_run_without_scipy(tmp_path):
    """Every bundled config, shrunk, exits the same way with SciPy blocked
    by an import hook as with SciPy importable, and neither run imports
    it."""
    assert sorted(SMALL_RUNS) == sorted(f for f in os.listdir(CONFIG_DIR)
                                        if f.endswith(".cfg"))
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", SMALL_RUNS=json.dumps(
        [[os.path.join(CONFIG_DIR, name), sets] for name, sets in SMALL_RUNS.items()]),
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    results = {}
    for mode in ("allow", "block"):
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, mode,
                               str(tmp_path / mode)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        results[mode] = json.loads(proc.stdout.splitlines()[-1])
        assert not results[mode]["scipy_imported"], mode
    assert results["block"]["codes"] == results["allow"]["codes"]


def run_config(config, out, sets=()):
    """The exit code of `turnwave run` on a bundled config into out."""
    return main(["run", os.path.join(CONFIG_DIR, config), "--out", str(out)]
                + [arg for kv in sets for arg in ("--set", kv)])


@pytest.mark.parametrize("config,sets,column", [
    ("muskat-linear.cfg", ["grid.n=64", "numerics.t_end=0.1"], "sup_F"),
    ("muskat-turning.cfg", SMALL_RUNS["muskat-turning.cfg"], "min_slope"),
    ("muskat-linear.cfg", ["grid.n=64", "numerics.t_end=0.1", "physics.rho1=2.0"],
     "sigma_min"),
    ("waterwave-turning.cfg", SMALL_RUNS["waterwave-turning.cfg"], "h4_norm"),
    ("waterwave-linear.cfg", SMALL_RUNS["waterwave-linear.cfg"], "mean_f"),
], ids=["sup_F", "min_slope", "sigma_min", "h4_norm", "mean_f"])
def test_verify_recomputes_diagnostics_from_the_snapshots(tmp_path, config, sets, column):
    """verify recomputes min_slope, sup_F, sigma_min, h4_norm and mean_f of
    every snapshot that has a diagnostics row, the initial open curve of
    muskat-turning and the water waves (with their amplitude) included,
    with the run's own constants (rho1 = 2 makes sigma negative).  One
    value of a column moved by one ulp fails that column's check alone,
    exit 4."""
    out = tmp_path / "out"
    assert run_config(config, out, sets) == 0
    checks = verify_trajectory(out).report["checks"]
    assert all(checks[f"{name}_recomputed"] is True for name in RECOMPUTED)
    diag = out / "diagnostics.csv"
    lines = diag.read_text().splitlines()
    fields = lines[1].split(",")
    index = lines[0].split(",").index(column)
    fields[index] = f"{np.nextafter(float(fields[index]), np.inf):.17g}"
    diag.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
    result = verify_trajectory(out)
    assert [k for k, ok in result.report["checks"].items() if not ok] == [
        f"{column}_recomputed"]
    assert result.exit_code == 4 and main(["verify", str(out)]) == 4


def test_small_runs_verify_every_recomputed_column(tmp_path):
    """Every shrunk bundled config whose run leaves a trajectory verifies
    with all five recomputed columns equal to its rows, on at least its
    initial snapshot.  ck-compare samples no trajectory and the small
    muskat-breakdown fails before its forward run: both directories hold
    none, and verify and render exit 2."""
    with_trajectory = []
    for config, sets in SMALL_RUNS.items():
        out = tmp_path / config
        run_config(config, out, sets)
        if not (out / "events.json").exists():
            assert main(["verify", str(out)]) == main(["render", str(out)]) == 2
            continue
        with_trajectory.append(config)
        result = verify_trajectory(out)
        assert result.exit_code == 0, (config, result.report)
        assert result.report["checked_snapshots"] >= 1
        assert all(result.report["checks"][f"{name}_recomputed"] for name in RECOMPUTED)
    assert sorted(with_trajectory) == sorted(set(SMALL_RUNS) - {
        "ck-compare.cfg", "muskat-breakdown.cfg"})


def test_bundled_runs_verify_every_snapshot_with_a_row(tmp_path):
    """Each bundled trajectory run at its own size verifies: every snapshot
    but muskat-breakdown's appended continuation curve (its time has no
    row) is recomputed, with all five columns equal to its row.  Every
    file a bundled run writes is one that a later run into its directory
    removes: a snapshot or a name in stepping.RUN_FILES."""
    for config in sorted(SMALL_RUNS):
        out = tmp_path / config
        assert run_config(config, out) == 0
        assert all(name in stepping.RUN_FILES or fnmatch.fnmatchcase(name, "snap_*.csv")
                   for name in os.listdir(out)), sorted(os.listdir(out))
        if config == "ck-compare.cfg":
            assert main(["verify", str(out)]) == 2
            continue
        result = verify_trajectory(out)
        snaps = len(glob.glob(str(out / "snap_*.csv")))
        assert result.exit_code == 0, (config, result.report)
        assert result.report["checked_snapshots"] == snaps - (config == "muskat-breakdown.cfg")


def test_failed_rerun_removes_the_earlier_trajectory(tmp_path):
    """A run that fails before it has a trajectory (exit 3: the certificate
    quadrature does not settle) into the directory of a finished run
    leaves none of that run's files but its own config.txt and
    report.json: no snapshots, diagnostics.csv, events.json, metrics.json
    or plots.  So verify and render exit 2 instead of passing on the stale
    files."""
    out = tmp_path / "out"
    assert run_config("muskat-turning.cfg", out) == 0
    assert main(["verify", str(out)]) == 0
    assert run_config("muskat-turning.cfg", out, ["turning.b=1000"]) == 3
    assert sorted(os.listdir(out)) == ["config.txt", "report.json"]
    assert main(["verify", str(out)]) == 2
    assert main(["render", str(out)]) == 2


def test_rerun_of_another_scenario_removes_the_files_only_it_wrote(tmp_path):
    """A muskat-turning run into the directory of a muskat-breakdown run
    leaves no continuation.csv and no snapshot past its own; a file that
    no run writes stays."""
    out = tmp_path / "out"
    assert run_config("muskat-breakdown.cfg", out) == 0
    (out / "notes.txt").write_text("kept\n")
    assert (out / "continuation.csv").exists()
    assert run_config("muskat-turning.cfg", out) == 0
    written = sorted(os.listdir(out))
    assert "continuation.csv" not in written and "notes.txt" in written
    assert main(["verify", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert run_config("muskat-turning.cfg", fresh) == 0
    assert sorted(os.listdir(fresh)) == [name for name in written if name != "notes.txt"]


def test_breakdown_runs_past_grid_768(tmp_path):
    """ck_solve bounds each iterate's strip norm by NORM_GROWTH times its
    datum's, so the breakdown grid refines past 768.  At grid.n = strip.M
    = 1024 the backward datum's own strip norm is about 2e17, roundoff in
    its top modes times the strip weights; the backward solve converges
    and the forward run turns.  Its continuation, handed a curve one sample
    past turnover, does not converge in PICARD_MAX_ITER sweeps, so the run
    fails with exit 4, not the exit 3 of a norm bound, and verify accepts
    the forward trajectory it keeps."""
    out = tmp_path / "out"
    assert run_config("muskat-breakdown.cfg", out, ["grid.n=1024", "strip.M=1024"]) == 4
    picard = json.loads((out / "metrics.json").read_text())["ck_solve"]
    assert picard["backward"]["converged"] and not picard["continuation"]["converged"]
    events = json.loads((out / "events.json").read_text())
    assert stepping.TURNING in [event["kind"] for event in events]
    assert main(["verify", str(out)]) == 0


def test_render_draws_with_the_constants_of_the_run(tmp_path):
    """render takes the physical constants from the run's config.txt: with
    rho1 = 2 > rho2 the sigma of the interface is negative, and the plot
    the run drew, with its red sigma < 0 overlay (a second polyline), is
    the one render draws."""
    out = tmp_path / "out"
    assert run_config("muskat-linear.cfg", out, ["physics.rho1=2.0"]) == 0
    drawn = (out / "interface.svg").read_text()
    assert drawn.count("<polyline") == 2
    assert main(["render", str(out)]) == 0
    assert (out / "interface.svg").read_text() == drawn


@pytest.mark.parametrize("line", ["numerics.norm_bound = 1e8", "physics.mu = -1"])
def test_verify_and_render_report_a_config_that_does_not_load(tmp_path, capsys, line):
    """A run directory comes from outside the program.  A config.txt with a
    key that turnwave no longer reads (numerics.norm_bound, which an older
    version wrote), or with a physics value PhysicalConstants rejects,
    makes verify and render exit 2 with a config error that names the
    file, as run does, not a traceback."""
    out = tmp_path / "out"
    assert run_config("muskat-linear.cfg", out, ["grid.n=64", "numerics.t_end=0.1"]) == 0
    config = out / "config.txt"
    with open(config, "a") as fh:
        fh.write(line + "\n")
    for command in ("verify", "render"):
        capsys.readouterr()
        assert main([command, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"turnwave: config error: {config}:"), err
        assert "Traceback" not in err


def test_rerun_into_a_directory_removes_stale_snapshots(tmp_path):
    """A shorter run into the directory of a longer one leaves only its own
    snapshots: verify passes and render draws its last curve, t = 0.5."""
    out = tmp_path / "out"
    config = os.path.join(CONFIG_DIR, "muskat-linear.cfg")
    assert main(["run", config, "--set", "numerics.t_end=0.6",
                 "--set", "numerics.snapshot_cadence=1", "--out", str(out)]) == 0
    assert len(glob.glob(str(out / "snap_*.csv"))) == 301
    assert main(["run", config, "--out", str(out)]) == 0
    snaps = sorted(os.path.basename(p) for p in glob.glob(str(out / "snap_*.csv")))
    assert snaps == [f"snap_{i:05d}.csv" for i in range(26)]
    assert main(["verify", str(out)]) == 0
    assert main(["render", str(out)]) == 0
    assert "interface t=0.5<" in (out / "interface.svg").read_text()


@pytest.mark.parametrize("assignment", ["turning.b=1000", "turning.cbar=-1e6",
                                        "turning.beta1=1e-6"])
def test_cli_certificate_quadrature_failure_exit_3(tmp_path, assignment):
    """A certificate quadrature whose panel sums do not settle is a
    numerical failure: exit 3 with a report that names the error and the
    gap it left, not a traceback."""
    out = tmp_path / "out"
    assert main(["run", os.path.join(CONFIG_DIR, "muskat-turning.cfg"), "--set", assignment,
                 "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"].startswith("QuadratureError: panel sums still differ by ")
    assert float(report["error"].split("differ by ")[1].split()[0]) > 0.0
    assert report["pass"] is False
