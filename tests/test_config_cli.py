"""Config parsing, CLI exit codes, artifact determinism, SVG rendering."""

import glob
import json
import os

import numpy as np
import pytest

from turnwave.cli import main
from turnwave.config import (ConfigError, ScenarioConfig, apply_assignment,
                             dump_config, load_config)
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
    """Every bundled config names only known keys, and its resolved dump
    loads back to the same configuration."""
    cfg = load_config(path)
    back = load_config(write_cfg(tmp_path, dump_config(cfg)))
    assert back == cfg


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "numerics.dT = 0.1\n")
    assert main(["run", path]) == 2
    assert "dT" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "grid.periodic = false",          # each scenario fixes its own topology
    "strip.shrink = exponential",     # the strip always shrinks linearly
    "strip.gamma = 2.0",
    "seed = 3",                       # nothing drew random numbers from it
    "turning.mollify_tau = 0.1",      # candidates are used unsmoothed
    "weights.literal_hbar = true",    # hbar uses sin^2(x/2), see diagnostics
    "numerics.filter_threshold = 0",  # the Krasny filter level is fixed
])
def test_cli_removed_keys_exit_2(tmp_path, assignment):
    """Keys that no longer choose anything are unknown, not silently
    ignored."""
    path = write_cfg(tmp_path, f"scenario = muskat-linear\n{assignment}\n"
                               f"output_dir = {tmp_path}/out\n")
    assert main(["run", path]) == 2


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
    for artifact in ("events.json", "diagnostics.csv", "report.json",
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
