"""turnwave benchmark runner.

    python3 turnbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 turnbench/run.py --all [--sets K] [--seed N] [--seconds S] [--trace 0|1]
    python3 turnbench/run.py --collect OUT.json

Run from the repository root.  Every scenario run happens in a fresh child
interpreter (turnbench/child.py), one child at a time, with BLAS pinned to
one thread.  The child receives only the generated config files and calls
`turnwave.scenarios.run_scenario` on each.

--trace 0 runs a warm-up child, SETUP_CHILDREN set-up-only children, then
whole scenario runs until the next one would pass --seconds (at least
MIN_RUNS), and reports the medians of the end-to-end metrics:

  run_s        wall seconds from pipeline entry to the last return of
               run_scenario, artifact writing included
  cpu_s        user+sys CPU seconds of the child up to that point
  run_ref_s,   run_s and cpu_s at a fixed host speed: scaled by
  cpu_ref_s    REF_PROBE_S / the median of the child's speed probe
  setup_s      seconds from spawning a child to pipeline entry
               (interpreter start, imports, config load)
  peak_rss_mb  the child's maximum resident set size

Only the *_ref_s forms, setup_s and peak_rss_mb go into the final JSON
line: on a host shared with other virtual machines, run_s and cpu_s of
identical code can differ by a quarter from one run to the next.

--trace 1 runs one untraced and TRACED_RUNS traced scenario runs,
whatever --seconds says, and reports the per-layer metrics from the
traced runs (see tracer.py); their counts must agree, and the self
times under run_scenario must add up to its span.  trace_overhead is
traced over untraced run_ref_s; unlisted_self_s is the run_scenario time
that no listed self_s covers.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  Details of every run, including the
generated configs and the machine, go to .turnbench/results/.

--all runs every workload listed in BENCHMARK.json for --sets sets,
alternating the workload order between sets, and prints every metric
with its median, percentile and sample count.  --collect reduces the
stored result files to medians, quartiles and spreads per workload.
small-grid is defined but not listed in BENCHMARK.json, because a full
comparison of two commits (22 runs per listed workload) must fit in an
hour; run it with --workload small-grid.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, headline_misses

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".turnbench"
SETUP_CHILDREN = 5
MIN_RUNS = 2
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 170
# scenarios that write no trajectory, so `turnwave verify` does not apply
NO_TRAJECTORY = ("ck-compare",)

# a fixed host speed: the probe loop takes REF_PROBE_S of thread CPU time
REF_PROBE_S = 1e-3
END_TO_END = (("run_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# printed and stored, but too dependent on the host's speed to gate on
RAW = (("run_s", "s"), ("cpu_s", "s"))

# (function, quantities); "via_<module>" rows split a function by the
# module whose import binding was called
LAYER_ROWS = (
    ("singular.muskat_rhs_open", ("calls", "self_s", "pairs_per_s")),
    ("singular.muskat_rhs_periodic", ("calls", "self_s", "pairs_per_s")),
    ("singular.muskat_rhs_periodic.via_stepping", ("calls", "self_s", "pairs_per_s")),
    ("singular.muskat_rhs_periodic.via_strip", ("calls", "self_s", "pairs_per_s")),
    ("singular.br_matrix", ("calls", "self_s", "pairs_per_s")),
    ("singular.br_geometric_rate", ("calls", "self_s", "pairs_per_s")),
    ("closures.waterwave_amplitude_rhs", ("calls", "self_s")),
    ("curve.arc_chord", ("calls", "self_s", "calls_per_step")),
    ("curve.derivative", ("calls", "self_s")),
    ("spectral.fourier_derivative", ("calls", "self_s")),
    ("spectral.apply_krasny", ("calls", "self_s")),
    ("strip.ck_solve", ("calls", "busy_s", "self_s", "iterations", "rhs_per_sweep")),
    ("strip.extend_to_strip", ("calls", "self_s")),
    ("initial_data.waterwave_datum", ("busy_s",)),
    ("initial_data.turning_certificate", ("busy_s",)),
    ("diagnostics.sigma_muskat", ("calls", "self_s")),
    ("diagnostics.sigma10", ("calls", "self_s")),
    ("diagnostics.verify_weighted_rt", ("calls", "self_s")),
    ("stepping.step_rk4", ("calls", "self_s")),
    ("stepping.run", ("busy_s",)),
    ("stepping.advance", ("busy_s",)),
    ("stepping.Trajectory.write_dir", ("self_s",)),
    ("curve.save_csv", ("calls", "self_s")),
    ("svg.render_series", ("self_s",)),
    ("svg.render_curve", ("self_s",)),
    ("config.load_config", ("busy_s",)),
    ("scenarios.run_scenario", ("busy_s",)),
    ("scenarios", ("unlisted_self_s", "artifact_bytes", "trace_overhead")),
)
LAYER_UNITS = {"calls": "count", "iterations": "count", "self_s": "s", "busy_s": "s",
               "pairs_per_s": "1/s", "calls_per_step": "ratio",
               "rhs_per_sweep": "ratio", "unlisted_self_s": "s", "artifact_bytes": "bytes",
               "trace_overhead": "ratio"}


# --- children ----------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _spawn(workdir, configs, extra=()):
    """Run one child; returns (exit code, wall s, set-up s, result or None, log)."""
    result_path = workdir / "result.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), *extra, *configs]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        code, log = proc.returncode, (proc.stdout + proc.stderr)[-2000:]
    except subprocess.TimeoutExpired:
        code, log = -1, f"child exceeded {CHILD_TIMEOUT_S} s and was killed"
    wall = time.monotonic() - start
    result = None
    if result_path.exists():
        with open(result_path) as fh:
            result = json.load(fh)
    setup = result["entry"] - start if result else None
    return code, wall, setup, result, log


def _parse_config_dump(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            try:
                values[key.strip()] = float(value)
            except ValueError:
                values[key.strip()] = value.strip()
    return values


def _check(code, result, log, seed, workdir):
    """Problems with one scenario run; an empty list means it passed."""
    if result is None or "scenarios" not in result:
        return [f"child exit {code}, no result: {log.strip()[-300:]}"]
    problems = [] if code == 0 else [f"child exit code {code}"]
    for sc in result["scenarios"]:
        name = sc["scenario"]
        if sc["exit_code"] != 0:
            problems.append(f"{name}: exit code {sc['exit_code']}")
        if not (sc["report"] or {}).get("pass"):
            problems.append(f"{name}: report does not pass")
        if name not in NO_TRAJECTORY and sc["verify_exit_code"] != 0:
            problems.append(f"{name}: turnwave verify exit {sc['verify_exit_code']}")
        dump = workdir / sc["output_dir"] / "config.txt"
        if not dump.exists():
            problems.append(f"{name}: no config.txt")
        elif sc["report"]:
            problems += headline_misses(name, sc["report"], _parse_config_dump(dump), seed)
    return problems


def _counts(trace):
    return {name: (f["calls"], f["pairs"], f["iterations"])
            for name, f in trace["functions"].items()}


# --- one benchmark run -------------------------------------------------------

def _machine():
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    sources = sorted(glob.glob(str(ROOT / "src" / "turnwave" / "*.py")))
    digest = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    info["source_sha256"] = digest.hexdigest()
    info["git_sha"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        info["git_sha"] = proc.stdout.strip() or None
    return info


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _prepare(workload, seed):
    workdir = WORK / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    texts = {}
    for name in workload.configs:
        bundled = (ROOT / "configs" / f"{name}.cfg").read_text()
        texts[name] = config_text(bundled, name, workload.jitter.get(name, {}), seed)
        (workdir / f"{name}.cfg").write_text(texts[name])
    return workdir, [f"{name}.cfg" for name in workload.configs], texts


def _scenario_run(workdir, configs, seed, trace_file=None):
    shutil.rmtree(workdir / "out", ignore_errors=True)
    extra = ("--trace", str(trace_file)) if trace_file else ()
    code, wall, setup, result, log = _spawn(workdir, configs, extra)
    sample = {"wall_s": wall, "setup_s": setup,
              "problems": _check(code, result, log, seed, workdir)}
    if result and "scenarios" in result:
        for key in ("run_s", "cpu_s", "peak_rss_mb", "threads", "trace"):
            sample[key] = result.get(key)
        probe = statistics.median(result["probe_s"]) if result["probe_s"] else None
        sample["probe_median_s"] = probe
        if probe:
            sample["run_ref_s"] = result["run_s"] * REF_PROBE_S / probe
            sample["cpu_ref_s"] = result["cpu_s"] * REF_PROBE_S / probe
        else:
            sample["problems"].append("no speed probe samples")
        sample["artifacts"] = {sc["scenario"]: [sc["sha256"], sc["bytes"]]
                               for sc in result["scenarios"]}
        sample["headlines"] = {sc["scenario"]: {k: v for k, v in (sc["report"] or {}).items()
                                                if isinstance(v, (int, float))}
                               for sc in result["scenarios"]}
    return sample


def _determinism(samples):
    """Fail every run whose artifact hashes differ from the first run's."""
    ref = next((s["artifacts"] for s in samples if "artifacts" in s), None)
    for s in samples:
        if "artifacts" in s and s["artifacts"] != ref:
            s["problems"].append("artifacts differ from the first run of this seed")


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    workdir, configs, texts = _prepare(workload, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": _machine(), "loadavg_before": _loadavg(), "configs": texts}
    setups, samples = [], []
    if trace:
        samples.append(_scenario_run(workdir, configs, seed))
        for i in range(TRACED_RUNS):
            samples.append(_scenario_run(workdir, configs, seed,
                                         trace_file=workdir / f"spans{i}.json"))
    else:
        _spawn(workdir, configs, ("--setup-only",))          # warm-up
        for _ in range(SETUP_CHILDREN):
            code, _, setup, result, log = _spawn(workdir, configs, ("--setup-only",))
            if code != 0 or result is None:
                raise RuntimeError(f"set-up child failed: {log.strip()[-300:]}")
            setups.append(setup)
            record["environment"] = result["env"]
        start = time.monotonic()
        while True:
            samples.append(_scenario_run(workdir, configs, seed))
            elapsed = time.monotonic() - start
            if len(samples) >= MIN_RUNS and elapsed + elapsed / len(samples) > seconds:
                break
    _determinism(samples)
    record["loadavg_after"] = _loadavg()
    record["samples"] = samples
    record["attempted"] = len(samples)
    record["failed"] = sum(1 for s in samples if s["problems"])
    good = [s for s in samples if not s["problems"]]

    if trace:
        traced = [s for s in samples[1:] if s.get("trace")]
        if len(traced) == TRACED_RUNS and any(_counts(s["trace"]) != _counts(traced[0]["trace"])
                                              for s in traced):
            for s in traced:
                s["problems"].append("counts differ between traced runs")
        for s in traced:
            tr = s["trace"]
            if not math.isclose(tr["root_self_sum_s"], tr["root_busy_s"],
                                rel_tol=1e-9, abs_tol=1e-9):
                s["problems"].append("self times do not add up to run_scenario time")
        record["failed"] = sum(1 for s in samples if s["problems"])
        metrics = layer_metrics(samples[0], traced) if len(traced) == TRACED_RUNS else {}
    else:
        setups += [s["setup_s"] for s in samples if s["setup_s"] is not None]
        metrics = {}
        if good:
            for metric, unit in END_TO_END:
                values = setups if metric == "setup_s" else [s[metric] for s in good]
                metrics[metric] = {"value": statistics.median(values), "unit": unit}
        record["setup_samples"] = setups
    record["metrics"] = metrics
    record["correct"] = record["failed"] == 0 and bool(metrics)
    return record


def layer_metrics(untraced, traced):
    """Per-layer metrics: counts from the first traced run, times averaged
    over the traced runs."""
    def quantity(tr, row, q):
        name, _, via = row.partition(".via_")
        f = tr["functions"].get(name)
        if f is None:
            return 0
        if via:
            f = f["via"].get(via, {"calls": 0, "self_s": 0.0, "pairs": 0})
        if q == "pairs_per_s":
            return f["pairs"] / f["self_s"] if f["self_s"] > 0 else 0.0
        if q == "calls_per_step":
            steps = tr["functions"].get("stepping.step_rk4", {}).get("calls", 0)
            return f["calls"] / steps if steps else 0.0
        if q == "rhs_per_sweep":
            return tr["inner_under_outer"] / f["iterations"] if f["iterations"] else 0.0
        return f[q]

    metrics = {}
    for row, quantities in LAYER_ROWS:
        for q in quantities:
            if q == "artifact_bytes":
                value = sum(b for _, b in traced[0]["artifacts"].values())
            elif q == "unlisted_self_s":
                # run_scenario time that no listed self_s covers
                listed = [r for r, qs in LAYER_ROWS if "self_s" in qs and ".via_" not in r]
                value = statistics.mean(
                    s["trace"]["root_busy_s"] - sum(quantity(s["trace"], r, "self_s")
                                                    for r in listed)
                    for s in traced)
            elif q == "trace_overhead":
                value = (statistics.mean(s["run_ref_s"] for s in traced)
                         / untraced["run_ref_s"] if untraced.get("run_ref_s") else 0.0)
            elif q in ("calls", "iterations"):
                value = quantity(traced[0]["trace"], row, q)
            else:
                value = statistics.mean(quantity(s["trace"], row, q) for s in traced)
            metrics[f"{row}.{q}"] = {"value": value, "unit": LAYER_UNITS[q]}
    return metrics


# --- reporting ---------------------------------------------------------------

def percentile_line(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p} {values[max(0, math.ceil(p / 100 * n) - 1)]:.6g}"
            break
    return text + f" (n={n})"


def print_record(record):
    name = record["workload"]
    print(f"# {name} seed {record['seed']}: {record['attempted']} run(s), "
          f"{record['failed']} failed, fail_ratio "
          f"{record['failed'] / record['attempted']:.3g}")
    for s in record["samples"]:
        for problem in s["problems"]:
            print(f"#   FAILED: {problem}")
    hashes = {json.dumps(s["artifacts"], sort_keys=True)
              for s in record["samples"] if "artifacts" in s}
    print(f"# {name} determinism: {len(hashes)} distinct artifact hash set(s) "
          f"over {record['attempted']} run(s) of one seed")
    if not record["trace"]:
        for metric, unit in END_TO_END + RAW:
            values = (record["setup_samples"] if metric == "setup_s" else
                      [s[metric] for s in record["samples"] if not s["problems"]])
            if values:
                print(f"# {name} {metric} [{unit}]: {percentile_line(values)}")


def save_record(record):
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{record['workload']}.seed{record['seed']}.trace{record['trace']}."
                  f"{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def benchmark_workloads():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run_all(names, sets, seed, seconds, trace):
    records = {name: [] for name in names}
    for k in range(sets):
        for name in (names if k % 2 == 0 else names[::-1]):
            record = run_workload(name, seed, seconds, trace)
            save_record(record)
            print_record(record)
            records[name].append(record)
    print("# summary over all sets")
    for name in names:
        samples = [s for r in records[name] for s in r["samples"]]
        _determinism(samples)
        failed = sum(1 for s in samples if s["problems"])
        print(f"{name} fail_ratio [ratio]: {failed / len(samples):.6g} "
              f"({failed} of {len(samples)})")
        if trace:
            for metric, value in records[name][0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in records[name]
                          if r["metrics"]]
                print(f"{name} {metric} [{value['unit']}]: {percentile_line(values)}")
            continue
        good = [s for s in samples if not s["problems"]]
        for metric, unit in END_TO_END + RAW:
            values = ([v for r in records[name] for v in r["setup_samples"]]
                      if metric == "setup_s" else [s[metric] for s in good])
            if values:
                print(f"{name} {metric} [{unit}]: {percentile_line(values)}")
    return all(r["correct"] and not any(s["problems"] for s in r["samples"])
               for rs in records.values() for r in rs)


def _run_values(record):
    """A run's reported metrics, plus the medians of its raw run_s and cpu_s."""
    values = {m: (v["value"], v["unit"]) for m, v in record["metrics"].items()}
    good = [s for s in record["samples"] if not s["problems"]]
    if not record["trace"] and good:
        for metric, unit in RAW:
            values[metric] = (statistics.median(s[metric] for s in good), unit)
    return values


def collect(out_path):
    """Medians, quartiles and spreads (IQR / median) of each run's metrics,
    per workload and trace mode, over every stored result file."""
    groups = {}
    for path in sorted(glob.glob(str(WORK / "results" / "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    summary = {}
    for (name, trace), records in sorted(groups.items()):
        entry = {"runs": len(records), "seeds": sorted({r["seed"] for r in records}),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "machine": records[0]["machine"],
                 "environment": next((r["environment"] for r in records
                                      if "environment" in r), None),
                 "loadavg": [r["loadavg_before"] for r in records],
                 "metrics": {}}
        runs = [_run_values(r) for r in records]
        for metric, (_, unit) in runs[0].items():
            values = [run[metric][0] for run in runs if metric in run]
            med = statistics.median(values)
            stats = {"unit": unit, "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            stats["values"] = values
            entry["metrics"][metric] = stats
            if not trace or metric.endswith((".calls", ".iterations", "artifact_bytes")):
                spread = stats.get("spread")
                print(f"{name} trace={trace} {metric}: median {med:.6g} "
                      f"spread {spread if spread is None else round(spread, 4)} "
                      f"(runs={len(values)})")
        summary[f"{name}/trace{trace}"] = entry
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--collect", metavar="OUT", default=None)
    args = parser.parse_args(argv)

    if args.collect:
        collect(args.collect)
        return 0
    if not (ROOT / "src" / "turnwave" / "scenarios.py").exists() or \
            not (ROOT / "configs").is_dir():
        print(f"turnbench: no turnwave source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.all:
        ok = run_all(benchmark_workloads(), args.sets, args.seed, args.seconds, args.trace)
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload, --all or --collect is required")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    path = save_record(record)
    print_record(record)
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
