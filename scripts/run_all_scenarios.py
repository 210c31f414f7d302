#!/usr/bin/env python3
"""Run every bundled scenario config and summarize exit codes.

Usage: python scripts/run_all_scenarios.py [--out DIR]

Each summary line ends with the sha256 of the run directory, over every
file name and its bytes as turnbench/child.py hashes them: two checkouts
wrote the same artifacts when their lines carry the same hashes.  Each
run directory's config.txt records its output_dir, so the hashes of two
checkouts compare only when both are run with the same --out.  Before
the hash comes the exit code of `turnwave verify` on the directory,
verify=<code>, for a directory that holds a trajectory (events.json), as
turnbench/child.py checks it after each run; verify=- for one without.
The script exits with the largest exit code of a run or a verify.  Each
line also gives the run's wall and CPU seconds, the minor page faults it
took (getrusage of this process around run_scenario) and the wall
seconds of its writer, scenarios._finish (snapshots, diagnostics,
reports and plots); they go to stdout only, never into a run directory.
"""

import argparse
import hashlib
import os
import resource
import sys
import time

from turnwave import scenarios
from turnwave.config import load_config
from turnwave.scenarios import run_scenario, verify_trajectory

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def hash_dir(path):
    """sha256 over the sorted file names of path, each followed by a NUL
    byte and the file's bytes."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def timed(fn, seconds):
    """fn, adding the wall seconds of each call to seconds[0]."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[0] += time.perf_counter() - t0
    return wrapper


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="parent output directory")
    args = ap.parse_args()
    finish_s = [0.0]
    scenarios._finish = timed(scenarios._finish, finish_s)

    worst = 0
    for name in sorted(os.listdir(CONFIG_DIR)):
        if not name.endswith(".cfg"):
            continue
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        cfg.output_dir = os.path.join(args.out, name[:-4])
        finish_s[0] = 0.0
        t0, r0 = time.time(), resource.getrusage(resource.RUSAGE_SELF)
        result = run_scenario(cfg)
        wall, r1 = time.time() - t0, resource.getrusage(resource.RUSAGE_SELF)
        cpu = r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime
        verify = None
        if os.path.exists(os.path.join(cfg.output_dir, "events.json")):
            verify = verify_trajectory(cfg.output_dir).exit_code
        print(f"{name:28s} exit={result.exit_code} "
              f"({wall:5.1f}s, cpu {cpu:5.2f}s, "
              f"{r1.ru_minflt - r0.ru_minflt} minor faults, "
              f"finish {finish_s[0]:.4f}s)  {result.message}  "
              f"verify={'-' if verify is None else verify}  "
              f"sha256={hash_dir(cfg.output_dir)}")
        worst = max(worst, result.exit_code, verify or 0)
    return worst


if __name__ == "__main__":
    sys.exit(main())
