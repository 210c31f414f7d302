"""One benchmark child: import turnwave, load the generated configs, run
them back to back through `run_scenario`, then check and hash the output.

    python3 child.py RESULT.json [--setup-only] [--trace SPANS.json] CONFIG...

The parent sets the BLAS thread variables and PYTHONPATH before this
interpreter starts.  Times are CLOCK_MONOTONIC readings, which the parent
compares with its own spawn time to get the set-up time.  Only the
scenario runs are timed; verification and hashing come after.

The host this runs on slows down by up to half for stretches of seconds
to minutes, whatever the program does.  So the child pins itself to one
CPU and, while the scenarios run, a SpeedProbe thread on that CPU times a
fixed pure-Python loop every PROBE_PERIOD_S.  The parent divides the run
time by the probe's median to get a run time at a fixed host speed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time

PROBE_PERIOD_S = 0.1
PROBE_ITERATIONS = 20000     # about 1 ms of CPU at full host speed


def _threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class SpeedProbe:
    """Thread CPU seconds of a fixed loop, sampled every PROBE_PERIOD_S."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i * i
            self.samples.append(time.thread_time() - start)

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.samples


def _hash_dir(path):
    """sha256 over every file name and its bytes, and the total bytes."""
    digest, total = hashlib.sha256(), 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        total += len(data)
    return digest.hexdigest(), total


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("configs", nargs="+")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from turnwave import cli
    from turnwave.config import load_config
    from turnwave.scenarios import run_scenario

    cfgs = [load_config(path) for path in args.configs]
    entry = time.monotonic()
    result = {"entry": entry}
    if args.setup_only:
        result["env"] = _environment()
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    probe = SpeedProbe()
    codes = [run_scenario(cfg).exit_code for cfg in cfgs]
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    threads = _threads()
    result.update(run_s=done - entry, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, threads=threads - 1,
                  probe_s=probe.stop())

    scenarios = []
    for cfg, code in zip(cfgs, codes):
        out = cfg.output_dir
        report_path = os.path.join(out, "report.json")
        report = None
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        verify = None
        if os.path.exists(os.path.join(out, "events.json")):
            verify = cli.main(["verify", out])
        sha, size = _hash_dir(out) if os.path.isdir(out) else (None, 0)
        scenarios.append({"scenario": cfg.scenario, "output_dir": out,
                          "exit_code": code, "verify_exit_code": verify,
                          "report": report, "sha256": sha, "bytes": size})
    result["scenarios"] = scenarios
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
