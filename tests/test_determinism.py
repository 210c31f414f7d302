"""Byte-for-byte determinism of the O(N^2) right-hand sides, of the
water-wave Birkhoff-Rott block, and of the turning certificate's
d_alpha v1(0), across BLAS thread counts; and of a run directory across
the sizes of the sample stacks that stepping.run diagnoses and across
fresh interpreters."""

import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

import turnwave
from turnwave import stepping
from turnwave.config import load_config
from turnwave.initial_data import DV1_NODES
from turnwave.scenarios import run_scenario

ROOT = os.path.join(os.path.dirname(__file__), "..")

SIZES = {"muskat_rhs_periodic": 512, "muskat_rhs_open": 513, "waterwave_rhs": 256,
         "dv1_at_zero_periodic": DV1_NODES, "br_block": 256}
# float64 values each case writes: per node for a right-hand side, (z_t,
# omega_t) for the water waves; dv1 is one number at DV1_NODES nodes; the
# complex N/2 x N/2 Birkhoff-Rott block is two per entry
VALUES = {"muskat_rhs_periodic": 2 * 512, "muskat_rhs_open": 2 * 513,
          "waterwave_rhs": 3 * 256, "dv1_at_zero_periodic": 1, "br_block": 2 * 128 ** 2}

SCRIPT = f"""
import sys
import numpy as np
from turnwave.closures import PhysicalConstants, waterwave_rhs
from turnwave.curve import Curve, open_grid, periodic_grid
from turnwave.initial_data import (TurningParams, dv1_at_zero_periodic,
                                   turning_candidate_periodic)
from turnwave.singular import br_block, muskat_rhs_open, muskat_rhs_periodic

SIZES = {SIZES!r}

def turned_periodic(n):
    a = periodic_grid(n)
    return Curve("periodic", a, a - 1.2 * np.sin(a), 0.8 * np.sin(a))

a = open_grid(SIZES["muskat_rhs_open"], 10.0)
g = np.exp(-0.5 * a ** 2)
open_curve = Curve("open", a, a - 1.2 * a * g, 0.8 * a * g, L=10.0)
wave = turned_periodic(SIZES["waterwave_rhs"])
omega = np.sin(wave.alpha) + 0.3 * np.cos(2 * wave.alpha)
u, omega_t = waterwave_rhs(wave, omega, PhysicalConstants(rho1=0.0))
out = [muskat_rhs_periodic(turned_periodic(SIZES["muskat_rhs_periodic"]), 0.3),
       muskat_rhs_open(open_curve, 1.7),
       np.concatenate([u.ravel(), omega_t]),
       np.array([dv1_at_zero_periodic(
           turning_candidate_periodic(TurningParams(beta1=1.5, b=3.0), n=512), 0.3)]),
       br_block(turned_periodic(SIZES["br_block"]))]
sys.stdout.buffer.write(b"".join(np.ascontiguousarray(x).tobytes() for x in out))
"""


def rhs_bytes(threads: int) -> dict:
    """Raw bytes of each right-hand side, computed in a fresh interpreter
    with OpenBLAS limited to `threads` threads."""
    src = os.path.dirname(os.path.dirname(turnwave.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    raw = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, timeout=300).stdout
    lengths = [8 * VALUES[name] for name in SIZES]
    assert len(raw) == sum(lengths)
    cuts = np.cumsum([0] + lengths)
    return {name: raw[cuts[k]:cuts[k + 1]] for k, name in enumerate(SIZES)}


@pytest.fixture(scope="module")
def one_and_two_threads():
    return rhs_bytes(1), rhs_bytes(2)


@pytest.mark.parametrize("name", [
    "muskat_rhs_periodic",
    "muskat_rhs_open",
    pytest.param("waterwave_rhs", marks=pytest.mark.xfail(
        reason="the LU solve of the N/2 = 128 Schur complement takes "
               "OpenBLAS's threaded path and its last bits depend on the "
               "thread count (see README)")),
    "dv1_at_zero_periodic",
    "br_block",
])
def test_rhs_bytes_independent_of_blas_threads(one_and_two_threads, name):
    one, two = one_and_two_threads
    assert one[name] == two[name]


@pytest.mark.parametrize("config, n", [("muskat-turning", 129), ("waterwave-turning", 128)])
def test_run_directory_does_not_depend_on_the_stack_size(monkeypatch, tmp_path, config, n):
    """A run writes the same files, byte for byte (snapshots, diagnostics,
    events, reports and plots), whether stepping.run diagnoses one sample
    per stack or STACK_NODES // N at once, and stops at the same sample.
    Both runs write into one output directory, whose path config.txt
    records, and are hashed as scripts/run_all_scenarios.py hashes a run.
    The open run takes grid.L = 8, on which 129 nodes turn (at L = 15 they
    do not before t_end)."""
    hash_dir = runpy.run_path(os.path.join(ROOT, "scripts", "run_all_scenarios.py"))["hash_dir"]
    cfg = load_config(os.path.join(ROOT, "configs", f"{config}.cfg"))
    cfg.grid.n, cfg.output_dir = n, str(tmp_path)
    if config == "muskat-turning":
        cfg.grid.L = 8.0
    hashes = []
    for nodes in (n, stepping.STACK_NODES):
        monkeypatch.setattr(stepping, "STACK_NODES", nodes)
        assert run_scenario(cfg).exit_code == 0
        hashes.append(hash_dir(tmp_path))
    assert hashes[0] == hashes[1]


FRESH_RUN = """
import sys
from turnwave.config import load_config
from turnwave.scenarios import run_scenario
config, out = sys.argv[1:]
cfg = load_config(config)
cfg.output_dir = out
sys.exit(run_scenario(cfg).exit_code)
"""


@pytest.mark.parametrize("config", ["waterwave-turning", "muskat-breakdown"])
def test_run_directory_is_the_same_in_fresh_interpreters(tmp_path, config):
    """A bundled run writes the same files, byte for byte, in two fresh
    interpreters at one BLAS thread: nothing a run leaves in a process
    (a scratch pool, a cache) reaches the files of the next.  Both runs
    write into one output directory, hashed as
    scripts/run_all_scenarios.py hashes a run."""
    hash_dir = runpy.run_path(os.path.join(ROOT, "scripts", "run_all_scenarios.py"))["hash_dir"]
    src = os.path.dirname(os.path.dirname(turnwave.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    hashes = []
    for _ in range(2):
        subprocess.run([sys.executable, "-c", FRESH_RUN,
                        os.path.join(ROOT, "configs", f"{config}.cfg"), str(tmp_path)],
                       env=env, check=True, timeout=300)
        hashes.append(hash_dir(tmp_path))
    assert hashes[0] == hashes[1]
