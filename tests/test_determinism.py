"""Byte-for-byte determinism of the O(N^2) right-hand sides, of the
water-wave Birkhoff-Rott block, and of the turning certificate's
d_alpha v1(0), across BLAS thread counts."""

import os
import subprocess
import sys

import numpy as np
import pytest

import turnwave
from turnwave.initial_data import DV1_NODES

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
