#!/usr/bin/env python3
"""Mesh-convergence study for the open-interface turning time t*.

Runs the tilted turning candidate on a sequence of grids and prints the
observed Turning time per resolution.

Usage: python scripts/mesh_convergence_turning.py [--tilt T] [--sizes N ...]
"""

import argparse

import numpy as np

from turnwave.initial_data import TurningParams, turning_candidate_open
from turnwave.stepping import TURNING, SimState, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tilt", type=float, default=0.05)
    ap.add_argument("--dt", type=float, default=1e-3,
                    help="sampling interval, also the first trial step")
    ap.add_argument("--t-end", type=float, default=0.5)
    ap.add_argument("--sizes", type=int, nargs="+", default=[257, 513, 1025])
    args = ap.parse_args()

    params = TurningParams(beta1=1.0, b=3.0)
    previous = None
    for n in args.sizes:
        curve = turning_candidate_open(params, n=n, L=15.0, tilt=args.tilt)
        traj, _ = run(SimState(curve), args.t_end, args.dt, stop_on=(TURNING,))
        event = traj.events.first(TURNING)
        t_star = event.t if event else np.nan
        shift = "" if previous is None else \
            f"  shift vs previous {abs(t_star - previous) / t_star:.2e}"
        print(f"N = {n:5d}  t* = {t_star:.6f}{shift}")
        previous = t_star


if __name__ == "__main__":
    main()
