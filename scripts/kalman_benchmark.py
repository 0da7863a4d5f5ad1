#!/usr/bin/env python3
"""Compare the particle posterior mean against the Kalman-Bucy recursion.

The linear-Gaussian family is the one scenario with a closed-form posterior;
this script runs a batch of independent replicas and reports, per replica,
the time-averaged absolute gap between the cloud mean and the Kalman mean
and the fraction of nodes where the Kalman mean lies inside the cloud's
3-standard-error band. As in acceptance criterion 1, the standard error at
a node is the posterior standard deviation over the square root of the
cloud's effective sample size there.

Usage: python3 scripts/kalman_benchmark.py [--replicas 10] [--n-particles 10000]
"""

import argparse
import time

import numpy as np

from levyfilter import (build_family, derive_seed, kalman_bucy,
                        project_observation, simulate_path, zakai_filter)
from levyfilter.simulate import TimeGrid
from levyfilter.testfuncs import make_test_function


def run_replica(scen, n_steps, n_particles, seed):
    spec = scen.spec
    grid = TimeGrid(0.0, spec.T, n_steps)
    rec = simulate_path(spec, grid, scen.prior_sampler, scen.y0, seed)
    obs = project_observation(rec)
    funcs = (make_test_function("coord:0", spec.n),
             make_test_function("quad", spec.n))
    traj = zakai_filter(spec, obs, n_particles, scen.prior_sampler,
                        derive_seed(seed, "filter"), test_functions=funcs)
    kal = kalman_bucy(scen.linear, obs.t, obs.Y)

    mean = traj.summaries["coord:0"].pi_F
    second = traj.summaries["quad"].pi_F
    var = np.maximum(second - mean ** 2, 0.0)
    se = np.sqrt(var / np.maximum(traj.ess, 1.0))
    gap = np.abs(mean - kal.mean[:, 0])
    covered = np.mean(gap <= 3.0 * se)
    return float(np.mean(gap)), float(covered)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicas", type=int, default=10)
    ap.add_argument("--n-steps", type=int, default=1000)
    ap.add_argument("--n-particles", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=2026)
    args = ap.parse_args()

    scen = build_family("linear_gaussian")
    gaps, covers = [], []
    for r in range(args.replicas):
        t0 = time.time()
        gap, covered = run_replica(scen, args.n_steps, args.n_particles,
                                   derive_seed(args.seed, "replica", r))
        gaps.append(gap)
        covers.append(covered)
        print(f"replica {r:3d}: time-avg gap {gap:.5f}  "
              f"3SE coverage {covered:6.1%}  ({time.time() - t0:.1f}s)")
    print(f"\nmean gap {np.mean(gaps):.5f}  worst gap {np.max(gaps):.5f}  "
          f"min coverage {np.min(covers):.1%}")


if __name__ == "__main__":
    main()
