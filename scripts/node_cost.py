#!/usr/bin/env python3
"""Fixed and per-particle cost of one node of the particle filter.

The script simulates one observation record of a config's model (by default
the benchmark's dense-jump workload `perfbench/workloads/jumps.cfg`, read
only: `mixed` with rate2 = 60, T = 2, r = 0.5 on 400 base steps) at a fixed
seed, and runs `zakai_filter` on it with the test functions coord:0 and quad
at N = 200, 2,000 and 20,000 particles, taking the best of --repeats runs at
each size. A least-squares line through the per-node times gives the fixed
cost of a node (us) and its cost per particle (ns per particle-node). At
each size it also prints the best per-step time of `add_signal_jumps`, the
signal-jump draw of each continuous step, over the base grid on a cloud
drawn from the prior. It then prints the best per-step time of
`simulate_path` on the base grid and of `reconstruct_reference_drivers` on
the record, the two other layers a replica steps through. BLAS runs on one
thread unless the environment says otherwise.

Usage: python3 scripts/node_cost.py [--config PATH] [--seed N] [--repeats 5]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from levyfilter import (build_family, derive_seed, project_observation,  # noqa: E402
                        simulate_path, zakai_filter)
from levyfilter.config import parse_config_file  # noqa: E402
from levyfilter.girsanov import reconstruct_reference_drivers  # noqa: E402
from levyfilter.propagation import add_signal_jumps  # noqa: E402
from levyfilter.rng import substream  # noqa: E402
from levyfilter.simulate import TimeGrid  # noqa: E402
from levyfilter.testfuncs import make_test_function  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (200, 2000, 20000)


def best_time(fn, repeats):
    """The fastest of ``repeats`` calls of fn, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def signal_jumps(spec, grid, scen, N, seed):
    """One step's signal jumps on N prior states at every base-grid node."""
    x = np.asarray(scen.prior_sampler(substream(seed, "x0"), N),
                   float).reshape(N, spec.n)
    rng_c = substream(seed, "jump-counts")
    rng_u = substream(seed, "jump-marks")
    for t in grid.nodes()[:-1]:
        add_signal_jumps(spec, t, x, grid.dt, rng_c, rng_u)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(
        ROOT, "perfbench", "workloads", "jumps.cfg"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    cfg = parse_config_file(args.config)
    scen = build_family(cfg.family, cfg.params)
    spec = scen.spec
    seed = derive_seed(args.seed, "replica", 0)
    grid = TimeGrid(0.0, spec.T, cfg.n_steps)
    rec = simulate_path(spec, grid, scen.prior_sampler, scen.y0, seed)
    obs = project_observation(rec)
    K = len(obs.t) - 1
    funcs = [make_test_function(name, spec.n) for name in ("coord:0", "quad")]

    per_node = []
    for N in SIZES:
        best = best_time(lambda: zakai_filter(
            spec, obs, N, scen.prior_sampler, derive_seed(seed, "filter"),
            test_functions=funcs, ess_fraction=cfg.ess_fraction), args.repeats)
        per_node.append(best / K)
        jumps = best_time(lambda: signal_jumps(spec, grid, scen, N, seed),
                          args.repeats)
        print(f"N={N:<6d} best of {args.repeats}: {1e3 * best:8.1f} ms  "
              f"({1e6 * best / K:7.1f} us per node; add_signal_jumps "
              f"{1e6 * jumps / grid.n_steps:6.1f} us per step)")
    slope, fixed = np.polyfit(np.array(SIZES, float), per_node, 1)
    print(f"fixed cost {1e6 * fixed:.1f} us per node, "
          f"{1e9 * slope:.1f} ns per particle-node")
    sim = best_time(lambda: simulate_path(spec, grid, scen.prior_sampler,
                                          scen.y0, seed), args.repeats)
    drivers = best_time(lambda: reconstruct_reference_drivers(obs, spec),
                        args.repeats)
    steps = len(rec.t) - 1
    print(f"simulate_path {1e3 * sim:.2f} ms ({1e6 * sim / steps:.1f} us per "
          f"step, {steps} steps), reconstruct_reference_drivers "
          f"{1e3 * drivers:.2f} ms ({1e6 * drivers / K:.1f} us per step), "
          f"best of {args.repeats}")
    print(f"family={cfg.family} K={K} steps ({len(obs.event_steps)} "
          f"observation jumps), numpy {np.__version__}, {os.cpu_count()} cores, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


if __name__ == "__main__":
    main()
