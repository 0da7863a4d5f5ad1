#!/usr/bin/env python3
"""Print the bundle hash of each bundled config's `levyfilter run` output.

The configs are `configs/*.cfg` and the benchmark's dense-jump workload
`perfbench/workloads/jumps.cfg` (read only; nothing is written under
`perfbench/`). Each is run with `python -m levyfilter run` on this
checkout's `src/`, in a fresh process with BLAS on one thread. The bundle
hash of a run directory is the SHA-256 over its CSV files and
`verdicts.json`, taken in sorted name order, each name followed by the hex
SHA-256 of its file; the first 12 hex digits are printed. Two checkouts
that print the same hashes wrote the same bytes.

Usage: python3 scripts/bundle_hashes.py [--seed N] [--threads 1|2]
                                        [--out DIR] [--base REV]

Without --seed every config runs at its own seed. With --out the run
directories are kept under DIR (one per config), so that two checkouts'
files can also be compared with `diff -r`.

With --base, revision REV is exported with `git archive` (as
`scripts/ab_pairs.py` does) and this checkout's configs run on both its
`src/` and REV's. Each config prints `name base change`, and the exit
status is 1 if any pair differs. With --out the run directories go under
DIR/base and DIR/change.
"""

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

from ab_pairs import export_base

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = (sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
           + [os.path.join(ROOT, "perfbench", "workloads", "jumps.cfg")])
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bundle_hash(run_dir):
    """SHA-256 over the CSVs and verdicts.json: each name, then its hash."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(run_dir)):
        if name.endswith(".csv") or name == "verdicts.json":
            h.update(name.encode())
            h.update(file_sha256(os.path.join(run_dir, name)).encode())
    return h.hexdigest()


def run_config(cfg, run_dir, seed, threads, src):
    args = [sys.executable, "-m", "levyfilter", "run", "--config", cfg,
            "--out", run_dir, "--threads", str(threads)]
    if seed is not None:
        args += ["--seed", str(seed)]
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every config (default: each its own)")
    parser.add_argument("--threads", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", default=None,
                        help="keep the run directories under this directory")
    parser.add_argument("--base", default=None, metavar="REV",
                        help="also run revision REV and compare its hashes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bundle-hashes-") as tmp:
        out = args.out or tmp
        trees = {"": os.path.join(ROOT, "src")}
        if args.base is not None:
            export_base(args.base, os.path.join(tmp, "base-tree"))
            trees = {"base": os.path.join(tmp, "base-tree", "src"),
                     "change": trees[""]}
        differ = False
        for cfg in CONFIGS:
            name = os.path.splitext(os.path.basename(cfg))[0]
            hashes = []
            for side, src in trees.items():
                run_dir = os.path.join(out, side, name)
                run_config(cfg, run_dir, args.seed, args.threads, src)
                hashes.append(bundle_hash(run_dir)[:12])
            differ |= len(set(hashes)) > 1
            print(name, *hashes, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
