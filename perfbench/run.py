"""End-to-end benchmark of the `levyfilter` command line.

    python3 perfbench/run.py --workload configs --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is run from `src/`.
With `--trace 0` every operation is a fresh `python -m levyfilter` process,
as a user runs it, and the last line of standard output is a JSON object
with the end-to-end metrics. With `--trace 1` the per-layer metrics come
from one process that repeats the calls `run` makes (see traced.py).

Each run repeats whole rounds until `--seconds` have passed: every config
of the workload goes through the set-up (`levyfilter validate`, once or
more), `run` and then `replay`, and every output is checked (see
checks.py). The set-up time is the median of its passes; each `run` and
`replay` time is that operation's fastest over the rounds.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from glob import glob

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

sys.path.insert(0, BENCH)
import checks  # noqa: E402

# One BLAS thread everywhere, so the only parallelism is the replica pool.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
# Set-up passes (`validate` on every config) in each round. The set-up is
# sampled through the whole run, beside the operations it precedes, so a
# slow stretch of the machine weighs on it no more than on `run_s`.
SETUP_PASSES = {"configs": 1, "jumps": 3}


def _workloads():
    return {
        # (configs, worker threads, shape check)
        "configs": (sorted(glob(os.path.join(ROOT, "configs", "*.cfg"))), 1,
                    None),
        "jumps": ([os.path.join(BENCH, "workloads", "jumps.cfg")], 2, "jumps"),
    }


def config_seed(seed, workload, cfg_path):
    """Seed passed to `levyfilter --seed` for one config of a workload."""
    name = os.path.splitext(os.path.basename(cfg_path))[0]
    digest = hashlib.sha256(f"{seed}/{workload}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000_007


class Ledger:
    """Operations attempted and failed, and the failures' messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def record(self, ok, problems=()):
        """Count one operation. `problems` are failed output checks."""
        self.attempted += 1
        problems = list(problems)
        if not ok or problems:
            self.failed += 1
        self.wrong += problems
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)


def cli(args, log_path):
    """Run `python -m levyfilter <args>`; (seconds, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "levyfilter", *args],
                                cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, errors="replace") as fh:
            sys.stderr.write(f"levyfilter {' '.join(args)} exited "
                             f"{proc.returncode}:\n{fh.read()}")
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def run_round(configs, seeds, threads, shape, out, ledger, validates=1):
    """`validates` set-up passes, `run` and then `replay` on every config:
    set-up seconds of each pass summed over configs, per-config seconds,
    particle steps and the largest resident set of a `run` process."""
    rnd = {"setup": [0.0] * validates, "run": {}, "replay": {}, "steps": {},
           "rss": 0.0}
    for cfg_path, seed in zip(configs, seeds):
        for k in range(validates):
            sec, code, _ = cli(["validate", "--config", cfg_path, "--seed",
                                str(seed)], os.path.join(out, "validate.log"))
            rnd["setup"][k] += sec
            ledger.record(code == 0)
        name = os.path.splitext(os.path.basename(cfg_path))[0]
        run_dir = os.path.join(out, name)
        shutil.rmtree(run_dir, ignore_errors=True)
        sec, code, peak = cli(["run", "--config", cfg_path, "--seed",
                               str(seed), "--out", run_dir, "--threads",
                               str(threads)], run_dir + ".run.log")
        rnd["run"][name] = sec
        rnd["rss"] = max(rnd["rss"], peak)
        problems = []
        if code == 0:
            problems, rnd["steps"][name] = checks.check_run_dir(run_dir, shape)
        ledger.record(code == 0, problems)
        sec, code, _ = cli(["replay", "--out", run_dir, "--threads",
                            str(threads)], run_dir + ".replay.log")
        rnd["replay"][name] = sec
        ledger.record(code == 0)
    return rnd


def fastest(rounds, kind):
    """Sum over configs of each config's fastest time over the rounds.

    Other tenants of the machine only ever add time, and they come and go
    over tens of seconds, so the fastest of several tries of the same
    operation is the steadiest estimate of its own cost."""
    return sum(min(r[kind][name] for r in rounds) for name in rounds[0][kind])


def measure(workload, seed, seconds):
    configs, threads, shape = _workloads()[workload]
    seeds = [config_seed(seed, workload, c) for c in configs]
    out = os.path.join(OUT, workload)
    os.makedirs(out, exist_ok=True)
    ledger = Ledger()
    # One untimed `validate` fills the bytecode and file caches.
    _, code, _ = cli(["validate", "--config", configs[0], "--seed",
                      str(seeds[0])], os.path.join(out, "warmup.log"))
    ledger.record(code == 0)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(configs, seeds, threads, shape, out, ledger,
                                SETUP_PASSES[workload]))
    setup = statistics.median(s for r in rounds for s in r["setup"])
    run_s = fastest(rounds, "run")
    metrics = {
        "setup_s": (setup, "s"),
        "run_s": (run_s, "s"),
        "particle_steps_per_s": (sum(rounds[0]["steps"].values()) / run_s,
                                 "1/s"),
        "replay_s": (fastest(rounds, "replay"), "s"),
        "peak_rss_mb": (max(r["rss"] for r in rounds), "MB"),
    }
    print(f"{workload}: {len(rounds)} round(s), seeds {seeds}",
          file=sys.stderr)
    return ledger, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levyfilter", "__init__.py")):
        print(f"no levyfilter sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        os.environ.update(PINNED)
        import traced
        ledger, metrics = traced.measure(args.workload, args.seed,
                                        args.seconds)
    else:
        ledger, metrics = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
