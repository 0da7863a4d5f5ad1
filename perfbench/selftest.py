"""Self-test of the benchmark harness, at a tiny size.

    python3 perfbench/selftest.py

Runs one round of every workload on shrunken copies of its configs and
requires zero failed operations. Then it corrupts outputs on purpose and
requires each corruption to be counted as a failed operation: a row with
negative conditional variance, an edited CSV byte, an edited config before
`replay`, a missing output file, and a replica without resamples on the
`jumps` shape check. Exits 0 when all hold.
"""

import os
import re
import shutil
import sys

import checks
import run

TINY = {"configs": {"n_particles": 400, "n_steps": 40},
        "jumps": {"n_particles": 300, "n_steps": 100, "replicas": 2}}
SEED = 1


def shrink(cfg_path, sizes, dest):
    with open(cfg_path) as fh:
        text = fh.read()
    for key, value in sizes.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if not count:
            text += f"{key} = {value}\n"
    path = os.path.join(dest, os.path.basename(cfg_path))
    with open(path, "w") as fh:
        fh.write(text)
    return path


def expect(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


def main():
    root = os.path.join(run.OUT, "selftest")
    shutil.rmtree(root, ignore_errors=True)
    results = []
    workloads = run._workloads()
    for workload, (configs, threads, shape) in sorted(workloads.items()):
        out = os.path.join(root, workload)
        os.makedirs(out)
        tiny = [shrink(c, TINY[workload], out) for c in configs]
        seeds = [run.config_seed(SEED, workload, c) for c in tiny]
        ledger = run.Ledger()
        run.run_round(tiny, seeds, threads, shape, out, ledger)
        results.append(expect(f"{workload}: {ledger.attempted} operations "
                              f"at tiny size, {ledger.failed} failed",
                              ledger.attempted > 0 and ledger.failed == 0))

    # A row with negative conditional variance fails the replica checks.
    run_dir = os.path.join(root, "configs", "linear_gaussian")
    cfg = checks.read_config(os.path.join(run_dir, "config.cfg"))
    traj = checks.read_filter_csv(os.path.join(run_dir, "filter_000.csv"))
    obs = checks.read_observation_csv(os.path.join(run_dir, "obs_000.csv"))
    traj["pi_quad"][5] = traj["pi_coord:0"][5] ** 2 - 0.01
    results.append(expect("negative conditional variance is caught", any(
        "negative conditional variance" in f
        for f in checks.check_replica(traj, obs, cfg, "corrupt"))))

    # An edited CSV byte fails the manifest check. `replay` does not look at
    # the files of the run directory, so it is shown an edited config.
    path = os.path.join(run_dir, "filter_000.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(data)
    fails, _ = checks.check_run_dir(run_dir)
    ledger = run.Ledger()
    ledger.record(True, fails)
    results.append(expect("an edited CSV byte is a failed operation",
                          ledger.failed == 1 and ledger.wrong))
    path = os.path.join(run_dir, "config.cfg")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("seed = ", "seed = 1", 1))
    _, code, _ = run.cli(["replay", "--out", run_dir],
                         os.path.join(root, "corrupt.replay.log"))
    ledger = run.Ledger()
    ledger.record(code == 0)
    results.append(expect(f"replay of an edited config exits {code} and is "
                          "a failed operation", ledger.failed == 1))

    # A missing output file is a failed operation, not a crash.
    os.remove(os.path.join(root, "configs", "mixed", "obs_001.csv"))
    fails, _ = checks.check_run_dir(os.path.join(root, "configs", "mixed"))
    results.append(expect("a missing output file is a failed operation",
                          any("unreadable output" in f for f in fails)))

    # A replica without resamples fails the jumps shape check.
    run_dir = os.path.join(root, "jumps", "jumps")
    path = os.path.join(run_dir, "filter_000.csv")
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    header = lines[0].split(",")
    col = header.index("resampled")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = "0"
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    fails, _ = checks.check_run_dir(run_dir, "jumps")
    results.append(expect("a replica without resamples fails the jumps "
                          "shape check", any("resamples" in f for f in fails)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
