"""The commands that run the filter: run and replay.

``run`` simulates observation records for a configured scenario family,
filters each of them, and writes a self-describing output directory: the
canonical config, per-replica observation and filter CSVs, a verdicts
summary, and a manifest with content hashes.  ``replay`` checks a run
directory against its manifest, re-executes it and insists on
byte-identical outputs.  The parser, the exit codes and the set-up checks
are in ``commands``, which imports this module for these two commands
alone; ``main`` and ``build_parser`` are re-exported here.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .commands import build_parser, build_scenario, main  # noqa: F401
from .config import config_to_text, parse_config_file
from .errors import ConfigError, ReplayMismatchError
from .filtering import write_trajectory_csv, zakai_filter
from .model import signal_terms, validate_hypotheses
from .oracle import kalman_bucy
from .propagation import add_signal_jumps, reference_step
from .rng import derive_seed, substream
from .simulate import (TimeGrid, project_observation, simulate_path,
                       write_observation)


def _prior_mc_moments(spec, scen, n_steps, n_samples, seed, funcs):
    """Plain prior-propagation Monte Carlo of the signal, no conditioning.

    Used for the reduction verdict on families whose observation carries no
    information about the signal: the filter moments must then agree with
    this unconditional law.  The paths take the filter's reference step
    without the sensor term, each with its own observation driver.
    """
    R = int(n_samples)
    dt = spec.T / n_steps
    x = np.asarray(scen.prior_sampler(substream(seed, "x0"), R),
                   float).reshape(R, spec.n)
    rng_g = substream(seed, "brownian")
    rng_c = substream(seed, "jump-counts")
    rng_u = substream(seed, "jump-marks")
    for k in range(n_steps):
        t = k * dt
        db = rng_g.standard_normal((R, spec.d)) * np.sqrt(dt)
        dw = rng_g.standard_normal((R, spec.m)) * np.sqrt(dt)
        x = reference_step(signal_terms(spec, t, x, spec.nu1.marks), dt, dw,
                           db)
        x = add_signal_jumps(spec, t, x, dt, rng_c, rng_u)
    out = {}
    for F in funcs:
        vals = np.asarray(F.value(x), float).reshape(R)
        out[F.name] = (float(vals.mean()),
                       float(vals.std(ddof=1) / np.sqrt(R)))
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _mismatched_files(out_dir, hashes):
    """Names in ``hashes`` whose file in out_dir is missing or differs."""
    mismatched = []
    for name, digest in hashes.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            mismatched.append(f"{name} (missing)")
        elif _sha256(path) != digest:
            mismatched.append(name)
    return mismatched


def _write_manifest(out_dir, cfg, command, **fields):
    """Write manifest.json: the version, command, family and seed, and
    ``fields``."""
    payload = dict(version=__version__, command=command, family=cfg.family,
                   seed=cfg.seed, **fields)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_replica(cfg, seed_r, out_dir, index):
    """Simulate, filter and write one replica; (file names, verdict).

    The scenario and the test functions are built here from ``cfg``: they
    are closures, which cannot be pickled into a worker process.
    """
    scen, funcs = build_scenario(cfg)
    spec = scen.spec
    grid = TimeGrid(0.0, spec.T, cfg.n_steps)
    record = simulate_path(spec, grid, scen.prior_sampler, scen.y0, seed_r)
    obs = project_observation(record)
    obs_name = f"obs_{index:03d}.csv"
    write_observation(obs, os.path.join(out_dir, obs_name))
    traj = zakai_filter(
        spec, obs, cfg.n_particles, scen.prior_sampler,
        derive_seed(seed_r, "filter"), test_functions=funcs,
        ess_fraction=cfg.ess_fraction)
    traj_name = f"filter_{index:03d}.csv"
    write_trajectory_csv(traj, os.path.join(out_dir, traj_name))

    verdict = {
        "replica": index,
        "seed": seed_r,
        "final_log_mass": traj.log_mass[-1],
        "min_ess": float(np.min(traj.ess)),
        "resample_count": int(np.sum(traj.resampled)),
        "observation_jumps": int(traj.event_count[-1]),
        "final_moments": {name: traj.summaries[name].pi_F[-1]
                          for name in traj.summaries},
    }
    if scen.linear is not None and "coord:0" in traj.summaries:
        kal = kalman_bucy(scen.linear, obs.t, obs.Y)
        gap = np.abs(kal.mean[:, 0] - traj.summaries["coord:0"].pi_F)
        verdict["kalman_gap_mean"] = float(np.mean(gap))
        verdict["kalman_gap_max"] = float(np.max(gap))
    if cfg.family == "uninformative":
        n_mc = max(cfg.n_particles, 2000)
        prior = _prior_mc_moments(spec, scen, cfg.n_steps, n_mc,
                                  derive_seed(seed_r, "prior-mc"), funcs)
        reduction = {}
        ok = True
        ess_final = max(float(traj.ess[-1]), 1.0)
        for name, (pm, pse) in prior.items():
            fv = float(traj.summaries[name].pi_F[-1])
            # the filter's MC error is approximated with the prior variance
            # spread over the final effective sample size
            combined = max(pse, 1e-12) * np.sqrt(1.0 + n_mc / ess_final)
            z = abs(fv - pm) / combined
            ok = ok and z <= 4.0
            reduction[name] = {"filter": fv, "prior_mean": pm,
                               "prior_se": pse, "z": z}
        verdict["reduction"] = reduction
        verdict["reduction_passed"] = bool(ok)
    return [obs_name, traj_name], verdict


def _replica_pool(workers):
    """A pool of forked worker processes for the replicas.

    The start method is fork, not spawn or forkserver (the default from
    Python 3.14): a forked worker starts with the package already imported.
    On the benchmark's dense-jump workload (four replicas on two workers,
    2-vCPU VM, five runs each) fork ran ``run`` in 3.4-3.9 s against
    3.5-4.0 s for either of the others, and its peak resident set was
    38.9 MB against 44.3 MB for spawn; all wrote identical bytes. The pool
    forks its workers before it starts its own threads, and the command
    has none.
    """
    # imported here, as only a pool needs them: they take 15-25 ms to import,
    # which every other command would pay at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        raise ConfigError("--threads above 1 needs the fork start method, "
                          "which this platform does not have")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _execute_run(cfg, out_dir, threads, argv_echo):
    # built here too, so every check `validate` makes stops the run before
    # it writes anything
    spec = build_scenario(cfg)[0].spec

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory {out_dir!r}: "
                          f"{exc.strerror}") from exc
    config_text = config_to_text(cfg)
    with open(os.path.join(out_dir, "config.cfg"), "w") as fh:
        fh.write(config_text)
    started = time.time()
    _write_manifest(out_dir, cfg, argv_echo, status="running", files={})

    verdicts = {"family": cfg.family, "seed": cfg.seed, "replicas": []}
    if cfg.validate_hypotheses:
        report = validate_hypotheses(spec, cfg.hypothesis_budget,
                                     derive_seed(cfg.seed, "hypotheses"))
        verdicts["hypotheses"] = report.to_dict()
        report.raise_if_failed()

    seeds = [derive_seed(cfg.seed, "replica", r) for r in range(cfg.replicas)]
    files = ["config.cfg", "verdicts.json"]
    workers = min(threads, cfg.replicas)
    if workers > 1:
        # map returns results in replica order and re-raises a worker's
        # exception, type and message kept, so exit codes match a serial run
        with _replica_pool(workers) as pool:
            results = list(pool.map(_run_replica, [cfg] * cfg.replicas,
                                    seeds, [out_dir] * cfg.replicas,
                                    range(cfg.replicas)))
    else:
        results = [_run_replica(cfg, s, out_dir, r)
                   for r, s in enumerate(seeds)]
    for names, verdict in results:
        files.extend(names)
        verdicts["replicas"].append(verdict)

    failures = []
    if cfg.accept_max_kalman_gap is not None:
        # build_scenario made sure that every replica has a Kalman gap
        worst = max(v["kalman_gap_mean"] for v in verdicts["replicas"])
        ok = worst <= cfg.accept_max_kalman_gap
        verdicts["accept_kalman"] = {"worst": worst, "passed": ok}
        if not ok:
            failures.append("kalman gap")
    if cfg.accept_min_ess_fraction is not None:
        worst = min(v["min_ess"] for v in verdicts["replicas"])
        ok = worst >= cfg.accept_min_ess_fraction * cfg.n_particles
        verdicts["accept_ess"] = {"worst": worst, "passed": ok}
        if not ok:
            failures.append("effective sample size")

    with open(os.path.join(out_dir, "verdicts.json"), "w") as fh:
        json.dump(verdicts, fh, indent=2, sort_keys=True)
        fh.write("\n")

    hashes = {name: _sha256(os.path.join(out_dir, name))
              for name in sorted(files)}
    _write_manifest(out_dir, cfg, argv_echo, status="complete",
                    runtime_seconds=round(time.time() - started, 3),
                    files=hashes)
    return failures, verdicts


def _cmd_run(args):
    cfg = parse_config_file(args.config, args.seed)
    out_dir = args.out or f"run_{cfg.family}_{cfg.seed}"
    failures, _ = _execute_run(cfg, out_dir, args.threads,
                               f"run --config {args.config}")
    print(f"run complete: {cfg.replicas} replica(s) in {out_dir}")
    if failures:
        print("acceptance failed: " + "; ".join(failures), file=sys.stderr)
        return 5
    return 0


def _cmd_replay(args):
    out_dir = args.out
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: not JSON
        raise ConfigError(f"cannot read manifest in {out_dir!r}: {exc}")
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("files"), dict)):
        raise ConfigError(f"manifest in {out_dir!r} is not an object with "
                          "a \"files\" object")
    if manifest.get("status") != "complete":
        raise ConfigError(f"run in {out_dir!r} did not complete; nothing to replay")
    # the stored files must be the ones the manifest describes before the
    # re-run can vouch for them
    edited = _mismatched_files(out_dir, manifest["files"])
    if edited:
        raise ReplayMismatchError(
            "run directory differs from its manifest: " + ", ".join(edited))
    cfg = parse_config_file(os.path.join(out_dir, "config.cfg"))

    with tempfile.TemporaryDirectory(prefix="levyfilter-replay-") as tmp:
        _execute_run(cfg, tmp, args.threads, manifest.get("command", "replay"))
        mismatched = _mismatched_files(tmp, manifest["files"])
    if mismatched:
        raise ReplayMismatchError(
            "replay produced different bytes for: " + ", ".join(mismatched))
    print(f"replay ok: {len(manifest['files'])} file(s) byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
