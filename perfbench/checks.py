"""Correctness checks on the files a `levyfilter run` writes.

Nothing here imports the program. The checks read the output CSVs and JSON
with the standard library and compare them against computations written
out again here (a scalar Kalman-Bucy recursion, the Euler prior moments, a
compensated jump count) or against properties every correct run must have.
Each check returns a list of failure messages; an empty list is a pass.
"""

import csv
import hashlib
import json
import math
import os

# What the checks need to know about each family, taken from the family
# documentation: whether the observation channel jumps, and the defaults of
# the parameters the checks use. Config `param.*` lines override them.
FAMILY_DEFAULTS = {
    "jump_free": {"rate2": 0.0},
    "jump_only": {"rate2": 1.0, "lam0": 0.05},
    "linear_gaussian": {"rate2": 0.0, "a": -1.0, "s0": 0.5, "s1": 0.5,
                        "gain": 1.0, "r": 1.0, "prior_mean": 0.0,
                        "prior_std": 1.0},
    "mixed": {"rate2": 0.8, "lam0": 0.05},
    "trig": {"rate2": 0.0},
    "sensor_saturated": {"rate2": 0.6, "lam0": 0.05},
    "uninformative": {"rate2": 0.8, "lam0": 0.5, "a": -1.0, "s0": 0.7,
                      "prior_mean": 0.3, "prior_std": 0.8},
}

KALMAN_MAX_MEAN_GAP = 0.05
# At least this share of nodes within KALMAN_SE_BAND standard errors. The
# cloud's error is correlated in time: one unlucky prior sample holds the
# mean near 3 SE off for hundreds of nodes, so a 3 SE band fails on a few
# percent of seeds of a correct filter; 4 SE failed on none of 270 replicas.
KALMAN_MIN_WITHIN = 0.95
KALMAN_SE_BAND = 4.0
MAX_Z = 4.0


def read_config(path):
    """Flat `key = value` config, as a dict with `param.*` parsed to floats."""
    cfg = {"params": {}}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key.startswith("param."):
                cfg["params"][key[len("param."):]] = float(value)
            else:
                cfg[key] = value
    return cfg


def family_params(cfg):
    params = dict(FAMILY_DEFAULTS[cfg["family"]])
    params.update(cfg["params"])
    return params


def _number(cell):
    return float(cell) if cell != "" else None


def read_filter_csv(path):
    """Filter trajectory as a dict of column name -> list of floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[j]) for row in body]
            for j, name in enumerate(header)}


def read_observation_csv(path):
    """Observation grid: times, observed values and the event flags."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    cols = {name: [_number(row[j]) for row in body]
            for j, name in enumerate(header)}
    return {"t": cols["t"], "y": cols["y_0"],
            "event": [int(v) for v in cols["event"]]}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def check_manifest(out_dir):
    """The manifest is complete and its hashes are those of the files."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("status") != "complete":
        return [f"{out_dir}: manifest status {manifest.get('status')!r}"]
    return [f"{out_dir}/{name}: hash differs from the manifest"
            for name, digest in sorted(manifest["files"].items())
            if sha256(os.path.join(out_dir, name)) != digest]


def check_replica(traj, obs, cfg, label):
    """Invariants every replica must satisfy, whatever the family."""
    fails = []
    n = int(cfg["n_particles"])
    params = family_params(cfg)
    t = traj["t"]
    if len(t) != len(obs["t"]) or any(a != b for a, b in zip(t, obs["t"])):
        fails.append(f"{label}: filter grid differs from the observation grid")
    # each accepted jump adds a node at its time and a duplicate after it
    n_events = sum(obs["event"])
    if len(t) != int(cfg["n_steps"]) + 1 + 2 * n_events:
        fails.append(f"{label}: {len(t)} nodes for {cfg['n_steps']} steps "
                     f"and {n_events} events")
    for name, col in traj.items():
        if not all(math.isfinite(v) for v in col):
            fails.append(f"{label}: non-finite value in column {name}")
            return fails
    if any(b < a for a, b in zip(t, t[1:])):
        fails.append(f"{label}: time goes backwards")
    zero_steps = sum(1 for a, b in zip(t, t[1:]) if b == a)
    if zero_steps != n_events:
        fails.append(f"{label}: {zero_steps} zero-length steps, "
                     f"{n_events} events")
    for k, (ess, res) in enumerate(zip(traj["ess"], traj["resampled"])):
        if not 1.0 - 1e-9 <= ess <= n * (1.0 + 1e-9):
            fails.append(f"{label}: ESS {ess} outside [1, {n}] at node {k}")
            break
        if res and abs(ess - n) > 1e-9 * n:
            fails.append(f"{label}: ESS {ess} != N on resampled node {k}")
            break
    for k, (m1, m2) in enumerate(zip(traj["pi_coord:0"], traj["pi_quad"])):
        if m2 - m1 * m1 < -1e-9 * max(1.0, m2):
            fails.append(f"{label}: negative conditional variance "
                         f"{m2 - m1 * m1:.3g} at node {k}")
            break
    if params["rate2"] > 0.0:
        lo, hi = params["lam0"], 1.0 - params["lam0"]
        for k, lb in enumerate(traj["pi_lambda_bar"]):
            if not lo - 1e-9 <= lb <= hi + 1e-9:
                fails.append(f"{label}: pi(lambda_bar) {lb} outside "
                             f"[{lo}, {hi}] at node {k}")
                break
    return fails


def check_kalman(traj, obs, cfg, label):
    """Particle mean against a scalar Kalman-Bucy recursion with the
    correlated gain (P h + s1 r) / r^2 (Kalman & Bucy 1961), Euler-stepped
    on the observation grid.

    The standard error at a node is sqrt(var / ESS), with the smallest ESS
    the cloud has had so far: resampling puts the ESS back to N, but the
    cloud keeps the error it carried when its ESS was low."""
    p = family_params(cfg)
    a, s0, s1, h, r = p["a"], p["s0"], p["s1"], p["gain"], p["r"]
    mean, var = p["prior_mean"], p["prior_std"] ** 2
    t, y = obs["t"], obs["y"]
    gaps, within = [], 0
    ess = float("inf")
    for k in range(len(t)):
        m1 = traj["pi_coord:0"][k]
        v = max(traj["pi_quad"][k] - m1 * m1, 0.0)
        ess = min(ess, traj["ess"][k])
        se = math.sqrt(v / max(ess, 1.0))
        gap = abs(m1 - mean)
        gaps.append(gap)
        within += gap <= KALMAN_SE_BAND * se
        if k + 1 < len(t):
            dt, dy = t[k + 1] - t[k], y[k + 1] - y[k]
            gain = (var * h + s1 * r) / (r * r)
            mean += a * mean * dt + gain * (dy - h * mean * dt)
            var += (2.0 * a * var + s0 * s0 + s1 * s1
                    - gain * gain * r * r) * dt
    fails = []
    mean_gap = sum(gaps) / len(gaps)
    if mean_gap > KALMAN_MAX_MEAN_GAP:
        fails.append(f"{label}: time-averaged Kalman gap {mean_gap:.4f} "
                     f"> {KALMAN_MAX_MEAN_GAP}")
    share = within / len(gaps)
    if share < KALMAN_MIN_WITHIN:
        fails.append(f"{label}: {share:.3f} of nodes within {KALMAN_SE_BAND:g}"
                     f" SE of the Kalman mean < {KALMAN_MIN_WITHIN}")
    return fails


def check_prior(traj, cfg, label):
    """Uninformative family: the conditional law stays at the prior, whose
    Euler moments follow m1' = (1 + a dt) m1, m2' = (1 + a dt)^2 m2 + s0^2 dt.
    The last node's pi(x) and pi(x^2) must lie within MAX_Z standard errors,
    with the Gaussian variances of x and x^2 spread over the final ESS."""
    p = family_params(cfg)
    m1, m2 = p["prior_mean"], p["prior_mean"] ** 2 + p["prior_std"] ** 2
    t = traj["t"]
    for k in range(len(t) - 1):
        dt = t[k + 1] - t[k]
        m2 = (1.0 + p["a"] * dt) ** 2 * m2 + p["s0"] ** 2 * dt
        m1 = (1.0 + p["a"] * dt) * m1
    v = m2 - m1 * m1
    ess = traj["ess"][-1]
    fails = []
    for name, prior, var in (("pi_coord:0", m1, v),
                             ("pi_quad", m2, 2 * v * v + 4 * m1 * m1 * v)):
        z = (traj[name][-1] - prior) / math.sqrt(var / ess)
        if abs(z) > MAX_Z:
            fails.append(f"{label}: final {name} {traj[name][-1]:.5f} is "
                         f"{z:+.2f} SE from the prior {prior:.5f}")
    return fails


def compensated_jumps(traj, obs, cfg):
    """(accepted events, sum of rate2 * pi(lambda_bar) * dt) for a replica."""
    rate2 = family_params(cfg)["rate2"]
    t, lb = traj["t"], traj["pi_lambda_bar"]
    comp = sum(rate2 * lb[k] * (t[k + 1] - t[k]) for k in range(len(t) - 1))
    return sum(obs["event"]), comp


def check_compensator(pairs, label):
    """The compensated observation-jump count is a martingale: summed over
    replicas, events - compensator has variance about the compensator."""
    events = sum(e for e, _ in pairs)
    comp = sum(c for _, c in pairs)
    z = (events - comp) / math.sqrt(comp)
    if abs(z) > MAX_Z:
        return [f"{label}: {events} accepted jumps against a compensator of "
                f"{comp:.1f} (z = {z:+.2f})"]
    return []


def check_run_dir(out_dir, shape=None):
    """Every check that applies to one run directory.

    Returns (failures, particle_steps). `shape` names the workload-shape
    check: "jumps" requires accepted events and a resample in each replica.
    Output that is missing or cannot be parsed is a failure too.
    """
    try:
        cfg = read_config(os.path.join(out_dir, "config.cfg"))
        return _check_outputs(out_dir, cfg, shape)
    except (OSError, KeyError, IndexError, ValueError, csv.Error) as exc:
        return [f"{out_dir}: unreadable output ({exc!r})"], 0


def _check_outputs(out_dir, cfg, shape):
    fails = check_manifest(out_dir)
    with open(os.path.join(out_dir, "verdicts.json")) as fh:
        verdicts = json.load(fh)
    steps, pairs = 0, []
    for r in range(int(cfg.get("replicas", 1))):
        label = f"{os.path.basename(out_dir)}[{r}]"
        traj = read_filter_csv(os.path.join(out_dir, f"filter_{r:03d}.csv"))
        obs = read_observation_csv(os.path.join(out_dir, f"obs_{r:03d}.csv"))
        broken = check_replica(traj, obs, cfg, label)
        fails += broken
        if broken:
            continue
        verdict = verdicts["replicas"][r]
        n_events, n_resamples = sum(obs["event"]), int(sum(traj["resampled"]))
        if (verdict["observation_jumps"], verdict["resample_count"]) != (
                n_events, n_resamples):
            fails.append(f"{label}: verdicts disagree with the CSVs")
        if cfg["family"] == "linear_gaussian":
            fails += check_kalman(traj, obs, cfg, label)
        if cfg["family"] == "uninformative":
            fails += check_prior(traj, cfg, label)
        if shape == "jumps" and (n_events == 0 or n_resamples == 0):
            fails.append(f"{label}: {n_events} accepted jumps and "
                         f"{n_resamples} resamples; the workload needs both")
        if family_params(cfg)["rate2"] > 0.0:
            pairs.append(compensated_jumps(traj, obs, cfg))
        steps += int(cfg["n_particles"]) * (len(traj["t"]) - 1)
    if shape == "jumps" and not fails:
        fails += check_compensator(pairs, os.path.basename(out_dir))
    return fails, steps
