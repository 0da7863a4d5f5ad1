"""Traced run: per-layer metrics measured from outside the program.

In one process, each round runs `levyfilter run` in process (through
`levyfilter.cli.main`, one worker thread) for every config of the workload.
While it runs, the public functions `run` calls into each layer are
replaced by wrappers that open a span named after the module that owns the
layer, so every span belongs to that same `run` and `cli.other_s` is the
rest of its wall time. The program's files are not touched. Kernel probes
then call `generator_values`, `SystemSpec.h` and `SystemSpec.lam_marks`
once per node on a cloud drawn from the prior. Spans are kept in memory and
written to `out/<workload>/spans.json`.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from run import OUT, PINNED, SRC, Ledger, _workloads, config_seed

sys.path.insert(0, SRC)
import numpy as np  # noqa: E402
from levyfilter import cli, filtering  # noqa: E402
from levyfilter.config import parse_config_file  # noqa: E402
from levyfilter.families import build_family  # noqa: E402
from levyfilter.model import generator_values  # noqa: E402
from levyfilter.testfuncs import make_test_function  # noqa: E402

# (module whose name `run` calls, function, span). The span of each layer
# `run` calls directly; cli.other_s is the `run` time they leave.
RUN_LAYERS = (
    (cli, "validate_hypotheses", "model.validate_hypotheses"),
    (cli, "simulate_path", "simulate.simulate_path"),
    (cli, "project_observation", "simulate.project_observation"),
    (cli, "write_observation", "simulate.write_observation"),
    (cli, "zakai_filter", "filtering.zakai_filter"),
    (cli, "write_trajectory_csv", "filtering.write_trajectory_csv"),
    (cli, "kalman_bucy", "oracle.kalman_bucy"),
)
# Called from inside `zakai_filter`, so its span is a child of the filter's.
INNER_LAYERS = (
    (filtering, "reconstruct_reference_drivers",
     "girsanov.reconstruct_reference_drivers"),
)
LAYERS = [span for _, _, span in RUN_LAYERS + INNER_LAYERS]
TIMED = LAYERS + ["model.generator_values", "model.h", "model.lam_marks"]
IMPORT_REPEATS = 3


class Tracer:
    """Spans (name, start, end, parent) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, parent))

    def totals(self, since):
        out = {}
        for name, start, end, _ in self.spans[since:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


@contextlib.contextmanager
def layer_spans(tracer, results):
    """Wrap each layer function in a span while the block runs; the values
    the layers return are collected in `results[span]`."""
    saved = []
    for module, attr, name in RUN_LAYERS + INNER_LAYERS:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            with tracer.span(_name):
                out = _fn(*args, **kwargs)
            results.setdefault(_name, []).append(out)
            return out

        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def import_seconds():
    """Median wall time of a first `import levyfilter.cli` in a fresh
    interpreter (the module `python -m levyfilter` loads)."""
    code = ("import time; t = time.perf_counter(); import levyfilter.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED)
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def trace_config(tracer, cfg_path, seed, shape, out, ledger, counters):
    """One config: the in-process `run` with layer spans, then the probes."""
    name = os.path.splitext(os.path.basename(cfg_path))[0]
    run_dir = os.path.join(out, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    since = len(tracer.spans)
    results = {}
    with tracer.span("cli.run"), layer_spans(tracer, results), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", cfg_path, "--seed", str(seed),
                         "--out", run_dir])
    # A layer this family's `run` never calls (the oracle on a family with
    # no linear reference) reads the cost of one empty span, not zero.
    called = {span[0] for span in tracer.spans[since:]}
    for layer in LAYERS:
        if layer not in called:
            with tracer.span(layer):
                pass
    problems = checks.check_run_dir(run_dir, shape)[0] if code == 0 else []
    ledger.record(code == 0, problems)
    if code != 0:
        return

    cfg = parse_config_file(cfg_path)
    for record in results["simulate.simulate_path"]:
        counters["candidates"] += len(record.obs_candidates)
        counters["accepted"] += sum(bool(e.accepted)
                                    for e in record.obs_candidates)
    for traj in results["filtering.zakai_filter"]:
        counters["particle_steps"] += cfg.n_particles * (len(traj.t) - 1)
        counters["observation_events"] += int(traj.event_count[-1])
        counters["resamples"] += int(np.sum(traj.resampled))
        counters["min_ess_fraction"] = min(
            counters["min_ess_fraction"],
            float(np.min(traj.ess)) / cfg.n_particles)

    # Kernel probes: as many calls as the filter makes on the last replica's
    # grid, on a cloud of the workload's size drawn from the family's prior.
    scen = build_family(cfg.family, cfg.params)
    spec = scen.spec
    funcs = [make_test_function(f, spec.n) for f in cfg.function_names()]
    obs = results["simulate.project_observation"][-1]
    x = np.asarray(scen.prior_sampler(np.random.default_rng(seed),
                                      cfg.n_particles), float)
    x = x.reshape(cfg.n_particles, spec.n)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget)
    with tracer.span("model.generator_values"):
        for t in obs.t:
            for F in funcs:
                generator_values(spec, F, t, x, marks1)
    with tracer.span("model.h"):
        for t, y in zip(obs.t, obs.Y):
            spec.h(t, x, y)
    with tracer.span("model.lam_marks"):
        for t in obs.t:
            spec.lam_marks(t, x, obs.marks2)


def measure(workload, seed, seconds):
    configs, _, shape = _workloads()[workload]
    seeds = [config_seed(seed, workload, c) for c in configs]
    out = os.path.join(OUT, workload)
    os.makedirs(out, exist_ok=True)
    import_s = import_seconds()
    tracer = Tracer()
    ledger = Ledger()
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        since = len(tracer.spans)
        counters = {"particle_steps": 0, "observation_events": 0,
                    "resamples": 0, "min_ess_fraction": 1.0,
                    "candidates": 0, "accepted": 0}
        for cfg_path, cfg_seed in zip(configs, seeds):
            trace_config(tracer, cfg_path, cfg_seed, shape, out, ledger,
                         counters)
        rounds.append((tracer.totals(since), counters))
    with open(os.path.join(out, "spans.json"), "w") as fh:
        json.dump([{"name": n, "start": s, "end": e, "parent": p}
                   for n, s, e, p in tracer.spans], fh)

    def med(fn):
        return statistics.median(fn(t, c) for t, c in rounds)

    metrics = {"levyfilter.import_s": (import_s, "s")}
    for name in TIMED:
        metrics[f"{name}_s"] = (med(lambda t, c, n=name: t.get(n, 0.0)), "s")
    metrics["filtering.ns_per_particle_step"] = (med(
        lambda t, c: 1e9 * t["filtering.zakai_filter"]
        / max(c["particle_steps"], 1)), "ns")
    metrics["cli.other_s"] = (med(
        lambda t, c: t["cli.run"] - sum(t[n] for _, _, n in RUN_LAYERS)), "s")
    counters = rounds[-1][1]
    for name in ("particle_steps", "observation_events", "resamples"):
        metrics[f"filtering.{name}"] = (counters[name], "count")
    metrics["filtering.min_ess_fraction"] = (counters["min_ess_fraction"],
                                             "ratio")
    metrics["simulate.thinning_acceptance"] = (
        counters["accepted"] / counters["candidates"]
        if counters["candidates"] else 0.0, "ratio")
    print(f"{workload} (traced): {len(rounds)} round(s), seeds {seeds}",
          file=sys.stderr)
    return ledger, metrics
