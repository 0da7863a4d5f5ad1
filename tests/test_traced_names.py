"""The names the benchmark's traced run reads from the program.

`perfbench/traced.py` wraps functions of the program by name and probes
its kernels; a rename in the program would break the benchmark without a
failing test here.  traced.py is parsed, not imported, so nothing is
written under `perfbench/`; the config it runs is only read.
"""

import ast
import importlib
import os

import numpy as np

from levyfilter import build_family, project_observation, simulate_path
from levyfilter import zakai_filter
from levyfilter.config import parse_config_file
from levyfilter.model import generator_values
from levyfilter.simulate import TimeGrid
from levyfilter.testfuncs import make_test_function

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
TRACED = os.path.join(BENCH, "traced.py")


def _traced_tree():
    with open(TRACED) as fh:
        return ast.parse(fh.read(), TRACED)


def _layer_pairs(tree):
    """(module, attr) of every entry of RUN_LAYERS and INNER_LAYERS, the
    module as the full name that traced.py imported it by."""
    modules = {alias.asname or alias.name: f"levyfilter.{alias.name}"
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "levyfilter" for alias in node.names}
    pairs = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) in ("RUN_LAYERS",
                                                   "INNER_LAYERS"):
                    pairs[target.id] = [
                        (modules[entry.elts[0].id], entry.elts[1].value)
                        for entry in node.value.elts]
    return pairs


def _files_under(path):
    return sorted(os.path.join(d, f) for d, _, files in os.walk(path)
                  for f in files)


def test_traced_layers_and_imports_resolve():
    tree = _traced_tree()
    pairs = _layer_pairs(tree)
    assert set(pairs) == {"RUN_LAYERS", "INNER_LAYERS"}
    assert pairs["RUN_LAYERS"] and pairs["INNER_LAYERS"]
    for module, attr in pairs["RUN_LAYERS"] + pairs["INNER_LAYERS"]:
        assert callable(getattr(importlib.import_module(module), attr)), (
            module, attr)
    # every name traced.py imports from the package
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").startswith("levyfilter"):
            package = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    getattr(package, alias.name)
                except AttributeError:      # a submodule not yet loaded
                    importlib.import_module(f"{node.module}.{alias.name}")


def test_traced_kernel_probes_and_counters_run():
    before = _files_under(BENCH)
    cfg = parse_config_file(os.path.join(BENCH, "workloads", "jumps.cfg"))
    scen = build_family(cfg.family, cfg.params)
    spec = scen.spec
    funcs = [make_test_function(f, spec.n) for f in cfg.function_names()]
    record = simulate_path(spec, TimeGrid(0.0, spec.T, 40),
                           scen.prior_sampler, scen.y0, 5)
    obs = project_observation(record)
    accepted = [e.accepted for e in record.obs_candidates]
    assert accepted and set(accepted) <= {True, False}
    assert sum(accepted) == len(obs.event_steps)
    # the counters traced.py reads from each trajectory
    traj = zakai_filter(spec, obs, 50, scen.prior_sampler, 6,
                        test_functions=funcs, ess_fraction=cfg.ess_fraction)
    assert len(traj.t) == len(obs.t)
    assert traj.event_count[-1] == len(obs.event_steps)
    assert traj.resampled.shape == traj.ess.shape == traj.t.shape

    # one call of each kernel probe, as traced.py makes them
    x = np.asarray(scen.prior_sampler(np.random.default_rng(7), 50),
                   float).reshape(50, spec.n)
    t, y = obs.t[1], obs.Y[1]
    for F in funcs:
        lf = generator_values(spec, F, t, x,
                              spec.nu1.frozen_marks(spec.mark_budget))
        assert np.shape(lf) == (50,) and np.isfinite(lf).all()
    assert np.isfinite(spec.h(t, x, y)).all()
    assert np.isfinite(spec.lam_marks(t, x, obs.marks2)).all()
    assert _files_under(BENCH) == before
