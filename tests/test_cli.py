"""Command-line surface: run/replay/validate/list-families, exit codes,
manifest hashing, acceptance gates."""

import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyfilter
from levyfilter import __version__
from levyfilter.cli import main
from levyfilter.config import SCHEMA, config_to_text, parse_config
from levyfilter.errors import ModelViolationError
from levyfilter.families import FAMILIES, build_family

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_CFG = """\
family = trig
seed = 11
n_steps = 30
n_particles = 100
replicas = 2
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


# --- informational verbs ---------------------------------------------------------

def test_list_families_prints_registry(capsys):
    assert main(["list-families"]) == 0
    out = capsys.readouterr().out
    for name in ("linear_gaussian", "trig", "mixed", "jump_only",
                 "jump_free", "uninformative", "sensor_saturated",
                 "affine", "saturated_affine"):
        assert f"{name}:" in out


BUNDLED_CONFIGS = sorted(
    os.path.relpath(p, ROOT)
    for p in glob.glob(os.path.join(ROOT, "configs", "*.cfg"))) + [
    "perfbench/workloads/jumps.cfg"]


@pytest.mark.parametrize("path", BUNDLED_CONFIGS)
def test_validate_passes_for_bundled_family(capsys, path):
    assert main(["validate", "--config", os.path.join(ROOT, path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("all 12 hypothesis checks passed\n")


def test_validate_reports_violation_with_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """\
family = uninformative
n_steps = 10
n_particles = 50
param.lam0 = 0.0005
""")
    assert main(["validate", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "jump_intensity_lower" in captured.out
    assert "     witness: {'t': " in captured.out
    # the plain numbers of verdicts.json, not numpy reprs
    assert "np.float64(" not in captured.out
    assert "array(" not in captured.out
    assert "model violation" in captured.err


# --- run -------------------------------------------------------------------------

def test_run_writes_self_describing_bundle(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0

    manifest = read_json(out, "manifest.json")
    assert manifest["status"] == "complete"
    assert manifest["version"] == __version__
    assert manifest["family"] == "trig" and manifest["seed"] == 11
    expected = {"config.cfg", "verdicts.json",
                "obs_000.csv", "filter_000.csv",
                "obs_001.csv", "filter_001.csv"}
    assert set(manifest["files"]) == expected
    for name, digest in manifest["files"].items():
        assert sha256(os.path.join(out, name)) == digest, name

    with open(os.path.join(out, "config.cfg")) as fh:
        text = fh.read()
    assert text == config_to_text(parse_config(text))

    verdicts = read_json(out, "verdicts.json")
    assert verdicts["hypotheses"]["passed"] is True
    assert len(verdicts["replicas"]) == 2
    for rep in verdicts["replicas"]:
        assert np.isfinite(rep["final_log_mass"])
        assert rep["min_ess"] > 0.0
        assert set(rep["final_moments"]) == {"coord:0", "quad"}


def test_run_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "seeded")
    assert main(["run", "--config", cfg, "--out", out, "--seed", "99"]) == 0
    verdicts = read_json(out, "verdicts.json")
    assert verdicts["seed"] == 99


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "family = trig\nn_particles = 10\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing,
                 "--out", str(tmp_path / "y")]) == 2


def test_out_of_range_value_exits_2_with_one_message_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + "hypothesis_budget = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: line 6: key 'hypothesis_budget' must be "
                   "in [2, 100000], got '1'\n")
    assert not (tmp_path / "x").exists()


# test-function specs with an index out of range, a number that is not
# finite, a length that is not positive or whose square is not a normal
# float, one field too many, or a length so extreme that a derivative is not
# finite at a screen probe
BAD_SPECS = ["coord:5", "const:nan", "bump:0:inf", "hermite:2:inf",
             "bump:0:nan", "bump:nan:1", "hermite:2:0", "bump:0:-1",
             "bump:0:1:5", "hermite:2:1:9", "bump:0:1e-300", "bump:0:1e200",
             "bump:0:1e-100", "hermite:2:1e-150"]


@pytest.mark.parametrize("family, line, named", [
    ("uninformative", "param.T = -1", "param.T = -1.0"),
    ("uninformative", "param.rate2 = -3", "param.rate2 = -3.0"),
    ("uninformative", "param.mark_lo = 2", "param.mark_lo = 2.0"),
    ("uninformative", "test_functions = coord:5", "'coord:5'"),
    ("uninformative", "test_functions = hermite:-1", "'hermite:-1'"),
    ("uninformative", "test_functions = hermite:301",
     "Hermite degrees must be in [0, 300], got [301]"),
    ("uninformative", "test_functions = coord:0,coord:0",
     "'coord:0' is given twice"),
    ("uninformative", "hypothesis_budget = 100000000000",
     "'hypothesis_budget'"),
    # gates that cannot apply or cannot pass
    ("uninformative", "accept.max_kalman_gap = 1e12",
     "accept.max_kalman_gap needs"),
    ("linear_gaussian", "test_functions = quad\naccept.max_kalman_gap = 1",
     "accept.max_kalman_gap needs"),
    ("linear_gaussian", "accept.max_kalman_gap = -1",
     "'accept.max_kalman_gap' must be in [0.0, inf]"),
    ("uninformative", "accept.min_ess_fraction = 1e12",
     "'accept.min_ess_fraction' must be in [0.0, 1.0]"),
    ("uninformative", "accept.min_ess_fraction = -1",
     "'accept.min_ess_fraction' must be in [0.0, 1.0]"),
] + [("jump_free", f"test_functions = coord:0,{spec}", f"'{spec}'")
      for spec in BAD_SPECS],
    ids=["T", "rate2", "mark_lo", "coord_index", "hermite_degree",
         "hermite_ceiling",
         "duplicate_function", "hypothesis_budget", "kalman_gap_no_reference",
         "kalman_gap_no_coord", "kalman_gap_negative", "ess_fraction_high",
         "ess_fraction_negative"] + BAD_SPECS)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_bad_model_value_exits_2_with_one_message_line(tmp_path, capsys,
                                                       command, family, line,
                                                       named):
    # validate makes every check run makes before it writes anything
    cfg = write_cfg(tmp_path, f"family = {family}\nn_steps = 20\n"
                    f"n_particles = 50\n{line}\n")
    out = ["--out", str(tmp_path / "x")] if command == "run" else []
    assert main([command, "--config", cfg] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_huge_hermite_degree_is_refused_at_once(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "family = jump_free\nn_steps = 20\n"
                    "n_particles = 50\ntest_functions = hermite:1000000\n")
    started = time.perf_counter()
    assert main(["validate", "--config", cfg]) == 2
    assert time.perf_counter() - started < 1.0
    assert "must be in [0, 300]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(BASE_CFG.encode() + b"# caf\xe9\n")
    out = ["--out", str(tmp_path / "x")] if command == "run" else []
    assert main([command, "--config", str(cfg)] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ")
    assert err.count("\n") == 1 and "utf-8" in err
    assert not (tmp_path / "x").exists()


def test_hermite_functions_of_two_scales_are_two_columns(tmp_path):
    cfg = write_cfg(tmp_path, "family = jump_free\nn_steps = 10\n"
                    "n_particles = 50\nreplicas = 1\n"
                    "test_functions = coord:0,hermite:2,hermite:2:0.5\n")
    out = str(tmp_path / "herm")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "filter_000.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[-3:] == ["pi_coord:0", "pi_hermite:2", "pi_hermite:2:0.5"]


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
def test_out_at_an_existing_file_exits_2(tmp_path, capsys, sub):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    out = os.path.join(str(blocker), sub) if sub else str(blocker)
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: cannot create output directory {out!r}: "
                   f"{'File exists' if not sub else 'Not a directory'}\n")
    assert blocker.read_text() == "keep me\n"


def hostile_settings():
    """(family, settings) pairs: one schema or param.* key of the family at
    a time set to 0, -1 or 1e12 (10^11 too for an integer key, and bad
    test-function specs for test_functions), plus swapped mark bounds.
    Each value is refused by a config range, the 1e6 event ceiling or the
    hypothesis screen, or runs at the base config's 5 steps and 20
    particles."""
    out = []
    for family in FAMILIES:
        params = sorted(build_family(family).params)
        for key in list(SCHEMA) + [f"param.{p}" for p in params]:
            values = ["0", "-1", "1e12"]
            if SCHEMA.get(key, ("float",))[0] == "int":
                values.append(str(10**11))
            if key == "test_functions":
                values += ["hermite:-1", "coord:5", "coord:0,coord:0"]
            out += [(family, {key: v}) for v in values]
        if "mark_lo" in params:
            out.append((family, {"param.mark_lo": "1.2",
                                 "param.mark_hi": "0.8"}))
    return out


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(hostile_settings()))
def test_hostile_config_never_gives_a_traceback(case):
    family, overrides = case
    base = {"family": family, "n_steps": "5", "n_particles": "20"}
    text = "".join(f"{k} = {v}\n" for k, v in {**base, **overrides}.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", cfg,
                         "--out", os.path.join(tmp, "out")])
    message = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (text, message)
    assert message.count("\n") == (code != 0), (text, message)
    assert "Traceback" not in message


def test_run_hypothesis_violation_exits_3_and_leaves_running_marker(
        tmp_path, capsys):
    cfg = write_cfg(tmp_path, """\
family = uninformative
n_steps = 10
n_particles = 50
param.lam0 = 0.0005
""")
    out = str(tmp_path / "broken")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "model violation" in capsys.readouterr().err
    assert read_json(out, "manifest.json")["status"] == "running"


def test_run_acceptance_gate_failure_exits_5(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """\
family = linear_gaussian
seed = 5
n_steps = 40
n_particles = 200
accept.max_kalman_gap = 1e-9
""")
    out = str(tmp_path / "gate")
    assert main(["run", "--config", cfg, "--out", out]) == 5
    assert "acceptance failed" in capsys.readouterr().err
    verdicts = read_json(out, "verdicts.json")
    assert verdicts["accept_kalman"]["passed"] is False
    assert verdicts["accept_kalman"]["worst"] > 1e-9
    # the run itself still completes and hashes its outputs
    assert read_json(out, "manifest.json")["status"] == "complete"


def test_kalman_gap_reported_for_linear_family(tmp_path):
    cfg = write_cfg(tmp_path, """\
family = linear_gaussian
seed = 5
n_steps = 60
n_particles = 1000
accept.max_kalman_gap = 0.25
accept.min_ess_fraction = 0.05
""")
    out = str(tmp_path / "lin")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    verdicts = read_json(out, "verdicts.json")
    rep = verdicts["replicas"][0]
    assert 0.0 <= rep["kalman_gap_mean"] <= rep["kalman_gap_max"]
    assert verdicts["accept_kalman"]["passed"] is True
    assert verdicts["accept_ess"]["passed"] is True


def test_uninformative_family_gets_reduction_verdict(tmp_path):
    cfg = write_cfg(tmp_path, """\
family = uninformative
seed = 21
n_steps = 50
n_particles = 800
""")
    out = str(tmp_path / "unif")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = read_json(out, "verdicts.json")["replicas"][0]
    assert rep["reduction_passed"] is True
    for name, entry in rep["reduction"].items():
        assert entry["z"] <= 4.0
        assert entry["prior_se"] > 0.0


SMALL = ("seed = {seed}\nn_steps = {steps}\nn_particles = {particles}\n"
         "replicas = {replicas}\n")
POOL_CASES = {
    "trig": (BASE_CFG, ()),
    # the Kalman verdict fields
    "linear_gaussian": ("family = linear_gaussian\n"
                        + SMALL.format(seed=5, steps=40, particles=200,
                                       replicas=2),
                        ("kalman_gap_mean", "kalman_gap_max")),
    # the reduction verdict
    "uninformative": ("family = uninformative\n"
                      + SMALL.format(seed=21, steps=30, particles=200,
                                     replicas=2),
                      ("reduction", "reduction_passed")),
    # dense observation jumps and resampling, more replicas than workers
    "mixed": ("family = mixed\n"
              + SMALL.format(seed=3, steps=60, particles=200, replicas=3)
              + "ess_fraction = 0.8\nparam.rate2 = 60\n",
              ("observation_jumps", "resample_count")),
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_threaded_run_matches_serial_bytes(tmp_path, case):
    text, fields = POOL_CASES[case]
    cfg = write_cfg(tmp_path, text)
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "threaded")
    assert main(["run", "--config", cfg, "--out", out1]) == 0
    assert main(["run", "--config", cfg, "--out", out2, "--threads", "2"]) == 0
    assert read_json(out1, "manifest.json")["files"] == \
        read_json(out2, "manifest.json")["files"]
    assert main(["replay", "--out", out2, "--threads", "2"]) == 0
    for rep in read_json(out2, "verdicts.json")["replicas"]:
        assert all(field in rep for field in fields)
        if case == "mixed":
            assert rep["observation_jumps"] > 0
            assert rep["resample_count"] > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_worker_error_keeps_its_exit_code(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path, """\
family = uninformative
n_steps = 20
n_particles = 50
replicas = 2
validate_hypotheses = false
param.lam0 = 1.5
""")
    out = str(tmp_path / "bad")
    assert main(["run", "--config", cfg, "--out", out,
                 "--threads", threads]) == 3
    assert "acceptance probability 1.5 outside (0,1)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "replay"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_rejected(tmp_path, capsys, command, threads):
    args = ["--out", str(tmp_path / "out"), "--threads", threads]
    if command == "run":
        args += ["--config", write_cfg(tmp_path, BASE_CFG)]
    with pytest.raises(SystemExit) as exc:
        main([command] + args)
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_replica_runs_without_a_pool(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked for one replica")

    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 1"))
    out1 = str(tmp_path / "serial")
    assert main(["run", "--config", cfg, "--out", out1]) == 0
    monkeypatch.setattr(os, "fork", no_fork)
    out2 = str(tmp_path / "threaded")
    assert main(["run", "--config", cfg, "--out", out2, "--threads", "2"]) == 0
    assert read_json(out1, "manifest.json")["files"] == \
        read_json(out2, "manifest.json")["files"]


def test_worker_pool_without_fork_is_a_config_error(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.delattr(os, "fork")
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "2"]) == 2
    assert "fork start method" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_replica(monkeypatch, failing, fail):
    """Make cli._run_replica call ``fail`` for the replicas in ``failing``."""
    from levyfilter import cli
    run_replica = cli._run_replica

    def patched(scen, funcs, cfg, seed_r, out_dir, index):
        if index in failing:
            fail(index)
        return run_replica(scen, funcs, cfg, seed_r, out_dir, index)

    monkeypatch.setattr(cli, "_run_replica", patched)


def raise_violation(index):
    raise ModelViolationError(f"replica {index} broke")


# with 3 replicas on 2 workers the command process runs replicas 0 and 2, and
# one forked child runs replica 1
@pytest.mark.parametrize("failing, named", [
    ({1}, "replica 1 broke"), ({2}, "replica 2 broke"),
    ({1, 2}, "replica 1 broke"), ({0, 1}, "replica 0 broke")],
    ids=["child", "command", "both-child-lower", "both-command-lower"])
def test_replica_error_in_either_process_keeps_the_serial_exit_code(
        tmp_path, capsys, monkeypatch, failing, named):
    fail_replica(monkeypatch, failing, raise_violation)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 3"))
    for threads in ("1", "2"):
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / threads), "--threads", threads]) == 3
        assert f"model violation: {named}" in capsys.readouterr().err
        assert_no_child_left()


@pytest.mark.parametrize("how", ["no-results", "bad-status"])
def test_child_that_dies_without_its_results_is_an_error(tmp_path,
                                                         monkeypatch, how):
    if how == "no-results":
        fail_replica(monkeypatch, {3}, lambda index: os._exit(9))
    else:   # all its results sent, then a non-zero exit
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(9))
    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 4"))
    with pytest.raises(RuntimeError,
                       match="replicas 1, 3 ended with status 9"):
        main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
              "--threads", "2"])
    assert_no_child_left()
    manifest = read_json(str(tmp_path / "out"), "manifest.json")
    assert manifest["status"] == "running"


def test_command_failure_does_not_wait_for_later_replicas(tmp_path, capsys,
                                                         monkeypatch):
    def fail(index):
        if index == 0:
            raise_violation(index)
        time.sleep(30)      # replica 1, in the forked child

    fail_replica(monkeypatch, {0, 1}, fail)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 3"))
    started = time.perf_counter()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "2"]) == 3
    assert time.perf_counter() - started < 5.0
    assert "model violation: replica 0 broke" in capsys.readouterr().err
    assert_no_child_left()


def test_child_failure_does_not_wait_for_the_commands_later_replicas(
        tmp_path, capsys, monkeypatch):
    def fail(index):
        if index == 0:
            time.sleep(1.0)     # short, and the child has failed by its end
        elif index == 1:
            raise_violation(index)      # in the forked child, at once
        else:
            time.sleep(30)      # replica 2, the command's next

    fail_replica(monkeypatch, {0, 1, 2}, fail)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 3"))
    started = time.perf_counter()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "2"]) == 3
    assert time.perf_counter() - started < 5.0
    assert "model violation: replica 1 broke" in capsys.readouterr().err
    assert_no_child_left()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_scenario_is_built_once_per_run_and_replay(tmp_path, monkeypatch,
                                                   threads):
    from levyfilter import cli
    calls = []
    build = cli.build_scenario

    def counted(cfg):
        calls.append(os.getpid())
        return build(cfg)

    monkeypatch.setattr(cli, "build_scenario", counted)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 3"))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out,
                 "--threads", threads]) == 0
    assert calls == [os.getpid()]
    assert main(["replay", "--out", out, "--threads", threads]) == 0
    assert calls == [os.getpid()] * 2


def test_interrupt_in_the_command_process_reaps_the_children(tmp_path,
                                                             monkeypatch):
    def interrupt(index):
        raise KeyboardInterrupt

    fail_replica(monkeypatch, {0}, interrupt)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("replicas = 2", "replicas = 3"))
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
              "--threads", "3"])
    assert_no_child_left()


# --- replay ------------------------------------------------------------------------

def test_replay_reproduces_bytes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "orig")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["replay", "--out", out]) == 0
    assert "byte-identical" in capsys.readouterr().out


def _edit_seed(path):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("seed = 11", "seed = 12"))


def _edit_last_digit(path):
    # one byte of the final row: still a well-formed CSV
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize("name,edit", [("config.cfg", _edit_seed),
                                       ("filter_000.csv", _edit_last_digit)],
                         ids=["config.cfg", "filter_000.csv"])
def test_replay_detects_config_tampering(tmp_path, capsys, name, edit):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "tamper")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    edit(os.path.join(out, name))
    assert main(["replay", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "replay mismatch" in err and name in err


def test_replay_detects_rerun_that_differs(tmp_path, capsys):
    # an edited config whose new hash is written into the manifest passes the
    # check of the stored files, so the re-run itself must catch it
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "rerun")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    cfg_path = os.path.join(out, "config.cfg")
    _edit_seed(cfg_path)
    manifest = read_json(out, "manifest.json")
    manifest["files"]["config.cfg"] = sha256(cfg_path)
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    assert main(["replay", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "produced different bytes" in err and "filter_000.csv" in err


def test_replay_requires_completed_run(tmp_path, capsys):
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["replay", "--out", str(out)]) == 2
    (out / "manifest.json").write_text('{"status": "running", "files": {}}\n')
    assert main(["replay", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("text", [
    '{"status": "complete", "files": {"config.cfg"',
    '{"status": "complete"}\n',
    '["status", "complete"]\n',
], ids=["truncated", "no-files", "not-an-object"])
def test_replay_of_a_malformed_manifest_is_a_config_error(tmp_path, capsys,
                                                          text):
    out = tmp_path / "malformed"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert main(["replay", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "manifest" in err


# --- start-up ------------------------------------------------------------------------

RUN_PATH_MODULES = ["levyfilter.cli", "levyfilter.filtering",
                    "levyfilter.girsanov", "levyfilter.propagation",
                    "levyfilter.simulate", "levyfilter.levy",
                    "levyfilter.oracle", "numpy.polynomial"]


# validate builds the test functions, as run does before it writes anything
@pytest.mark.parametrize("args, modules", [
    (["validate", "--config", "perfbench/workloads/jumps.cfg"],
     RUN_PATH_MODULES),
    (["list-families"], RUN_PATH_MODULES + ["levyfilter.testfuncs"])],
    ids=["validate", "list-families"])
def test_screen_commands_load_no_run_path_module(args, modules):
    # `python -m levyfilter` in a fresh interpreter, then the modules it left
    code = ("import runpy, sys\n"
            f"sys.argv = ['levyfilter', *{args!r}]\n"
            "try:\n"
            "    runpy.run_module('levyfilter', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code)\n"
            f"print('loaded', [m for m in {modules!r} "
            "if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["exit 0", "loaded []"]


@pytest.mark.parametrize("name, module", [
    ("build_family", "families"), ("ks_residual", "filtering"),
    ("zakai_filter", "filtering"), ("kalman_bucy", "oracle"),
    ("derive_seed", "rng"), ("coarsen_observation", "simulate"),
    ("project_observation", "simulate"), ("simulate_path", "simulate")])
def test_lazy_package_name_is_its_module_attribute(name, module):
    module = importlib.import_module(f"levyfilter.{module}")
    assert getattr(levyfilter, name) is getattr(module, name)


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        levyfilter.no_such_name
    from levyfilter import cli
    assert cli.main is main


def test_console_script_is_the_command_line_main():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["levyfilter"]
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
