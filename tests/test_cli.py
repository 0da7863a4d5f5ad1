"""Command-line surface: run/replay/validate/list-families, exit codes,
manifest hashing, acceptance gates."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import __version__
from levyfilter.cli import main
from levyfilter.config import SCHEMA, config_to_text, parse_config
from levyfilter.families import FAMILIES, build_family

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


def test_validate_passes_for_bundled_family(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "hypothesis checks passed" in out


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


@pytest.mark.parametrize("family, line, named", [
    ("uninformative", "param.T = -1", "param.T = -1.0"),
    ("uninformative", "param.rate2 = -3", "param.rate2 = -3.0"),
    ("uninformative", "param.mark_lo = 2", "param.mark_lo = 2.0"),
    ("uninformative", "test_functions = coord:5", "'coord:5'"),
    ("uninformative", "test_functions = hermite:-1", "'hermite:-1'"),
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
], ids=["T", "rate2", "mark_lo", "coord_index", "hermite_degree",
        "duplicate_function", "hypothesis_budget", "kalman_gap_no_reference",
        "kalman_gap_no_coord", "kalman_gap_negative", "ess_fraction_high",
        "ess_fraction_negative"])
def test_bad_model_value_exits_2_with_one_message_line(tmp_path, capsys,
                                                       family, line, named):
    cfg = write_cfg(tmp_path, f"family = {family}\nn_steps = 20\n"
                    f"n_particles = 50\n{line}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


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


def test_worker_pool_without_fork_is_a_config_error(tmp_path, capsys,
                                                     monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "2"]) == 2
    assert "fork start method" in capsys.readouterr().err


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
