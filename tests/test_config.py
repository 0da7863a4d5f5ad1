"""Run configurations: parsing, validation errors, canonical round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter.config import (ScenarioConfig, config_to_text, parse_config,
                               parse_config_file)
from levyfilter.errors import ConfigError

MINIMAL = """\
family = trig
n_steps = 100
n_particles = 500
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.family == "trig"
    assert cfg.n_steps == 100 and cfg.n_particles == 500
    assert cfg.seed == 0 and cfg.replicas == 1
    assert cfg.ess_fraction == 0.5
    assert cfg.validate_hypotheses is True
    assert cfg.accept_max_kalman_gap is None
    assert cfg.params == {}
    assert cfg.function_names() == ["coord:0", "quad"]


def test_comments_blanks_and_params_parse():
    cfg = parse_config("""
        # a run with overrides
        family = mixed
        n_steps = 50
        n_particles = 100
        seed = 7
        param.rate1 = 2.5
        param.jump1 = 0.1
        accept.min_ess_fraction = 0.2
    """)
    assert cfg.seed == 7
    assert cfg.params == {"rate1": 2.5, "jump1": 0.1}
    assert cfg.accept_min_ess_fraction == 0.2


@pytest.mark.parametrize("text,fragment", [
    ("family = trig\nn_particles = 5\n", "missing required key 'n_steps'"),
    ("family = trig\nn_steps = 1\nn_particles = x\n", "expects an integer"),
    ("family = trig\nn_steps = 1\nn_particles = 5\ness_fraction = nan\n",
     "must be finite"),
    ("family = trig\nn_steps = 1\nn_particles = 5\n"
     "validate_hypotheses = yes\n", "expects true or false"),
    ("family = trig\nn_steps = 1\nn_particles = 5\nbogus = 1\n",
     "unknown key"),
    ("family = trig\nn_steps = 1\nn_particles = 5\nstore_clouds = true\n",
     "unknown key"),
    ("family = trig\nn_steps = 1\nn_steps = 2\nn_particles = 5\n",
     "duplicate key"),
    ("family = trig\nn_steps 1\n", "expected key = value"),
    ("family = trig\nn_steps = 1\nn_particles = 5\nparam. = 1\n",
     "empty parameter name"),
    ("family = trig\nn_steps = 1\nn_particles = 5\n"
     "param.a = 1\nparam.a = 2\n", "duplicate key"),
    ("family = trig\nn_steps = 0\nn_particles = 5\n",
     r"line 2: key 'n_steps' must be in \[1, 1000000\], got '0'"),
    ("family = trig\nn_steps = 1\nn_particles = 0\n",
     r"line 3: key 'n_particles' must be in \[1, 1000000\]"),
    ("family = trig\nn_steps = 1\nn_particles = 5\nreplicas = 0\n",
     r"line 4: key 'replicas' must be in \[1, 10000\]"),
    ("family = trig\nn_steps = 1\nn_particles = 5\nhypothesis_budget = 1\n",
     r"line 4: key 'hypothesis_budget' must be in \[2, 100000\]"),
    ("family = trig\nn_steps = 1\nn_particles = 5\ness_fraction = -1\n",
     r"line 4: key 'ess_fraction' must be in \[0\.0, 1\.0\]"),
    ("family = trig\nn_steps = 1\nn_particles = 5\ness_fraction = 1.5\n",
     r"line 4: key 'ess_fraction' must be in \[0\.0, 1\.0\]"),
])
def test_parse_errors_carry_line_context(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config_file(tmp_path / "absent.cfg")
    p = tmp_path / "ok.cfg"
    p.write_text(MINIMAL)
    assert parse_config_file(p).family == "trig"


def test_canonical_text_round_trip():
    cfg = parse_config(MINIMAL)
    text = config_to_text(cfg)
    assert parse_config(text) == cfg
    # canonical form is a fixed point
    assert config_to_text(parse_config(text)) == text
    # None-valued acceptance keys are omitted entirely
    assert "accept." not in text


def test_canonical_text_orders_params():
    cfg = ScenarioConfig(family="mixed", n_steps=10, n_particles=20,
                         params={"z_last": 1.0, "a_first": 2.0})
    text = config_to_text(cfg)
    assert text.index("param.a_first") < text.index("param.z_last")
    assert parse_config(text) == cfg


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       steps=st.integers(1, 10**6),
       particles=st.integers(1, 10**6),
       ess=st.floats(0.0, 1.0, allow_nan=False),
       pval=st.floats(-1e6, 1e6, allow_nan=False))
def test_round_trip_property(seed, steps, particles, ess, pval):
    cfg = ScenarioConfig(family="jump_only", n_steps=steps,
                         n_particles=particles, seed=seed,
                         ess_fraction=ess,
                         accept_max_kalman_gap=0.25,
                         params={"rate2": pval})
    back = parse_config(config_to_text(cfg))
    assert back == cfg
