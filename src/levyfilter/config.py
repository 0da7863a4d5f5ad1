"""Flat key=value run configurations with a typed schema.

A config names a scenario family, sizes the run (grid, cloud, replicas),
and may override family parameters through ``param.<name>`` keys.  The
canonical text form is stable under parse/serialize round trips, which
the replay machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

_REQUIRED = object()

# key -> (type tag, default); _REQUIRED means the config must set it
SCHEMA = {
    "family": ("str", _REQUIRED),
    "seed": ("int", 0),
    "n_steps": ("int", _REQUIRED),
    "n_particles": ("int", _REQUIRED),
    "replicas": ("int", 1),
    "ess_fraction": ("float", 0.5),
    "test_functions": ("str", "coord:0,quad"),
    "validate_hypotheses": ("bool", True),
    "hypothesis_budget": ("int", 200),
    "accept.max_kalman_gap": ("float", None),
    "accept.min_ess_fraction": ("float", None),
}

_FIELD_FOR_KEY = {key: key.replace(".", "_") for key in SCHEMA}

# key -> (least, greatest) value a run can use.  The greatest values keep
# an absurd size from reaching numpy or the replica loop: a path and a
# cloud hold O(n_steps) and O(n_particles) floats, and the hypothesis
# screen takes about 35 us and 5 kB per probe point (0.70 s and 100 MB at
# 20,000 on mixed, 2-vCPU VM), so 1e5 points cost seconds, not the 745 GiB
# that 1e11 asked for.
RANGES = {
    "n_steps": (1, 10**6),
    "n_particles": (1, 10**6),
    "replicas": (1, 10**4),
    "hypothesis_budget": (2, 10**5),
    "ess_fraction": (0.0, 1.0),
    "accept.max_kalman_gap": (0.0, math.inf),
    "accept.min_ess_fraction": (0.0, 1.0),
}


@dataclass
class ScenarioConfig:
    family: str
    n_steps: int
    n_particles: int
    seed: int = 0
    replicas: int = 1
    ess_fraction: float = 0.5
    test_functions: str = "coord:0,quad"
    validate_hypotheses: bool = True
    hypothesis_budget: int = 200
    accept_max_kalman_gap: float | None = None
    accept_min_ess_fraction: float | None = None
    params: dict = field(default_factory=dict)

    def function_names(self):
        return [s.strip() for s in self.test_functions.split(",") if s.strip()]


def _parse_value(key, tag, raw, lineno):
    where = f"line {lineno}: key {key!r}"
    if tag == "str":
        return raw
    if tag == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where} expects an integer, got {raw!r}")
    if tag == "float":
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{where} expects a number, got {raw!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{where} must be finite, got {raw!r}")
        return val
    if tag == "bool":
        low = raw.strip().lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ConfigError(f"{where} expects true or false, got {raw!r}")
    raise AssertionError(tag)


def parse_config(text):
    seen = {}
    params = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("param."):
            name = key[len("param."):]
            if not name:
                raise ConfigError(f"line {lineno}: empty parameter name")
            if name in params:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            params[name] = _parse_value(key, "float", raw, lineno)
            continue
        if key not in SCHEMA:
            known = ", ".join(sorted(SCHEMA))
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; known keys: {known} "
                "plus param.<name>")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        value = _parse_value(key, SCHEMA[key][0], raw, lineno)
        lo, hi = RANGES.get(key, (None, None))
        if lo is not None and not lo <= value <= hi:
            raise ConfigError(f"line {lineno}: key {key!r} must be in "
                              f"[{lo}, {hi}], got {raw!r}")
        seen[key] = value

    kwargs = {}
    for key, (tag, default) in SCHEMA.items():
        if key in seen:
            kwargs[_FIELD_FOR_KEY[key]] = seen[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            kwargs[_FIELD_FOR_KEY[key]] = default
    kwargs["params"] = params
    return ScenarioConfig(**kwargs)


def parse_config_file(path, seed=None):
    """The config in the file ``path``, with ``seed`` (the ``--seed`` of a
    command) in place of its own seed if given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    cfg = parse_config(text)
    if seed is not None:
        cfg.seed = seed
    return cfg


def _format_value(tag, value):
    if tag == "bool":
        return "true" if value else "false"
    if tag == "float":
        return format(float(value), ".17g")
    return str(value)


def config_to_text(cfg):
    """Canonical serialization: schema order, then sorted parameters."""
    lines = []
    for key, (tag, default) in SCHEMA.items():
        value = getattr(cfg, _FIELD_FOR_KEY[key])
        if value is None:
            continue
        lines.append(f"{key} = {_format_value(tag, value)}")
    for name in sorted(cfg.params):
        lines.append(f"param.{name} = {_format_value('float', cfg.params[name])}")
    return "\n".join(lines) + "\n"
