"""Bundled scenario families.

Each family is a builder that turns a flat parameter dict into a
Scenario: a SystemSpec plus a prior sampler, an observation start value,
and (when one exists) the matching closed-form linear reference.  All
bundled families are scalar (n = m = d = 1), and every bundled lambda
ignores its mark and returns the shape of the x batch alone, so the
filter's lambda-bar is lambda(t, x) itself, exact and O(N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .model import LevyMeasureSpec, SystemSpec

if TYPE_CHECKING:
    from .oracle import LinearSpec


@dataclass
class Scenario:
    """A runnable configuration: system, prior, and reference solution."""

    name: str
    spec: SystemSpec
    prior_sampler: object
    y0: np.ndarray
    description: str
    params: dict = field(default_factory=dict)
    linear: LinearSpec | None = None


def _zero_jump(t, s, u):
    s = np.asarray(s, float)
    u = np.asarray(u, float)
    return 0.0 * s + 0.0 * u


def _const_matrix(value):
    mat = np.atleast_2d(np.asarray(value, float))

    def coeff(t, s):
        return mat

    return coeff


def _resolve(defaults, params, family):
    out = dict(defaults)
    for key, val in (params or {}).items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise ConfigError(
                f"unknown parameter {key!r} for family {family!r}; "
                f"known parameters: {known}")
        out[key] = float(val)
    return out


def _sigmoid_lam(lam0, slope):
    span = 1.0 - 2.0 * lam0

    def lam(t, x, u):
        x = np.asarray(x, float)
        # far out on the lam0 side exp overflows to inf, which gives lam0
        with np.errstate(over="ignore"):
            return lam0 + span / (1.0 + np.exp(-slope * x[..., 0]))

    return lam


def _linear_drift(a):
    """The drift b1(t, x) = a x."""
    def b1(t, x):
        return a * np.asarray(x, float)

    return b1


def _affine_drift(a, b):
    """The drift b1(t, x) = a x + b."""
    def b1(t, x):
        return a * np.asarray(x, float) + b

    return b1


def _arctan_sensor(beta):
    """The observation drift b2(t, x, y) = beta arctan(x)."""
    def b2(t, x, y):
        return beta * np.arctan(np.asarray(x, float))

    return b2


def _mark_jump(scale):
    """A jump f(t, s, u) proportional to its mark u."""
    def f(t, s, u):
        return scale * np.asarray(u, float)

    return f


def _const_lam(value):
    def lam(t, x, u):
        return value + 0.0 * np.asarray(x, float)[..., 0]

    return lam


def _scalar(name, p, doc, b1, b2, s0, s1, r, f1=_zero_jump, f2=_zero_jump,
            lam=None, nu1=None, nu2=None, linear=None):
    """The Scenario of a scalar family (n = m = d = 1): drifts b1 and b2,
    constant noise loadings sigma0 = s0, sigma1 = s1 and sigma2 = r, no
    jumps unless given, lambda = 0.5 unless given, and the Gaussian prior
    of p's prior_mean and prior_std."""
    mean, std = p["prior_mean"], p["prior_std"]

    def prior(rng, size):
        return mean + std * rng.standard_normal((int(size), 1))

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(s0), sigma1=_const_matrix(s1),
        f1=f1, b2=b2, sigma2=_const_matrix(r), f2=f2,
        lam=_const_lam(0.5) if lam is None else lam,
        nu1=LevyMeasureSpec.none() if nu1 is None else nu1,
        nu2=LevyMeasureSpec.none() if nu2 is None else nu2,
        T=p["T"], name=name)
    return Scenario(name, spec, prior, np.array([p["y0"]]), doc, p, linear)


def _linear_gaussian(params=None):
    """Linear drifts with a sensor gain saturated far outside the
    operating range; the correlated-gain Kalman recursion is exact here."""
    p = _resolve(dict(a=-1.0, s0=0.5, s1=0.5, gain=1.0, r=1.0, clip=25.0,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=1.0),
                 params, "linear_gaussian")

    def b2(t, x, y):
        return p["gain"] * np.clip(np.asarray(x, float), -p["clip"], p["clip"])

    # imported here, as the one family with a linear reference: the oracle
    # is not loaded to screen any other family
    from .oracle import LinearSpec
    linear = LinearSpec(A=p["a"], Sigma0=p["s0"], Sigma1=p["s1"],
                        H=p["gain"], R=p["r"], x0_mean=[p["prior_mean"]],
                        x0_cov=p["prior_std"] ** 2)
    return _scalar("linear_gaussian", p, _linear_gaussian.__doc__,
                   _linear_drift(p["a"]), b2, p["s0"], p["s1"], p["r"],
                   linear=linear)


def _affine(params=None):
    """Affine signal and observation drifts (nonzero offsets, no
    saturation); cross-checked against the brute-force oracle."""
    p = _resolve(dict(a=-1.2, drift_b=0.3, s0=0.4, s1=0.3, gain=0.8,
                      offset=0.2, r=1.0, prior_mean=0.0, prior_std=0.9,
                      y0=0.0, T=1.0),
                 params, "affine")

    def b2(t, x, y):
        return p["gain"] * np.asarray(x, float) + p["offset"]

    return _scalar("affine", p, _affine.__doc__,
                   _affine_drift(p["a"], p["drift_b"]), b2,
                   p["s0"], p["s1"], p["r"])


def _saturated_affine(params=None):
    """Affine family with the observation drift clipped, keeping the
    sensor globally bounded while staying affine where the state lives."""
    p = _resolve(dict(a=-1.2, drift_b=0.3, s0=0.4, s1=0.3, gain=0.8,
                      offset=0.2, clip=10.0, r=1.0, prior_mean=0.0,
                      prior_std=0.9, y0=0.0, T=1.0),
                 params, "saturated_affine")

    def b2(t, x, y):
        xc = np.clip(np.asarray(x, float), -p["clip"], p["clip"])
        return p["gain"] * xc + p["offset"]

    return _scalar("saturated_affine", p, _saturated_affine.__doc__,
                   _affine_drift(p["a"], p["drift_b"]), b2,
                   p["s0"], p["s1"], p["r"])


def _trig(params=None):
    """Sinusoidal drift and sensor, continuous paths only; genuinely
    nonlinear but globally bounded and Lipschitz."""
    p = _resolve(dict(a=-1.0, s0=0.45, s1=0.35, beta=1.0, r=1.0,
                      prior_mean=0.0, prior_std=0.8, y0=0.0, T=1.0),
                 params, "trig")

    def b1(t, x):
        return p["a"] * np.sin(np.asarray(x, float))

    def b2(t, x, y):
        return p["beta"] * np.sin(np.asarray(x, float))

    return _scalar("trig", p, _trig.__doc__, b1, b2, p["s0"], p["s1"], p["r"])


def _uninformative(params=None):
    """Observation drift and jump intensity carry no state dependence and
    the noise channels are unshared, so conditioning returns the prior."""
    p = _resolve(dict(a=-1.0, s0=0.7, beta=0.4, r=1.0, lam0=0.5,
                      rate2=0.8, jump2=0.5, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.3, prior_std=0.8, y0=0.0, T=1.0),
                 params, "uninformative")

    def b2(t, x, y):
        x = np.asarray(x, float)
        return p["beta"] + 0.0 * x

    return _scalar(
        "uninformative", p, _uninformative.__doc__, _linear_drift(p["a"]),
        b2, p["s0"], 0.0, p["r"], f2=_mark_jump(p["jump2"]),
        lam=_const_lam(p["lam0"]),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]))


def _jump_free(params=None):
    """Nonlinear sensor, shared Brownian driver, no jumps on either
    channel; the Brownian part of the likelihood weight in isolation."""
    p = _resolve(dict(a=-1.0, s0=0.5, s1=0.4, beta=1.0, r=1.0,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=0.5),
                 params, "jump_free")

    return _scalar("jump_free", p, _jump_free.__doc__, _linear_drift(p["a"]),
                   _arctan_sensor(p["beta"]), p["s0"], p["s1"], p["r"])


def _jump_only(params=None):
    """Zero observation drift: all state information arrives through the
    thinned jump channel and the shared diffusion coupling."""
    p = _resolve(dict(a=-1.0, s0=0.6, s1=0.3, r=1.0, lam0=0.05, slope=1.0,
                      rate2=1.0, jump2=0.4, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=0.5),
                 params, "jump_only")

    def b2(t, x, y):
        return 0.0 * np.asarray(x, float)

    return _scalar(
        "jump_only", p, _jump_only.__doc__, _linear_drift(p["a"]), b2,
        p["s0"], p["s1"], p["r"], f2=_mark_jump(p["jump2"]),
        lam=_sigmoid_lam(p["lam0"], p["slope"]),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]))


def _mixed(params=None):
    """Every channel active: signal jumps, thinned observation jumps, a
    nonlinear sensor, and a shared Brownian driver."""
    p = _resolve(dict(a=-1.0, s0=0.4, s1=0.3, jump1=0.3, rate1=0.5,
                      beta=0.8, r=1.0, lam0=0.05, slope=1.0,
                      rate2=0.8, jump2=0.35, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=1.0),
                 params, "mixed")

    return _scalar(
        "mixed", p, _mixed.__doc__, _linear_drift(p["a"]),
        _arctan_sensor(p["beta"]), p["s0"], p["s1"], p["r"],
        f1=_mark_jump(p["jump1"]), f2=_mark_jump(p["jump2"]),
        lam=_sigmoid_lam(p["lam0"], p["slope"]),
        nu1=LevyMeasureSpec.gaussian(0.0, 1.0, p["rate1"]),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]))


def _sensor_saturated(params=None):
    """Observation built from an orthogonal mix of the signal's Brownian
    driver and an independent one, with a bounded nonlinear sensor."""
    p = _resolve(dict(a=-1.0, s1=0.5, jump1=0.25, rate1=0.4, beta=0.9,
                      theta=0.6, lam0=0.05, slope=1.0, rate2=0.6,
                      jump2=0.4, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=0.75),
                 params, "sensor_saturated")

    # The signal noise s1 dV and the observation noise cos(theta) dV
    # + sin(theta) dV', for independent V and V', in the model's basis:
    # W = cos(theta) V + sin(theta) V' and B = sin(theta) V - cos(theta) V'
    # are independent, and V = cos(theta) W + sin(theta) B.
    return _scalar(
        "sensor_saturated", p, _sensor_saturated.__doc__,
        _linear_drift(p["a"]), _arctan_sensor(p["beta"]),
        p["s1"] * abs(np.sin(p["theta"])), p["s1"] * np.cos(p["theta"]), 1.0,
        f1=_mark_jump(p["jump1"]), f2=_mark_jump(p["jump2"]),
        lam=_sigmoid_lam(p["lam0"], p["slope"]),
        nu1=LevyMeasureSpec.gaussian(0.0, 1.0, p["rate1"]),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]))


FAMILIES = {
    "linear_gaussian": _linear_gaussian,
    "affine": _affine,
    "saturated_affine": _saturated_affine,
    "trig": _trig,
    "uninformative": _uninformative,
    "jump_free": _jump_free,
    "jump_only": _jump_only,
    "mixed": _mixed,
    "sensor_saturated": _sensor_saturated,
}


def build_family(name, params=None):
    try:
        builder = FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"unknown family {name!r}; known families: {known}")
    try:
        return builder(params)
    except ValueError as exc:
        # a value the model rejects: name the family and the parameters set
        given = "".join(f", param.{k} = {v}"
                        for k, v in (params or {}).items())
        raise ConfigError(f"family {name!r}{given}: {exc}") from exc


def list_families():
    """(name, one-line description) pairs in registry order."""
    out = []
    for name, builder in FAMILIES.items():
        doc = " ".join((builder.__doc__ or "").split())
        out.append((name, doc))
    return out
