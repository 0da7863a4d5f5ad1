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

import numpy as np

from .errors import ConfigError
from .model import FEEDBACK, SENSOR, LevyMeasureSpec, SystemSpec
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


def _gaussian_prior(mean, std):
    mean = float(mean)
    std = float(std)

    def sampler(rng, size):
        return mean + std * rng.standard_normal((int(size), 1))

    return sampler


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
        return lam0 + span / (1.0 + np.exp(-slope * x[..., 0]))

    return lam


def _const_lam(value):
    def lam(t, x, u):
        return value + 0.0 * np.asarray(x, float)[..., 0]

    return lam


def _linear_gaussian(params=None):
    """Linear drifts with a sensor gain saturated far outside the
    operating range; the correlated-gain Kalman recursion is exact here."""
    p = _resolve(dict(a=-1.0, s0=0.5, s1=0.5, gain=1.0, r=1.0, clip=25.0,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=1.0),
                 params, "linear_gaussian")

    def b1(t, x):
        return p["a"] * np.asarray(x, float)

    def b2(t, x, y):
        return p["gain"] * np.clip(np.asarray(x, float), -p["clip"], p["clip"])

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=_zero_jump,
        lam=_const_lam(0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(),
        T=p["T"], variant=FEEDBACK, name="linear_gaussian")
    linear = LinearSpec(A=p["a"], Sigma0=p["s0"], Sigma1=p["s1"],
                        H=p["gain"], R=p["r"], x0_mean=[p["prior_mean"]],
                        x0_cov=p["prior_std"] ** 2)
    return Scenario("linear_gaussian", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _linear_gaussian.__doc__, p, linear)


def _affine(params=None):
    """Affine signal and observation drifts (nonzero offsets, no
    saturation); cross-checked against the brute-force oracle."""
    p = _resolve(dict(a=-1.2, drift_b=0.3, s0=0.4, s1=0.3, gain=0.8,
                      offset=0.2, r=1.0, prior_mean=0.0, prior_std=0.9,
                      y0=0.0, T=1.0),
                 params, "affine")

    def b1(t, x):
        return p["a"] * np.asarray(x, float) + p["drift_b"]

    def b2(t, x, y):
        return p["gain"] * np.asarray(x, float) + p["offset"]

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=_zero_jump,
        lam=_const_lam(0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(),
        T=p["T"], variant=FEEDBACK, name="affine")
    return Scenario("affine", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _affine.__doc__, p)


def _saturated_affine(params=None):
    """Affine family with the observation drift clipped, keeping the
    sensor globally bounded while staying affine where the state lives."""
    p = _resolve(dict(a=-1.2, drift_b=0.3, s0=0.4, s1=0.3, gain=0.8,
                      offset=0.2, clip=10.0, r=1.0, prior_mean=0.0,
                      prior_std=0.9, y0=0.0, T=1.0),
                 params, "saturated_affine")

    def b1(t, x):
        return p["a"] * np.asarray(x, float) + p["drift_b"]

    def b2(t, x, y):
        xc = np.clip(np.asarray(x, float), -p["clip"], p["clip"])
        return p["gain"] * xc + p["offset"]

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=_zero_jump,
        lam=_const_lam(0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(),
        T=p["T"], variant=FEEDBACK, name="saturated_affine")
    return Scenario("saturated_affine", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _saturated_affine.__doc__, p)


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

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=_zero_jump,
        lam=_const_lam(0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(),
        T=p["T"], variant=FEEDBACK, name="trig")
    return Scenario("trig", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _trig.__doc__, p)


def _uninformative(params=None):
    """Observation drift and jump intensity carry no state dependence and
    the noise channels are unshared, so conditioning returns the prior."""
    p = _resolve(dict(a=-1.0, s0=0.7, beta=0.4, r=1.0, lam0=0.5,
                      rate2=0.8, jump2=0.5, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.3, prior_std=0.8, y0=0.0, T=1.0),
                 params, "uninformative")

    def b1(t, x):
        return p["a"] * np.asarray(x, float)

    def b2(t, x, y):
        x = np.asarray(x, float)
        return p["beta"] + 0.0 * x

    def f2(t, y, u):
        return p["jump2"] * np.asarray(u, float)

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(0.0),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=f2,
        lam=_const_lam(p["lam0"]),
        nu1=LevyMeasureSpec.none(),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]),
        T=p["T"], variant=FEEDBACK, name="uninformative")
    return Scenario("uninformative", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _uninformative.__doc__, p)


def _jump_free(params=None):
    """Nonlinear sensor, shared Brownian driver, no jumps on either
    channel; the Brownian part of the likelihood weight in isolation."""
    p = _resolve(dict(a=-1.0, s0=0.5, s1=0.4, beta=1.0, r=1.0,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=0.5),
                 params, "jump_free")

    def b1(t, x):
        return p["a"] * np.asarray(x, float)

    def b2(t, x, y):
        return p["beta"] * np.arctan(np.asarray(x, float))

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=_zero_jump,
        lam=_const_lam(0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(),
        T=p["T"], variant=FEEDBACK, name="jump_free")
    return Scenario("jump_free", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _jump_free.__doc__, p)


def _jump_only(params=None):
    """Zero observation drift: all state information arrives through the
    thinned jump channel and the shared diffusion coupling."""
    p = _resolve(dict(a=-1.0, s0=0.6, s1=0.3, r=1.0, lam0=0.05, slope=1.0,
                      rate2=1.0, jump2=0.4, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=0.5),
                 params, "jump_only")

    def b1(t, x):
        return p["a"] * np.asarray(x, float)

    def b2(t, x, y):
        return 0.0 * np.asarray(x, float)

    def f2(t, y, u):
        return p["jump2"] * np.asarray(u, float)

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=_zero_jump, b2=b2, sigma2=_const_matrix(p["r"]), f2=f2,
        lam=_sigmoid_lam(p["lam0"], p["slope"]),
        nu1=LevyMeasureSpec.none(),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]),
        T=p["T"], variant=FEEDBACK, name="jump_only")
    return Scenario("jump_only", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _jump_only.__doc__, p)


def _mixed(params=None):
    """Every channel active: signal jumps, thinned observation jumps, a
    nonlinear sensor, and a shared Brownian driver."""
    p = _resolve(dict(a=-1.0, s0=0.4, s1=0.3, jump1=0.3, rate1=0.5,
                      beta=0.8, r=1.0, lam0=0.05, slope=1.0,
                      rate2=0.8, jump2=0.35, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=1.0),
                 params, "mixed")

    def b1(t, x):
        return p["a"] * np.asarray(x, float)

    def f1(t, x, u):
        return p["jump1"] * np.asarray(u, float)

    def b2(t, x, y):
        return p["beta"] * np.arctan(np.asarray(x, float))

    def f2(t, y, u):
        return p["jump2"] * np.asarray(u, float)

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(p["s0"]), sigma1=_const_matrix(p["s1"]),
        f1=f1, b2=b2, sigma2=_const_matrix(p["r"]), f2=f2,
        lam=_sigmoid_lam(p["lam0"], p["slope"]),
        nu1=LevyMeasureSpec.gaussian(0.0, 1.0, p["rate1"]),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]),
        T=p["T"], variant=FEEDBACK, name="mixed")
    return Scenario("mixed", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _mixed.__doc__, p)


def _sensor_saturated(params=None):
    """Observation built from an orthogonal mix of the signal's Brownian
    driver and an independent one, with a bounded nonlinear sensor."""
    p = _resolve(dict(a=-1.0, s1=0.5, jump1=0.25, rate1=0.4, beta=0.9,
                      theta=0.6, lam0=0.05, slope=1.0, rate2=0.6,
                      jump2=0.4, mark_lo=0.8, mark_hi=1.2,
                      prior_mean=0.0, prior_std=1.0, y0=0.0, T=0.75),
                 params, "sensor_saturated")

    def b1(t, x):
        return p["a"] * np.asarray(x, float)

    def f1(t, x, u):
        return p["jump1"] * np.asarray(u, float)

    def b2(t, x, y):
        return p["beta"] * np.arctan(np.asarray(x, float))

    def f2(t, y, u):
        return p["jump2"] * np.asarray(u, float)

    spec = SystemSpec(
        n=1, m=1, d=1,
        b1=b1, sigma0=_const_matrix(0.0), sigma1=_const_matrix(p["s1"]),
        f1=f1, b2=b2, sigma2=_const_matrix(1.0), f2=f2,
        lam=_sigmoid_lam(p["lam0"], p["slope"]),
        nu1=LevyMeasureSpec.gaussian(0.0, 1.0, p["rate1"]),
        nu2=LevyMeasureSpec.uniform(p["mark_lo"], p["mark_hi"], p["rate2"]),
        T=p["T"], variant=SENSOR,
        mix_w=np.array([[np.cos(p["theta"])]]),
        mix_b=np.array([[np.sin(p["theta"])]]),
        name="sensor_saturated")
    return Scenario("sensor_saturated", spec,
                    _gaussian_prior(p["prior_mean"], p["prior_std"]),
                    np.array([p["y0"]]), _sensor_saturated.__doc__, p)


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
