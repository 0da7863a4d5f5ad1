"""Likelihood weights and reference drivers: closed forms, roundtrips,
mean-one martingale checks in both parameterizations."""

from dataclasses import replace

import numpy as np
import pytest

from levyfilter.errors import InvertibilityError
from levyfilter.families import build_family
from levyfilter.girsanov import (reconstruct_reference_drivers,
                                 sample_model_log_inverse_weights,
                                 sample_reference_log_weights)
from levyfilter.model import solve
from levyfilter.propagation import (lam_bar, log_weight_step,
                                    observation_reference_step, thin)
from levyfilter.rng import substream
from levyfilter.simulate import TimeGrid, project_observation, simulate_path

# --- independent oracles ------------------------------------------------------
# Hand-computed pieces of the inverse log-weight, which is log_weight_step
# with -h and -rate2:
#   constant h = 1, zero dW, T = 1:
#       brownian part = -0.5 * |h|^2 * T = -0.5
#   one accepted jump at intensity ratio 1/2:
#       jump part = -log(1/2) = log 2
#   rate 1, lambda-bar 1/2, total continuous time 0.5:
#       compensator part = -0.5 * 1.0 * (1 - 0.5) = -0.25
BROWNIAN_CLOSED_FORM = -0.5
JUMP_CLOSED_FORM = 0.6931471805599453
COMPENSATOR_CLOSED_FORM = -0.25


# --- the inverse log-weight step ---------------------------------------------

def test_brownian_part_closed_form():
    spec = build_family("linear_gaussian").spec        # h(x) = x here
    h = np.asarray(spec.h(0.0, np.ones((1, 1)), np.zeros((1, 1))), float)
    logw = np.zeros(1)
    for _ in range(4):
        logw = log_weight_step(logw, -h, np.zeros(1), 0.25, 0.0, None)
    assert logw[0] == pytest.approx(BROWNIAN_CLOSED_FORM, abs=1e-12)


def test_jump_and_compensator_parts_closed_form():
    spec = build_family("jump_only").spec              # lam(0) = 1/2, rate 1
    x = np.zeros((1, 1))
    lb = lam_bar(spec, 0.0, x)
    logw = np.zeros(1)
    for _ in range(2):
        logw = log_weight_step(logw, np.zeros((1, 1)), np.zeros(1), 0.25,
                               -spec.nu2.rate, lb)
    assert logw[0] == pytest.approx(COMPENSATOR_CLOSED_FORM, abs=1e-12)
    # the inverse weight takes -log lam at an accepted jump, with lam as
    # thin returns it
    _, lam = thin(spec, 0.25, x, spec.nu2.marks[:1], substream(0, "thinning"))
    jump = -np.log(lam[0])
    assert jump == pytest.approx(JUMP_CLOSED_FORM, abs=1e-12)
    assert logw[0] + jump == pytest.approx(
        JUMP_CLOSED_FORM + COMPENSATOR_CLOSED_FORM, abs=1e-12)


def test_likelihood_path_decomposes():
    # a batch of 4 rows with m = 2: the step is the brownian part plus the
    # compensator part, row by row, for a shared or a per-row dW
    rng = np.random.default_rng(5)
    logw0 = rng.standard_normal(4)
    h = rng.standard_normal((4, 2))
    lb = rng.uniform(0.1, 0.9, 4)
    dt, rate2 = 0.03, 2.5
    for dW in (rng.standard_normal(2), rng.standard_normal((4, 2))):
        dWr = np.broadcast_to(dW, h.shape)
        for sign in (1.0, -1.0):
            got = log_weight_step(logw0, sign * h, dW, dt, sign * rate2, lb)
            for r in range(4):
                brownian = (sign * h[r] @ dWr[r]
                            - 0.5 * (h[r] @ h[r]) * dt)
                compensator = sign * rate2 * (1.0 - lb[r]) * dt
                assert got[r] == pytest.approx(
                    logw0[r] + brownian + compensator, abs=1e-14)
        assert np.array_equal(log_weight_step(logw0, h, dW, dt, rate2, None),
                              log_weight_step(logw0, h, dW, dt, 0.0, lb))


# --- driver reconstruction -----------------------------------------------------

def test_drivers_recover_girsanov_shifted_brownian():
    scen = build_family("jump_free")
    grid = TimeGrid(0.0, scen.spec.T, 60)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 29)
    obs = project_observation(rec)
    dW = reconstruct_reference_drivers(obs, scen.spec)
    # no jump channels: grids coincide and dWtilde = dW + h dt pathwise
    assert np.array_equal(obs.t, rec.t)
    dt = rec.dt()
    h = np.array([scen.spec.h(rec.t[k], rec.X[k], rec.Y[k])
                  for k in range(len(dt))])
    assert np.max(np.abs(dW - (rec.dW + h * dt[:, None]))) <= 1e-12


def test_drivers_zero_on_jump_steps_and_resynthesis_roundtrip():
    scen = build_family("mixed", {"rate1": 2.0, "rate2": 3.0, "lam0": 0.2})
    grid = TimeGrid(0.0, scen.spec.T, 50)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 31)
    obs = project_observation(rec)
    assert len(obs.event_steps) > 0
    dW = reconstruct_reference_drivers(obs, scen.spec)
    assert dW.shape == (len(obs.t) - 1, scen.spec.m)
    assert np.all(dW[obs.event_steps] == 0.0)
    # each continuous reference step, driven by the recovered dW, lands on
    # the recorded next value
    dt = obs.dt()
    for k in np.flatnonzero(~obs.is_jump()):
        y1 = observation_reference_step(scen.spec, obs.t[k], obs.Y[k:k + 1],
                                        dt[k], dW[k:k + 1])[0]
        assert np.max(np.abs(y1 - obs.Y[k + 1])) <= 1e-10


def test_compensator_that_reads_t_in_place_is_formed_at_every_step():
    # An f2 that reads t and returns one array per shape, changed in place
    # at every call: a shared value that a term kept by identity or by
    # shape would serve stale.  Each path must match, bit for bit, one
    # that keeps no compensator.
    scen = build_family("mixed", {"rate2": 8.0})
    spec = scen.spec
    f2, out = spec.f2, {}

    def in_place(t, y, u):
        value = (1.0 + t) * np.asarray(f2(t, y, u), float)
        buf = out.setdefault(value.shape, np.empty(value.shape))
        buf[...] = value
        return buf

    def per_state(t, y, u):
        # the same values at the batch shape, a per-state array of more
        # than two axes in the simulator's compensator
        value = np.array(in_place(t, y, u))
        return np.broadcast_to(value, np.broadcast_shapes(
            np.shape(y)[:-1], np.shape(u)[:-1]) + value.shape[-1:])

    marks2 = spec.nu2.marks
    assert in_place(0.5, np.zeros((1, 1, 1)), marks2).ndim == 2
    assert per_state(0.5, np.zeros((1, 1, 1)), marks2).ndim == 3
    grid = TimeGrid(0.0, spec.T, 40)
    kept = replace(spec, f2=in_place)
    rec = simulate_path(kept, grid, scen.prior_sampler, scen.y0, 61)
    ref = simulate_path(replace(spec, f2=per_state), grid, scen.prior_sampler,
                        scen.y0, 61)
    assert rec.X.tobytes() == ref.X.tobytes()
    assert rec.Y.tobytes() == ref.Y.tobytes()

    obs = project_observation(rec)
    assert len(obs.event_steps) > 0
    dW = reconstruct_reference_drivers(obs, kept)
    # the inversion at each continuous step through a fresh copy of nu2,
    # which keeps nothing
    want = np.zeros_like(dW)
    dt = obs.dt()
    for k in np.flatnonzero(~obs.is_jump()):
        t, y = obs.t[k], obs.Y[k]
        comp = replace(spec.nu2).jumps(in_place, t, y, marks2)[1]
        want[k] = solve(np.asarray(spec.sigma2(t, y), float),
                        (obs.Y[k + 1] - y) + dt[k] * comp, t)
    assert dW.tobytes() == want.tobytes()


def test_reconstruction_requires_invertible_obs_diffusion():
    scen = build_family("jump_free")
    grid = TimeGrid(0.0, scen.spec.T, 10)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 3)
    obs = project_observation(rec)
    singular = replace(scen.spec,
                       sigma2=lambda t, y: np.zeros(np.shape(y)[:-1] + (1, 1)))
    with pytest.raises(InvertibilityError):
        reconstruct_reference_drivers(obs, singular)


# --- martingale property of the weights ----------------------------------------

@pytest.mark.parametrize("family", ["jump_free", "jump_only", "mixed"])
def test_reference_weights_are_mean_one(family):
    scen = build_family(family)
    grid = TimeGrid(0.0, scen.spec.T, 50)
    logw = sample_reference_log_weights(scen.spec, grid, 4000,
                                        scen.prior_sampler, scen.y0, 61)
    w = np.exp(logw)
    se = w.std(ddof=1) / np.sqrt(len(w))
    assert abs(w.mean() - 1.0) <= 3 * se
    assert se < 0.1


@pytest.mark.parametrize("family", ["jump_free", "jump_only", "mixed",
                                    "sensor_saturated"])
def test_model_inverse_weights_are_mean_one(family):
    scen = build_family(family)
    grid = TimeGrid(0.0, scen.spec.T, 50)
    logw = sample_model_log_inverse_weights(scen.spec, grid, 4000,
                                            scen.prior_sampler, scen.y0, 67)
    w = np.exp(logw)
    se = w.std(ddof=1) / np.sqrt(len(w))
    assert abs(w.mean() - 1.0) <= 3 * se
    assert se < 0.1


def test_weight_samplers_deterministic():
    scen = build_family("mixed")
    grid = TimeGrid(0.0, scen.spec.T, 20)
    a = sample_reference_log_weights(scen.spec, grid, 100,
                                     scen.prior_sampler, scen.y0, 5)
    b = sample_reference_log_weights(scen.spec, grid, 100,
                                     scen.prior_sampler, scen.y0, 5)
    assert np.array_equal(a, b)
    c = sample_model_log_inverse_weights(scen.spec, grid, 100,
                                         scen.prior_sampler, scen.y0, 5)
    d = sample_model_log_inverse_weights(scen.spec, grid, 100,
                                         scen.prior_sampler, scen.y0, 5)
    assert np.array_equal(c, d)
