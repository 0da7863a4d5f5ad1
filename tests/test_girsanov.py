"""Likelihood weights and reference drivers: closed forms, roundtrips,
mean-one martingale checks in both parameterizations."""

from dataclasses import replace

import numpy as np
import pytest

from levyfilter.errors import InvertibilityError, ModelViolationError
from levyfilter.families import build_family
from levyfilter.girsanov import (log_lambda_inverse,
                                 reconstruct_reference_drivers,
                                 resynthesize_observation,
                                 sample_model_log_inverse_weights,
                                 sample_reference_log_weights)
from levyfilter.levy import JumpStream
from levyfilter.simulate import (PathRecord, TimeGrid, project_observation,
                                 simulate_path)

# --- independent oracles ------------------------------------------------------
# Hand-computed inverse log-weight pieces for fabricated records:
#   constant h = 1, zero dW, T = 1, no jumps:
#       brownian part = -0.5 * |h|^2 * T = -0.5
#   one accepted jump at intensity ratio 1/2:
#       jump part = -log(1/2) = log 2
#   rate-1 candidates, ratio 1/2, total continuous time 0.5:
#       compensator part = -0.5 * 1.0 * (1 - 0.5) = -0.25
BROWNIAN_CLOSED_FORM = -0.5
JUMP_CLOSED_FORM = 0.6931471805599453
COMPENSATOR_CLOSED_FORM = -0.25


def flat_record(spec, t, X, Y, step_kind, step_accepted, step_mark):
    """PathRecord with zero Brownian increments and the given event layout."""
    K = len(t) - 1
    base_mask = np.ones(K + 1, bool)
    return PathRecord(
        base_grid=TimeGrid(t[0], t[-1], max(K, 1)),
        t=np.asarray(t, float), X=np.asarray(X, float), Y=np.asarray(Y, float),
        dB=np.zeros((K, spec.d)), dW=np.zeros((K, spec.m)),
        base_mask=base_mask,
        step_kind=np.asarray(step_kind, np.int8),
        step_accepted=np.asarray(step_accepted, bool),
        step_mark=np.asarray(step_mark, float),
        signal_jumps=JumpStream([], t[0], t[-1], 0.0),
        obs_candidates=JumpStream([], t[0], t[-1], 0.0),
        seed=0,
        marks1=spec.nu1.frozen_marks(spec.mark_budget),
        marks2=spec.nu2.frozen_marks(spec.mark_budget))


# --- inverse log-weight along a record -----------------------------------------

def test_brownian_part_closed_form():
    spec = build_family("linear_gaussian").spec        # h(x) = x here
    t = np.linspace(0.0, 1.0, 5)
    X = np.ones((5, 1))
    Y = np.zeros((5, 1))
    lik = log_lambda_inverse(
        flat_record(spec, t, X, Y, [0] * 4, [False] * 4, np.zeros((4, 1))),
        spec)
    assert lik.brownian[-1] == pytest.approx(BROWNIAN_CLOSED_FORM, abs=1e-12)
    assert np.all(lik.jump == 0.0) and np.all(lik.compensator == 0.0)
    assert -lik.log_lambda_inverse[-1] == pytest.approx(0.5, abs=1e-12)


def test_jump_and_compensator_parts_closed_form():
    spec = build_family("jump_only").spec              # lam(0) = 1/2, rate 1
    t = np.array([0.0, 0.25, 0.25, 0.5])
    X = np.zeros((4, 1))
    Y = np.zeros((4, 1))
    rec = flat_record(spec, t, X, Y, [0, 2, 0], [False, True, False],
                      np.array([[0.0], [1.0], [0.0]]))
    lik = log_lambda_inverse(rec, spec)
    assert lik.jump[-1] == pytest.approx(JUMP_CLOSED_FORM, abs=1e-12)
    assert lik.compensator[-1] == pytest.approx(COMPENSATOR_CLOSED_FORM,
                                                abs=1e-12)
    assert lik.brownian[-1] == pytest.approx(0.0, abs=1e-15)
    # the jump part moves only across the event step
    assert np.array_equal(lik.jump, [0.0, 0.0, JUMP_CLOSED_FORM,
                                     JUMP_CLOSED_FORM])
    assert lik.log_lambda_inverse[-1] == pytest.approx(
        JUMP_CLOSED_FORM + COMPENSATOR_CLOSED_FORM, abs=1e-12)


def test_out_of_range_ratio_raises():
    scen = build_family("jump_only")
    bad = replace(scen.spec, lam=lambda t, x, u: np.full(
        np.broadcast(np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 1.5))
    t = np.array([0.0, 0.25, 0.25, 0.5])
    rec = flat_record(bad, t, np.zeros((4, 1)), np.zeros((4, 1)),
                      [0, 2, 0], [False, True, False],
                      np.array([[0.0], [1.0], [0.0]]))
    with pytest.raises(ModelViolationError):
        log_lambda_inverse(rec, bad)


def test_likelihood_path_decomposes():
    scen = build_family("mixed", {"rate1": 2.0, "rate2": 2.0})
    grid = TimeGrid(0.0, scen.spec.T, 30)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 17)
    lik = log_lambda_inverse(rec, scen.spec)
    assert len(lik.t) == len(rec.t)
    for part in (lik.brownian, lik.jump, lik.compensator):
        assert part.shape == lik.t.shape and part[0] == 0.0
    assert np.array_equal(lik.log_lambda_inverse,
                          lik.brownian + lik.jump + lik.compensator)


# --- driver reconstruction -----------------------------------------------------

def test_drivers_recover_girsanov_shifted_brownian():
    scen = build_family("jump_free")
    grid = TimeGrid(0.0, scen.spec.T, 60)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 29)
    obs = project_observation(rec)
    drv = reconstruct_reference_drivers(obs, scen.spec)
    # no jump channels: grids coincide and dWtilde = dW + h dt pathwise
    assert np.array_equal(drv.t, rec.t)
    dt = rec.dt()
    h = np.array([scen.spec.h(rec.t[k], rec.X[k], rec.Y[k])
                  for k in range(len(dt))])
    assert np.max(np.abs(drv.dW - (rec.dW + h * dt[:, None]))) <= 1e-12


def test_drivers_zero_on_jump_steps_and_resynthesis_roundtrip():
    scen = build_family("mixed", {"rate1": 2.0, "rate2": 3.0, "lam0": 0.2})
    grid = TimeGrid(0.0, scen.spec.T, 50)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 31)
    obs = project_observation(rec)
    assert len(obs.events) > 0
    drv = reconstruct_reference_drivers(obs, scen.spec)
    jumps = drv.is_jump_step()
    assert jumps.sum() == len(obs.events)
    assert np.all(drv.dW[jumps] == 0.0)
    Y_re = resynthesize_observation(drv, scen.spec, scen.y0)
    assert np.max(np.abs(Y_re - obs.Y)) <= 1e-10


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
