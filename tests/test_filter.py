"""Particle conditional distributions: cloud algebra, propagation,
residual assemblers, innovation bookkeeping, failure modes."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from levyfilter.errors import DegeneracyError, ModelViolationError
from levyfilter.families import build_family
from levyfilter.filtering import (ParticleCloud, ResamplePolicy,
                                  ShiftedWeights, function_terms, gain_terms,
                                  innovation_process, ks_residual, resample,
                                  write_trajectory_csv, zakai_filter,
                                  zakai_residual)
from levyfilter.model import (LevyMeasureSpec, SystemSpec, generator_values,
                              signal_terms)
from levyfilter.oracle import kalman_bucy
from levyfilter.rng import substream
from levyfilter.simulate import TimeGrid, project_observation, simulate_path
from levyfilter.testfuncs import bump, constant, coordinate, quadratic

# --- independent oracles ------------------------------------------------------
# Hand cloud: locations (0, 1, 2) with weights proportional to (1, 2, 3).
#   normalized first moment   (0*1 + 1*2 + 2*3) / 6       = 4/3
#   mean unnormalized weight  (1 + 2 + 3) / 3              = 2
#   unnormalized first moment 2 * 4/3                      = 8/3
#   effective sample size     6^2 / (1 + 4 + 9)            = 18/7
HAND_PI_X = 4.0 / 3.0
HAND_RHO_X = 8.0 / 3.0
HAND_ESS = 18.0 / 7.0

# Two equally weighted particles at 0 and class 1 under the linear family
# (sigma1 = 0.5 constant, h(x) = x):
#   pi(F) = 1/2, pi(h) = 1/2, pi(grad F . sigma1) = 0.5, pi(F h) = 1/2
#   zakai gain = 0.5 + 0.5 = 1,  normalized gain = 1 - 1/2 * 1/2 = 3/4
HAND_ZAKAI_GAIN = 1.0
HAND_KS_GAIN = 0.75


def hand_cloud():
    return ParticleCloud(np.array([[0.0], [1.0], [2.0]]),
                         np.log(np.array([1.0, 2.0, 3.0])))


def noise_free_spec(a=-1.0):
    """Deterministic signal x' = a x observed through pure noise.

    With no diffusion, no jumps and h = 0 the filter's Euler flow and the
    residual assemblers use identical quadrature, so defects that are
    O(dt) in general collapse to closed forms here.
    """
    zero_mat = lambda t, x: np.zeros(np.shape(np.asarray(x))[:-1] + (1, 1))
    return SystemSpec(
        n=1, m=1, d=1,
        b1=lambda t, x: a * np.asarray(x, float),
        sigma0=zero_mat, sigma1=zero_mat,
        f1=lambda t, x, u: np.zeros(np.shape(x)),
        b2=lambda t, x, y: np.zeros(np.shape(np.asarray(x, float))),
        sigma2=lambda t, y: np.ones(np.shape(np.asarray(y))[:-1] + (1, 1)),
        f2=lambda t, y, u: np.zeros(np.shape(y)),
        lam=lambda t, x, u: np.full(np.broadcast(
            np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(), T=1.0)


def point_prior(value):
    return lambda rng, size: np.full((int(size), 1), float(value))


def run_family(family, n_steps, n_particles, seed, *, params=None,
               change=None, **kw):
    """Simulate and filter one family; ``change`` maps its spec to another."""
    scen = build_family(family, params)
    if change is not None:
        scen = replace(scen, spec=change(scen.spec))
    grid = TimeGrid(0.0, scen.spec.T, n_steps)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, seed)
    obs = project_observation(rec)
    funcs = kw.pop("test_functions", [coordinate(0), quadratic()])
    traj = zakai_filter(scen.spec, obs, n_particles, scen.prior_sampler,
                        seed + 1, test_functions=funcs, **kw)
    return scen, rec, obs, traj, funcs


# --- cloud algebra -------------------------------------------------------------

def test_cloud_moments_closed_form():
    c = hand_cloud()
    pi_x = c.normalized_weights() @ c.x[:, 0]
    assert pi_x == pytest.approx(HAND_PI_X, abs=1e-14)
    assert np.exp(c.log_mass()) * pi_x == pytest.approx(HAND_RHO_X, abs=1e-14)


def test_effective_sample_size_closed_forms():
    assert ShiftedWeights(np.zeros(50)).ess == pytest.approx(50.0)
    assert hand_cloud().ess() == pytest.approx(HAND_ESS, abs=1e-12)
    assert ShiftedWeights(np.array([0.0, -1000.0])).ess == \
        pytest.approx(1.0, abs=1e-12)
    assert ShiftedWeights(np.full(3, -np.inf)).ess == 0.0


def test_resample_preserves_mass_and_matches_weights():
    N = 9000
    x = np.repeat(np.array([[0.0], [1.0], [2.0]]), N // 3, axis=0)
    logw = np.repeat(np.log(np.array([1.0, 2.0, 3.0])), N // 3)
    c = ParticleCloud(x, logw)
    out = resample(c.x, c.weights(), substream(123, "resample-test"))
    assert out.log_mass() == pytest.approx(c.log_mass(), abs=1e-13)
    assert np.all(np.isin(out.x, [0.0, 1.0, 2.0]))
    assert np.ptp(out.logw) == 0.0
    for atom, p in zip((0.0, 1.0, 2.0), (1 / 6, 2 / 6, 3 / 6)):
        frac = np.mean(out.x[:, 0] == atom)
        assert abs(frac - p) <= 3 * np.sqrt(p * (1 - p) / N)


def test_resample_policy_thresholds():
    uniform = ParticleCloud(np.zeros((10, 1)), np.zeros(10))
    skewed = ParticleCloud(np.zeros((10, 1)),
                           np.array([0.0] + [-50.0] * 9))
    assert not ResamplePolicy(0.5).should_fire(uniform.ess(), 10)
    assert ResamplePolicy(0.5).should_fire(skewed.ess(), 10)
    assert not ResamplePolicy(0.0).should_fire(skewed.ess(), 10)


# --- gain terms ----------------------------------------------------------------

def test_gain_terms_hand_values():
    spec = build_family("linear_gaussian").spec
    x = np.array([[0.0], [1.0]])
    F = coordinate(0)
    signal = signal_terms(spec, 0.0, x, spec.nu1.frozen_marks(1))
    w, h = np.full(2, 0.5), spec.h(0.0, x, np.zeros(1))
    g = gain_terms(w, function_terms(F, x, signal, spec.sigma1(0.0, x),
                                     None), h, w @ h)
    assert g.pi_F == pytest.approx(0.5, abs=1e-14)
    assert g.pi_h == pytest.approx([0.5], abs=1e-14)
    assert g.zakai_gain() == pytest.approx([HAND_ZAKAI_GAIN], abs=1e-14)
    assert g.ks_gain() == pytest.approx([HAND_KS_GAIN], abs=1e-14)


# --- filter runs ---------------------------------------------------------------

def test_filter_deterministic_and_probe_zero():
    scen, rec, obs, t1, funcs = run_family("jump_free", 40, 200, 51)
    same = zakai_filter(scen.spec, obs, 200, scen.prior_sampler, 52,
                        test_functions=funcs)
    t2 = zakai_filter(scen.spec, obs, 200, scen.prior_sampler, 53,
                      test_functions=funcs)
    assert np.array_equal(t1.log_mass, same.log_mass)
    for F in funcs:
        assert np.array_equal(t1.summaries[F.name].pi_F,
                              same.summaries[F.name].pi_F)
        assert not np.array_equal(t1.summaries[F.name].pi_F,
                                  t2.summaries[F.name].pi_F)


def test_duplicate_function_names_raise():
    scen, rec, obs, traj, funcs = run_family("jump_free", 10, 50, 3)
    with pytest.raises(ValueError):
        zakai_filter(scen.spec, obs, 50, scen.prior_sampler, 1,
                     test_functions=[coordinate(0), coordinate(0)])


def test_fresh_cloud_state_at_initial_node():
    scen, rec, obs, traj, funcs = run_family("mixed", 30, 300, 13,
                                             params={"rate1": 2.0,
                                                     "rate2": 2.0})
    assert traj.log_mass[0] == 0.0
    assert traj.ess[0] == pytest.approx(300.0)
    assert np.all(np.isfinite(traj.log_mass))
    assert len(traj.t) == len(obs.t)
    assert traj.event_count[-1] == len(obs.events)


def test_constant_function_ks_residual_vanishes():
    F = constant(1.0)
    scen, rec, obs, traj, _ = run_family(
        "mixed", 50, 400, 17, params={"rate1": 2.0, "rate2": 3.0},
        test_functions=[F, coordinate(0)])
    assert len(obs.events) > 0
    res = ks_residual(traj, F.name)
    assert np.max(np.abs(res)) <= 1e-12


def test_noise_off_residuals_collapse_to_closed_form():
    spec = noise_free_spec(a=-1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    rec = simulate_path(spec, grid, point_prior(1.0), np.zeros(1), 7)
    obs = project_observation(rec)
    F, G = coordinate(0), quadratic()
    traj = zakai_filter(spec, obs, 10, point_prior(1.0), 8,
                        test_functions=[F, G],
                        resample_policy=ResamplePolicy(0.0))
    assert np.all(traj.log_mass == 0.0)
    assert np.all(traj.ess == 10.0)
    # coordinate telescopes exactly: Euler flow == residual quadrature
    assert np.max(np.abs(ks_residual(traj, F.name))) <= 1e-13
    assert np.max(np.abs(zakai_residual(traj, F.name))) <= 1e-13
    # quadratic defect equals the accumulated second-order Euler term
    res = ks_residual(traj, G.name)
    x_nodes = traj.summaries[F.name].pi_F
    defect = np.cumsum((x_nodes[:-1] * traj.dt) ** 2)
    assert np.max(np.abs(res[1:] - defect)) <= 1e-12


def test_resampling_resets_ess_and_is_recorded():
    scen, rec, obs, traj, funcs = run_family(
        "linear_gaussian", 60, 400, 23,
        resample_policy=ResamplePolicy(0.99))
    fired = np.flatnonzero(traj.resampled)
    assert len(fired) > 0
    assert np.all(traj.ess[fired] == 400.0)
    scen2, rec2, obs2, traj2, _ = run_family(
        "linear_gaussian", 60, 400, 23,
        resample_policy=ResamplePolicy(0.0))
    assert not traj2.resampled.any()


def test_innovation_record_consistency():
    scen, rec, obs, traj, funcs = run_family(
        "mixed", 50, 300, 29, params={"rate1": 2.0, "rate2": 3.0})
    innov = innovation_process(traj)
    cont = ~traj.is_jump
    expect = traj.dW[cont] - traj.pi_h[:-1][cont] * traj.dt[cont][:, None]
    assert np.array_equal(innov.dW_bar[cont], expect)
    assert np.all(innov.dW_bar[~cont] == 0.0)
    jumps = int(np.sum(~cont))
    drift = traj.rate2 * np.sum(traj.pi_lambar[:-1][cont] * traj.dt[cont])
    assert innov.jump_compensated[-1] == pytest.approx(jumps - drift,
                                                       abs=1e-12)


# --- failure modes -------------------------------------------------------------

def test_filter_rejects_out_of_range_intensity():
    scen = build_family("jump_only", {"rate2": 6.0})
    grid = TimeGrid(0.0, scen.spec.T, 30)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 23)
    obs = project_observation(rec)
    assert len(obs.events) > 0
    bad = replace(scen.spec, lam=lambda t, x, u: np.full(
        np.broadcast(np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 1.5))
    with pytest.raises(ModelViolationError):
        zakai_filter(bad, obs, 100, scen.prior_sampler, 1)


def test_filter_enforces_conditional_intensity_floor():
    scen = build_family("jump_only", {"rate2": 6.0})
    grid = TimeGrid(0.0, scen.spec.T, 30)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 23)
    obs = project_observation(rec)
    assert len(obs.events) > 0
    strict = replace(scen.spec, iota=0.99)
    with pytest.raises(ModelViolationError):
        zakai_filter(strict, obs, 100, scen.prior_sampler, 1)


def test_filter_reports_mass_collapse():
    scen = build_family("jump_free")
    grid = TimeGrid(0.0, scen.spec.T, 10)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 3)
    obs = project_observation(rec)
    with pytest.raises(DegeneracyError):
        zakai_filter(scen.spec, obs, 50, scen.prior_sampler, 1,
                     mass_floor=10.0)


# --- outputs -------------------------------------------------------------------

def test_store_clouds_and_trajectory_csv(tmp_path):
    scen, rec, obs, traj, funcs = run_family("jump_free", 30, 150, 37,
                                             store_clouds=True)
    assert traj.clouds is not None
    assert len(traj.clouds) == len(obs.t)
    assert traj.clouds[-1].log_mass() == pytest.approx(traj.log_mass[-1],
                                                       abs=1e-12)
    assert traj.clouds[0].x.shape == (150, 1)
    p = tmp_path / "traj.csv"
    write_trajectory_csv(traj, p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    names = [F.name for F in funcs]
    assert rows[0] == (["t", "log_mass", "ess", "resampled", "pi_h_0",
                        "pi_lambda_bar"] + [f"pi_{n}" for n in names])
    assert len(rows) == len(traj.t) + 1
    body = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(body[:, 0], traj.t)
    assert np.array_equal(body[:, 1], traj.log_mass)
    for j, name in enumerate(names):
        assert np.array_equal(body[:, 6 + j], traj.summaries[name].pi_F)


def _mark_dependent_lam(spec):
    lam = spec.lam
    return replace(spec, lam=lambda t, x, u: (
        lam(t, x, u) * (0.9 + 0.1 * np.asarray(u)[..., 0])))


def _state_dependent_sigma1(spec):
    return replace(spec, sigma1=lambda t, x: (
        0.3 * (1.0 + 0.2 * np.tanh(np.asarray(x, float))))[..., None])


@pytest.mark.parametrize("family, change, extra, ess_fraction", [
    ("mixed", None, [], 0.5),
    ("sensor_saturated", None, [], 0.5),
    # the general paths, which no bundled family takes: lambda-bar as a mean
    # over the (N, M) mark grid, the Monte Carlo jump bracket of an F of
    # undeclared degree, and a sigma1 that reads x, whose coupling is per
    # particle, (N, n, m)
    ("mixed", _mark_dependent_lam, [], 0.5),
    ("mixed", None, [bump(0.0, 3.0)], 0.5),
    ("mixed", _state_dependent_sigma1, [bump(0.0, 3.0)], 0.5),
    # the node after an observation jump keeps the cloud's terms unless it
    # resamples; near 1 some of those nodes resample and some do not
    ("mixed", _mark_dependent_lam, [bump(0.0, 3.0)], 0.95),
], ids=["mixed", "sensor_saturated", "mixed-mark_lambda", "mixed-bump",
        "mixed-state_sigma1", "mixed-resample_after_jumps"])
def test_node_moments_equal_direct_evaluation(family, change, extra,
                                              ess_fraction):
    # Both jump channels on, with candidates dense enough for observation
    # events: each per-node term the filter evaluates once and shares must
    # equal, bit for bit, a fresh evaluation on the cloud stored at the node.
    scen, rec, obs, traj, funcs = run_family(
        family, 40, 200, 53, params={"rate2": 8.0}, change=change,
        test_functions=[coordinate(0), quadratic()] + extra, store_clouds=True,
        resample_policy=ResamplePolicy(ess_fraction))
    spec = scen.spec
    assert spec.nu1.rate > 0.0 and spec.nu2.rate > 0.0
    assert traj.event_count[-1] >= 1
    assert all(F.degree is None for F in extra)
    after_jump = np.flatnonzero(traj.is_jump) + 1
    if ess_fraction > 0.9:
        # both branches at a node after a jump: terms kept, and recomputed
        assert 0 < np.sum(traj.resampled[after_jump]) < len(after_jump)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget)
    for k, cloud in enumerate(traj.clouds):
        t, y, x = obs.t[k], obs.Y[k], cloud.x
        N = x.shape[0]
        w = cloud.normalized_weights()
        hv = np.asarray(spec.h(t, x, y), float).reshape(N, spec.m)
        lam_marks = spec.lam_marks(t, x, obs.marks2)
        if change is _mark_dependent_lam:
            assert lam_marks.shape == (N, len(obs.marks2))
        if change is _state_dependent_sigma1:
            assert spec.sigma1(t, x).shape == (N, spec.n, spec.m)
        lam_bar = np.mean(lam_marks, axis=-1)
        coup = np.broadcast_to(spec.sigma1(t, x), (N, spec.n, spec.m))
        assert np.array_equal(traj.pi_h[k], w @ hv)
        assert traj.pi_lambar[k] == float(w @ lam_bar)
        for F in funcs:
            s = traj.summaries[F.name]
            vals = F.value(x)
            grad = F.grad(x)
            lf = generator_values(spec, F, t, x, marks1)
            assert s.pi_F[k] == float(w @ vals)
            assert s.pi_LF[k] == float(w @ lf)
            assert np.array_equal(s.grad_coup[k],
                                  w @ np.einsum("Nn,Nnm->Nm", grad, coup))
            assert np.array_equal(s.f_h[k], w @ (vals[:, None] * hv))
            assert s.pi_F_lambar[k] == float(w @ (vals * lam_bar))


# --- against the linear reference ----------------------------------------------

def test_filter_tracks_kalman_reference():
    scen, rec, obs, traj, funcs = run_family("linear_gaussian", 100, 3000, 41)
    kal = kalman_bucy(scen.linear, obs.t, obs.Y)
    mean_gap = np.mean(np.abs(traj.summaries[funcs[0].name].pi_F
                              - kal.mean[:, 0]))
    assert mean_gap <= 0.1
    var_filter = (traj.summaries[funcs[1].name].pi_F
                  - traj.summaries[funcs[0].name].pi_F ** 2)
    var_gap = np.mean(np.abs(var_filter - kal.cov[:, 0, 0]))
    assert var_gap <= 0.1
