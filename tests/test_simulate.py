"""Path simulation: grid refinement, jump handling, moments, serialization."""

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import simulate
from levyfilter.errors import (ConfigError, DivergenceError,
                               ModelViolationError)
from levyfilter.families import build_family
from levyfilter.propagation import physical_step, thin
from levyfilter.rng import substream
from levyfilter.simulate import (TimeGrid, coarsen_observation,
                                 project_observation, simulate_path,
                                 write_observation)

# --- independent oracles ------------------------------------------------------

def euler_ou_moments(a, var_rate, x0, dt, n_steps):
    """Exact mean/variance of the Euler chain x' = (1+a dt) x + noise.

    The simulated chain is Gaussian with these moments exactly, so the only
    discrepancy left in a Monte Carlo check is sampling error.
    """
    g = 1.0 + a * dt
    mean = x0 * g**n_steps
    var = var_rate * dt * (g ** (2 * n_steps) - 1.0) / (g**2 - 1.0)
    return mean, var


def busy_scenario():
    """Mixed family with boosted jump rates so every step kind occurs."""
    return build_family("mixed", {"rate1": 3.0, "rate2": 4.0, "lam0": 0.2})


# --- time grid ----------------------------------------------------------------

def test_time_grid_basics():
    g = TimeGrid(0.0, 2.0, 8)
    assert g.dt == pytest.approx(0.25)
    nodes = g.nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 2.0 and len(nodes) == 9
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)


# --- path structure -----------------------------------------------------------

def test_simulation_deterministic_in_seed():
    scen = busy_scenario()
    grid = TimeGrid(0.0, scen.spec.T, 50)
    r1 = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 42)
    r2 = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 42)
    for name in ("t", "X", "Y", "dB", "dW"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name)), name
    r3 = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 43)
    assert not np.array_equal(r3.X, r1.X)


def test_refined_grid_duplicates_every_event_node():
    scen = busy_scenario()
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 7)
    n_events = len(rec.event_steps(1)) + len(rec.obs_candidates)
    assert n_events > 0
    assert len(rec.t) == grid.n_steps + 1 + 2 * n_events
    assert np.array_equal(rec.t[rec.base_mask], grid.nodes())
    dt = rec.dt()
    events = rec.step_kind != 0
    assert np.all(dt[events] == 0.0)
    assert np.all(dt[~events] > 0.0)
    assert np.all(rec.dB[events] == 0.0)
    assert np.all(rec.dW[events] == 0.0)


def test_signal_jump_steps_apply_f1_exactly():
    scen = busy_scenario()
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 7)
    ks = rec.event_steps(1)
    assert len(ks) > 0
    for k in ks:
        u = rec.step_mark[k, :scen.spec.nu1.dim]
        jump = np.asarray(scen.spec.f1(rec.t[k], rec.X[k], u), float).reshape(-1)
        assert np.array_equal(rec.X[k + 1], rec.X[k] + jump)
        assert np.array_equal(rec.Y[k + 1], rec.Y[k])


def test_observation_jump_steps_apply_f2_only_when_accepted():
    scen = busy_scenario()
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 11)
    acc = rec.event_steps(2, accepted_only=True)
    rej = np.setdiff1d(rec.event_steps(2), acc)
    assert len(acc) > 0 and len(rej) > 0
    for k in acc:
        u = rec.step_mark[k, :scen.spec.nu2.dim]
        jump = np.asarray(scen.spec.f2(rec.t[k], rec.Y[k], u), float).reshape(-1)
        assert np.array_equal(rec.Y[k + 1], rec.Y[k] + jump)
        assert np.array_equal(rec.X[k + 1], rec.X[k])
    for k in rej:
        assert np.array_equal(rec.Y[k + 1], rec.Y[k])
        assert np.array_equal(rec.X[k + 1], rec.X[k])


def test_thinning_replayed_on_the_record_reproduces_its_acceptances():
    scen = busy_scenario()              # lam depends on x here
    spec = scen.spec
    grid = TimeGrid(0.0, spec.T, 40)
    rec = simulate_path(spec, grid, scen.prior_sampler, scen.y0, 11)
    rng = substream(11, "obs-thinning")
    ks = rec.event_steps(2)
    acc = [thin(spec, rec.t[k], rec.X[k][None],
                rec.step_mark[k, :spec.nu2.dim][None], rng)[0][0] for k in ks]
    assert np.array_equal(acc, rec.step_accepted[ks])
    assert 0 < sum(acc) < len(ks)


# --- the physical step --------------------------------------------------------

def explicit_physical_step(spec, t, x, y, dt, db, dw, marks1, marks2):
    """One path written out as the model equations read."""
    comp1 = spec.nu1.rate * np.mean(spec.f1(t, x, marks1), axis=0)
    comp2 = spec.nu2.rate * np.mean(spec.f2(t, y, marks2), axis=0)
    return (x + (spec.b1(t, x) - comp1) * dt + spec.sigma0(t, x) @ db
            + spec.sigma1(t, x) @ dw,
            y + (spec.b2(t, x, y) - comp2) * dt + spec.sigma2(t, y) @ dw)


@pytest.mark.parametrize("family", ["mixed", "sensor_saturated"])
def test_physical_step_on_a_batch_equals_one_path_at_a_time(family):
    # state-dependent sigma0, sigma1 and sigma2, read at the step's left point
    spec = replace(build_family(family).spec,
                   sigma0=lambda t, x: 2.0 + 0.1 * np.asarray(x)[..., None],
                   sigma1=lambda t, x: 1.0 + 0.2 * np.asarray(x)[..., None],
                   sigma2=lambda t, y: 3.0 + 0.1 * np.asarray(y)[..., None])
    rng = np.random.default_rng(5)
    R, t, dt = 9, 0.3, 0.01
    x = rng.normal(size=(R, spec.n))
    y = rng.normal(size=(R, spec.m))
    dB = rng.normal(size=(R, spec.d)) * np.sqrt(dt)
    dW = rng.normal(size=(R, spec.m)) * np.sqrt(dt)
    xb, yb = physical_step(spec, t, x, y, dt, dB, dW)
    assert xb.shape == (R, spec.n) and yb.shape == (R, spec.m)
    for r in range(R):
        x1, y1 = physical_step(spec, t, x[r:r + 1], y[r:r + 1], dt,
                               dB[r:r + 1], dW[r:r + 1])
        assert np.array_equal(x1[0], xb[r]) and np.array_equal(y1[0], yb[r])
        xe, ye = explicit_physical_step(spec, t, x[r], y[r], dt, dB[r],
                                        dW[r], spec.nu1.marks,
                                        spec.nu2.marks)
        np.testing.assert_allclose(xb[r], xe, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(yb[r], ye, rtol=1e-14, atol=1e-15)


# --- moments ------------------------------------------------------------------

def test_signal_moments_match_euler_chain():
    scen = build_family("linear_gaussian",
                        {"prior_mean": 1.0, "prior_std": 0.0})
    p = scen.params
    grid = TimeGrid(0.0, 1.0, 50)
    R = 400
    xT = np.array([
        simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0,
                      9000 + r).X[-1, 0]
        for r in range(R)])
    mean, var = euler_ou_moments(p["a"], p["s0"] ** 2 + p["s1"] ** 2, 1.0,
                                 grid.dt, grid.n_steps)
    assert abs(xT.mean() - mean) <= 3 * np.sqrt(var / R)
    assert abs(xT.var(ddof=1) - var) <= 3 * var * np.sqrt(2.0 / (R - 1))


# --- failure modes ------------------------------------------------------------

def test_divergence_guard_raises(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_NORM", 1.0)
    scen = build_family("linear_gaussian",
                        {"prior_mean": 5.0, "prior_std": 0.0})
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(DivergenceError):
        simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 1)


def test_nan_observation_is_a_divergence_at_its_step():
    # Python's max(1.0, nan) is 1.0: a finite signal must not hide a nan Y
    scen = build_family("jump_free")
    bad = replace(scen.spec, b2=lambda t, x, y: np.full(np.shape(y), np.nan))
    grid = TimeGrid(0.0, bad.T, 10)
    with pytest.raises(DivergenceError, match="nan .* at step 0,"):
        simulate_path(bad, grid, scen.prior_sampler, scen.y0, 1)


def test_out_of_range_intensity_raises_during_simulation():
    scen = build_family("jump_only", {"rate2": 20.0})
    bad = replace(scen.spec, lam=lambda t, x, u: np.full(
        np.broadcast(np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 1.5))
    grid = TimeGrid(0.0, bad.T, 20)
    with pytest.raises(ModelViolationError):
        simulate_path(bad, grid, scen.prior_sampler, scen.y0, 3)


# --- observation projection ---------------------------------------------------

def test_projection_keeps_base_nodes_and_accepted_jumps_bitwise():
    scen = busy_scenario()
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 11)
    obs = project_observation(rec)
    accepted = [e for e in rec.obs_candidates if e.accepted]
    n_acc = len(accepted)
    assert len(obs.event_steps) == len(obs.event_marks) == n_acc > 0
    assert len(obs.t) == grid.n_steps + 1 + 2 * n_acc
    # base-node values are copied bitwise
    base_in_obs = np.isin(obs.t, grid.nodes())
    assert np.array_equal(obs.Y[base_in_obs], rec.Y[rec.base_mask])
    # each event step is a zero-length step whose post node moved by f2
    for ev, k, u in zip(accepted, obs.event_steps, obs.event_marks):
        assert obs.t[k] == obs.t[k + 1] == ev.t
        assert np.array_equal(u, ev.mark)
        jump = np.asarray(scen.spec.f2(ev.t, obs.Y[k], u), float).reshape(-1)
        assert np.array_equal(obs.Y[k + 1], obs.Y[k] + jump)
    # rejected candidate times are stripped
    rejected = [e.t for e in rec.obs_candidates if not e.accepted]
    assert rejected and not np.isin(rejected, obs.t).any()
    # signal-jump nodes are stripped
    sig_times = rec.t[rec.event_steps(1)]
    assert len(sig_times) and not np.isin(sig_times, obs.t).any()


def test_coarsening_preserves_surviving_nodes_and_events():
    scen = build_family("jump_only", {"rate2": 6.0})
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 23)
    obs = project_observation(rec)
    assert len(obs.event_steps) > 0
    half = coarsen_observation(obs, 2)
    assert half.base_grid.n_steps == 20
    assert len(half.event_steps) == len(obs.event_steps)
    # every coarse node value appears bitwise in the fine record
    for j, tq in enumerate(half.t):
        i = np.flatnonzero(obs.t == tq)
        assert i.size > 0
        assert any(np.array_equal(half.Y[j], obs.Y[ii]) for ii in i)
    # jump times and marks are untouched
    assert np.array_equal(half.t[half.event_steps], obs.t[obs.event_steps])
    assert np.array_equal(half.event_marks, obs.event_marks)
    # event steps are zero-length on the coarse grid too
    assert np.array_equal(half.t[half.event_steps + 1],
                          half.t[half.event_steps])


def test_coarsening_identity_and_validation():
    scen = build_family("jump_only", {"rate2": 6.0})
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 23)
    obs = project_observation(rec)
    same = coarsen_observation(obs, 1)
    assert np.array_equal(same.t, obs.t)
    assert np.array_equal(same.Y, obs.Y)
    assert np.array_equal(same.event_steps, obs.event_steps)
    with pytest.raises(ConfigError):
        coarsen_observation(obs, 3)      # 40 steps do not split into 3
    with pytest.raises(ConfigError):
        coarsen_observation(obs, 0)


# --- serialization ------------------------------------------------------------

def test_observation_roundtrip_csv(tmp_path):
    scen = busy_scenario()
    grid = TimeGrid(0.0, scen.spec.T, 30)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 5)
    obs = project_observation(rec)
    p = tmp_path / "obs.csv"
    write_observation(obs, p)
    with open(p, newline="") as fh:
        meta, marks2, header, *body = csv.reader(fh)
    m, md = obs.Y.shape[1], obs.marks2.shape[1]
    meta = dict(zip(meta[1::2], meta[2::2]))
    assert (int(meta["m"]), int(meta["mark_dim"]), int(meta["seed"]),
            float(meta["t0"]), float(meta["t1"]), int(meta["n_steps"]),
            int(meta["n_events"])) == (m, md, obs.source_seed, grid.t0,
                                       grid.t1, grid.n_steps,
                                       len(obs.event_steps))
    assert marks2[:3] == ["#marks2", str(len(obs.marks2)), str(md)]
    assert np.array_equal(np.array(marks2[3:], float).reshape(-1, md),
                          obs.marks2)
    assert header == (["t"] + [f"y_{i}" for i in range(m)]
                      + ["event_step", "event"]
                      + [f"mark_{i}" for i in range(md)])
    t = np.array([r[0] for r in body], float)
    assert np.array_equal(t, obs.t)
    assert np.array_equal(np.array([r[1:1 + m] for r in body], float), obs.Y)
    events = [r for r in body if r[2 + m] == "1"]
    steps = [int(r[1 + m]) for r in events]
    assert len(events) > 0 and np.array_equal(steps, obs.event_steps)
    assert np.array_equal(np.array([r[3 + m:] for r in events], float),
                          obs.event_marks)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_refined_grid_invariants_property(seed):
    scen = build_family("mixed", {"rate1": 2.0, "rate2": 2.0})
    grid = TimeGrid(0.0, scen.spec.T, 20)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, seed)
    n_events = len(rec.event_steps(1)) + len(rec.obs_candidates)
    assert len(rec.t) == grid.n_steps + 1 + 2 * n_events
    dt = rec.dt()
    assert np.all(dt >= 0.0)
    assert np.array_equal(dt == 0.0, rec.step_kind != 0)
    assert np.all(np.isfinite(rec.X)) and np.all(np.isfinite(rec.Y))
    obs = project_observation(rec)
    assert np.array_equal(obs.t[np.isin(obs.t, grid.nodes())], grid.nodes())
