"""Particle conditional distributions: cloud algebra, propagation,
residual assemblers, innovation bookkeeping, failure modes."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from levyfilter import filtering
from levyfilter.errors import DegeneracyError, ModelViolationError
from levyfilter.families import build_family
from levyfilter.filtering import (cloud_weights, innovation_process,
                                  ks_residual, resample, write_trajectory_csv,
                                  zakai_filter, zakai_residual)
from levyfilter.model import LevyMeasureSpec, SystemSpec, generator_values
from levyfilter.oracle import kalman_bucy
from levyfilter.rng import substream
from levyfilter.simulate import (TimeGrid, project_observation, simulate_path,
                                 write_observation)
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
HAND_X = np.array([[0.0], [1.0], [2.0]])
HAND_LOGW = np.log(np.array([1.0, 2.0, 3.0]))

# Two equally weighted particles at 0 and class 1 under the linear family
# (sigma1 = 0.5 constant, h(x) = x):
#   pi(F) = 1/2, pi(h) = 1/2, pi(grad F . sigma1) = 0.5, pi(F h) = 1/2
#   zakai gain = 0.5 + 0.5 = 1,  normalized gain = 1 - 1/2 * 1/2 = 3/4
HAND_ZAKAI_GAIN = 1.0
HAND_KS_GAIN = 0.75


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
    w, log_mass, _ = cloud_weights(HAND_LOGW)
    pi_x = w @ HAND_X[:, 0]
    assert pi_x == pytest.approx(HAND_PI_X, abs=1e-14)
    assert np.exp(log_mass) * pi_x == pytest.approx(HAND_RHO_X, abs=1e-14)


def test_effective_sample_size_closed_forms():
    assert cloud_weights(np.zeros(50))[2] == pytest.approx(50.0)
    assert cloud_weights(HAND_LOGW)[2] == pytest.approx(HAND_ESS, abs=1e-12)
    assert cloud_weights(np.array([0.0, -1000.0]))[2] == \
        pytest.approx(1.0, abs=1e-12)
    assert cloud_weights(np.full(3, -np.inf))[2] == 0.0


def test_resample_preserves_mass_and_matches_weights():
    N = 9000
    x = np.repeat(np.array([[0.0], [1.0], [2.0]]), N // 3, axis=0)
    logw = np.repeat(np.log(np.array([1.0, 2.0, 3.0])), N // 3)
    w, log_mass, _ = cloud_weights(logw)
    out_x, out_logw = resample(x, w, log_mass, substream(123, "resample-test"))
    assert cloud_weights(out_logw)[1] == pytest.approx(log_mass, abs=1e-13)
    assert np.all(np.isin(out_x, [0.0, 1.0, 2.0]))
    assert np.ptp(out_logw) == 0.0
    for atom, p in zip((0.0, 1.0, 2.0), (1 / 6, 2 / 6, 3 / 6)):
        frac = np.mean(out_x[:, 0] == atom)
        assert abs(frac - p) <= 3 * np.sqrt(p * (1 - p) / N)


# --- gains ---------------------------------------------------------------------

def test_summary_gains_hand_values():
    # node 0 of a run from the hand cloud, whose two particles weigh 1/2 each
    scen = build_family("linear_gaussian")
    grid = TimeGrid(0.0, scen.spec.T, 1)
    obs = project_observation(simulate_path(scen.spec, grid,
                                            scen.prior_sampler, scen.y0, 5))
    F = coordinate(0)
    traj = zakai_filter(scen.spec, obs, 2,
                        lambda rng, size: np.array([[0.0], [1.0]]), 6,
                        test_functions=[F])
    s = traj.summaries[F.name]
    assert s.pi_F[0] == pytest.approx(0.5, abs=1e-14)
    assert traj.pi_h[0] == pytest.approx([0.5], abs=1e-14)
    assert s.zakai_gain()[0] == pytest.approx([HAND_ZAKAI_GAIN], abs=1e-14)
    assert s.ks_gain(traj.pi_h)[0] == pytest.approx([HAND_KS_GAIN],
                                                    abs=1e-14)


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
    assert traj.event_count[-1] == len(obs.event_steps)


def test_constant_function_ks_residual_vanishes():
    F = constant(1.0)
    scen, rec, obs, traj, _ = run_family(
        "mixed", 50, 400, 17, params={"rate1": 2.0, "rate2": 3.0},
        test_functions=[F, coordinate(0)])
    assert len(obs.event_steps) > 0
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
                        ess_fraction=0.0)
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
        ess_fraction=0.99)
    fired = np.flatnonzero(traj.resampled)
    assert len(fired) > 0
    assert np.all(traj.ess[fired] == 400.0)
    scen2, rec2, obs2, traj2, _ = run_family(
        "linear_gaussian", 60, 400, 23,
        ess_fraction=0.0)
    assert not traj2.resampled.any()


def test_assemblers_equal_their_defining_sums():
    # The assemblers are array expressions; the reference is the defining
    # per-step sum, added in step order. Whole running sums are compared:
    # a difference of running sums is not exact in floating point.
    scen, rec, obs, traj, funcs = run_family(
        "mixed", 50, 300, 17, params={"rate1": 2.0, "rate2": 3.0},
        ess_fraction=0.95)
    assert traj.is_jump.any() and traj.resampled.any()
    K = len(traj.t) - 1
    mass = traj.mass()
    for F in funcs:
        s = traj.summaries[F.name]
        ks, zk = np.zeros(K + 1), np.zeros(K + 1)
        ks_sum = zk_sum = 0.0
        for k in range(K):
            dt, pi_h = traj.dt[k], traj.pi_h[k]
            if traj.is_jump[k]:
                ks_sum += s.jump_D[k]
                zk_sum += s.zakai_jump[k]
            else:
                compensator = dt * traj.rate2
                gain = s.grad_coup[k] + s.f_h[k]
                ks_sum += (s.pi_LF[k] * dt
                           + float((gain - s.pi_F[k] * pi_h)
                                   @ (traj.dW[k] - pi_h * dt))
                           - compensator * (s.pi_F_lambar[k]
                                            - s.pi_F[k] * traj.pi_lambar[k]))
                zk_sum += (mass[k] * (s.pi_LF[k] * dt
                                      + float(gain @ traj.dW[k]))
                           - compensator * mass[k] * (s.pi_F_lambar[k]
                                                      - s.pi_F[k]))
            ks[k + 1] = s.pi_F[k + 1] - s.pi_F[0] - ks_sum
            zk[k + 1] = mass[k + 1] * s.pi_F[k + 1] - mass[0] * s.pi_F[0] - zk_sum
        assert ks_residual(traj, F.name).tobytes() == ks.tobytes()
        assert zakai_residual(traj, F.name).tobytes() == zk.tobytes()
    comp = np.zeros(K + 1)
    for k in range(K):
        if traj.is_jump[k]:
            comp[k + 1] = comp[k] + 1.0
        else:
            comp[k + 1] = comp[k] - traj.rate2 * traj.pi_lambar[k] * traj.dt[k]
    assert innovation_process(traj).jump_compensated.tobytes() == comp.tobytes()


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
    assert len(obs.event_steps) > 0
    bad = replace(scen.spec, lam=lambda t, x, u: np.full(
        np.broadcast(np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 1.5))
    with pytest.raises(ModelViolationError):
        zakai_filter(bad, obs, 100, scen.prior_sampler, 1)


def test_filter_enforces_conditional_intensity_floor():
    scen = build_family("jump_only", {"rate2": 6.0})
    grid = TimeGrid(0.0, scen.spec.T, 30)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 23)
    obs = project_observation(rec)
    assert len(obs.event_steps) > 0
    strict = replace(scen.spec, iota=0.99)
    with pytest.raises(ModelViolationError):
        zakai_filter(strict, obs, 100, scen.prior_sampler, 1)


def test_filter_reports_mass_collapse(monkeypatch):
    monkeypatch.setattr(filtering, "MASS_FLOOR", 10.0)
    scen = build_family("jump_free")
    grid = TimeGrid(0.0, scen.spec.T, 10)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 3)
    obs = project_observation(rec)
    with pytest.raises(DegeneracyError):
        zakai_filter(scen.spec, obs, 50, scen.prior_sampler, 1)


def test_collapsed_cloud_is_a_degeneracy_before_the_resample_test():
    # a sensor of 1e200 x drives every log-weight to -inf or NaN in one
    # step, so node 1 meets a cloud with no finite weight; the resample test
    # (ess_fraction > 0) must not be reached with it
    scen = build_family("affine")
    grid = TimeGrid(0.0, scen.spec.T, 20)
    obs = project_observation(simulate_path(scen.spec, grid,
                                            scen.prior_sampler, scen.y0, 3))
    huge = replace(scen.spec, b2=lambda t, x, y: 1e200 * np.asarray(x, float))
    with np.errstate(all="ignore"), \
            pytest.raises(DegeneracyError, match="mass collapsed"):
        zakai_filter(huge, obs, 100, scen.prior_sampler, 4, ess_fraction=0.5)


# --- outputs -------------------------------------------------------------------

def test_store_clouds_and_trajectory_csv(tmp_path):
    scen, rec, obs, traj, funcs = run_family("jump_free", 30, 150, 37,
                                             store_clouds=True)
    assert traj.clouds is not None
    assert len(traj.clouds) == len(obs.t)
    assert cloud_weights(traj.clouds[-1][1])[1] == pytest.approx(
        traj.log_mass[-1], abs=1e-12)
    assert traj.clouds[0][0].shape == (150, 1)
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


def _csv_module_trajectory(traj, path):
    # the csv-module form of the writer: one formatted list per row
    names = list(traj.summaries)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "log_mass", "ess", "resampled"]
                   + [f"pi_h_{l}" for l in range(traj.pi_h.shape[1])]
                   + ["pi_lambda_bar"] + [f"pi_{name}" for name in names])
        for k in range(len(traj.t)):
            row = [format(traj.t[k], ".17g"),
                   format(traj.log_mass[k], ".17g"),
                   format(traj.ess[k], ".17g"), int(traj.resampled[k])]
            row += [format(v, ".17g") for v in traj.pi_h[k]]
            row += [format(traj.pi_lambar[k], ".17g")]
            row += [format(traj.summaries[name].pi_F[k], ".17g")
                    for name in names]
            w.writerow(row)


def test_trajectory_csv_bytes_match_the_csv_module_writer(tmp_path):
    traj = run_family("mixed", 30, 150, 37)[3]
    log_mass = traj.log_mass.copy()
    log_mass[[1, 2, 3]] = [np.nan, -0.0, np.inf]
    resampled = traj.resampled.copy()
    resampled[5] = True
    traj = replace(traj, log_mass=log_mass, resampled=resampled)
    write_trajectory_csv(traj, tmp_path / "fast.csv")
    _csv_module_trajectory(traj, tmp_path / "reference.csv")
    got = (tmp_path / "fast.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert b"nan" in got and b",-0," in got and got.endswith(b"\r\n")


def _csv_module_observation(obs, path):
    # the csv-module form of the observation rows: one formatted list per row
    m = obs.Y.shape[1]
    md = obs.marks2.shape[1] if obs.marks2.size else 1
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        g = obs.base_grid
        w.writerow(["#meta", "m", m, "mark_dim", md, "seed", obs.source_seed,
                    "t0", format(g.t0, ".17g"), "t1", format(g.t1, ".17g"),
                    "n_steps", g.n_steps, "n_events", len(obs.event_steps)])
        w.writerow(["#marks2", str(obs.marks2.shape[0]),
                    str(obs.marks2.shape[1])]
                   + [format(v, ".17g") for v in obs.marks2.ravel()])
        w.writerow(["t"] + [f"y_{i}" for i in range(m)]
                   + ["event_step", "event"] + [f"mark_{i}" for i in range(md)])
        marks = iter(obs.event_marks)
        for k, jump in enumerate(np.append(obs.is_jump(), False)):
            row = [format(obs.t[k], ".17g")]
            row += [format(v, ".17g") for v in obs.Y[k]]
            if jump:
                row += [k, 1] + [format(v, ".17g") for v in next(marks)]
            else:
                row += ["", 0] + [""] * md
            w.writerow(row)


def test_observation_csv_bytes_match_the_csv_module_writer(tmp_path):
    scen = build_family("mixed", {"rate2": 8.0})
    rec = simulate_path(scen.spec, TimeGrid(0.0, scen.spec.T, 30),
                        scen.prior_sampler, scen.y0, 43)
    obs = project_observation(rec)
    assert len(obs.event_steps) >= 2
    Y = obs.Y.copy()
    Y[[1, 2], 0] = [np.nan, -0.0]
    event_marks = obs.event_marks.copy()
    event_marks[0, 0] = -0.0
    obs = replace(obs, Y=Y, event_marks=event_marks)
    write_observation(obs, tmp_path / "fast.csv")
    _csv_module_observation(obs, tmp_path / "reference.csv")
    got = (tmp_path / "fast.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert b"nan" in got and b",-0" in got and b",,0," in got
    assert got.endswith(b"\r\n")


def _mark_dependent_lam(spec):
    lam = spec.lam
    return replace(spec, lam=lambda t, x, u: (
        lam(t, x, u) * (0.9 + 0.1 * np.asarray(u)[..., 0])))


def _state_dependent_sigma1(spec):
    return replace(spec, sigma1=lambda t, x: (
        0.3 * (1.0 + 0.2 * np.tanh(np.asarray(x, float))))[..., None])


def _time_dependent_in_place(spec):
    """sigma0 and sigma1 that read t and each return one array object,
    changed in place at every call, and an f1 that reads t: shared values
    that a cache keyed on identity or on shape would serve stale."""
    on_B, on_W = np.zeros((1, 1)), np.zeros((1, 1))

    def sigma0(t, x):
        on_B[0, 0] = 0.4 + 0.3 * t
        return on_B

    def sigma1(t, x):
        on_W[0, 0] = 0.3 - 0.1 * t
        return on_W

    def f1(t, x, u):
        return (0.3 + 0.2 * t) * np.asarray(u, float)

    return replace(spec, sigma0=sigma0, sigma1=sigma1, f1=f1)


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
    # x-free terms lent from node to node must follow coefficients that
    # read t, even through one array object changed in place
    ("mixed", _time_dependent_in_place, [], 0.5),
], ids=["mixed", "sensor_saturated", "mixed-mark_lambda", "mixed-bump",
        "mixed-state_sigma1", "mixed-resample_after_jumps",
        "mixed-time_in_place"])
def test_node_moments_equal_direct_evaluation(family, change, extra,
                                              ess_fraction):
    # Both jump channels on, with candidates dense enough for observation
    # events: each per-node term the filter evaluates once and shares must
    # equal, bit for bit, a fresh evaluation on the cloud stored at the node.
    scen, rec, obs, traj, funcs = run_family(
        family, 40, 200, 53, params={"rate2": 8.0}, change=change,
        test_functions=[coordinate(0), quadratic()] + extra, store_clouds=True,
        ess_fraction=ess_fraction)
    spec = scen.spec
    assert spec.nu1.rate > 0.0 and spec.nu2.rate > 0.0
    assert traj.event_count[-1] >= 1
    assert all(F.degree is None for F in extra)
    after_jump = np.flatnonzero(traj.is_jump) + 1
    if ess_fraction > 0.9:
        # both branches at a node after a jump: terms kept, and recomputed
        assert 0 < np.sum(traj.resampled[after_jump]) < len(after_jump)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget)
    for k, (x, logw) in enumerate(traj.clouds):
        # a fresh copy of the spec and of both its measures at every node
        # holds no kept term, so the direct evaluation shares none with
        # the run it checks
        fresh = replace(spec, nu1=replace(spec.nu1), nu2=replace(spec.nu2))
        t, y = obs.t[k], obs.Y[k]
        N = x.shape[0]
        w = cloud_weights(logw)[0]
        hv = np.asarray(fresh.h(t, x, y), float).reshape(N, spec.m)
        lam_marks = fresh.lam_marks(t, x, obs.marks2)
        if change is _mark_dependent_lam:
            assert lam_marks.shape == (N, len(obs.marks2))
        if change is _state_dependent_sigma1:
            assert fresh.sigma1(t, x).shape == (N, spec.n, spec.m)
        lam_bar = np.mean(lam_marks, axis=-1)
        coup = np.broadcast_to(fresh.sigma1(t, x), (N, spec.n, spec.m))
        assert np.array_equal(traj.pi_h[k], w @ hv)
        assert traj.pi_lambar[k] == float(w @ lam_bar)
        for F in funcs:
            s = traj.summaries[F.name]
            vals = F.value(x)
            grad = F.grad(x)
            lf = generator_values(fresh, F, t, x, marks1)
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
