"""Reference solutions: correlated-gain Kalman recursion and the
from-scratch Monte Carlo conditional oracle."""

import numpy as np
import pytest

from levyfilter.errors import ConfigError
from levyfilter.families import build_family
from levyfilter.filtering import zakai_filter
from levyfilter.oracle import LinearSpec, kalman_bucy, mc_conditional_oracle
from levyfilter.simulate import (ObservationRecord, TimeGrid,
                                 project_observation, simulate_path)
from levyfilter.testfuncs import coordinate, quadratic

# --- independent oracles ------------------------------------------------------
# Stationary Riccati roots, solved by hand from
#   0 = 2 A P + S0^2 + S1^2 - (P H + S1 R)^2 / R^2 :
# correlated   (A=-1, S0=S1=1/2, H=R=1):  P^2 + 3P - 1/4 = 0
#   -> P = (sqrt(10) - 3) / 2
# uncorrelated (A=-1, S0=1/2, S1=0, H=R=1): P^2 + 2P - 1/4 = 0
#   -> P = sqrt(5)/2 - 1
# unobserved   (A=-1, S0=1, S1=0, H=0): Lyapunov  P(t) = 1/2 + (P0 - 1/2) e^{-2t}
P_STAT_CORRELATED = 0.08113883008418966
P_STAT_UNCORRELATED = 0.11803398874989490
P_LYAPUNOV_T2_FROM_1 = 0.5 + 0.5 * np.exp(-4.0)


def correlated_lin():
    return LinearSpec(A=-1.0, Sigma0=0.5, Sigma1=0.5, H=1.0, R=1.0,
                      x0_mean=[0.0], x0_cov=1.0)


def prior_only_record(spec, y0):
    """Single-node observation record: conditioning on no information."""
    return ObservationRecord(TimeGrid(0.0, spec.T, 1),
                             np.array([0.0]), np.atleast_2d(y0),
                             np.array([], dtype=int), np.zeros((0, 1)),
                             np.zeros((0, 1)), source_seed=0)


# --- linear reference -----------------------------------------------------------

def test_linear_spec_validates_shapes():
    with pytest.raises(ConfigError):
        LinearSpec(A=np.eye(2), Sigma0=np.eye(2), Sigma1=np.eye(2),
                   H=np.ones((1, 3)), R=1.0, x0_mean=[0.0, 0.0],
                   x0_cov=np.eye(2))
    with pytest.raises(ConfigError):
        LinearSpec(A=-1.0, Sigma0=0.5, Sigma1=0.5, H=1.0,
                   R=np.ones((2, 2)), x0_mean=[0.0], x0_cov=1.0)
    # n = 2, m = 1: Sigma0 (2, d), Sigma1 (2, 1), x0_mean (2,), x0_cov (2, 2)
    good = dict(A=np.eye(2), Sigma0=np.eye(2), Sigma1=np.ones((2, 1)),
                H=np.ones((1, 2)), R=1.0, x0_mean=[0.0, 0.0],
                x0_cov=np.eye(2))
    LinearSpec(**good)
    for key, bad in (("Sigma0", np.eye(3)), ("Sigma1", np.eye(2)),
                     ("x0_mean", [0.0]), ("x0_cov", np.eye(3))):
        with pytest.raises(ConfigError):
            LinearSpec(**dict(good, **{key: bad}))


@pytest.mark.parametrize("s1, p0, root", [
    (0.5, 1.0, P_STAT_CORRELATED),
    (0.0, 1.0, P_STAT_UNCORRELATED),
    (0.5, 5.0, P_STAT_CORRELATED),      # the root does not depend on P0
], ids=["correlated", "uncorrelated", "correlated_from_5"])
def test_kalman_covariance_reaches_stationary_root(s1, p0, root):
    lin = LinearSpec(A=-1.0, Sigma0=0.5, Sigma1=s1, H=1.0, R=1.0,
                     x0_mean=[0.0], x0_cov=p0)
    t = np.linspace(0.0, 8.0, 801)
    kal = kalman_bucy(lin, t, np.zeros((801, 1)))
    assert kal.cov[-1, 0, 0] == pytest.approx(root, abs=1e-4)


def test_kalman_unobserved_follows_lyapunov_flow():
    lin = LinearSpec(A=-1.0, Sigma0=1.0, Sigma1=0.0, H=0.0, R=1.0,
                     x0_mean=[0.7], x0_cov=1.0)
    t = np.linspace(0.0, 2.0, 201)
    kal = kalman_bucy(lin, t, np.zeros((201, 1)))
    assert kal.cov[-1, 0, 0] == pytest.approx(P_LYAPUNOV_T2_FROM_1, rel=1e-2)
    # H = 0 leaves the mean on the deterministic drift flow
    assert kal.mean[-1, 0] == pytest.approx(0.7 * (1.0 - t[1]) ** 200,
                                            abs=1e-12)


def test_kalman_reads_a_one_dimensional_path():
    scen = build_family("linear_gaussian")
    grid = TimeGrid(0.0, 1.0, 50)
    obs = project_observation(simulate_path(
        scen.spec, grid, scen.prior_sampler, scen.y0, 29))
    col = kalman_bucy(scen.linear, obs.t, obs.Y)
    flat = kalman_bucy(scen.linear, obs.t, obs.Y[:, 0])
    assert col.mean.tobytes() == flat.mean.tobytes()
    assert col.cov.tobytes() == flat.cov.tobytes()
    with pytest.raises(ValueError, match="50 rows for 51 times"):
        kalman_bucy(scen.linear, obs.t, obs.Y[:-1, 0])


def test_kalman_noise_free_mean_is_euler_flow():
    lin = LinearSpec(A=-1.0, Sigma0=0.0, Sigma1=0.0, H=1.0, R=1.0,
                     x0_mean=[1.0], x0_cov=0.0)
    t = np.linspace(0.0, 1.0, 101)
    kal = kalman_bucy(lin, t, np.zeros((101, 1)))
    assert np.max(np.abs(kal.cov)) == 0.0
    assert kal.mean[-1, 0] == pytest.approx((1.0 - 0.01) ** 100, abs=1e-12)


# --- Monte Carlo conditional oracle ----------------------------------------------

def test_oracle_deterministic_in_seed():
    scen = build_family("mixed")
    grid = TimeGrid(0.0, scen.spec.T, 40)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 71)
    obs = project_observation(rec)
    a = mc_conditional_oracle(scen.spec, obs, 2000, scen.prior_sampler, 5,
                              coordinate(0))
    b = mc_conditional_oracle(scen.spec, obs, 2000, scen.prior_sampler, 5,
                              coordinate(0))
    assert a.value == b.value and a.se == b.se
    assert np.isfinite(a.se) and a.se > 0.0


def test_oracle_with_no_observations_returns_prior_moments():
    scen = build_family("uninformative")
    obs = prior_only_record(scen.spec, scen.y0)
    p = scen.params
    est1 = mc_conditional_oracle(scen.spec, obs, 20000, scen.prior_sampler,
                                 13, coordinate(0))
    assert abs(est1.value - p["prior_mean"]) <= 3 * est1.se
    est2 = mc_conditional_oracle(scen.spec, obs, 20000, scen.prior_sampler,
                                 13, quadratic())
    assert abs(est2.value - (p["prior_mean"] ** 2 + p["prior_std"] ** 2)) <= \
        3 * est2.se


def test_oracle_matches_kalman_on_linear_family():
    scen = build_family("linear_gaussian")
    grid = TimeGrid(0.0, 1.0, 200)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 83)
    obs = project_observation(rec)
    kal = kalman_bucy(scen.linear, obs.t, obs.Y)
    est = mc_conditional_oracle(scen.spec, obs, 30000, scen.prior_sampler,
                                17, coordinate(0))
    assert abs(est.value - kal.mean[-1, 0]) <= 3 * est.se + 0.01


@pytest.mark.parametrize("family", ["mixed", "affine"])
def test_oracle_matches_filter(family):
    scen = build_family(family)
    grid = TimeGrid(0.0, scen.spec.T, 100)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 91)
    obs = project_observation(rec)
    F = coordinate(0)
    est = mc_conditional_oracle(scen.spec, obs, 30000, scen.prior_sampler,
                                19, F)
    vals = np.array([
        zakai_filter(scen.spec, obs, 3000, scen.prior_sampler, 100 + j,
                     test_functions=[F]).summaries[F.name].pi_F[-1]
        for j in range(6)])
    combined = np.sqrt(est.se**2 + vals.var(ddof=1) / len(vals))
    assert abs(vals.mean() - est.value) <= 3 * combined
