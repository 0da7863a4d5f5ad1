"""Gaussian smoothing: closed-form norms, kernel identities, energy curves."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter.errors import ConfigError
from levyfilter.mollify import (auto_grid, build_grid, energy_distance,
                                energy_trajectory, gronwall_constant, h_norm,
                                mollified_density, mollify_measure,
                                smoothing_checks)

# --- independent oracles ------------------------------------------------------
# Gaussian kernel integrals in closed form.  With the kernel
# phi_eps(x) = (2 pi eps)^(-1/2) exp(-x^2 / (2 eps)):
#   ||S_eps delta_a||^2            = 1 / (2 sqrt(pi eps))
#   <S_eps delta_a, S_eps delta_b> = exp(-(a-b)^2/(4 eps)) / (2 sqrt(pi eps))
#   ||S_eps(a d_u + b d_v)||^2     = (a^2+b^2+2ab e^{-(u-v)^2/4eps})/(2 sqrt(pi eps))
#   dist(delta_0, delta_2; eps=1)  = sqrt((1 - e^{-1}) / sqrt(pi))
DELTA_NORM_EPS1 = 0.28209479177387814        # 1 / (2 sqrt(pi))
DELTA_NORM_EPS2 = 0.19947114020071635        # 1 / (2 sqrt(2 pi))
DIST_D0_D2_EPS1 = 0.5971899487076612
ATOM_DENSITY_EPS1 = 0.3989422804014327       # (2 pi)^(-1/2)


def two_point_norm(a, b, u, v, eps):
    pref = 1.0 / (2.0 * np.sqrt(np.pi * eps))
    return pref * (a * a + b * b + 2 * a * b * np.exp(-(u - v) ** 2 / (4 * eps)))


def random_cloud(seed, size=25):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, 1)), rng.uniform(0.1, 1.0, size)


# --- closed-form norms ----------------------------------------------------------

def test_point_mass_norm_closed_forms():
    f1 = mollify_measure(np.array([[0.0]]), np.array([1.0]), 1.0)
    assert h_norm(f1) == pytest.approx(DELTA_NORM_EPS1, abs=1e-10)
    f2 = mollify_measure(np.array([[0.0]]), np.array([1.0]), 2.0)
    assert h_norm(f2) == pytest.approx(DELTA_NORM_EPS2, abs=1e-10)
    # translation invariance of the norm
    f3 = mollify_measure(np.array([[5.5]]), np.array([1.0]), 1.0)
    assert h_norm(f3) == pytest.approx(DELTA_NORM_EPS1, abs=1e-10)


def test_two_point_norm_closed_form():
    a, b, u, v, eps = 0.7, -0.4, -1.0, 1.5, 0.8
    f = mollify_measure(np.array([[u], [v]]), np.array([a, b]), eps)
    assert h_norm(f) == pytest.approx(two_point_norm(a, b, u, v, eps),
                                      abs=1e-12)


def test_mass_preserved_and_density_peak():
    pts, w = random_cloud(3)
    f = mollify_measure(pts, w, 0.6)
    assert f.grid.weights() @ f.values == pytest.approx(w.sum(), abs=1e-10)
    dens = mollified_density(np.array([[0.0]]), np.array([1.0]), 1.0,
                             np.array([[0.0]]))
    assert dens[0] == pytest.approx(ATOM_DENSITY_EPS1, abs=1e-14)


def test_norm_scales_quadratically_in_total_mass():
    pts, w = random_cloud(11)
    base = h_norm(mollify_measure(pts, w, 0.5))
    scaled = h_norm(mollify_measure(pts, 3.0 * w, 0.5))
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_energy_distance_closed_form_and_scaling():
    d = energy_distance([[0.0]], [1.0], [[2.0]], [1.0], 1.0)
    assert d == pytest.approx(DIST_D0_D2_EPS1, abs=1e-10)
    pa, wa = random_cloud(5)
    pb, wb = random_cloud(6)
    base = energy_distance(pa, wa, pb, wb, 0.7)
    scaled = energy_distance(pa, 2.0 * wa, pb, 2.0 * wb, 0.7)
    assert scaled == pytest.approx(2.0 * base, rel=1e-10)


# --- kernel identities ----------------------------------------------------------

@pytest.mark.parametrize("seed,eps", [(1, 0.5), (2, 1.0), (3, 2.0)])
def test_smoothing_identities_sample_cases(seed, eps):
    pts, w = random_cloud(seed)
    gaps = smoothing_checks(pts, w, eps, lambda x: np.cos(x[:, 0]))
    assert gaps["adjoint"] <= 1e-8
    assert gaps["contraction"] <= 1e-8
    assert gaps["semigroup"] <= 1e-6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), eps=st.floats(0.3, 3.0))
def test_bandwidth_contraction_property(seed, eps):
    pts, w = random_cloud(seed)
    wide = h_norm(mollify_measure(pts, w, eps))
    wider = h_norm(mollify_measure(pts, w, 2.0 * eps))
    assert wider <= wide + 1e-10


@settings(max_examples=20, deadline=None)
@given(sa=st.integers(0, 2**31 - 1), sb=st.integers(0, 2**31 - 1),
       sc=st.integers(0, 2**31 - 1))
def test_energy_distance_is_a_metric_on_samples(sa, sb, sc):
    pa, wa = random_cloud(sa, 12)
    pb, wb = random_cloud(sb, 12)
    pc, wc = random_cloud(sc, 12)
    eps = 0.8
    grid = auto_grid(np.concatenate([pa, pb, pc]), eps)
    dab = energy_distance(pa, wa, pb, wb, eps, grid=grid)
    dba = energy_distance(pb, wb, pa, wa, eps, grid=grid)
    dac = energy_distance(pa, wa, pc, wc, eps, grid=grid)
    dcb = energy_distance(pc, wc, pb, wb, eps, grid=grid)
    assert dab == pytest.approx(dba, abs=1e-10)
    assert dab <= dac + dcb + 1e-10
    assert energy_distance(pa, wa, pa, wa, eps, grid=grid) <= 1e-10


# --- guards ----------------------------------------------------------------------

def test_grid_and_bandwidth_guards():
    with pytest.raises(ConfigError):
        build_grid([0.0], [0.0], 0.1)
    with pytest.raises(ConfigError):
        build_grid([0.0], [1.0], 1e-9)          # node-count ceiling
    with pytest.raises(ConfigError):
        mollify_measure([[0.0]], [1.0], -1.0)
    g1 = build_grid([0.0], [1.0], 0.1)
    with pytest.raises(ConfigError):
        mollify_measure(np.zeros((2, 2)), np.ones(2), 1.0, grid=g1)


# --- energy trajectories ----------------------------------------------------------

def test_energy_trajectory_point_mass_closed_form():
    # three single-atom clouds with masses 1, 2, 4 at bandwidth 1:
    # energies must be mass^2 / (2 sqrt(pi))
    clouds = [(np.array([[0.0]]), np.array([np.log(c)]))
              for c in (1.0, 2.0, 4.0)]
    traj = SimpleNamespace(clouds=clouds)
    E = energy_trajectory(traj, 1.0)
    expect = np.array([1.0, 4.0, 16.0]) * DELTA_NORM_EPS1
    assert np.allclose(E, expect, rtol=1e-9)


def test_energy_trajectory_requires_clouds():
    with pytest.raises(ConfigError):
        energy_trajectory(SimpleNamespace(clouds=None), 1.0)


def test_gronwall_constant_exponential_closed_form():
    t = np.linspace(0.0, 2.0, 41)
    for gamma in (-0.7, 0.0, 1.3):
        E = 0.4 * np.exp(gamma * t)
        assert gronwall_constant(t, E) == pytest.approx(gamma, abs=1e-12)
    with pytest.raises(ConfigError):
        gronwall_constant(t, np.zeros_like(t))


def test_gronwall_constant_takes_worst_rate():
    t = np.linspace(0.0, 1.0, 11)
    E = np.exp(0.5 * t)
    E[-1] = np.exp(0.9)               # late bump dominates
    assert gronwall_constant(t, E) == pytest.approx(0.9, abs=1e-12)
