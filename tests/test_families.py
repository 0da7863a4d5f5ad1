"""Bundled scenario families: registry, parameter plumbing, assumptions."""

import numpy as np
import pytest

from levyfilter.errors import ConfigError
from levyfilter.families import FAMILIES, Scenario, build_family, list_families
from levyfilter.filtering import zakai_filter
from levyfilter.model import validate_hypotheses
from levyfilter.rng import substream
from levyfilter.simulate import TimeGrid, project_observation, simulate_path
from levyfilter.testfuncs import coordinate, quadratic

ALL_FAMILIES = sorted(FAMILIES)


def test_registry_listing():
    listed = list_families()
    assert [name for name, _ in listed] == list(FAMILIES)
    assert len(listed) == 9
    for name, desc in listed:
        assert desc and "\n" not in desc


def test_unknown_family_and_parameter_are_config_errors():
    with pytest.raises(ConfigError, match="unknown family"):
        build_family("does_not_exist")
    with pytest.raises(ConfigError, match="unknown parameter"):
        build_family("trig", {"bogus": 1.0})


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_every_family_passes_hypothesis_screen(name):
    scen = build_family(name)
    report = validate_hypotheses(scen.spec, 300, 2024)
    assert report.passed, [c.name for c in report.failures()]


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_every_family_simulates_and_filters(name):
    scen = build_family(name)
    assert isinstance(scen, Scenario)
    grid = TimeGrid(0.0, scen.spec.T, 25)
    rec = simulate_path(scen.spec, grid, scen.prior_sampler, scen.y0, 555)
    obs = project_observation(rec)
    funcs = [coordinate(0), quadratic()]
    traj = zakai_filter(scen.spec, obs, 200, scen.prior_sampler, 556,
                        test_functions=funcs)
    for F in funcs:
        assert np.all(np.isfinite(traj.summaries[F.name].pi_F))
    assert np.all(np.isfinite(traj.log_mass))
    assert traj.ess[-1] > 1.0


def test_parameter_overrides_reach_the_coefficients():
    scen = build_family("linear_gaussian", {"a": -2.0, "gain": 3.0})
    assert scen.spec.b1(0.0, np.array([1.0])) == pytest.approx([-2.0])
    assert scen.spec.h(0.0, np.array([1.0]), np.zeros(1)) == \
        pytest.approx([3.0])
    assert scen.params["a"] == -2.0
    assert scen.linear.A[0, 0] == -2.0


def test_linear_reference_only_on_linear_family():
    assert build_family("linear_gaussian").linear is not None
    for name in ("trig", "mixed", "jump_only", "uninformative"):
        assert build_family(name).linear is None


def test_sigmoid_intensity_stays_inside_declared_band():
    scen = build_family("jump_only", {"lam0": 0.1})
    lam = scen.spec.lam
    for x in (-40.0, -1.0, 0.0, 1.0, 40.0):
        v = float(lam(0.0, np.array([x]), np.array([1.0])))
        assert 0.1 <= v <= 0.9
    assert float(lam(0.0, np.array([0.0]), np.array([1.0]))) == \
        pytest.approx(0.5)


def test_gaussian_prior_sampler_moments():
    scen = build_family("uninformative")
    draws = scen.prior_sampler(substream(12, "prior-test"), 40000)[:, 0]
    p = scen.params
    assert abs(draws.mean() - p["prior_mean"]) <= \
        3 * p["prior_std"] / np.sqrt(len(draws))
    assert abs(draws.std(ddof=1) - p["prior_std"]) <= \
        3 * p["prior_std"] / np.sqrt(2 * len(draws))


def test_sensor_family_mixing_is_unitary():
    # the orthogonal mix, written in the model's basis, keeps the signal's
    # noise variance s1^2 and shares s1 cos(theta) of it with the observation
    scen = build_family("sensor_saturated", {"s1": 0.7, "theta": 2.5})
    spec, x, y = scen.spec, np.array([0.3]), np.array([-1.0])
    s0, s1, s2 = spec.sigma0(0.2, x), spec.sigma1(0.2, x), spec.sigma2(0.2, y)
    assert (spec.n, spec.m, spec.d) == (1, 1, 1)
    np.testing.assert_allclose(s0 @ s0.T + s1 @ s1.T, [[0.49]], rtol=1e-14)
    np.testing.assert_allclose(s1 @ s2.T, [[0.7 * np.cos(2.5)]], rtol=1e-14)
    assert np.array_equal(s2, [[1.0]])


def test_descriptions_and_names_consistent():
    for name in ALL_FAMILIES:
        scen = build_family(name)
        assert scen.name == name
        assert scen.spec.name == name
        assert scen.description.strip()
