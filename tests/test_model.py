"""System specification: hypothesis screening, generator, sensor function."""

import dataclasses
import warnings
from dataclasses import replace

import numpy as np
import pytest

from levyfilter.errors import InvertibilityError, ModelViolationError
from levyfilter.families import build_family
from levyfilter.filtering import zakai_filter
from levyfilter.girsanov import (sample_model_log_inverse_weights,
                                 sample_reference_log_weights)
from levyfilter.levy import compensator_integral
from levyfilter.model import (LevyMeasureSpec, SystemSpec, generator_values,
                              validate_hypotheses)
from levyfilter.propagation import lam_bar, thin
from levyfilter.rng import substream
from levyfilter.simulate import TimeGrid, project_observation, simulate_path
from levyfilter.testfuncs import (TestFunction, bump, constant, coordinate,
                                  hermite_window, quadratic)

# --- independent oracles ------------------------------------------------------

def fd_generator(spec, F, t, x, marks, h=1e-5):
    """Finite-difference + direct mark-sum evaluation of the generator.

    Uses central differences for the gradient/Hessian instead of the test
    function's own derivative callbacks, so it cross-checks both the
    generator assembly and the registered derivatives.
    """
    x = np.asarray(x, float).reshape(spec.n)
    f = F.value

    def grad(z):
        g = np.zeros(spec.n)
        for i in range(spec.n):
            e = np.zeros(spec.n)
            e[i] = h
            g[i] = (f(z + e) - f(z - e)) / (2 * h)
        return g

    def hess(z):
        H = np.zeros((spec.n, spec.n))
        for i in range(spec.n):
            for j in range(spec.n):
                ei = np.zeros(spec.n)
                ej = np.zeros(spec.n)
                ei[i] = h
                ej[j] = h
                H[i, j] = (f(z + ei + ej) - f(z + ei - ej)
                           - f(z - ei + ej) + f(z - ei - ej)) / (4 * h * h)
        return H

    b = np.asarray(spec.b1(t, x), float).reshape(spec.n)
    a = np.asarray(spec.diffusion_matrix(t, x), float).reshape(spec.n, spec.n)
    out = float(grad(x) @ b + 0.5 * np.sum(a * hess(x)))
    if spec.nu1.rate > 0.0 and len(marks):
        disp = np.asarray(spec.f1(t, x[None, :], marks), float)
        disp = np.broadcast_to(disp, (len(marks), spec.n))
        g = grad(x)
        brack = [f(x + d) - f(x) - g @ d for d in disp]
        out += spec.nu1.rate * float(np.mean(brack))
    return out


def scalar_spec(b1=lambda t, x: -x, sigma0=1.0, sigma1=1.0, b2=None,
                sigma2=1.0, lam=0.5, nu1=None, nu2=None, f1=None,
                T=1.0, iota=1e-3):
    """One-dimensional spec with pluggable coefficients for local tests."""
    if b2 is None:
        b2 = lambda t, x, y: np.clip(x, -5.0, 5.0)
    if f1 is None:
        f1 = lambda t, x, u: np.zeros(np.shape(x))
    lam_fn = lam if callable(lam) else (
        lambda t, x, u, _l=lam: np.full(np.broadcast(
            np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, _l))
    sigma2_fn = sigma2 if callable(sigma2) else (
        lambda t, y, _s=sigma2: np.broadcast_to(
            np.array([[_s]]), np.shape(np.asarray(y))[:-1] + (1, 1)))
    return SystemSpec(
        n=1, m=1, d=1,
        b1=b1,
        sigma0=lambda t, x, _s=sigma0: np.broadcast_to(
            np.array([[_s]]), np.shape(np.asarray(x))[:-1] + (1, 1)),
        sigma1=lambda t, x, _s=sigma1: np.broadcast_to(
            np.array([[_s]]), np.shape(np.asarray(x))[:-1] + (1, 1)),
        f1=f1, b2=b2, sigma2=sigma2_fn,
        f2=lambda t, y, u: np.zeros(np.shape(y)),
        lam=lam_fn,
        nu1=nu1 or LevyMeasureSpec.none(),
        nu2=nu2 or LevyMeasureSpec.none(),
        T=T, iota=iota)


# --- hypothesis screening -----------------------------------------------------

def _two_dim_screen_spec():
    # n = m = 2 with off-diagonal drift, both jump channels on and a lam
    # that reads x, so every check has a witness with state coordinates
    A = np.array([[-1.0, 0.5], [-0.3, -0.8]])
    return SystemSpec(
        n=2, m=2, d=2,
        b1=lambda t, x: np.asarray(x) @ A.T,
        sigma0=lambda t, x: np.broadcast_to(
            np.array([[0.4, 0.1], [0.0, 0.3]]), np.shape(x)[:-1] + (2, 2)),
        sigma1=lambda t, x: np.broadcast_to(
            np.array([[0.2, 0.0], [-0.1, 0.3]]), np.shape(x)[:-1] + (2, 2)),
        f1=lambda t, x, u: 0.1 * u + 0.0 * np.asarray(x),
        b2=lambda t, x, y: np.tanh(x) + 0.0 * np.asarray(y),
        sigma2=lambda t, y: np.broadcast_to(
            np.diag([1.0, 2.0]), np.shape(y)[:-1] + (2, 2)),
        f2=lambda t, y, u: 0.2 * u + 0.0 * np.asarray(y),
        lam=lambda t, x, u: 0.5 + 0.3 * np.tanh(np.asarray(x)[..., 0]),
        nu1=LevyMeasureSpec.gaussian(0.1, 0.8, rate=1.3, dim=2),
        nu2=LevyMeasureSpec.uniform(-1.0, 1.0, rate=2.0, dim=2), T=1.0)


@pytest.mark.parametrize("make_spec", [scalar_spec, _two_dim_screen_spec],
                         ids=["scalar", "two_dim"])
def test_validate_all_pass_on_lipschitz_bounded_spec(make_spec):
    spec = make_spec()
    report = validate_hypotheses(spec, 200, 42)
    assert report.passed
    assert len(report.checks) == 12
    assert all(c.worst >= 0.0 or not np.isfinite(c.worst)
               for c in report.checks)
    for c in report.checks:
        for key, value in c.witness.items():
            if key in ("x", "x1", "x2", "y", "y1", "y2"):
                assert np.shape(value) == ((spec.n,) if key[0] == "x"
                                           else (spec.m,))


def test_validate_flags_singular_sigma2_with_witness():
    spec = scalar_spec(sigma2=lambda t, y: y[..., None] * np.ones(
        np.shape(y)[:-1] + (1, 1)))
    report = validate_hypotheses(spec, 200, 42)
    check = report["obs_bounded_invertible"]
    assert not check.passed
    assert check.witness["det"] == 0.0
    assert check.note == "sigma2 singular"


def test_validate_notes_a_non_finite_f2_moment():
    spec = replace(scalar_spec(nu2=LevyMeasureSpec.uniform(0.0, 1.0, 1.0)),
                   f2=lambda t, y, u: np.inf + 0.0 * (y + u))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate_hypotheses(spec, 200, 42)
    assert not caught    # inf - inf in its Lipschitz check fails it quietly
    lip = report["obs_coeff_lipschitz"]
    assert not lip.passed and lip.note == "non-finite value"
    check = report["obs_growth"]
    assert not check.passed and not np.isfinite(check.worst)
    assert check.note == "non-finite value"


@pytest.mark.parametrize("seed", range(3))
def test_hypothesis_screen_bounds_f2_at_each_probe_time(seed):
    # f2 grows by 1e150 for t > 0.5 only, and by the same amount at every
    # y, so no difference ratio sees it; its growth bound does
    spec = build_family("mixed").spec
    f2 = spec.f2
    spec = replace(spec, f2=lambda t, y, u: f2(t, y, u) + (
        1e150 if t > 0.5 else 0.0))
    check = validate_hypotheses(spec, 200, seed)["obs_growth"]
    assert not check.passed
    assert check.witness["t"] > 0.5


def test_validate_flags_unbounded_below_intensity():
    def sigmoid(t, x, u):
        z = np.asarray(x)[..., 0] + 0.0 * np.asarray(u)[..., 0]
        return 1.0 / (1.0 + np.exp(-z))

    # in the probe box [-5, 5] the least lam is sigmoid(-5), about 0.0067
    spec = scalar_spec(lam=sigmoid, nu2=LevyMeasureSpec.uniform(0., 1., 1.0),
                       iota=1e-2)
    report = validate_hypotheses(spec, 400, 42)
    check = report["jump_intensity_lower"]
    assert not check.passed
    assert check.worst < spec.iota
    assert check.witness["x"] == -5.0


def test_validate_deterministic_in_seed():
    spec = scalar_spec()
    r1 = validate_hypotheses(spec, 100, 7)
    r2 = validate_hypotheses(spec, 100, 7)
    assert [c.worst for c in r1.checks] == [c.worst for c in r2.checks]


def test_validate_reports_raising_coefficient_as_failure():
    def bad_b1(t, x):
        raise FloatingPointError("boom")

    report = validate_hypotheses(scalar_spec(b1=bad_b1), 50, 1)
    assert not report.passed
    failed = report.failures()
    # each check that reads b1 fails, each with its own error witness
    assert [c.name for c in failed] == [
        "signal_lipschitz", "signal_growth", "signal_lipschitz_strong",
        "signal_bounded"]
    assert all(c.witness == {"error": "FloatingPointError('boom')"}
               for c in failed)


def test_validate_reports_raising_lambda_in_all_three_intensity_checks():
    def bad_lam(t, x, u):
        raise FloatingPointError("boom")

    report = validate_hypotheses(
        replace(build_family("mixed").spec, lam=bad_lam), 50, 1)
    assert len(report.checks) == 12
    assert [c.name for c in report.failures()] == [
        "jump_intensity_lower", "jump_intensity_upper",
        "jump_intensity_integrable"]
    assert all(c.witness == {"error": "FloatingPointError('boom')"}
               for c in report.failures())


def test_validate_flags_nan_drift_at_the_box_corners():
    # b2 is NaN only at |x| = 5, which the corner probes reach
    spec = scalar_spec(b2=lambda t, x, y: np.where(
        np.abs(x) >= 5.0, np.nan, np.clip(x, -5.0, 5.0)) + 0.0 * y)
    check = validate_hypotheses(spec, 200, 42)["obs_bounded_invertible"]
    assert not check.passed
    assert not np.isfinite(check.worst)
    assert abs(check.witness["x"]) == 5.0


def test_validate_evaluates_each_coefficient_once_per_probe_set():
    spec = build_family("mixed").spec
    calls = {}

    def counted(name):
        fn = getattr(spec, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    names = ("b1", "sigma0", "sigma1", "lam", "f2")
    report = validate_hypotheses(
        replace(spec, **{k: counted(k) for k in names}), 200, 5)
    P = report.checks[0].samples
    assert P == 205
    assert calls == {"b1": 2 * P, "sigma0": 2 * P, "sigma1": 2 * P, "lam": P,
                     "f2": 2 * P}


# --- generator ----------------------------------------------------------------

def _generator_at(spec, F, t, x):
    """The generator of F at one point, over the spec's frozen marks."""
    return float(generator_values(spec, F, t, np.asarray(x, float),
                                  spec.nu1.frozen_marks(spec.mark_budget)))


def test_generator_annihilates_constants_exactly():
    spec = scalar_spec(nu1=LevyMeasureSpec.gaussian(0.0, 1.0, rate=2.0))
    assert _generator_at(spec, constant(3.0), 0.3, [0.7]) == 0.0


def test_generator_pure_drift():
    spec = scalar_spec(b1=lambda t, x: np.full(np.shape(x), 2.0),
                       sigma0=0.0, sigma1=0.0)
    assert _generator_at(spec, coordinate(0), 0.0, [1.5]) == \
        pytest.approx(2.0, abs=1e-12)


def test_generator_pure_diffusion():
    spec = scalar_spec(b1=lambda t, x: np.zeros(np.shape(x)),
                       sigma0=1.0, sigma1=0.0)
    assert _generator_at(spec, quadratic(), 0.0, [0.3]) == \
        pytest.approx(1.0, abs=1e-12)


def test_generator_point_mass_jump_bracket():
    spec = scalar_spec(b1=lambda t, x: np.zeros(np.shape(x)),
                       sigma0=0.0, sigma1=0.0,
                       f1=lambda t, x, u: u + 0.0 * np.asarray(x),
                       nu1=LevyMeasureSpec(1, 1.0, lambda rng, size:
                                           np.ones((size, 1))))
    # F(x+1) - F(x) - F'(x)*1 = 1 for F = x^2, for any x
    assert _generator_at(spec, quadratic(), 0.0, [2.0]) == \
        pytest.approx(1.0, abs=1e-12)


def test_generator_linearity_with_shared_marks():
    spec = scalar_spec(nu1=LevyMeasureSpec.gaussian(0.2, 0.9, rate=1.5),
                       f1=lambda t, x, u: 0.4 * u + 0.0 * np.asarray(x))
    marks = spec.nu1.frozen_marks(spec.mark_budget)
    x = np.array([0.8])
    F, G = quadratic(), coordinate(0)
    vF = generator_values(spec, F, 0.2, x, marks)
    vG = generator_values(spec, G, 0.2, x, marks)

    class Combo:
        name = "combo"
        value = staticmethod(lambda z: 2.0 * F.value(z) - 3.0 * G.value(z))
        grad = staticmethod(lambda z: 2.0 * F.grad(z) - 3.0 * G.grad(z))
        hess = staticmethod(lambda z: 2.0 * F.hess(z) - 3.0 * G.hess(z))

    vC = generator_values(spec, Combo, 0.2, x, marks)
    assert abs(float(vC) - (2.0 * float(vF) - 3.0 * float(vG))) <= 1e-10 * 5


@pytest.mark.parametrize("f1", [
    lambda t, x, u: 0.3 * u + 0.0 * np.asarray(x),
    # state- and mark-dependent: the mark mean of grad F . f1 is taken from
    # the jump drift, which must then be the drift at this x
    lambda t, x, u: 0.3 * u + 0.2 * np.asarray(x) * u,
], ids=["mark", "state_mark"])
@pytest.mark.parametrize("F", [quadratic(), bump(0.4, 1.5),
                               hermite_window(degrees=3), coordinate(0),
                               constant()], ids=lambda F: F.name)
def test_generator_matches_finite_difference_oracle(F, f1):
    spec = scalar_spec(nu1=LevyMeasureSpec.gaussian(0.1, 0.7, rate=1.2), f1=f1)
    marks = spec.nu1.frozen_marks(spec.mark_budget)
    x = np.array([0.45])
    got = generator_values(spec, F, 0.6, x, marks)
    want = fd_generator(spec, F, 0.6, x, marks)
    assert float(got) == pytest.approx(want, abs=5e-6)


@pytest.mark.parametrize("F", [coordinate(0), constant(2.0)],
                         ids=lambda F: F.name)
def test_affine_generator_is_exactly_the_drift_term(F):
    spec = scalar_spec(b1=lambda t, x: np.sin(3.0 * np.asarray(x)) - 0.7,
                       nu1=LevyMeasureSpec.gaussian(0.1, 0.7, rate=1.2),
                       f1=lambda t, x, u: 0.3 * u + 0.2 * np.asarray(x) * u)
    marks = spec.nu1.frozen_marks(spec.mark_budget)
    x = np.linspace(-2.0, 2.0, 7)[:, None]
    want = np.einsum("...i,...i->...", F.grad(x), spec.b1(0.4, x))
    np.testing.assert_array_equal(generator_values(spec, F, 0.4, x, marks), want)


def test_affine_generator_skips_hessian_and_jumped_states():
    value_shapes = []

    def value(z):
        value_shapes.append(np.shape(z))
        return 2.0 * np.asarray(z, float)[..., 0]

    def hess(z):
        raise AssertionError("hess called for an affine test function")

    F = TestFunction("stub", value, lambda z: np.full(np.shape(z), 2.0), hess,
                     degree=1)
    spec = scalar_spec(nu1=LevyMeasureSpec.gaussian(0.1, 0.7, rate=1.2),
                       f1=lambda t, x, u: 0.3 * u + 0.0 * np.asarray(x))
    marks = spec.nu1.frozen_marks(spec.mark_budget)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    got = generator_values(spec, F, 0.2, x, marks)
    np.testing.assert_array_equal(got, 2.0 * spec.b1(0.2, x)[:, 0])
    # F is read on the batch of states only, never on the (5, M, 1) jumped states
    assert value_shapes == [x.shape]


def _quadratic_form(Q):
    """F(x) = x' Q x, declared of degree 2."""
    Q = np.asarray(Q, float)
    return TestFunction(
        "xQx", lambda z: np.einsum("...i,ij,...j->...", z, Q, z),
        lambda z: np.asarray(z, float) @ (Q + Q.T),
        lambda z: np.broadcast_to(Q + Q.T, np.shape(z)[:-1] + Q.shape),
        degree=2)


def _two_state_spec():
    # off-diagonal, state- and mark-dependent f1 on a 2-D mark, so every
    # entry of the mark mean of f1 f1' enters the closed form
    J = np.array([[0.3, -0.5], [0.2, 0.4]])
    return SystemSpec(
        n=2, m=1, d=2,
        b1=lambda t, x: np.asarray(x) @ np.array([[-1.0, 0.3], [0.0, -0.7]]),
        sigma0=lambda t, x: np.broadcast_to(
            np.array([[0.4, 0.1], [0.0, 0.3]]), np.shape(x)[:-1] + (2, 2)),
        sigma1=lambda t, x: np.broadcast_to(
            np.array([[0.2], [-0.1]]), np.shape(x)[:-1] + (2, 1)),
        f1=lambda t, x, u: u @ J.T + 0.1 * np.asarray(x) * u[..., ::-1],
        b2=lambda t, x, y: np.asarray(x)[..., :1],
        sigma2=lambda t, y: np.array([[1.0]]),
        f2=lambda t, y, u: np.zeros(np.shape(y)),
        lam=lambda t, x, u: np.full(np.shape(x)[:-1], 0.5),
        nu1=LevyMeasureSpec.gaussian(0.1, 0.8, rate=1.3, dim=2),
        nu2=LevyMeasureSpec.none(), T=1.0)


@pytest.mark.parametrize("case", ["mark", "state_mark", "two_state"])
def test_degree_two_generator_equals_monte_carlo_bracket(case):
    # F(x + f1) - F - grad F . f1 = f1' H f1 / 2 for a constant Hessian H,
    # so on the same frozen marks the closed form is the Monte Carlo
    # bracket up to rounding
    if case == "two_state":
        spec = _two_state_spec()
        F = _quadratic_form([[1.0, 0.4], [0.4, 2.0]])
        x = np.random.default_rng(2).normal(size=(9, 2))
    else:
        f1 = {"mark": lambda t, x, u: 0.3 * u + 0.0 * np.asarray(x),
              "state_mark": lambda t, x, u: 0.3 * u + 0.2 * np.asarray(x) * u,
              }[case]
        spec = scalar_spec(nu1=LevyMeasureSpec.gaussian(0.1, 0.7, rate=1.2),
                           f1=f1)
        F = quadratic()
        x = np.linspace(-2.0, 2.0, 9)[:, None]
    marks = spec.nu1.frozen_marks(spec.mark_budget)
    want = generator_values(spec, replace(F, degree=None), 0.3, x, marks)
    value_shapes = []

    def value(z):
        value_shapes.append(np.shape(z))
        return F.value(z)

    got = generator_values(spec, replace(F, value=value), 0.3, x, marks)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # the closed form never reads F at the (9, M, n) jumped states
    assert value_shapes == [x.shape]


def test_mark_free_lambda_bar_is_lambda_itself():
    # every bundled lam ignores its mark and returns the x-batch shape: the
    # mark mean is then over a length-1 axis, so lambda-bar is lam bit for bit
    spec = build_family("mixed").spec
    x = np.linspace(-3.0, 3.0, 11)[:, None]
    marks = spec.nu2.frozen_marks(spec.mark_budget)
    lam_marks = spec.lam_marks(0.2, x, marks)
    assert lam_marks.shape == (11, 1)
    np.testing.assert_array_equal(np.mean(lam_marks, axis=-1),
                                  spec.lam(0.2, x, marks[0]))


def test_mark_dependent_lambda_bar_is_the_mark_mean():
    base = build_family("mixed").spec
    spec = replace(base, lam=lambda t, x, u: base.lam(t, x, u)
                   * (0.9 + 0.1 * np.asarray(u)[..., 0]))
    x = np.linspace(-3.0, 3.0, 11)[:, None]
    marks = spec.nu2.frozen_marks(spec.mark_budget)
    want = np.mean([[float(spec.lam(0.2, xi, u)) for u in marks] for xi in x],
                   axis=-1)
    lam_marks = spec.lam_marks(0.2, x, marks)
    assert lam_marks.shape == (11, len(marks))
    np.testing.assert_array_equal(np.mean(lam_marks, axis=-1), want)


# --- sensor function ----------------------------------------------------------

def test_observation_h_identity_and_scaling():
    spec = scalar_spec(b2=lambda t, x, y: np.full(np.shape(y), 4.0), sigma2=2.0)
    h = spec.h(0.0, np.array([0.0]), np.array([0.0]))
    assert h == pytest.approx(np.array([2.0]))


def test_observation_h_two_by_two_solve():
    # hand inverse: diag(2, 4)^{-1} (2, 8) = (1, 2)
    spec = SystemSpec(
        n=2, m=2, d=1,
        b1=lambda t, x: np.zeros(np.shape(x)),
        sigma0=lambda t, x: np.zeros(np.shape(x)[:-1] + (2, 1)),
        sigma1=lambda t, x: np.zeros(np.shape(x)[:-1] + (2, 2)),
        f1=lambda t, x, u: np.zeros(np.shape(x)),
        b2=lambda t, x, y: np.broadcast_to(np.array([2.0, 8.0]), np.shape(y)),
        sigma2=lambda t, y: np.broadcast_to(np.diag([2.0, 4.0]),
                                            np.shape(y)[:-1] + (2, 2)),
        f2=lambda t, y, u: np.zeros(np.shape(y)),
        lam=lambda t, x, u: np.full(np.broadcast(
            np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 0.5),
        nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(), T=1.0)
    h = spec.h(0.0, np.zeros(2), np.zeros(2))
    assert np.allclose(h, [1.0, 2.0], atol=1e-12)
    # defining identity sigma2 @ h = b2
    sig = np.diag([2.0, 4.0])
    assert np.allclose(sig @ h, [2.0, 8.0], rtol=1e-10)


def test_observation_h_on_a_batch_matches_row_by_row_solves():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 2))
    sig = np.array([[0.7, 0.2], [-0.1, 1.3]])

    def spec_with(sigma2):
        return SystemSpec(
            n=2, m=2, d=1,
            b1=lambda t, x: np.zeros(np.shape(x)),
            sigma0=lambda t, x: np.zeros(np.shape(x)[:-1] + (2, 1)),
            sigma1=lambda t, x: np.zeros(np.shape(x)[:-1] + (2, 2)),
            f1=lambda t, x, u: np.zeros(np.shape(x)),
            b2=lambda t, x, y: np.sin(x) + 0.0 * y, sigma2=sigma2,
            f2=lambda t, y, u: np.zeros(np.shape(y)),
            lam=lambda t, x, u: np.full(np.broadcast(
                np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape, 0.5),
            nu1=LevyMeasureSpec.none(), nu2=LevyMeasureSpec.none(), T=1.0)

    want = np.array([np.linalg.solve(sig, np.sin(row)) for row in x])
    shared = spec_with(lambda t, y: sig)
    per_row = spec_with(lambda t, y: np.broadcast_to(
        sig, np.shape(y)[:-1] + (2, 2)))
    for spec, y in ((shared, np.zeros(2)), (per_row, np.zeros((50, 2)))):
        h = spec.h(0.0, x, y)
        assert h.shape == (50, 2)
        assert np.array_equal(h, want)
    # m = 1: the quotient is the correctly rounded one a 1x1 solve returns
    spec = scalar_spec(b2=lambda t, x, y: np.sin(x) + 0.0 * y, sigma2=0.7)
    x1 = rng.normal(size=(200, 1))
    h = spec.h(0.0, x1, np.zeros(1))
    assert np.array_equal(h, np.sin(x1) / 0.7)


def test_observation_h_singular_sigma2_raises():
    spec = scalar_spec(sigma2=lambda t, y: np.zeros(np.shape(y)[:-1] + (1, 1)))
    with pytest.raises(InvertibilityError):
        spec.h(0.0, np.array([0.0]), np.array([0.0]))


def test_levy_measure_moment_bookkeeping():
    nu = LevyMeasureSpec.gaussian(0.5, 2.0, rate=3.0)
    assert (nu.dim, nu.rate) == (1, 3.0)
    assert nu.frozen_marks(64).shape == (64, 1)
    assert np.array_equal(nu.frozen_marks(64), nu.frozen_marks(64))
    assert LevyMeasureSpec.none().rate == 0.0
    assert LevyMeasureSpec.none().frozen_marks(64).shape == (0, 1)
    # the quadrature: drawn once, read-only, the default 64-mark sample
    assert nu.marks is nu.marks
    assert not nu.marks.flags.writeable
    with pytest.raises(ValueError):
        nu.marks[0, 0] = 1.0
    assert nu.marks.tobytes() == nu.frozen_marks(64).tobytes()
    assert LevyMeasureSpec.none().marks.shape == (0, 1)
    spec = build_family("mixed").spec
    assert spec.mark_budget == 64
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    with pytest.raises(TypeError, match="mark_budget"):
        SystemSpec(**fields, mark_budget=64)
    with pytest.raises(ValueError):
        LevyMeasureSpec.gaussian(0.5, 2.0, rate=-2.0)
    with pytest.raises(ValueError, match="lo < hi"):
        LevyMeasureSpec.uniform(2.0, 1.2, rate=1.0)


# --- acceptance probability check ---------------------------------------------

def _bad_lambda_calls():
    """Each entry point that evaluates lam, called with lam = 1.5."""
    good = build_family("uninformative", {"rate2": 20.0})
    bad = build_family("uninformative", {"rate2": 20.0, "lam0": 1.5})
    spec, prior, y0 = bad.spec, bad.prior_sampler, bad.y0
    grid = TimeGrid(0.0, spec.T, 20)

    def good_record():
        rec = simulate_path(good.spec, grid, prior, y0, 3)
        assert len(rec.event_steps(2, accepted_only=True)) > 0
        return rec

    def jumpless_record():
        # lam is then met only through the compensator's mark mean
        sparse = build_family("uninformative", {"rate2": 1e-3})
        rec = simulate_path(sparse.spec, grid, prior, y0, 3)
        assert len(rec.event_steps(2, accepted_only=True)) == 0
        assert len(rec.marks2) > 0
        return rec

    return {
        "simulate_path": lambda: simulate_path(spec, grid, prior, y0, 3),
        "thin": lambda: thin(spec, 0.5, np.array([[0.25]]),
                             np.array([[0.5]]), substream(4, "thinning")),
        "lam_bar": lambda: lam_bar(spec, 0.5, np.array([[0.25]])),
        "compensator_integral": lambda: compensator_integral(
            spec, lambda t, u: np.ones(len(u)), lambda t: np.array([0.25]),
            0.0, 0.1, 0.05),
        "zakai_filter": lambda: zakai_filter(
            spec, project_observation(good_record()), 50, prior, 5),
        "zakai_filter_no_jump": lambda: zakai_filter(
            spec, project_observation(jumpless_record()), 50, prior, 5),
        "sample_reference_log_weights": lambda: sample_reference_log_weights(
            spec, grid, 50, prior, y0, 6),
        "sample_model_log_inverse_weights":
            lambda: sample_model_log_inverse_weights(spec, grid, 50, prior,
                                                     y0, 7),
    }


@pytest.mark.parametrize("entry", sorted(_bad_lambda_calls()))
def test_lambda_outside_unit_interval_is_reported_with_witness(entry):
    with pytest.raises(ModelViolationError,
                       match=r"^acceptance probability 1\.5 outside \(0,1\) "
                             r"at t=\S+, x=\[\S+\], u=\[\S+\]$"):
        _bad_lambda_calls()[entry]()


def test_hypothesis_screen_reports_lambda_above_one_as_its_value():
    # the screen reads lam unchecked, so the offending value is reported
    # rather than the error the checked evaluation would raise
    spec = build_family("uninformative", {"lam0": 1.5}).spec
    check = validate_hypotheses(spec, 50, 3)["jump_intensity_upper"]
    assert not check.passed
    assert check.worst == 1.5


@pytest.mark.parametrize("seed", range(4))
def test_hypothesis_screen_reads_lambda_at_each_probe_time(seed):
    # lam = 0.5 + t leaves (0, 1) for t >= 0.5 only; a screen that read lam
    # at one probe time would pass it whenever that time is below 0.5
    spec = replace(build_family("uninformative").spec,
                   lam=lambda t, x, u: (0.5 + t) + 0.0 * (
                       np.asarray(x)[..., 0] + np.asarray(u)[..., 0]))
    check = validate_hypotheses(spec, 200, seed)["jump_intensity_upper"]
    assert not check.passed
    assert check.witness["t"] > 0.5
    assert check.worst == 0.5 + check.witness["t"]
