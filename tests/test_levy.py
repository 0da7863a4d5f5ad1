"""Jump streams: sampling, thinning, compensator quadrature."""

from dataclasses import replace

import numpy as np
import pytest

from levyfilter.errors import ConfigError, ModelViolationError
from levyfilter.families import build_family
from levyfilter.levy import (MAX_EXPECTED_EVENTS, compensator_integral,
                             sample_poisson_stream)
from levyfilter.model import LevyMeasureSpec
from levyfilter.propagation import jump_rounds, thin
from levyfilter.rng import substream

# --- independent oracles ------------------------------------------------------
# Constant-in-time integrands make the time-trapezoid rule exact, so these
# follow from rate * lam * g * (t1 - t0) by hand:
#   rate=2, lam=0.5, g=1,  [0, 3]  ->  3.0
#   rate=2, lam=0.5, g=t,  [0, 3]  ->  2*0.5*3^2/2 = 4.5   (trapezoid exact
#                                                            for linear g)
COMP_CONST_EXPECTED = 3.0
COMP_LINEAR_EXPECTED = 4.5


def const_lam(level):
    def lam(t, x, u):
        shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape
        return np.full(shape, level)
    return lam


def lam_spec(level, rate=2.0):
    return replace(build_family("uninformative").spec, lam=const_lam(level),
                   nu2=LevyMeasureSpec.uniform(0.0, 1.0, rate))


# --- Poisson stream sampling --------------------------------------------------

def test_stream_deterministic_in_seed():
    nu = LevyMeasureSpec.gaussian(0.0, 1.0, rate=3.0)
    s1 = sample_poisson_stream(nu, 0.0, 2.0, 11)
    s2 = sample_poisson_stream(nu, 0.0, 2.0, 11)
    assert [e.t for e in s1] == [e.t for e in s2]
    assert np.array_equal(np.stack([e.mark for e in s1]),
                          np.stack([e.mark for e in s2]))
    s3 = sample_poisson_stream(nu, 0.0, 2.0, 12)
    assert [e.t for e in s3] != [e.t for e in s1]


def test_stream_times_sorted_and_in_window():
    nu = LevyMeasureSpec.uniform(-1.0, 1.0, rate=20.0)
    s = sample_poisson_stream(nu, 0.5, 3.5, 7)
    t = np.array([e.t for e in s])
    assert np.all(np.diff(t) >= 0.0)
    assert np.all((t >= 0.5) & (t < 3.5))
    assert np.stack([e.mark for e in s]).shape == (len(s), 1)


def test_stream_channel_label_stored_on_each_event():
    nu = LevyMeasureSpec.uniform(0.0, 1.0, rate=5.0)
    s = sample_poisson_stream(nu, 0.0, 1.0, 99, channel="observation")
    assert len(s) > 0
    assert all(e.channel == "observation" for e in s)
    # channel label also decorrelates the draw
    s2 = sample_poisson_stream(nu, 0.0, 1.0, 99, channel="signal")
    assert [e.t for e in s2] != [e.t for e in s]


def test_stream_count_matches_poisson_mean():
    nu = LevyMeasureSpec.uniform(0.0, 1.0, rate=4.0)
    counts = [len(sample_poisson_stream(nu, 0.0, 2.5, 1000 + r))
              for r in range(400)]
    mean = 4.0 * 2.5
    se = np.sqrt(mean / 400)
    assert abs(np.mean(counts) - mean) <= 3 * se


def test_stream_degenerate_cases():
    assert len(sample_poisson_stream(LevyMeasureSpec.none(), 0.0, 1.0, 1)) == 0
    nu = LevyMeasureSpec.uniform(0.0, 1.0, rate=5.0)
    assert len(sample_poisson_stream(nu, 1.0, 1.0, 1)) == 0
    with pytest.raises(ValueError):
        sample_poisson_stream(nu, 1.0, 0.0, 1)

    # an expected count above the ceiling is refused before any draw
    def sampler(rng, size):
        raise AssertionError("marks drawn for a refused stream")

    for rate, t1 in ((1e12, 1.0), (0.5 * MAX_EXPECTED_EVENTS + 1.0, 2.0)):
        with pytest.raises(ConfigError, match="observation jump stream"):
            sample_poisson_stream(LevyMeasureSpec(1, rate, sampler), 0.0, t1,
                                  1, channel="observation")


# --- thinning -----------------------------------------------------------------

def thin_stream(cand, spec, x, rng_seed):
    """Accepted mask of a candidate stream, every candidate at the state x,
    one uniform each from the seed's "thinning" substream."""
    rng = substream(rng_seed, "thinning")
    return np.array([thin(spec, e.t, x[None], e.mark[None], rng)[0][0]
                     for e in cand], bool)


def test_thinning_acceptance_fraction():
    nu = LevyMeasureSpec.uniform(0.0, 1.0, rate=50.0)
    cand = sample_poisson_stream(nu, 0.0, 10.0, 5)
    spec = lam_spec(0.3)
    kept = thin_stream(cand, spec, np.array([0.0]), 6)
    frac = kept.sum() / len(cand)
    se = np.sqrt(0.3 * 0.7 / len(cand))
    assert abs(frac - 0.3) <= 3 * se


def test_thinning_deterministic_and_batch_free():
    nu = LevyMeasureSpec.gaussian(0.0, 1.0, rate=30.0)
    cand = sample_poisson_stream(nu, 0.0, 5.0, 21)
    spec = lam_spec(0.5)
    k1 = thin_stream(cand, spec, np.array([0.0]), 8)
    k2 = thin_stream(cand, spec, np.array([0.0]), 8)
    assert np.array_equal(k1, k2) and 0 < k1.sum() < len(cand)
    # one call on the whole batch draws the same uniforms in the same order
    acc, lam = thin(spec, 0.0, np.zeros((len(cand), 1)),
                    np.stack([e.mark for e in cand]),
                    substream(8, "thinning"))
    assert np.array_equal(acc, k1) and np.all(lam == 0.5)


@pytest.mark.parametrize("rate_dt", [0.0, 0.05, 2.5])
def test_jump_rounds_match_a_boolean_mask_reference(rate_dt):
    # the reference is the mask form: the counts are a Poisson(500 rate dt)
    # total spread uniformly over the rows, round j takes the rows with at
    # least j jumps, in row order, and draws one mark index for each from
    # the measure's quadrature
    nu = LevyMeasureSpec(1, rate_dt,
                         lambda rng, size: np.arange(size, dtype=float)[:, None])
    marks = nu.marks
    rng_counts = substream(4, "counts")
    counts = np.bincount(
        rng_counts.integers(0, 500, rng_counts.poisson(500 * rate_dt)),
        minlength=500)
    rng_marks = substream(4, "marks")
    want = []
    for j in range(1, int(counts.max(initial=0)) + 1):
        mask = counts >= j
        want.append((np.flatnonzero(mask),
                     marks[rng_marks.integers(0, len(marks), int(mask.sum()))]))
    got = list(jump_rounds(substream(4, "counts"), substream(4, "marks"),
                           nu, 1.0, 500))
    assert len(got) == len(want) == int(counts.max(initial=0))
    for (rows, u), (want_rows, want_u) in zip(got, want):
        assert np.array_equal(rows, want_rows)
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(u, want_u)


@pytest.mark.parametrize("rate_dt", [0.05, 2.5])
def test_jump_round_counts_are_poisson_per_row(rate_dt):
    # each row's count is Poisson(rate dt): its mean, its variance and its
    # share of zeros each within 3 standard errors of 20,000 rows
    n = 20_000
    nu = LevyMeasureSpec.uniform(0.0, 1.0, rate=rate_dt)
    counts = np.zeros(n)
    for rows, _ in jump_rounds(substream(6, "counts"), substream(6, "marks"),
                               nu, 1.0, n):
        counts[rows] += 1
    var_se = np.sqrt((rate_dt + 2 * rate_dt ** 2) / n)
    p0 = np.exp(-rate_dt)
    assert abs(counts.mean() - rate_dt) <= 3 * np.sqrt(rate_dt / n)
    assert abs(counts.var(ddof=1) - rate_dt) <= 3 * var_se
    assert abs(np.mean(counts == 0) - p0) <= 3 * np.sqrt(p0 * (1 - p0) / n)


def test_thinning_rejects_out_of_range_lambda():
    nu = LevyMeasureSpec.uniform(0.0, 1.0, rate=50.0)
    cand = sample_poisson_stream(nu, 0.0, 2.0, 5)
    assert len(cand) > 0
    for bad in (1.5, 0.0, float("nan")):
        spec = lam_spec(bad)
        with pytest.raises(ModelViolationError):
            thin_stream(cand, spec, np.array([0.0]), 6)


def test_lambda_check_on_a_mark_sample_finds_one_bad_value():
    # one bad value among valid ones, past the all-inside fast path
    marks = np.linspace(0.1, 0.9, 5)[:, None]
    x = np.zeros((3, 1))
    for bad in (1.5, 0.0, float("nan")):
        spec = replace(lam_spec(0.5), lam=lambda t, x, u, b=bad: np.where(
            u[..., 0] > 0.6, b, 0.5) + 0.0 * x[..., 0])
        with pytest.raises(ModelViolationError, match=rf"{bad!r} .* u=\[0\.7\]"):
            spec.lam_marks(0.0, x, marks)
        # a lam that ignores u returns (3, 1) against the marks; the witness
        # is the first bad (x, u) of the full (3, 5) batch
        mark_free = replace(spec, lam=lambda t, x, u, b=bad: np.where(
            x[..., 0] > 0.6, b, 0.5))
        with pytest.raises(ModelViolationError,
                           match=rf"{bad!r} .* x=\[0\.7\], u=\[0\.1\]"):
            mark_free.lam_marks(0.0, np.array([[0.2], [0.7], [0.9]]), marks)
    assert spec.lam_marks(0.0, x, marks[:0]).shape == (3, 0)


# --- compensator quadrature ---------------------------------------------------

def test_compensator_integral_constant_exact():
    spec = lam_spec(0.5, rate=2.0)
    got = compensator_integral(spec, lambda t, u: np.ones(u.shape[0]),
                               lambda t: np.array([0.0]), 0.0, 3.0, 0.5)
    assert got == pytest.approx(COMP_CONST_EXPECTED, abs=1e-12)


def test_compensator_integral_linear_time_exact():
    spec = lam_spec(0.5, rate=2.0)
    got = compensator_integral(spec, lambda t, u: np.full(u.shape[0], t),
                               lambda t: np.array([0.0]), 0.0, 3.0, 0.25)
    assert got == pytest.approx(COMP_LINEAR_EXPECTED, abs=1e-12)


def test_compensator_integral_degenerate():
    spec = lam_spec(0.5, rate=0.0)
    spec.nu2 = LevyMeasureSpec.none()
    assert compensator_integral(spec, lambda t, u: np.ones(u.shape[0]),
                                lambda t: np.array([0.0]), 0.0, 3.0, 0.5) == 0.0
    spec = lam_spec(0.5)
    assert compensator_integral(spec, lambda t, u: np.ones(u.shape[0]),
                                lambda t: np.array([0.0]), 1.0, 1.0, 0.5) == 0.0


def test_compensator_integral_state_dependence():
    # lam depends on x through the lookup; x(t) = t makes lam(t) = (t+1)/10,
    # inside (0, 1) on [0, 3], so the integral of g=1 against rate=2 over
    # [0, 3] is 2 * 7.5/10 = 1.5
    def lam(t, x, u):
        shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(u)[..., 0]).shape
        return np.broadcast_to((np.asarray(x)[..., 0] + 1.0) / 10.0, shape)

    spec = replace(lam_spec(0.5), lam=lam)
    got = compensator_integral(spec, lambda t, u: np.ones(u.shape[0]),
                               lambda t: np.array([t]), 0.0, 3.0, 0.01)
    assert got == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("reads_mark", [False, True],
                         ids=["mark_free", "mark_dependent"])
def test_compensator_integral_with_either_lambda_shape(reads_mark):
    # a lam that ignores u may return the x-batch shape, (1,) against the
    # marks here; x(t) = t makes the integrand linear in t, so with g(u) = u
    # the integral is rate * 0.75 * mean over the frozen marks of u * c(u),
    # where c(u) = 0.5 + u if lam reads its mark and 1 if it does not
    if reads_mark:
        def lam(t, x, u):
            return (np.asarray(x)[..., 0] + 1.0) / 10.0 * (0.5 + u[..., 0])
    else:
        def lam(t, x, u):
            return (np.asarray(x)[..., 0] + 1.0) / 10.0

    spec = replace(lam_spec(0.5), lam=lam)
    marks = spec.nu2.frozen_marks(spec.mark_budget)[:, 0]
    shape = spec.lam_marks(0.0, np.array([0.0]), marks[:, None]).shape
    assert shape == ((marks.size,) if reads_mark else (1,))
    weight = marks * (0.5 + marks) if reads_mark else marks
    got = compensator_integral(spec, lambda t, u: u[:, 0],
                               lambda t: np.array([t]), 0.0, 3.0, 0.01)
    assert got == pytest.approx(2.0 * 0.75 * np.mean(weight), rel=1e-12)

