"""Test functions: the einsum reductions against explicit sums for n > 1,
and the names the config specs give."""

import numpy as np
import pytest

from levyfilter.testfuncs import bump, make_test_function, quadratic

EPS = np.finfo(float).eps
X = np.random.default_rng(5).normal(0.0, 0.8, size=(40, 6, 3))


def test_quadratic_value_equals_explicit_sum_for_vectors():
    want = np.sum(X * X, axis=-1)
    np.testing.assert_allclose(quadratic(n=3).value(X), want,
                               rtol=2 * EPS, atol=0.0)


def test_bump_value_equals_explicit_sum_for_vectors():
    c, r = np.array([0.2, -0.1, 0.3]), 1.7
    z = (X - c) / np.sqrt(r * r)
    s = np.sum(z * z, axis=-1)
    inside = s < 1.0 - 1e-12
    inv = 1.0 / (1.0 - np.where(inside, s, 0.5))
    want = np.where(inside, np.exp(1.0 - inv), 0.0)
    assert np.any(inside) and not np.all(inside)
    # a few ulps of s, carried through dvalue/ds = -value / (1 - s)^2
    tol = 4 * EPS * s * want * inv * inv + 4 * EPS * want
    got = bump(c, r, n=3).value(X)
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("spec, name", [
    ("hermite:2", "hermite:2"), ("hermite:2:1", "hermite:2"),
    ("hermite:2:0.5", "hermite:2:0.5"), ("bump:0:2", "bump:0:2"),
    ("const:2.5", "const:2.5")])
def test_spec_names_every_number_that_changes_the_function(spec, name):
    assert make_test_function(spec).name == name
