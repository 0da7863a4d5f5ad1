"""Smooth test functions with analytic first and second derivatives.

Residual and generator diagnostics need F, grad F and hess F evaluable on
particle batches.  A ``TestFunction`` bundles the three callables; the
constructors below cover the families used by the diagnostics: compactly
supported bumps, Gaussian-windowed Hermite polynomials, low-order
polynomials and constants.

Call conventions: ``value(x) -> (...,)``, ``grad(x) -> (..., n)``,
``hess(x) -> (..., n, n)`` for ``x`` of shape ``(..., n)``.

``degree`` declares F a polynomial of at most that degree in x: for 0 or 1
(``constant``, ``coordinate``) the generator is grad F . b1 alone, and for
2 (``quadratic``) its jump bracket is closed-form (constant Hessian).  None
(bumps, Hermite windows) takes the Monte Carlo bracket at the jumped
states.  A wrong declared degree gives a wrong generator value.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import hermite as _herm

from .errors import ConfigError


@dataclass(frozen=True)
class TestFunction:
    """F with its derivatives.  ``degree``: F is a polynomial of at most
    this degree in x (None: not declared); see the module docstring."""

    __test__ = False  # not a pytest test class, though named like one
    name: str
    value: Callable
    grad: Callable
    hess: Callable
    degree: int | None = None

    def __call__(self, x):
        return self.value(x)


def constant(c=1.0, n=1):
    c = float(c)

    def value(x):
        x = np.asarray(x, float)
        return np.full(x.shape[:-1], c)

    def grad(x):
        x = np.asarray(x, float)
        return np.zeros(x.shape[:-1] + (n,))

    def hess(x):
        x = np.asarray(x, float)
        return np.zeros(x.shape[:-1] + (n, n))

    return TestFunction(f"const:{c:g}", value, grad, hess, degree=0)


def coordinate(i=0, n=1):
    """F(x) = x_i."""
    i = int(i)

    def value(x):
        return np.asarray(x, float)[..., i]

    def grad(x):
        x = np.asarray(x, float)
        g = np.zeros(x.shape[:-1] + (n,))
        g[..., i] = 1.0
        return g

    def hess(x):
        x = np.asarray(x, float)
        return np.zeros(x.shape[:-1] + (n, n))

    return TestFunction(f"coord:{i}", value, grad, hess, degree=1)


def quadratic(n=1):
    """F(x) = |x|^2."""

    def value(x):
        x = np.asarray(x, float)
        return np.einsum("...i,...i->...", x, x)

    def grad(x):
        return 2.0 * np.asarray(x, float)

    def hess(x):
        x = np.asarray(x, float)
        eye = np.eye(n)
        return np.broadcast_to(2.0 * eye, x.shape[:-1] + (n, n)).copy()

    return TestFunction("quad", value, grad, hess, degree=2)


def bump(center=0.0, radius=1.0, n=1):
    """Compactly supported bump exp(1 - 1/(1 - |x-c|^2/r^2)) on the ball r."""
    c = np.broadcast_to(np.asarray(center, float), (n,)).copy()
    r2 = float(radius) ** 2
    if r2 <= 0:
        raise ValueError("bump radius must be positive")

    def _parts(x):
        x = np.asarray(x, float)
        z = (x - c) / np.sqrt(r2)
        s = np.einsum("...i,...i->...", z, z)
        inside = s < 1.0 - 1e-12
        ssafe = np.where(inside, s, 0.5)
        inv = 1.0 / (1.0 - ssafe)
        g0 = np.where(inside, np.exp(1.0 - inv), 0.0)
        g1 = np.where(inside, -g0 * inv * inv, 0.0)           # dg/ds
        g2 = np.where(inside, g0 * (inv**4 - 2.0 * inv**3), 0.0)
        return x, s, g0, g1, g2

    def value(x):
        return _parts(x)[2]

    def grad(x):
        x, s, g0, g1, g2 = _parts(x)
        ds = 2.0 * (x - c) / r2
        return g1[..., None] * ds

    def hess(x):
        x, s, g0, g1, g2 = _parts(x)
        ds = 2.0 * (x - c) / r2
        outer = ds[..., :, None] * ds[..., None, :]
        eye = np.eye(n)
        return g2[..., None, None] * outer + (2.0 / r2) * g1[..., None, None] * eye

    cname = ",".join(f"{v:g}" for v in np.atleast_1d(c))
    return TestFunction(f"bump:{cname}:{np.sqrt(r2):g}", value, grad, hess)


def _psi(k, u):
    """Hermite function H_k(u) exp(-u^2/2) with its first two derivatives."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    h = _herm.hermval(u, coef)
    h1 = _herm.hermval(u, _herm.hermder(coef)) if k >= 1 else np.zeros_like(u)
    h2 = _herm.hermval(u, _herm.hermder(coef, 2)) if k >= 2 else np.zeros_like(u)
    w = np.exp(-0.5 * u * u)
    v = h * w
    d1 = (h1 - u * h) * w
    d2 = (h2 - 2.0 * u * h1 - h + u * u * h) * w
    return v, d1, d2


def hermite_window(degrees=2, n=1, scale=1.0):
    """Product of Gaussian-windowed Hermite polynomials, one per coordinate.

    ``degrees`` is an int (applied to coordinate 0, window only elsewhere)
    or a sequence of per-coordinate degrees.
    """
    if isinstance(degrees, (int, np.integer)):
        degs = [int(degrees)] + [0] * (n - 1)
    else:
        degs = [int(k) for k in degrees]
        if len(degs) != n:
            raise ValueError("need one degree per coordinate")
    s = float(scale)

    def _all_parts(x):
        x = np.asarray(x, float)
        vals, d1s, d2s = [], [], []
        for i, k in enumerate(degs):
            v, d1, d2 = _psi(k, x[..., i] / s)
            vals.append(v)
            d1s.append(d1 / s)
            d2s.append(d2 / (s * s))
        return vals, d1s, d2s

    def value(x):
        vals, _, _ = _all_parts(x)
        out = vals[0].copy()
        for v in vals[1:]:
            out = out * v
        return out

    def grad(x):
        vals, d1s, _ = _all_parts(x)
        out = np.zeros(np.asarray(x, float).shape[:-1] + (n,))
        for i in range(n):
            g = d1s[i].copy()
            for j in range(n):
                if j != i:
                    g = g * vals[j]
            out[..., i] = g
        return out

    def hess(x):
        vals, d1s, d2s = _all_parts(x)
        shape = np.asarray(x, float).shape[:-1]
        out = np.zeros(shape + (n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    h = d2s[i].copy()
                else:
                    h = d1s[i] * d1s[j]
                for q in range(n):
                    if q != i and q != j:
                        h = h * vals[q]
                out[..., i, j] = h
        return out

    dname = ",".join(str(k) for k in degs)
    return TestFunction(f"hermite:{dname}", value, grad, hess)


def make_test_function(text, n=1):
    """Build a TestFunction from its config string, e.g. ``bump:0:3``."""
    parts = str(text).strip().split(":")
    kind = parts[0]
    try:
        if kind == "const":
            return constant(float(parts[1]) if len(parts) > 1 else 1.0, n=n)
        if kind == "coord":
            i = int(parts[1]) if len(parts) > 1 else 0
            if not 0 <= i < n:
                raise ConfigError(f"test function {text!r}: coordinate "
                                  f"index {i} outside 0..{n - 1}")
            return coordinate(i, n=n)
        if kind == "quad":
            return quadratic(n=n)
        if kind == "bump":
            center = float(parts[1]) if len(parts) > 1 else 0.0
            radius = float(parts[2]) if len(parts) > 2 else 1.0
            return bump(center, radius, n=n)
        if kind == "hermite":
            deg = int(parts[1]) if len(parts) > 1 else 2
            scale = float(parts[2]) if len(parts) > 2 else 1.0
            return hermite_window(deg, n=n, scale=scale)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad test-function spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown test-function kind {kind!r} in {text!r}")
