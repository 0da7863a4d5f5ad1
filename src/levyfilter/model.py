"""System parameterization, assumption validators, generator and sensor map.

A ``SystemSpec`` holds the coefficient functions of the coupled pair

    signal:       dX = b1 dt + sigma0 dB + sigma1 dW + jumps(f1, nu1)
    observation:  dY = b2 dt + sigma2 dW + jumps(f2, intensity lam * nu2)

where B and W are independent Brownian motions, the signal-jump measure is
compensated Poisson with finite intensity nu1, and observation jumps are a
thinned Poisson stream: candidates arrive with intensity nu2 and are kept
with state-dependent probability ``lam(t, x, u) in (0, 1)``.  The signal
and the observation share W through sigma1 and sigma2, and b2/f2 may depend
on the current observation value.  This is the one model form: a noise
written in another Brownian basis is rewritten into it (the
``sensor_saturated`` family).

Vectorized call conventions (leading batch dimensions broadcast):

    b1(t, x)        (..., n)            -> (..., n)
    sigma0(t, x)    (..., n)            -> (..., n, d)
    sigma1(t, x)    (..., n)            -> (..., n, m)
    f1(t, x, u)     (..., n), (..., k1) -> (..., n)
    b2(t, x, y)     (..., n), (..., m)  -> (..., m)
    sigma2(t, y)    (..., m)            -> (..., m, m)
    f2(t, y, u)     (..., m), (..., k2) -> (..., m)
    lam(t, x, u)    (..., n), (..., k2) -> (...)

A lam that ignores u may return the x batch shape: ``lam_marks`` is then
(..., 1), and lambda-bar is lam(t, x) exactly, at O(N) in place of O(N M).

Each jump measure owns its mark quadrature ``marks``, drawn once; int f1
nu1 and int f2 nu2 are rate times the mean over it (``LevyMeasureSpec.jumps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .errors import (InvertibilityError, ModelViolationError,
                     NumericOverflowError)
from .rng import substream

# Default seed and size of the frozen mark samples; fixed so the mark
# quadrature is part of the model rather than of any one run.
MARK_QUADRATURE_SEED = 0x6D61726B
MARK_BUDGET = 64

# The hypothesis screen's fixed ceilings, and the box in x and in y that its
# probe points are drawn from.
CEILINGS = {
    "lipschitz": 1.0e3,
    "growth": 1.0e3,
    "bound": 1.0e3,
    "sigma2_inv": 1.0e5,
    "jacobian_floor": 1.0e-8,
}
PROBE_BOX = (-5.0, 5.0)


def solve(sig, rhs, t):
    """sig^{-1} rhs for sig (..., m, m) and rhs (..., m); raises
    InvertibilityError, with the condition number, when sigma2 = sig is
    singular at time t.

    One 1x1 matrix for the whole batch is a division, which gives the
    correctly rounded quotient of the per-row 1x1 solve.
    """
    if sig.shape == (1, 1) and sig[0, 0] != 0.0:
        return rhs / sig[0, 0]
    try:
        return np.linalg.solve(sig, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        m = sig.shape[-1]
        cond = float(np.linalg.cond(sig.reshape(-1, m, m)[0]))
        raise InvertibilityError(
            f"sigma2 is singular at t={t:g} (condition number {cond:.3e})"
        ) from exc


def keep(owner, name, form, *inputs):
    """``form(*inputs)``, kept on ``owner`` under ``name`` while the float
    arrays ``inputs`` keep their shapes and bytes, so a kept term is the
    one that would be formed; never kept from an input of more than two
    axes (a value per state).  The owner keeps one term per name in its
    instance dict, so a ``dataclasses.replace`` copy keeps none."""
    key = []
    for v in inputs:
        if v.ndim > 2:
            return form(*inputs)
        key += v.shape, v.tobytes()
    kept = vars(owner).setdefault("kept", {})
    last = kept.get(name)
    if last is None or last[0] != key:
        last = kept[name] = key, form(*inputs)
    return last[1]


@dataclass
class LevyMeasureSpec:
    """Finite-activity jump measure: total rate times a normalized mark law.

    ``nu(du) = rate * mark_law(du)`` with ``sampler(rng, size)`` drawing
    ``size`` marks of dimension ``dim``.  Integrals against ``nu`` are
    Monte Carlo means over the measure's quadrature ``marks``, drawn once
    and read-only, so a degenerate sampler (point mass) makes them exact.
    Measures with infinite activity must be truncated before they get here.
    """

    dim: int
    rate: float
    sampler: Callable = None

    def __post_init__(self):
        self.dim = int(self.dim)
        self.rate = float(self.rate)
        if not np.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"jump rate must be finite and >= 0, got {self.rate}")
        if self.rate > 0.0 and self.sampler is None:
            raise ValueError("a positive-rate jump measure needs a mark sampler")

    @classmethod
    def none(cls, dim=1):
        return cls(dim=dim, rate=0.0, sampler=None)

    @classmethod
    def gaussian(cls, mean, scale, rate, dim=1):
        mean = float(mean)
        scale = float(scale)

        def sampler(rng, size):
            return rng.normal(mean, scale, size=(size, dim))

        return cls(dim=dim, rate=rate, sampler=sampler)

    @classmethod
    def uniform(cls, lo, hi, rate, dim=1):
        lo = float(lo)
        hi = float(hi)
        if not lo < hi:
            raise ValueError(f"mark bounds need lo < hi, got lo={lo:g}, "
                             f"hi={hi:g}")

        def sampler(rng, size):
            return rng.uniform(lo, hi, size=(size, dim))

        return cls(dim=dim, rate=rate, sampler=sampler)

    def frozen_marks(self, count, seed=None):
        """Draw a reusable mark sample; empty when the channel is off.

        With the default seed and ``MARK_BUDGET`` marks this is ``marks``,
        the quadrature every consumer integrates against, so compensators
        agree exactly instead of differing by mark-sampling noise.  Another
        seed gives the hypothesis screen its probe sample.
        """
        if self.rate == 0.0:
            return np.zeros((0, self.dim))
        if seed is None:
            seed = MARK_QUADRATURE_SEED
        rng = substream(seed, "frozen-marks", self.dim)
        marks = np.asarray(self.sampler(rng, int(count)), float)
        return marks.reshape(int(count), self.dim)

    @cached_property
    def marks(self):
        """The mark quadrature ``frozen_marks(MARK_BUDGET)``, read-only;
        (0, dim) when the measure is off."""
        marks = self.frozen_marks(MARK_BUDGET)
        marks.flags.writeable = False
        return marks

    def jumps(self, f, t, z, marks):
        """The jump map f(t, z, u) at every mark u of ``marks``, (..., M, k),
        and its compensator drift, rate times its mark mean, (..., k).  The
        displacement is None when the measure is off, and the drift is then
        zero, and is kept while the displacement keeps its bytes (``keep``).
        The mean is the sum over the marks divided by their count, the
        arithmetic of ``np.mean`` without its wrapper, which costs more."""
        z = np.asarray(z, float)
        if self.rate == 0.0 or marks.shape[0] == 0:
            return None, np.zeros(z.shape)
        disp = np.asarray(f(t, z[..., None, :], marks), float)
        return disp, keep(self, "drift", lambda d: self.rate * (
            np.add.reduce(d, axis=-2) / d.shape[-2]), disp)


@dataclass
class SystemSpec:
    """Coefficients, jump measures and sizing for one signal/observation pair."""

    n: int
    m: int
    d: int
    b1: Callable
    sigma0: Callable
    sigma1: Callable
    f1: Callable
    b2: Callable
    sigma2: Callable
    f2: Callable
    lam: Callable
    nu1: LevyMeasureSpec
    nu2: LevyMeasureSpec
    T: float
    iota: float = 1e-3
    name: str = ""
    mark_budget = MARK_BUDGET     # the size of each measure's quadrature

    def __post_init__(self):
        if not (0.0 < self.iota < 1.0):
            raise ValueError("iota must lie in (0, 1)")
        if self.T <= 0.0:
            raise ValueError(f"terminal time T must be positive, got {self.T}")

    def h(self, t, x, y):
        """Sensor function entering the likelihood weight:
        sigma2(t, y)^{-1} b2(t, x, y).  Raises InvertibilityError when
        sigma2 is singular, reporting the condition number.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        b2v = np.asarray(self.b2(t, x, y), float)
        return solve(np.asarray(self.sigma2(t, y), float), b2v, t)

    # -- compensator drifts over each measure's quadrature --

    def signal_jump_drift(self, t, x):
        """Compensator drift of the signal jumps: integral of f1 against nu1."""
        return self.nu1.jumps(self.f1, t, x, self.nu1.marks)[1]

    def acceptance(self, t, x, u):
        """lam(t, x, u) as floats; raises ModelViolationError naming the
        first value outside (0, 1) (or not finite) with its t, x and u."""
        lam = np.asarray(self.lam(t, x, u), float)
        if lam.size == 0 or (lam.min() > 0.0 and lam.max() < 1.0):
            return lam
        # a lam that ignores u returns less than the batch shape
        shape = np.broadcast_shapes(lam.shape, np.shape(x)[:-1],
                                    np.shape(u)[:-1])
        lam = np.broadcast_to(lam, shape)
        # a NaN fails both comparisons, so it is found here too
        bad = np.flatnonzero(~((lam > 0.0) & (lam < 1.0)))
        i = np.unravel_index(bad[0], shape)
        x = np.broadcast_to(x, shape + np.shape(x)[-1:])[i]
        u = np.broadcast_to(u, shape + np.shape(u)[-1:])[i]
        raise ModelViolationError(
            f"acceptance probability {float(lam[i])!r} outside (0,1) at "
            f"t={t:g}, x={x}, u={u}")

    def lam_marks(self, t, x, marks):
        """lam evaluated against a mark sample, checked: (..., M), or
        (..., 1) for a lam that ignores u."""
        return self.acceptance(t, np.asarray(x, float)[..., None, :], marks)

    def obs_jump_drift_reference(self, t, y):
        """Compensator drift of observation jumps at unit thinning."""
        return self.nu2.jumps(self.f2, t, y, self.nu2.marks)[1]


@dataclass
class SignalTerms:
    """The signal's coefficients on one batch of states.

    b1, sigma0 and sigma1 (each shared when it ignores x), the diffusion
    matrix a, the f1 displacement at each frozen mark and its compensator
    drift, evaluated once and shared by the generator of every test
    function (and by the filter's propagation step).  ``disp`` is None
    without signal jumps; it is (M, n) when f1 ignores x.  A term formed
    from values that read no state is kept on ``spec`` (``keep``).
    """

    spec: SystemSpec
    t: float
    x: np.ndarray
    b1: np.ndarray
    on_B: np.ndarray             # sigma0: (n, d) shared, else (..., n, d)
    on_W: np.ndarray             # sigma1: (n, m) shared, else (..., n, m)
    a: np.ndarray
    disp: np.ndarray | None
    jump_drift: np.ndarray

    def _quadratic(self, hess, a, disp=None):
        """The diffusion term a:H / 2 of an F of degree 2 and, given the
        displacements, its jump bracket rate1 M:H / 2, for M the mark mean
        of f1 f1'.  H is constant by that degree: ``hess`` at the origin."""
        H = np.asarray(hess(np.zeros(a.shape[-1])), float)
        diffusion = 0.5 * np.einsum("...ij,...ij->...", a, H)
        if disp is None:
            return diffusion, 0.0
        moment = np.einsum("...Mi,...Mj->...ij", disp, disp) / disp.shape[-2]
        return diffusion, 0.5 * self.spec.nu1.rate * np.einsum(
            "...ij,...ij->...", moment, H)

    def generator(self, F, value, grad):
        """Generator applied to F, given F and grad F on the batch: (...,).

        The jump integral is a Monte Carlo mean over the frozen marks, whose
        grad F . f1 part is grad F . jump_drift / rate1.  ``F.degree`` 0 or
        1 has no jump bracket and no Hessian: only the drift is formed.
        Degree 2 has a constant Hessian H, so the bracket at each mark is
        f1' H f1 / 2 and its mark mean is M : H / 2, M the mark mean of
        f1 f1'; both terms are kept per F while a and f1 keep their bytes.
        """
        t = self.t
        drift = np.einsum("...i,...i->...", grad, self.b1)
        diffusion = jump = 0.0
        degree = getattr(F, "degree", None)
        if degree in (0, 1):
            total = drift
        else:
            if degree == 2:
                diffusion, jump = keep(
                    self.spec, F.hess, partial(self._quadratic, F.hess),
                    self.a, *(() if self.disp is None else (self.disp,)))
            else:
                diffusion = 0.5 * np.einsum("...ij,...ij->...", self.a,
                                            np.asarray(F.hess(self.x), float))
                if self.disp is not None:
                    moved = F.value(self.x[..., None, :] + self.disp)
                    jump = (self.spec.nu1.rate
                            * (np.mean(moved, axis=-1) - value)
                            - np.einsum("...i,...i->...", grad,
                                        self.jump_drift))
            total = drift + diffusion + jump
        if not np.isfinite(total).all():
            for label, term in (("drift", drift), ("diffusion", diffusion),
                                ("jump", jump)):
                if not np.isfinite(term).all():
                    raise NumericOverflowError(f"generator {label} term is not finite at t={t:g}")
            raise NumericOverflowError(f"generator value is not finite at t={t:g}")
        return total


def signal_terms(spec, t, x, marks):
    """Evaluate the signal's coefficients once on a batch of states."""
    x = np.asarray(x, float)
    on_B = np.asarray(spec.sigma0(t, x), float)
    on_W = np.asarray(spec.sigma1(t, x), float)
    a = keep(spec, "diffusion", lambda B, W: (
        np.einsum("...ik,...jk->...ij", W, W)
        + np.einsum("...ik,...jk->...ij", B, B)), on_B, on_W)
    disp, jump_drift = spec.nu1.jumps(spec.f1, t, x, marks)
    return SignalTerms(spec, t, x, np.asarray(spec.b1(t, x), float), on_B,
                       on_W, a, disp, jump_drift)


def generator_values(spec, F, t, x, marks):
    """Generator of the signal applied to F on a batch of states: (...,).

    The jump integral is a Monte Carlo mean over the supplied frozen mark
    sample.
    """
    x = np.asarray(x, float)
    return signal_terms(spec, t, x, marks).generator(
        F, F.value(x), np.asarray(F.grad(x), float))


# ---------------------------------------------------------------------------
# assumption validators
# ---------------------------------------------------------------------------

@dataclass
class HypothesisCheck:
    name: str
    samples: int
    worst: float
    bound: float
    passed: bool
    witness: dict
    note: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "samples": self.samples,
            "worst": self.worst,
            "bound": self.bound,
            "passed": bool(self.passed),
            "witness": {k: (v if isinstance(v, str) else float(np.ravel(v)[0]) if np.size(v) == 1 else [float(q) for q in np.ravel(v)]) for k, v in self.witness.items()},
            "note": self.note,
        }


@dataclass
class HypothesisReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self):
        """Raise ModelViolationError naming every failed check."""
        if not self.passed:
            names = ", ".join(c.name for c in self.failures())
            raise ModelViolationError(f"hypothesis checks failed: {names}")

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def structured_probes(dim):
    """The screen's fixed probes in R^dim: the origin, the +-1e-6 unit
    vectors and the two corners of ``PROBE_BOX``, (2 dim + 3, dim)."""
    e = 1e-6 * np.eye(dim)
    return np.vstack([np.zeros((1, dim)),
                      np.stack([e, -e], axis=1).reshape(2 * dim, dim),
                      np.full((2, dim), np.array(PROBE_BOX)[:, None])])


def _probe_points(rng, dim, count):
    """Random samples of ``PROBE_BOX`` plus the structured probes."""
    lo, hi = PROBE_BOX
    pts = rng.uniform(lo, hi, size=(count, dim))
    return np.vstack([pts, structured_probes(dim)])


def validate_hypotheses(spec, sample_budget, rng_seed):
    """Numerically screen the standing assumptions on the coefficients.

    The probe points are random samples of the fixed box ``PROBE_BOX``, in
    x and in y, plus structured probes (origin, +-1e-6 unit vectors, box
    corners), each with its own t.  Lipschitz-type conditions are checked
    through the worst sampled difference ratio, boundedness and
    invertibility pointwise, each against its fixed ceiling in
    ``CEILINGS``.  Each coefficient is evaluated once per probe set, and
    every check that reads it shares those values.  Every failure carries a
    concrete witness point.  A non-finite or raising coefficient fails each
    check that reads it, and never crashes the screen.
    """
    if sample_budget < 2:
        raise ValueError("sample_budget must be at least 2")
    rng = substream(rng_seed, "hypotheses")
    B = int(sample_budget)
    n, m = spec.n, spec.m
    rate1, rate2 = spec.nu1.rate, spec.nu2.rate

    ts = rng.uniform(0.0, spec.T, size=B)
    X1 = _probe_points(rng, n, B)
    X2 = _probe_points(rng, n, B)[::-1].copy()
    Y1 = _probe_points(rng, m, B)
    Y2 = _probe_points(rng, m, B)[::-1].copy()
    P = X1.shape[0]
    tP = np.resize(ts, P)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget, rng_seed)
    marks2 = spec.nu2.frozen_marks(spec.mark_budget, rng_seed + 1)
    probes = {"x1": X1, "x2": X2, "y1": Y1, "y2": Y2, "y0": np.zeros((P, m)),
              "x1 rows": X1[:, None, :], "x2 rows": X2[:, None, :],
              "y1 rows": Y1[:, None, :], "y2 rows": Y2[:, None, :],
              "marks1": [marks1] * P, "marks2": [marks2] * P}
    dist_x = np.linalg.norm(X1 - X2, axis=1)
    dist_y = np.linalg.norm(Y1 - Y2, axis=1)
    ok_x, ok_y = dist_x > 1e-9, dist_y > 1e-9   # the pairs that are apart

    # An exception is not cached: each check that reads a raising
    # coefficient raises it again, inside its own guard.
    @cache
    def at(name, *which):
        """Coefficient ``name`` on the probe sets ``which``, each point at
        its own t, stacked: (P, ...). lam is read unchecked, so a value
        outside (0, 1) is reported, not raised."""
        fn = getattr(spec, name)
        return np.array([np.asarray(fn(t, *z), float)
                         for t, *z in zip(tP, *(probes[w] for w in which))])

    def norms(v):
        return np.linalg.norm(v.reshape(P, -1), axis=1)

    def ratios(name, which, dist, ok, power=1):
        """|v(pair) - v(pair')|^power / dist^power at the pairs ``ok``, for
        v the coefficient ``name`` on the two probe sets ``which``."""
        diff = norms(at(name, *which[0]) - at(name, *which[1]))
        return diff[ok] ** power / dist[ok] ** power

    def worst_pair(blocks, ok, **points):
        """The largest ratio over blocks of ratios at the pairs ``ok``, with
        the probe points of its pair."""
        allr = np.concatenate(blocks)
        i = int(np.argmax(allr))
        pair = np.flatnonzero(ok)[i % int(np.sum(ok))]
        return allr[i], {k: v[pair] for k, v in points.items()}, ""

    def worst_point(vals, **points):
        i = int(np.argmax(vals))
        return vals[i], {k: v[i] for k, v in points.items()}, ""

    # --- signal coefficient checks ---

    def signal_pairs(power, jump_blocks):
        """Difference ratios of b1, and of sigma0 and sigma1 to ``power``,
        plus ``jump_blocks`` of the f1 gap |f1(x1) - f1(x2)| (P, M)."""
        xs = (("x1",), ("x2",))
        blocks = [ratios("b1", xs, dist_x, ok_x),
                  ratios("sigma0", xs, dist_x, ok_x, power),
                  ratios("sigma1", xs, dist_x, ok_x, power)]
        if rate1 > 0.0:
            blocks += jump_blocks(np.linalg.norm(
                at("f1", "x1 rows", "marks1") - at("f1", "x2 rows", "marks1"),
                axis=-1))
        return worst_pair(blocks, ok_x, t=tP, x1=X1, x2=X2)

    def signal_lipschitz():
        return signal_pairs(2, lambda gap: [
            rate1 * np.mean(gap ** p, axis=-1)[ok_x] / dist_x[ok_x] ** p
            for p in (2, 4)])

    def signal_lipschitz_strong():
        return signal_pairs(1, lambda gap: [
            np.max(gap, axis=-1)[ok_x] / dist_x[ok_x]])

    def signal_growth():
        tot = (np.sum(at("b1", "x1").reshape(P, -1) ** 2, axis=1)
               + np.sum(at("sigma0", "x1").reshape(P, -1) ** 2, axis=1)
               + np.sum(at("sigma1", "x1").reshape(P, -1) ** 2, axis=1))
        if rate1 > 0.0:
            disp = at("f1", "x1 rows", "marks1")
            tot = tot + rate1 * np.mean(np.sum(disp**2, axis=-1), axis=-1)
        return worst_point(tot / (1.0 + np.linalg.norm(X1, axis=1)) ** 2,
                           t=tP, x=X1)

    def signal_bounded():
        tot = (norms(at("b1", "x1")) + norms(at("sigma0", "x1"))
               + norms(at("sigma1", "x1")))
        if rate1 > 0.0:
            disp = at("f1", "x1 rows", "marks1")
            tot = np.maximum(tot, np.max(np.linalg.norm(disp, axis=-1),
                                         axis=-1))
        return worst_point(tot, t=tP, x=X1)

    def signal_jump_invertible():
        if rate1 == 0.0:
            return 0.0, {}, "signal jumps disabled"
        eps = 1e-5
        u = marks1[:8]
        J = np.zeros((min(P, 64), len(u), n, n))
        for p, (t, x) in enumerate(zip(tP[:64], X1[:64])):
            for j in range(n):
                e = np.zeros(n)
                e[j] = eps
                fp = np.asarray(spec.f1(t, (x + e)[None, :], u), float)
                fm = np.asarray(spec.f1(t, (x - e)[None, :], u), float)
                J[p, :, :, j] = (np.broadcast_to(fp - fm, (len(u), n))
                                 / (2 * eps))
        det = np.abs(np.linalg.det(J + np.eye(n)))
        ratio = 1.0 / np.maximum(det, 1e-300)
        p, k = np.unravel_index(np.argmax(ratio), ratio.shape)
        return ratio[p, k], {"t": tP[p], "x": X1[p], "u": u[k],
                             "det": det[p, k]}, ""

    # --- observation coefficient checks ---

    def obs_coeff_lipschitz():
        blocks = [ratios("sigma2", (("y1",), ("y2",)), dist_y, ok_y, 2)]
        if rate2 > 0.0:
            gap = np.linalg.norm(at("f2", "y1 rows", "marks2")
                                 - at("f2", "y2 rows", "marks2"), axis=-1)
            blocks.append(rate2 * np.mean(gap ** 2, axis=-1)[ok_y]
                          / dist_y[ok_y] ** 2)
        return worst_pair(blocks, ok_y, t=tP, y1=Y1, y2=Y2)

    def obs_bounded_invertible():
        bound = CEILINGS["bound"]
        size = np.maximum(norms(at("b2", "x1", "y1")) / bound,
                          norms(at("sigma2", "y0")) / bound)
        sig = at("sigma2", "y1").reshape(P, m, m)
        det = np.linalg.det(sig)
        singular = np.flatnonzero((det == 0.0) | ~np.isfinite(det))
        if singular.size:
            i = singular[0]
            return (float("inf"), {"t": tP[i], "y": Y1[i], "det": det[i]},
                    "sigma2 singular")
        inv_norm = norms(np.linalg.inv(sig))
        # normalized: pass iff <= 1
        return worst_point(np.maximum(size, inv_norm / CEILINGS["sigma2_inv"]),
                           t=tP, x=X1, y=Y1, inv_norm=inv_norm)

    def obs_growth():
        tot = np.sum(at("sigma2", "y1").reshape(P, -1) ** 2, axis=1)
        if rate2 > 0.0:
            disp = at("f2", "y1 rows", "marks2")
            tot = tot + rate2 * np.mean(np.sum(disp**2, axis=-1), axis=-1)
        return worst_point(tot / (1.0 + np.linalg.norm(Y1, axis=1)) ** 2,
                           t=tP, y=Y1)

    def obs_drift_x_lipschitz():
        return worst_pair(
            [ratios("b2", (("x1", "y1"), ("x2", "y1")), dist_x, ok_x)],
            ok_x, t=tP, x1=X1, x2=X2, y=Y1)

    # --- jump intensity checks ---

    def lambda_extreme(pick, disabled):
        if rate2 == 0.0:
            return disabled, {}, "observation jumps disabled"
        lv = at("lam", "x1 rows", "marks2")
        i, j = np.unravel_index(pick(lv), lv.shape)
        return lv[i, j], {"t": tP[i], "x": X1[i], "u": marks2[j]}, ""

    def lambda_integrable():
        if rate2 == 0.0:
            return 0.0, {}, "observation jumps disabled"
        # pointwise-in-mark lower envelope over states
        lo = np.clip(np.min(at("lam", "x1 rows", "marks2"), axis=0), 1e-300,
                     None)
        j = int(np.argmin(lo))
        return (rate2 * np.mean((1.0 - lo) ** 2 / lo),
                {"u": marks2[j], "envelope": lo[j]}, "")

    def check(name, bound, fn, passes=None, note=""):
        """Run one check; pass iff worst <= bound unless ``passes`` says.
        A value that overflows or is invalid (inf - inf) makes the worst
        value non-finite, which fails the check, so numpy need not warn."""
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                worst, witness, extra = fn()
        except Exception as exc:  # a bad coefficient must not crash the screen
            return HypothesisCheck(name, P, float("inf"), bound, False,
                                   {"error": repr(exc)}, note)
        if not np.isfinite(worst):
            return HypothesisCheck(name, P, float("inf"), bound, False,
                                   witness,
                                   extra or note or "non-finite value")
        passed = worst <= bound if passes is None else passes(worst)
        return HypothesisCheck(name, P, float(worst), bound, bool(passed),
                               witness, extra or note)

    lipschitz = CEILINGS["lipschitz"]
    return HypothesisReport([
        check("signal_lipschitz", lipschitz, signal_lipschitz),
        check("signal_growth", CEILINGS["growth"], signal_growth),
        check("signal_lipschitz_strong", lipschitz, signal_lipschitz_strong),
        check("signal_bounded", CEILINGS["bound"], signal_bounded),
        check("signal_jump_invertible", 1.0 / CEILINGS["jacobian_floor"],
              signal_jump_invertible),
        check("obs_coeff_lipschitz", lipschitz, obs_coeff_lipschitz),
        check("obs_bounded_invertible", 1.0, obs_bounded_invertible),
        check("obs_growth", CEILINGS["growth"], obs_growth),
        check("obs_drift_x_lipschitz", lipschitz, obs_drift_x_lipschitz),
        check("jump_intensity_lower", spec.iota,
              lambda: lambda_extreme(np.argmin, 1.0),
              lambda worst: worst > spec.iota, "pass iff min lam > iota"),
        check("jump_intensity_upper", 1.0,
              lambda: lambda_extreme(np.argmax, 0.0),
              lambda worst: worst < 1.0, "pass iff max lam < 1"),
        check("jump_intensity_integrable", float("inf"), lambda_integrable,
              note="(1-lam)^2/lam integral against nu2"),
    ])
