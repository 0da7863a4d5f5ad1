"""System parameterization, assumption validators, generator and sensor map.

A ``SystemSpec`` holds the coefficient functions of the coupled pair

    signal:       dX = b1 dt + sigma0 dB + sigma1 dW + jumps(f1, nu1)
    observation:  dY = b2 dt + sigma2 dW + jumps(f2, intensity lam * nu2)

where B and W are independent Brownian motions, the signal-jump measure is
compensated Poisson with finite intensity nu1, and observation jumps are a
thinned Poisson stream: candidates arrive with intensity nu2 and are kept
with state-dependent probability ``lam(t, x, u) in (0, 1)``.

Two couplings are supported.  The default ("feedback") variant is the one
above: the observation noise sigma2 dW and the signal's sigma1 dW share W,
and b2/f2 may depend on the current observation value.  The "sensor"
variant instead reads

    dX = b1 dt + sigma1 dW + jumps(f1, nu1)
    dY = b2 dt + mix_w dW + mix_b dB + jumps(f2, lam * nu2)

with constant mixing matrices satisfying mix_w mix_w* + mix_b mix_b* = I,
so the observation noise is a standard Brownian motion correlated with the
signal's driver.  ``sigma0``/``sigma2`` are ignored in that variant.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .errors import (InvertibilityError, ModelViolationError,
                     NumericOverflowError)
from .rng import substream

FEEDBACK = "feedback"
SENSOR = "sensor"

# Default seed for the frozen mark samples; fixed so the mark quadrature is
# part of the model rather than of any one run.
MARK_QUADRATURE_SEED = 0x6D61726B

DEFAULT_CEILINGS = {
    "lipschitz": 1.0e3,
    "growth": 1.0e3,
    "bound": 1.0e3,
    "sigma2_inv": 1.0e5,
    "jacobian_floor": 1.0e-8,
}


def solve(sig, rhs):
    """sig^{-1} rhs for sig (..., m, m) and rhs (..., m); raises
    np.linalg.LinAlgError when sig is singular.

    One 1x1 matrix for the whole batch is a division, which gives the
    correctly rounded quotient of the per-row 1x1 solve.
    """
    if sig.shape == (1, 1):
        if sig[0, 0] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / sig[0, 0]
    return np.linalg.solve(sig, rhs[..., None])[..., 0]


@dataclass
class LevyMeasureSpec:
    """Finite-activity jump measure: total rate times a normalized mark law.

    ``nu(du) = rate * mark_law(du)`` with ``sampler(rng, size)`` drawing
    ``size`` marks of dimension ``dim``.  Integrals against ``nu`` are
    Monte Carlo means over a frozen mark sample, so a degenerate sampler
    (point mass) makes them exact.  Measures with infinite activity must
    be truncated before they get here.
    """

    dim: int
    rate: float
    sampler: Callable = None
    moments: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dim = int(self.dim)
        self.rate = float(self.rate)
        if not np.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"jump rate must be finite and >= 0, got {self.rate}")
        if self.rate > 0.0 and self.sampler is None:
            raise ValueError("a positive-rate jump measure needs a mark sampler")
        for key, val in self.moments.items():
            if not np.isfinite(val):
                raise ValueError(f"declared moment {key!r} must be finite")

    @classmethod
    def none(cls, dim=1):
        return cls(dim=dim, rate=0.0, sampler=None)

    @classmethod
    def point_mass(cls, value, rate):
        value = np.atleast_1d(np.asarray(value, float))

        def sampler(rng, size):
            return np.broadcast_to(value, (size, value.size)).copy()

        return cls(dim=value.size, rate=rate, sampler=sampler,
                   moments={"second_moment": float(np.sum(value**2))})

    @classmethod
    def gaussian(cls, mean, scale, rate, dim=1):
        mean = float(mean)
        scale = float(scale)

        def sampler(rng, size):
            return rng.normal(mean, scale, size=(size, dim))

        return cls(dim=dim, rate=rate, sampler=sampler,
                   moments={"second_moment": dim * (mean**2 + scale**2)})

    @classmethod
    def uniform(cls, lo, hi, rate, dim=1):
        lo = float(lo)
        hi = float(hi)

        def sampler(rng, size):
            return rng.uniform(lo, hi, size=(size, dim))

        return cls(dim=dim, rate=rate, sampler=sampler)

    def frozen_marks(self, count, seed=None):
        """Draw a reusable mark sample; empty when the channel is off.

        With the default seed this is a fixed quadrature of the mark law:
        every consumer (simulator, filter, oracle, weight samplers) then
        integrates against the same sample, so their compensators agree
        exactly instead of differing by independent mark-sampling noise.
        """
        if self.rate == 0.0:
            return np.zeros((0, self.dim))
        if seed is None:
            seed = MARK_QUADRATURE_SEED
        rng = substream(seed, "frozen-marks", self.dim)
        marks = np.asarray(self.sampler(rng, int(count)), float)
        return marks.reshape(int(count), self.dim)


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
    variant: str = FEEDBACK
    mix_w: np.ndarray = None
    mix_b: np.ndarray = None
    iota: float = 1e-3
    mark_budget: int = 64
    name: str = ""

    def __post_init__(self):
        if self.variant not in (FEEDBACK, SENSOR):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (0.0 < self.iota < 1.0):
            raise ValueError("iota must lie in (0, 1)")
        if self.T <= 0.0:
            raise ValueError("terminal time must be positive")
        if self.variant == SENSOR:
            if self.mix_w is None or self.mix_b is None:
                raise ValueError("sensor variant needs mix_w and mix_b")
            self.mix_w = np.asarray(self.mix_w, float).reshape(self.m, self.m)
            self.mix_b = np.asarray(self.mix_b, float).reshape(self.m, self.d)
            gram = self.mix_w @ self.mix_w.T + self.mix_b @ self.mix_b.T
            if np.max(np.abs(gram - np.eye(self.m))) > 1e-12:
                raise ValueError("mix_w mix_w* + mix_b mix_b* must equal the identity")
            # factor of I - mix_w* mix_w, the covariance of the part of W
            # that the observation does not reveal
            resid = np.eye(self.m) - self.mix_w.T @ self.mix_w
            vals, vecs = np.linalg.eigh(resid)
            vals = np.clip(vals, 0.0, None)
            self._indep_chol = vecs @ np.diag(np.sqrt(vals))
        else:
            self._indep_chol = None

    # -- variant-independent surface used by the propagation/weighting code --

    def obs_sigma(self, t, y):
        """Diffusion matrix of the observation in its driving Brownian motion."""
        if self.variant == SENSOR:
            y = np.asarray(y, float)
            return np.broadcast_to(np.eye(self.m), y.shape[:-1] + (self.m, self.m))
        return np.asarray(self.sigma2(t, np.asarray(y, float)), float)

    def h(self, t, x, y):
        """Sensor function entering the likelihood weight.

        Feedback variant: sigma2(t, y)^{-1} b2(t, x, y).  Sensor variant:
        b2(t, x, y) itself.  Raises InvertibilityError when sigma2 is
        singular, reporting the condition number.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        b2v = np.asarray(self.b2(t, x, y), float)
        if self.variant == SENSOR:
            return b2v
        sig = np.asarray(self.sigma2(t, y), float)
        try:
            return solve(sig, b2v)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(sig.reshape(-1, self.m, self.m)[0]))
            raise InvertibilityError(
                f"sigma2 is singular at t={t:g} (condition number {cond:.3e})"
            ) from exc

    def coupling(self, t, x):
        """(n, m) loading of the reconstructed observation driver onto X."""
        s1 = np.asarray(self.sigma1(t, np.asarray(x, float)), float)
        if self.variant == SENSOR:
            return s1 @ self.mix_w.T
        return s1

    def indep_factor(self, t, x):
        """Loading of particle-independent Gaussian noise onto X."""
        x = np.asarray(x, float)
        if self.variant == SENSOR:
            s1 = np.asarray(self.sigma1(t, x), float)
            return s1 @ self._indep_chol
        return np.asarray(self.sigma0(t, x), float)

    def indep_dim(self):
        return self.m if self.variant == SENSOR else self.d

    def signal_noise(self, t, x):
        """Loadings of the signal's physical noise on B and on W; the
        sensor variant has none on B (None)."""
        x = np.asarray(x, float)
        s1 = np.asarray(self.sigma1(t, x), float)
        if self.variant == SENSOR:
            return None, s1
        return np.asarray(self.sigma0(t, x), float), s1

    def observation_noise(self, t, y):
        """Loadings of the observation's physical noise on W and on B; the
        feedback variant has none on B (None)."""
        if self.variant == SENSOR:
            return self.mix_w, self.mix_b
        return np.asarray(self.sigma2(t, np.asarray(y, float)), float), None

    def diffusion_matrix(self, t, x):
        """Full diffusion matrix a(t,x) of the signal generator."""
        on_B, on_W = self.signal_noise(t, x)
        a = np.einsum("...ik,...jk->...ij", on_W, on_W)
        if on_B is not None:
            a = a + np.einsum("...ik,...jk->...ij", on_B, on_B)
        return a

    # -- frozen-mark compensator helpers --

    def signal_jumps(self, t, x, marks):
        """f1 at every mark of a sample, (..., M, n), and its compensator
        drift, the integral of f1 against nu1, (..., n).  The displacement
        is None when the channel is off, and the drift is then zero."""
        x = np.asarray(x, float)
        if self.nu1.rate == 0.0 or marks.shape[0] == 0:
            return None, np.zeros(x.shape)
        disp = np.asarray(self.f1(t, x[..., None, :], marks), float)
        return disp, self.nu1.rate * np.mean(disp, axis=-2)

    def signal_jump_drift(self, t, x, marks):
        """Compensator drift of the signal jumps: integral of f1 against nu1."""
        return self.signal_jumps(t, x, marks)[1]

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

    def obs_jump_drift_reference(self, t, y, marks):
        """Compensator drift of observation jumps at unit thinning."""
        if self.nu2.rate == 0.0 or marks.shape[0] == 0:
            return np.zeros(np.asarray(y, float).shape)
        y = np.asarray(y, float)
        f2v = np.asarray(self.f2(t, y[..., None, :], marks), float)
        return self.nu2.rate * np.mean(f2v, axis=-2)


@dataclass
class GeneratorValue:
    """Generator evaluation with the Monte Carlo variance of its jump part."""

    value: float
    jump_variance: float


@cache
def constant_hessian(hess, n):
    """The Hessian of an F declared of degree 2, constant by that
    declaration: ``hess`` read once at the origin of R^n, (n, n)."""
    return np.asarray(hess(np.zeros(n)), float)


@dataclass
class SignalTerms:
    """The signal's coefficients on one batch of states.

    b1, the diffusion matrix a, the f1 displacement at each frozen mark
    and its compensator drift, evaluated once and shared by the generator
    of every test function (and by the filter's propagation step).
    ``disp`` is None without signal jumps; it is (M, n) when f1 ignores x.
    """

    t: float
    x: np.ndarray
    b1: np.ndarray
    a: np.ndarray
    disp: np.ndarray | None
    jump_drift: np.ndarray
    rate1: float

    @cached_property
    def jump_second_moment(self):
        """Mark mean of f1 f1': (n, n) when f1 ignores x, else (..., n, n)."""
        return (np.einsum("...Mi,...Mj->...ij", self.disp, self.disp)
                / self.disp.shape[-2])

    def generator(self, F, value, grad):
        """Generator applied to F, given F and grad F on the batch: (...,).

        The jump integral is a Monte Carlo mean over the frozen marks, whose
        grad F . f1 part is grad F . jump_drift / rate1.  ``F.degree`` 0 or
        1 has no jump bracket and no Hessian: only the drift is formed.
        Degree 2 has a constant Hessian H, so the bracket at each mark is
        f1' H f1 / 2 and its mark mean is jump_second_moment : H / 2, with H
        read once per F as (n, n) (``constant_hessian``).
        """
        t = self.t
        drift = np.einsum("...i,...i->...", grad, self.b1)
        diffusion = jump = 0.0
        degree = getattr(F, "degree", None)
        if degree in (0, 1):
            total = drift
        else:
            H = (constant_hessian(F.hess, self.x.shape[-1]) if degree == 2
                 else np.asarray(F.hess(self.x), float))
            diffusion = 0.5 * np.einsum("...ij,...ij->...", self.a, H)
            if self.disp is not None and degree == 2:
                jump = 0.5 * self.rate1 * np.einsum(
                    "...ij,...ij->...", self.jump_second_moment, H)
            elif self.disp is not None:
                moved = F.value(self.x[..., None, :] + self.disp)
                jump = (self.rate1 * (np.mean(moved, axis=-1) - value)
                        - np.einsum("...i,...i->...", grad, self.jump_drift))
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
    disp, jump_drift = spec.signal_jumps(t, x, marks)
    return SignalTerms(t, x, np.asarray(spec.b1(t, x), float),
                       spec.diffusion_matrix(t, x), disp, jump_drift,
                       spec.nu1.rate)


def generator_values(spec, F, t, x, marks):
    """Generator of the signal applied to F on a batch of states: (...,).

    The jump integral is a Monte Carlo mean over the supplied frozen mark
    sample.
    """
    x = np.asarray(x, float)
    return signal_terms(spec, t, x, marks).generator(
        F, F.value(x), np.asarray(F.grad(x), float))


def apply_generator(spec, F, t, x, marks=None, mark_seed=None):
    """Generator of the signal applied to F at one point x, with the Monte
    Carlo variance of its jump part over the mark sample."""
    x = np.asarray(x, float).reshape(spec.n)
    if marks is None:
        marks = spec.nu1.frozen_marks(spec.mark_budget, mark_seed)
    terms = signal_terms(spec, t, x, marks)
    value, grad = F.value(x), np.asarray(F.grad(x), float)
    jvar = 0.0
    if terms.disp is not None:
        # F(x + f1) - F(x) - grad F . f1 at each frozen mark
        bracket = F.value(x + terms.disp) - value - terms.disp @ grad
        jvar = (spec.nu1.rate**2) * np.var(bracket, axis=-1) / bracket.shape[-1]
    return GeneratorValue(float(terms.generator(F, value, grad)), float(jvar))


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

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _probe_points(rng, lo, hi, dim, count):
    """Random box samples plus structured probes (origin, near-origin, corners)."""
    pts = rng.uniform(lo, hi, size=(count, dim))
    probes = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1e-6
        probes.extend([e, -e])
    probes.append(np.full(dim, lo))
    probes.append(np.full(dim, hi))
    return np.vstack([pts, np.array(probes)])


def validate_hypotheses(spec, sample_budget, rng_seed, *, box_x=(-5.0, 5.0),
                        box_y=(-5.0, 5.0), ceilings=None):
    """Numerically screen the standing assumptions on the coefficients.

    Lipschitz-type conditions are checked through worst sampled difference
    ratios against configurable ceilings; boundedness and invertibility are
    checked pointwise on random box samples augmented with structured
    probes (origin, +-1e-6 unit vectors, box corners).  Every failure
    carries a concrete witness point.  A non-finite or raising coefficient
    is reported as a failure, never as a crash.
    """
    if sample_budget < 2:
        raise ValueError("sample_budget must be at least 2")
    ceil = dict(DEFAULT_CEILINGS)
    ceil.update(ceilings or {})
    rng = substream(rng_seed, "hypotheses")
    B = int(sample_budget)
    n, m = spec.n, spec.m

    ts = rng.uniform(0.0, spec.T, size=B)
    X1 = _probe_points(rng, box_x[0], box_x[1], n, B)
    X2 = _probe_points(rng, box_x[0], box_x[1], n, B)[::-1].copy()
    Y1 = _probe_points(rng, box_y[0], box_y[1], m, B)
    Y2 = _probe_points(rng, box_y[0], box_y[1], m, B)[::-1].copy()
    P = X1.shape[0]
    tP = np.resize(ts, P)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget, rng_seed)
    marks2 = spec.nu2.frozen_marks(spec.mark_budget, rng_seed + 1)

    checks = []

    def guarded(name, bound, fn, note=""):
        try:
            worst, witness, extra = fn()
        except Exception as exc:  # validator must not crash on bad coefficients
            checks.append(HypothesisCheck(name, P, float("inf"), bound, False,
                                          {"error": repr(exc)}, note))
            return
        if not np.isfinite(worst):
            checks.append(HypothesisCheck(name, P, float("inf"), bound, False,
                                          witness, note or "non-finite value"))
            return
        checks.append(HypothesisCheck(name, P, float(worst), bound,
                                      bool(worst <= bound), witness, extra or note))

    def _pairwise(fvals1, fvals2, power=1):
        diff = np.linalg.norm((fvals1 - fvals2).reshape(P, -1), axis=1)
        dist = np.linalg.norm(X1 - X2, axis=1)
        ok = dist > 1e-9
        return diff[ok] ** power / dist[ok] ** power, ok

    # --- signal coefficient checks ---

    def chk_signal_lipschitz():
        ratios = []
        b11 = np.array([spec.b1(t, x) for t, x in zip(tP, X1)])
        b12 = np.array([spec.b1(t, x) for t, x in zip(tP, X2)])
        r, ok = _pairwise(b11, b12)
        ratios.append(r)
        s01 = np.array([np.ravel(spec.sigma0(t, x)) for t, x in zip(tP, X1)])
        s02 = np.array([np.ravel(spec.sigma0(t, x)) for t, x in zip(tP, X2)])
        ratios.append(_pairwise(s01, s02, power=2)[0])
        s11 = np.array([np.ravel(spec.sigma1(t, x)) for t, x in zip(tP, X1)])
        s12 = np.array([np.ravel(spec.sigma1(t, x)) for t, x in zip(tP, X2)])
        ratios.append(_pairwise(s11, s12, power=2)[0])
        if spec.nu1.rate > 0.0:
            # + 0*x forces the full (P, M, n) shape when f1 ignores x
            d1 = np.asarray(spec.f1(tP[0], X1[:, None, :], marks1),
                            float) + 0.0 * X1[:, None, :]
            d2 = np.asarray(spec.f1(tP[0], X2[:, None, :], marks1),
                            float) + 0.0 * X2[:, None, :]
            dist = np.linalg.norm(X1 - X2, axis=1)
            ok2 = dist > 1e-9
            for p in (2, 4):
                mom = spec.nu1.rate * np.mean(
                    np.linalg.norm(d1 - d2, axis=-1) ** p, axis=-1)
                ratios.append(mom[ok2] / dist[ok2] ** p)
        allr = np.concatenate(ratios)
        i = int(np.argmax(allr))
        k = i % int(np.sum(ok))
        idx = np.flatnonzero(ok)[k]
        return np.max(allr), {"t": tP[idx], "x1": X1[idx], "x2": X2[idx]}, ""

    def chk_signal_growth():
        vals = []
        for t, x in zip(tP, X1):
            tot = (np.sum(np.asarray(spec.b1(t, x)) ** 2)
                   + np.sum(np.asarray(spec.sigma0(t, x)) ** 2)
                   + np.sum(np.asarray(spec.sigma1(t, x)) ** 2))
            if spec.nu1.rate > 0.0:
                disp = np.asarray(spec.f1(t, x[None, :], marks1), float)
                tot += spec.nu1.rate * np.mean(np.sum(disp**2, axis=-1))
            vals.append(tot / (1.0 + np.linalg.norm(x)) ** 2)
        vals = np.asarray(vals)
        i = int(np.argmax(vals))
        return vals[i], {"t": tP[i], "x": X1[i]}, ""

    def chk_signal_lipschitz_strong():
        ratios = []
        b11 = np.array([spec.b1(t, x) for t, x in zip(tP, X1)])
        b12 = np.array([spec.b1(t, x) for t, x in zip(tP, X2)])
        ratios.append(_pairwise(b11, b12)[0])
        s01 = np.array([np.ravel(spec.sigma0(t, x)) for t, x in zip(tP, X1)])
        s02 = np.array([np.ravel(spec.sigma0(t, x)) for t, x in zip(tP, X2)])
        ratios.append(_pairwise(s01, s02)[0])
        s11 = np.array([np.ravel(spec.sigma1(t, x)) for t, x in zip(tP, X1)])
        s12 = np.array([np.ravel(spec.sigma1(t, x)) for t, x in zip(tP, X2)])
        ratios.append(_pairwise(s11, s12)[0])
        if spec.nu1.rate > 0.0:
            d1 = np.asarray(spec.f1(tP[0], X1[:, None, :], marks1),
                            float) + 0.0 * X1[:, None, :]
            d2 = np.asarray(spec.f1(tP[0], X2[:, None, :], marks1),
                            float) + 0.0 * X2[:, None, :]
            dist = np.linalg.norm(X1 - X2, axis=1)
            ok2 = dist > 1e-9
            worstmark = np.max(np.linalg.norm(d1 - d2, axis=-1), axis=-1)
            ratios.append(worstmark[ok2] / dist[ok2])
        allr = np.concatenate(ratios)
        dist = np.linalg.norm(X1 - X2, axis=1)
        idx = np.flatnonzero(dist > 1e-9)[int(np.argmax(allr)) % int(np.sum(dist > 1e-9))]
        return np.max(allr), {"t": tP[idx], "x1": X1[idx], "x2": X2[idx]}, ""

    def chk_signal_bounded():
        vals = []
        for t, x in zip(tP, X1):
            tot = (np.linalg.norm(np.asarray(spec.b1(t, x)))
                   + np.linalg.norm(np.asarray(spec.sigma0(t, x)))
                   + np.linalg.norm(np.asarray(spec.sigma1(t, x))))
            if spec.nu1.rate > 0.0:
                disp = np.asarray(spec.f1(t, x[None, :], marks1), float)
                tot = max(tot, np.max(np.linalg.norm(disp, axis=-1)))
            vals.append(tot)
        vals = np.asarray(vals)
        i = int(np.argmax(vals))
        return vals[i], {"t": tP[i], "x": X1[i]}, ""

    def chk_signal_jump_invertible():
        if spec.nu1.rate == 0.0:
            return 0.0, {}, "signal jumps disabled"
        eps = 1e-5
        worst = 0.0
        wit = {}
        for t, x in zip(tP[:64], X1[:64]):
            for u in marks1[:8]:
                J = np.zeros((n, n))
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = eps
                    fp = np.asarray(spec.f1(t, (x + e)[None, :], u[None, :]), float)
                    fm = np.asarray(spec.f1(t, (x - e)[None, :], u[None, :]), float)
                    J[:, j] = (fp - fm).ravel() / (2 * eps)
                det = abs(np.linalg.det(J + np.eye(n)))
                ratio = 1.0 / max(det, 1e-300)
                if ratio > worst:
                    worst = ratio
                    wit = {"t": t, "x": x, "u": u, "det": det}
        return worst, wit, ""

    # --- observation coefficient checks ---

    def chk_obs_coeff_lipschitz():
        ratios = []
        dist = np.linalg.norm(Y1 - Y2, axis=1)
        ok = dist > 1e-9
        s21 = np.array([np.ravel(spec.sigma2(t, y)) for t, y in zip(tP, Y1)])
        s22 = np.array([np.ravel(spec.sigma2(t, y)) for t, y in zip(tP, Y2)])
        diff = np.linalg.norm(s21 - s22, axis=1)
        ratios.append(diff[ok] ** 2 / dist[ok] ** 2)
        if spec.nu2.rate > 0.0:
            g1 = np.asarray(spec.f2(tP[0], Y1[:, None, :], marks2),
                            float) + 0.0 * Y1[:, None, :]
            g2 = np.asarray(spec.f2(tP[0], Y2[:, None, :], marks2),
                            float) + 0.0 * Y2[:, None, :]
            mom = spec.nu2.rate * np.mean(np.linalg.norm(g1 - g2, axis=-1) ** 2, axis=-1)
            ratios.append(mom[ok] / dist[ok] ** 2)
        allr = np.concatenate(ratios)
        idx = np.flatnonzero(ok)[int(np.argmax(allr)) % int(np.sum(ok))]
        return np.max(allr), {"t": tP[idx], "y1": Y1[idx], "y2": Y2[idx]}, ""

    def chk_obs_bounded_invertible():
        worst = 0.0
        wit = {}
        note = ""
        inv_ceil = ceil["sigma2_inv"]
        for t, x, y in zip(tP, X1, Y1):
            b2v = np.linalg.norm(np.asarray(spec.b2(t, x, y)))
            s20 = np.linalg.norm(np.asarray(spec.sigma2(t, np.zeros(m))))
            cand = max(b2v / ceil["bound"], s20 / ceil["bound"])
            sig = np.asarray(spec.sigma2(t, y), float).reshape(m, m)
            det = np.linalg.det(sig)
            if det == 0.0 or not np.isfinite(det):
                return float("inf"), {"t": t, "y": y, "det": det}, "sigma2 singular"
            inv_norm = np.linalg.norm(np.linalg.inv(sig))
            cand = max(cand, inv_norm / inv_ceil)
            if cand > worst:
                worst = cand
                wit = {"t": t, "x": x, "y": y, "inv_norm": inv_norm}
        if spec.nu2.rate > 0.0:
            f20 = np.asarray(spec.f2(0.0, np.zeros(m)[None, :], marks2), float)
            mom = spec.nu2.rate * np.mean(np.sum(f20**2, axis=-1))
            if not np.isfinite(mom):
                return float("inf"), {"moment": mom}, "f2 second moment at y=0 not finite"
            note = f"f2 second moment at y=0: {mom:.6g}"
        # normalized: pass iff <= 1
        return worst, wit, note

    def chk_obs_drift_x_lipschitz():
        b21 = np.array([spec.b2(t, x1, y) for t, x1, y in zip(tP, X1, Y1)])
        b22 = np.array([spec.b2(t, x2, y) for t, x2, y in zip(tP, X2, Y1)])
        dist = np.linalg.norm(X1 - X2, axis=1)
        ok = dist > 1e-9
        diff = np.linalg.norm(b21 - b22, axis=1)
        r = diff[ok] / dist[ok]
        idx = np.flatnonzero(ok)[int(np.argmax(r))]
        return np.max(r), {"t": tP[idx], "x1": X1[idx], "x2": X2[idx], "y": Y1[idx]}, ""

    def chk_lambda_lower():
        if spec.nu2.rate == 0.0:
            return 1.0, {}, "observation jumps disabled"
        lv = np.asarray(spec.lam(tP[0], X1[:, None, :], marks2), float)
        i = int(np.argmin(np.min(lv, axis=-1)))
        j = int(np.argmin(lv[i]))
        return float(np.min(lv)), {"t": tP[0], "x": X1[i], "u": marks2[j]}, ""

    def chk_lambda_upper():
        if spec.nu2.rate == 0.0:
            return 0.0, {}, "observation jumps disabled"
        lv = np.asarray(spec.lam(tP[0], X1[:, None, :], marks2), float)
        i = int(np.argmax(np.max(lv, axis=-1)))
        j = int(np.argmax(lv[i]))
        return float(np.max(lv)), {"t": tP[0], "x": X1[i], "u": marks2[j]}, ""

    def chk_lambda_integrable():
        if spec.nu2.rate == 0.0:
            return 0.0, {}, "observation jumps disabled"
        lv = np.asarray(spec.lam(tP[0], X1[:, None, :], marks2), float)
        lo = np.min(lv, axis=0)  # pointwise-in-mark lower envelope over states
        lo = np.clip(lo, 1e-300, None)
        val = spec.nu2.rate * np.mean((1.0 - lo) ** 2 / lo)
        j = int(np.argmin(lo))
        return float(val), {"u": marks2[j], "envelope": float(lo[j])}, ""

    guarded("signal_lipschitz", ceil["lipschitz"], chk_signal_lipschitz)
    guarded("signal_growth", ceil["growth"], chk_signal_growth)
    guarded("signal_lipschitz_strong", ceil["lipschitz"], chk_signal_lipschitz_strong)
    guarded("signal_bounded", ceil["bound"], chk_signal_bounded)
    guarded("signal_jump_invertible", 1.0 / ceil["jacobian_floor"], chk_signal_jump_invertible)
    guarded("obs_coeff_lipschitz", ceil["lipschitz"], chk_obs_coeff_lipschitz)
    guarded("obs_bounded_invertible", 1.0, chk_obs_bounded_invertible)
    guarded("obs_drift_x_lipschitz", ceil["lipschitz"], chk_obs_drift_x_lipschitz)

    # intensity bounds: pass/fail semantics are two-sided, handled directly;
    # lam is read unchecked, so a value outside (0, 1) is reported, not raised
    try:
        lo_val, lo_wit, lo_note = chk_lambda_lower()
        hi_val, hi_wit, hi_note = chk_lambda_upper()
        int_val, int_wit, int_note = chk_lambda_integrable()
        checks.append(HypothesisCheck(
            "jump_intensity_lower", P, float(lo_val), spec.iota,
            bool(np.isfinite(lo_val) and lo_val > spec.iota), lo_wit,
            lo_note or "pass iff min lam > iota"))
        checks.append(HypothesisCheck(
            "jump_intensity_upper", P, float(hi_val), 1.0,
            bool(np.isfinite(hi_val) and hi_val < 1.0), hi_wit,
            hi_note or "pass iff max lam < 1"))
        checks.append(HypothesisCheck(
            "jump_intensity_integrable", P, float(int_val), float("inf"),
            bool(np.isfinite(int_val)), int_wit,
            int_note or "(1-lam)^2/lam integral against nu2"))
    except Exception as exc:
        checks.append(HypothesisCheck("jump_intensity_lower", P, float("inf"),
                                      spec.iota, False, {"error": repr(exc)}))

    return HypothesisReport(checks)
