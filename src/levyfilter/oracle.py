"""Independent references the particle filter is checked against.

kalman_bucy solves the linear-Gaussian conditional mean and covariance in
closed recursion, including the gain correction for noise shared between
signal and observation.  mc_conditional_oracle re-derives the conditional
moment by brute force from its definition as a weighted average over
independent reference paths; it deliberately shares no propagation or
weighting code with the filter modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvertibilityError
from .rng import substream


@dataclass(frozen=True)
class LinearSpec:
    """Linear system dX = AX dt + S0 dB + S1 dW, dY = HX dt + R dW."""

    A: np.ndarray
    Sigma0: np.ndarray
    Sigma1: np.ndarray
    H: np.ndarray
    R: np.ndarray
    x0_mean: np.ndarray
    x0_cov: np.ndarray

    def __post_init__(self):
        for name in ("A", "Sigma0", "Sigma1", "H", "R", "x0_cov"):
            object.__setattr__(self, name, np.atleast_2d(
                np.asarray(getattr(self, name), float)))
        object.__setattr__(self, "x0_mean", np.atleast_1d(
            np.asarray(self.x0_mean, float)))
        n = self.A.shape[0]
        m = self.H.shape[0]
        if self.A.shape != (n, n) or self.H.shape[1] != n:
            raise ConfigError("linear system dimensions are inconsistent")
        if self.R.shape != (m, m):
            raise ConfigError("observation noise matrix must be m x m")


@dataclass
class KalmanResult:
    t: np.ndarray
    mean: np.ndarray
    cov: np.ndarray


def kalman_bucy(lin, t, Y, substeps=10):
    """Conditional mean/covariance for the linear system given a Y path.

    Gain K = (P H' + S1 R') (R R')^{-1}; the covariance follows the
    Riccati flow dP = AP + PA' + S0 S0' + S1 S1' - K (R R') K', integrated
    with ``substeps`` Euler stages per observation step.  The S1 R' term
    is what the shared Brownian driver adds over the classical filter.
    """
    t = np.asarray(t, float)
    Y = np.atleast_2d(np.asarray(Y, float))
    if Y.ndim == 1:
        Y = Y[:, None]
    K_steps = len(t) - 1
    n = lin.A.shape[0]
    m = lin.H.shape[0]
    RR = lin.R @ lin.R.T
    try:
        RR_inv = np.linalg.inv(RR)
    except np.linalg.LinAlgError as exc:
        raise InvertibilityError("observation noise covariance singular") from exc
    Q = lin.Sigma0 @ lin.Sigma0.T + lin.Sigma1 @ lin.Sigma1.T
    S = lin.Sigma1 @ lin.R.T

    mean = np.empty((K_steps + 1, n))
    cov = np.empty((K_steps + 1, n, n))
    mean[0] = lin.x0_mean
    cov[0] = lin.x0_cov
    for k in range(K_steps):
        dt = t[k + 1] - t[k]
        P = cov[k]
        mu = mean[k]
        gain = (P @ lin.H.T + S) @ RR_inv
        dy = Y[k + 1] - Y[k]
        mean[k + 1] = mu + (lin.A @ mu) * dt + gain @ (dy - (lin.H @ mu) * dt)
        sub = dt / substeps
        for _ in range(substeps):
            Ksub = (P @ lin.H.T + S) @ RR_inv
            Pdot = (lin.A @ P + P @ lin.A.T + Q - Ksub @ RR @ Ksub.T)
            P = P + sub * Pdot
        cov[k + 1] = 0.5 * (P + P.T)
    return KalmanResult(t.copy(), mean, cov)


def stationary_covariance(lin, t_max=50.0, dt=1e-3, tol=1e-12):
    """Riccati fixed point by integration until the flow stalls."""
    P = lin.x0_cov.copy()
    RR = lin.R @ lin.R.T
    RR_inv = np.linalg.inv(RR)
    Q = lin.Sigma0 @ lin.Sigma0.T + lin.Sigma1 @ lin.Sigma1.T
    S = lin.Sigma1 @ lin.R.T
    steps = int(t_max / dt)
    for _ in range(steps):
        K = (P @ lin.H.T + S) @ RR_inv
        Pdot = lin.A @ P + P @ lin.A.T + Q - K @ RR @ K.T
        P = P + dt * Pdot
        if np.max(np.abs(Pdot)) < tol:
            break
    return 0.5 * (P + P.T)


@dataclass
class OracleEstimate:
    value: float
    se: float


def mc_conditional_oracle(spec, obs, n_paths, prior_sampler, rng_seed, F):
    """Conditional moment of F at the final observation node, from scratch.

    Draws independent signal paths under the reference dynamics on the
    observation grid, weights each by its likelihood factor, and returns
    the self-normalized average with a linearization standard error.  The
    whole chain (driver inversion, propagation, weighting) is written out
    locally so it cannot inherit a bug from the filter implementation.
    """
    R = int(n_paths)
    n, m = spec.n, spec.m
    K = len(obs.t) - 1
    jump_at = {int(k): e for e, k in zip(obs.events, obs.event_steps)}

    x = np.asarray(prior_sampler(substream(rng_seed, "oracle-prior"), R),
                   float).reshape(R, n)
    logw = np.zeros(R)
    gen = substream(rng_seed, "oracle-noise")
    gen_j = substream(rng_seed, "oracle-jumps")
    marks1 = spec.nu1.frozen_marks(spec.mark_budget)
    marks2 = obs.marks2

    for k in range(K):
        t = obs.t[k]
        y = obs.Y[k]
        if k in jump_at:
            u = jump_at[k].mark
            lam = np.asarray(spec.lam(t, x, u), float).reshape(R)
            logw += np.log(lam)
            continue
        dt = obs.t[k + 1] - obs.t[k]
        comp_ref = spec.obs_jump_drift_reference(t, y, marks2)
        sig = np.asarray(spec.sigma2(t, y), float)
        dw = np.linalg.solve(sig, (obs.Y[k + 1] - y) + dt * comp_ref)

        hv = np.asarray(spec.h(t, x, y), float).reshape(R, m)
        logw += hv @ dw - 0.5 * np.sum(hv * hv, axis=1) * dt
        if spec.nu2.rate > 0.0:
            lam_bar = np.mean(spec.lam_marks(t, x, marks2), axis=-1)
            logw += dt * spec.nu2.rate * (1.0 - lam_bar)

        coup = np.asarray(spec.sigma1(t, x), float)
        if coup.ndim == 2:
            coup = np.broadcast_to(coup, (R,) + coup.shape)
        indep = np.asarray(spec.sigma0(t, x), float)
        if indep.ndim == 2:
            indep = np.broadcast_to(indep, (R,) + indep.shape)
        drift = (np.asarray(spec.b1(t, x), float).reshape(R, n)
                 - np.einsum("Rnm,Rm->Rn", coup, hv)
                 - spec.signal_jump_drift(t, x, marks1))
        db = gen.standard_normal((R, spec.d)) * np.sqrt(dt)
        x = (x + drift * dt + coup @ dw
             + np.einsum("Rnq,Rq->Rn", indep, db))
        if spec.nu1.rate > 0.0:
            counts = gen_j.poisson(spec.nu1.rate * dt, size=R)
            for j in range(1, int(counts.max()) + 1):
                mask = counts >= j
                # draw from the frozen sample so the compensator in the
                # drift matches the jump law the paths actually follow
                u1 = marks1[gen_j.integers(0, len(marks1), int(mask.sum()))]
                x[mask] += np.asarray(spec.f1(t, x[mask], u1), float)

    fn = getattr(F, "value", F)
    vals = np.asarray(fn(x), float).reshape(R)
    wmax = np.max(logw)
    b = np.exp(logw - wmax)
    bbar = b.mean()
    value = float(np.dot(b, vals) / (R * bbar))
    infl = b * (vals - value) / bbar
    se = float(np.std(infl, ddof=1) / np.sqrt(R))
    return OracleEstimate(value, se)
