"""Likelihood weights and reference-measure drivers.

Under the reference measure the observation is driftless, its Brownian
driver is recoverable from the recorded Y path, and observation jumps
arrive at the full dominating rate.  The weight that carries expectations
back to the physical measure factorizes per step into

    brownian:     h . dWtilde - |h|^2 dt / 2      (reference parameterization)
    jump:         log lam at each accepted observation jump
    compensator:  (1 - lam) nu2(U) dt

and the inverse weight (physical parameterization) into the negatives
with the Brownian part written against the physical W.  Both exponentials
are mean-one martingales, which the batch samplers below make testable.
The steps themselves (paths, thinning, weight increments) are those of
``propagation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvertibilityError
from .model import signal_terms, solve
from .propagation import (add_signal_jumps, jump_rounds, lam_bar,
                          log_weight_step, observation_reference_step,
                          physical_step, reference_step, thin)
from .rng import substream


@dataclass
class LikelihoodPath:
    """Cumulative inverse log-weight along one path, with its decomposition."""

    t: np.ndarray
    brownian: np.ndarray
    jump: np.ndarray
    compensator: np.ndarray

    @property
    def log_lambda_inverse(self):
        return self.brownian + self.jump + self.compensator


def log_lambda_inverse(record, spec):
    """Inverse likelihood weight accumulated along a simulated PathRecord.

    The jump part changes only at accepted observation-jump steps; the
    Brownian and compensator parts accumulate on continuous steps with
    left-endpoint coefficient evaluation and the record's frozen marks.
    """
    K = len(record.t) - 1
    brown = np.zeros(K + 1)
    jump = np.zeros(K + 1)
    comp = np.zeros(K + 1)
    dt_all = record.dt()
    for k in range(K):
        brown[k + 1], jump[k + 1], comp[k + 1] = brown[k], jump[k], comp[k]
        t = record.t[k]
        x = record.X[k]
        if record.step_kind[k] == 0:
            dt, dW = dt_all[k], record.dW[k]
            h = np.asarray(spec.h(t, x, record.Y[k]), float)
            brown[k + 1] = log_weight_step(brown[k], -h, dW, dt, 0.0, None)
            comp[k + 1] = log_weight_step(
                comp[k], np.zeros_like(h), dW, dt, -spec.nu2.rate,
                lam_bar(spec, t, x, record.marks2))
        elif record.step_kind[k] == 2 and record.step_accepted[k]:
            u = record.step_mark[k, :spec.nu2.dim]
            jump[k + 1] = jump[k] - np.log(float(spec.acceptance(t, x, u)))
    return LikelihoodPath(record.t.copy(), brown, jump, comp)


def reconstruct_reference_drivers(obs, spec):
    """Invert the reference observation dynamics for the Brownian driver:
    the (K, m) increments dW on the record's grid.

    Per continuous step:  dW = sigma2(t, Y_t)^{-1} (dY + dt * int f2 nu2),
    using the record's frozen marks for the compensator; jump steps (zero
    length, one event) contribute dW = 0.  Raises InvertibilityError with
    the condition number when sigma2 is singular.
    """
    K = len(obs.t) - 1
    m = obs.Y.shape[1]
    dW = np.zeros((K, m))
    dt_all = obs.dt()
    jump_steps = obs.step_event()
    for k in range(K):
        if k in jump_steps:
            continue
        t = obs.t[k]
        y = obs.Y[k]
        dt = dt_all[k]
        comp = spec.obs_jump_drift_reference(t, y, obs.marks2)
        rhs = (obs.Y[k + 1] - y) + dt * comp
        sig = np.asarray(spec.sigma2(t, y), float)
        try:
            dW[k] = solve(sig, rhs)
        except np.linalg.LinAlgError as exc:
            raise InvertibilityError(
                f"observation diffusion singular at t={t:g} "
                f"(condition number {np.linalg.cond(sig):.3e})") from exc
    return dW


def resynthesize_observation(obs, dW, spec, y0):
    """Re-integrate the reference observation dynamics from the Brownian
    increments dW on the grid and jump events of ``obs``.

    Returns the (K+1, m) node values; with dW reconstructed from ``obs``
    this reproduces its Y path up to float roundoff.
    """
    K = len(obs.t) - 1
    m = dW.shape[1]
    Y = np.empty((K + 1, m))
    Y[0] = np.asarray(y0, float).reshape(m)
    dt_all = obs.dt()
    ev = obs.step_event()
    for k in range(K):
        t = obs.t[k]
        y = Y[k]
        if k in ev:
            Y[k + 1] = y + np.asarray(spec.f2(t, y, ev[k].mark), float).reshape(m)
        else:
            Y[k + 1] = observation_reference_step(
                spec, t, Y[k:k + 1], dt_all[k], dW[k:k + 1], obs.marks2)[0]
    return Y


# --- batch martingale samplers ----------------------------------------------

def sample_reference_log_weights(spec, grid, n_paths, x0_sampler, y0, rng_seed):
    """Log-weights log Lambda_T over independent reference-measure paths.

    The per-step weight factors are exact likelihood ratios of the
    discretized transition laws, so mean(exp(logw)) estimates 1 without a
    time-discretization bias.  Both jump channels draw their marks from
    the frozen samples that the compensators average over, so this holds
    for a mark-dependent lam too, with no mark-sampling error.
    """
    R = int(n_paths)
    n, m = spec.n, spec.m
    X = np.asarray(x0_sampler(substream(rng_seed, "x0"), R), float).reshape(R, n)
    Y = np.broadcast_to(np.asarray(y0, float).reshape(m), (R, m)).copy()
    logw = np.zeros(R)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget)
    marks2 = spec.nu2.frozen_marks(spec.mark_budget)
    rng_g = substream(rng_seed, "brownian")
    rng_c = substream(rng_seed, "jump-counts")
    rng_u = substream(rng_seed, "jump-marks")
    nodes = grid.nodes()
    dt = grid.dt
    sq = np.sqrt(dt)
    for k in range(grid.n_steps):
        t = nodes[k]
        dW = rng_g.standard_normal((R, m)) * sq
        dXi = rng_g.standard_normal((R, spec.d)) * sq
        hv = np.asarray(spec.h(t, X, Y), float).reshape(R, m)
        logw = log_weight_step(logw, hv, dW, dt, spec.nu2.rate,
                               lam_bar(spec, t, X, marks2))
        Xn = reference_step(spec, signal_terms(spec, t, X, marks1),
                            np.asarray(spec.sigma1(t, X), float), dt, dW,
                            dXi, hv)
        Yn = observation_reference_step(spec, t, Y, dt, dW, marks2)
        if spec.nu2.rate > 0.0:
            for rows, u in jump_rounds(rng_c, rng_u, spec.nu2.rate, dt,
                                       marks2, R):
                logw[rows] += np.log(spec.acceptance(t, X[rows], u))
                Yn[rows] += np.asarray(spec.f2(t, Yn[rows], u), float)
        X = add_signal_jumps(spec, t, Xn, dt, marks1, rng_c, rng_u)
        Y = Yn
    return logw


def sample_model_log_inverse_weights(spec, grid, n_paths, x0_sampler, y0, rng_seed):
    """Inverse log-weights log Lambda_T^{-1} over physical-measure paths."""
    R = int(n_paths)
    n, m, d = spec.n, spec.m, spec.d
    X = np.asarray(x0_sampler(substream(rng_seed, "x0"), R), float).reshape(R, n)
    Y = np.broadcast_to(np.asarray(y0, float).reshape(m), (R, m)).copy()
    logw = np.zeros(R)
    marks1 = spec.nu1.frozen_marks(spec.mark_budget)
    marks2 = spec.nu2.frozen_marks(spec.mark_budget)
    rng_g = substream(rng_seed, "brownian")
    rng_c = substream(rng_seed, "jump-counts")
    rng_u = substream(rng_seed, "jump-marks")
    rng_a = substream(rng_seed, "thinning")
    nodes = grid.nodes()
    dt = grid.dt
    sq = np.sqrt(dt)
    for k in range(grid.n_steps):
        t = nodes[k]
        dW = rng_g.standard_normal((R, m)) * sq
        dB = rng_g.standard_normal((R, d)) * sq
        hv = np.asarray(spec.h(t, X, Y), float).reshape(R, m)
        logw = log_weight_step(logw, -hv, dW, dt, -spec.nu2.rate,
                               lam_bar(spec, t, X, marks2))
        Xn, Yn = physical_step(spec, t, X, Y, dt, dB, dW, marks1, marks2)
        if spec.nu2.rate > 0.0:
            for rows, u in jump_rounds(rng_c, rng_u, spec.nu2.rate, dt,
                                       marks2, R):
                acc, lamv = thin(spec, t, X[rows], u, rng_a)
                sel = rows[acc]
                logw[sel] -= np.log(lamv[acc])
                Yn[sel] += np.asarray(spec.f2(t, Yn[sel], u[acc]), float)
        X = add_signal_jumps(spec, t, Xn, dt, marks1, rng_c, rng_u)
        Y = Yn
    return logw
