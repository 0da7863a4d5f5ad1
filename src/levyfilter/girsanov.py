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
from .model import signal_terms
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


@dataclass
class ReferenceDrivers:
    """Observation-measurable drivers on the observation grid.

    ``dW[k]`` is the reconstructed reference Brownian increment over step
    k (zero on jump steps); jump steps carry exactly one event each.
    """

    t: np.ndarray
    dW: np.ndarray
    event_steps: np.ndarray
    events: list
    rate2: float
    marks2: np.ndarray

    def dt(self):
        return np.diff(self.t)

    def is_jump_step(self):
        out = np.zeros(len(self.t) - 1, bool)
        out[self.event_steps] = True
        return out

    def step_event(self):
        return {int(k): e for e, k in zip(self.events, self.event_steps)}


def reconstruct_reference_drivers(obs, spec):
    """Invert the reference observation dynamics for the Brownian driver.

    Per continuous step:  dW = obs_sigma(t, Y_t)^{-1} (dY + dt * int f2 nu2),
    using the record's frozen marks for the compensator; jump steps (zero
    length, one event) contribute dW = 0.  Raises InvertibilityError with
    the condition number when obs_sigma is singular.
    """
    K = len(obs.t) - 1
    m = obs.Y.shape[1]
    dW = np.zeros((K, m))
    dt_all = obs.dt()
    jump_steps = set(int(k) for k in obs.event_steps)
    for k in range(K):
        if k in jump_steps:
            continue
        t = obs.t[k]
        y = obs.Y[k]
        dt = dt_all[k]
        comp = spec.obs_jump_drift_reference(t, y, obs.marks2)
        rhs = (obs.Y[k + 1] - y) + dt * comp
        sig = np.asarray(spec.obs_sigma(t, y), float)
        try:
            dW[k] = np.linalg.solve(sig, rhs)
        except np.linalg.LinAlgError as exc:
            raise InvertibilityError(
                f"observation diffusion singular at t={t:g} "
                f"(condition number {np.linalg.cond(sig):.3e})") from exc
    return ReferenceDrivers(obs.t.copy(), dW, np.asarray(obs.event_steps, int),
                            list(obs.events), spec.nu2.rate, obs.marks2)


def resynthesize_observation(drivers, spec, y0):
    """Re-integrate the reference observation dynamics from its drivers.

    Returns the (K+1, m) node values; with drivers reconstructed from an
    ObservationRecord this reproduces its Y path up to float roundoff.
    """
    K = len(drivers.t) - 1
    m = drivers.dW.shape[1]
    Y = np.empty((K + 1, m))
    Y[0] = np.asarray(y0, float).reshape(m)
    dt_all = drivers.dt()
    ev = drivers.step_event()
    for k in range(K):
        t = drivers.t[k]
        y = Y[k]
        if k in ev:
            Y[k + 1] = y + np.asarray(spec.f2(t, y, ev[k].mark), float).reshape(m)
        else:
            Y[k + 1] = observation_reference_step(
                spec, t, Y[k:k + 1], dt_all[k], drivers.dW[k:k + 1],
                drivers.marks2)[0]
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
    q = spec.indep_dim()
    sq = np.sqrt(dt)
    for k in range(grid.n_steps):
        t = nodes[k]
        dW = rng_g.standard_normal((R, m)) * sq
        dXi = rng_g.standard_normal((R, q)) * sq
        hv = np.asarray(spec.h(t, X, Y), float).reshape(R, m)
        logw = log_weight_step(logw, hv, dW, dt, spec.nu2.rate,
                               lam_bar(spec, t, X, marks2))
        Xn = reference_step(spec, signal_terms(spec, t, X, marks1),
                            spec.coupling(t, X), dt, dW, dXi, hv)
        Yn = observation_reference_step(spec, t, Y, dt, dW, marks2)
        if spec.nu2.rate > 0.0:
            for mask, u in jump_rounds(rng_c, rng_u, spec.nu2.rate, dt,
                                       marks2, R):
                logw[mask] += np.log(spec.acceptance(t, X[mask], u))
                Yn[mask] += np.asarray(spec.f2(t, Yn[mask], u), float)
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
            for mask, u in jump_rounds(rng_c, rng_u, spec.nu2.rate, dt,
                                       marks2, R):
                acc, lamv = thin(spec, t, X[mask], u, rng_a)
                sel = np.flatnonzero(mask)[acc]
                logw[sel] -= np.log(lamv[acc])
                Yn[sel] += np.asarray(spec.f2(t, Yn[sel], u[acc]), float)
        X = add_signal_jumps(spec, t, Xn, dt, marks1, rng_c, rng_u)
        Y = Yn
    return logw
