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

import numpy as np

from .model import signal_terms, solve
from .propagation import (add_signal_jumps, jump_rounds, lam_bar,
                          log_weight_step, observation_reference_step,
                          physical_step, reference_step, thin)
from .rng import substream


def reconstruct_reference_drivers(obs, spec):
    """Invert the reference observation dynamics for the Brownian driver:
    the (K, m) increments dW on the record's grid.

    Per continuous step:  dW = sigma2(t, Y_t)^{-1} (dY + dt * int f2 nu2),
    with the compensator over nu2's quadrature; jump steps (zero
    length, one event) contribute dW = 0.  Raises InvertibilityError with
    the condition number when sigma2 is singular.
    """
    K = len(obs.t) - 1
    m = obs.Y.shape[1]
    dW = np.zeros((K, m))
    dt_all = obs.dt()
    for k in np.flatnonzero(~obs.is_jump()):
        t = obs.t[k]
        y = obs.Y[k]
        dt = dt_all[k]
        comp = spec.obs_jump_drift_reference(t, y)
        rhs = (obs.Y[k + 1] - y) + dt * comp
        dW[k] = solve(np.asarray(spec.sigma2(t, y), float), rhs, t)
    return dW


# --- batch martingale samplers ----------------------------------------------

def sample_reference_log_weights(spec, grid, n_paths, x0_sampler, y0, rng_seed):
    """Log-weights log Lambda_T over independent reference-measure paths.

    The per-step weight factors are exact likelihood ratios of the
    discretized transition laws, so mean(exp(logw)) estimates 1 without a
    time-discretization bias.  Both jump channels draw their marks from
    the quadratures that the compensators average over, so this holds
    for a mark-dependent lam too, with no mark-sampling error.
    """
    R = int(n_paths)
    n, m = spec.n, spec.m
    X = np.asarray(x0_sampler(substream(rng_seed, "x0"), R), float).reshape(R, n)
    Y = np.broadcast_to(np.asarray(y0, float).reshape(m), (R, m)).copy()
    logw = np.zeros(R)
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
                               lam_bar(spec, t, X))
        Xn = reference_step(spec, signal_terms(spec, t, X, spec.nu1.marks),
                            np.asarray(spec.sigma1(t, X), float), dt, dW,
                            dXi, hv)
        Yn = observation_reference_step(spec, t, Y, dt, dW)
        if spec.nu2.rate > 0.0:
            for rows, u in jump_rounds(rng_c, rng_u, spec.nu2, dt, R):
                logw[rows] += np.log(spec.acceptance(t, X[rows], u))
                Yn[rows] += np.asarray(spec.f2(t, Yn[rows], u), float)
        X = add_signal_jumps(spec, t, Xn, dt, rng_c, rng_u)
        Y = Yn
    return logw


def sample_model_log_inverse_weights(spec, grid, n_paths, x0_sampler, y0, rng_seed):
    """Inverse log-weights log Lambda_T^{-1} over physical-measure paths."""
    R = int(n_paths)
    n, m, d = spec.n, spec.m, spec.d
    X = np.asarray(x0_sampler(substream(rng_seed, "x0"), R), float).reshape(R, n)
    Y = np.broadcast_to(np.asarray(y0, float).reshape(m), (R, m)).copy()
    logw = np.zeros(R)
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
                               lam_bar(spec, t, X))
        Xn, Yn = physical_step(spec, t, X, Y, dt, dB, dW)
        if spec.nu2.rate > 0.0:
            for rows, u in jump_rounds(rng_c, rng_u, spec.nu2, dt, R):
                acc, lamv = thin(spec, t, X[rows], u, rng_a)
                sel = rows[acc]
                logw[sel] -= np.log(lamv[acc])
                Yn[sel] += np.asarray(spec.f2(t, Yn[sel], u[acc]), float)
        X = add_signal_jumps(spec, t, Xn, dt, rng_c, rng_u)
        Y = Yn
    return logw
