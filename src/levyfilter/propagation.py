"""The steps of the model under both measures, each written once.

Physical measure: the pair steps as x + (b1 - int f1 nu1) dt + sigma0 dB
+ sigma1 dW and y + (b2 - int f2 nu2) dt + sigma2 dW, and each observation
candidate is kept with probability lam (``thin``).

Reference measure (Kallianpur-Striebel): the observation is a driftless
Brownian motion plus jumps at the full rate nu2, and a batch of signal
states steps as x + (b1 - sigma1 h - int f1 nu1) dt + sigma1 dW
+ sigma0 dB, then jumps.  The weight that carries it back gains
h.dW - |h|^2 dt/2 + rate2 (1 - lambda-bar) dt per step
(``log_weight_step``) and log lam at each accepted jump.

Every integral against nu1 or nu2, and every jump mark, is taken over
that measure's own quadrature ``nu.marks``.

The simulator, the filter, both weight samplers and the prior Monte
Carlo all step through here; ``oracle.py`` keeps its
own copy on purpose, so that it stays an independent check.
"""

from __future__ import annotations

import numpy as np


def loaded(A, v):
    """The noise v through the loading A, each shared or per row: (r, c)
    or (N, r, c) against (c,) or (N, c) gives (N, r)."""
    return np.einsum("...rc,...c->...r", A, v)


def physical_step(spec, t, x, y, dt, dB, dW):
    """One continuous Euler step of the pair under the physical measure.

    ``x`` (N, n) and ``y`` (N, m) are a batch of paths, ``dB`` (N, d) and
    ``dW`` (N, m) their Brownian increments; both jump channels enter
    compensated at their full rates (the observation at nu2, not lam nu2,
    which keeps the observation's law under the reference measure free of
    the signal).  Every coefficient is read at the step's left point.
    Returns the new (x, y).
    """
    x_on_B = np.asarray(spec.sigma0(t, x), float)
    x_on_W = np.asarray(spec.sigma1(t, x), float)
    y_on_W = np.asarray(spec.sigma2(t, y), float)
    drift_x = (np.asarray(spec.b1(t, x), float)
               - spec.signal_jump_drift(t, x))
    drift_y = (np.asarray(spec.b2(t, x, y), float)
               - spec.obs_jump_drift_reference(t, y))
    x = x + drift_x * dt + loaded(x_on_B, dB)
    y = y + drift_y * dt + loaded(y_on_W, dW)
    return x + loaded(x_on_W, dW), y


def thin(spec, t, x, u, rng):
    """Keep each observation candidate (x (N, n), mark u (N, k2)) with
    probability lam(t, x, u): one uniform per candidate from ``rng``.
    Returns the accepted mask (N,) and lam (N,)."""
    lam = spec.acceptance(t, x, u)
    return rng.uniform(size=lam.shape) < lam, lam


def reference_step(signal, dt, dW, dB, h=None):
    """One Euler step of the states ``signal.x`` (N, n); returns the new ones.

    ``signal`` (``model.SignalTerms``) holds b1, the jump compensator drift
    and the loadings sigma0 and sigma1, shared or per state, already
    evaluated on the states.  Without the sensor function ``h`` (N, m), as
    for a prior, the drift has no coupling term.  ``dW`` is shared (m,) or
    per state (N, m); the independent noise ``dB`` is (N, d).
    """
    x = signal.x
    drift = signal.b1.reshape(x.shape)
    if h is not None:
        drift = drift - loaded(signal.on_W, h)
    drift = drift - signal.jump_drift
    return (x + drift * dt + loaded(signal.on_W, dW)
            + loaded(signal.on_B, dB))


def observation_reference_step(spec, t, y, dt, dW):
    """One continuous step of the observations y (N, m) under the
    reference measure: driftless, with the jumps compensated at nu2."""
    return (y + loaded(np.asarray(spec.sigma2(t, y), float), dW)
            - dt * spec.obs_jump_drift_reference(t, y))


def lam_bar(spec, t, x):
    """Mean of lam over nu2's quadrature on the states x (..., n): (...,);
    None without observation jumps.  A lam that ignores its mark gives one
    column, which is its own mean."""
    if spec.nu2.rate == 0.0:
        return None
    lam = spec.lam_marks(t, x, spec.nu2.marks)
    return lam[..., 0] if lam.shape[-1] == 1 else np.mean(lam, axis=-1)


def log_weight_step(logw, h, dW, dt, rate2, lam_bar):
    """logw + h.dW - |h|^2 dt / 2 + rate2 (1 - lam_bar) dt, over a batch.

    ``h`` is (..., m) and ``dW`` shared (m,) or (..., m); ``lam_bar`` is
    None without observation jumps.  The inverse weight is the same step
    with -h and -rate2, which are exact negations.
    """
    logw = (logw + np.einsum("...m,...m->...", h, dW)
            - 0.5 * np.einsum("...m,...m->...", h, h) * dt)
    if lam_bar is not None:
        logw = logw + dt * rate2 * (1.0 - lam_bar)
    return logw


def jump_rounds(rng_counts, rng_marks, nu, dt, size):
    """Poisson(nu.rate dt) jumps for each of ``size`` rows, as a list of
    rounds: round j holds the ascending indices of the rows with at least
    j jumps and one mark per such row, drawn from the quadrature
    ``nu.marks``, which the compensators average over.

    The counts are drawn per batch: a Poisson(size rate dt) total spread
    uniformly over the rows gives each row an independent Poisson(rate dt)
    count, at a cost that follows the jumps rather than the rows."""
    counts = np.bincount(
        rng_counts.integers(0, size, rng_counts.poisson(size * nu.rate * dt)),
        minlength=size)
    rows = counts.nonzero()[0]
    marks = nu.marks
    rounds = []
    while rows.size:
        rounds.append((rows, marks[rng_marks.integers(0, len(marks),
                                                      rows.size)]))
        rows = rows[counts[rows] > len(rounds)]
    return rounds


def add_signal_jumps(spec, t, x, dt, rng_counts, rng_marks):
    """Add one step's signal jumps f1(t, x-, u) to the batch x, in place."""
    if spec.nu1.rate > 0.0:
        for rows, u in jump_rounds(rng_counts, rng_marks, spec.nu1, dt,
                                   x.shape[0]):
            x[rows] += np.asarray(spec.f1(t, x[rows], u), float)
    return x
