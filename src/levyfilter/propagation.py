"""Signal propagation under the reference measure, written once.

Under the reference measure (Kallianpur-Striebel) the observation is a
driftless Brownian motion plus jumps at the full rate nu2, and a batch of
signal states steps as x + (b1 - coupling h - int f1 nu1) dt + coupling dW
+ indep dB, then jumps.  The filter, the weight sampler and the prior Monte
Carlo all step through here; ``oracle.py`` keeps its own copy on purpose,
so that it stays an independent check.
"""

from __future__ import annotations

import numpy as np


def batched(A, size):
    """A per-state matrix, or one matrix shared by all, as (size, ...)."""
    A = np.asarray(A, float)
    return np.broadcast_to(A, (size,) + A.shape) if A.ndim == 2 else A


def reference_step(spec, signal, coup, dt, dW, dB, h=None):
    """One Euler step of the states ``signal.x`` (N, n); returns the new ones.

    ``signal`` (``model.SignalTerms``) and ``coup`` (N, n, m) hold b1, the
    jump compensator drift and the coupling already evaluated on the
    states.  Without the sensor function ``h`` (N, m), as for a prior, the
    drift has no coupling term.  ``dW`` is shared (m,) or per state (N, m);
    the independent noise ``dB`` is (N, q).
    """
    x = signal.x
    N = x.shape[0]
    drift = signal.b1.reshape(x.shape)
    if h is not None:
        drift = drift - np.einsum("Nnm,Nm->Nn", coup, h)
    drift = drift - signal.jump_drift
    indep = batched(spec.indep_factor(signal.t, x), N)
    dW = np.broadcast_to(dW, (N, coup.shape[-1]))
    return (x + drift * dt + np.einsum("Nnm,Nm->Nn", coup, dW)
            + np.einsum("Nnq,Nq->Nn", indep, dB))


def jump_rounds(rng_counts, rng_marks, rate, dt, marks, size):
    """Poisson(rate dt) jumps for each of ``size`` rows: round j yields the
    mask of rows with at least j jumps and one mark per such row, drawn
    from the frozen sample ``marks``, which the compensators average over."""
    counts = rng_counts.poisson(rate * dt, size=size)
    for j in range(1, int(counts.max(initial=0)) + 1):
        mask = counts >= j
        yield mask, marks[rng_marks.integers(0, len(marks), int(mask.sum()))]


def add_signal_jumps(spec, t, x, dt, marks1, rng_counts, rng_marks):
    """Add one step's signal jumps f1(t, x-, u) to the batch x, in place."""
    if spec.nu1.rate > 0.0:
        for mask, u in jump_rounds(rng_counts, rng_marks, spec.nu1.rate, dt,
                                   marks1, x.shape[0]):
            x[mask] += np.asarray(spec.f1(t, x[mask], u), float)
    return x
