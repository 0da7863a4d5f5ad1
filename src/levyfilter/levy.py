"""Finite-activity jump streams: sampling and compensator quadrature.

Candidate events are drawn from a dominating Poisson measure (rate *
mark-law); observation-channel events are then kept with the
state-dependent probability ``lam(t, x, u)`` (``propagation.thin``).  The
accepted stream has compensator ``lam(t, x, u) dt nu2(du)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericOverflowError
from .rng import substream

# The most events a stream may expect, rate * (t1 - t0): each event is a
# Python object and a refined grid step, so far more would exhaust memory.
MAX_EXPECTED_EVENTS = 1e6


@dataclass
class JumpEvent:
    t: float
    mark: np.ndarray
    channel: str = "signal"       # "signal" or "observation"
    accepted: bool = True

    def __post_init__(self):
        self.mark = np.atleast_1d(np.asarray(self.mark, float))


def sample_poisson_stream(nu, t0, t1, rng_seed, channel="signal"):
    """Draw one realization of the dominating Poisson stream of ``nu``: a
    time-sorted list of ``JumpEvent``s on ``channel``.

    Event count is Poisson(rate * (t1 - t0)), event times are uniform on
    [t0, t1) and sorted, marks are independent draws from the mark law.
    Identical seeds produce bit-identical streams.  An expected count
    above ``MAX_EXPECTED_EVENTS`` is a ConfigError, raised before any draw.
    """
    t0, t1 = float(t0), float(t1)
    if t1 < t0:
        raise ValueError("need t1 >= t0")
    if nu.rate < 0.0 or not np.isfinite(nu.rate):
        raise ValueError(f"invalid stream rate {nu.rate}")
    expected = nu.rate * (t1 - t0)
    if expected > MAX_EXPECTED_EVENTS:
        raise ConfigError(
            f"{channel} jump stream expects {expected:.3g} events, above the "
            f"ceiling of {MAX_EXPECTED_EVENTS:.0e}; lower its rate")
    rng = substream(rng_seed, "poisson", channel)
    if nu.rate == 0.0 or t1 == t0:
        return []
    count = int(rng.poisson(expected))
    times = np.sort(rng.uniform(t0, t1, size=count))
    marks = np.asarray(nu.sampler(rng, count), float).reshape(count, nu.dim)
    return [JumpEvent(float(t), u, channel=channel) for t, u in zip(times, marks)]


def compensator_integral(spec, g, x_lookup, t0, t1, step):
    """Time-trapezoid, mark-Monte-Carlo quadrature of

        int_{t0}^{t1} int g(t, u) lam(t, x(t-), u) nu2(du) dt.

    The marks are nu2's quadrature.  Deterministic for fixed
    inputs; non-finite integrands raise NumericOverflowError.
    """
    t0, t1 = float(t0), float(t1)
    if t1 < t0:
        raise ValueError("need t1 >= t0")
    if spec.nu2.rate == 0.0 or t1 == t0:
        return 0.0
    marks = spec.nu2.marks
    steps = max(1, int(np.ceil((t1 - t0) / float(step))))
    ts = np.linspace(t0, t1, steps + 1)
    vals = np.empty(steps + 1)
    for i, t in enumerate(ts):
        x = np.asarray(x_lookup(t), float)
        gv = np.asarray(g(t, marks), float).reshape(marks.shape[0])
        lamv = spec.lam_marks(t, x, marks)
        vals[i] = spec.nu2.rate * np.mean(gv * lamv)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise NumericOverflowError(
            f"compensator integrand not finite at t={ts[bad]:g}")
    # numpy >= 2.0 names it trapezoid and numpy 2.4 dropped trapz; look the
    # old name up only when the new one is missing
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(vals, ts))
