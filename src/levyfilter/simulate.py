"""Jump-adapted Euler simulation of the coupled signal/observation pair.

Every jump time is inserted into the time grid as a *duplicated* node, so
each refined step is either a continuous step (positive length, no event)
or a zero-length event step carrying exactly one jump.  The left node of
an event step therefore holds the exact pre-jump state, which keeps the
thinning probabilities, likelihood factors and filter updates explicit
and predictable without any implicit solves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .levy import sample_poisson_stream
from .propagation import physical_step, thin
from .rng import derive_seed, substream

MAX_NORM = 1e8                 # a path whose |state| passes this diverged


@dataclass(frozen=True)
class TimeGrid:
    """Uniform base grid; jump times are added per path, not here."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (self.t1 > self.t0):
            raise ValueError("need t1 > t0")

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.n_steps

    def nodes(self):
        k = np.arange(self.n_steps + 1, dtype=float)
        return self.t0 + (self.t1 - self.t0) * k / self.n_steps


@dataclass
class PathRecord:
    """Complete record of one simulated pair, on its refined grid.

    ``t`` has a duplicated entry at every event time (signal jumps plus all
    observation candidates); step ``k`` runs from node ``k`` to ``k+1``.
    ``step_kind[k]`` is 0 for a continuous step, 1 for a signal jump and 2
    for an observation candidate (see ``step_accepted``).  ``dB``/``dW``
    rows are zero on event steps.  ``obs_candidates`` lists the candidate
    ``JumpEvent``s in time order, each with its thinning outcome written
    onto ``accepted``.
    """

    base_grid: TimeGrid
    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    dB: np.ndarray
    dW: np.ndarray
    base_mask: np.ndarray
    step_kind: np.ndarray
    step_accepted: np.ndarray
    step_mark: np.ndarray          # (K, max mark dim), zero-padded
    obs_candidates: list
    seed: int
    marks2: np.ndarray

    def dt(self):
        return np.diff(self.t)

    def event_steps(self, kind, accepted_only=False):
        idx = np.flatnonzero(self.step_kind == kind)
        if accepted_only:
            idx = idx[self.step_accepted[idx]]
        return idx


@dataclass
class ObservationRecord:
    """Exactly the information the filter is allowed to see.

    Grid = base nodes plus duplicated nodes at accepted observation jumps;
    the signal path, its Brownian drivers and the rejected candidates are
    all stripped out.  Jump j is the zero-length step ``event_steps[j]``,
    at time ``t[event_steps[j]]``, with mark ``event_marks[j]``; the steps
    ascend.
    """

    base_grid: TimeGrid
    t: np.ndarray
    Y: np.ndarray
    event_steps: np.ndarray        # (E,)
    event_marks: np.ndarray        # (E, k2)
    marks2: np.ndarray
    source_seed: int = 0

    def dt(self):
        return np.diff(self.t)

    def is_jump(self):
        """Whether each step is a jump step, (K,)."""
        is_jump = np.zeros(len(self.t) - 1, bool)
        is_jump[self.event_steps] = True
        return is_jump


def _merged_grid(base, times):
    """Base nodes plus a duplicated node at each sorted event time: the
    nodes, their base-node flags and each event's (zero-length) step."""
    node_t = [base[0]]
    base_flag = [True]
    event_steps = []
    bi = 1
    for t in times:
        while bi < len(base) and base[bi] <= t:
            node_t.append(base[bi])
            base_flag.append(True)
            bi += 1
        if t > node_t[-1]:
            node_t.append(t)
            base_flag.append(False)
        event_steps.append(len(node_t) - 1)
        node_t.append(t)
        base_flag.append(False)
    node_t.extend(base[bi:])
    base_flag.extend([True] * (len(base) - bi))
    return (np.asarray(node_t), np.asarray(base_flag, bool),
            np.asarray(event_steps, dtype=int))


def simulate_path(spec, grid, x0_sampler, y0, rng_seed):
    """Simulate one signal/observation pair under the physical dynamics.

    All randomness derives from labeled substreams of ``rng_seed``:
    initial state, two Poisson streams, thinning uniforms and the Brownian
    increments.  Raises DivergenceError when a state leaves the ball of
    radius ``MAX_NORM`` and ModelViolationError when lam leaves (0, 1).
    """
    n, m, d = spec.n, spec.m, spec.d
    # a batch of one path, as propagation steps batches
    x = np.asarray(x0_sampler(substream(rng_seed, "x0"), 1), float).reshape(1, n)
    y = np.asarray(y0, float).reshape(1, m).copy()

    sig_stream = sample_poisson_stream(
        spec.nu1, grid.t0, grid.t1, derive_seed(rng_seed, "signal-jumps"),
        channel="signal")
    cand_stream = sample_poisson_stream(
        spec.nu2, grid.t0, grid.t1, derive_seed(rng_seed, "obs-candidates"),
        channel="observation")
    events = sorted(sig_stream + cand_stream, key=lambda e: e.t)

    node_t, base_mask, event_steps = _merged_grid(grid.nodes(),
                                                  [e.t for e in events])
    K = len(node_t) - 1
    dt_all = np.diff(node_t)
    event_at = dict(zip(event_steps.tolist(), events))

    gauss = substream(rng_seed, "brownian").standard_normal((K, d + m))
    thin_rng = substream(rng_seed, "obs-thinning")

    mark_dim = max(spec.nu1.dim, spec.nu2.dim, 1)
    X = np.empty((K + 1, n))
    Y = np.empty((K + 1, m))
    dB = np.zeros((K, d))
    dW = np.zeros((K, m))
    step_kind = np.zeros(K, dtype=np.int8)
    step_accepted = np.zeros(K, dtype=bool)
    step_mark = np.zeros((K, mark_dim))
    X[0], Y[0] = x[0], y[0]

    for k in range(K):
        t = node_t[k]
        dt = dt_all[k]
        ev = event_at.get(k)
        if ev is None:
            sq = np.sqrt(dt)
            dB[k] = gauss[k, :d] * sq
            dW[k] = gauss[k, d:] * sq
            x, y = physical_step(spec, t, x, y, dt, dB[k:k + 1], dW[k:k + 1])
        elif ev.channel == "signal":
            step_kind[k] = 1
            step_accepted[k] = True
            step_mark[k, :spec.nu1.dim] = ev.mark
            x = x + np.asarray(spec.f1(t, x, ev.mark[None]), float)
        else:
            step_kind[k] = 2
            step_mark[k, :spec.nu2.dim] = ev.mark
            ev.accepted = bool(thin(spec, t, x, ev.mark[None], thin_rng)[0][0])
            step_accepted[k] = ev.accepted
            if ev.accepted:
                y = y + np.asarray(spec.f2(t, y, ev.mark[None]), float)
        X[k + 1] = x[0]
        Y[k + 1] = y[0]
        norm = np.abs(np.append(x, y)).max()   # nan if any entry is nan
        if not norm <= MAX_NORM:
            raise DivergenceError(
                f"state norm {norm:.3e} exceeded {MAX_NORM:.3e} at step {k}, "
                f"t={node_t[k + 1]:g}")

    return PathRecord(grid, node_t, X, Y, dB, dW, base_mask, step_kind,
                      step_accepted, step_mark, cand_stream, int(rng_seed),
                      spec.nu2.marks)


def project_observation(record):
    """Strip a PathRecord down to what the filter may see.

    Keeps the base nodes and the duplicated nodes of accepted observation
    jumps; drops the signal path, Brownian increments, signal-jump nodes
    and rejected candidates.  Node values are copied bitwise.
    """
    keep = record.base_mask.copy()
    acc_steps = record.event_steps(2, accepted_only=True)
    keep[acc_steps] = True
    keep[acc_steps + 1] = True
    idx = np.flatnonzero(keep)
    k2 = record.marks2.shape[1]
    return ObservationRecord(record.base_grid, record.t[idx], record.Y[idx],
                             np.searchsorted(idx, acc_steps),
                             record.step_mark[acc_steps, :k2], record.marks2,
                             source_seed=record.seed)


def coarsen_observation(obs, factor):
    """Restrict an observation record to every ``factor``-th base node.

    Like ``project_observation`` this selects rows: every jump's pre- and
    post-jump nodes and every ``factor``-th of the remaining (base) nodes.
    The realization is unchanged — surviving base nodes keep their exact Y
    values and every accepted jump keeps its exact time and mark — so the
    same path can be filtered at two step sizes in refinement studies.
    """
    factor = int(factor)
    if factor < 1:
        raise ConfigError("coarsening factor must be a positive integer")
    if obs.base_grid.n_steps % factor != 0:
        raise ConfigError("coarsening factor must divide the base step count")
    keep = np.zeros(len(obs.t), dtype=bool)
    keep[obs.event_steps] = True
    keep[obs.event_steps + 1] = True
    fine_base = np.flatnonzero(~keep)
    if len(fine_base) != obs.base_grid.n_steps + 1:
        raise ConfigError("observation grid does not match its base grid")
    keep[fine_base[::factor]] = True
    idx = np.flatnonzero(keep)
    grid = TimeGrid(obs.base_grid.t0, obs.base_grid.t1,
                    obs.base_grid.n_steps // factor)
    return ObservationRecord(grid, obs.t[idx], obs.Y[idx],
                             np.searchsorted(idx, obs.event_steps),
                             obs.event_marks, obs.marks2,
                             source_seed=obs.source_seed)


# --- serialization -----------------------------------------------------------

def _fmt(v):
    return format(float(v), ".17g")


def write_observation(obs, path):
    """Each node's row as the csv module writes it, from one ``%`` string:
    floats as ``%.17g``, which reads back exactly, and CRLF line ends."""
    m = obs.Y.shape[1]
    md = obs.marks2.shape[1] if obs.marks2.size else 1
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        g = obs.base_grid
        w.writerow(["#meta", "m", m, "mark_dim", md, "seed", obs.source_seed,
                    "t0", _fmt(g.t0), "t1", _fmt(g.t1), "n_steps", g.n_steps,
                    "n_events", len(obs.event_steps)])
        w.writerow(["#marks2", *map(str, obs.marks2.shape)]
                   + [_fmt(v) for v in obs.marks2.ravel()])
        w.writerow(["t"] + [f"y_{i}" for i in range(m)]
                   + ["event_step", "event"] + [f"mark_{i}" for i in range(md)])
        node = "%.17g," * (1 + m)
        jump_row = node + "%d,1," + ",".join(["%.17g"] * md) + "\r\n"
        node_row = node + ",0," + "," * (md - 1) + "\r\n"
        marks = iter(obs.event_marks.tolist())
        for k, (jump, t, y) in enumerate(zip(np.append(obs.is_jump(), False),
                                             obs.t.tolist(), obs.Y.tolist())):
            fh.write(jump_row % (t, *y, k, *next(marks)) if jump
                     else node_row % (t, *y))
