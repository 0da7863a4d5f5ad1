"""Weighted-particle conditional distributions on an observation record.

The cloud propagates signal dynamics under the reference measure (shared
reconstructed Brownian driver, per-particle independent noise and signal
jumps) while each particle accumulates the likelihood weight.  Cloud
averages of the weights give the unnormalized conditional distribution;
softmax-normalized averages give the conditional law itself.  Residual
assemblers check both against their defining evolution equations using
moments recorded at every node during the run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DegeneracyError, ModelViolationError
from .girsanov import reconstruct_reference_drivers
from .model import signal_terms
from .propagation import (add_signal_jumps, lam_bar, log_weight_step,
                          reference_step)
from .rng import substream


MASS_FLOOR = 1e-300            # a smaller mean weight is a collapsed cloud

# mallopt parameters of glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@cache
def _keep_freed_heap():
    """Make glibc keep freed blocks of up to 32 MB in its heap for reuse.

    A node of `zakai_filter` can allocate and free several (N, M)
    temporaries of about 1 MB (N = 2000 particles, M = 64 frozen marks):
    lambda at every mark if lambda reads its mark, f1 if f1 reads x, and F
    at the jumped states for a test function of undeclared degree. Under
    glibc's default policy each of them is mapped and unmapped, or the
    freed top of the heap is handed back to the OS, and the next node
    faults the same pages in again. No bundled config forms such a grid,
    and on them the setting changes neither the time nor the minor page
    faults (mixed.cfg: about 0.6 s and 11 800 faults either way). A test
    function of undeclared degree forms one at every node: on a 2-vCPU VM,
    mixed.cfg with `test_functions = coord:0,quad,bump:0:1,hermite:2` took
    4.0 s with 14 000 faults with the setting and 8.0 s with 1.9 million
    without it, and the benchmark's jumps.cfg with `bump:0:1` on 2 workers
    5.5 s against 9.9 s. Fixed thresholds (32 MB is the largest mmap
    threshold glibc accepts) make the reuse independent of what the
    process allocated before. The setting holds for the whole process,
    which then keeps up to 64 MB of freed memory for reuse. Where mallopt
    does not exist, nothing changes.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def cloud_weights(logw):
    """The normalized weights of a cloud's log-weights, its log mass (the
    log of the mean weight) and its effective sample size (sum w)^2 /
    sum w^2, all read from exp(logw - max logw), formed once.  When the
    largest log-weight is not finite the weights are None, the log mass
    is that largest value less log N and the sample size is 0."""
    top = logw.max()
    if not np.isfinite(top):
        return None, top - np.log(len(logw)), 0.0
    e = np.exp(logw - top)
    total = e.sum()
    return (e / total, top + np.log(total) - np.log(len(logw)),
            float(total * total / (e * e).sum()))


def resample(x, w, log_mass, rng):
    """Systematic resampling of the particles x by their normalized weights
    w: the new states and log-weights, which keep the total unnormalized
    mass, exp(log_mass) times N."""
    N = x.shape[0]
    edges = np.cumsum(w)
    edges[-1] = 1.0
    points = (rng.uniform() + np.arange(N)) / N
    idx = np.searchsorted(edges, points, side="right")
    idx = np.minimum(idx, N - 1)
    return x[idx], np.full(N, float(log_mass))


@dataclass
class FunctionSummary:
    """Node-indexed conditional moments for one test function, and the
    observation gains they define."""

    name: str
    pi_F: np.ndarray           # pi(F), (K+1,)
    pi_LF: np.ndarray          # pi(LF), (K+1,)
    grad_coup: np.ndarray      # pi(grad F . coupling), (K+1, m)
    f_h: np.ndarray            # pi(F h), (K+1, m)
    pi_F_lambar: np.ndarray    # pi(F lambda-bar), (K+1,)
    jump_D: np.ndarray         # normalized jump update of pi(F), (K,)
    zakai_jump: np.ndarray     # unnormalized jump update, (K,)

    @classmethod
    def zeros(cls, name, K, m):
        """The summary of K steps (K + 1 nodes) before any is recorded."""
        return cls(name, np.zeros(K + 1), np.zeros(K + 1),
                   np.zeros((K + 1, m)), np.zeros((K + 1, m)),
                   np.zeros(K + 1), np.zeros(K), np.zeros(K))

    def zakai_gain(self):
        """The unnormalized moment's gain on dW at every node, (K+1, m)."""
        return self.grad_coup + self.f_h

    def ks_gain(self, pi_h):
        """The normalized moment's gain on dW - pi(h) dt, (K+1, m)."""
        return self.zakai_gain() - self.pi_F[:, None] * pi_h


@dataclass
class FilterTrajectory:
    """Filter output on the observation grid: masses, moments, drivers."""

    t: np.ndarray
    dt: np.ndarray
    dW: np.ndarray
    is_jump: np.ndarray
    log_mass: np.ndarray
    ess: np.ndarray
    pi_h: np.ndarray
    pi_lambar: np.ndarray
    rate2: float
    summaries: dict
    resampled: np.ndarray
    clouds: list | None = None  # (x, logw) at each node, if stored
    event_count: np.ndarray | None = None

    def mass(self):
        return np.exp(self.log_mass)

    def innovations(self):
        """dW - pi(h) dt at every step, (K, m)."""
        return self.dW - self.pi_h[:-1] * self.dt[:, None]


def zakai_filter(spec, obs, n_particles, prior_sampler, rng_seed, *,
                 test_functions=(), ess_fraction=0.5, store_clouds=False):
    """Propagate a weighted cloud along an observation record.

    Per continuous step every particle follows the reference-measure signal
    dynamics driven by the shared reconstructed Brownian increment plus its
    own independent noise and compensated jumps, and its log-weight gains
    h.dW - |h|^2 dt/2 + rate2 (1 - lambda_bar) dt.  Observation-jump steps
    multiply weights by lambda(t, x-, u); a mean weight below
    ``MASS_FLOOR`` is a DegeneracyError.  Node moments for the requested
    test functions are recorded before each step (left-endpoint convention)
    so the residual assemblers can telescope them afterwards.

    An observation-jump step keeps t and moves no particle, so the node
    after it reuses every term that reads x alone (lambda-bar, the signal's
    terms and each F, grad F . coupling, LF and F lambda-bar) unless it
    resampled; only h, which reads y, and the weighted reductions are
    formed again.  The signal's terms that read no state are kept on the
    spec from node to node while their inputs keep their bytes
    (``model.keep``).
    """
    _keep_freed_heap()
    dW_all = reconstruct_reference_drivers(obs, spec)
    N = int(n_particles)
    n, m = spec.n, spec.m
    K = len(obs.t) - 1
    x = np.asarray(prior_sampler(substream(rng_seed, "prior"), N), float).reshape(N, n)
    logw = np.zeros(N)
    rng_b = substream(rng_seed, "particle-brownian")
    rng_c = substream(rng_seed, "particle-jump-counts")
    rng_u = substream(rng_seed, "particle-jump-marks")
    is_jump = obs.is_jump()
    marks = iter(obs.event_marks)
    dt_all = obs.dt()
    sqrt_dt = np.sqrt(dt_all)

    funcs = list(test_functions)
    names = [F.name for F in funcs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate test function names")
    log_mass = np.zeros(K + 1)
    ess_arr = np.zeros(K + 1)
    pi_h = np.zeros((K + 1, m))
    pi_lambar = np.ones(K + 1)
    resampled = np.zeros(K + 1, bool)
    summ = {name: FunctionSummary.zeros(name, K, m) for name in names}
    clouds = [] if store_clouds else None
    log_floor = np.log(MASS_FLOOR)
    rate2 = spec.nu2.rate
    marks1 = spec.nu1.marks

    terms = None     # (summary, F, grad F . coupling, LF, F lambda-bar) of
                     # each test function on the cloud x at time t
    for k in range(K + 1):
        t = obs.t[k]
        w, mass, ess = cloud_weights(logw)
        if not np.isfinite(mass) or mass < log_floor:
            raise DegeneracyError(
                f"unnormalized mass collapsed at t={t:g} (log mass {mass:.3g})")
        if 0 < k < K and ess_fraction > 0.0 and ess < ess_fraction * N:
            x, logw = resample(x, w, mass,
                               substream(rng_seed, f"resample-{k}"))
            resampled[k] = True
            w, mass, ess = cloud_weights(logw)
            terms = None
        if terms is None:
            lam_bar_x = lam_bar(spec, t, x)
            signal = signal_terms(spec, t, x, marks1)
            terms = []
            for F in funcs:
                value = np.asarray(F.value(x), float).reshape(N)
                grad = np.asarray(F.grad(x), float).reshape(N, n)
                terms.append((
                    summ[F.name], value,
                    np.einsum("...n,...nm->...m", grad, signal.on_W),
                    signal.generator(F, value, grad),
                    None if lam_bar_x is None else value * lam_bar_x))

        # the moments of node k
        log_mass[k] = mass
        ess_arr[k] = ess
        hv = np.asarray(spec.h(t, x, obs.Y[k]), float).reshape(N, m)
        pi_h[k] = w @ hv
        if lam_bar_x is not None:
            pi_lambar[k] = float(w @ lam_bar_x)
        for s, value, grad_coup, generator, value_lam in terms:
            pi_F = s.pi_F[k] = float(w @ value)
            s.pi_LF[k] = float(w @ generator)
            s.grad_coup[k] = w @ grad_coup
            s.f_h[k] = w @ (value[:, None] * hv)
            s.pi_F_lambar[k] = (pi_F if value_lam is None
                                else float(w @ value_lam))
        if store_clouds:
            clouds.append((x.copy(), logw.copy()))
        if k == K:
            break

        # the step from node k
        if is_jump[k]:
            lam = spec.acceptance(t, x, next(marks)).reshape(N)
            b = float(w @ lam)
            if b < spec.iota:
                raise ModelViolationError(
                    f"conditional intensity {b:.3g} below floor {spec.iota:g} "
                    f"at t={t:g}")
            mass_left = np.exp(log_mass[k])
            for s, value, *_ in terms:
                a = float(w @ (value * lam))
                s.jump_D[k] = a / b - s.pi_F[k]
                s.zakai_jump[k] = mass_left * (a - s.pi_F[k])
            logw = logw + np.log(lam)
        else:
            dt = dt_all[k]
            dW = dW_all[k]
            logw = log_weight_step(logw, hv, dW, dt, rate2, lam_bar_x)
            dB = rng_b.standard_normal((N, spec.d)) * sqrt_dt[k]
            x = reference_step(signal, dt, dW, dB, hv)
            x = add_signal_jumps(spec, t, x, dt, rng_c, rng_u)
            terms = None

    return FilterTrajectory(
        t=obs.t.copy(), dt=dt_all, dW=dW_all, is_jump=is_jump,
        log_mass=log_mass, ess=ess_arr, pi_h=pi_h, pi_lambar=pi_lambar,
        rate2=rate2, summaries=summ, resampled=resampled,
        clouds=clouds, event_count=np.concatenate(
            ([0.0], np.cumsum(is_jump, dtype=float))))


def _running_sum(inc):
    """0 and the partial sums of inc, added in step order from 0.0, (K+1,)."""
    return np.cumsum(np.concatenate(([0.0], inc)))


def ks_residual(traj, name):
    """Defect of the normalized moment path against its evolution equation.

    Returns the cumulative residual at every node; the value at node k is
    pi_k(F) - pi_0(F) minus the discretized drift, innovation-gain, and
    compensated-jump terms accumulated over steps 0..k-1.
    """
    s = traj.summaries[name]
    inc = s.pi_LF[:-1] * traj.dt + np.einsum(
        "km,km->k", s.ks_gain(traj.pi_h)[:-1], traj.innovations())
    if traj.rate2 > 0.0:
        inc = inc - traj.dt * traj.rate2 * (
            s.pi_F_lambar[:-1] - s.pi_F[:-1] * traj.pi_lambar[:-1])
    inc = np.where(traj.is_jump, s.jump_D, inc)
    return s.pi_F - s.pi_F[0] - _running_sum(inc)


def zakai_residual(traj, name):
    """Defect of the unnormalized moment path against its evolution equation."""
    s = traj.summaries[name]
    mass = traj.mass()
    inc = mass[:-1] * (s.pi_LF[:-1] * traj.dt
                       + np.einsum("km,km->k", s.zakai_gain()[:-1], traj.dW))
    if traj.rate2 > 0.0:
        inc = inc - traj.dt * traj.rate2 * mass[:-1] * (
            s.pi_F_lambar[:-1] - s.pi_F[:-1])
    inc = np.where(traj.is_jump, s.zakai_jump, inc)
    return mass * s.pi_F - mass[0] * s.pi_F[0] - _running_sum(inc)


@dataclass
class InnovationRecord:
    """Innovation increments and compensated observation-jump count."""

    t: np.ndarray
    dW_bar: np.ndarray
    continuous: np.ndarray
    jump_compensated: np.ndarray


def innovation_process(traj):
    """Observation drivers with the filter's predictions removed.

    On continuous steps dW_bar = dW - pi(h) dt, a Brownian increment under
    the physical law when the filter is consistent; the compensated count
    subtracts rate2 * pi(lambda_bar) dt from the running jump count.
    """
    cont = ~traj.is_jump
    dW_bar = np.where(cont[:, None], traj.innovations(), 0.0)
    inc = np.where(cont, -(traj.rate2 * traj.pi_lambar[:-1] * traj.dt), 1.0)
    return InnovationRecord(traj.t.copy(), dW_bar, cont, _running_sum(inc))


def write_trajectory_csv(traj, path):
    """A header, then one row per node: each float as ``%.17g``, which
    reads back exactly, ``resampled`` as 0 or 1, and the csv module's
    CRLF line ends."""
    names = list(traj.summaries)
    table = np.column_stack(
        [traj.t, traj.log_mass, traj.ess, traj.resampled, traj.pi_h,
         traj.pi_lambar] + [traj.summaries[name].pi_F for name in names])
    row = ",".join(["%.17g"] * 3 + ["%d"]
                   + ["%.17g"] * (table.shape[1] - 4)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["t", "log_mass", "ess", "resampled"]
            + [f"pi_h_{l}" for l in range(traj.pi_h.shape[1])]
            + ["pi_lambda_bar"] + [f"pi_{name}" for name in names])
        for r in table:
            fh.write(row % tuple(r.tolist()))
