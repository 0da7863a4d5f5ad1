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
from functools import cache, cached_property

import numpy as np

from .errors import DegeneracyError, ModelViolationError
from .girsanov import reconstruct_reference_drivers
from .model import SignalTerms, signal_terms
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


class ShiftedWeights:
    """exp(logw - max logw) over a cloud, computed once: the log mass, the
    effective sample size and the normalized weights are all read from it.
    The exponentials are not formed when the largest log-weight is not
    finite."""

    def __init__(self, logw):
        self.n = len(logw)
        self.max = np.max(logw)
        self.e = np.exp(logw - self.max) if np.isfinite(self.max) else None
        self.sum = None if self.e is None else self.e.sum()

    def log_mass(self):
        """log of the mean weight: log-sum-exp of logw less log N."""
        lse = self.max if self.e is None else self.max + np.log(self.sum)
        return lse - np.log(self.n)

    @cached_property
    def ess(self):
        """(sum w)^2 / sum w^2; zero when the largest log-weight is not finite."""
        if self.e is None:
            return 0.0
        return float(self.sum * self.sum / np.sum(self.e * self.e))

    def normalized(self):
        return self.e / self.sum


def resample(x, weights, rng):
    """Systematic resampling of the particles x, weighted by ``weights``
    (their ShiftedWeights): the new states and log-weights, which keep the
    total unnormalized mass."""
    N = x.shape[0]
    edges = np.cumsum(weights.normalized())
    edges[-1] = 1.0
    points = (rng.uniform() + np.arange(N)) / N
    idx = np.searchsorted(edges, points, side="right")
    idx = np.minimum(idx, N - 1)
    return x[idx], np.full(N, float(weights.log_mass()))


@dataclass
class FunctionTerms:
    """One test function's per-particle terms on a cloud; they read the
    states alone."""

    value: np.ndarray            # F, (N,)
    grad_coup: np.ndarray        # grad F . coupling, (N, m)
    generator: np.ndarray        # LF, (N,)
    lam_bar: np.ndarray | None   # F lambda-bar, (N,); None without
                                 # observation jumps


def function_terms(F, x, signal, coup, lam_bar_x):
    """F's terms on the states x (N, n), given the signal's terms on them
    (``model.SignalTerms``), the coupling, shared (n, m) or per state
    (N, n, m), and lambda-bar (N,) or None."""
    N, n = x.shape
    value = np.asarray(F.value(x), float).reshape(N)
    grad = np.asarray(F.grad(x), float).reshape(N, n)
    return FunctionTerms(
        value, np.einsum("...n,...nm->...m", grad, coup),
        signal.generator(F, value, grad),
        None if lam_bar_x is None else value * lam_bar_x)


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

    def record(self, k, w, terms, h):
        """Write node k's weighted means of F's ``FunctionTerms``, from the
        normalized weights w (N,) and the sensor function h (N, m)."""
        self.pi_F[k] = float(w @ terms.value)
        self.pi_LF[k] = float(w @ terms.generator)
        self.grad_coup[k] = w @ terms.grad_coup
        self.f_h[k] = w @ (terms.value[:, None] * h)
        self.pi_F_lambar[k] = (self.pi_F[k] if terms.lam_bar is None
                               else float(w @ terms.lam_bar))

    def zakai_gain(self):
        """The unnormalized moment's gain on dW at every node, (K+1, m)."""
        return self.grad_coup + self.f_h

    def ks_gain(self, pi_h):
        """The normalized moment's gain on dW - pi(h) dt, (K+1, m)."""
        return self.zakai_gain() - self.pi_F[:, None] * pi_h


@dataclass
class NodeTerms:
    """The per-particle terms at a node that read the states alone,
    evaluated once on the cloud and shared by the moment recording and the
    step that follows it."""

    lam_bar: np.ndarray | None   # mark mean of lambda, (N,); None without
                                 # observation jumps
    coup: np.ndarray             # driver coupling sigma1: shared (n, m)
                                 # when sigma1 ignores x, else (N, n, m)
    signal: SignalTerms          # b1, a, f1 displacement and compensator
    functions: dict              # test-function name -> FunctionTerms


def node_terms(spec, t, x, funcs):
    """Evaluate a cloud's ``NodeTerms`` at time t."""
    lam_bar_x = lam_bar(spec, t, x)
    coup = np.asarray(spec.sigma1(t, x), float)
    signal = signal_terms(spec, t, x, spec.nu1.marks)
    return NodeTerms(lam_bar_x, coup, signal,
                     {F.name: function_terms(F, x, signal, coup, lam_bar_x)
                      for F in funcs})


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
    after it reuses every term that reads x alone (``NodeTerms``: lambda-bar,
    the coupling, the signal's terms and each F, grad F . coupling, LF and
    F lambda-bar) unless it resampled; only h, which reads y, and the
    weighted reductions are formed again.
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
    event_count = np.zeros(K + 1)

    def record_node(k, t, y, weights, node):
        """Record the moments of node k; returns the normalized weights and
        h on the cloud."""
        mass = weights.log_mass()
        if not np.isfinite(mass) or mass < np.log(MASS_FLOOR):
            raise DegeneracyError(
                f"unnormalized mass collapsed at t={t:g} (log mass {mass:.3g})")
        log_mass[k] = mass
        ess_arr[k] = weights.ess
        w = weights.normalized()
        hv = np.asarray(spec.h(t, x, y), float).reshape(N, m)
        pi_h[k] = w @ hv
        if node.lam_bar is not None:
            pi_lambar[k] = float(w @ node.lam_bar)
        for name, terms in node.functions.items():
            summ[name].record(k, w, terms, hv)
        if store_clouds:
            clouds.append((x.copy(), logw.copy()))
        return w, hv

    node = None                  # NodeTerms of the cloud x at time t
    for k in range(K):
        t = obs.t[k]
        y = obs.Y[k]
        weights = ShiftedWeights(logw)
        if k > 0 and ess_fraction > 0.0 and weights.ess < ess_fraction * N:
            x, logw = resample(x, weights,
                               substream(rng_seed, f"resample-{k}"))
            resampled[k] = True
            weights = ShiftedWeights(logw)
            node = None
        if node is None:
            node = node_terms(spec, t, x, funcs)
        w, hv = record_node(k, t, y, weights, node)
        event_count[k + 1] = event_count[k]
        if is_jump[k]:
            u = next(marks)
            lam = spec.acceptance(t, x, u).reshape(N)
            b = float(w @ lam)
            if b < spec.iota:
                raise ModelViolationError(
                    f"conditional intensity {b:.3g} below floor {spec.iota:g} "
                    f"at t={t:g}")
            mass_left = np.exp(log_mass[k])
            for name, terms in node.functions.items():
                s = summ[name]
                a = float(w @ (terms.value * lam))
                s.jump_D[k] = a / b - s.pi_F[k]
                s.zakai_jump[k] = mass_left * (a - s.pi_F[k])
            logw = logw + np.log(lam)
            event_count[k + 1] += 1.0
        else:
            dt = dt_all[k]
            dW = dW_all[k]
            logw = log_weight_step(logw, hv, dW, dt, spec.nu2.rate,
                                   node.lam_bar)
            dB = rng_b.standard_normal((N, spec.d)) * np.sqrt(dt)
            x = reference_step(spec, node.signal, node.coup, dt, dW, dB, hv)
            x = add_signal_jumps(spec, t, x, dt, rng_c, rng_u)
            node = None
    if node is None:
        node = node_terms(spec, obs.t[K], x, funcs)
    record_node(K, obs.t[K], obs.Y[K], ShiftedWeights(logw), node)

    return FilterTrajectory(
        t=obs.t.copy(), dt=dt_all, dW=dW_all, is_jump=is_jump,
        log_mass=log_mass, ess=ess_arr, pi_h=pi_h, pi_lambar=pi_lambar,
        rate2=spec.nu2.rate, summaries=summ, resampled=resampled,
        clouds=clouds, event_count=event_count)


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
    names = list(traj.summaries)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["t", "log_mass", "ess", "resampled"]
        header += [f"pi_h_{l}" for l in range(traj.pi_h.shape[1])]
        header += ["pi_lambda_bar"]
        header += [f"pi_{name}" for name in names]
        w.writerow(header)
        for k in range(len(traj.t)):
            row = [format(traj.t[k], ".17g"), format(traj.log_mass[k], ".17g"),
                   format(traj.ess[k], ".17g"), int(traj.resampled[k])]
            row += [format(v, ".17g") for v in traj.pi_h[k]]
            row += [format(traj.pi_lambar[k], ".17g")]
            row += [format(traj.summaries[name].pi_F[k], ".17g")
                    for name in names]
            w.writerow(row)
