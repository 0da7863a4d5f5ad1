"""Gaussian smoothing of discrete measures and the induced energy metric.

A weighted particle set is turned into a smooth density by convolving
with the Gaussian kernel of bandwidth eps,

    (S_eps mu)(x) = sum_k w_k (2 pi eps)^(-n/2) exp(-|x - x_k|^2 / (2 eps)),

and distances between particle sets are L2 distances between the
smoothed densities.  All integrals run over tensor trapezoid grids with
spacing sqrt(eps)/8 and padding 8 sqrt(eps), which keeps both the
truncation and the discretization error far below the tolerances used in
the checks (the kernel is entire, so trapezoid converges spectrally).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .filtering import cloud_weights

PAD_MULT = 8.0
SPACING_DIV = 8.0
MAX_NODES = 2 ** 22
CHUNK = 1 << 14          # grid nodes smoothed per block
SKIP_FRAC = 0.1          # share of the span before growth rates are read


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product trapezoid rule over a box."""

    axes: tuple

    @property
    def dim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @property
    def n_nodes(self):
        out = 1
        for a in self.axes:
            out *= len(a)
        return out

    def axis_weights(self, i):
        a = self.axes[i]
        if len(a) == 1:
            return np.ones(1)
        dx = a[1] - a[0]
        w = np.full(len(a), dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def nodes(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def weights(self):
        w = self.axis_weights(0)
        for i in range(1, self.dim):
            w = np.multiply.outer(w, self.axis_weights(i))
        return w.ravel()


def build_grid(lo, hi, spacing):
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ConfigError("grid bounds must satisfy lo < hi componentwise")
    axes = []
    total = 1
    for a, b in zip(lo, hi):
        count = int(np.ceil((b - a) / spacing)) + 1
        total *= count
        if total > MAX_NODES:
            raise ConfigError(
                f"quadrature grid would need more than {MAX_NODES} nodes; "
                "increase eps or shrink the domain")
        axes.append(a + (b - a) * np.arange(count) / (count - 1))
    return QuadratureGrid(tuple(np.asarray(a) for a in axes))


def auto_grid(points, eps):
    """Grid covering the points with the standard padding and spacing."""
    pts = np.atleast_2d(np.asarray(points, float))
    root = np.sqrt(eps)
    lo = pts.min(axis=0) - PAD_MULT * root
    hi = pts.max(axis=0) + PAD_MULT * root
    return build_grid(lo, hi, root / SPACING_DIV)


@dataclass
class MollifierField:
    """Smoothed density sampled on a quadrature grid."""

    eps: float
    grid: QuadratureGrid
    values: np.ndarray


def mollified_density(points, weights, eps, x):
    """Evaluate the smoothed density at arbitrary locations (no grid)."""
    pts = np.atleast_2d(np.asarray(points, float))
    w = np.asarray(weights, float).reshape(pts.shape[0])
    x = np.atleast_2d(np.asarray(x, float))
    n = pts.shape[1]
    d2 = np.sum((x[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    norm = (2.0 * np.pi * eps) ** (-0.5 * n)
    return norm * (np.exp(-d2 / (2.0 * eps)) @ w)


def mollify_measure(points, weights, eps, grid=None):
    """Smooth a weighted particle set onto a quadrature grid."""
    if eps <= 0.0:
        raise ConfigError(f"bandwidth must be positive, got {eps!r}")
    pts = np.atleast_2d(np.asarray(points, float))
    if grid is None:
        grid = auto_grid(pts, eps)
    if grid.dim != pts.shape[1]:
        raise ConfigError("grid dimension does not match the points")
    nodes = grid.nodes()
    vals = np.empty(nodes.shape[0])
    for start in range(0, nodes.shape[0], CHUNK):
        block = nodes[start:start + CHUNK]
        vals[start:start + CHUNK] = mollified_density(pts, weights, eps, block)
    return MollifierField(eps, grid, vals)


def _heat_apply(grid, values, delta):
    """Apply the Gaussian convolution axis by axis (separable kernel), each
    axis a kernel matrix with the grid's trapezoid weights."""
    v = np.asarray(values, float).reshape(grid.shape)
    for i, axis in enumerate(grid.axes):
        diff = axis[:, None] - axis[None, :]
        K = ((2.0 * np.pi * delta) ** -0.5
             * np.exp(-diff * diff / (2.0 * delta))
             * grid.axis_weights(i)[None, :])
        v = np.moveaxis(np.tensordot(K, np.moveaxis(v, i, 0), axes=(1, 0)), 0, i)
    return v.ravel()


def h_norm(field):
    """Squared L2 norm of a smoothed density (scales as c^2 in the weights)."""
    return float(field.grid.weights() @ (field.values * field.values))


def energy_distance(points_a, weights_a, points_b, weights_b, eps, grid=None):
    """L2 distance between the smoothed versions of two weighted point sets.

    The two measures are smoothed separately on a shared grid and the
    fields subtracted, so identical inputs cancel exactly and the distance
    is zero bitwise rather than summation-order rounding noise.
    """
    pa = np.atleast_2d(np.asarray(points_a, float))
    pb = np.atleast_2d(np.asarray(points_b, float))
    wa = np.asarray(weights_a, float).reshape(pa.shape[0])
    wb = np.asarray(weights_b, float).reshape(pb.shape[0])
    if grid is None:
        grid = auto_grid(np.concatenate([pa, pb], axis=0), eps)
    fa = mollify_measure(pa, wa, eps, grid=grid)
    fb = mollify_measure(pb, wb, eps, grid=grid)
    field = MollifierField(eps, grid, fa.values - fb.values)
    return float(np.sqrt(max(h_norm(field), 0.0)))


def smoothing_checks(points, weights, eps, F):
    """Quadrature-level gaps for three kernel identities.

    adjoint:    <S_eps mu, F>  vs  sum_k w_k (S_eps F)(x_k)
    contraction: growth of ||S_(2 eps) mu||^2 over ||S_eps mu||^2 (<= 0 exactly)
    semigroup:  sup |S_eps(S_eps mu) - S_(2 eps) mu| on the wide grid
    """
    pts = np.atleast_2d(np.asarray(points, float))
    w = np.asarray(weights, float).reshape(pts.shape[0])
    root = np.sqrt(eps)
    wide = build_grid(pts.min(axis=0) - 2 * PAD_MULT * root,
                      pts.max(axis=0) + 2 * PAD_MULT * root,
                      root / SPACING_DIV)

    field = mollify_measure(pts, w, eps, grid=wide)
    fn = getattr(F, "value", F)
    fv = np.asarray(fn(wide.nodes()), float).reshape(wide.n_nodes)
    lhs = float(wide.weights() @ (field.values * fv))
    kern_w = mollified_density(wide.nodes(), wide.weights() * fv, eps, pts)
    rhs = float(w @ kern_w)
    adjoint = abs(lhs - rhs)

    n2 = h_norm(mollify_measure(pts, w, 2.0 * eps))
    n1 = h_norm(mollify_measure(pts, w, eps))
    contraction = max(0.0, n2 - n1)

    composed = _heat_apply(wide, field.values, eps)
    direct = mollify_measure(pts, w, 2.0 * eps, grid=wide).values
    semigroup = float(np.max(np.abs(composed - direct)))

    return {"adjoint": adjoint, "contraction": contraction,
            "semigroup": semigroup}


def energy_trajectory(traj, eps):
    """Squared H-norm of the mollified unnormalized cloud at every node.

    ``traj`` must have been produced with ``store_clouds=True``; the weights
    enter mass-scaled, so the curve tracks both the spread of the cloud and
    the drift of the total unnormalized mass.  One shared quadrature grid is
    used for all nodes so values are comparable along the trajectory.
    """
    if not traj.clouds:
        raise ConfigError("trajectory carries no clouds; "
                          "run the filter with store_clouds=True")
    grid = auto_grid(np.concatenate([x for x, _ in traj.clouds]), eps)
    out = np.empty(len(traj.clouds))
    for k, (x, logw) in enumerate(traj.clouds):
        w, log_mass, _ = cloud_weights(logw)
        w = w * np.exp(log_mass)
        out[k] = h_norm(mollify_measure(x, w, eps, grid=grid))
    return out


def gronwall_constant(times, energies):
    """Smallest exponential rate bounding the energy growth from its start.

    Returns max over t beyond the initial skip window of
    log(E_t / E_0) / (t - t_0); finite whenever E stays positive.
    """
    t = np.asarray(times, float)
    E = np.asarray(energies, float)
    if E[0] <= 0.0:
        raise ConfigError("initial energy must be positive for a growth rate")
    span = t[-1] - t[0]
    mask = t >= t[0] + SKIP_FRAC * span
    mask[0] = False
    if not np.any(mask):
        raise ConfigError("no nodes beyond the skip window")
    rates = np.log(E[mask] / E[0]) / (t[mask] - t[0])
    return float(np.max(rates))
