"""Particle filtering for jump diffusions whose observation shares
Brownian and jump structure with the signal.

The package simulates coupled signal/observation systems, reweights
reference-measure particle clouds into unnormalized and normalized
conditional distributions, and checks both against their evolution
equations, against Gaussian-smoothed energy estimates, and against
closed-form or brute-force references.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegeneracyError, DivergenceError,
                     InvertibilityError, LevyFilterError, ModelViolationError,
                     NumericOverflowError, ReplayMismatchError)

# The public functions, each imported from its module on first use, so that
# `import levyfilter` loads no module a command does not call.
_LAZY = {
    "build_family": "families",
    "ks_residual": "filtering",
    "zakai_filter": "filtering",
    "kalman_bucy": "oracle",
    "derive_seed": "rng",
    "coarsen_observation": "simulate",
    "project_observation": "simulate",
    "simulate_path": "simulate",
}


def __getattr__(name):
    # an AttributeError, not a KeyError, lets `from levyfilter import cli`
    # fall through to importing the submodule
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
