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
from .families import build_family
from .filtering import ks_residual, zakai_filter
from .oracle import kalman_bucy
from .rng import derive_seed
from .simulate import coarsen_observation, project_observation, simulate_path
