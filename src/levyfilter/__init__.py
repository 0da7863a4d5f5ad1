"""Particle filtering for jump diffusions whose observation shares
Brownian and jump structure with the signal.

The package simulates coupled signal/observation systems, reweights
reference-measure particle clouds into unnormalized and normalized
conditional distributions, and checks both against their evolution
equations, against Gaussian-smoothed energy estimates, and against
closed-form or brute-force references.
"""

__version__ = "0.1.0"

from .config import ScenarioConfig, config_to_text, parse_config, parse_config_file
from .errors import (ConfigError, DegeneracyError, DivergenceError,
                     InvertibilityError, LevyFilterError, ModelViolationError,
                     NumericOverflowError, ReplayMismatchError)
from .families import FAMILIES, Scenario, build_family, list_families
from .filtering import (FilterTrajectory, ParticleCloud, ResamplePolicy,
                        estimate_moment, gain_terms, innovation_process,
                        ks_residual, normalize_cloud,
                        pathwise_uniqueness_probe, resample, zakai_filter,
                        zakai_residual)
from .girsanov import (LikelihoodPath, ReferenceDrivers, log_lambda_inverse,
                       reconstruct_reference_drivers, resynthesize_observation,
                       sample_model_log_inverse_weights,
                       sample_reference_log_weights)
from .levy import (JumpEvent, JumpStream, compensator_integral,
                   sample_poisson_stream)
from .model import (LevyMeasureSpec, SystemSpec, generator_values,
                    validate_hypotheses)
from .mollify import (MollifierField, QuadratureGrid, auto_grid, build_grid,
                      energy_distance, energy_trajectory, energy_gap_trajectory,
                      gronwall_constant,
                      h_norm, mollified_density, mollify_function,
                      mollify_measure, smoothing_checks)
from .oracle import (KalmanResult, LinearSpec, OracleEstimate, kalman_bucy,
                     mc_conditional_oracle, stationary_covariance)
from .rng import derive_seed, substream
from .simulate import (ObservationRecord, PathRecord, TimeGrid,
                       coarsen_observation, project_observation,
                       read_observation, simulate_path, write_observation)
from .testfuncs import (TestFunction, bump, constant, coordinate,
                        hermite_window, make_test_function, quadratic)
