"""levyfield: simulate and verify heat/wave equations driven by jump noise.

The package samples finite-activity Poisson noise configurations, solves the
mild-solution equation pathwise (exact forward substitution and Picard
iteration), differentiates path functionals by adding one atom, and checks
the resulting identities (isometry, chain rule, duality, the derivative
fixed-point equation, renewal-convolution bounds) numerically with explicit
tolerances and seeds.
"""

from .gronwall import (ConvolutionKernel, GronwallError, equality_sequence,
                       renewal_probabilities, summability_check,
                       verify_bound)
from .harness import (ConfigError, EnsembleError, RunConfig, build_config,
                      build_measure, build_problem, build_window,
                      parse_config_file, solution_squares)
from .integrals import (Integrand, IntegrandError, MissingFieldError,
                        box_indicator, check_square_integrable,
                        inner_product, integrand, isometry_test,
                        ito_integrals, window_integral, window_sq_integral)
from .kernels import (GreenKernel, H2Report, KernelError, check_h2,
                      heat_kernel, wave_kernel)
from .malliavin import (DerivativePoint, MalliavinError, PathFunctional,
                        chain_rule_rows, derivative_bound_estimate,
                        derivative_equation_rows, difference_derivative,
                        duality_test, exp_derivative_rows,
                        picard_derivative_rows, solution_functional)
from .noise import (LevyMeasure, NoiseError, PointBatch, SpaceTimeWindow,
                    add_atoms, atomic_decomposition, derive_rng,
                    discrete_measure, gaussian_measure, load_configuration,
                    moments, rademacher, sample_batch, sample_batches,
                    sample_prm, save_configuration,
                    truncated_power_law_measure, two_point_measure)
from .reporting import CheckRow, EstimatorSummary, studentize, summarize
from .solver import (ExistenceReport, ProblemSpec, ScalarMap, SolutionPath,
                     SolverError, affine_map, constant_map, custom_map,
                     deterministic_part, evaluate_batch, evaluate_solution,
                     existence_diagnostics, mild_residual, named_map,
                     picard_solve, solve_batch, solve_forward)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
