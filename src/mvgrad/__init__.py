"""Particle-system simulation and Monte Carlo measure-derivative estimation.

The package simulates interacting particle systems whose drift depends on
the empirical law of the system, integrates the associated variational
(tangent) flows, and assembles stochastic-integral weights into estimators
for derivatives of expectation functionals, both in a starting point and
along perturbations of the initial law.  A verification layer cross-checks
every estimator against common-random-number finite differences, the exact
derivative of affine flows at the sampled cloud, and empirical stability and
moment bounds.
"""

__version__ = "0.1.0"

from .bismut import (BetaInvarianceReport, Estimate, beta_invariance_check,
                     dual_norm_lower_bound, estimate_classical,
                     estimate_intrinsic, weight_frozen, weight_meanfield)
from .errors import (ConfigError, GridMismatch, MeasureDependence,
                     MemoryBudgetExceeded, MissingGradSigma, MVGradError,
                     NonFinite, ScheduleMismatch, SingularDiffusion, SizeCap,
                     UnequalSupport, UnknownFamily, UnsupportedScenario)
from .measure import (EmpiricalMeasure, TransportPlan, lk_norm, pushforward,
                      sample_initial, wasserstein)
from .model import (BismutSchedule, CylindricalDrift, Diffusion, ModelSpec,
                    Observable, PerturbationField, SingularDrift,
                    linear_schedule, quadratic_schedule, schedule_by_name,
                    sine_schedule, validate_ellipticity, zeta)
from .oracle import (MomentReport, StabilityReport, affine_reference,
                     finite_difference_intrinsic, fit_loglog_slope,
                     moment_report, richardson_intrinsic, stability_report,
                     tv_gradient_scaling, tv_sign_reference)
from .scenarios import (Scenario, all_scenarios, build_family, get_scenario,
                        scenario_names)
from .simulate import (ParticlePaths, TimeGrid, brownian_increments,
                       particle_increments, simulate_particles)
from .tangent import cylindrical_coupling, frozen_tangent, meanfield_tangent
