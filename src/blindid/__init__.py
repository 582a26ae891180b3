"""Numerical laboratory for identifiability and stability of lifted blind
deconvolution: measurement operators, closed-form bounds, desk-scale solvers
and certifiers, and seeded Monte-Carlo experiments."""

from .bounds import (constant_C, covering_bound, epsilon_of_delta,
                     failure_prob_bound, make_report, minkowski_dim_upper,
                     sample_complexity_d, small_ball_bound, snr_metrics,
                     volume_complex_ball, volume_real_ball)
from .ensembles import (COMPLEX_GENERIC, COMPLEX_UNIFORM_BALL, REAL_GENERIC,
                        REAL_UNIFORM_BALL, ConstraintScenario, Ensemble,
                        ScenarioError, build_ensemble, mix_seed,
                        sample_uniform_complex_ball_batch,
                        sample_uniform_real_ball_batch)
from .lifting import (LiftedMatrix, apply_A, apply_G,
                      calibrated_isometry_radius, mean_isometry_radius,
                      operator_matrix)
from .mc import (STABILITY_COLUMNS, TRANSITION_COLUMNS, estimate_small_ball_prob,
                 mean_isometry_relative_error, run_phase_transition,
                 run_stability_sweep, sweep_csv)
from .recovery import (CERTIFIED_UNIQUE, COUNTEREXAMPLE_FOUND,
                       HEURISTICALLY_UNIQUE, IdentifiabilityVerdict, RowStack,
                       admissible_supports, align_and_distance, certify_strong,
                       certify_weak, is_recovered, min_scaled_distance,
                       solve_fixed_support, solve_sparse_enumerate,
                       verify_counterexample)
from .spectral import circular_convolve

__version__ = "0.1.0"
