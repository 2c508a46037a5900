"""Two-step sparse estimation for stochastic-process models.

First step: an l1-minimal fit under an l-infinity score constraint,
thresholded into a support estimate.  Second step: nuisance-variance
plug-in and a weighted support-restricted solve, with plug-in asymptotic
covariance.  Simulators, diagnostics, and a Monte Carlo harness round out
the package.
"""

from .dantzig import (CvReport, DantzigFit, SupportEstimate, cross_validate_lambda,
                      default_lambda_grid, solve_dantzig, threshold_support)
from .diagnostics import (FInftyEstimate, NormalityReport, estimate_f_infinity,
                          royston_test, selection_and_errors, shapiro_wilk)
from .errors import (DegenerateVarianceError, DomainError, NuisanceError, NumericError,
                     RankError, StationarityError, UncertifiedFitError)
from .harness import (CaseConfig, CaseReport, HawkesReport, builtin_case,
                      emit_histogram, run_case, run_hawkes_support)
from .rng import derive_seed, make_rng
from .scores import (CenteredDesign, DiffusionDesign, LinearScoreSystem, build_inar_score,
                     build_regression_score, build_weighted_system, center_design,
                     center_lags, diffusion_design, lagged_design)
from .simulate import (HawkesSpec, InarSpec, Minar1Spec, OuSpec, SeriesSample,
                       bin_counts, lyapunov_covariance, read_series_csv,
                       simulate_hawkes, simulate_inar, simulate_minar1, simulate_ou,
                       write_series_csv)
from .twostep import (NuisanceEstimate, TwoStepFit, estimate_diffusion_sigma2,
                      estimate_inar_nuisance, first_step, project_statistic,
                      solve_weighted, two_step_fit)

__version__ = "0.1.0"
