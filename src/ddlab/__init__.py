"""Exact surrogate-design expressions for double descent of the
minimum-norm least-squares estimator, with Monte Carlo verification."""

from .covariance import Spectrum, make_profile, scale_trace_inverse
from .designs import (
    MeasureSpec,
    MonteCarloEstimate,
    sample_iid,
    sample_surrogate_under_batch,
    surrogate_expectation_oracle,
)
from .linalg import log_det_gram, projection_complement, pseudo_inverse
from .surrogate import (
    RegressionProblem,
    SurrogateParams,
    bias_factors,
    implicit_reg_mean,
    solve_lambda,
    surrogate_mse,
    surrogate_params,
    surrogate_size_pmf,
    variance_term,
)

__version__ = "0.1.0"
