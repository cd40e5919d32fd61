"""Simulation toolkit for delay equations with normal reflection on the
non-negative orthant, driven by fractional Brownian motion with long-range
dependence (Hurst parameter above 1/2)."""

from .grids import SamplePath, TimeGrid
from .fbm import (
    HurstParameter,
    fbm_covariance,
    sample_cholesky,
    sample_circulant,
    empirical_covariance,
)
from .fracnorm import (
    AlphaParams,
    NormReport,
    w_alpha_inf_norm,
    weighted_alpha_norm,
    holder_norm,
    g_norm_one_minus_alpha,
    lambda_alpha_bound,
    f_norm_alpha_1,
    holder_exponent_estimate,
    norm_report,
    norm_reports,
)
from .skorokhod import (
    SkorokhodSolution,
    regulator,
    regulator_values,
    reflect,
    complementarity_residual,
    lipschitz_witness,
)
from .young import young_integral, IndefiniteIntegral
from .coeff import (
    CoefficientSet,
    ExprSyntaxError,
    parse_expr,
    print_expr,
    eval_expr,
    eval_drift,
    eval_diffusion,
    hypothesis_audit,
)
from .solver import (
    Problem,
    SolverConfig,
    ReflectedSolution,
    MonteCarloResult,
    BlowUpError,
    PicardConvergenceError,
    eta_from_callable,
    solve,
    solve_euler,
    solve_picard,
    solve_stochastic,
    convergence_study,
    check_invariants,
)
from .diagnostics import (
    PhiParams,
    phi,
    apriori_scaling_probe,
    moment_probe,
    holder_regularity_report,
)

__version__ = "0.1.0"

__all__ = [
    "SamplePath", "TimeGrid",
    "HurstParameter", "fbm_covariance", "sample_cholesky", "sample_circulant",
    "empirical_covariance",
    "AlphaParams", "NormReport", "w_alpha_inf_norm", "weighted_alpha_norm",
    "holder_norm", "g_norm_one_minus_alpha", "lambda_alpha_bound",
    "f_norm_alpha_1", "holder_exponent_estimate", "norm_report", "norm_reports",
    "SkorokhodSolution", "regulator", "regulator_values", "reflect",
    "complementarity_residual", "lipschitz_witness",
    "young_integral", "IndefiniteIntegral",
    "CoefficientSet", "ExprSyntaxError", "parse_expr",
    "print_expr", "eval_expr", "eval_drift", "eval_diffusion", "hypothesis_audit",
    "Problem", "SolverConfig", "ReflectedSolution", "MonteCarloResult",
    "BlowUpError", "PicardConvergenceError", "eta_from_callable", "solve",
    "solve_euler", "solve_picard", "solve_stochastic", "convergence_study",
    "check_invariants",
    "PhiParams", "phi", "apriori_scaling_probe", "moment_probe",
    "holder_regularity_report",
    "__version__",
]
