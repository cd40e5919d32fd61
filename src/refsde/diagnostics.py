"""Diagnostics probing the theory's estimates on simulated solutions.

The growth exponent phi(gamma, alpha), a scaling probe for the a-priori
bound (whose constants are unspecified and treated as regression
targets), empirical moment stabilization, and per-solution Hoelder
regularity reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fracnorm import (
    AlphaParams,
    _w_alpha_inf_norms,
    lambda_alpha_bound,
    norm_report,
    w_alpha_inf_norm,
)
from .solver import Problem, ReflectedSolution, SolverConfig, solve_stochastic

__all__ = [
    "PhiParams",
    "phi",
    "ScalingReport",
    "apriori_scaling_probe",
    "MomentTable",
    "moment_probe",
    "holder_regularity_report",
]


@dataclass(frozen=True)
class PhiParams:
    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")

    @property
    def region_boundary(self) -> float:
        return (1.0 - 2.0 * self.alpha) / (1.0 - self.alpha)


def phi(p: PhiParams) -> float:
    """Growth exponent phi(gamma, alpha) in [alpha, 2*alpha].

    gamma = 1 gives 2*alpha and small gamma gives alpha; in the middle
    region only a strict lower bound is prescribed, so a representative
    admissible value is chosen: the midpoint towards 2*alpha, capped below
    1/2 whenever alpha < (2 - gamma)/4 so that the moment-finiteness
    condition 1/(1 - phi) < 2 is preserved by the selection.
    """
    a, g = p.alpha, p.gamma
    if g == 1.0:
        return 2.0 * a
    if g < p.region_boundary:
        return a
    lower = max(a, 1.0 + (2.0 * a - 1.0) / g)
    value = 0.5 * (lower + 2.0 * a)
    if a < (2.0 - g) / 4.0 and value >= 0.5:
        value = 0.5 * (lower + 0.5)
    return float(min(max(value, a), 2.0 * a))


@dataclass
class ScalingReport:
    """Fit of log |x| norm against Lambda_alpha(g)^(1/(1-phi)).

    Only the functional form of the a-priori bound is testable (its
    constants are not explicit); consistent means every run sits below
    the fitted line plus three residual standard deviations.
    """

    slope: float
    intercept: float
    predictors: list[float]
    log_norms: list[float]
    consistent: bool


def apriori_scaling_probe(runs: list[tuple[ReflectedSolution, float, float]]) -> ScalingReport:
    """runs: (solution, alpha, gamma) triples spanning a range of driver sizes."""
    if len(runs) < 5:
        raise ValueError("need at least 5 runs for the scaling probe")
    predictors, log_norms = [], []
    for sol, alpha, gamma in runs:
        lam = lambda_alpha_bound(sol.driver, alpha)
        exponent = 1.0 / (1.0 - phi(PhiParams(gamma=gamma, alpha=alpha)))
        predictors.append(lam ** exponent)
        norm = w_alpha_inf_norm(sol.x, AlphaParams(alpha=alpha))
        log_norms.append(float(np.log(max(norm, 1e-300))))
    slope, intercept = np.polyfit(predictors, log_norms, 1)
    fitted = slope * np.asarray(predictors) + intercept
    resid = np.asarray(log_norms) - fitted
    sd = float(resid.std()) if len(runs) > 2 else 0.0
    consistent = bool(np.all(np.asarray(log_norms) <= fitted + 3.0 * sd + 1e-12))
    return ScalingReport(
        slope=float(slope),
        intercept=float(intercept),
        predictors=predictors,
        log_norms=log_norms,
        consistent=consistent,
    )


@dataclass
class MomentTable:
    """Empirical E|x|^p per ensemble size with bootstrap confidence bands."""

    p_exponent: float
    sizes: list[int]
    estimates: list[float]
    ci_low: list[float]
    ci_high: list[float]
    excluded: list[int]
    stable: bool = field(default=False)


def moment_probe(p: Problem, cfg: SolverConfig, p_exponent: float,
                 ensemble_sizes: list[int], alpha: float = 0.3,
                 n_bootstrap: int = 500) -> MomentTable:
    """Empirical mean of the solution norm to the p-th power per ensemble size.

    Ensembles are nested (size k uses the first k driver streams), so the
    table is deterministic given cfg.seed.  The stability flag is the
    no-blow-up proxy: the largest ensemble's estimate lies inside the
    bootstrap CI of the second largest.
    """
    if p_exponent < 1.0:
        raise ValueError("p_exponent must be >= 1")
    if sorted(ensemble_sizes) != list(ensemble_sizes) or len(ensemble_sizes) < 2:
        raise ValueError("ensemble sizes must be ascending, at least two of them")
    mc = solve_stochastic(p, cfg, ensemble_sizes[-1])
    params = AlphaParams(alpha=alpha)
    done = [i for i, sol in enumerate(mc.solutions) if sol is not None]
    norms = np.full(len(mc.solutions), np.nan)  # a failed path stays NaN
    norms[done] = _w_alpha_inf_norms([mc.solutions[i].x for i in done], params.alpha)
    rng = np.random.default_rng(cfg.seed)
    estimates, lows, highs, excluded = [], [], [], []
    for size in ensemble_sizes:
        sample = norms[:size]
        ok = sample[np.isfinite(sample)] ** p_exponent
        excluded.append(size - ok.size)
        estimates.append(float(ok.mean()))
        boot = rng.choice(ok, size=(n_bootstrap, ok.size), replace=True).mean(axis=1)
        lo, hi = np.percentile(boot, [2.5, 97.5])
        lows.append(float(lo))
        highs.append(float(hi))
    stable = bool(lows[-2] <= estimates[-1] <= highs[-2])
    return MomentTable(
        p_exponent=p_exponent,
        sizes=list(ensemble_sizes),
        estimates=estimates,
        ci_low=lows,
        ci_high=highs,
        excluded=excluded,
        stable=stable,
    )


def holder_regularity_report(sol: ReflectedSolution, alpha: float) -> dict:
    """Regularity quantities of one solution, including the empirical ratio
    |x|_{1-alpha} / ((1 + Lambda)(1 + |x|_{alpha,inf})) for cross-run
    comparison (the bound's constant is not explicit)."""
    # the Hoelder norm and exponent of x on [0, T]; the report's own Lambda
    # is that of x, and its W^(alpha,infinity) norm leaves out [-r, 0]
    report = norm_report(sol.x.restrict(0.0, float(sol.grid.t1)), alpha).norms
    h_norm = report["holder_1_minus_alpha"]
    w_norm = w_alpha_inf_norm(sol.x, AlphaParams(alpha=alpha))
    lam = lambda_alpha_bound(sol.driver, alpha)
    return {
        "holder_norm_1_minus_alpha": h_norm,
        "holder_exponent_estimate": report["holder_exponent_estimate"],
        "constant_path": report["constant_path"],
        "w_alpha_inf": w_norm,
        "driver_lambda_alpha_bound": lam,
        "empirical_bound_ratio": h_norm / ((1.0 + lam) * (1.0 + w_norm)),
    }
