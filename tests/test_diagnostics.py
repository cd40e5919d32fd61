import numpy as np
import pytest

import refsde.diagnostics as diagnostics
import refsde.fracnorm as fracnorm
from refsde.coeff import CoefficientSet
from refsde.diagnostics import (
    PhiParams,
    apriori_scaling_probe,
    holder_regularity_report,
    moment_probe,
    phi,
)
from refsde.fbm import sample_circulant
from refsde.fracnorm import (
    AlphaParams,
    holder_exponent_estimate,
    holder_norm,
    lambda_alpha_bound,
    w_alpha_inf_norm,
)
from refsde.grids import SamplePath
from refsde.solver import (
    Problem,
    SolverConfig,
    driver_grid,
    eta_from_callable,
    solve_euler,
    solve_stochastic,
)

from conftest import linear_problem, nonlinear_problem


class TestPhi:
    def test_gamma_one(self):
        assert phi(PhiParams(gamma=1.0, alpha=0.3)) == pytest.approx(0.6)

    def test_low_gamma_region(self):
        # (1 - 0.8) / 0.6 = 1/3 > 0.2, so the low region applies
        assert phi(PhiParams(gamma=0.2, alpha=0.4)) == pytest.approx(0.4)

    def test_middle_region_midpoint(self):
        assert phi(PhiParams(gamma=0.5, alpha=0.4)) == pytest.approx(0.7)

    def test_range_constraint_sweep(self):
        for g in np.linspace(0.0, 1.0, 41):
            for a in np.linspace(0.01, 0.49, 41):
                v = phi(PhiParams(gamma=float(g), alpha=float(a)))
                assert a - 1e-12 <= v <= 2 * a + 1e-12

    def test_moment_condition_sweep(self):
        # 1/(1 - phi) < 2 whenever alpha < (2 - gamma)/4
        for g in np.linspace(0.0, 1.0, 100):
            for a in np.linspace(0.01, 0.49, 100):
                if a < (2.0 - g) / 4.0:
                    v = phi(PhiParams(gamma=float(g), alpha=float(a)))
                    assert 1.0 / (1.0 - v) < 2.0

    def test_continuity_within_regions(self):
        # The middle region splits further where the moment-condition cap
        # switches on: it is active for (1 - 2a)/(2a) <= gamma < 2 - 4a.
        a = 0.3
        boundary = (1 - 2 * a) / (1 - a)
        cap_on = (1 - 2 * a) / (2 * a)
        cap_off = 2 - 4 * a
        pieces = [(0.0, boundary - 1e-6),
                  (boundary + 1e-6, cap_on - 1e-6),
                  (cap_on + 1e-6, cap_off - 1e-6),
                  (cap_off + 1e-6, 1.0 - 1e-6)]
        for lo, hi in pieces:
            gs = np.linspace(lo, hi, 200)
            vs = np.array([phi(PhiParams(gamma=float(g), alpha=a)) for g in gs])
            assert np.max(np.abs(np.diff(vs))) < 0.02

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PhiParams(gamma=1.2, alpha=0.3)
        with pytest.raises(ValueError):
            PhiParams(gamma=0.5, alpha=0.6)


def solved(p, n_r, seed, scale=1.0):
    g = sample_circulant(driver_grid(p, n_r), 0.75, 1, seed=seed)
    g = SamplePath(g.grid, scale * g.values)
    return solve_euler(p, g, SolverConfig(steps_per_delay=n_r))


class TestScalingProbe:
    def test_needs_five_runs(self):
        with pytest.raises(ValueError):
            apriori_scaling_probe([])

    def test_noise_free_slope_zero(self):
        n_r = 64
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, n_r, 1)
        coeffs = CoefficientSet.from_strings(["cos(t)"], [["0"]])
        p = Problem(eta=eta, coeffs=coeffs, r=1.0, T=2.0)
        runs = [(solved(p, n_r, seed=(40, i), scale=float(c)), 0.3, 1.0)
                for i, c in enumerate([0.5, 1.0, 2.0, 4.0, 8.0])]
        rep = apriori_scaling_probe(runs)
        assert abs(rep.slope) < 1e-6
        assert rep.consistent

    def test_linear_example_monotone(self):
        n_r = 64
        runs = []
        for c in (0.5, 1.0, 2.0, 4.0, 8.0):
            p = linear_problem(n_r, M=2)
            runs.append((solved(p, n_r, seed=(41, 0), scale=c), 0.3, 1.0))
        rep = apriori_scaling_probe(runs)
        # the fitted relation is increasing in the driver budget; raw norms
        # can wiggle at small scales where the drift dominates
        assert rep.slope > 0.0
        order = np.argsort(rep.predictors)
        fitted = rep.slope * np.array(rep.predictors)[order] + rep.intercept
        assert np.all(np.diff(fitted) > 0.0)

    def test_one_driver_size_is_an_error(self):
        # five runs of one driver: a line through one predictor has no slope
        n_r = 64
        p = linear_problem(n_r, M=1)
        runs = [(solved(p, n_r, seed=(42, 0)), 0.3, 1.0)] * 5
        with pytest.raises(ValueError, match="two driver sizes"):
            apriori_scaling_probe(runs)

    def test_duplicates_deterministic(self):
        n_r = 64
        p = linear_problem(n_r, M=1)
        runs = [(solved(p, n_r, seed=(42, i)), 0.3, 1.0) for i in range(5)]
        assert apriori_scaling_probe(runs) == apriori_scaling_probe(runs)


class TestMomentProbe:
    def test_noise_free_constant_in_size(self):
        n_r = 32
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, n_r, 1)
        coeffs = CoefficientSet.from_strings(["cos(t)"], [["0"]])
        p = Problem(eta=eta, coeffs=coeffs, r=1.0, T=1.0, H=0.75)
        tab = moment_probe(p, SolverConfig(steps_per_delay=n_r, seed=1), 2.0,
                           [5, 10], n_bootstrap=50)
        assert tab.estimates[0] == pytest.approx(tab.estimates[1], rel=1e-12)

    def test_jensen_between_exponents(self):
        n_r = 32
        p = linear_problem(n_r, M=1)
        cfg = SolverConfig(steps_per_delay=n_r, seed=2)
        t1 = moment_probe(p, cfg, 1.0, [10, 30], n_bootstrap=50)
        t2 = moment_probe(p, cfg, 2.0, [10, 30], n_bootstrap=50)
        assert t2.estimates[-1] >= t1.estimates[-1] ** 2 - 1e-12

    def test_lane_norms_match_per_path(self, monkeypatch):
        n_r = 32
        p = linear_problem(n_r, M=1)
        cfg = SolverConfig(steps_per_delay=n_r, seed=3)
        mc = solve_stochastic(p, cfg, 7)
        mc.solutions[2] = None  # a failed path
        monkeypatch.setattr(diagnostics, "solve_stochastic", lambda *args: mc)
        monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", 600)  # lane groups of a few paths
        per_path = np.array([np.nan if sol is None else w_alpha_inf_norm(sol.x, AlphaParams(0.3))
                             for sol in mc.solutions])
        sizes = list(range(1, 8))
        # nested means of the first p_exponent-th powers: each size adds one norm
        tab = moment_probe(p, cfg, 1.0, sizes, alpha=0.3, n_bootstrap=10)
        assert tab.excluded == [0, 0, 1, 1, 1, 1, 1]
        want = [np.nanmean(per_path[:size]) for size in sizes]
        assert tab.estimates == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_ensemble_without_solved_path(self):
        # every path fails: an error naming the size, not the mean of nothing
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, 16, 1)
        coeffs = CoefficientSet.from_strings(["1/(x1 - x1)"], [["0"]])
        p = Problem(eta=eta, coeffs=coeffs, r=1.0, T=1.0, H=0.75)
        with pytest.raises(ValueError, match="ensemble of size 2"):
            moment_probe(p, SolverConfig(steps_per_delay=16), 2.0, [2, 4], n_bootstrap=10)

    def test_sizes_must_ascend(self):
        p = linear_problem(32, M=1)
        with pytest.raises(ValueError):
            moment_probe(p, SolverConfig(steps_per_delay=32), 2.0, [40, 10])

    @pytest.mark.parametrize("sizes", [[10, 10], [5, 10, 10], [10, 10, 20]])
    def test_repeated_sizes(self, sizes):
        # a repeated last size would compare an ensemble with its own interval
        p = linear_problem(32, M=1)
        with pytest.raises(ValueError, match="strictly ascending"):
            moment_probe(p, SolverConfig(steps_per_delay=32), 2.0, sizes)


def regularity_per_norm(sol, alpha):
    """holder_regularity_report as it was before it read norm_report: one
    call per norm."""
    t_end = float(sol.grid.t1)
    x = sol.x.restrict(0.0, t_end)
    h_norm = holder_norm(x, 1.0 - alpha)
    exponent = holder_exponent_estimate(x)
    constant = fracnorm.norm_report(x, alpha).norms["constant_path"]
    w_norm = w_alpha_inf_norm(sol.x, AlphaParams(alpha=alpha))
    lam = lambda_alpha_bound(sol.driver, alpha)
    return {
        "holder_norm_1_minus_alpha": h_norm,
        "holder_exponent_estimate": exponent,
        "constant_path": constant,
        "w_alpha_inf": w_norm,
        "driver_lambda_alpha_bound": lam,
        "empirical_bound_ratio": h_norm / ((1.0 + lam) * (1.0 + w_norm)),
    }


class TestRegularityReport:
    @pytest.mark.parametrize("n_r,M,scale", [(128, 1, 1.0), (128, 2, 0.0), (512, 3, 1.0)])
    def test_equals_the_per_norm_report(self, n_r, M, scale):
        # 512 steps per delay over [0, 3] reach the endpoint search
        sol = solved(linear_problem(n_r, M=M), n_r, seed=(46, n_r), scale=scale)
        assert holder_regularity_report(sol, 0.3) == regularity_per_norm(sol, 0.3)

    def test_smooth_noise_free_exponent(self):
        n_r = 256
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, n_r, 1)
        coeffs = CoefficientSet.from_strings(["cos(t)"], [["0"]])
        p = Problem(eta=eta, coeffs=coeffs, r=1.0, T=2.0)
        sol = solved(p, n_r, seed=(43, 0), scale=0.0)
        rep = holder_regularity_report(sol, 0.3)
        assert rep["holder_exponent_estimate"] == pytest.approx(1.0, abs=0.05)

    def test_zero_path(self):
        n_r = 128
        eta = eta_from_callable(lambda t: np.array([0.0]), 1.0, n_r, 1)
        coeffs = CoefficientSet.from_strings(["0"], [["0"]])
        p = Problem(eta=eta, coeffs=coeffs, r=1.0, T=1.0)
        sol = solved(p, n_r, seed=(44, 0))
        rep = holder_regularity_report(sol, 0.3)
        assert rep["holder_norm_1_minus_alpha"] == 0.0
        assert rep["w_alpha_inf"] == 0.0
        assert rep["empirical_bound_ratio"] == 0.0

    def test_cross_path_ratio_stability(self):
        # empirical constant in the regularity bound varies less than 3x across paths
        n_r = 512
        ratios = []
        for i in range(12):
            p = linear_problem(n_r, M=1)
            sol = solved(p, n_r, seed=(45, i))
            ratios.append(holder_regularity_report(sol, 0.3)["empirical_bound_ratio"])
        assert max(ratios) / min(ratios) < 3.0
