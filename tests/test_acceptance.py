"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line so the verdicts can be read off a plain pytest log.  Tolerances are
fixed here on purpose; loosening them is a behaviour change, not a test
fix.
"""

import filecmp
import os

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.stats import ks_2samp

from conftest import linear_problem, nonlinear_problem
from refsde import (
    AlphaParams,
    PhiParams,
    SamplePath,
    SolverConfig,
    TimeGrid,
    check_invariants,
    complementarity_residual,
    empirical_covariance,
    fbm_covariance,
    g_norm_one_minus_alpha,
    holder_exponent_estimate,
    lambda_alpha_bound,
    lipschitz_witness,
    moment_probe,
    phi,
    reflect,
    regulator,
    sample_cholesky,
    sample_circulant,
    solve_euler,
    solve_picard,
    solve_stochastic,
    w_alpha_inf_norm,
    young_integral,
)
from refsde.cli import main as cli_main
from refsde.solver import driver_grid


def verdict(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _restrict(path: SamplePath, t0: float) -> SamplePath:
    i0 = int(np.searchsorted(path.grid.times, t0))
    n = len(path.grid.times) - 1 - i0
    grid = TimeGrid(float(path.grid.times[i0]), float(path.grid.times[-1]), n)
    return SamplePath(grid, path.values[i0:])


def _random_path(rng, n, d, scale=1.0):
    vals = np.cumsum(rng.standard_normal((n + 1, d)) * scale, axis=0)
    vals[0] = np.abs(vals[0])  # admissible start in the orthant
    return SamplePath(TimeGrid(0.0, 1.0, n), vals)


@pytest.mark.slow
def test_criterion_01_regulator_exactness():
    rng = np.random.default_rng(1)
    n, d = 500, 3
    ok = True
    for _ in range(1000):
        z = _random_path(rng, n, d, scale=0.1)
        fast = regulator(z).values
        brute = np.array([np.maximum(-z.values[: k + 1], 0.0).max(axis=0)
                          for k in range(n + 1)])
        if not np.array_equal(fast, brute):
            ok = False
            break
    verdict(1, "regulator equals O(n^2) prefix-max oracle bit-exactly "
               "(1000 paths, d=3, n=500)", ok)


def test_criterion_02_lipschitz_ratios():
    rng = np.random.default_rng(2)
    n, d = 60, 2
    worst_x = worst_y = 0.0
    for _ in range(10_000):
        z1 = _random_path(rng, n, d, scale=0.2)
        z2 = _random_path(rng, n, d, scale=0.2)
        rx, ry = lipschitz_witness(z1, z2)
        worst_x = max(worst_x, rx)
        worst_y = max(worst_y, ry)
    ok = worst_y <= 1.0 + 1e-12 and worst_x <= 2.0 + 1e-12
    verdict(2, f"Lipschitz ratios over 10^4 pairs: regulator {worst_y:.15f} "
               f"<= 1, reflector {worst_x:.15f} <= 2", ok)


@pytest.mark.slow
def test_criterion_03_invariants_and_residual_halving():
    levels = [256, 512, 1024]
    n_paths = 40
    residuals = np.zeros((len(levels), n_paths))
    pointwise_ok = True
    for i in range(n_paths):
        p_fine = nonlinear_problem(levels[-1], M=3)
        g_fine = sample_circulant(driver_grid(p_fine, levels[-1]), 0.75, 1,
                                  seed=(99, i))
        for li, n_r in enumerate(levels):
            stride = levels[-1] // n_r
            p = nonlinear_problem(n_r, M=3)
            g = SamplePath(driver_grid(p, n_r), g_fine.values[::stride])
            sol = solve_euler(p, g, SolverConfig(steps_per_delay=n_r))
            inv = check_invariants(sol)
            if not (inv["x_nonnegative"] and inv["y_starts_at_zero"]
                    and inv["y_nondecreasing"] and inv["x_equals_z_plus_y"]):
                pointwise_ok = False
            residuals[li, i] = inv["complementarity_residual"]
    means = residuals.mean(axis=1)
    ratios = means[1:] / means[:-1]
    halving_ok = bool(np.all((ratios >= 0.4) & (ratios <= 0.6)))
    verdict(3, "x >= 0, y nondecreasing from 0, x = z + y bit-exact; "
               f"residual halving ratios {np.round(ratios, 3).tolist()} "
               "in [0.4, 0.6]", pointwise_ok and halving_ok)


@pytest.mark.slow
def test_criterion_04_fbm_law():
    n, n_paths = 32, 20_000
    grid = TimeGrid(0.0, 1.0, n)
    probes = np.arange(1, n + 1)
    ok = True
    for hi, h in enumerate((0.6, 0.75, 0.9)):
        chol = sample_cholesky(grid, h, m=n_paths, seed=(4, hi))
        cov, _ = empirical_covariance([chol], probes, h)
        times = grid.times[probes]
        analytic = np.array([[fbm_covariance(s, t, h) for t in times]
                             for s in times])
        diag = np.diag(analytic)
        se = np.sqrt((np.outer(diag, diag) + analytic ** 2) / n_paths)
        if np.any(np.abs(cov - analytic) > 5.0 * se):
            ok = False
        circ = sample_circulant(grid, h, m=n_paths, seed=(4, 10 + hi))
        ks = ks_2samp(chol.values[-1], circ.values[-1])
        if ks.pvalue <= 0.01:
            ok = False
    verdict(4, "empirical fBm covariance within 5 SE of the analytic law "
               "and circulant/Cholesky KS test at 1% (H = 0.6, 0.75, 0.9)", ok)


def test_criterion_05_young_identities():
    n = 1 << 14
    worst = 0.0
    for i in range(20):
        g = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 1, seed=(5, i))
        val = young_integral(g, g, "trapezoid").at_end()[0]
        exact = 0.5 * (g.values[-1, 0] ** 2 - g.values[0, 0] ** 2)
        worst = max(worst, abs(val - exact) / max(abs(exact), 1e-300))
    identity_ok = worst < 1e-2

    gf = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 1, seed=(5, 100))
    res = []
    for k in (4, 3, 2, 1, 0):  # n = 2^10 ... 2^14
        g = SamplePath(TimeGrid(0.0, 1.0, n >> k), gf.values[:: 1 << k])
        fg = young_integral(g, g, "left_point").at_end()[0]
        boundary = g.values[-1, 0] ** 2 - g.values[0, 0] ** 2
        res.append(abs(2.0 * fg - boundary))
    ibp_ok = all(a > b for a, b in zip(res, res[1:]))
    verdict(5, f"trapezoid int g dg identity (worst rel {worst:.2e} < 1e-2) "
               "and by-parts residual decreasing over n = 2^10..2^14",
            identity_ok and ibp_ok)


def test_criterion_06_norm_closed_forms():
    n = 4096
    grid = TimeGrid(0.0, 1.0, n)
    f = SamplePath(grid, grid.times.copy())
    w = w_alpha_inf_norm(f, AlphaParams(alpha=0.4))
    gnorm = g_norm_one_minus_alpha(f, 0.4)
    lam = lambda_alpha_bound(f, 0.4)
    want_w = 1.0 + 1.0 / 0.6
    want_g = 3.5
    want_l = 3.5 / (gamma_fn(0.6) * gamma_fn(0.4))
    ok = (abs(w - want_w) < 1e-3 and abs(gnorm - want_g) < 1e-3
          and abs(lam - want_l) < 1e-3)
    verdict(6, f"closed forms for f(t)=t at alpha=0.4: w-norm {w:.6f}, "
               f"driver norm {gnorm:.6f}, Lambda bound {lam:.6f}", ok)


def test_criterion_07_first_interval_oracle():
    n_r = 4096
    p = linear_problem(n_r, M=1, a=0.0, b=0.0)
    g = SamplePath(driver_grid(p, n_r), np.zeros((n_r + 1, 1)))
    sol = solve_euler(p, g, SolverConfig(steps_per_delay=n_r))
    x = _restrict(sol.x, 0.0)
    exact = 1.0 + x.grid.times ** 2 / 2.0
    rel = float(np.max(np.abs(x.values[:, 0] - exact) / exact))
    drift_ok = rel < 1e-4

    n_c, mult = 1024, 4
    p_fine = linear_problem(n_c * mult, M=1)
    g_fine = sample_circulant(driver_grid(p_fine, n_c * mult), 0.75, 1,
                              seed=(7, 0))
    cfg = dict(scheme="picard", picard_tol=1e-10, picard_max_iter=100)
    fine = solve_picard(p_fine, g_fine, SolverConfig(steps_per_delay=n_c * mult, **cfg))
    p_c = linear_problem(n_c, M=1)
    g_c = SamplePath(driver_grid(p_c, n_c), g_fine.values[::mult])
    coarse = solve_picard(p_c, g_c, SolverConfig(steps_per_delay=n_c, **cfg))
    gap = float(np.max(np.abs(coarse.x.values[:, 0] - fine.x.values[::mult, 0])))
    picard_ok = gap < 5e-3
    verdict(7, f"first-interval drift oracle rel err {rel:.2e} < 1e-4; "
               f"fixed-point vs 4x-resolution oracle gap {gap:.2e} < 5e-3",
            drift_ok and picard_ok)


def test_criterion_08_scheme_cross_agreement():
    levels = [128, 256, 512, 1024]
    ok = True
    diffs_all = []
    for make in (linear_problem, nonlinear_problem):
        p_fine = make(levels[-1], M=2)
        g_fine = sample_circulant(driver_grid(p_fine, levels[-1]), 0.75, 1,
                                  seed=(8, 1))
        diffs = []
        for n_r in levels:
            stride = levels[-1] // n_r
            p = make(n_r, M=2)
            g = SamplePath(driver_grid(p, n_r), g_fine.values[::stride])
            e = solve_euler(p, g, SolverConfig(steps_per_delay=n_r))
            q = solve_picard(p, g, SolverConfig(steps_per_delay=n_r,
                                                scheme="picard"))
            diffs.append(float(np.max(np.abs(e.x.values - q.x.values))))
        diffs_all.append([f"{d:.1e}" for d in diffs])
        if not all(a > b for a, b in zip(diffs, diffs[1:])):
            ok = False
    verdict(8, "Euler/Picard sup gap decreases over n_r = 128..1024 on a "
               f"shared driver for both examples ({diffs_all})", ok)


def test_criterion_09_picard_convergence():
    n_r = 512
    ok = True
    for make in (linear_problem, nonlinear_problem):
        p = make(n_r, M=2)
        g = sample_circulant(driver_grid(p, n_r), 0.75, 1, seed=(9, 0))
        sols = []
        for start in ("constant", "linear"):
            cfg = SolverConfig(steps_per_delay=n_r, scheme="picard",
                               picard_tol=1e-10, picard_max_iter=100,
                               initial_iterate=start)
            sol = solve_picard(p, g, cfg)
            if max(sol.iterations_per_interval) > 100:
                ok = False
            sols.append(sol)
        gap = float(np.max(np.abs(sols[0].x.values - sols[1].x.values)))
        if gap > 10 * 1e-10:
            ok = False
    verdict(9, "Picard converges on every interval within 100 iterations at "
               "tol 1e-10 and is start-independent to 10*tol", ok)


def test_criterion_10_holder_regularity():
    n_r = 8192
    p = linear_problem(n_r, M=1)
    mc = solve_stochastic(p, SolverConfig(steps_per_delay=n_r, seed=10), 100)
    assert not mc.failures
    ests = [holder_exponent_estimate(_restrict(sol.x, 0.0))
            for sol in mc.solutions]
    med = float(np.median(ests))
    ok = 0.6 <= med <= 0.9
    verdict(10, f"ensemble median Holder exponent {med:.3f} in [0.6, 0.9] "
                "for H = 0.75 (100 paths, n = 2^13)", ok)


def test_criterion_11_phi_and_moment_condition():
    exact_ok = (phi(PhiParams(gamma=1.0, alpha=0.3)) == 0.6
                and phi(PhiParams(gamma=0.2, alpha=0.4)) == 0.4)
    sweep_ok = True
    for g in np.linspace(0.0, 1.0, 100):
        for a in np.linspace(0.005, 0.495, 100):
            if a < (2.0 - g) / 4.0:
                v = phi(PhiParams(gamma=float(g), alpha=float(a)))
                if not 1.0 / (1.0 - v) < 2.0:
                    sweep_ok = False

    n_r = 64
    p = nonlinear_problem(n_r, M=3)
    tab = moment_probe(p, SolverConfig(steps_per_delay=n_r, seed=11), 4.0,
                       [100, 400, 1600])
    verdict(11, "phi explicit cases and 100x100 moment-condition sweep hold; "
                f"p=4 moment estimate stable ({tab.stable}) over sizes "
                "100/400/1600", exact_ok and sweep_ok and tab.stable)


def test_criterion_12_byte_identical_runs(tmp_path):
    from importlib.resources import files

    cfg = str(files("refsde").joinpath("configs/linear_a.cfg"))
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli_main(["simulate", cfg, "--out", str(out)])
        assert code == 0
        outs.append(out)
    csvs = sorted(f.name for f in outs[0].iterdir() if f.suffix == ".csv")
    ok = bool(csvs)
    for name in csvs:
        if not filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False):
            ok = False
    verdict(12, f"repeated simulate runs byte-identical across {len(csvs)} "
                "CSV outputs", ok)
