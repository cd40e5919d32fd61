import hashlib
import json
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from refsde import solver
from refsde.cli import load_config
from refsde.coeff import CoefficientSet, diffusion_values, drift_values, eval_drift
from refsde.fbm import sample_circulant
from refsde.grids import SamplePath, TimeGrid
from refsde.young import _cell_products
from refsde.solver import (
    BlowUpError,
    PicardConvergenceError,
    Problem,
    SolverConfig,
    check_invariants,
    convergence_study,
    driver_grid,
    eta_from_callable,
    solve,
    solve_euler,
    solve_picard,
    solve_stochastic,
)

from conftest import linear_problem, nonlinear_problem


def zero_driver(p, n_r):
    grid = driver_grid(p, n_r)
    return SamplePath(grid, np.zeros((grid.n_steps + 1, p.m)))


def trivial_problem(n_r, c=1.0, drift="0", diffusion="0", M=2):
    eta = eta_from_callable(lambda t: np.array([c]), 1.0, n_r, 1)
    coeffs = CoefficientSet.from_strings([drift], [[diffusion]])
    return Problem(eta=eta, coeffs=coeffs, r=1.0, T=float(M))


class TestEtaFromCallable:
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_same_bytes_as_one_broadcast_per_point(self, d, vector):
        def fn(t):
            value = 1.0 + t * t / 3.0
            return value * np.arange(1.0, d + 1.0) if vector else value

        eta = eta_from_callable(fn, 0.7, 64, d)
        want = np.array([np.broadcast_to(fn(float(t)), (d,)) for t in eta.times], dtype=float)
        assert eta.values.shape == (65, d)
        assert eta.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValueError):
            eta_from_callable(lambda t: np.full(shape, t), 1.0, 8, 2)


class TestEuler:
    def test_constant_problem(self):
        p = trivial_problem(32, c=2.0)
        sol = solve_euler(p, zero_driver(p, 32), SolverConfig(steps_per_delay=32))
        assert np.all(sol.x.values == 2.0)
        assert np.all(sol.y.values == 0.0)
        assert np.all(sol.z.values == 2.0)

    def test_negative_unit_drift_pins_at_zero(self):
        p = trivial_problem(64, c=0.0, drift="-1")
        sol = solve_euler(p, zero_driver(p, 64), SolverConfig(steps_per_delay=64))
        i0 = sol.grid.index_of(0.0)
        t = sol.grid.times[i0:]
        assert np.allclose(sol.z.values[i0:, 0], -t, atol=1e-12)
        assert np.allclose(sol.y.values[i0:, 0], t, atol=1e-12)
        assert np.all(sol.x.values[i0:] == 0.0)

    def test_linear_example_noiseless_closed_form(self):
        # drift x(t-r) with eta(t) = t + r gives x(t) = r + t^2/2 on [0, r]
        n_r = 1024
        p = linear_problem(n_r, M=1, a=0.0, b=0.0)
        sol = solve_euler(p, zero_driver(p, n_r), SolverConfig(steps_per_delay=n_r))
        i0 = sol.grid.index_of(0.0)
        t = sol.grid.times[i0:]
        want = 1.0 + 0.5 * t ** 2
        rel = np.max(np.abs(sol.x.values[i0:, 0] - want) / want)
        assert rel < 5e-4

    def test_eta_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            eta = SamplePath(TimeGrid(-1.0, 0.0, 8), np.linspace(-0.5, 0.5, 9))
            Problem(eta=eta, coeffs=CoefficientSet.from_strings(["0"], [["0"]]),
                    r=1.0, T=1.0)

    def test_causality(self):
        # perturbing the driver after time t leaves x on [0, t] bit-unchanged
        n_r = 64
        p = linear_problem(n_r, M=2)
        g = sample_circulant(driver_grid(p, n_r), 0.75, 1, seed=1)
        cfg = SolverConfig(steps_per_delay=n_r)
        a = solve_euler(p, g, cfg)
        tampered = g.values.copy()
        tampered[n_r + 1:] += 5.0
        b = solve_euler(p, SamplePath(g.grid, tampered), cfg)
        i0 = a.grid.index_of(0.0)
        assert np.array_equal(a.x.values[: i0 + n_r + 1], b.x.values[: i0 + n_r + 1])

    def test_invariants_on_fbm_driver(self):
        n_r = 128
        p = nonlinear_problem(n_r, M=3)
        g = sample_circulant(driver_grid(p, n_r), 0.75, 1, seed=2)
        sol = solve_euler(p, g, SolverConfig(steps_per_delay=n_r))
        inv = check_invariants(sol)
        assert all(v for k, v in inv.items() if isinstance(v, bool))


class TestPicard:
    def test_trivial_single_iteration(self):
        p = trivial_problem(32, c=1.5)
        sol = solve_picard(p, zero_driver(p, 32),
                           SolverConfig(steps_per_delay=32, scheme="picard"))
        assert sol.iterations_per_interval == [1, 1]
        assert np.all(sol.x.values == 1.5)

    def test_converges_on_both_examples(self):
        for p in (linear_problem(128, M=3), nonlinear_problem(128, M=3)):
            g = sample_circulant(driver_grid(p, 128), 0.75, 1, seed=3)
            sol = solve_picard(p, g, SolverConfig(steps_per_delay=128, scheme="picard"))
            assert all(n <= 100 for n in sol.iterations_per_interval)
            assert all(r <= 1e-10 for r in sol.final_residuals)
            inv = check_invariants(sol)
            assert all(v for k, v in inv.items() if isinstance(v, bool))

    def test_initial_iterate_uniqueness_proxy(self):
        p = nonlinear_problem(128, M=2)
        g = sample_circulant(driver_grid(p, 128), 0.75, 1, seed=4)
        tol = 1e-10
        base = dict(steps_per_delay=128, scheme="picard", picard_tol=tol)
        a = solve_picard(p, g, SolverConfig(**base, initial_iterate="constant"))
        b = solve_picard(p, g, SolverConfig(**base, initial_iterate="linear"))
        assert np.max(np.abs(a.x.values - b.x.values)) <= 10 * tol

    def test_nonconvergence_raises(self):
        p = nonlinear_problem(64, M=1)
        g = sample_circulant(driver_grid(p, 64), 0.75, 1, seed=5)
        with pytest.raises(PicardConvergenceError):
            solve_picard(p, g, SolverConfig(steps_per_delay=64, scheme="picard",
                                            picard_tol=1e-15, picard_max_iter=2))

    def test_blow_up_reports_the_first_non_finite_row(self):
        # the first iterate is the constant x(0) = 1, where the drift is 8e307,
        # so its z = 1 + k * 4e307 overflows at row 5 (dt = 0.5); an iterate
        # after it would read x1 ^ 40 = inf from row 1 on
        p = delay_problem(["8e307 * x1 ^ 40"], [["0"]], 8, r=4.0, M=1)
        with pytest.raises(BlowUpError) as exc:
            solve_picard(p, zero_driver(p, 8), SolverConfig(steps_per_delay=8, scheme="picard"))
        assert (exc.value.step, exc.value.t) == (5, 2.5)

    def test_scheme_is_forced(self):
        p = linear_problem(32, M=2)
        g = sample_circulant(driver_grid(p, 32), 0.75, 1, seed=7)
        picard = solve_picard(p, g, SolverConfig(steps_per_delay=32, scheme="euler"))
        assert len(picard.iterations_per_interval) == 2
        want = solve(p, g, SolverConfig(steps_per_delay=32, scheme="picard"))
        assert np.array_equal(picard.x.values, want.x.values)
        euler = solve_euler(p, g, SolverConfig(steps_per_delay=32, scheme="picard"))
        assert euler.iterations_per_interval == [] and euler.final_residuals == []
        assert np.array_equal(euler.x.values, solve(p, g, SolverConfig(steps_per_delay=32)).x.values)

    def test_matches_euler_under_refinement(self):
        p_fn = linear_problem
        finest = 512
        gf = sample_circulant(TimeGrid(0.0, 1.0, finest), 0.75, 1, seed=6)
        gaps = []
        for n_r in (128, 256, 512):
            stride = finest // n_r
            g = SamplePath(TimeGrid(0.0, 1.0, n_r), gf.values[::stride])
            p = p_fn(n_r, M=1)
            e = solve_euler(p, g, SolverConfig(steps_per_delay=n_r))
            q = solve_picard(p, g, SolverConfig(steps_per_delay=n_r, scheme="picard"))
            gaps.append(float(np.max(np.abs(e.x.values - q.x.values))))
        assert gaps[2] < gaps[1] < gaps[0]


class TestStochastic:
    def test_determinism(self):
        p = linear_problem(64, M=2)
        cfg = SolverConfig(steps_per_delay=64, seed=7)
        a = solve_stochastic(p, cfg, 3)
        b = solve_stochastic(p, cfg, 3)
        for sa, sb in zip(a.solutions, b.solutions):
            assert np.array_equal(sa.x.values, sb.x.values)

    def test_noise_free_paths_identical(self):
        p = trivial_problem(32, c=1.0, drift="cos(t)")
        p = replace(p, H=0.75)
        mc = solve_stochastic(p, SolverConfig(steps_per_delay=32, seed=8), 3)
        for sol in mc.solutions[1:]:
            assert np.array_equal(sol.x.values, mc.solutions[0].x.values)

    def test_invariant_sweep(self):
        p = linear_problem(64, M=2, a=0.1, b=0.1)
        mc = solve_stochastic(p, SolverConfig(steps_per_delay=64, seed=9), 25)
        assert mc.n_ok == 25
        for sol in mc.solutions:
            inv = check_invariants(sol)
            assert inv["x_nonnegative"] and inv["complementarity_ok"]

    def test_requires_hurst(self):
        p = trivial_problem(32)
        with pytest.raises(ValueError, match="Hurst"):
            solve_stochastic(p, SolverConfig(steps_per_delay=32), 1)


class TestConvergenceStudy:
    def test_drift_only_euler_order(self):
        # smooth drift, no noise: classical first-order Euler
        n = 512
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, n, 1)
        coeffs = CoefficientSet.from_strings(["cos(t) * x1"], [["0"]])
        p = Problem(eta=eta, coeffs=coeffs, r=1.0, T=2.0)
        g = zero_driver(p, n)
        table = convergence_study(p, g, [64, 128, 256, 512],
                                  SolverConfig(steps_per_delay=n))
        # comparing against the finest level inflates the last ratio, so
        # only require at least first-order decay
        assert table.empirical_order > 0.7
        assert all(a > b for a, b in zip(table.errors, table.errors[1:]))

    def test_errors_decreasing_linear_example(self):
        n = 512
        p = linear_problem(n, M=2)
        g = sample_circulant(driver_grid(p, n), 0.75, 1, seed=10)
        table = convergence_study(p, g, [64, 128, 256, 512],
                                  SolverConfig(steps_per_delay=n))
        assert all(a > b for a, b in zip(table.errors, table.errors[1:]))

    def test_deterministic(self):
        n = 256
        p = linear_problem(n, M=1)
        g = sample_circulant(driver_grid(p, n), 0.75, 1, seed=11)
        cfg = SolverConfig(steps_per_delay=n)
        t1 = convergence_study(p, g, [64, 128, 256], cfg)
        t2 = convergence_study(p, g, [64, 128, 256], cfg)
        assert t1.errors == t2.errors

    def test_order_fitted_over_levels_with_an_error(self, monkeypatch):
        # x stays 1: every level is exact unless its solve is nudged
        n = 64
        p = trivial_problem(n, M=1)
        g = zero_driver(p, n)
        cfg = SolverConfig(steps_per_delay=n)
        table = convergence_study(p, g, [16, 32, 64], cfg)
        assert table.errors == [0.0, 0.0] and table.empirical_order is None
        nudge = {8: 0.0, 16: 4e-3, 32: 2e-3, 64: 0.0}
        exact_solve = solver.solve

        def nudged(p_lvl, g_lvl, cfg_lvl):
            sol = exact_solve(p_lvl, g_lvl, cfg_lvl)
            sol.x.values[-1] += nudge[cfg_lvl.steps_per_delay]
            return sol

        monkeypatch.setattr(solver, "solve", nudged)
        table = convergence_study(p, g, [8, 16, 32, 64], cfg)
        assert table.errors[0] == 0.0
        assert table.errors[1:] == pytest.approx([4e-3, 2e-3])
        assert table.empirical_order == pytest.approx(1.0)
        # one level with an error: no order
        assert convergence_study(p, g, [8, 16, 64], cfg).empirical_order is None

    def test_too_few_levels(self):
        n = 128
        p = linear_problem(n, M=1)
        g = zero_driver(p, n)
        with pytest.raises(ValueError):
            convergence_study(p, g, [64, 128], SolverConfig(steps_per_delay=n))

    @pytest.mark.parametrize("levels", [[8, 8, 16], [4, 4, 4], [8, 16, 16]])
    def test_repeated_levels(self, levels):
        # two equal levels would fit an order through two identical points
        n = levels[-1]
        p = linear_problem(n, M=1)
        g = zero_driver(p, n)
        with pytest.raises(ValueError, match="strictly ascending"):
            convergence_study(p, g, levels, SolverConfig(steps_per_delay=n))


class TestProblemValidation:
    def test_horizon_must_be_multiple(self):
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, 16, 1)
        coeffs = CoefficientSet.from_strings(["0"], [["0"]])
        with pytest.raises(ValueError, match="multiple"):
            Problem(eta=eta, coeffs=coeffs, r=1.0, T=1.5)

    def test_scheme_dispatch(self):
        p = trivial_problem(16)
        g = zero_driver(p, 16)
        e = solve(p, g, SolverConfig(steps_per_delay=16, scheme="euler"))
        q = solve(p, g, SolverConfig(steps_per_delay=16, scheme="picard"))
        assert np.allclose(e.x.values, q.x.values, atol=1e-12)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(steps_per_delay=2)
        with pytest.raises(ValueError):
            SolverConfig(scheme="rk4")

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_picard_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="picard_tol"):
            SolverConfig(picard_tol=tol)

    @pytest.mark.parametrize("r,T", [(1.0, float("inf")), (float("nan"), 1.0)])
    def test_non_finite_delay_or_horizon(self, r, T):
        eta = eta_from_callable(lambda t: np.array([1.0]), 1.0, 16, 1)
        coeffs = CoefficientSet.from_strings(["0"], [["0"]])
        with pytest.raises(ValueError, match="finite"):
            Problem(eta=eta, coeffs=coeffs, r=r, T=T)


# SHA-256 of the bytes of x, y and z per path, Picard iterations and final
# residuals (float.hex), for the bundled configs at n_r = 64 with 2 paths.
GOLDEN = {
    ("linear_a.cfg", "constant"): [
        (("a71c5097720c7288f85c5c7a75a834820ee9795cd33349029ffc66dd0cc81a21",
          "d5fe696dc1aa5c0a800bf800ce8fc6e26ab622c7dd7de4b9fd0c304fe4036256",
          "a71c5097720c7288f85c5c7a75a834820ee9795cd33349029ffc66dd0cc81a21"), [], []),
        (("e9cd1ae3d846c1106018c3b2138b54f6df82b1e01f8c27f8f235db639628e5e9",
          "d5fe696dc1aa5c0a800bf800ce8fc6e26ab622c7dd7de4b9fd0c304fe4036256",
          "e9cd1ae3d846c1106018c3b2138b54f6df82b1e01f8c27f8f235db639628e5e9"), [], []),
    ],
    ("nonlinear_b.cfg", "constant"): [
        (("a5052eee30d845ee4c94eecedfeb66b333038fba32c16fc409cb39efcdb2105c",
          "ec5711a7d99533f024e2e92d310afc7551cb2cbd6bec73db74426aedd14e5774",
          "6e53d8d224430daab85bb888b0735ddad55782179764441491cb31df5e068ba4"),
         [7, 12, 13], ["0x1.ae7e200000000p-35", "0x1.af64800000000p-34", "0x1.c320800000000p-35"]),
        (("016f8af8f9dcdfc8d4f8e79812e6d063a5f367fe832fc0599ee87ec9eebbae7b",
          "4bb829b94b8d0e35b85f824f917dae9e85caa8ec2f3f33c3bcdd6a3a8acfefcb",
          "fe66403b536a730f3749e1d4aa983ca8feb830d02d2d64fe046145386eb79858"),
         [10, 13, 12], ["0x1.a000000000000p-39", "0x1.af6d000000000p-36", "0x1.9720000000000p-37"]),
    ],
    ("nonlinear_b.cfg", "linear"): [
        (("d436a30bae737195e9bd005f5908a9886ad91b0ba2ec4021da8341d743b67a21",
          "ec5711a7d99533f024e2e92d310afc7551cb2cbd6bec73db74426aedd14e5774",
          "8ac2e5432d03810ee6010cbe9c30eabc1ced3f1b03d8eaf414578cbe6f6ddecd"),
         [7, 12, 14], ["0x1.ae7e200000000p-35", "0x1.9027000000000p-34", "0x1.6c52000000000p-37"]),
        (("37c797f8f387d9d34e04f7cc13c258d6b62e9e7a5f7fb41800db5cad7f70a5e5",
          "4bb829b94b8d0e35b85f824f917dae9e85caa8ec2f3f33c3bcdd6a3a8acfefcb",
          "4a5e4c38633c882e22a0c6546fe05c9bb9caafc40cbed34aa8aee527843bb824"),
         [10, 13, 13], ["0x1.a000000000000p-39", "0x1.25a4400000000p-34", "0x1.1818800000000p-34"]),
    ],
}


class TestGolden:
    @pytest.mark.parametrize("name,initial", sorted(GOLDEN))
    def test_bundled_config_bytes(self, name, initial):
        cfg = load_config(str(resources.files("refsde") / "configs" / name), steps_per_delay=64)
        mc = solve_stochastic(cfg.problem, replace(cfg.solver, initial_iterate=initial), 2)
        assert not mc.failures
        got = [
            (tuple(hashlib.sha256(sp.values.tobytes()).hexdigest() for sp in (s.x, s.y, s.z)),
             s.iterations_per_interval, [r.hex() for r in s.final_residuals])
            for s in mc.solutions
        ]
        assert got == GOLDEN[(name, initial)]

    def test_non_dyadic_delay_reads_grid_value(self):
        # r = 0.3 is not a dyadic multiple of dt; the delayed state must be
        # the grid value x[k - n_r], not an interpolation from a float position
        n_r, r = 64, 0.3
        eta = eta_from_callable(lambda t: np.array([1.0 + t * t]), r, n_r, 1)
        p = Problem(eta=eta, coeffs=CoefficientSet.from_strings(["xd1"], [["0"]]), r=r, T=3 * r)
        sol = solve_euler(p, zero_driver(p, n_r), SolverConfig(steps_per_delay=n_r))
        dt = sol.grid.dt
        x = np.zeros(sol.grid.n_steps + 1)
        x[: n_r + 1] = eta.values[:, 0]
        for k in range(n_r, sol.grid.n_steps):
            x[k + 1] = x[k] + x[k - n_r] * dt
        assert np.array_equal(sol.x.values[:, 0], x)


# SHA-256 of the bytes of x, y and z per path from the Euler step loop
# (_euler_steps), recorded before the coefficients were compiled:
# (problem, paths) -> one (x, y, z) triple per path.
STATE_EULER_GOLDEN = {
    ("nonlinear_b", 1): [
        ("533075285b08def73dc4366b79d3e1249e794d5c3a9b1c4bd7d1d592d7a5a34a",
         "dc8138cda54f46c0ee3098d5028983c16b8c95de1cf73429fb29a161ed8a3720",
         "750858d1aacf05c97434f3598b32f9bbb96b6ec932605a7e3f3568f85f28d8cd"),
    ],
    ("nonlinear_b", 3): [
        ("533075285b08def73dc4366b79d3e1249e794d5c3a9b1c4bd7d1d592d7a5a34a",
         "dc8138cda54f46c0ee3098d5028983c16b8c95de1cf73429fb29a161ed8a3720",
         "750858d1aacf05c97434f3598b32f9bbb96b6ec932605a7e3f3568f85f28d8cd"),
        ("d0ef145c9685cd145c7cf3648ba6ccec4c52d22618add1e5184874f9527dc91c",
         "d3514e0fdd176535f20ab43470afdbf1de44622618f81fbe108567812a043ba0",
         "33fcde929b641112203b36e846af9c718cb2f5e6e70698ae6524b7c69d4758a3"),
        ("fa166f610f6a392405f71141592e2a90ee6368b9893b1dc8ebcf70622ca29271",
         "10ceaee90094010886a429453f61d959a3a4fe0b6344a3c3b1a11ced5d470859",
         "b7c6c4e35f7e84c6aa6cfc87143608e97255b890d026d509ddec0e40a69256a0"),
    ],
    ("two_dim", 2): [
        ("f97ee32562eb5ca584030508966cdedd27a4b7653b3ad400cc7fc903556f4804",
         "1d830c8af4ff60b1ec36350ea25d99c4247d5d040d8d2c9acbe28011ebb9039e",
         "f97ee32562eb5ca584030508966cdedd27a4b7653b3ad400cc7fc903556f4804"),
        ("451a6e4a8194431ea41ab6284f79543f5d634e0cd39cfd153a6d89887d4133e7",
         "1d830c8af4ff60b1ec36350ea25d99c4247d5d040d8d2c9acbe28011ebb9039e",
         "451a6e4a8194431ea41ab6284f79543f5d634e0cd39cfd153a6d89887d4133e7"),
    ],
    ("pinned", 2): [
        ("afbe0e18340dbf1eaf717a7457fefa375e06fb8e05ac1f96b151b1f86baca0fd",
         "00ac2e9037469aaf43040f18a0d9dce66fe06c6da70ce05b83973ccd40996a64",
         "f45ef61ab338a4f5d02b0993c02ebbf1aea9379058fae45d29e0712f5fa877ad"),
        ("934ee56ad6539fb9e5c276ecee2f3985f2d252d22acd690108bda80313c6bd58",
         "5af6bdfad5f2ff758d1efc4ba94d01cecd2c608bed3b89ee7793db8f3ca100a0",
         "6545becf3a46030907d688991cf73e998af8f7d92f29111a2654d963508963ad"),
    ],
}


class TestStateEulerGolden:
    @pytest.mark.parametrize("name,paths", sorted(STATE_EULER_GOLDEN))
    def test_step_loop_bytes(self, name, paths, monkeypatch):
        steps = []

        def counted(*args):
            steps.append(None)
            return euler_steps(*args)

        euler_steps = solver._euler_steps
        monkeypatch.setattr(solver, "_euler_steps", counted)
        if name == "nonlinear_b":
            run = load_config(str(resources.files("refsde") / "configs" / "nonlinear_b.cfg"),
                              steps_per_delay=64)
            p, cfg = run.problem, replace(run.solver, scheme="euler")
        elif name == "two_dim":  # exp, a negative power, / and the running sups
            p = lane_problem(["exp(-x1) * (1 + xd2) ^ -2 / (1 + s1)",
                              "(x1 + 1) ^ -0.5 - x2 / (2 + s2)"], TWO_DIM[1], 32)
            cfg = SolverConfig(steps_per_delay=32, seed=3)
        else:  # the regulator holds x at 0 nearly throughout
            p = lane_problem(["-1 - 0.5 * cos(x1)"], [["0.3"]], 32, eta0=0.0)
            cfg = SolverConfig(steps_per_delay=32, seed=3)
        mc = solve_stochastic(p, cfg, paths)
        assert steps and not mc.failures
        got = [tuple(hashlib.sha256(sp.values.tobytes()).hexdigest() for sp in (s.x, s.y, s.z))
               for s in mc.solutions]
        assert got == STATE_EULER_GOLDEN[(name, paths)]


class TestPathFailures:
    @pytest.mark.parametrize("scheme", ["euler", "picard"])
    def test_blow_up_names_its_component(self, scheme):
        # only the second component's drift overflows z
        p = delay_problem(["0", "1e308"], [["0"], ["0"]], 8, M=2)
        with pytest.raises(BlowUpError) as exc:
            solve(p, zero_driver(p, 8), SolverConfig(steps_per_delay=8, scheme=scheme))
        assert exc.value.component == 2
        assert str(exc.value).startswith("non-finite state at step ")
        assert str(exc.value).endswith(", component 2)")

    def test_programming_error_propagates(self):
        # a parameter that is not a number makes the drift raise TypeError
        # inside the lane pass, which is not a path failure
        coeffs = CoefficientSet.from_strings(["a * xd1"], [["0.1"]], params={"a": None})
        p = replace(linear_problem(32), coeffs=coeffs)
        with pytest.raises(TypeError):
            solve_stochastic(p, SolverConfig(steps_per_delay=32), 2)

    def test_picard_failure_recorded_against_its_path(self):
        # at seed 12 only the second of three paths needs more than 10
        # iterations on some delay interval
        cfg = SolverConfig(steps_per_delay=32, scheme="picard", seed=12, picard_max_iter=10)
        mc = solve_stochastic(nonlinear_problem(32), cfg, 3)
        assert list(mc.failures) == [1]
        assert isinstance(mc.failures[1], PicardConvergenceError)
        assert mc.solutions[1] is None
        assert mc.n_ok == 2


def euler_per_step(p, g, cfg, scan="x"):
    """solve_euler's per-step loop on one path, as it ran for every drift
    before delay-only drifts were stepped an interval at a time and before
    the solver gained its lane axis; the oracle for that path.  Like the
    solver it evaluates the coefficients unchecked and stops at the first
    non-finite x; with scan="z", at the first non-finite z, as the solver
    did before it scanned x."""
    n_r = cfg.steps_per_delay
    grid = TimeGrid(-p.r, p.T, (p.n_intervals + 1) * n_r)
    times, dt = grid.times, grid.dt
    x = np.zeros((grid.n_steps + 1, p.d))
    x[: n_r + 1] = p.eta.values
    z = x.copy()
    y = np.zeros_like(x)
    sups = np.empty_like(x)
    sups[: n_r + 1] = np.maximum.accumulate(np.abs(p.eta.values), axis=0)
    dg = np.diff(g.values, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(n_r, grid.n_steps, n_r):
            i1 = i0 + n_r
            sig = diffusion_values(p.coeffs, times[i0:i1], x[i0 - n_r : i1 - n_r])
            sig_dg = _cell_products(sig, dg[i0 - n_r : i1 - n_r])
            for k in range(i0, i1):
                b = drift_values(p.coeffs, float(times[k]), x[k], x[k - n_r], sups[k])
                z[k + 1] = z[k] + b * dt + sig_dg[k - i0]
                y[k + 1] = np.maximum(y[k], np.maximum(-z[k + 1], 0.0))
                x[k + 1] = z[k + 1] + y[k + 1]
                sups[k + 1] = np.maximum(sups[k], np.abs(x[k + 1]))
                bad = ~np.isfinite((x if scan == "x" else z)[k + 1])
                if bad.any():
                    raise BlowUpError(k + 1 - n_r, float(times[k + 1]), int(np.argmax(bad)) + 1)
    return x, y, z


def delay_problem(drift, diffusion, n_r, r=1.0, eta0=1.0, M=3):
    coeffs = CoefficientSet.from_strings(drift, diffusion)
    eta = eta_from_callable(lambda t: np.full(coeffs.d, eta0), r, n_r, coeffs.d)
    return Problem(eta=eta, coeffs=coeffs, r=r, T=M * r)


def failure(fn, p, g, cfg):
    try:
        fn(p, g, cfg)
    except (BlowUpError, ValueError) as exc:
        return type(exc), getattr(exc, "step", None), str(exc)
    return None


DELAY_ONLY = {
    "linear": (["xd1"], [["0.2 * xd1 + 0.1"]], 1.0, 1.0),
    "pinned": (["-1"], [["0.3"]], 1.0, 0.0),  # regulator active from the first step
    "two_dim": (["-exp(xd1) + cos(3*t)", "xd1 - xd2"],
                [["0.2 * xd1", "0.1"], ["sin(xd2)", "0.3"]], 1.0, 1.0),
    "non_dyadic": (["xd1"], [["0.2 * xd1 + 0.1"]], 0.3, 1.0),
}


class TestDelayOnlyEuler:
    @pytest.mark.parametrize("n_r", [64, 256])
    @pytest.mark.parametrize("case", sorted(DELAY_ONLY))
    def test_bytes_match_per_step_loop(self, case, n_r):
        drift, diffusion, r, eta0 = DELAY_ONLY[case]
        p = delay_problem(drift, diffusion, n_r, r=r, eta0=eta0)
        cfg = SolverConfig(steps_per_delay=n_r)
        for seed in (1, 2):
            g = sample_circulant(driver_grid(p, n_r), 0.75, p.m, seed=seed)
            sol = solve_euler(p, g, cfg)
            for got, want in zip((sol.x, sol.y, sol.z), euler_per_step(p, g, cfg)):
                assert np.array_equal(got.values, want)
                assert got.values.tobytes() == want.tobytes()  # signed zeros too

    @pytest.mark.parametrize("drift,calls", [("xd1 + cos(t)", 3), ("xd1 + x1", 3 * 16)])
    def test_one_drift_call_per_interval(self, monkeypatch, drift, calls):
        seen = []

        def counted(*args):
            seen.append(None)
            return eval_drift(*args)

        monkeypatch.setattr(solver, "eval_drift", counted)
        p = delay_problem([drift], [["0"]], 16)
        solve_euler(p, zero_driver(p, 16), SolverConfig(steps_per_delay=16))
        assert len(seen) == calls

    @pytest.mark.parametrize("drift,n_r,kind", [
        ("1e308", 32, BlowUpError),  # a finite drift overflows z
        ("(1.5 - t) ^ 0.5", 32, BlowUpError),  # the drift turns non-finite mid-interval
        # z overflows at t = 1.875 on the step before the drift turns
        # non-finite, and that first non-finite z is the one reported
        ("1e308 + (1.8 - t) ^ 0.5", 8, BlowUpError),
    ])
    def test_same_failure_same_step(self, drift, n_r, kind):
        p = delay_problem([drift], [["0"]], n_r, M=2)
        g, cfg = zero_driver(p, n_r), SolverConfig(steps_per_delay=n_r)
        want = failure(euler_per_step, p, g, cfg)
        assert want is not None and want[0] is kind
        assert failure(solve_euler, p, g, cfg) == want


def per_path(p, cfg, n_paths):
    """solve_stochastic's loop over paths, one solve per path, as it ran
    before the solver gained its lane axis; the oracle for the lanes."""
    grid = driver_grid(p, cfg.steps_per_delay)
    out = []
    for i in range(n_paths):
        g = sample_circulant(grid, p.H, p.m, seed=(cfg.seed, i))
        try:
            out.append(solve(p, g, cfg))
        except (BlowUpError, PicardConvergenceError, ValueError) as exc:
            out.append(exc)
    return out


def error_facts(exc):
    residual = getattr(exc, "residual", None)
    return (type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "interval", None),
            None if residual is None else residual.hex())


def solution_facts(sol):
    return ([sp.values.tobytes() for sp in (sol.x, sol.y, sol.z)],
            sol.iterations_per_interval, [r.hex() for r in sol.final_residuals])


def assert_lanes_match_paths(p, cfg, n_paths):
    """solve_stochastic gives each path the bytes, Picard statistics or
    failure of its own solve; returns the Monte Carlo result."""
    mc = solve_stochastic(p, cfg, n_paths)
    want = per_path(p, cfg, n_paths)
    assert sorted(mc.failures) == [i for i, w in enumerate(want) if isinstance(w, Exception)]
    for i, w in enumerate(want):
        if isinstance(w, Exception):
            assert mc.solutions[i] is None
            assert error_facts(mc.failures[i]) == error_facts(w)
        else:
            assert solution_facts(mc.solutions[i]) == solution_facts(w)
    return mc


def lane_problem(drift, diffusion, n_r, r=1.0, eta0=1.0, M=3):
    return replace(delay_problem(drift, diffusion, n_r, r=r, eta0=eta0, M=M), H=0.75)


TWO_DIM = (["cos(x1) - 0.5 * xd2", "sin(x2) * xd1 - s1"],
           [["0.2 * xd1", "0.1"], ["sin(xd2)", "0.3"]])

# Configs on which some lanes fail and others do not, at seed 1 with 8
# paths: (drift, diffusion, scheme, picard_max_iter, the kinds of failure).
# A non-finite drift or diffusion ends as BlowUpError at the first
# non-finite x.
PARTIAL_FAILURES = {
    "overflow_delay_only": (["xd1"], [["1e308"]], "euler", 100, {BlowUpError}),
    "overflow_state": (["cos(x1)"], [["1e308"]], "euler", 100, {BlowUpError}),
    "overflow_picard": (["cos(x1)"], [["1e308"]], "picard", 100, {BlowUpError}),
    "drift_row_delay_only": (["(2 - xd1) ^ 0.5 - 1"], [["0.5"]], "euler", 100, {BlowUpError}),
    "drift_row_state": (["(2 - x1) ^ 0.5 - 1"], [["0.5"]], "euler", 100, {BlowUpError}),
    "drift_row_picard": (["(2 - x1) ^ 0.5 - 1"], [["0.5"]], "picard", 100, {BlowUpError}),
    "drift_rows_state": (["(2 - x1) ^ 0.5 - 1"], [["0.8"]], "euler", 100, {BlowUpError}),
    "drift_rows_picard": (["(2 - x1) ^ 0.5 - 1"], [["0.8"]], "picard", 100, {BlowUpError}),
    "diffusion_row": (["0"], [["(2 - xd1) ^ 0.5"]], "euler", 100, {BlowUpError}),
    "picard_max_iter": (["cos(x1)"], [["sin(t + xd1)"]], "picard", 13, {PicardConvergenceError}),
}
# The cases in which two lanes fail at different steps of one interval.
SAME_INTERVAL = ["drift_rows_state", "drift_rows_picard"]


class TestLanes:
    @pytest.mark.parametrize("name,initial", sorted(GOLDEN))
    def test_bundled_configs(self, name, initial):
        cfg = load_config(str(resources.files("refsde") / "configs" / name), steps_per_delay=64)
        mc = assert_lanes_match_paths(cfg.problem, replace(cfg.solver, initial_iterate=initial), 6)
        assert mc.n_ok == 6

    @pytest.mark.parametrize("scheme", ["euler", "picard"])
    @pytest.mark.parametrize("drift,diffusion,r", [
        (["-exp(xd1) + cos(3*t)"], [["0.2 * xd1 + 0.1"]], 1.0),  # delay-only
        (["cos(x1)"], [["sin(t + xd1)"]], 1.0),  # state-dependent
        (["cos(x1)"], [["sin(t + xd1)"]], 0.3),  # non-dyadic delay
        TWO_DIM + (1.0,),  # d = m = 2: the per-cell products sum two driver slots
    ], ids=["delay_only", "cos_x1", "r_0.3", "two_dim"])
    def test_lanes_equal_paths(self, scheme, drift, diffusion, r):
        p = lane_problem(drift, diffusion, 32, r=r)
        mc = assert_lanes_match_paths(p, SolverConfig(steps_per_delay=32, scheme=scheme, seed=3), 5)
        assert mc.n_ok == 5

    def test_chunks(self, monkeypatch):
        passes = []

        def counted(p, gs, cfg):
            passes.append(len(gs))
            return solve_lanes(p, gs, cfg)

        solve_lanes = solver._solve_lanes
        monkeypatch.setattr(solver, "_solve_lanes", counted)
        p = lane_problem(["cos(x1)"], [["sin(t + xd1)"]], 32)
        lane_bytes = 8 * (4 * 32 + 1) * (4 + 1)  # x, y, z, sups and the driver on 129 rows
        monkeypatch.setattr(solver, "_LANE_BYTES", 2 * lane_bytes)
        for scheme in ("euler", "picard"):
            passes.clear()
            assert_lanes_match_paths(p, SolverConfig(steps_per_delay=32, scheme=scheme, seed=4), 7)
            assert passes[:4] == [2, 2, 2, 1]  # then one per path from the oracle

    @pytest.mark.parametrize("case", sorted(PARTIAL_FAILURES))
    def test_failing_lanes(self, case, monkeypatch):
        calls = []

        def counted(p, times, x, dg, i0, i1, n_r):
            calls.append((i0, x.shape[1]))
            return increments(p, times, x, dg, i0, i1, n_r)

        increments = solver._batched_diffusion_increments
        monkeypatch.setattr(solver, "_batched_diffusion_increments", counted)
        drift, diffusion, scheme, max_iter, kinds = PARTIAL_FAILURES[case]
        p = lane_problem(drift, diffusion, 16)
        cfg = SolverConfig(steps_per_delay=16, scheme=scheme, seed=1, picard_max_iter=max_iter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = assert_lanes_match_paths(p, cfg, 8)
        assert 0 < len(mc.failures) < 8
        assert {type(exc) for exc in mc.failures.values()} == kinds
        # the lane pass steps each delay interval once, failures or not;
        # then come the one-lane solves of the oracle
        assert [i0 for i0, _ in calls[:3]] == [16, 32, 48]
        assert calls[3] == (16, 1)
        if case in SAME_INTERVAL:
            steps: dict = {}
            for exc in mc.failures.values():
                steps.setdefault((exc.step - 1) // 16, set()).add(exc.step)
            assert max(map(len, steps.values())) >= 2

    @pytest.mark.parametrize("scheme,ok", [("euler", [0, 1, 4, 8, 9, 16]),
                                           ("picard", [0, 1, 4, 9, 16])])
    def test_x_overflow_fails_its_lane_alone(self, scheme, ok):
        # once y has taken up a z near -1e308, x = z + y can overflow while z
        # stays finite: the lane fails at that row of x, as its own solve does,
        # and the other lanes of the chunk go on
        p = lane_problem(["0"], [["1e308"]], 64, M=4)
        cfg = SolverConfig(steps_per_delay=64, scheme=scheme, seed=1)
        mc = assert_lanes_match_paths(p, cfg, 20)
        assert [i for i, sol in enumerate(mc.solutions) if sol is not None] == ok
        assert {type(exc) for exc in mc.failures.values()} == {BlowUpError}
        if scheme == "euler":  # the per-step oracle, and where z alone would miss the failure
            grid = driver_grid(p, 64)
            gs = [sample_circulant(grid, 0.75, 1, seed=(1, i)) for i in range(20)]
            for g in gs:
                assert failure(euler_per_step, p, g, cfg) == failure(solve, p, g, cfg)
            for i in (12, 19):  # z is finite on the whole grid; x is not
                x, _, z = euler_per_step(p, gs[i], cfg, scan="z")
                assert np.isfinite(z).all()
                assert mc.failures[i].step == np.flatnonzero(~np.isfinite(x[:, 0]))[0] - 64


    def test_unread_sups_are_skipped(self, monkeypatch):
        # Picard takes the running sups of |u| only for a drift that reads
        # s1..sd; taking them anyway gives the same bytes and statistics
        p = lane_problem(["cos(x1)"], [["sin(t + xd1)"]], 32)
        cfg = SolverConfig(steps_per_delay=32, scheme="picard", seed=3)
        skipped = solve_stochastic(p, cfg, 4)
        asked = []
        picard = solver._picard_interval

        def always(*args, reads_sups):
            asked.append(reads_sups)
            return picard(*args, reads_sups=True)

        monkeypatch.setattr(solver, "_picard_interval", always)
        taken = solve_stochastic(p, cfg, 4)
        assert asked and not any(asked)
        for name in "xyz":
            assert getattr(taken, name).tobytes() == getattr(skipped, name).tobytes()
        assert (taken.iterations, taken.residuals) == (skipped.iterations, skipped.residuals)
        solve_stochastic(lane_problem(*TWO_DIM, 32), cfg, 2)  # its second drift reads s1
        assert asked[-1] is True


def invariants_per_path(sol):
    """check_invariants as it was before it had lanes: numpy's own sums of
    one path's arrays; the oracle of the lane form."""
    t0 = sol.grid.index_of(0.0)
    x, y, z = sol.x.values, sol.y.values, sol.z.values
    residual = float(np.max((x[t0:-1] * np.diff(y[t0:], axis=0)).sum(axis=0), initial=0.0))
    increase = float(np.max(y[-1] - y[t0]))
    bound = 10.0 * sol.grid.dt * float(np.abs(x).max()) * max(increase, sol.grid.dt)
    return {
        "x_nonnegative": bool(x.min() >= -1e-12),
        "y_starts_at_zero": bool(np.all(y[t0] == 0.0)),
        "y_nondecreasing": bool(np.all(np.diff(y[t0:], axis=0) >= 0.0)),
        "x_equals_z_plus_y": bool(np.array_equal(x[t0:], z[t0:] + y[t0:])),
        "regulator_consistent": bool(np.array_equal(np.maximum.accumulate(np.maximum(-z[t0:], 0.0)), y[t0:])),
        "complementarity_residual": residual,
        "complementarity_ok": bool(residual <= bound),
        "min_x": float(x.min()),
    }


class TestLaneInvariants:
    # a drift row that turns nan above x1 = 1 and pulls hard towards 0 below
    # it: at seed 6 one of 8 lanes fails; at seed 2 none does, and the lanes
    # reflect so often that numpy's sum of a lane's complementarity terms in
    # another order than a lone path's differs in its last bits
    CASES = {1: (["(1 - x1) ^ 0.5 - 2.5"], [["0.8"]]),
             2: (["(1 - x1) ^ 0.5 - 2.5", "-2 - x1 * xd2"], [["0.8", "0.1"], ["0.2", "0.9"]])}

    @pytest.mark.parametrize("seed,failed", [(2, 0), (6, 1)])
    @pytest.mark.parametrize("scheme", ["euler", "picard"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_lanes_match_per_path(self, d, scheme, seed, failed):
        p = lane_problem(*self.CASES[d], 16, eta0=0.5)
        mc = solve_stochastic(p, SolverConfig(steps_per_delay=16, scheme=scheme, seed=seed), 8)
        assert len(mc.failures) == failed and (mc.y[-1] > 0.0).any()
        lanes = solver._lane_invariants(mc.grid, mc.x, mc.y, mc.z)
        assert len(lanes) == mc.n_ok == 8 - failed

        def exact(inv):
            return {k: v.hex() if type(v) is float else v for k, v in inv.items()}

        for i, inv in zip(mc.paths, lanes):
            sol = mc.solutions[i]
            assert exact(inv) == exact(check_invariants(sol)) == exact(invariants_per_path(sol))
            assert all(v for k, v in inv.items() if type(v) is bool)


# State-dependent drifts of the Euler step loop: (drift, diffusion, eta0).
STATE_DRIFTS = {
    "cos_x1": (["cos(x1)"], [["0.2 * xd1 + 0.1"]], 1.0),
    "exp_ratio": (["exp(-x1) * xd1 ^ 2 / (1 + s1)"], [["0.3"]], 1.0),
    "two_dim": TWO_DIM + (1.0,),
    "stiff": (["-200 * x1"], [["0.2 * xd1 + 0.1"]], 0.0),  # 200 dt > 2: x bounces off 0
}


class TestStateEuler:
    @pytest.mark.parametrize("n_r", [32, 64])
    @pytest.mark.parametrize("case", sorted(STATE_DRIFTS))
    def test_bytes_match_per_step_loop(self, case, n_r):
        drift, diffusion, eta0 = STATE_DRIFTS[case]
        p = delay_problem(drift, diffusion, n_r, eta0=eta0)
        cfg = SolverConfig(steps_per_delay=n_r)
        for seed in (1, 2):
            g = sample_circulant(driver_grid(p, n_r), 0.75, p.m, seed=seed)
            sol = solve_euler(p, g, cfg)
            for got, want in zip((sol.x, sol.y, sol.z), euler_per_step(p, g, cfg)):
                assert got.values.tobytes() == want.tobytes()  # signed zeros too

    @pytest.mark.parametrize("drift", [
        "(1.5 - x1) ^ 0.5",  # x crosses 1.5 mid-interval and the drift turns nan
        "1e308 * x1",  # the drift overflows once x has grown
    ])
    def test_same_failure_same_step(self, drift):
        p = delay_problem([drift], [["0.5"]], 32, M=2)
        cfg = SolverConfig(steps_per_delay=32)
        for seed in (1, 3):  # at seed 2 x stays below 1.5
            g = sample_circulant(driver_grid(p, 32), 0.75, 1, seed=seed)
            want = failure(euler_per_step, p, g, cfg)
            assert want is not None and want[0] is BlowUpError
            assert want[1] % 32 not in (0, 1)  # neither an interval's first step nor its last
            assert failure(solve_euler, p, g, cfg) == want


class TestInitialSegment:
    @pytest.mark.parametrize("scheme", ["euler", "picard"])
    @pytest.mark.parametrize("drift", ["cos(x1)", "xd1"], ids=["state", "delay_only"])
    def test_rows_on_minus_r_to_0_are_eta(self, scheme, drift):
        # eta = -t is -0.0 at t = 0, and x and z keep that sign
        n_r = 16
        eta = eta_from_callable(lambda t: np.array([-t]), 1.0, n_r, 1)
        p = Problem(eta=eta, coeffs=CoefficientSet.from_strings([drift], [["0.3"]]), r=1.0, T=2.0)
        g = sample_circulant(driver_grid(p, n_r), 0.75, 1, seed=1)
        sol = solve(p, g, SolverConfig(steps_per_delay=n_r, scheme=scheme))
        assert np.signbit(eta.values[-1, 0])
        for sp in (sol.x, sol.z):
            assert sp.values[: n_r + 1].tobytes() == eta.values.tobytes()


# Each failed path's error facts and one digest of the surviving paths'
# solution facts, recorded while the interval steppers still decided
# failures themselves: every PARTIAL_FAILURES case at n_r = 16 and 64 (8
# paths), and the x-overflow case of TestLanes under both schemes.
LANE_FAILURES = json.loads(Path(__file__).with_name("lane_failures.json").read_text())


def failure_run(key):
    """The Monte Carlo run that a key of LANE_FAILURES names."""
    case, size = key.split("/")
    if case == "x_overflow":
        p = lane_problem(["0"], [["1e308"]], 64, M=4)
        return solve_stochastic(p, SolverConfig(steps_per_delay=64, scheme=size, seed=1), 20)
    drift, diffusion, scheme, max_iter, _ = PARTIAL_FAILURES[case]
    n_r = int(size)
    cfg = SolverConfig(steps_per_delay=n_r, scheme=scheme, seed=1, picard_max_iter=max_iter)
    return solve_stochastic(lane_problem(drift, diffusion, n_r), cfg, 8)


def lane_record(mc):
    """A run's entry of LANE_FAILURES, as JSON reads it back."""
    digest = hashlib.sha256()
    for i, sol in enumerate(mc.solutions):
        if sol is not None:
            digest.update(repr((i, solution_facts(sol))).encode())
    return {"failures": [[i, type(exc).__name__, *error_facts(exc)[1:]] for i, exc in mc.failures.items()],
            "survivors": digest.hexdigest()}


class TestRecordedFailures:
    @pytest.mark.parametrize("key", sorted(LANE_FAILURES))
    def test_failures_as_recorded(self, key):
        assert lane_record(failure_run(key)) == LANE_FAILURES[key]
