import numpy as np
import pytest

from refsde.fbm import sample_circulant
from refsde.grids import SamplePath, TimeGrid
from refsde.young import young_integral

from conftest import path_on


class TestYoungIntegral:
    def test_constant_integrand_exact(self):
        g = path_on(0.0, 1.0, 100, lambda t: np.sin(t) + t ** 2)
        f = path_on(0.0, 1.0, 100, lambda t: np.ones_like(t))
        for scheme in ("left_point", "trapezoid"):
            val = young_integral(f, g, scheme).path.values[:, 0]
            assert np.allclose(val, g.values[:, 0] - g.values[0, 0], atol=1e-14)

    def test_calculus_oracle(self):
        n = 4096
        f = path_on(0.0, 1.0, n, lambda t: t)
        g = path_on(0.0, 1.0, n, lambda t: t ** 2)
        left = young_integral(f, g, "left_point").at_end()[0]
        trap = young_integral(f, g, "trapezoid").at_end()[0]
        assert left == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert trap == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_chain_rule_refinement(self):
        fine = sample_circulant(TimeGrid(0.0, 1.0, 1 << 12), 0.75, 1, seed=3)
        errs = []
        for k in (2, 1, 0):
            sub = SamplePath(TimeGrid(0.0, 1.0, (1 << 12) >> k), fine.values[:: 1 << k])
            got = young_integral(sub, sub, "left_point").at_end()[0]
            want = 0.5 * (sub.values[-1, 0] ** 2 - sub.values[0, 0] ** 2)
            errs.append(abs(got - want))
        assert errs[2] < errs[1] < errs[0]

    def test_trapezoid_exact_for_g_dg(self):
        g = sample_circulant(TimeGrid(0.0, 1.0, 512), 0.8, 1, seed=4)
        got = young_integral(g, g, "trapezoid").at_end()[0]
        assert got == pytest.approx(0.5 * (g.values[-1, 0] ** 2), rel=1e-12)

    def test_matrix_vector_pairing(self):
        n = 64
        grid = TimeGrid(0.0, 1.0, n)
        rng = np.random.default_rng(0)
        fm = rng.standard_normal((n + 1, 2, 3))
        g = SamplePath(grid, rng.standard_normal((n + 1, 3)))
        out = young_integral(fm, g, "left_point").path.values
        assert out.shape == (n + 1, 2)
        dg = np.diff(g.values, axis=0)
        want = np.cumsum(np.einsum("kdm,km->kd", fm[:-1], dg), axis=0)
        assert np.allclose(out[1:], want, atol=1e-12)

    def test_linearity(self):
        f1 = path_on(0.0, 1.0, 128, lambda t: np.sin(t))
        f2 = path_on(0.0, 1.0, 128, lambda t: np.cos(3 * t))
        g = path_on(0.0, 1.0, 128, lambda t: t ** 1.5)
        s = SamplePath(f1.grid, 2.0 * f1.values - f2.values)
        lhs = young_integral(s, g, "left_point").path.values
        rhs = (2.0 * young_integral(f1, g, "left_point").path.values
               - young_integral(f2, g, "left_point").path.values)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_additivity_bit_exact(self):
        g = sample_circulant(TimeGrid(0.0, 1.0, 256), 0.7, 1, seed=5)
        f = path_on(0.0, 1.0, 256, lambda t: np.cos(t))
        cum = young_integral(f, g, "left_point").path.values[:, 0]
        # partial sums: value at T equals value at t plus the tail sum,
        # accumulated in the same left-to-right order as the integral
        k = 100
        tail = f.values[k:-1, 0] * np.diff(g.values[k:, 0])
        acc = cum[k]
        for term in tail:
            acc += term
        assert cum[-1] == acc

    def test_starts_at_zero(self):
        g = path_on(0.0, 1.0, 32, lambda t: t)
        f = path_on(0.0, 1.0, 32, lambda t: t)
        assert young_integral(f, g, "trapezoid").path.values[0, 0] == 0.0

    def test_integration_by_parts_refinement(self):
        # with f = g the residual is sum((dg)^2), which shrinks like
        # n^(1-2H) under refinement; independent pairs give a signed sum
        # whose magnitude need not decrease monotonically at one seed
        gf = sample_circulant(TimeGrid(0.0, 1.0, 1 << 12), 0.75, 1, seed=7)
        res = []
        for k in (2, 1, 0):
            stride = 1 << k
            g = SamplePath(TimeGrid(0.0, 1.0, (1 << 12) >> k), gf.values[::stride])
            fg = young_integral(g, g, "left_point").at_end()[0]
            boundary = g.values[-1, 0] ** 2 - g.values[0, 0] ** 2
            res.append(abs(2.0 * fg - boundary))
        assert res[2] < res[1] < res[0]

    def test_grid_mismatch(self):
        f = path_on(0.0, 1.0, 32, lambda t: t)
        g = path_on(0.0, 1.0, 64, lambda t: t)
        with pytest.raises(ValueError):
            young_integral(f, g, "left_point")

    def test_unknown_scheme(self):
        f = path_on(0.0, 1.0, 32, lambda t: t)
        with pytest.raises(ValueError):
            young_integral(f, f, "midpoint")

