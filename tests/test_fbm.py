import tracemalloc

import numpy as np
import pytest
from scipy import stats

import refsde.fbm as fbm
from refsde.fbm import (
    CHOLESKY_CAP,
    _circulant_eigenvalues,
    _component_rng,
    _fgn_autocov,
    HurstParameter,
    empirical_covariance,
    fbm_covariance,
    sample_cholesky,
    sample_circulant,
)
from refsde.grids import SamplePath, TimeGrid


def circulant_per_component(grid, h, m, seed):
    """sample_circulant as it was before its components shared one FFT:
    one transform and one cumulative sum per component."""
    n = grid.n_steps
    size = 1 << max(1, int(np.ceil(np.log2(n))))
    lam, _ = _circulant_eigenvalues(size, h)
    m2 = lam.size
    half = m2 // 2
    out = np.zeros((n + 1, m))
    for j in range(m):
        g = _component_rng(seed, j).standard_normal(m2)
        w = np.empty(m2, dtype=complex)
        w[0] = np.sqrt(lam[0] / m2) * g[0]
        w[half] = np.sqrt(lam[half] / m2) * g[half]
        w[1:half] = np.sqrt(lam[1:half] / (2.0 * m2)) * (g[1:half] + 1j * g[half + 1:])
        w[half + 1:] = np.conj(w[1:half][::-1])
        np.cumsum(grid.dt ** h * np.fft.fft(w).real[:n], out=out[1:, j])
    return out


def fgn_autocov_three_powers(n, h):
    """_fgn_autocov as it was before the powers were shared: one power
    per shift."""
    k = np.arange(n, dtype=float)
    return 0.5 * ((k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))


def circulant_eigenvalues_concat(size, h):
    """_circulant_eigenvalues as it was before the in-place transform:
    a real embedding row, a fresh transform and a clipped copy."""
    rho = fgn_autocov_three_powers(size + 1, h)
    lam = np.fft.fft(np.concatenate([rho[:-1], rho[-1:], rho[-2:0:-1]])).real
    neg = -lam[lam < 0].sum()
    total = np.abs(lam).sum()
    clipped_frac = float(neg / total) if total > 0 else 0.0
    return np.clip(lam, 0.0, None), clipped_frac


class TestInPlaceConstruction:
    @pytest.mark.parametrize("h", [0.5, 0.51, 0.6, 0.75, 0.9, 0.99])
    def test_autocov_bit_equal_to_three_powers(self, h):
        for n in (1, 2, 3, 7, 64, 257, 1025, 2049, 65537, 131073):
            assert np.array_equal(_fgn_autocov(n, h), fgn_autocov_three_powers(n, h))

    @pytest.mark.parametrize("h", [0.5, 0.55, 0.75, 0.95])
    def test_eigenvalues_bit_equal_to_concat(self, h):
        for size in (1 << k for k in range(1, 18)):
            _circulant_eigenvalues.cache_clear()
            lam, clipped = _circulant_eigenvalues(size, h)
            want, want_clipped = circulant_eigenvalues_concat(size, h)
            assert np.array_equal(lam, want) and clipped == want_clipped
            assert lam.flags.c_contiguous and not lam.flags.writeable

    @pytest.mark.parametrize("m, bound", [(1, 4.5), (3, 10.0)])
    def test_traced_peak_of_one_draw(self, m, bound):
        # in units of one float array of the embedding (8 * m2 bytes);
        # the imports are lazy inside numpy, so pay for them first
        import numpy.fft  # noqa: F401
        import numpy.random  # noqa: F401

        n = 1 << 16
        grid = TimeGrid(0.0, 1.0, n)
        _circulant_eigenvalues.cache_clear()
        tracemalloc.start()
        try:
            sample_circulant(grid, 0.75, m, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * (2 * n)


class TestSeedTypes:
    grid = TimeGrid(0.0, 1.0, 50)

    @pytest.mark.parametrize("sampler", [sample_circulant, sample_cholesky])
    @pytest.mark.parametrize("seed", [np.int64(5), np.int32(5)])
    def test_numpy_integer_seed(self, sampler, seed):
        want = sampler(self.grid, 0.75, 2, seed=5).values
        assert np.array_equal(sampler(self.grid, 0.75, 2, seed=seed).values, want)

    @pytest.mark.parametrize("sampler", [sample_circulant, sample_cholesky])
    def test_numpy_integers_in_a_tuple_seed(self, sampler):
        want = sampler(self.grid, 0.75, 2, seed=(7, 3)).values
        got = sampler(self.grid, 0.75, 2, seed=(np.int64(7), 3)).values
        assert np.array_equal(got, want)


class TestComponentBatch:
    @pytest.mark.parametrize("width", [None, 1, 2])
    @pytest.mark.parametrize("n", [7, 63, 101, 1537])
    def test_bit_equal_to_per_component(self, monkeypatch, n, width):
        if width:  # batches of `width` components
            m2 = 2 * (1 << max(1, int(np.ceil(np.log2(n)))))
            monkeypatch.setattr(fbm, "_FFT_ENTRIES", width * m2)
        grid = TimeGrid(0.0, 1.5, n)
        for m in (2, 3):
            got = sample_circulant(grid, 0.7, m, seed=(4, 2)).values
            assert np.array_equal(got, circulant_per_component(grid, 0.7, m, (4, 2)))

    def test_bit_equal_to_per_component_one_long_component(self):
        grid = TimeGrid(0.0, 1.5, (1 << 16) + 1)
        got = sample_circulant(grid, 0.7, 1, seed=(4, 2)).values
        assert np.array_equal(got, circulant_per_component(grid, 0.7, 1, (4, 2)))

    def test_component_is_its_own_stream(self):
        grid = TimeGrid(0.0, 1.0, 99)
        one = sample_circulant(grid, 0.8, 1, seed=(7, 3)).values
        two = sample_circulant(grid, 0.8, 2, seed=(7, 3)).values
        assert np.array_equal(one[:, 0], two[:, 0])


class TestCovariance:
    def test_h_half_is_min(self):
        assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0)

    def test_zero_time(self):
        assert fbm_covariance(0.0, 3.7, 0.8) == 0.0

    def test_direct_value(self):
        assert fbm_covariance(1.0, 2.0, 0.75) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_symmetric(self):
        for s, t in [(0.3, 1.7), (2.0, 0.1), (1.0, 1.0)]:
            assert fbm_covariance(s, t, 0.7) == fbm_covariance(t, s, 0.7)

    def test_diagonal(self):
        assert fbm_covariance(1.3, 1.3, 0.8) == pytest.approx(1.3 ** 1.6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fbm_covariance(-0.1, 1.0, 0.75)


class TestHurstParameter:
    def test_valid(self):
        assert HurstParameter(0.75).value == 0.75

    @pytest.mark.parametrize("h", [0.5, 1.0, 0.2, 1.3])
    def test_out_of_range(self, h):
        with pytest.raises(ValueError):
            HurstParameter(h)


class TestCholesky:
    grid = TimeGrid(0.0, 1.0, 64)

    def test_deterministic(self):
        a = sample_cholesky(self.grid, 0.75, 3, seed=42)
        b = sample_cholesky(self.grid, 0.75, 3, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_seed_sensitivity(self):
        a = sample_cholesky(self.grid, 0.75, 1, seed=1)
        b = sample_cholesky(self.grid, 0.75, 1, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_starts_at_zero(self):
        p = sample_cholesky(self.grid, 0.6, 5, seed=0)
        assert np.all(p.values[0] == 0.0)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            sample_cholesky(TimeGrid(0.0, 1.0, CHOLESKY_CAP + 1), 0.75, 1, seed=0)

    def test_covariance_small_ensemble(self):
        # light version of the acceptance-scale check
        grid = TimeGrid(0.0, 1.0, 16)
        paths = sample_cholesky(grid, 0.7, 5000, seed=3)
        t = grid.times
        emp = paths.values @ paths.values.T / 5000
        ana = 0.5 * (t[:, None] ** 1.4 + t[None, :] ** 1.4
                     - np.abs(t[:, None] - t[None, :]) ** 1.4)
        var = np.diag(ana)
        se = np.sqrt((np.outer(var, var) + ana ** 2) / 5000)
        dev = np.abs(emp - ana)[1:, 1:] / se[1:, 1:]
        assert dev.max() < 5.0


class TestCirculant:
    def test_starts_at_zero(self):
        p = sample_circulant(TimeGrid(0.0, 1.0, 100), 0.8, 2, seed=0)
        assert np.all(p.values[0] == 0.0)

    def test_deterministic(self):
        g = TimeGrid(0.0, 2.0, 300)
        a = sample_circulant(g, 0.65, 2, seed=(5, 1))
        b = sample_circulant(g, 0.65, 2, seed=(5, 1))
        assert np.array_equal(a.values, b.values)

    def test_h_half_increment_independence(self):
        n = 100_000
        p = sample_circulant(TimeGrid(0.0, 1.0, n), 0.5, 1, seed=9)
        inc = np.diff(p.values[:, 0])
        inc = (inc - inc.mean()) / inc.std()
        lag1 = float(np.mean(inc[1:] * inc[:-1]))
        assert abs(lag1) < 3.0 / np.sqrt(n)

    def test_ks_against_cholesky(self):
        grid = TimeGrid(0.0, 1.0, 64)
        wc = sample_circulant(grid, 0.75, 3000, seed=11).values[-1]
        wk = sample_cholesky(grid, 0.75, 3000, seed=12).values[-1]
        assert stats.ks_2samp(wc, wk).pvalue > 0.05

    def test_increment_stationarity(self):
        # Var(W(t+delta)-W(t)) = delta^(2H) at any t
        grid = TimeGrid(0.0, 1.0, 32)
        p = sample_circulant(grid, 0.8, 8000, seed=13)
        lag = 4
        target = (lag * grid.dt) ** 1.6
        for k in (0, 10, 25):
            v = np.var(p.values[k + lag] - p.values[k])
            assert v == pytest.approx(target, rel=0.15)

    def test_self_similarity(self):
        # W(ct)/c^H has the law of W(t)
        h = 0.7
        a = sample_circulant(TimeGrid(0.0, 1.0, 64), h, 2000, seed=21).values[-1]
        b = sample_circulant(TimeGrid(0.0, 4.0, 64), h, 2000, seed=22).values[-1] / 4.0 ** h
        assert stats.ks_2samp(a, b).pvalue > 0.05

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            sample_circulant(TimeGrid(-1.0, 1.0, 16), 0.75, 1, seed=0)

    def test_eigenvalue_cache_keyed_by_padded_size(self):
        # 100 and 120 steps both embed in 128
        _circulant_eigenvalues.cache_clear()
        sample_circulant(TimeGrid(0.0, 1.0, 100), 0.7, 1, seed=0)
        sample_circulant(TimeGrid(0.0, 1.0, 120), 0.7, 1, seed=0)
        info = _circulant_eigenvalues.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestEmpiricalCovariance:
    def test_single_zero_path(self):
        grid = TimeGrid(0.0, 1.0, 8)
        zero = SamplePath(grid, np.zeros(9))
        cov, dev = empirical_covariance([zero], [2, 5], 0.75)
        assert np.all(cov == 0.0)

    def test_probe_at_zero(self):
        grid = TimeGrid(0.0, 1.0, 8)
        paths = [sample_cholesky(grid, 0.75, 1, seed=i) for i in range(50)]
        cov, dev = empirical_covariance(paths, [0, 4], 0.75)
        assert cov[0, 0] == 0.0 and cov[0, 1] == 0.0

    def test_monte_carlo_agreement(self):
        grid = TimeGrid(0.0, 1.0, 16)
        draws = sample_cholesky(grid, 0.75, 4000, seed=5)
        paths = [SamplePath(grid, draws.values[:, i]) for i in range(4000)]
        cov, dev = empirical_covariance(paths, [4, 8, 12, 16], 0.75)
        assert dev < 0.1

    def test_grid_mismatch(self):
        a = SamplePath(TimeGrid(0.0, 1.0, 8), np.zeros(9))
        b = SamplePath(TimeGrid(0.0, 1.0, 16), np.zeros(17))
        with pytest.raises(ValueError):
            empirical_covariance([a, b], [1], 0.75)
