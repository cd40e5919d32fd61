import logging
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import refsde.fbm as fbm
from refsde.fbm import (
    CHOLESKY_CAP,
    _circulant_amplitudes,
    _component_rng,
    _fgn_autocov,
    HurstParameter,
    empirical_covariance,
    fbm_covariance,
    sample_cholesky,
    sample_circulant,
)
from refsde.grids import SamplePath, TimeGrid

from conftest import needs_vmhwm, resident_peak_rise


def circulant_per_component(grid, h, m, seed):
    """sample_circulant as it was before its components shared one FFT:
    one transform and one cumulative sum per component."""
    n = grid.n_steps
    size = 1 << max(1, int(np.ceil(np.log2(n))))
    lam, _ = circulant_eigenvalues_concat(size, h)
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
    """The eigenvalues and clipped mass of the circulant embedding as the
    sampler computed them before its in-place transform: a real embedding
    row, a fresh transform and a clipped copy."""
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
        # the cached table holds the amplitudes the draw reads, each taken
        # from the oracle's eigenvalue as the draw once took it
        for size in (1 << k for k in range(1, 18)):
            _circulant_amplitudes.cache_clear()
            amp, clipped = _circulant_amplitudes(size, h)
            lam, want_clipped = circulant_eigenvalues_concat(size, h)
            m2 = 2 * size
            want = np.concatenate([[np.sqrt(lam[0] / m2)], np.sqrt(lam[1:size] / (2.0 * m2)),
                                   [np.sqrt(lam[size] / m2)]])
            assert np.array_equal(amp.view(np.uint64), want.view(np.uint64))
            assert clipped == want_clipped
            assert amp.flags.c_contiguous and not amp.flags.writeable

    @pytest.mark.parametrize("m, bound", [(1, 3.1), (3, 8.25)])
    def test_traced_peak_of_one_draw(self, m, bound):
        # in units of one float array of the embedding (8 * m2 bytes): the
        # complex buffer (2 per component), the amplitude table (1/2) and
        # the output (1/2 per component), 3.07 and 8.19 measured; pocketfft's
        # scratch is not traced.  The imports are lazy inside numpy, so pay
        # for them first
        import numpy.fft  # noqa: F401
        import numpy.random  # noqa: F401

        n = 1 << 16
        grid = TimeGrid(0.0, 1.0, n)
        _circulant_amplitudes.cache_clear()
        tracemalloc.start()
        try:
            sample_circulant(grid, 0.75, m, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * (2 * n)

    @pytest.mark.slow
    @needs_vmhwm
    @pytest.mark.parametrize("m", [1, 4])
    def test_resident_peak_at_scale(self, m):
        # A draw of 2^20 steps in a fresh interpreter, cold table included,
        # holds the transform buffer of a batch, numpy's copy of it and
        # pocketfft's scratch, plus the amplitude table and the output: its
        # peak resident set rises by 107 / 139 MB for m = 1 / 4, against a
        # bound of 120 / 144 MB.  A full-length eigenvalue table, or a
        # second buffer held through a transform, puts it above the bound
        # (129 / 193 MB measured).
        n = 1 << 20
        rise = resident_peak_rise(
            "import numpy.fft, numpy.random\n"
            "from refsde.fbm import sample_circulant\n"
            "from refsde.grids import TimeGrid",
            f"sample_circulant(TimeGrid(0.0, 1.0, {n}), 0.75, {m}, seed=1)")
        m2 = 2 * n
        buffer = 16 * m2 * min(m, max(1, fbm._FFT_ENTRIES // m2))
        output = 8 * (n + 1) * m
        assert rise * 1024 <= 3.5 * buffer + output


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

    @pytest.fixture
    def fresh_factors(self):
        # a factor made under a patched np.linalg.cholesky must not stay cached
        fbm._cholesky_factor.cache_clear()
        yield
        fbm._cholesky_factor.cache_clear()

    def test_jitter_retry(self, monkeypatch, caplog, fresh_factors):
        real = np.linalg.cholesky
        seen = []

        def refuse_first(a):
            seen.append(a)
            if len(seen) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_first)
        with caplog.at_level(logging.WARNING, logger="refsde.fbm"):
            L = fbm._cholesky_factor(12, 0.7)
        assert len(seen) == 2
        assert np.array_equal(seen[1], seen[0] + fbm.CHOLESKY_JITTER * np.eye(12))
        assert np.array_equal(L, real(seen[1]))
        assert "not PD at n=12, H=0.7000; adding 1e-12 jitter" in caplog.text

    def test_jitter_failure_raises(self, monkeypatch, fresh_factors):
        def refuse(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        with pytest.raises(np.linalg.LinAlgError, match=r"failed even with jitter \(n=12, H=0\.7\)$"):
            fbm._cholesky_factor(12, 0.7)

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

    @staticmethod
    def clip(monkeypatch, frac):
        """Make the amplitude table report a clipped mass of frac."""
        real = fbm._circulant_amplitudes
        monkeypatch.setattr(fbm, "_circulant_amplitudes", lambda size, h: (real(size, h)[0], frac))

    def test_clipped_mass_above_threshold_refused(self, monkeypatch):
        self.clip(monkeypatch, 2 * fbm.CIRCULANT_CLIP_THRESHOLD)
        with pytest.raises(ValueError, match=r"mass 2\.000e-08 exceeds threshold 1\.000e-08 \(n=100, H=0\.7\)"):
            sample_circulant(TimeGrid(0.0, 1.0, 100), 0.7, 1, seed=0)

    def test_clipped_mass_below_threshold_warns(self, monkeypatch):
        grid = TimeGrid(0.0, 1.0, 100)
        want = sample_circulant(grid, 0.7, 2, seed=3).values
        self.clip(monkeypatch, fbm.CIRCULANT_CLIP_THRESHOLD / 2)
        with pytest.warns(RuntimeWarning, match=r"clipped negative eigenvalue mass 5\.000e-09"):
            got = sample_circulant(grid, 0.7, 2, seed=3).values
        assert np.array_equal(got, want)  # the warning changes no draw

    def test_eigenvalue_cache_keyed_by_padded_size(self):
        # 100 and 120 steps both embed in 128
        _circulant_amplitudes.cache_clear()
        sample_circulant(TimeGrid(0.0, 1.0, 100), 0.7, 1, seed=0)
        sample_circulant(TimeGrid(0.0, 1.0, 120), 0.7, 1, seed=0)
        info = _circulant_amplitudes.cache_info()
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
