"""Sampling of fractional Brownian motion with Hurst index H > 1/2.

Two generators over fractional Gaussian noise increments: an exact
Cholesky factorization of the (Toeplitz) increment covariance, used as
the validation oracle at small grid sizes, and a circulant-embedding
(Davies-Harte) generator for large grids.  Both are deterministic per
(grid, H, m, seed) and draw each component from its own seed stream, so
ensembles can be generated in any order.
"""

from __future__ import annotations

import logging
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import SamplePath, TimeGrid

__all__ = [
    "HurstParameter",
    "fbm_covariance",
    "sample_cholesky",
    "sample_circulant",
    "empirical_covariance",
]

log = logging.getLogger(__name__)

CHOLESKY_CAP = 2048
CHOLESKY_JITTER = 1e-12
#: largest tolerated (clipped negative mass) / (total mass) of circulant eigenvalues
CIRCULANT_CLIP_THRESHOLD = 1e-8
CIRCULANT_MAX_STEPS = 1 << 22
# Complex entries per batch of components in sample_circulant: each batch
# goes through one FFT along its rows.
_FFT_ENTRIES = 1 << 20


@dataclass(frozen=True)
class HurstParameter:
    """Hurst index restricted to the pathwise regime (1/2, 1)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _hurst_value(self.value, allow_half=False))

    def __float__(self) -> float:
        return self.value


def _hurst_value(H, allow_half: bool = True) -> float:
    """H as a float in (1/2, 1), the one check of the Hurst range; samplers
    also admit H = 1/2.  Accepts a HurstParameter or a plain float."""
    h = float(H)
    if not ((h > 0.5 or allow_half and h == 0.5) and h < 1.0):
        lower = "[0.5" if allow_half else "(0.5"
        raise ValueError(f"Hurst parameter must lie in {lower}, 1), got {h}")
    return h


def fbm_covariance(s: float, t: float, H) -> float:
    """Covariance E[W(s) W(t)] = (s^2H + t^2H - |t-s|^2H) / 2."""
    h = _hurst_value(H)
    if s < 0 or t < 0:
        raise ValueError(f"time arguments must be non-negative, got ({s}, {t})")
    return 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))


def _fgn_autocov(n: int, h: float) -> np.ndarray:
    """Autocovariance of unit-spacing fGn at lags 0..n-1.

    rho(k) = ((k+1)^2H - 2 k^2H + |k-1|^2H) / 2, with the powers of
    0..n taken once and read at three shifts.
    """
    p = np.arange(n + 1, dtype=float) ** (2 * h)
    lower = np.empty(n)  # |k - 1|^2H
    lower[0] = p[1]
    lower[1:] = p[:n - 1]
    return 0.5 * (p[1:] - 2 * p[:n] + lower)


@lru_cache(maxsize=16)
def _cholesky_factor(n: int, h: float) -> np.ndarray:
    rho = _fgn_autocov(n, h)
    cov = rho[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        log.warning("fGn covariance not PD at n=%d, H=%.4f; adding %g jitter", n, h, CHOLESKY_JITTER)
        try:
            L = np.linalg.cholesky(cov + CHOLESKY_JITTER * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"fGn covariance factorization failed even with jitter (n={n}, H={h})"
            ) from exc
    L.setflags(write=False)
    return L


def _component_rng(seed, j: int) -> np.random.Generator:
    """Stream of component j; seed is an integer or a sequence of them."""
    try:
        entropy = operator.index(seed)
    except TypeError:
        entropy = tuple(operator.index(s) for s in seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(j,)))


def _check_sampling_grid(grid: TimeGrid) -> None:
    if abs(grid.t0) > 1e-12:
        raise ValueError(f"fBm sampling grids must start at 0, got t0={grid.t0}")


def sample_cholesky(grid: TimeGrid, H, m: int = 1, seed=0) -> SamplePath:
    """Exact fBm draw on grid via Cholesky factorization of the fGn covariance.

    Cost is cubic in grid.n_steps (factorization is cached per (n, H)),
    so the grid is capped at CHOLESKY_CAP steps.  Columns are independent
    fBms keyed by (seed, component).
    """
    _check_sampling_grid(grid)
    h = _hurst_value(H)
    n = grid.n_steps
    if n > CHOLESKY_CAP:
        raise ValueError(f"Cholesky sampler capped at {CHOLESKY_CAP} steps, got {n}")
    if m < 1:
        raise ValueError("m must be positive")
    L = _cholesky_factor(n, h)
    scale = grid.dt ** h
    out = np.zeros((n + 1, m))
    for j in range(m):
        z = _component_rng(seed, j).standard_normal(n)
        np.cumsum(scale * (L @ z), out=out[1:, j])
    return SamplePath(grid, out)


@lru_cache(maxsize=16)
def _circulant_amplitudes(size: int, h: float) -> tuple[np.ndarray, float]:
    """Amplitudes of the circulant embedding of the fGn covariance of
    `size` (a power of two) increments, and its clipped eigenvalue mass.

    The embedding row goes into the real part of one complex array of
    m2 = 2*size entries, which is transformed in place; its real part
    holds the eigenvalues lambda_0..lambda_{m2-1}.  Negative eigenvalues
    are clipped; the relative clipped mass is returned so the caller can
    decide between warning and failing.  The table holds what a draw
    reads, size + 1 floats: sqrt(lambda_k / m2) at k = 0 and k = size,
    sqrt(lambda_k / (2 m2)) in between.  Besides the transform itself,
    the build holds only the table beside the complex array.
    """
    rho = _fgn_autocov(size + 1, h)
    c = np.zeros(2 * size, dtype=complex)
    c.real[:size + 1] = rho
    c.real[size + 1:] = rho[-2:0:-1]
    del rho
    m2 = c.size
    lam = np.fft.fft(c, out=c).real  # a view of c
    neg = -lam[lam < 0].sum()
    amp = np.clip(lam[:size + 1], 0.0, None)
    total = np.abs(lam, out=lam).sum()  # in place, now that the table is taken
    clipped_frac = float(neg / total) if total > 0 else 0.0
    amp[0] /= m2
    amp[1:size] /= 2.0 * m2
    amp[size] /= m2
    np.sqrt(amp, out=amp)
    amp.setflags(write=False)
    return amp, clipped_frac


def sample_circulant(grid: TimeGrid, H, m: int = 1, seed=0) -> SamplePath:
    """fBm draw via circulant embedding of the fGn covariance (FFT-based).

    Same law as sample_cholesky; supports grids up to 2**22 steps.  The
    internal embedding is padded to a power of two and the output is
    truncated to the requested grid.  Each component draws from its own
    (seed, component) stream; the components then share one FFT along
    the rows of their batch and one cumulative sum, which give each
    component the bytes of its own transform.

    Every batch reuses one complex buffer of 2*size entries per
    component: the normals are drawn into it, scaled into the embedding
    in place and transformed in place.  Beside that buffer the draw holds
    only the cached amplitude table (size + 1 floats) and, from the first
    transform on, the output; numpy's transform adds its own scratch.
    Traced, one component's draw peaks at about 3.1 float arrays of the
    embedding's length, three components at about 8.2.
    """
    _check_sampling_grid(grid)
    h = _hurst_value(H)
    n = grid.n_steps
    if n > CIRCULANT_MAX_STEPS:
        raise ValueError(f"circulant sampler capped at {CIRCULANT_MAX_STEPS} steps, got {n}")
    if m < 1:
        raise ValueError("m must be positive")
    size = 1 << max(1, int(np.ceil(np.log2(n))))  # grids that pad alike share one embedding
    amp, clipped = _circulant_amplitudes(size, h)
    if clipped > CIRCULANT_CLIP_THRESHOLD:
        raise ValueError(
            f"circulant embedding clipped eigenvalue mass {clipped:.3e} exceeds "
            f"threshold {CIRCULANT_CLIP_THRESHOLD:.3e} (n={n}, H={h})"
        )
    if clipped > 0.0:
        warnings.warn(
            f"circulant embedding clipped negative eigenvalue mass {clipped:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    half = size
    m2 = 2 * size
    width = min(m, max(1, _FFT_ENTRIES // m2))  # components per transform
    buf = np.empty((width, m2), dtype=complex)
    out = None
    for first in range(0, m, width):
        cols = range(first, min(first + width, m))
        w = buf[:len(cols)]
        # Each row's m2 normals are drawn into the floats of its entries
        # half..m2-1.  Write order: the scalars of entries 0 and half are
        # taken from g first; entries 1..half-1 (all floats below m2) are
        # written next from the rest of g; only then do entries 0, half
        # and the conjugate mirror half+1..m2-1 overwrite the normals.
        g = w.view(float)[:, m2:]
        for row, j in zip(g, cols):
            _component_rng(seed, j).standard_normal(out=row)
        w0 = amp[0] * g[:, 0]
        w_half = amp[half] * g[:, half]
        np.multiply(g[:, 1:half], amp[1:half], out=w.real[:, 1:half])
        np.multiply(g[:, half + 1:], amp[1:half], out=w.imag[:, 1:half])
        w[:, 0] = w0
        w[:, half] = w_half
        np.conjugate(w[:, half - 1:0:-1], out=w[:, half + 1:])
        fgn = np.fft.fft(w, axis=1, out=w).real[:, :n]
        fgn *= grid.dt ** h
        if out is None:  # only now, so it is not held through the first transform
            out = np.zeros((n + 1, m))
        np.cumsum(fgn.T, axis=0, out=out[1:, cols.start:cols.stop])
    return SamplePath(grid, out)


def empirical_covariance(ensemble: list[SamplePath], probe_indices, H) -> tuple[np.ndarray, float]:
    """Unbiased sample covariance at probed grid points, plus its maximal
    absolute deviation from the analytic fBm covariance.

    Every column of every ensemble member is treated as an independent
    fBm draw.
    """
    if not ensemble:
        raise ValueError("ensemble must be non-empty")
    grid = ensemble[0].grid
    for p in ensemble[1:]:
        if p.grid != grid:
            raise ValueError("ensemble paths must share one grid")
    probes = np.asarray(probe_indices, dtype=int)
    data = np.concatenate([p.values[probes, :] for p in ensemble], axis=1)  # (P, N)
    n_draws = data.shape[1]
    centered = data - data.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / max(n_draws - 1, 1)
    times = grid.times[probes]
    analytic = np.array([[fbm_covariance(s, t, H) for t in times] for s in times])
    return cov, float(np.max(np.abs(cov - analytic)))
