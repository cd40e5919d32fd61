"""Fractional and Hoelder norms of discrete paths.

The singular kernels (u-v)^(-alpha-1), (y-s)^(alpha-2) and s^(-alpha)
are never sampled at their singularity: each cell integrates the
piecewise-linear interpolant of the data against the exact antiderivative
of the kernel, so closed-form test values are reproduced to roundoff for
piecewise-linear inputs.

On the uniform grid a cell's integral depends on its lag alone and is
linear in its two end values, so one table of weights per (n, dt, kernel)
serves every row and start; the tables are cached read-only.  The
pair-based norms read the lagged increments |f(t_(s+L)) - f(t_s)| from one
block sweep, _lag_blocks, over P paths of one grid at once, one lane per
path: each block is k consecutive lags by every lane by every start with a
partner at the first of them, a sliding-window view of a zero-padded copy
of the paths minus the starts, written into one reused buffer.  Blocks
hold about _BLOCK_ENTRIES entries (k grows as the lags leave fewer starts,
and is at least 2), and the corner of starts that lose their partner
inside the block is set to zero.  Two layouts use it:

- (lag, lane, end): the sweep over the time-reversed paths, whose starts
  are the ends u of f.  The W^(alpha,infinity) rows of every lane take one
  matrix-vector product per block, and norm_reports takes the Hoelder
  quotient of every lane from the same blocks.  norm_report is its
  one-lane case.
- (lag, start), one lane on the driver norm's start stride: the kernel
  integral of each start runs along the lag axis and is carried from
  block to block, added in the order of a per-lag loop.

The W^(alpha,infinity) rows and the Hoelder quotient are exact at every
size.  Only the driver norm is limited: from twice PAIR_SUP_EXACT_MAX
steps on it reads every (n // PAIR_SUP_EXACT_MAX)-th start, which reports
record as approximate_pair_sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import SamplePath

__all__ = [
    "AlphaParams",
    "NormReport",
    "w_alpha_inf_norm",
    "weighted_alpha_norm",
    "holder_norm",
    "g_norm_one_minus_alpha",
    "lambda_alpha_bound",
    "f_norm_alpha_1",
    "holder_exponent_estimate",
    "norm_report",
    "norm_reports",
]

PAIR_SUP_EXACT_MAX = 8192
# Lagged increments per block of the lag sweep.  A block keeps at least two
# lags: each block also does O(starts) work, which one lag would not repay.
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class AlphaParams:
    """Fractional exponent, exponential weight and evaluation interval."""

    alpha: float
    lambda_weight: float = 0.0
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.lambda_weight < 0.0:
            raise ValueError(f"lambda_weight must be >= 0, got {self.lambda_weight}")
        if self.interval is not None and self.interval[0] >= self.interval[1]:
            raise ValueError(f"interval must satisfy s < t, got {self.interval}")


def _cell_integrals(A, B, h_lo, h_hi, kappa: float) -> np.ndarray:
    """Per-cell integral over w in [A, B] of h(w) * w^(-kappa).

    h is linear with h(A) = h_lo, h(B) = h_hi.  For kappa > 1 cells with
    A == 0 require h_lo == 0 (data vanishing at the singularity); their
    divergent antiderivative then carries a zero coefficient and is
    dropped exactly.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    width = B - A
    s = (np.asarray(h_hi, float) - h_lo) / width
    p = h_lo - s * A
    e1 = 1.0 - kappa
    e2 = 2.0 - kappa
    if kappa < 1.0:
        term_p = p * (B ** e1 - A ** e1) / e1
    else:
        at_zero = A <= 0.0
        A_safe = np.where(at_zero, 1.0, A)
        term_p = np.where(at_zero, 0.0, p * (B ** e1 - A_safe ** e1) / e1)
    term_q = s * (B ** e2 - A ** e2) / e2
    return term_p + term_q


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def _lag_weights(n: int, dt: float, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the near (w = L dt) and far (w = (L+1) dt) end values in
    the cell integral over [L dt, (L+1) dt], for lags L = 0..n; cached
    read-only."""
    lags = np.arange(n + 1)
    A, B = lags * dt, (lags + 1) * dt
    return (_read_only(_cell_integrals(A, B, 1.0, 0.0, kappa)),
            _read_only(_cell_integrals(A, B, 0.0, 1.0, kappa)))


def _lag_blocks(values: np.ndarray, stride: int = 1):
    """Sweep the lagged increments of P paths in blocks of consecutive lags.

    values has shape (n + 1, P, d), one lane per path on one grid.  Yields
    (lags, h): h[j, p, i] = |f_p(t_(s+L)) - f_p(t_s)| for the lag
    L = lags[j] and the start s = i * stride, over every start with a
    partner at lags[0].  Entries whose start has no partner at L
    (s + L > n, a corner of the block's last columns) are zero.  The next
    block overwrites h.
    """
    n, lanes, d = values.shape[0] - 1, values.shape[1], values.shape[2]
    padded = np.zeros((lanes, d, 2 * n + 1))  # the zeros keep every window in bounds
    padded[:, :, : n + 1] = values.transpose(1, 2, 0)
    # ahead[a, p, :, b] = padded[p, :, a + b]
    ahead = sliding_window_view(padded, n + 1, axis=2).transpose(2, 0, 1, 3)
    buf = np.empty(max(_BLOCK_ENTRIES, 2 * lanes * (n + 1)) * d)  # every block reuses it
    lag0 = 1
    while lag0 <= n:
        m = (n - lag0) // stride + 1
        k = min(n + 1 - lag0, max(2, _BLOCK_ENTRIES // (lanes * m)))
        lags = np.arange(lag0, lag0 + k)
        span = (m - 1) * stride + 1
        diff = np.subtract(ahead[lag0 : lag0 + k, :, :, :span:stride], padded[:, :, :span:stride],
                           out=buf[: k * lanes * d * m].reshape(k, lanes, d, m))
        h = np.abs(diff[:, :, 0], out=diff[:, :, 0]) if d == 1 else np.linalg.norm(diff, axis=2)
        full = (n - lags[-1]) // stride + 1  # starts with a partner at every lag of the block
        h.transpose(0, 2, 1)[:, full:][np.arange(full, m) * stride + lags[:, None] > n] = 0.0
        yield lags, h
        lag0 += k


@lru_cache(maxsize=8)
def _lag_powers(n: int, dt: float, exponent: float) -> np.ndarray:
    """(L dt)^exponent for L = 1..n by the scalar pow (numpy's vectorised
    power can differ from it in the last bit); cached read-only."""
    return _read_only(np.array([(lag * dt) ** exponent for lag in range(1, n + 1)]))


def _lag_quotients(h: np.ndarray, lags: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Largest |f_p(v) - f_p(u)| / (v - u)^lambda of each lane p over one
    block of _lag_blocks."""
    return (h.max(axis=2) / powers[lags - 1, None]).max(axis=0)


def _w_alpha_rows(values: np.ndarray, dt: float, alpha: float,
                  lambda_exponent: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """|f(u)| + int_s^u |f(u)-f(v)| (u-v)^(-alpha-1) dv at every grid point u,
    for every lane of values, shape (n + 1, P, d); the rows have shape (n + 1, P).

    The lag-L increment ending at u closes cell L-1 and opens cell L, so
    each block adds one weighted sum of its lags to the rows.  With a
    lambda_exponent the Hoelder quotient of each lane over every lag comes
    from the same blocks; it is 0.0 without one.
    """
    n, lanes = values.shape[0] - 1, values.shape[1]
    near, far = _lag_weights(n, dt, alpha + 1.0)
    weight = far[:-1] + near[1:]
    powers = None if lambda_exponent is None else _lag_powers(n, dt, lambda_exponent)
    rows = np.linalg.norm(values, axis=2)
    quot = np.zeros(lanes)
    # the starts of the reversed paths are the ends of f: column i ends at u = n - i
    for lags, h in _lag_blocks(values[::-1]):
        k, m = len(lags), h.shape[2]
        rows[lags[0]:] += (weight[lags - 1] @ h.reshape(k, lanes * m)).reshape(lanes, m).T[::-1]
        if powers is not None:
            np.maximum(quot, _lag_quotients(h, lags, powers), out=quot)
    # the lag-u increment ending at u opens no cell: that cell would lie before t_0
    rows[1:] -= near[1:, None] * np.linalg.norm(values[1:] - values[0], axis=2)
    return rows, quot


def _path_rows(f: SamplePath, alpha: float) -> np.ndarray:
    """The W^(alpha,infinity) rows of one path: the one-lane _w_alpha_rows."""
    return _w_alpha_rows(f.values[:, None], f.grid.dt, alpha)[0][:, 0]


def w_alpha_inf_norm(f: SamplePath, p: AlphaParams) -> float:
    """Discrete W^(alpha,infinity) norm of f on p.interval."""
    f = f.restrict(*p.interval) if p.interval else f
    return float(_path_rows(f, p.alpha).max())


def weighted_alpha_norm(f: SamplePath, p: AlphaParams) -> float:
    """Same as w_alpha_inf_norm with each u-term damped by exp(-lambda*u)."""
    f = f.restrict(*p.interval) if p.interval else f
    return float((np.exp(-p.lambda_weight * f.times) * _path_rows(f, p.alpha)).max())


def holder_norm(f: SamplePath, lambda_exponent: float,
                interval: tuple[float, float] | None = None) -> float:
    """sup|f| + sup over grid pairs of |f(v)-f(u)| / (v-u)^lambda."""
    if not 0.0 < lambda_exponent <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in (0, 1], got {lambda_exponent}")
    f = f.restrict(*interval) if interval else f
    n, dt = f.grid.n_steps, f.grid.dt
    sup = float(np.linalg.norm(f.values, axis=1).max())
    powers = _lag_powers(n, dt, lambda_exponent)
    return sup + max(float(_lag_quotients(h, lags, powers)[0])
                     for lags, h in _lag_blocks(f.values[:, None]))


def _driver_stride(n: int) -> int:
    """Start stride of the driver norm: every start below 2 * PAIR_SUP_EXACT_MAX steps."""
    return max(1, n // PAIR_SUP_EXACT_MAX)


def g_norm_one_minus_alpha(g: SamplePath, alpha: float,
                           interval: tuple[float, float] | None = None) -> float:
    """Discrete W^(1-alpha,infinity) driver norm of a scalar path."""
    if g.dim != 1:
        raise ValueError(f"driver norm is defined per component, got dim={g.dim}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    g = g.restrict(*interval) if interval else g
    n, dt = g.grid.n_steps, g.grid.dt
    stride = _driver_stride(n)
    near, far = _lag_weights(n, dt, 2.0 - alpha)
    powers = _lag_powers(n, dt, 1.0 - alpha)
    starts = len(range(0, n, stride))
    integral = np.zeros(starts)  # kernel integral from each start out to the last lag
    prev = np.zeros(starts)  # lag 0: h vanishes at the singular end
    buf = np.empty(max(_BLOCK_ENTRIES, 2 * starts) + starts)
    best = 0.0
    for lags, h in _lag_blocks(g.values[:, None], stride):
        h = h[:, 0]
        k, m = h.shape
        # run[j + 1] = run[j] + (near[L-1] h(L-1) + far[L-1] h(L)) for L = lags[j]
        run = buf[: (k + 1) * m].reshape(k + 1, m)
        run[0] = integral[:m]
        np.multiply(far[lags - 1, None], h, out=run[1:])
        run[1] += near[lags[0] - 1] * prev[:m]
        run[2:] += near[lags[1:] - 1, None] * h[:-1]
        # one vector add per lag: np.cumsum along this axis runs a scalar chain per start
        for j in range(k):
            np.add(run[j], run[j + 1], out=run[j + 1])
        integral, prev = run[-1].copy(), h[-1].copy()
        # past its last partner a start adds near[L-1] h(L-1), less than its
        # last quotient term h(L-1) / ((L-1) dt)^(1-alpha), and then zeros:
        # its quotients there never exceed its last true one
        quot = np.divide(h, powers[lags - 1, None], out=h)
        quot += run[1:]
        best = max(best, float(quot.max()))
    return best


def lambda_alpha_bound(g: SamplePath, alpha: float,
                       interval: tuple[float, float] | None = None) -> float:
    """Upper bound for Lambda_alpha(g): driver norm / (Gamma(1-a) Gamma(a)).

    This is the bound actually used by every estimate downstream, not the
    exact supremum of the Weyl derivative; for multi-component g the
    maximum over components is returned.
    """
    norm = max(
        g_norm_one_minus_alpha(g.component(i), alpha, interval) for i in range(g.dim)
    )
    return float(norm / (math.gamma(1.0 - alpha) * math.gamma(alpha)))


def f_norm_alpha_1(f: SamplePath, alpha: float,
                   interval: tuple[float, float] | None = None) -> float:
    """Discrete W^(alpha,1) norm of a scalar path on [0, T]."""
    if f.dim != 1:
        raise ValueError(f"W^(alpha,1) norm expects a scalar path, got dim={f.dim}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    f = f.restrict(*interval) if interval else f
    times = f.times
    if times[0] < -1e-12:
        raise ValueError("W^(alpha,1) norm is defined on [0, T]")
    vals = np.abs(f.values[:, 0])
    # int |f(s)| s^(-alpha) ds, kernel mild at 0
    first = float(_cell_integrals(times[:-1], times[1:], vals[:-1], vals[1:], alpha).sum())
    # double integral: trapezoid in the outer variable of the singular rows
    inner = _path_rows(f, alpha) - vals  # strip the |f(u)| part, keep the singular integral
    second = float(np.trapezoid(inner, times))
    return first + second


def _holder_exponents(values: np.ndarray, dt: float) -> list[tuple[float, bool]]:
    """(estimate, constant flag) of holder_exponent_estimate for every lane
    of values, shape (n + 1, P, d).

    The lanes whose maximal increments are positive at every dyadic lag
    share one multi-column fit; each other lane is fitted alone on its
    positive lags.
    """
    n = values.shape[0] - 1
    if n < 64:
        raise ValueError(f"need at least 64 steps for the exponent estimate, got {n}")
    lags = [1 << j for j in range((n // 4).bit_length())]  # 1, 2, 4, ... <= n // 4
    log_lags = np.log([lag * dt for lag in lags])
    mags = np.array([np.linalg.norm(values[lag:] - values[: n + 1 - lag], axis=2).max(axis=0)
                     for lag in lags])  # (lags, P)
    positive = mags > 0.0
    full = positive.all(axis=0)
    slopes = np.empty(values.shape[1])
    if full.any():
        slopes[full] = np.polyfit(log_lags, np.log(mags[:, full]), 1)[0]
    estimates = []
    for p, keep in enumerate(positive.T):
        if keep.sum() < 2:
            estimates.append((1.0, True))
            continue
        if not full[p]:
            slopes[p] = np.polyfit(log_lags[keep], np.log(mags[keep, p]), 1)[0]
        estimates.append((float(min(max(slopes[p], 1e-12), 1.0)), False))
    return estimates


def holder_exponent_estimate(f: SamplePath, with_flag: bool = False):
    """Regression estimate of the path Hoelder exponent.

    Slope of log max-increment against log lag over dyadic scales,
    clipped to (0, 1].  Constant paths return 1 with the constant flag.
    """
    est, constant = _holder_exponents(f.values[:, None], f.grid.dt)[0]
    return (est, constant) if with_flag else est


@dataclass
class NormReport:
    """Named norm values of one path, with discretization metadata."""

    alpha: float
    lambda_weight: float
    interval: tuple[float, float]
    n_steps: int
    norms: dict = field(default_factory=dict)
    approximate_pair_sup: bool = False

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda": self.lambda_weight,
            "interval": list(self.interval),
            "n_steps": self.n_steps,
            "norms": self.norms,
            "approximate_pair_sup": self.approximate_pair_sup,
        }


def norm_reports(fs: list[SamplePath], alpha: float,
                 lambda_weight: float = 0.0) -> list[NormReport]:
    """norm_report of every path of fs, which share one grid and one
    dimension, as lanes of one sweep.

    One lag-block sweep gives the W^(alpha,infinity) rows and the Hoelder
    quotient of every lane, and one fit the exponent estimates.  The lanes
    go in groups small enough that a block of two lags stays within
    _BLOCK_ENTRIES.
    """
    grid = fs[0].grid
    if any(f.grid != grid or f.dim != fs[0].dim for f in fs):
        raise ValueError("norm_reports needs paths of one grid and one dimension")
    params = AlphaParams(alpha=alpha, lambda_weight=lambda_weight)
    n, times = grid.n_steps, grid.times
    from_zero = bool(abs(times[0]) < 1e-12)  # the driver norm is defined on [0, T]
    damping = np.exp(-params.lambda_weight * times)[:, None]
    group = max(1, _BLOCK_ENTRIES // (2 * (n + 1)))
    reports = []
    for first in range(0, len(fs), group):
        lanes = fs[first : first + group]
        values = np.stack([f.values for f in lanes], axis=1)
        exponents = _holder_exponents(values, grid.dt) if n >= 64 else [(None, None)] * len(lanes)
        rows, quot = _w_alpha_rows(values, grid.dt, params.alpha, 1.0 - alpha)
        w_alpha = rows.max(axis=0)
        weighted = (damping * rows).max(axis=0)
        holder = np.linalg.norm(values, axis=2).max(axis=0) + quot
        reports += [
            NormReport(
                alpha=alpha,
                lambda_weight=lambda_weight,
                interval=(float(times[0]), float(times[-1])),
                n_steps=n,
                norms={
                    "w_alpha_inf": float(w_alpha[p]),
                    "weighted_alpha": float(weighted[p]),
                    "holder_1_minus_alpha": float(holder[p]),
                    "lambda_alpha_bound": lambda_alpha_bound(f, alpha) if from_zero else None,
                    "holder_exponent_estimate": exponents[p][0],
                    "constant_path": exponents[p][1],
                },
                approximate_pair_sup=from_zero and _driver_stride(n) > 1,
            )
            for p, f in enumerate(lanes)
        ]
    return reports


def norm_report(f: SamplePath, alpha: float, lambda_weight: float = 0.0) -> NormReport:
    """Evaluate the standard battery of norms on one path: the one-lane
    norm_reports."""
    return norm_reports([f], alpha, lambda_weight)[0]
