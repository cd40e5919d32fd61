"""Fractional and Hoelder norms of discrete paths.

The singular kernels (u-v)^(-alpha-1), (y-s)^(alpha-2) and s^(-alpha)
are never sampled at their singularity: each cell integrates the
piecewise-linear interpolant of the data against the exact antiderivative
of the kernel, so closed-form test values are reproduced to roundoff for
piecewise-linear inputs.

On the uniform grid a cell's integral depends on its lag alone and is
linear in its two end values, so one table of weights per (n, dt, kernel)
serves every row and start.  The pair-based norms read the lagged
increments |f(t_(s+L)) - f(t_s)| from one block sweep, _lag_blocks: each
block is k consecutive lags by every start with a partner at the first of
them, a sliding-window view of a zero-padded copy of the path minus the
starts, written into one reused buffer.  Blocks hold about _BLOCK_ENTRIES
entries (k grows as the lags leave fewer starts, and is at least 2), and
the corner of starts that lose their partner inside the block is set to
zero.  Two layouts use it:

- (lag, end): the sweep over the time-reversed path, whose starts are the
  ends u of f.  The W^(alpha,infinity) rows take one matrix-vector product
  per block, and norm_report takes the Hoelder quotient from the same
  blocks.
- (lag, start), on the driver norm's start stride: the kernel integral of
  each start runs along the lag axis and is carried from block to block,
  added in the order of a per-lag loop.

The W^(alpha,infinity) rows and the Hoelder quotient are exact at every
size.  Only the driver norm is limited: from twice PAIR_SUP_EXACT_MAX
steps on it reads every (n // PAIR_SUP_EXACT_MAX)-th start, which reports
record as approximate_pair_sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _lag_weights(n: int, dt: float, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the near (w = L dt) and far (w = (L+1) dt) end values in
    the cell integral over [L dt, (L+1) dt], for lags L = 0..n."""
    lags = np.arange(n + 1)
    A, B = lags * dt, (lags + 1) * dt
    return _cell_integrals(A, B, 1.0, 0.0, kappa), _cell_integrals(A, B, 0.0, 1.0, kappa)


def _increments(values: np.ndarray, lag: int) -> np.ndarray:
    """|f(t_(i+lag)) - f(t_i)| for every start i with a partner."""
    return np.linalg.norm(values[lag:] - values[: len(values) - lag], axis=1)


def _lag_blocks(values: np.ndarray, stride: int = 1):
    """Sweep the lagged increments of a path in blocks of consecutive lags.

    Yields (lags, h): h[j, i] = |f(t_(s+L)) - f(t_s)| for the lag
    L = lags[j] and the start s = i * stride, over every start with a
    partner at lags[0].  Entries whose start has no partner at L
    (s + L > n, a corner of the block's last columns) are zero.  The next
    block overwrites h.
    """
    n, d = values.shape[0] - 1, values.shape[1]
    padded = np.zeros((2 * n + 1, d))  # the zeros keep every window in bounds
    padded[: n + 1] = values
    ahead = sliding_window_view(padded, n + 1, axis=0)  # ahead[a, :, b] = padded[a + b]
    buf = np.empty(max(_BLOCK_ENTRIES, 2 * (n + 1)) * d)  # every block reuses it
    lag0 = 1
    while lag0 <= n:
        m = (n - lag0) // stride + 1
        k = min(n + 1 - lag0, max(2, _BLOCK_ENTRIES // m))
        lags = np.arange(lag0, lag0 + k)
        span = (m - 1) * stride + 1
        diff = np.subtract(ahead[lag0 : lag0 + k, :, :span:stride], padded[:span:stride].T,
                           out=buf[: k * d * m].reshape(k, d, m))
        h = np.abs(diff[:, 0], out=diff[:, 0]) if d == 1 else np.linalg.norm(diff, axis=1)
        full = (n - lags[-1]) // stride + 1  # starts with a partner at every lag of the block
        h[:, full:][np.arange(full, m) * stride + lags[:, None] > n] = 0.0
        yield lags, h
        lag0 += k


def _lag_powers(n: int, dt: float, exponent: float) -> np.ndarray:
    """(L dt)^exponent for L = 1..n by the scalar pow: numpy's vectorised
    power can differ from it in the last bit."""
    return np.array([(lag * dt) ** exponent for lag in range(1, n + 1)])


def _lag_quotient(h: np.ndarray, lags: np.ndarray, powers: np.ndarray) -> float:
    """Largest |f(v) - f(u)| / (v - u)^lambda over one block of _lag_blocks."""
    return float((h.max(axis=1) / powers[lags - 1]).max())


def _w_alpha_rows(f: SamplePath, alpha: float,
                  lambda_exponent: float | None = None) -> tuple[np.ndarray, float]:
    """|f(u)| + int_s^u |f(u)-f(v)| (u-v)^(-alpha-1) dv at every grid point u.

    The lag-L increment ending at u closes cell L-1 and opens cell L, so
    each block adds one weighted sum of its lags to the rows.  With a
    lambda_exponent the Hoelder quotient over every lag comes from the
    same blocks; it is 0.0 without one.
    """
    n, dt = f.grid.n_steps, f.grid.dt
    near, far = _lag_weights(n, dt, alpha + 1.0)
    weight = far[:-1] + near[1:]
    powers = None if lambda_exponent is None else _lag_powers(n, dt, lambda_exponent)
    rows = np.linalg.norm(f.values, axis=1)
    quot = 0.0
    # the starts of the reversed path are the ends of f: column i ends at u = n - i
    for lags, h in _lag_blocks(f.values[::-1]):
        rows[lags[0]:] += (weight[lags - 1] @ h)[::-1]
        if powers is not None:
            quot = max(quot, _lag_quotient(h, lags, powers))
    # the lag-u increment ending at u opens no cell: that cell would lie before t_0
    rows[1:] -= near[1:] * np.linalg.norm(f.values[1:] - f.values[0], axis=1)
    return rows, quot


def w_alpha_inf_norm(f: SamplePath, p: AlphaParams) -> float:
    """Discrete W^(alpha,infinity) norm of f on p.interval."""
    f = f.restrict(*p.interval) if p.interval else f
    return float(_w_alpha_rows(f, p.alpha)[0].max())


def weighted_alpha_norm(f: SamplePath, p: AlphaParams) -> float:
    """Same as w_alpha_inf_norm with each u-term damped by exp(-lambda*u)."""
    f = f.restrict(*p.interval) if p.interval else f
    return float((np.exp(-p.lambda_weight * f.times) * _w_alpha_rows(f, p.alpha)[0]).max())


def holder_norm(f: SamplePath, lambda_exponent: float,
                interval: tuple[float, float] | None = None) -> float:
    """sup|f| + sup over grid pairs of |f(v)-f(u)| / (v-u)^lambda."""
    if not 0.0 < lambda_exponent <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in (0, 1], got {lambda_exponent}")
    f = f.restrict(*interval) if interval else f
    n, dt = f.grid.n_steps, f.grid.dt
    sup = float(np.linalg.norm(f.values, axis=1).max())
    powers = _lag_powers(n, dt, lambda_exponent)
    return sup + max(_lag_quotient(h, lags, powers) for lags, h in _lag_blocks(f.values))


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
    for lags, h in _lag_blocks(g.values, stride):
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
    inner = _w_alpha_rows(f, alpha)[0] - vals  # strip the |f(u)| part, keep the singular integral
    second = float(np.trapezoid(inner, times))
    return first + second


def holder_exponent_estimate(f: SamplePath, with_flag: bool = False):
    """Regression estimate of the path Hoelder exponent.

    Slope of log max-increment against log lag over dyadic scales,
    clipped to (0, 1].  Constant paths return 1 with the constant flag.
    """
    n = f.grid.n_steps
    if n < 64:
        raise ValueError(f"need at least 64 steps for the exponent estimate, got {n}")
    lags, mags = [], []
    lag = 1
    while lag <= n // 4:
        m = float(_increments(f.values, lag).max())
        if m > 0.0:
            lags.append(lag * f.grid.dt)
            mags.append(m)
        lag *= 2
    if len(mags) < 2:
        return (1.0, True) if with_flag else 1.0
    slope = np.polyfit(np.log(lags), np.log(mags), 1)[0]
    est = float(min(max(slope, 1e-12), 1.0))
    return (est, False) if with_flag else est


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


def norm_report(f: SamplePath, alpha: float, lambda_weight: float = 0.0) -> NormReport:
    """Evaluate the standard battery of norms on one path."""
    params = AlphaParams(alpha=alpha, lambda_weight=lambda_weight)
    exponent, constant = holder_exponent_estimate(f, with_flag=True) if f.grid.n_steps >= 64 else (None, None)
    times = f.times
    from_zero = bool(abs(times[0]) < 1e-12)  # the driver norm is defined on [0, T]
    rows, quot = _w_alpha_rows(f, params.alpha, 1.0 - alpha)
    norms = {
        "w_alpha_inf": float(rows.max()),
        "weighted_alpha": float((np.exp(-params.lambda_weight * times) * rows).max()),
        "holder_1_minus_alpha": float(np.linalg.norm(f.values, axis=1).max()) + quot,
        "lambda_alpha_bound": lambda_alpha_bound(f, alpha) if from_zero else None,
        "holder_exponent_estimate": exponent,
        "constant_path": constant,
    }
    return NormReport(
        alpha=alpha,
        lambda_weight=lambda_weight,
        interval=(float(times[0]), float(times[-1])),
        n_steps=f.grid.n_steps,
        norms=norms,
        approximate_pair_sup=from_zero and _driver_stride(f.grid.n_steps) > 1,
    )
