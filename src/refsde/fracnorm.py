"""Fractional and Hoelder norms of discrete paths.

The singular kernels (u-v)^(-alpha-1), (y-s)^(alpha-2) and s^(-alpha)
are never sampled at their singularity: each cell integrates the
piecewise-linear interpolant of the data against the exact antiderivative
of the kernel, so closed-form test values are reproduced to roundoff for
piecewise-linear inputs.

On the uniform grid a cell's integral depends on its lag alone and is
linear in its two end values, so one table of weights per (n, dt, kernel)
serves every row and start; the tables are cached read-only.  Every
pair-based norm reads the lagged increments |f(t_(s+L)) - f(t_s)| of P
paths of one grid, one lane per path, in one sweep, _lag_sweep, over the
blocks of _lag_blocks on the time-reversed paths, whose starts are the
ends u of f.  A block is k consecutive lags by every lane by every end
with a partner at the first of them: a sliding-window view of a
zero-padded copy of the paths minus the ends, written into one reused
buffer, of about _BLOCK_ENTRIES entries (k grows as fewer ends are left),
with the ends that lose their partner inside the block set to zero.  From
each block the W^(alpha,infinity) rows take one matrix-vector product,
the Hoelder quotient one max per lag, and the driver norm a skewed view
whose columns are starts s: the quotient of s at lag L is a running sum
C of w h over its lags up to L, carried from block to block in lag order,
plus one term c h at L alone.  Since w, c > 0 and h >= 0, no quotient of
s in a block exceeds C before the block plus (sum w + max c) times the
largest h of s in the block (_driver_block_bound).  Where that bound lies
below every lane's sup so far, the block cannot raise the sup: the driver
norm skips its exact pass and carries the running sums by one
matrix-vector product.  The sup so far starts at a floor, the exact
quotients of the few starts whose estimated running sums are largest
(_driver_floor), which on fBm paths is the sup or close to it: so the
sweep skips all but a few blocks wherever the sup lies.  Every norm is still
the sup over every pair, at every size; the driver norm differs from
the unskipped sweep only by the rounding of the carried sums, which
depends on the block split and the lanes.
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


def _lag_blocks(values: np.ndarray):
    """Sweep the lagged increments of P paths in blocks of consecutive lags.

    values has shape (n + 1, P, d), one lane per path on one grid.  Yields
    (lags, h, skew): h[j, p, i] = |f_p(t_(i+L)) - f_p(t_i)| for the lag
    L = lags[j] and every start i with a partner at lags[0].  Entries whose
    start has no partner at L (i + L > n: row j's last j columns) are zero.
    For d == 1, skew[j, p, q] = h[j, p, q - j], the same memory read with
    one entry less per lag: where q < j it reads zeros, the corner of lane
    p - 1 or, for p = 0, that of lag j - 1 and the one zero after each lag's
    lanes.  skew is None for d > 1.  The next block overwrites both.
    """
    n, lanes, d = values.shape[0] - 1, values.shape[1], values.shape[2]
    padded = np.zeros((lanes, d, 2 * n + 1))  # the zeros keep every window in bounds
    padded[:, :, : n + 1] = values.transpose(1, 2, 0)
    # ahead[a, p, :, b] = padded[p, :, a + b]
    ahead = sliding_window_view(padded, n + 1, axis=2).transpose(2, 0, 1, 3)
    buf = np.empty(max(_BLOCK_ENTRIES, 2 * lanes * (n + 1)) * d + n)  # every block reuses it
    # corner[tri - k :, : k - 1] marks the partnerless entries in the last
    # k - 1 columns of a block of k lags; k <= max(2, isqrt(_BLOCK_ENTRIES))
    tri = math.isqrt(_BLOCK_ENTRIES) + 2
    corner = np.arange(tri) >= (tri - 1 - np.arange(tri))[:, None]
    lag0 = 1
    while lag0 <= n:
        m = n + 1 - lag0
        k = min(m, max(2, _BLOCK_ENTRIES // (lanes * m)))
        block = buf[: k * (lanes * d * m + 1)].reshape(k, -1)
        block[:, -1] = 0.0  # the zero after each lag's lanes, which skew reads
        diff = np.subtract(ahead[lag0 : lag0 + k, :, :, :m], padded[:, :, :m],
                           out=block[:, :-1].reshape(k, lanes, d, m))
        # for d == 1, abs of the whole contiguous block: on the strided diff it is 3x slower
        h = (np.abs(block, out=block)[:, :-1].reshape(k, lanes, m) if d == 1
             else np.linalg.norm(diff, axis=2))
        np.copyto(h[:, :, m - k + 1 :], 0.0, where=corner[tri - k :, None, : k - 1])
        skew = block.reshape(-1)[: k * lanes * m].reshape(k, lanes, m) if d == 1 else None
        yield np.arange(lag0, lag0 + k), h, skew
        lag0 += k


@lru_cache(maxsize=8)
def _lag_powers(n: int, dt: float, exponent: float) -> np.ndarray:
    """(L dt)^exponent for L = 1..n by the scalar pow (numpy's vectorised
    power can differ from it in the last bit); cached read-only."""
    return _read_only(np.array([(lag * dt) ** exponent for lag in range(1, n + 1)]))


def _driver_block_bound(carried: np.ndarray, skew: np.ndarray, w: np.ndarray,
                        c: np.ndarray) -> np.ndarray:
    """Per lane, an upper bound on every driver quotient of one block.

    carried (P, m) holds each start's running sum C before the block, skew
    (k, P, m) its increments h >= 0 at the block's k lags, and w, c > 0 the
    lags' weights.  The quotient of a start at the block's j-th lag is
    C + sum_(i<=j) w_i h_i + c_j h_j <= C + (sum w + max c) max_i h_i.
    """
    top = skew.max(axis=0)
    top *= w.sum() + c.max()
    top += carried
    return top.max(axis=1)


def _driver_floor(g: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per lane of g, shape (n + 1, P), the largest driver quotient over a
    few starts: a lower bound on the driver norm, which the sweep starts
    from, so that what it skips does not depend on where the sup lies.

    A start's quotients are mostly its running sum of w h, so each start's
    full sum is estimated from lags 1, 2, 3, 4, 6, 9, ..., each standing for
    the lags up to the next; the eight starts per lane with the largest
    estimate take their exact quotient at every lag, summed in lag order as
    the sweep sums it.
    """
    n, lanes = g.shape[0] - 1, g.shape[1]
    lags = [1]
    while (after := max(lags[-1] + 1, lags[-1] * 3 // 2)) <= n:
        lags.append(after)
    sums = np.concatenate([[0.0], np.cumsum(w)])
    edges = np.array(lags + [n + 1])
    estimate = np.zeros((n, lanes))
    for lag, weight in zip(lags, sums[edges[1:] - 1] - sums[edges[:-1] - 1]):
        estimate[: n + 1 - lag] += weight * np.abs(g[lag:] - g[:-lag])
    ranked = min(8, n)
    lane = np.arange(lanes)
    ahead = np.arange(1, n + 1)
    floor = np.zeros(lanes)
    for s in np.argpartition(estimate, n - ranked, axis=0)[n - ranked :]:
        ends = s[:, None] + ahead  # (P, n); a start past its last partner reads h = 0
        h = np.abs(g[np.minimum(ends, n), lane[:, None]] - g[s, lane][:, None])
        h[ends > n] = 0.0
        quotient = np.cumsum(w * h, axis=1)
        quotient += c * h
        np.maximum(floor, quotient.max(axis=1), out=floor)
    return floor


def _lag_sweep(values: np.ndarray, dt: float, alpha: float | None = None,
               lambda_exponent: float | None = None, driver_alpha: float | None = None):
    """The pair-based norms of every lane of values, shape (n + 1, P, d), as
    (rows, quot, drive), each None unless asked for: with alpha the rows
    |f(u)| + int_s^u |f(u)-f(v)| (u-v)^(-alpha-1) dv, shape (n + 1, P); with
    lambda_exponent the largest |f(v)-f(u)| / (v-u)^lambda_exponent of each
    lane; with driver_alpha the W^(1-alpha,infinity) driver norm of each
    lane, which reads one component, so d must be 1.
    """
    n, lanes = values.shape[0] - 1, values.shape[1]
    rows = quot = drive = None
    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        weight = far[:-1] + near[1:]
        rows = np.linalg.norm(values, axis=2)
    if lambda_exponent is not None:
        powers = _lag_powers(n, dt, lambda_exponent)
        quot = np.zeros(lanes)
    if driver_alpha is not None:
        # With h(0) = 0 the kernel integral of a start out to lag L is
        # sum_(l<=L) w[l-1] h(l) - g_near[L] h(L), so its quotient at L is the
        # running sum C(L) of w h plus c[L-1] h(L)
        g_near, g_far = _lag_weights(n, dt, 2.0 - driver_alpha)
        w = g_far[:-1] + g_near[1:]
        c = 1.0 / _lag_powers(n, dt, 1.0 - driver_alpha) - g_near[1:]
        integral = np.zeros((lanes, n))  # running sums of w h; the start s is column n - 1 - s
        run_buf = np.empty(max(_BLOCK_ENTRIES, 2 * lanes * (n + 1)))
        drive = _driver_floor(values[:, :, 0], w, c)
    for lags, h, skew in _lag_blocks(values[::-1]):
        lag0, k, m = lags[0], len(lags), h.shape[2]
        at = slice(lag0 - 1, lag0 - 1 + k)  # the lags' entries in the tables
        # column i of h ends at u = n - i of f; the lag-L increment ending at u
        # closes cell L-1 and opens cell L
        if rows is not None:
            rows[lag0:] += (weight[at] @ h.reshape(k, -1)).reshape(lanes, m).T[::-1]
        if quot is not None:
            np.maximum(quot, (h.max(axis=2) / powers[at, None]).max(axis=0), out=quot)
        if drive is not None:  # last: it overwrites h
            # column q of skew is the start n - lag0 - q, zero where it has no
            # partner, and carried[:, q] is its running sum C(lag0 - 1)
            carried = integral[:, lag0 - 1 :]
            if np.all(_driver_block_bound(carried, skew, w[at], c[at]) * (1.0 + 1e-12) < drive):
                # no quotient of the block can raise any lane's sup: carry the sums only
                carried += (w[at] @ skew.reshape(k, -1)).reshape(lanes, m)
            else:
                # run[j] = run[j - 1] + w[L-1] h(L) for L = lags[j]
                run = run_buf[: k * lanes * m].reshape(k, lanes, m)
                np.multiply(w[at, None, None], skew, out=run)
                np.add(carried, run[0], out=run[0])
                # one vector add per lag: np.cumsum along this axis runs a scalar chain per start
                for j in range(1, k):
                    np.add(run[j - 1], run[j], out=run[j])
                carried[...] = run[-1]
                # a start without a partner reads C(L), below its last true
                # quotient C(L) + c[L-1] h(L), since every c is positive:
                # g_near[L] <= (L dt)^(alpha-2) dt / 2 = (L dt)^(alpha-1) / (2L)
                skew *= c[at, None, None]
                skew += run
                np.maximum(drive, skew.max(axis=(0, 2)), out=drive)
    if rows is not None:
        # the lag-u increment ending at u opens no cell: that cell would lie before t_0
        rows[1:] -= near[1:, None] * np.linalg.norm(values[1:] - values[0], axis=2)
    return rows, quot, drive


def _path_rows(f: SamplePath, alpha: float) -> np.ndarray:
    """The W^(alpha,infinity) rows of one path: a one-lane _lag_sweep."""
    return _lag_sweep(f.values[:, None], f.grid.dt, alpha)[0][:, 0]


def _lane_group(n: int) -> int:
    """Lanes per sweep on an n-step grid: a block of two lags of all of them
    stays within _BLOCK_ENTRIES."""
    return max(1, _BLOCK_ENTRIES // (2 * (n + 1)))


def _w_alpha_inf_norms(fs: list[SamplePath], alpha: float) -> np.ndarray:
    """w_alpha_inf_norm of every path of fs, which share one grid, as the
    lanes of one sweep per _lane_group."""
    norms = np.empty(len(fs))
    if fs:
        grid = fs[0].grid
        group = _lane_group(grid.n_steps)
        for first in range(0, len(fs), group):
            values = np.stack([f.values for f in fs[first : first + group]], axis=1)
            norms[first : first + group] = _lag_sweep(values, grid.dt, alpha)[0].max(axis=0)
    return norms


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
    quot = _lag_sweep(f.values[:, None], f.grid.dt, lambda_exponent=lambda_exponent)[1]
    return float(np.linalg.norm(f.values, axis=1).max()) + float(quot[0])


def _driver_norms(values: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Driver norm of every lane of values, shape (n + 1, P, d): the largest
    over its components, each one lane of a one-component _lag_sweep."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    points, lanes, d = values.shape
    drive = _lag_sweep(values.reshape(points, lanes * d, 1), dt, driver_alpha=alpha)[2]
    return drive.reshape(lanes, d).max(axis=1)


def g_norm_one_minus_alpha(g: SamplePath, alpha: float,
                           interval: tuple[float, float] | None = None) -> float:
    """Discrete W^(1-alpha,infinity) driver norm of a scalar path: the sup
    over every start and lag, from a sweep that starts at the quotients of a
    few likely starts and skips the lag blocks whose bound cannot raise it."""
    if g.dim != 1:
        raise ValueError(f"driver norm is defined per component, got dim={g.dim}")
    g = g.restrict(*interval) if interval else g
    return float(_driver_norms(g.values[:, None], g.grid.dt, alpha)[0])


def _lambda_bound(norm: float, alpha: float) -> float:
    """Lambda_alpha of a driver norm."""
    return float(norm / (math.gamma(1.0 - alpha) * math.gamma(alpha)))


def lambda_alpha_bound(g: SamplePath, alpha: float,
                       interval: tuple[float, float] | None = None) -> float:
    """Lambda_alpha(g) as driver norm / (Gamma(1-a) Gamma(a)).

    This is the value every estimate downstream uses, not the exact
    supremum of the Weyl derivative; for multi-component g the maximum over
    components is returned.  The driver norm is the discrete sup over every
    start and lag, at every size; the sweep skips the exact pass of a lag
    block whose quotients are bounded below the sup so far, which starts at
    the exact quotients of a few likely starts, and that moves the value
    only by the rounding of the carried sums.
    """
    g = g.restrict(*interval) if interval else g
    return _lambda_bound(_driver_norms(g.values[:, None], g.grid.dt, alpha)[0], alpha)


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
    # kept for the schema and always False: every norm reads every pair
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

    One lag-block sweep gives the W^(alpha,infinity) rows, the Hoelder
    quotient and, on paths from t = 0, the driver norm of every lane (for
    d > 1 a second sweep, one lane per component), and one fit the exponent
    estimates.  The lanes go in groups small enough that a block of two
    lags stays within _BLOCK_ENTRIES.
    """
    if not fs:
        return []
    grid = fs[0].grid
    if any(f.grid != grid or f.dim != fs[0].dim for f in fs):
        raise ValueError("norm_reports needs paths of one grid and one dimension")
    params = AlphaParams(alpha=alpha, lambda_weight=lambda_weight)
    n, d, times = grid.n_steps, fs[0].dim, grid.times
    from_zero = bool(abs(times[0]) < 1e-12)  # the driver norm is defined on [0, T]
    damping = np.exp(-params.lambda_weight * times)[:, None]
    group = _lane_group(n)
    reports = []
    for first in range(0, len(fs), group):
        lanes = fs[first : first + group]
        values = np.stack([f.values for f in lanes], axis=1)
        exponents = _holder_exponents(values, grid.dt) if n >= 64 else [(None, None)] * len(lanes)
        rows, quot, drive = _lag_sweep(values, grid.dt, alpha, 1.0 - alpha,
                                       alpha if from_zero and d == 1 else None)
        if from_zero and d > 1:
            drive = _driver_norms(values, grid.dt, alpha)
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
                    "lambda_alpha_bound": _lambda_bound(drive[p], alpha) if from_zero else None,
                    "holder_exponent_estimate": exponents[p][0],
                    "constant_path": exponents[p][1],
                },
            )
            for p, f in enumerate(lanes)
        ]
    return reports


def norm_report(f: SamplePath, alpha: float, lambda_weight: float = 0.0) -> NormReport:
    """Evaluate the standard battery of norms on one path: the one-lane
    norm_reports."""
    return norm_reports([f], alpha, lambda_weight)[0]
