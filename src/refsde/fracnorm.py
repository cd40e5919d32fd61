"""Fractional and Hoelder norms of discrete paths.

The singular kernels (u-v)^(-alpha-1), (y-s)^(alpha-2) and s^(-alpha)
are never sampled at their singularity: each cell integrates the
piecewise-linear interpolant of the data against the exact antiderivative
of the kernel, so closed-form test values are reproduced to roundoff for
piecewise-linear inputs.

On the uniform grid a cell's integral depends on its lag alone and is
linear in its two end values, so one table of weights per (n, dt, kernel)
serves every row and start; the tables are cached read-only.

The pair-based norms are suprema over endpoints: of each end u's row (the
W^(alpha,infinity) norm, plain and damped), of the Hoelder quotient over
each end's lags, and of each start s's driver quotients (Lambda_alpha).
_endpoint_sups finds them by branch and bound.  It sweeps the lags up to
_NEAR_LAGS exactly for every end and start.  The longer lags go in blocks
whose widths double every _SPLIT blocks, and running max/min tables of the
path bound every increment of an endpoint in a block by the farthest value
in the window of its partners there (_endpoint_bounds).  That gives an
upper bound for each end's row, for each quotient cell (an end and its lags
span + 1..2 span, span = _NEAR_LAGS, 2 _NEAR_LAGS, ...) and for each
start's driver quotients, in O(n log n).  _best_first then evaluates
exactly, best first, only the candidates whose bound times 1 + max(1e-12,
(n + 1) eps) reaches the best value so far; the margin covers the rounding
of a bound and an exact value that each sum at most n + 1 positive terms.
Ends and starts whose far increments are all 0 are never evaluated.  On fBm
paths at 4,096 steps a few dozen ends and starts and at most a few hundred
cells are evaluated; on smooth paths, whose values lie close together, far
more.

The Hoelder quotient and the driver norm are bit-equal to the sweep over
every pair: a cell's quotients are computed as that sweep computes them,
and each start's running sum is added in lag order.  A row is summed in
another order than the lag sweep's, within (n + 1) machine epsilons
relative of it.  Below _ENDPOINT_STEPS steps, where the bounds cost more
than they save, _sups takes the rows and the quotient from _lag_sweep, one
pass over every lagged increment |f(t_(s+L)) - f(t_s)| of P paths of one
grid in blocks of consecutive lags (_lag_blocks).  _lag_sweep also gives
the full rows of f_norm_alpha_1.
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

# Lagged increments per block of the lag sweep, and entries per round of
# exact evaluations of the endpoint search.  A block keeps at least two
# lags: each block also does O(starts) work, which one lag would not repay.
_BLOCK_ENTRIES = 1 << 15
# Lags that the endpoint search sweeps for every end and start, and far
# blocks per doubling of their width, measured on fBm and solution paths of
# 2,048 and 4,096 steps: with 4 blocks the slowest of 40 fBm inputs took
# 3 times the median, with 8 under 1.5 times.
_NEAR_LAGS = 32
_SPLIT = 8
# Steps from which the rows and the quotient come from the endpoint search,
# not from the lag sweep: the measured crossover.  At 1,024 steps the search
# took 1 to 1.5 times the sweep's time on one or two lanes and 0.4 to 0.7
# times on four or more; at 256 steps 1.1 to 4.5 times; at 2,048 0.3 to
# 0.6 times.
_ENDPOINT_STEPS = 1024


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
    (lags, h): h[j, p, i] = |f_p(t_(i+L)) - f_p(t_i)| for the lag L = lags[j]
    and every start i with a partner at lags[0].  Entries whose start has no
    partner at L (i + L > n: row j's last j columns) are zero.  The next
    block overwrites h.
    """
    n, lanes, d = values.shape[0] - 1, values.shape[1], values.shape[2]
    padded = np.zeros((lanes, d, 2 * n + 1))  # the zeros keep every window in bounds
    padded[:, :, : n + 1] = values.transpose(1, 2, 0)
    # ahead[a, p, :, b] = padded[p, :, a + b]
    ahead = sliding_window_view(padded, n + 1, axis=2).transpose(2, 0, 1, 3)
    buf = np.empty(max(_BLOCK_ENTRIES, 2 * lanes * (n + 1)) * d)  # every block reuses it
    # corner[tri - k :, : k - 1] marks the partnerless entries in the last
    # k - 1 columns of a block of k lags; k <= max(2, isqrt(_BLOCK_ENTRIES))
    tri = math.isqrt(_BLOCK_ENTRIES) + 2
    corner = np.arange(tri) >= (tri - 1 - np.arange(tri))[:, None]
    lag0 = 1
    while lag0 <= n:
        m = n + 1 - lag0
        k = min(m, max(2, _BLOCK_ENTRIES // (lanes * m)))
        block = buf[: k * lanes * d * m].reshape(k, lanes, d, m)
        np.subtract(ahead[lag0 : lag0 + k, :, :, :m], padded[:, :, :m], out=block)
        # for d == 1, abs of the whole contiguous block: on the strided diff it is 3x slower
        h = np.abs(block, out=block)[:, :, 0] if d == 1 else np.linalg.norm(block, axis=2)
        np.copyto(h[:, :, m - k + 1 :], 0.0, where=corner[tri - k :, None, : k - 1])
        yield np.arange(lag0, lag0 + k), h
        lag0 += k


@lru_cache(maxsize=8)
def _lag_powers(n: int, dt: float, exponent: float) -> np.ndarray:
    """(L dt)^exponent for L = 1..n by the scalar pow (numpy's vectorised
    power can differ from it in the last bit); cached read-only."""
    return _read_only(np.array([(lag * dt) ** exponent for lag in range(1, n + 1)]))


def _lag_sweep(values: np.ndarray, dt: float, alpha: float | None = None,
               lambda_exponent: float | None = None):
    """The pair-based norms of every lane of values, shape (n + 1, P, d), over
    every lag, as (rows, quot), each None unless asked for: with alpha the
    rows |f(u)| + int_s^u |f(u)-f(v)| (u-v)^(-alpha-1) dv, shape (n + 1, P);
    with lambda_exponent the largest |f(v)-f(u)| / (v-u)^lambda_exponent of
    each lane.
    """
    n, lanes = values.shape[0] - 1, values.shape[1]
    rows = quot = None
    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        weight = far[:-1] + near[1:]
        rows = np.linalg.norm(values, axis=2)
    if lambda_exponent is not None:
        powers = _lag_powers(n, dt, lambda_exponent)
        quot = np.zeros(lanes)
    for lags, h in _lag_blocks(values[::-1]):
        lag0, k, m = lags[0], len(lags), h.shape[2]
        at = slice(lag0 - 1, lag0 - 1 + k)  # the lags' entries in the tables
        # column i of h ends at u = n - i of f; the lag-L increment ending at u
        # closes cell L-1 and opens cell L
        if rows is not None:
            rows[lag0:] += (weight[at] @ h.reshape(k, -1)).reshape(lanes, m).T[::-1]
        if quot is not None:
            np.maximum(quot, (h.max(axis=2) / powers[at, None]).max(axis=0), out=quot)
    if rows is not None:
        # the lag-u increment ending at u opens no cell: that cell would lie before t_0
        rows[1:] -= near[1:, None] * np.linalg.norm(values[1:] - values[0], axis=2)
    return rows, quot


def _magnitudes(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|a| over its last axis, the components: abs for one, norm for more,
    as _lag_blocks takes them; into out if given, for one component."""
    return np.abs(a[..., 0], out=out) if a.shape[-1] == 1 else np.linalg.norm(a, axis=-1)


def _reach(here: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """An upper bound on |here - v| over the values v of a window whose
    componentwise max and min are hi and lo; rounding is monotone, so it is
    at or above every increment _magnitudes computes."""
    return _magnitudes(np.maximum(here - lo, hi - here))


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The ranges start[i]..stop[i] - 1, each nonempty, one after another."""
    counts = stop - start
    return np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _best_first(bounds: np.ndarray, best: np.ndarray, widths: np.ndarray, exact,
                tie: float) -> None:
    """Raise best (P,), each lane's largest exact value so far, to its sup
    over m candidates whose upper bounds are bounds (P, m).

    Candidates are evaluated by exact(lanes, candidates) per lane in
    descending bound order, in rounds of about _BLOCK_ENTRIES entries, the
    candidate's width counting its entries; a lane stops at the first one
    whose bound times tie lies below its best.  Scales bounds by tie in
    place and zeroes each lane's first.
    """
    ids = np.arange(len(best))
    if not bounds.size:
        return
    # each lane's largest bound first: its value is often near the sup, and
    # then few others reach it
    lead = bounds.argmax(axis=1)
    first = ids[bounds[ids, lead] > 0.0]
    if not len(first):
        return
    np.maximum.at(best, first, exact(first, lead[first]))
    bounds[first, lead[first]] = 0.0
    bounds *= tie
    # a candidate of bound 0 has value 0, which cannot raise a best >= 0
    lane, cand = np.nonzero((bounds > 0.0) & (bounds >= best[:, None]))
    reach = bounds[lane, cand]
    order = np.lexsort((-reach, lane))
    lane, cand, reach = lane[order], cand[order], reach[order]
    spent = np.cumsum(widths[cand])
    pos, ends = np.searchsorted(lane, ids), np.searchsorted(lane, ids, side="right")
    while True:
        live = np.flatnonzero(pos < ends)
        live = live[reach[pos[live]] >= best[live]]
        if not len(live):
            break
        start = pos[live]
        before = np.where(start > 0, spent[start - 1], 0)
        stop = np.searchsorted(spent, before + _BLOCK_ENTRIES // len(live), side="right")
        stop = np.clip(stop, start + 1, ends[live])
        take = _ranges(start, stop)
        take = take[reach[take] >= best[lane[take]]]
        np.maximum.at(best, lane[take], exact(lane[take], cand[take]))
        pos[live] = stop


def _driver_weights(n: int, dt: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, c) of the driver quotient: with h(0) = 0 the kernel integral of a
    start out to lag L is sum_(l<=L) w[l-1] h(l) - g_near[L] h(L), so its
    quotient at L is the running sum C(L) of w h plus c[L-1] h(L); w, c > 0."""
    g_near, g_far = _lag_weights(n, dt, 2.0 - alpha)
    return g_far[:-1] + g_near[1:], 1.0 / _lag_powers(n, dt, 1.0 - alpha) - g_near[1:]


@dataclass
class _Bounds:
    """What _endpoint_bounds gives of P lanes on n steps; each part is None
    unless asked for.

    rows (P, n + 1): each end's row over its lags up to _NEAR_LAGS, which is
    its row where tail is 0; tail (P, n + 1): a bound on the rest.  quot
    (P,): the largest quotient up to _NEAR_LAGS; cells (P, B (n + 1)): for
    blocks[b] = (first, width), the lags first + 1..first + width from
    first = _NEAR_LAGS, 2 _NEAR_LAGS, ..., entry b (n + 1) + u bounds end
    u's quotients there (0 where it has none).  peak (P, n): each start's
    largest driver quotient up to _NEAR_LAGS; run (P, n): its running sum
    there; far (P, n): a bound on its quotients beyond, less run, 0 where
    they are all 0.
    """

    rows: np.ndarray | None = None
    tail: np.ndarray | None = None
    quot: np.ndarray | None = None
    blocks: list = field(default_factory=list)
    cells: np.ndarray | None = None
    peak: np.ndarray | None = None
    run: np.ndarray | None = None
    far: np.ndarray | None = None


def _endpoint_bounds(values: np.ndarray, dt: float, alpha: float | None = None,
                     lambda_exponent: float | None = None,
                     driver_alpha: float | None = None) -> _Bounds:
    """The near parts and the far bounds of every end and start of every
    lane of values, shape (n + 1, P, d): the rows' with alpha, the Hoelder
    quotient's with lambda_exponent, the driver norm's with driver_alpha
    (which reads one component, so d must be 1).

    Lags up to _NEAR_LAGS are swept for every end and start.  The longer
    ones go in blocks of lags first + 1..first + width, _SPLIT blocks of
    width span / _SPLIT (at least 1) from each span = _NEAR_LAGS,
    2 _NEAR_LAGS, ... below n.  The increments of an end u (a start s) in
    a block are at most _reach over the window of its partners there, read
    from running max/min tables of the path that double in width as the
    blocks do.  An end's row tail is at most the sum over blocks of the
    block's weights times that reach; a quotient cell (end, span..2 span)
    is at most the largest over its blocks of the reach over the power at
    the block's first lag, and is evaluated as one; a start's driver
    quotient in a block is at most its running sum up to _NEAR_LAGS plus
    the weights times the reaches of the blocks up to it, plus the block's
    largest c times its reach.
    """
    n, lanes = values.shape[0] - 1, values.shape[1]
    # lane-major, so that each lane's reductions run over contiguous memory
    f = np.ascontiguousarray(values.transpose(1, 0, 2))
    out = _Bounds()
    upto = np.arange(1, n + 1)
    spans = [_NEAR_LAGS << k for k in range(((n - 1) // _NEAR_LAGS).bit_length())]  # all < n
    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        weight = far[:-1] + near[1:]
        out.rows = _magnitudes(f)
        out.tail = np.zeros_like(out.rows)
    if lambda_exponent is not None:
        powers = _lag_powers(n, dt, lambda_exponent)
        out.quot = np.zeros(lanes)
        out.blocks = [(span, min(span, n - span)) for span in spans]
        out.cells = np.zeros((lanes, len(spans) * (n + 1)))
    if driver_alpha is not None:
        w, c = _driver_weights(n, dt, driver_alpha)
        out.run, out.peak, out.far, far_run = np.zeros((4, lanes, n))
    for lag in range(1, min(n, _NEAR_LAGS) + 1):
        h = _magnitudes(f[:, lag:] - f[:, :-lag])  # h[:, i] ends at u = i + lag, starts at s = i
        if alpha is not None:
            out.rows[:, lag:] += weight[lag - 1] * h
            out.rows[:, lag] -= near[lag] * h[:, 0]  # the lag-u increment opens no cell
        if lambda_exponent is not None:
            np.maximum(out.quot, h.max(axis=1) / powers[lag - 1], out=out.quot)
        if driver_alpha is not None:
            run, peak = out.run[:, : n + 1 - lag], out.peak[:, : n + 1 - lag]
            run += w[lag - 1] * h
            np.maximum(peak, run + c[lag - 1] * h, out=peak)
    # hi[:, i] is the max of padded[:, i : i + width], padded with copies of
    # the end values, which lie in every window that the path's ends cut
    # short: before t_0 for the ends, after t_n for the starts; no window is
    # wider than n // _SPLIT
    ends = alpha is not None or lambda_exponent is not None
    left = n // _SPLIT if ends else 0
    right = 0 if driver_alpha is None else n // _SPLIT
    padded = np.concatenate([np.repeat(f[:, :1], left, axis=1), f,
                             np.repeat(f[:, -1:], right, axis=1)], axis=1)
    hi = lo = padded
    width = 1
    for level, span in enumerate(spans):
        while width < span // _SPLIT:
            hi = np.maximum(hi[:, :-width], hi[:, width:])
            lo = np.minimum(lo[:, :-width], lo[:, width:])
            width *= 2
        for first in range(span, min(2 * span, n), width):
            # ends first + 1..n and starts 0..m - 1 have partners in the block
            m = n - first
            counts = np.minimum(upto[:m], width)  # lags in the block, in end order
            if ends:
                # end u = first + 1 + i reaches back to the window from u - first - width
                at = slice(left + 1 - width, left + 1 - width + m)
                reach = _reach(f[:, first + 1 :], hi[:, at], lo[:, at])
                if alpha is not None:
                    sums = np.concatenate([[0.0], np.cumsum(weight[first : first + width])])
                    out.tail[:, first + 1 :] += sums[counts] * reach
                if lambda_exponent is not None:
                    # the cell of end u and its lags span + 1..2 span
                    at = level * (n + 1) + first + 1
                    cell = out.cells[:, at : at + m]
                    np.maximum(cell, reach / powers[first], out=cell)
            if driver_alpha is not None:
                # start s reaches forward to the window from s + first + 1
                at = slice(left + first + 1, left + first + 1 + m)
                reach = _reach(f[:, :m], hi[:, at], lo[:, at])
                sums = np.concatenate([[0.0], np.cumsum(w[first : first + width])])
                far_run[:, :m] += sums[counts[::-1]] * reach
                np.maximum(out.far[:, :m], far_run[:, :m] + c[first : first + width].max() * reach,
                           out=out.far[:, :m])
    return out


def _endpoint_sups(values: np.ndarray, dt: float, alpha: float | None = None,
                   damping: np.ndarray | None = None, lambda_exponent: float | None = None,
                   driver_alpha: float | None = None):
    """The suprema of the pair-based norms of every lane of values, shape
    (n + 1, P, d), by branch and bound over endpoints, as (rows, damped,
    quot, drive), each (P,) or None unless asked for: with alpha the largest
    row and the largest damping (n + 1, 1) times row; with lambda_exponent
    the largest Hoelder quotient; with driver_alpha the driver norm, which
    reads one component, so d must be 1.

    The best of each starts at the near parts of _endpoint_bounds, and
    _best_first evaluates the ends, quotient cells and starts whose far
    bound reaches it; ends and starts whose far increments are all 0 are
    exact after the near lags.
    """
    n, lanes = values.shape[0] - 1, values.shape[1]
    # a bound and the exact value each sum at most n + 1 positive terms
    tie = 1.0 + max(1e-12, (n + 1) * np.finfo(float).eps)
    upto = np.arange(1, n + 1)
    bounds = _endpoint_bounds(values, dt, alpha, lambda_exponent, driver_alpha)
    out = [None] * 4
    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        weight = far[:-1] + near[1:]
        # back[n - u + L] = f(t_(u - L)) for the lags L = 1..u of end u, then zeros
        back = np.concatenate([values[::-1], np.zeros_like(values[1:])])

        def row_values(lane, end):
            span = end.max()
            h = sliding_window_view(back, span, axis=0)[n + 1 - end, lane]
            h = np.subtract(values[end, lane][:, :, None], h, out=h).transpose(0, 2, 1)
            h = _magnitudes(h, out=h[..., 0])
            h[upto[:span] > end[:, None]] = 0.0
            return (_magnitudes(values[end, lane]) + h @ weight[:span]
                    - near[end] * h[np.arange(len(end)), end - 1])

        rows = bounds.rows
        # the ends without far increments are known; the others once
        # evaluated, in the pass of the rows or of the damped rows
        value = np.where(bounds.tail > 0.0, -np.inf, rows)
        bound = rows + bounds.tail
        for scale in (np.ones(n + 1),) if damping is None else (np.ones(n + 1), damping[:, 0]):
            def exact_rows(lane, end):
                value[lane, end] = row_values(lane, end)
                return scale[end] * value[lane, end]

            known = value > -np.inf
            # every near part is its end's row up to rounding: a start for the best
            best = (scale * np.where(known, value, rows)).max(axis=1)
            _best_first(np.where(known, 0.0, scale * bound), best, np.full(n + 1, n),
                        exact_rows, tie)
            if out[0] is None:  # the damped pass only adds ends below this sup
                out[0] = value.max(axis=1)
        if damping is not None:
            out[1] = np.where(value > -np.inf, damping[:, 0] * value, -np.inf).max(axis=1)
    if lambda_exponent is not None:
        powers = _lag_powers(n, dt, lambda_exponent)
        behind = np.concatenate([np.repeat(values[:1], n, axis=0), values])
        windows = {}  # width -> sliding windows of behind

        def exact_cells(lane, cell):
            which, end = np.divmod(cell, n + 1)
            top = np.empty(len(cell))
            for b in set(which.tolist()):  # np.unique costs ~15 ms on its first call
                first, width = bounds.blocks[b]
                here = which == b
                u, p = end[here], lane[here]
                # lags first + width down to first + 1; a lag past u reads
                # f(t_0) again, a quotient below that of lag u
                if width not in windows:
                    windows[width] = sliding_window_view(behind, width, axis=0)
                h = windows[width][u - first - width + n, p]
                h = np.subtract(values[u, p][:, :, None], h, out=h).transpose(0, 2, 1)
                h = _magnitudes(h, out=h[..., 0])
                top[here] = np.divide(h, powers[first : first + width][::-1], out=h).max(axis=1)
            return top

        widths = np.repeat([width for _, width in bounds.blocks], n + 1).astype(int)
        out[2] = bounds.quot
        _best_first(bounds.cells, out[2], widths, exact_cells, tie)
    if driver_alpha is not None:
        g = values[:, :, 0]
        w, c = _driver_weights(n, dt, driver_alpha)
        # ahead[s + L - 1] = g(t_(s + L)) for the lags L = 1..n - s of start s, then zeros
        ahead = np.concatenate([g[1:], np.zeros_like(g)])

        def exact_starts(lane, start):
            span = n - start.min()
            h = sliding_window_view(ahead, span, axis=0)[start, lane]
            h = np.abs(np.subtract(h, g[start, lane][:, None], out=h), out=h)
            h[upto[:span] > (n - start)[:, None]] = 0.0
            q = np.cumsum(w[:span] * h, axis=1)  # in lag order, as the near lags sum it
            q += np.multiply(c[:span], h, out=h)
            return q.max(axis=1)

        out[3] = bounds.peak.max(axis=1)
        _best_first(np.where(bounds.far > 0.0, bounds.run + bounds.far, 0.0), out[3],
                    np.full(n, n), exact_starts, tie)
    return tuple(out)


def _sups(values: np.ndarray, dt: float, alpha: float | None = None,
          damping: np.ndarray | None = None, lambda_exponent: float | None = None,
          driver_alpha: float | None = None):
    """(rows, damped, quot, drive) of _endpoint_sups.  Below _ENDPOINT_STEPS
    steps the rows and the quotient come from the lane sweep instead, which
    is faster there: its pairs grow as n^2 / 2 per lane, the endpoint bounds
    as n log n plus a cost per call."""
    if values.shape[0] - 1 >= _ENDPOINT_STEPS or (alpha is None and lambda_exponent is None):
        return _endpoint_sups(values, dt, alpha, damping, lambda_exponent, driver_alpha)
    rows, quot = _lag_sweep(values, dt, alpha, lambda_exponent)
    drive = (None if driver_alpha is None
             else _endpoint_sups(values, dt, driver_alpha=driver_alpha)[3])
    return (None if rows is None else rows.max(axis=0),
            None if rows is None or damping is None else (damping * rows).max(axis=0),
            quot, drive)


def _lane_group(n: int) -> int:
    """Lanes per sweep on an n-step grid: a block of two lags of all of them
    stays within _BLOCK_ENTRIES."""
    return max(1, _BLOCK_ENTRIES // (2 * (n + 1)))


def _w_alpha_inf_norms(fs: list[SamplePath], alpha: float) -> np.ndarray:
    """w_alpha_inf_norm of every path of fs, which share one grid, as the
    lanes of one _sups per _lane_group."""
    norms = np.empty(len(fs))
    if fs:
        grid = fs[0].grid
        group = _lane_group(grid.n_steps)
        for first in range(0, len(fs), group):
            values = np.stack([f.values for f in fs[first : first + group]], axis=1)
            norms[first : first + group] = _sups(values, grid.dt, alpha)[0]
    return norms


def w_alpha_inf_norm(f: SamplePath, p: AlphaParams) -> float:
    """Discrete W^(alpha,infinity) norm of f on p.interval."""
    f = f.restrict(*p.interval) if p.interval else f
    return float(_sups(f.values[:, None], f.grid.dt, p.alpha)[0][0])


def weighted_alpha_norm(f: SamplePath, p: AlphaParams) -> float:
    """Same as w_alpha_inf_norm with each u-term damped by exp(-lambda*u)."""
    f = f.restrict(*p.interval) if p.interval else f
    damping = np.exp(-p.lambda_weight * f.times)[:, None]
    return float(_sups(f.values[:, None], f.grid.dt, p.alpha, damping)[1][0])


def holder_norm(f: SamplePath, lambda_exponent: float,
                interval: tuple[float, float] | None = None) -> float:
    """sup|f| + sup over grid pairs of |f(v)-f(u)| / (v-u)^lambda."""
    if not 0.0 < lambda_exponent <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in (0, 1], got {lambda_exponent}")
    f = f.restrict(*interval) if interval else f
    quot = _sups(f.values[:, None], f.grid.dt, lambda_exponent=lambda_exponent)[2]
    return float(np.linalg.norm(f.values, axis=1).max()) + float(quot[0])


def _driver_norms(values: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Driver norm of every lane of values, shape (n + 1, P, d): the largest
    over its components, each one lane of a one-component _endpoint_sups."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    points, lanes, d = values.shape
    drive = _endpoint_sups(values.reshape(points, lanes * d, 1), dt, driver_alpha=alpha)[3]
    return drive.reshape(lanes, d).max(axis=1)


def g_norm_one_minus_alpha(g: SamplePath, alpha: float,
                           interval: tuple[float, float] | None = None) -> float:
    """Discrete W^(1-alpha,infinity) driver norm of a scalar path: the sup
    over every start and lag.  Each start's quotients up to _NEAR_LAGS are
    swept; beyond them only the starts whose bound reaches the best so far
    are evaluated, each summed in lag order, so the value is bit-equal to a
    sweep over every pair."""
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
    start and lag, at every size, bit-equal to a sweep over every pair: a
    start is evaluated exactly, its running sum added in lag order, unless
    its bound from the running max/min tables, times 1 + max(1e-12,
    (n + 1) eps), lies below the best quotient so far.
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
    rows = _lag_sweep(f.values[:, None], f.grid.dt, alpha)[0][:, 0]
    inner = rows - vals  # strip the |f(u)| part, keep the singular integral
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
    # kept for the schema and always False: every norm is the sup over every pair
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
    dimension, as lanes of one pass.

    One _sups gives the largest W^(alpha,infinity) row, plain and damped,
    the Hoelder quotient and, on paths from t = 0, the driver norm of every
    lane (for d > 1 a second search, one lane per component), and one fit
    the exponent estimates.  The lanes go in groups small enough that a
    block of two lags stays within _BLOCK_ENTRIES.
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
        w_alpha, weighted, quot, drive = _sups(values, grid.dt, alpha, damping, 1.0 - alpha,
                                               alpha if from_zero and d == 1 else None)
        if from_zero and d > 1:
            drive = _driver_norms(values, grid.dt, alpha)
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
