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
W^(alpha,infinity) norm, plain and damped), of the Hoelder quotient over each
end's lags, and of each start s's driver quotients (Lambda_alpha), one lane per
component, found by one search, _endpoint_sups.  _lag_sweep takes the lags
1.._NEAR_LAGS; running max/min tables of the path bound the longer lags, in
blocks whose widths double every _SPLIT blocks, first for ranges of endpoints,
then for single ends, starts and quotient nodes: an end's doubling, its blocks,
halves and leaves of _NEAR_LAGS lags (_endpoint_bounds).  _search evaluates
exactly, best first, the ends, starts and leaves whose bound times 1 +
max(1e-12, (n + 1) eps), a margin for the rounding of two sums of at most n + 1
positive terms, reaches the best so far.  The quotient's best starts at the
pairs of a lattice of ends: on smooth paths few leaves reach it, at most
2 n log2 n exact quotient entries.  Every norm is bit-equal to the sweep over
every pair: each quotient is computed as that sweep computes it, and each
evaluated row and each start's running sum is added in its lag order, so a
path's norms and exponent estimate do not depend on the paths that share its
call.  _lag_sweep also gives the full rows of f_norm_alpha_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import SamplePath, TimeGrid

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

# Entries per round of exact evaluations of the endpoint search; it also
# sizes the groups of lanes (_lane_sups).
_BLOCK_ENTRIES = 1 << 15
# Lags that the endpoint search sweeps for every end and start, and far
# blocks per doubling of their width, measured on fBm and solution paths of
# 2,048 and 4,096 steps: with 4 blocks the slowest of 40 fBm inputs took
# 3 times the median, with 8 under 1.5 times.
_NEAR_LAGS = 32
_SPLIT = 8


@dataclass(frozen=True)
class AlphaParams:
    """Fractional exponent and exponential weight, on the path's own grid."""

    alpha: float
    lambda_weight: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if not 0.0 <= self.lambda_weight < math.inf:
            raise ValueError(f"lambda_weight must be finite and >= 0, got {self.lambda_weight}")


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
    read-only.  Built _BLOCK_ENTRIES lags at a time, whose temporaries are few."""
    near, far = np.empty((2, n + 1))
    for lo in range(0, n + 1, _BLOCK_ENTRIES):
        hi = min(lo + _BLOCK_ENTRIES, n + 1)
        A, B = np.arange(lo, hi) * dt, np.arange(lo + 1, hi + 1) * dt
        near[lo:hi], far[lo:hi] = (_cell_integrals(A, B, 1.0, 0.0, kappa),
                                   _cell_integrals(A, B, 0.0, 1.0, kappa))
    return _read_only(near), _read_only(far)


@lru_cache(maxsize=8)
def _lag_powers(n: int, dt: float, exponent: float) -> np.ndarray:
    """(L dt)^exponent for L = 1..n by the scalar pow (numpy's vectorised
    power can differ from it in the last bit); cached read-only."""
    return _read_only(np.fromiter(map(pow, (np.arange(1, n + 1) * dt).tolist(), repeat(exponent)),
                                  float, n))


def _lag_sweep(values: np.ndarray, dt: float, alpha: float | None = None,
               lambda_exponent: float | None = None, max_lag: int | None = None,
               driver_alpha: float | None = None):
    """The pair-based norms of every lane of values, shape (n + 1, P, d), over
    the lags 1..max_lag (default every lag), as (rows, quot, run, peak), each
    None unless asked for: with alpha the rows |f(u)| + int_s^u |f(u)-f(v)|
    (u-v)^(-alpha-1) dv, shape (n + 1, P); with lambda_exponent the largest
    |f(v)-f(u)| / (v-u)^lambda_exponent of each lane; with driver_alpha,
    shape (n, P d), one lane per component, each start's running sum of
    w h and its largest driver quotient (_driver_weights), summed in lag
    order.  One pass: each lag's increments of every lane are one contiguous
    difference, which every norm asked for reads."""
    n, lanes, d = values.shape[0] - 1, values.shape[1], values.shape[2]
    top = n if max_lag is None else max_lag
    rows = run = peak = None
    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        weight = far[:-1] + near[1:]
        rows = _magnitudes(values)
    if lambda_exponent is not None:
        powers = _lag_powers(n, dt, lambda_exponent)
        # each start's largest quotient so far: a max over the starts at each
        # lag, rows of only P entries, takes several times longer
        quots = np.zeros((n, lanes))
    if driver_alpha is not None:
        w, c = _driver_weights(n, dt, driver_alpha)
        run, peak = np.zeros((2, n, lanes * d))
    for lag in range(1, top + 1):
        m = n + 1 - lag
        # entry i: the increment from start i to end i + lag
        step = values[lag:] - values[:m]
        h = _magnitudes(step, out=step[..., 0])
        # the increment ending at u closes cell lag - 1 of u's row and opens cell lag
        if rows is not None:
            rows[lag:] += weight[lag - 1] * h
        if driver_alpha is not None:
            a = h if d == 1 else np.abs(step, out=step).reshape(m, -1)  # a lane per component
            run[:m] += w[lag - 1] * a
            np.maximum(peak[:m], run[:m] + c[lag - 1] * a, out=peak[:m])
        if lambda_exponent is not None:  # last, as it overwrites h
            np.maximum(quots[:m], np.divide(h, powers[lag - 1], out=h), out=quots[:m])
    if rows is not None:
        # the lag-u increment ending at u <= top opens no cell: that cell
        # would lie before t_0
        swept = slice(1, top + 1)
        rows[swept] -= near[swept, None] * _magnitudes(values[swept] - values[0])
    # rounding is monotone: the largest quotient is the largest increment's
    quot = None if lambda_exponent is None else quots.max(axis=0)
    return rows, quot, run, peak


def _magnitudes(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|a| over its last axis, the components: abs for one, norm for more,
    as _lag_sweep takes them; into out if given, for one component."""
    return np.abs(a[..., 0], out=out) if a.shape[-1] == 1 else np.linalg.norm(a, axis=-1)


def _reach(top: np.ndarray, bottom: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Componentwise, at least |x - v| for x in a range of max top and min -bottom and v in a
    window of max hi and min -lo, which it overwrites; rounding keeps it at least any increment."""
    return np.maximum(np.add(top, lo, out=lo), np.add(hi, bottom, out=hi), out=lo)


def _driver_weights(n: int, dt: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, c) of the driver quotient: with h(0) = 0 the kernel integral of a
    start out to lag L is sum_(l<=L) w[l-1] h(l) - g_near[L] h(L), so its
    quotient at L is the running sum C(L) of w h plus c[L-1] h(L); w, c > 0."""
    AlphaParams(alpha=alpha)  # checks alpha
    g_near, g_far = _lag_weights(n, dt, 2.0 - alpha)
    return g_far[:-1] + g_near[1:], 1.0 / _lag_powers(n, dt, 1.0 - alpha) - g_near[1:]


@dataclass
class _Bounds:
    """What _endpoint_bounds gives of P lanes of d components on n steps.  Near
    parts, None unless asked for: rows (P, n + 1), each end's row over the lags
    of _lag_sweep; quot (P,), the largest quotient there; peak (P d, n), each
    start's largest driver quotient there.  Far bounds, 0 where nothing lies
    beyond, per range j of ends j width..j width + width - 1 (start s is end
    n - s of the reversed path): tail (P, R) of its rows' rest, cells (P, B R)
    (P, 1 if B = 0), entry k R + j, of its quotients over lags first + 1..first
    + lags, blocks[k] = (first, lags); far (P d, R) of its driver quotients.
    Per end: row_tail, start_far, node (quotients over lags first + 1..first + lags, a width)."""

    width: int = 1
    rows: np.ndarray | None = None
    quot: np.ndarray | None = None
    peak: np.ndarray | None = None
    blocks: list = field(default_factory=list)
    tail: np.ndarray | None = None
    cells: np.ndarray | None = None
    far: np.ndarray | None = None
    row_tail: object = None
    start_far: object = None
    node: object = None


def _endpoint_bounds(values: np.ndarray, dt: float, alpha: float | None = None,
                     lambda_exponent: float | None = None,
                     driver_alpha: float | None = None) -> _Bounds:
    """The near parts and the far bounds of every end and start of every lane of
    values, shape (n + 1, P, d): the rows' with alpha, the Hoelder quotient's
    with lambda_exponent, the driver norm's with driver_alpha.  One _lag_sweep
    up to _NEAR_LAGS gives the near parts.  From each span = _NEAR_LAGS,
    2 _NEAR_LAGS, ... below n go span / w blocks of the lags first + 1..first
    + w, w = span / _SPLIT (at least 1).  The increments of a range of ends in
    a block are at most _reach from its max and min to its partners', from
    running max tables of the path and of its negation, read mirrored for the
    starts: those of widths w0, 4 w0, 16 w0, ..., w0 the least w, are stored,
    and each other one is read as two windows of half its width.  So a row's
    tail is at most its blocks' weights times the reach; a quotient cell (end,
    span..2 span) the largest reach over the power at a block's first lag; a
    start's driver quotients through a doubling its near running sum plus the
    weights times the reaches so far plus the largest c times reach.  First
    level: aligned ranges of min(w, _NEAR_LAGS) ends, whose partners in a block
    lie in one window of 2 w; second level, on demand: single ends, and nodes."""
    n, lanes, d = values.shape[0] - 1, values.shape[1], values.shape[2]
    rows, quot, run, peak = _lag_sweep(values, dt, alpha, lambda_exponent, min(n, _NEAR_LAGS),
                                       driver_alpha)
    spans = [_NEAR_LAGS << k for k in range(((n - 1) // _NEAR_LAGS).bit_length())]  # all < n
    out = _Bounds(1, None if alpha is None else np.ascontiguousarray(rows.T), quot,
                  None if driver_alpha is None else peak.T,
                  [(span, min(span, n - span)) for span in spans], np.zeros((lanes, n + 1)),
                  np.zeros((lanes, 1)), np.zeros((lanes * d, n + 1)))
    if not spans:
        return out  # no far lag: every end and start is exact after the near lags
    widths = [1 << (max(span // _SPLIT, 1) - 1).bit_length() for span in spans]
    tables = sorted({*widths, 2 * widths[-1], _NEAR_LAGS})  # _NEAR_LAGS: the quotient's leaves
    pad, total, (offs, steps) = max(widths[-1], _NEAR_LAGS), 0, np.zeros((2, tables[-1] + 1), int)
    for j, wide in enumerate(tables):  # offs and steps by width: see window
        offs[wide], steps[wide] = (offs[wide // 2], wide // 2) if j % 2 else (total, 0)
        total += 0 if j % 2 else n + 2 * pad + 2 - wide
    span, w = np.array(spans), np.array(widths)
    r = np.minimum(w, _NEAR_LAGS)  # ends per range
    table, own_step, double, win_step = offs[r], steps[r], offs[2 * w], steps[2 * w]
    full, count = span // w, np.minimum(span // w, -(-(n - span) // w))  # blocks; below n
    level, start = np.repeat(np.arange(len(w)), count), np.cumsum(count) - count
    first = np.append(span[level] + (np.arange(len(level)) - start[level]) * w[level], 2 * n)
    size, last = np.append(w[level], 1), len(level)  # the last block has no lag
    base, base_step = np.append(offs[w[level]], 0), np.append(steps[w[level]], 0)
    slot, offset = np.arange(full.max()), np.cumsum(size + 1) - size - 1
    by_level = np.where(slot < count[:, None], start[:, None] + slot, last)
    ranges = -(-(n + 1) // r) - span // r  # a doubling's ranges from its first lag
    row, k = np.cumsum(ranges) - ranges, np.repeat(np.arange(len(w)), ranges)
    u = (np.arange(len(k)) - row[k] + span[k] // r[k]) * r[k]  # each range's first end
    own, win = table[k] + pad + u, double[k] + pad + u - (full[k] + 1) * w[k]  # and slot 0's
    mirror_own = 2 * table[k] + n + 2 * pad + 1 - r[k] - own  # the reversed path's
    mirror_win = 2 * double[k] + n + 2 * pad + 1 - 2 * w[k] - win
    out.width, maxima, width = widths[0], np.empty((2, lanes, total, d)), 1
    top = np.concatenate([values[:1].repeat(pad, 0), values, values[-1:].repeat(pad, 0)])
    top = np.stack([top, -top]).swapaxes(1, 2)
    for wide, start in zip(tables[::2], offs[tables[::2]]):
        while width < wide:  # each table from the one of half its width, in its place
            into = slice(start, start + top.shape[2] - width) if 2 * width == wide else None
            top = np.maximum(top[:, :, :-width], top[:, :, width:], out=into and maxima[:, :, into])
            width *= 2
        if wide == 1:  # blocks of one lag: the path itself
            maxima[:, :, : top.shape[2]] = top
    maxima = maxima.reshape(2, -1, d)  # lane p's tables from p total

    def sums(a):  # from offset[b], block b's sums of a over its first 0..w lags, in lag order
        a = np.append(a, np.zeros(2 * pad))
        return np.concatenate([np.concatenate([np.zeros((m, 1)), np.cumsum(
            a[x : x + m * y].reshape(m, y), axis=1)], axis=1).ravel()
            for x, m, y in zip(spans, count, widths)] + [np.zeros(2)])

    c_max, power = np.zeros(len(first)), np.full(len(first), np.inf)  # for norms not asked
    row_weight = drive = np.broadcast_to(0.0, offset[-1] + 2)  # no memory
    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        row_weight = sums(far[:-1] + near[1:])
    if lambda_exponent is not None:
        power[:-1] = _lag_powers(n, dt, lambda_exponent)[first[:-1]]
    if driver_alpha is not None:
        drive, c = _driver_weights(n, dt, driver_alpha)
        c = np.append(c, np.zeros(2 * pad))[: first[-2] + pad]
        drive, c_max = sums(drive), np.append(np.maximum.reduceat(c, first[:-1]), 0.0)

    def window(at, step):  # the max and -min of the windows at at, a scratch array: of width w
        # at x, entry offs[w] + pad + x and, where step = steps[w] > 0, entry + step
        got = np.take(maxima, at, axis=1, mode="clip")
        if np.any(step):
            np.maximum(got, np.take(maxima, np.add(at, step, out=at), axis=1, mode="clip"), out=got)
        return got

    def bound(top, bottom, win, step, block, at, reversed_path, running=False):
        """Per row, from its max top and min -bottom to its windows win, step as in window,
        per slot (the first axis, which numpy reduces many times faster than a short last one)
        of the blocks block, weights at at: tails and cells, or far running sums and largest
        c times reach, or single starts' quotients."""
        g = _reach(top[None], bottom[None], *window(win, step))
        if reversed_path:
            run, top = drive[at][..., None] * g, np.multiply(c_max[block][..., None], g, out=g)
            if running:  # in block order, as each start's running sum
                run = np.cumsum(run, axis=0, out=run)
                return run[-1], np.add(top, run, out=top).max(axis=0)
            return run.sum(axis=0), top.max(axis=0)
        g = g[..., 0] if d == 1 else _magnitudes(g)  # a reach is >= 0: one component needs no abs
        top = (g / power[block]).max(axis=0)
        return np.multiply(row_weight[at], g, out=g).sum(axis=0), top

    def rectangles(i):  # the rows i of the rectangles, per lane
        step, b = slot[:, None] * w[k[i]], by_level[k[i]].T  # (slots, rows)
        block = np.where(np.minimum(u[i] + r[k[i]] - 1, n) > first[b], b, last)[..., None]
        at_lane, got, at = np.arange(lanes) * total, (), offset[block] + size[block]  # in full
        for mirror in (False,) * ends + (True,) * (driver_alpha is not None):  # then starts
            o, v, sign = (mirror_own, mirror_win, 1) if mirror else (own, win, -1)
            got += bound(*window(o[i][:, None] + at_lane, own_step[k[i], None]),
                         (v[i] + sign * step)[..., None] + at_lane, win_step[k[i], None],
                         block, at, mirror)
        return got

    def single(lane, end, reversed_path=False):  # over every block
        b = np.arange(last)[:, None, None]
        own, end = values[n - end if reversed_path else end, lane][:, None], end[:, None]
        one = (n + 1 + first[b] - end if reversed_path else end - first[b] - size[b]) + base[b]
        one += (lane * total)[:, None] + pad  # end's partners, mirrored for a start
        count = np.minimum(np.maximum(end - first[b], 0), size[b])
        block, count = np.where(count > 0, b, last), count + offset[b]
        return bound(own, -own, one, base_step[b], block, count, reversed_path, True)

    def chunked(part, count, entries, *args):  # part over slices of args, joined
        step = max(1, _BLOCK_ENTRIES // 8 // entries)
        parts = [part(*(a[i : i + step] for a in args)) for i in range(0, count or 1, step)]
        return [np.concatenate(a) for a in zip(*parts)]

    def per_range(a):  # rows of the rectangles (rows, ...) -> per doubling, per lane and range
        for j, skip in enumerate(span // w[0]):  # 0 below its first lag
            g = np.repeat(a[row[j] : row[j] + ranges[j]].reshape(ranges[j], -1).T, r[j] // w[0], 1)
            yield np.concatenate([np.zeros((len(g), skip)), g], axis=1)[:, : (n + w[0]) // w[0]]

    ends = alpha is not None or lambda_exponent is not None
    got = chunked(rectangles, len(k), lanes * len(slot) * d, np.arange(len(k)))
    if ends:
        out.tail, out.cells = sum(per_range(got[0])), np.concatenate([*per_range(got[1])], axis=1)
        out.row_tail = lambda lane, end: chunked(single, len(end), last * d, lane, end)[0][:, 0]
    if lambda_exponent is not None:
        def node(lane, end, first, lags, powers=_lag_powers(n, dt, lambda_exponent)):
            own = values[end, lane]  # its partners: the window at end - first - lags
            g = _reach(own, -own, *window(offs[lags] + pad - lags + end - first + lane * total,
                                          steps[lags]))
            g = g[..., 0] if d == 1 else _magnitudes(g)
            return np.where(first < end, g / powers[np.minimum(first, n - 1)], 0.0)
        out.node = lambda *args: chunked(lambda *a: (node(*a),), len(args[0]), _SPLIT * d, *args)[0]
    if driver_alpha is not None:
        back = np.concatenate([np.zeros((lanes * d, 1)), run.T[:, ::-1]], axis=1)  # start n - u
        # the largest after the running sums through each doubling
        top = reduce(np.maximum, map(np.add, accumulate(per_range(got[-2])), per_range(got[-1])))
        out.far = np.where(top > 0.0, np.maximum.reduceat(back, range(0, n + 1, out.width), 1)
                           + top, 0.0)

        def start_far(lane, end):  # of the starts n - end
            top = chunked(lambda *a: single(*a, reversed_path=True), len(end), last * d, lane // d,
                          end)[1][np.arange(len(end)), 0, lane % d]
            return np.where(top > 0.0, back[lane, end] + top, 0.0)
        out.start_far = start_far
    return out


def _search(rect: np.ndarray, best: np.ndarray, width: int, size: int, split, exact,
            entries: int, tie: float, lead: np.ndarray) -> None:
    """Raise best (P,), each lane's largest exact value so far, to its sup over
    candidates: range k R + j, R = ceil(size / width), holds k size + j width..
    + width - 1 below (k + 1) size; rect (P, ranges) bounds their values.  The
    best range of each lane of lead goes first, then each range whose bound
    times tie reaches the best.  Level by level, of the candidates that reach
    it, split(lanes, candidates) -> (leaf mask, (lanes, children, bounds)) gives
    the others' children, and exact(lanes, candidates) evaluates the leaves,
    best first in rounds of _BLOCK_ENTRIES entries (the first _SPLIT times
    shorter), entries a leaf."""
    def evaluate(lane, cand, reach):
        count = np.bincount(lane, minlength=len(best))
        step = max(1, _BLOCK_ENTRIES // entries // max(1, np.count_nonzero(count)))
        top, size = 0, max(1, step // _SPLIT)
        order = np.lexsort((-reach, lane))
        lane, cand, reach = lane[order], cand[order], reach[order]
        rank = np.arange(len(lane)) - np.searchsorted(lane, lane)  # in its lane, best first
        while top < count.max():
            take = np.flatnonzero((rank >= top) & (rank < top + size) & (reach >= best[lane]))
            if not len(take):  # each lane's next bound lies below its best
                return
            np.maximum.at(best, lane[take], exact(lane[take], cand[take]))
            top, size = top + size, step

    def run(lane, which):  # the ranges which, each taken once, down to the leaves depth first
        local = (which[:, None] % per * width + np.arange(width)).ravel()
        inside, reach, rect[lane, which] = local < size, rect[lane, which] * tie, 0.0
        lane, reach, cand = (np.repeat(a, width)[inside] for a in (lane, reach, which // per * size))
        stack = [(lane, cand + local[inside], reach)]
        while stack:
            lane, cand, reach = stack.pop()
            # a candidate of bound 0 has value 0, which cannot raise a best >= 0
            keep = (reach > 0.0) & (reach >= best[lane])
            lane, cand, reach = lane[keep], cand[keep], reach[keep]
            if len(lane) > chunk:  # best first, _BLOCK_ENTRIES / _SPLIT at a time
                order = np.argsort(-reach)
                lane, cand, reach = lane[order], cand[order], reach[order]
                stack += [(lane[i : i + chunk], cand[i : i + chunk], reach[i : i + chunk])
                          for i in reversed(range(0, len(lane), chunk))]
            elif len(lane):
                leaf, (kids, child, bound) = split(lane, cand)
                evaluate(lane[leaf], cand[leaf], reach[leaf])
                stack.append((np.broadcast_to(kids, child.shape), child, bound * tie))

    per, chunk = -(-size // width), max(1, _BLOCK_ENTRIES // _SPLIT)
    if len(lead):
        run(lead, rect[lead].argmax(axis=1))
    run(*np.nonzero((rect > 0.0) & (rect * tie >= best[:, None])))


def _pair_quotients(points: np.ndarray, powers: np.ndarray, step: int) -> np.ndarray:
    """Each lane's largest quotient between two of points, (m, P, d), each step
    grid steps after the next, as _lag_sweep computes it; powers[L - 1] = (L dt)^exponent."""
    apart = np.subtract.outer(np.arange(len(points)), np.arange(len(points)))  # later i, earlier j
    quot = _magnitudes(points[:, None] - points) / powers[np.maximum(-apart, 1) * step - 1, None]
    return np.where(apart[..., None] < 0, quot, 0.0).max(axis=(0, 1), initial=0.0)


def _endpoint_sups(values: np.ndarray, dt: float, alpha: float | None = None,
                   damping: np.ndarray | None = None, lambda_exponent: float | None = None,
                   driver_alpha: float | None = None):
    """The suprema of the pair-based norms of every lane of values, shape (n + 1,
    P, d), by branch and bound over endpoints, as (rows, damped, quot, drive),
    each (P,) or None unless asked for: with alpha the largest row and the largest
    damping (n + 1, 1) times row; with lambda_exponent the largest Hoelder
    quotient; with driver_alpha the driver norm, the largest over the components,
    each a lane of the search.  Each best starts at the near parts of
    _endpoint_bounds; _search takes the ends, leaves and starts that reach it."""
    n, lanes = values.shape[0] - 1, values.shape[1]
    # a bound and the exact value each sum at most n + 1 positive terms
    tie = 1.0 + max(1e-12, (n + 1) * np.finfo(float).eps)
    upto = np.arange(1, n + 1)
    bounds = _endpoint_bounds(values, dt, alpha, lambda_exponent, driver_alpha)
    width, starts = bounds.width, np.arange(0, n + 1, bounds.width)  # the ranges' first ends
    # edged[n + x] = f(t_x), f(t_0) before and f(t_n) after: an end's or a start's lags are a window
    edged = np.concatenate([values[:1].repeat(n, 0), values,
                            values[-1:].repeat(0 if driver_alpha is None else n, 0)])
    out = [None] * 4

    def bounded(bound):  # ends or starts, each by its own bound, then exactly as n + 1 + end
        def split(lane, code):
            lane, end = lane[code <= n], code[code <= n]
            return code > n, (lane, end + n + 1, bound(lane, end) if len(end) else end * 0.0)
        return split

    if alpha is not None:
        near, far = _lag_weights(n, dt, alpha + 1.0)
        weight = far[:-1] + near[1:]

        def row_values(lane, end):  # in _lag_sweep's order: |f(u)|, w h by lag, - near h
            span = end.max()
            h = sliding_window_view(edged, span, axis=0)[n + end - span, lane]  # lags span..1
            h = np.subtract(values[end, lane][:, :, None], h, out=h)[..., ::-1].transpose(0, 2, 1)
            h = _magnitudes(h, out=h[..., 0])
            h[upto[:span] > end[:, None]] = 0.0
            opened = near[end] * h[np.arange(len(end)), end - 1]
            np.multiply(h, weight[:span], out=h)[:, 0] += _magnitudes(values[end, lane])
            return np.cumsum(h, axis=1, out=h)[:, -1] - opened

        rows = bounds.rows
        top = np.maximum.reduceat(rows, starts, axis=1) + bounds.tail
        plain = damping is None or bool(np.all(damping == 1.0))  # then damped rows are rows
        for i, scale in enumerate((np.ones(n + 1),) if plain else (np.ones(n + 1), damping[:, 0])):
            def refine_rows(lane, end):  # an end without far lags has its near part in the best
                tail = bounds.row_tail(lane, end)
                return np.where(tail > 0.0, scale[end] * (rows[lane, end] + tail), 0.0)

            def exact_rows(lane, code):
                end = code - n - 1
                return scale[end] * row_values(lane, end)

            # every near part is its end's row up to rounding: a start for the best
            out[i] = (scale * rows).max(axis=1)
            rect = np.where(bounds.tail > 0.0, np.maximum.reduceat(scale, starts) * top, 0.0)
            _search(rect, out[i], width, n + 1, bounded(refine_rows), exact_rows, n, tie,
                    np.arange(lanes))
        if damping is not None and plain:
            out[1] = out[0]
    if lambda_exponent is not None:
        # a heap of nodes of the far lags over J >= n / _NEAR_LAGS leaves: node h, candidate
        # (B + h) (n + 1) + end, has lags first[h] + 1..first[h] + size[h] and kids[h, :fan[h]]:
        # a doubling's blocks (at least a leaf wide), else at most _SPLIT leaves, else halves;
        # node 0, past every lag, fills the rest.  Doubling k's cell k (n + 1) + end is heads[k].
        B, J = len(bounds.blocks), 1 << (-(-n // _NEAR_LAGS) - 1).bit_length()
        h = np.arange(2 * J)
        level = np.maximum(np.frexp(h)[1] - 1, 0)
        size = (J >> level) * _NEAR_LAGS
        first = (h - (1 << level)) * size
        fan = np.minimum(size // _NEAR_LAGS,
                         np.where((first == size) | (size <= _SPLIT * _NEAR_LAGS), _SPLIT, 2))
        kids = (h[:, None] * fan[:, None] + np.arange(_SPLIT)) * (np.arange(_SPLIT) < fan[:, None])
        first[0], size[0] = J * _NEAR_LAGS, _NEAR_LAGS
        heads = np.append(J * _NEAR_LAGS // np.array([f for f, _ in bounds.blocks], int) + 1, h)
        powers = np.append(_lag_powers(n, dt, lambda_exponent), np.full(_NEAR_LAGS, np.inf))
        # a lead: every pair of the ends t_n, t_(n - s), ..., s = max(_NEAR_LAGS, n / _NEAR_LAGS);
        # where it lies below the near lags' best, the best range leads
        step = max(_NEAR_LAGS, n // _NEAR_LAGS)
        out[2] = np.maximum(bounds.quot, _pair_quotients(values[n::-step], powers, step))
        # each leaf's partners and powers (past n infinite)
        partners, powers = (B and sliding_window_view(a, _NEAR_LAGS, 0) for a in (edged, powers))

        def split(lane, code):  # a cell, even one leaf wide, is bounded before it is evaluated
            x, end = np.divmod(code, n + 1)
            node = np.flatnonzero(x < B + J)
            h, lane, end = heads[x[node]], lane[node, None], end[node, None]
            kid = kids[h, : fan[h].max(initial=0)]
            bound = bounds.node(lane, end, first[kid], size[kid[:, :1]])  # one width a node
            return x >= B + J, (lane, (B + kid) * (n + 1) + end, bound)

        def exact_leaves(lane, code):  # lags first + _NEAR_LAGS..first + 1: one gather
            h, u = np.divmod(code, n + 1)
            lag = first[h - B]  # past u they read f(t_0), below lag u's quotient
            g = partners[u - lag - _NEAR_LAGS + n, lane]
            # lag-major: a max over the long axis, which numpy reduces many times faster
            g = _magnitudes(np.subtract(values[u, lane][:, :, None], g, out=g).transpose(2, 0, 1))
            return np.divide(g, powers[lag, ::-1].T, out=g).max(axis=0)

        _search(bounds.cells, out[2], width, n + 1, split, exact_leaves, _NEAR_LAGS, tie,
                np.flatnonzero(out[2] == bounds.quot))
    if driver_alpha is not None:
        g = values.reshape(n + 1, -1)  # one lane per component, as in _endpoint_bounds
        w, c = _driver_weights(n, dt, driver_alpha)

        def exact_starts(lane, code):  # lags 1..span, those past t_n set to 0
            end = code - n - 1
            start, span = n - end, end.max()
            h = sliding_window_view(edged.reshape(3 * n + 1, -1), span, axis=0)[n + 1 + start, lane]
            h = np.abs(np.subtract(h, g[start, lane][:, None], out=h), out=h)
            h[upto[:span] > end[:, None]] = 0.0
            top = c[:span] * h
            q = np.cumsum(np.multiply(w[:span], h, out=h), axis=1, out=h)  # in lag order, as the
            return np.add(q, top, out=q).max(axis=1)  # near lags sum it, then c h

        drive = bounds.peak.max(axis=1)
        _search(bounds.far, drive, width, n + 1, bounded(bounds.start_far), exact_starts, n, tie,
                np.arange(len(drive)))
        out[3] = drive.reshape(lanes, -1).max(axis=1)
    return tuple(out)


def _lanes(fs) -> tuple[TimeGrid, np.ndarray]:
    """fs, a list of SamplePaths of one grid and one dimension or a (grid,
    values) pair, as (grid, values), values of shape (n + 1, P, d); no
    paths have no grid."""
    if len(fs) and isinstance(fs[0], TimeGrid):
        return fs
    if not fs:
        return None, np.empty((0, 0, 0))
    grid = fs[0].grid
    if any(f.grid != grid or f.dim != fs[0].dim for f in fs):
        raise ValueError("norm_reports needs paths of one grid and one dimension")
    return grid, np.stack([f.values for f in fs], axis=1)


def _lane_sups(fs, alpha: float | None = None,
               lambda_weight: float | None = None, lambda_exponent: float | None = None,
               driver_alpha: float | None = None):
    """The norms of every path of fs (as _lanes reads it) as (rows, damped,
    holder, drive), each (P,) or None unless asked for: with alpha the
    W^(alpha,infinity) norm, and with lambda_weight its exp(-lambda_weight
    t)-weighted form; the lambda_exponent-Hoelder norm; the driver norm with
    driver_alpha.  One _endpoint_sups per group of paths whose increments at one
    lag and their weighted copy fit _BLOCK_ENTRIES a component."""
    grid, lanes = _lanes(fs)
    with np.errstate(over="ignore"):  # an overflow is an error below
        damping = None if lambda_weight is None else np.exp(-lambda_weight * grid.times)[:, None]
    if damping is not None and np.isinf(damping[0, 0]):
        raise ValueError(f"exp(-lambda t) overflows at lambda = {lambda_weight}, t0 = {grid.t0}")
    group = max(1, _BLOCK_ENTRIES // (2 * (grid.n_steps + 1)))
    parts = []
    for first in range(0, lanes.shape[1], group):
        values = np.ascontiguousarray(lanes[:, first : first + group])
        rows, damped, quot, drive = _endpoint_sups(values, grid.dt, alpha, damping,
                                                   lambda_exponent, driver_alpha)
        holder = None if quot is None else _magnitudes(values).max(axis=0) + quot
        parts.append((rows, damped, holder, drive))
    return tuple(None if field[0] is None else np.concatenate(field) for field in zip(*parts))


def w_alpha_inf_norm(f: SamplePath, p: AlphaParams) -> float:
    """Discrete W^(alpha,infinity) norm of f."""
    return float(_lane_sups([f], p.alpha)[0][0])


def weighted_alpha_norm(f: SamplePath, p: AlphaParams) -> float:
    """Same as w_alpha_inf_norm with each u-term damped by exp(-lambda*u)."""
    return float(_lane_sups([f], p.alpha, p.lambda_weight)[1][0])


def holder_norm(f: SamplePath, lambda_exponent: float) -> float:
    """sup|f| + sup over grid pairs of |f(v)-f(u)| / (v-u)^lambda."""
    if not 0.0 < lambda_exponent <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in (0, 1], got {lambda_exponent}")
    return float(_lane_sups([f], lambda_exponent=lambda_exponent)[2][0])


def g_norm_one_minus_alpha(g: SamplePath, alpha: float) -> float:
    """Discrete W^(1-alpha,infinity) driver norm of a scalar path: the sup
    over every start and lag, found as lambda_alpha_bound finds it."""
    if g.dim != 1:
        raise ValueError(f"driver norm is defined per component, got dim={g.dim}")
    return float(_lane_sups([g], driver_alpha=alpha)[3][0])


def _lambda_bound(norm: float, alpha: float) -> float:
    return float(norm / (math.gamma(1.0 - alpha) * math.gamma(alpha)))  # Lambda_alpha


def lambda_alpha_bound(g: SamplePath, alpha: float) -> float:
    """Lambda_alpha(g) as driver norm / (Gamma(1-a) Gamma(a)): the value every
    estimate downstream uses, not the exact supremum of the Weyl derivative;
    the maximum over components of a multi-component g.  The driver norm is
    the discrete sup over every start and lag, bit-equal to a sweep over every
    pair: a start is evaluated exactly, its running sum added in lag order,
    unless a bound of its range or its own lies below the best so far."""
    return _lambda_bound(_lane_sups([g], driver_alpha=alpha)[3][0], alpha)


def f_norm_alpha_1(f: SamplePath, alpha: float) -> float:
    """Discrete W^(alpha,1) norm of a scalar path on [0, T]."""
    if f.dim != 1:
        raise ValueError(f"W^(alpha,1) norm expects a scalar path, got dim={f.dim}")
    AlphaParams(alpha=alpha)  # checks alpha
    times = f.times
    if times[0] < -1e-12:
        raise ValueError("W^(alpha,1) norm is defined on [0, T]")
    vals = np.abs(f.values[:, 0])
    # int |f(s)| s^(-alpha) ds, kernel mild at 0
    first = float(_cell_integrals(times[:-1], times[1:], vals[:-1], vals[1:], alpha).sum())
    # double integral: trapezoid in the outer variable of the singular rows
    rows = _lag_sweep(f.values[:, None], f.grid.dt, alpha)[0][:, 0]
    # strip the |f(u)| part, keep the singular integral
    return first + float(np.trapezoid(rows - vals, times))


def _holder_exponents(values: np.ndarray, dt: float) -> list[tuple[float | None, bool | None]]:
    """(estimate, constant flag) of holder_exponent_estimate for every lane
    of values, shape (n + 1, P, d); (None, None) below 64 steps, too few for
    the fit.  Each lane's estimate is the least-squares slope over its positive
    dyadic lags, every sum taken in lag order within the lane, so it does not
    depend on the other lanes."""
    n = values.shape[0] - 1
    if n < 64:
        return [(None, None)] * values.shape[1]
    lags = [1 << j for j in range((n // 4).bit_length())]  # 1, 2, 4, ... <= n // 4
    f = np.ascontiguousarray(values.transpose(1, 0, 2))  # lane-major: each max runs along a lane
    mags = np.array([_magnitudes(f[:, lag:] - f[:, : n + 1 - lag]).max(axis=1)
                     for lag in lags])  # (lags, P)
    positive = mags > 0.0
    x = np.where(positive, np.log([lag * dt for lag in lags])[:, None], 0.0)
    y = np.log(mags, out=np.zeros_like(mags), where=positive)
    count = positive.sum(axis=0)
    fit = count >= 2

    def total(a):  # per lane, in lag order: pairwise sums would depend on the lane count
        return np.cumsum(a, axis=0)[-1]

    dx = np.where(positive, x - total(x) / np.maximum(count, 1), 0.0)
    slopes = total(dx * (y - total(y) / np.maximum(count, 1))) / np.where(fit, total(dx * dx), 1.0)
    return [(float(min(max(s, 1e-12), 1.0)), False) if ok else (1.0, True)
            for s, ok in zip(slopes.tolist(), fit)]


def holder_exponent_estimate(f: SamplePath) -> float:
    """Regression estimate of the path Hoelder exponent: the slope of log
    max-increment against log lag over dyadic scales, clipped to (0, 1].
    Constant paths return 1 (norm_report flags them)."""
    est = _holder_exponents(f.values[:, None], f.grid.dt)[0][0]
    if est is None:
        raise ValueError(f"need at least 64 steps for the exponent estimate, got {f.grid.n_steps}")
    return est


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
        return {"alpha": self.alpha, "lambda": self.lambda_weight, "interval": list(self.interval),
                "n_steps": self.n_steps, "norms": self.norms,
                "approximate_pair_sup": self.approximate_pair_sup}


def norm_reports(fs, alpha: float, lambda_weight: float = 0.0) -> list[NormReport]:
    """norm_report of every path of fs as lanes of one pass.  fs is a list
    of SamplePaths of one grid and one dimension, or a (grid, values) pair
    that holds such paths as the lanes of values, shape (n + 1, P, d).

    One _lane_sups gives the W^(alpha,infinity) norm, plain and damped, the
    Hoelder norm and, on paths from t = 0, the driver norm of every path, and
    _holder_exponents its exponent estimate, each as the path alone gives it.
    """
    grid, values = _lanes(fs)
    if not values.shape[1]:
        return []
    AlphaParams(alpha=alpha, lambda_weight=lambda_weight)  # checks both
    from_zero = bool(abs(grid.t0) < 1e-12)  # the driver norm is defined on [0, T]
    w_alpha, weighted, holder, drive = _lane_sups((grid, values), alpha, lambda_weight, 1.0 - alpha,
                                                  alpha if from_zero else None)
    exponents = _holder_exponents(values, grid.dt)
    return [NormReport(alpha, lambda_weight, (float(grid.t0), float(grid.t1)), grid.n_steps, {
        "w_alpha_inf": float(w_alpha[p]), "weighted_alpha": float(weighted[p]),
        "holder_1_minus_alpha": float(holder[p]),
        "lambda_alpha_bound": _lambda_bound(drive[p], alpha) if from_zero else None,
        "holder_exponent_estimate": exponents[p][0], "constant_path": exponents[p][1]})
        for p in range(values.shape[1])]


def norm_report(f: SamplePath, alpha: float, lambda_weight: float = 0.0) -> NormReport:
    """The standard battery of norms on one path: the one-lane norm_reports."""
    return norm_reports([f], alpha, lambda_weight)[0]
