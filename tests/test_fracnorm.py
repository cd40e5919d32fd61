import math
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

import refsde.fracnorm as fracnorm
from refsde.fracnorm import (
    AlphaParams,
    NormReport,
    _cell_integrals,
    _endpoint_bounds,
    _endpoint_sups,
    _holder_exponents,
    _lag_powers,
    _lag_sweep,
    _lag_weights,
    _lane_sups,
    f_norm_alpha_1,
    g_norm_one_minus_alpha,
    holder_exponent_estimate,
    holder_norm,
    lambda_alpha_bound,
    norm_report,
    norm_reports,
    w_alpha_inf_norm,
    weighted_alpha_norm,
)
from refsde.cli import load_config
from refsde.fbm import sample_circulant
from refsde.grids import SamplePath, TimeGrid
from refsde.solver import solve_stochastic

from conftest import needs_vmhwm, path_on, resident_peak_rise


def random_path(seed, n=200, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal(n + 1)) * scale / np.sqrt(n)
    return SamplePath(TimeGrid(0.0, 1.0, n), vals)


def walk(seed, n, d=1, t0=0.0):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal((n + 1, d)), axis=0) / np.sqrt(n)
    return SamplePath(TimeGrid(t0, t0 + 2.0, n), vals)


# Reference quadratures: one kernel evaluation per row and per start, from
# absolute times, as the norms were computed before the lag-weight tables.

def rows_per_row(times, values, alpha):
    n = len(times) - 1
    rows = np.empty(n + 1)
    mag = np.linalg.norm(values, axis=1)
    rows[0] = mag[0]
    for k in range(1, n + 1):
        diffs = np.linalg.norm(values[k] - values[: k + 1], axis=1)
        A = times[k] - times[1 : k + 1]
        B = times[k] - times[:k]
        cells = _cell_integrals(A, B, diffs[1 : k + 1], diffs[:k], alpha + 1.0)
        rows[k] = mag[k] + cells.sum()
    return rows


def g_norm_per_start(times, vals, alpha):
    n = len(times) - 1
    best = 0.0
    for i in range(n):
        h = np.abs(vals[i:] - vals[i])  # h[0] = 0 at the singular end
        w = times[i:] - times[i]
        cells = _cell_integrals(w[:-1], w[1:], h[:-1], h[1:], 2.0 - alpha)
        integral = np.cumsum(cells)
        quot = h[1:] / w[1:] ** (1.0 - alpha)
        best = max(best, float((quot + integral).max()))
    return best


def holder_over_lags(times, values, lam, lags):
    quot = max(float((np.linalg.norm(values[L:] - values[:-L], axis=1)
                      / (times[L:] - times[:-L]) ** lam).max()) for L in lags)
    return float(np.linalg.norm(values, axis=1).max()) + quot


# Per-lag references: one Python iteration per lag, each norm on its own.

def increments(values, lag):
    return np.linalg.norm(values[lag:] - values[:-lag], axis=1)


def rows_per_lag(f, alpha, max_lag=None):
    n = f.grid.n_steps
    near, far = _lag_weights(n, f.grid.dt, alpha + 1.0)
    rows = np.linalg.norm(f.values, axis=1)
    for lag in range(1, (max_lag or n) + 1):
        d = increments(f.values, lag)
        rows[lag:] += far[lag - 1] * d
        rows[lag + 1 :] += near[lag] * d[1:]
    return rows


def holder_per_lag(f, lam, max_lag=None):
    n, dt = f.grid.n_steps, f.grid.dt
    quot = 0.0
    for lag in range(1, (max_lag or n) + 1):
        quot = max(quot, float(increments(f.values, lag).max()) / (lag * dt) ** lam)
    return float(np.linalg.norm(f.values, axis=1).max()) + quot


def g_norm_per_lag(g, alpha):
    n, dt = g.grid.n_steps, g.grid.dt
    near, far = _lag_weights(n, dt, 2.0 - alpha)
    vals = g.values[:, 0]
    prev = np.zeros(n)
    integral = np.zeros_like(prev)
    best = 0.0
    for lag in range(1, n + 1):
        h = np.abs(vals[lag:] - vals[:-lag])
        m = len(h)
        integral[:m] += near[lag - 1] * prev[:m] + far[lag - 1] * h
        best = max(best, float((h / (lag * dt) ** (1.0 - alpha) + integral[:m]).max()))
        prev = h
    return best


# The driver norm before its endpoint search: every start's quotient at every
# lag, its running sum of w h added in lag order.  The endpoint search must
# be bit-equal to it.

def driver_weights(n, dt, alpha):
    """The driver quotient's weights: w of the running sum, c of the last lag."""
    g_near, g_far = _lag_weights(n, dt, 2.0 - alpha)
    return g_far[:-1] + g_near[1:], 1.0 / _lag_powers(n, dt, 1.0 - alpha) - g_near[1:]


def driver_per_lag(values, dt, alpha, max_lag=None):
    """Every start's running sum of w h and largest driver quotient over the
    lags 1..max_lag (default every lag), each shape (n, P), of values, shape
    (n + 1, P, 1)."""
    n, lanes = values.shape[0] - 1, values.shape[1]
    w, c = driver_weights(n, dt, alpha)
    g = values[:, :, 0]
    run = np.zeros((n, lanes))
    best = np.zeros((n, lanes))
    for lag in range(1, (max_lag or n) + 1):
        h = np.abs(g[lag:] - g[:-lag])
        run[: n + 1 - lag] += w[lag - 1] * h
        np.maximum(best[: n + 1 - lag], run[: n + 1 - lag] + c[lag - 1] * h,
                   out=best[: n + 1 - lag])
    return run, best


def unpruned_driver_norms(values, dt, alpha):
    return driver_per_lag(values, dt, alpha)[1].max(axis=0)


def row_rel(n):
    """Relative distance allowed between a row of the sweep on n steps and
    of the per-lag oracle rows_per_lag: each sums at most n + 1 positive
    terms, in another order."""
    return (n + 1) * np.finfo(float).eps


def one_lane_rows(f, alpha, lambda_exponent):
    """_lag_sweep of one path: its rows and its Hoelder quotient."""
    rows, quot = _lag_sweep(f.values[:, None], f.grid.dt, alpha, lambda_exponent)[:2]
    return rows[:, 0], float(quot[0])


# The per-path battery as it was before the norms took a lane axis: the
# per-lag oracles and one fit per path.  The lane-batched norm_reports must
# agree with it to 1e-12 relative.


def exponent_per_path(f):
    n = f.grid.n_steps
    lags, mags = [], []
    lag = 1
    while lag <= n // 4:
        m = float(increments(f.values, lag).max())
        if m > 0.0:
            lags.append(lag * f.grid.dt)
            mags.append(m)
        lag *= 2
    if len(mags) < 2:
        return 1.0, True
    slope = np.polyfit(np.log(lags), np.log(mags), 1)[0]
    return float(min(max(slope, 1e-12), 1.0)), False


def report_per_path(f, alpha, lambda_weight):
    times = f.times
    exponent, constant = exponent_per_path(f) if f.grid.n_steps >= 64 else (None, None)
    from_zero = bool(abs(times[0]) < 1e-12)
    rows = rows_per_lag(f, alpha)
    return {
        "w_alpha_inf": float(rows.max()),
        "weighted_alpha": float((np.exp(-lambda_weight * times) * rows).max()),
        "holder_1_minus_alpha": holder_per_lag(f, 1.0 - alpha),
        "lambda_alpha_bound": lambda_alpha_bound(f, alpha) if from_zero else None,
        "holder_exponent_estimate": exponent,
        "constant_path": constant,
    }


class TestBlockSweep:
    @pytest.mark.parametrize("budget", [7, 50])
    @pytest.mark.parametrize("t0", [0.0, -1.0])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 300])
    def test_matches_per_lag_oracles(self, monkeypatch, n, d, t0, budget):
        monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", budget)
        f = walk(n + 10 * d, n, d, t0)  # the budget sets the rounds of exact evaluations
        for interval in [None] + ([(t0 + 0.3, t0 + 1.7)] if n >= 3 else []):
            sub = f.restrict(*interval) if interval else f
            want = rows_per_lag(sub, 0.3)
            rows, quot = one_lane_rows(sub, 0.3, 0.7)
            assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))
            assert holder_norm(sub, 0.7) == holder_per_lag(sub, 0.7)
            assert float(np.linalg.norm(sub.values, axis=1).max()) + quot == holder_per_lag(sub, 0.7)
            for i in range(d):
                g = sub.component(i)
                want = g_norm_per_lag(g, 0.3)
                assert g_norm_one_minus_alpha(g, 0.3) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t0", [0.0, -1.0])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [3, 64, 300])
    def test_sweep_up_to_max_lag_matches_truncated_oracles(self, n, d, t0):
        # the endpoint search's near part: the sweep over the lags 1..k only,
        # the driver's running sums and quotients one lane per component
        f = walk(n + 5 * d, n, d, t0)
        mags = float(np.linalg.norm(f.values, axis=1).max())
        for k in sorted({1, min(4, n), min(32, n), n}):
            rows, quot, run, peak = _lag_sweep(f.values[:, None], f.grid.dt, 0.3, 0.7,
                                               max_lag=k, driver_alpha=0.3)
            want = rows_per_lag(f, 0.3, max_lag=k)
            assert np.max(np.abs(rows[:, 0] - want)) <= 1e-12 * np.max(np.abs(want))
            assert mags + float(quot[0]) == holder_per_lag(f, 0.7, max_lag=k)
            want_run, want_peak = driver_per_lag(f.values[:, :, None], f.grid.dt, 0.3, max_lag=k)
            assert np.array_equal(run, want_run)
            assert np.array_equal(peak, want_peak)

    def test_every_start_above_16384_steps_and_dyadic_lags(self, monkeypatch):
        # the driver norm reads every start and lag at any size
        g = walk(1, 16400)
        assert g_norm_one_minus_alpha(g, 0.3) == pytest.approx(g_norm_per_lag(g, 0.3), rel=1e-12)
        monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", 64)
        tent = path_on(0.0, 2.0, 200, lambda t: np.minimum(t, 3.0 - t))
        assert holder_norm(tent, 0.7) == holder_per_lag(tent, 0.7)
        g = walk(1, 200)
        assert holder_norm(g, 0.7) == holder_per_lag(g, 0.7)

    def test_driver_norm_agrees_with_unpruned_oracle_across_block_sizes_and_lanes(self, monkeypatch):
        # each start is evaluated as the oracle sums it, in lag order, and
        # each lane's arithmetic is its own: bit-equal however the rounds split
        fs = [walk(seed, 300) for seed in (6, 7, 8)]
        dt = fs[0].grid.dt
        for budget in (8, 64, 1 << 15):
            monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", budget)
            for lanes in (1, 2, 3):
                stacked = np.stack([f.values for f in fs[:lanes]], axis=1)
                want = unpruned_driver_norms(stacked, dt, 0.3)
                assert np.array_equal(_endpoint_sups(stacked, dt, driver_alpha=0.3)[3], want)
            assert g_norm_one_minus_alpha(fs[0], 0.3) == float(want[0])

    @pytest.mark.parametrize("alpha", [0.01, 0.25, 0.49])
    @pytest.mark.parametrize("n", [1, 7, 300, 4096])
    def test_driver_quotient_weight_is_positive(self, n, alpha):
        # a start past its last partner reads the running sum alone, below its
        # last true quotient, only because c is positive; the start bounds
        # of the endpoint search also need the running sum's weight w > 0
        dt = 1.0 / n
        near, far = _lag_weights(n, dt, 2.0 - alpha)
        c = 1.0 / _lag_powers(n, dt, 1.0 - alpha) - near[1:]
        w = far[:-1] + near[1:]
        assert np.all(c > 0.0)
        assert np.all(w > 0.0)


def kind_path(kind, n, t0=0.0, seed=0):
    """A scalar path on [t0, t0 + 2] of n steps."""
    shape = {"walk": lambda t: walk(seed, n, t0=t0).values[:, 0],
             "constant": lambda t: np.full_like(t, 0.5),
             "linear": lambda t: t,
             "monotone": np.exp,
             "tent": lambda t: np.minimum(t, 1.5 - t),
             "period-4": lambda t: np.resize([0.0, 1.0, 2.0, 1.0], len(t))}[kind]
    return path_on(t0, t0 + 2.0, n, shape)


def tie(n):
    """The factor by which a bound must reach the best for its candidate to
    be evaluated."""
    return 1.0 + max(1e-12, (n + 1) * np.finfo(float).eps)


def count_evaluated(monkeypatch):
    """Hook the endpoint search: the returned dict gathers, under the name of
    each exact function, the (lane, candidate) pairs that it evaluates: ends,
    starts, and quotient leaves of _NEAR_LAGS lags; under "pairs" it counts
    the quotients of the quotient search's lead, one per lane and pair."""
    evaluated = {}
    search, pairs = fracnorm._search, fracnorm._pair_quotients

    def counting(rect, best, width, size, split, exact, entries, tie, lead):
        def counted(lane, cand):
            found = evaluated.setdefault(exact.__name__, set())
            found.update(zip(lane.tolist(), cand.tolist()))
            return exact(lane, cand)

        search(rect, best, width, size, split, counted, entries, tie, lead)

    def counting_pairs(points, powers, step):
        m = len(points)
        evaluated["pairs"] = evaluated.get("pairs", 0) + m * (m - 1) // 2 * points.shape[1]
        return pairs(points, powers, step)

    monkeypatch.setattr(fracnorm, "_search", counting)
    monkeypatch.setattr(fracnorm, "_pair_quotients", counting_pairs)
    return evaluated


def quotient_entries(evaluated):
    """Exact Hoelder quotient entries: the lags summed over the evaluated
    leaves, and the lead's pairs."""
    return fracnorm._NEAR_LAGS * len(evaluated.get("exact_leaves", ())) + evaluated.get("pairs", 0)


def linear_a_x(steps_per_delay):
    """x of the bundled linear_a.cfg, path 0 of its seed, on [-1, 3]."""
    cfg = load_config(str(files("refsde").joinpath("configs/linear_a.cfg")), steps_per_delay)
    return solve_stochastic(cfg.problem, cfg.solver, 1).solutions[0].x


def count_bound_entries(monkeypatch):
    """Hook the far bounds: the returned dict counts under "bound" the
    entries, one per lane, range or end, block and component, that _reach
    bounds, rectangles and single ends alike."""
    entries = {"bound": 0}
    reach = fracnorm._reach

    def counting(top, bottom, hi, lo):
        got = reach(top, bottom, hi, lo)
        entries["bound"] += got.size
        return got

    monkeypatch.setattr(fracnorm, "_reach", counting)
    return entries


def ranges_of(a, width, count):
    """Per range of width ends, the largest of a (P, ends) over its ends."""
    return np.maximum.reduceat(a, np.arange(0, a.shape[1], width), axis=1)[:, :count]


def every_end(lanes, ends):
    """Every (lane, end) pair, as the per-end bounds take them."""
    lane, end = np.divmod(np.arange(lanes * ends), ends)
    return lane, end


def exact_cells(values, dt, lambda_exponent, blocks):
    """Per far block, each end's largest quotient over the block's lags,
    shape (P, B (n + 1)), as the sweep computes each quotient."""
    n, lanes = values.shape[0] - 1, values.shape[1]
    powers = _lag_powers(n, dt, lambda_exponent)
    cells = np.zeros((len(blocks), n + 1, lanes))
    for b, (first, width) in enumerate(blocks):
        for lag in range(first + 1, min(first + width, n) + 1):
            q = np.linalg.norm(values[lag:] - values[:-lag], axis=2) / powers[lag - 1]
            np.maximum(cells[b, lag:], q, out=cells[b, lag:])
    return cells.reshape(-1, lanes).T


def quotient_nodes(n, near):
    """(first, lags) of each node below the cells that the quotient search
    bounds, lags first + 1..first + lags: per doubling its blocks, at least
    near wide, and their halves down to near lags."""
    nodes, span = [], near
    while span < n:
        width = max(1 << (max(span // fracnorm._SPLIT, 1) - 1).bit_length(), near)
        while width >= near:
            nodes += [(first, width) for first in range(span, min(2 * span, n), width)]
            width //= 2
        span *= 2
    return nodes


def smooth_path(name, steps):
    """x of linear_a.cfg at steps per delay, or the kind_path of that name."""
    return linear_a_x(steps) if name == "linear_a" else kind_path(name, steps)


def quotient_search(monkeypatch, f):
    """The Hoelder quotient of f, exponent 0.625, by the endpoint search, and
    its exact entries."""
    evaluated = count_evaluated(monkeypatch)
    quot = _endpoint_sups(f.values[:, None], f.grid.dt, lambda_exponent=0.625)[2]
    return quot, quotient_entries(evaluated)


class TestEndpoints:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["walk", "constant", "monotone", "tent"]),
           seed=st.integers(0, 1000), half=st.integers(1, 150),
           t0=st.sampled_from([0.0, -1.0]), d=st.sampled_from([1, 2]),
           lam=st.sampled_from([0.0, 0.7]), near=st.sampled_from([4, 32]),
           alpha=st.sampled_from([0.01, 0.25, 0.49]))
    def test_every_bound_is_above_its_exact_value(self, kind, seed, half, t0, d, lam, near, alpha):
        n = 2 * half  # t = 0 is a grid point for t0 = -1
        f = kind_path(kind, n, t0, seed)
        # two lanes: the path in d components of different scales, and a walk
        values = np.stack([f.values[:, 0, None] * np.arange(1.0, d + 1.0),
                           walk(seed + 1, n, d, t0).values], axis=1)
        dt = f.grid.dt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fracnorm, "_NEAR_LAGS", near)
            b = _endpoint_bounds(values, dt, alpha, 1.0 - alpha)
            # the per-end bounds of every end, as the search refines them
            lane, end = every_end(2, n + 1)
            tail = b.row_tail(lane, end).reshape(2, n + 1) if n > near else np.zeros((2, n + 1))
        count = -(-(n + 1) // b.width)  # ranges of b.width ends
        rows = _lag_sweep(values, dt, alpha)[0].T
        damping = np.exp(-lam * f.times)
        # each range of ends: the largest near part plus the range's tail
        # bound, damped by its largest damping, above every end's row
        rect = ranges_of(b.rows, b.width, count) + b.tail
        assert b.tail.shape == (2, count)
        assert np.all(rows <= np.repeat(rect, b.width, axis=1)[:, : n + 1] * tie(n))
        damped = ranges_of(damping[None], b.width, count) * rect
        assert np.all(damping * rows <= np.repeat(damped, b.width, axis=1)[:, : n + 1] * tie(n))
        # each end's row: its near part plus the tail bound; exact where the tail is 0
        bound = b.rows + tail
        assert np.all(rows <= bound * tie(n))
        assert np.all(damping * rows <= damping * bound * tie(n))
        flat = tail == 0.0
        assert np.array_equal(b.rows[flat], rows[flat])
        assert np.all(tail[np.repeat(b.tail, b.width, axis=1)[:, : n + 1] == 0.0] == 0.0)
        # each range's (end, doubling) quotient cells: rounding is monotone,
        # so no tie is needed
        want = exact_cells(values, dt, 1.0 - alpha, b.blocks)
        assert want.shape == (2, len(b.blocks) * (n + 1))
        for k in range(len(b.blocks)):
            rect = b.cells[:, k * count : (k + 1) * count]
            assert np.all(want[:, k * (n + 1) : (k + 1) * (n + 1)]
                          <= np.repeat(rect, b.width, axis=1)[:, : n + 1])
        assert np.all(b.quot <= _lag_sweep(values, dt, lambda_exponent=1.0 - alpha)[1])
        # each (end, node) of the quotient search below the cells: none is
        # below its exact value, and none is positive without a lag below its end
        nodes = np.array(quotient_nodes(n, near), dtype=int).reshape(-1, 2)
        lane, which = every_end(2, len(nodes) * (n + 1))
        node, end = np.divmod(which, n + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fracnorm, "_NEAR_LAGS", near)
            b = _endpoint_bounds(values, dt, lambda_exponent=1.0 - alpha)
            got = (b.node(lane, end, *nodes[node].T).reshape(2, -1) if n > near
                   else np.zeros((2, 0)))
        assert np.all(exact_cells(values, dt, 1.0 - alpha, nodes) <= got)
        assert not np.any(got.ravel()[nodes[node, 0] >= end])
        # each start of each component, on [0, T]: its largest quotient is at
        # least its near one, equal to it where no far increment is positive,
        # and otherwise at most the larger of it and its far bound; start s
        # is the end n - s of the reversed path, by which its ranges go
        g = SamplePath(f.grid, values[:, 0]).restrict(0.0, t0 + 2.0) if t0 < 0.0 else f
        m = g.grid.n_steps
        g = values[-(m + 1) :].reshape(m + 1, 2 * d, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fracnorm, "_NEAR_LAGS", near)
            b = _endpoint_bounds(g, dt, driver_alpha=alpha)
            lane, end = every_end(2 * d, m)
            far = (b.start_far(lane, m - end).reshape(2 * d, m) if m > near
                   else np.zeros((2 * d, m)))
        starts = driver_per_lag(g, dt, alpha)[1].T
        assert np.all(b.peak <= starts)
        assert np.array_equal(starts[far == 0.0], b.peak[far == 0.0])
        assert np.all(starts <= np.maximum(b.peak, far * tie(n)))
        rect = np.repeat(b.far, b.width, axis=1)[:, 1 : m + 1][:, ::-1]
        assert np.all(starts <= np.maximum(b.peak, rect * tie(n)))
        assert np.all(far[rect == 0.0] == 0.0)

    @pytest.mark.parametrize("n,budget,d", [
        pytest.param(n, budget, d, marks=pytest.mark.slow if (n, d) == (4096, 2) else ())
        for d in (1, 2) for n, budget in [(n, None) for n in (1, 2, 3, 64, 300, 4096)]
        + [(n, 64) for n in (1, 2, 3, 64, 300)]])
    def test_matches_sweep_and_unpruned_oracle(self, monkeypatch, n, d, budget):
        if budget:  # rounds of one candidate per lane
            monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", budget)
        kinds = ["constant", "linear", "monotone", "tent", "period-4", "walk", "walk"]
        fs = [kind_path(kind, n, seed=p) for p, kind in enumerate(kinds)]
        values = np.stack([f.values[:, 0, None] * np.arange(1.0, d + 1.0) for f in fs], axis=1)
        dt = fs[0].grid.dt
        damping = np.exp(-0.7 * fs[0].times)[:, None]
        rows, quot = _lag_sweep(values, dt, 0.3, 0.7)[:2]
        drive = unpruned_driver_norms(values.reshape(n + 1, -1, 1), dt, 0.3).reshape(-1, d)
        # the smooth lanes leave many endpoints to evaluate at 4,096 steps
        for lanes in range(1, 8) if n < 4096 else (1, 7):
            got = _endpoint_sups(values[:, :lanes], dt, 0.3, damping, 0.7)
            assert np.array_equal(got[0], rows[:, :lanes].max(axis=0))
            assert np.array_equal(got[1], (damping * rows[:, :lanes]).max(axis=0))
            assert np.array_equal(got[2], quot[:lanes])
            components = values[:, :lanes].reshape(n + 1, lanes * d, 1)
            got = _endpoint_sups(components, dt, driver_alpha=0.3)[3]
            assert np.array_equal(got, drive[:lanes].reshape(-1))
            # a lane of d components: one search lane per component
            got = _endpoint_sups(values[:, :lanes], dt, driver_alpha=0.3)[3]
            assert np.array_equal(got, drive[:lanes].max(axis=1))

    def test_fbm_path_evaluates_few_endpoints(self, monkeypatch):
        # the search must stay pruned: on fBm paths at 1,024 steps at most a
        # tenth of the ends and of the starts are evaluated exactly, and
        # quotient leaves number at most a tenth of the (end, doubling) cells;
        # at H = 0.55 the quotient's sup lies at the near lags, and no leaf
        # reaches it
        evaluated = count_evaluated(monkeypatch)
        for hurst in (0.55, 0.75, 0.95):
            g = sample_circulant(TimeGrid(0.0, 1.0, 1024), hurst, 1, seed=(3, 0))
            values, dt = g.values[:, :, None], g.grid.dt
            evaluated.clear()
            damping = np.exp(-0.7 * g.times)[:, None]
            quot, drive = _endpoint_sups(values, dt, 0.375, damping, 0.625, 0.375)[2:]
            assert 1 <= len(evaluated["exact_rows"]) <= 1025 // 10
            assert 1 <= len(evaluated["exact_starts"]) <= 1024 // 10
            cells = len(_endpoint_bounds(values, dt, lambda_exponent=0.625).blocks) * 1025
            leaves = len(evaluated.get("exact_leaves", ()))
            assert (hurst == 0.55 or 1 <= leaves) and leaves <= cells // 10
            assert drive[0] == unpruned_driver_norms(values, dt, 0.375)[0]
            assert quot[0] == _lag_sweep(values, dt, lambda_exponent=0.625)[1][0]
            assert norm_report(g, 0.375).norms["lambda_alpha_bound"] == lambda_alpha_bound(g, 0.375)

    def test_short_fbm_lanes_evaluate_few_endpoints(self, monkeypatch):
        # 32 lanes of 256 steps on [-1, 3], the shape of a simulated batch of
        # short paths: at most a tenth of the ends are evaluated exactly, and as
        # many quotient leaves as a tenth of the (end, doubling) cells; the
        # norms are the sweep's
        evaluated = count_evaluated(monkeypatch)
        n, lanes = 256, 32
        g = sample_circulant(TimeGrid(0.0, 4.0, n), 0.75, lanes, seed=(3, 0))
        grid = TimeGrid(-1.0, 3.0, n)
        reports = norm_reports([SamplePath(grid, g.values[:, p]) for p in range(lanes)], 0.375)
        assert 1 <= len(evaluated["exact_rows"]) <= lanes * (n + 1) // 10
        values = g.values[:, :, None]
        cells = len(_endpoint_bounds(values, grid.dt, lambda_exponent=0.625).blocks) * (n + 1)
        assert 1 <= len(evaluated["exact_leaves"]) <= lanes * cells // 10
        rows, quot = _lag_sweep(values, grid.dt, 0.375, 0.625)[:2]
        w_alpha = np.array([r.norms["w_alpha_inf"] for r in reports])
        assert w_alpha.tolist() == rows.max(axis=0).tolist()
        holder = np.abs(g.values).max(axis=0) + quot
        assert [r.norms["holder_1_minus_alpha"] for r in reports] == holder.tolist()

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_fbm_far_bounds_stay_few(self, monkeypatch, seed):
        # one bound per (range of ends or starts, block), then per end only
        # inside the ranges that reach the best: at most 8 n bound entries
        # per norm at 4,096 steps, where one per (end, block) took 44.6 n
        n = 4096
        g = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 1, seed=(seed, 0))
        values, dt = g.values[:, :, None], g.grid.dt
        entries, evaluated = count_bound_entries(monkeypatch), count_evaluated(monkeypatch)
        report = norm_report(g, 0.375)
        assert 0 < entries["bound"] <= 3 * 8 * n
        exact = n * sum(len(evaluated.get(name, ())) for name in ("exact_rows", "exact_starts"))
        exact += quotient_entries(evaluated)
        assert exact <= 64 * n
        assert report.norms["lambda_alpha_bound"] == lambda_alpha_bound(g, 0.375)
        for norm in ({"alpha": 0.375}, {"lambda_exponent": 0.625}, {"driver_alpha": 0.375}):
            entries["bound"] = 0
            _endpoint_sups(values, dt, **norm)
            assert 0 < entries["bound"] <= 8 * n

    @pytest.mark.parametrize("name,steps", [("linear_a", 4096), ("linear_a", 16384),
                                            ("linear", 16384), ("monotone", 16384),
                                            ("tent", 16384)])
    def test_smooth_paths_evaluate_few_quotient_entries(self, monkeypatch, name, steps):
        # a passing cell is split down to leaves before any lag is evaluated:
        # at most 2 n log2 n exact entries, where evaluating each passing
        # (end, doubling) cell over all its lags took 5.9 to 47.6 n log2 n
        f = smooth_path(name, steps)
        n = f.grid.n_steps
        assert 0 < quotient_search(monkeypatch, f)[1] <= 2 * n * math.log2(n)

    @pytest.mark.parametrize("name,steps", [("linear_a", 1024), ("linear_a", 4096),
                                            ("linear", 4096), ("monotone", 4096), ("tent", 4096)])
    def test_smooth_quotients_are_the_sweep(self, name, steps):
        f = smooth_path(name, steps)
        values = f.values[:, None]
        got = _endpoint_sups(values, f.grid.dt, lambda_exponent=0.625)[2]
        assert got.tolist() == _lag_sweep(values, f.grid.dt, lambda_exponent=0.625)[1].tolist()

    @pytest.mark.parametrize("seed,n,cells", [(3, 1 << 16, 6720), (6, 1 << 16, 129536),
                                              (3, 1 << 17, 467328), (6, 1 << 17, 994432)])
    def test_fbm_quotient_entries_stay_below_whole_cells(self, monkeypatch, seed, n, cells):
        # cells: the entries of evaluating each passing (end, doubling) cell
        # over all its lags
        g = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 1, seed=(seed, 0))
        assert quotient_search(monkeypatch, g)[1] <= cells

    @pytest.mark.slow
    def test_quotient_entries_at_scale(self, monkeypatch):
        # n = 262,144, where evaluating each passing (end, doubling) cell over
        # all its lags took 350 n log2 n entries
        f = linear_a_x(65536)
        n = f.grid.n_steps
        assert 0 < quotient_search(monkeypatch, f)[1] <= 2 * n * math.log2(n)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [40, 257, 1000, 2048])
    def test_fbm_rows_are_the_sweep(self, n, d):
        # every evaluated row is summed in the sweep's order: the row sups,
        # plain and damped, are the sweep's bit for bit at every size
        g = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 3 * d, seed=(n, d))
        values = g.values.reshape(n + 1, 3, d)
        damping = np.exp(-0.7 * g.times)[:, None]
        rows = _lag_sweep(values, g.grid.dt, 0.375)[0]
        for lanes in (slice(0, 1), slice(0, 3)):
            got = _endpoint_sups(values[:, lanes], g.grid.dt, 0.375, damping)
            assert got[0].tolist() == rows[:, lanes].max(axis=0).tolist()
            assert got[1].tolist() == (damping * rows[:, lanes]).max(axis=0).tolist()

    def test_flat_far_lags_evaluate_nothing(self, monkeypatch):
        # a constant path has no far increment: no range of ends or starts is
        # refined or evaluated
        def search(rect, best, width, size, split, exact, entries, tie, lead):
            assert not rect.any()

        monkeypatch.setattr(fracnorm, "_search", search)
        f = kind_path("constant", 2048)
        got = _endpoint_sups(f.values[:, None], f.grid.dt, 0.3, None, 0.7, 0.3)
        assert got == (0.5, None, 0.0, 0.0)

    @pytest.mark.parametrize("d,t0", [(1, 0.0), (2, -1.0)])
    def test_endpoint_report_equals_standalone_norms(self, d, t0):
        f = walk(4, 2048, d, t0)
        norms = norm_report(f, 0.3, lambda_weight=0.7).norms
        assert norms["w_alpha_inf"] == w_alpha_inf_norm(f, AlphaParams(alpha=0.3))
        damped = weighted_alpha_norm(f, AlphaParams(alpha=0.3, lambda_weight=0.7))
        assert norms["weighted_alpha"] == damped
        assert norms["holder_1_minus_alpha"] == holder_norm(f, 0.7)
        want = report_per_path(f, 0.3, 0.7)
        for key in ("w_alpha_inf", "weighted_alpha"):
            assert norms[key] == pytest.approx(want[key], rel=row_rel(2048), abs=0.0)
        assert norms["holder_1_minus_alpha"] == want["holder_1_minus_alpha"]
        if t0 == 0.0:
            assert norms["lambda_alpha_bound"] == lambda_alpha_bound(f, 0.3)


class TestLagQuadrature:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("t0", [0.0, -1.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_match_per_row_oracle(self, d, t0, alpha):
        f = walk(d * 10 + int(alpha * 100), 300, d, t0)
        for interval in (None, (t0 + 0.3, t0 + 1.7)):
            sub = f.restrict(*interval) if interval else f
            want = rows_per_row(sub.times, sub.values, alpha)
            got = one_lane_rows(sub, alpha, 1.0 - alpha)[0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("t0", [0.0, -1.0])
    def test_g_norm_matches_per_start_oracle(self, t0, alpha):
        g = walk(int(alpha * 100), 300, 1, t0)
        for interval in (None, (t0 + 0.3, t0 + 1.7)):
            sub = g.restrict(*interval) if interval else g
            want = g_norm_per_start(sub.times, sub.values[:, 0], alpha)
            assert g_norm_one_minus_alpha(sub, alpha) == pytest.approx(want, rel=1e-12)

    def test_every_lag_not_only_dyadic_ones(self):
        # the largest increment of the tent spans lag 150, which is not dyadic
        tent = path_on(0.0, 2.0, 200, lambda t: np.minimum(t, 3.0 - t))
        dyadic = holder_over_lags(tent.times, tent.values, 0.7, [1, 2, 4, 8, 16, 32, 64, 128, 200])
        exact = holder_over_lags(tent.times, tent.values, 0.7, range(1, 201))
        assert dyadic < exact
        assert holder_norm(tent, 0.7) == pytest.approx(exact, rel=1e-12)
        for f in (tent, tent.restrict(0.5, 2.0)):
            report = norm_report(f, 0.3)
            assert report.norms["holder_1_minus_alpha"] == holder_norm(f, 0.7)
            assert not report.approximate_pair_sup

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_report_rows_equal_standalone_norms(self, lam):
        f = walk(4, 300, t0=-1.0)
        norms = norm_report(f, 0.3, lambda_weight=lam).norms
        p = AlphaParams(alpha=0.3, lambda_weight=lam)
        assert norms["w_alpha_inf"] == w_alpha_inf_norm(f, p)
        assert norms["weighted_alpha"] == weighted_alpha_norm(f, p)
        assert norms["holder_1_minus_alpha"] == holder_norm(f, 1.0 - 0.3)
        assert norms["lambda_alpha_bound"] is None  # the path starts at t = -1
        f0 = walk(4, 300)
        norms0 = norm_report(f0, 0.3, lambda_weight=lam).norms
        assert norms0["holder_1_minus_alpha"] == holder_norm(f0, 1.0 - 0.3)
        assert norms0["lambda_alpha_bound"] == lambda_alpha_bound(f0, 0.3)


class TestLanes:
    @staticmethod
    def lanes(n, d, t0):
        grid = TimeGrid(t0, t0 + 2.0, n)
        fs = [walk(seed, n, d, t0) for seed in range(7)]
        fs[1] = SamplePath(grid, np.full((n + 1, d), 0.5))  # constant: flagged, fitted alone
        # period 4: no increment at lags 4, 8, ..., so only lags 1 and 2 enter the fit
        fs[2] = SamplePath(grid, np.repeat(np.resize([0.0, 1.0, 2.0, 1.0], (n + 1, 1)), d, axis=1))
        return fs

    @pytest.mark.parametrize("budget", [None, 600])
    @pytest.mark.parametrize("n,d,t0", [(40, 1, 0.0), (64, 1, -1.0), (300, 1, 0.0), (257, 2, -1.0)])
    def test_reports_match_per_path(self, monkeypatch, n, d, t0, budget):
        if budget:  # lane groups of one or two lanes, and rounds of a few candidates
            monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", budget)
        fs = self.lanes(n, d, t0)
        reports = norm_reports(fs, 0.3, lambda_weight=0.7)
        assert len(reports) == len(fs)
        for f, report in zip(fs, reports):
            assert isinstance(report, NormReport)
            assert (report.interval, report.n_steps) == ((t0, t0 + 2.0), n)
            want = report_per_path(f, 0.3, 0.7)
            assert report.norms.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, float) and not isinstance(value, bool):
                    assert report.norms[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
                else:
                    assert report.norms[key] == value, key
        if n >= 64:
            assert [r.norms["constant_path"] for r in reports[:3]] == [False, True, False]
            assert reports[2].norms["holder_exponent_estimate"] == pytest.approx(1.0)

    def test_one_lane_is_norm_report(self):
        f = walk(3, 300, t0=-1.0)
        assert norm_reports([f], 0.3, 0.7)[0] == norm_report(f, 0.3, 0.7)

    def test_rejects_mixed_grids(self):
        with pytest.raises(ValueError, match="one grid"):
            norm_reports([walk(1, 64), walk(2, 128)], 0.3)

    def test_no_paths_no_reports(self):
        assert norm_reports([], 0.3) == []

    @pytest.mark.parametrize("budget", [None, 600])
    def test_w_alpha_norms_match_per_path(self, monkeypatch, budget):
        if budget:  # lane groups of one lane
            monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", budget)
        fs = self.lanes(257, 2, -1.0)
        want = [w_alpha_inf_norm(f, AlphaParams(alpha=0.3)) for f in fs]
        assert _lane_sups(fs, 0.3)[0].tolist() == want

    @pytest.mark.parametrize("budget", [None, 3 * 2 * 257])
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("d,t0", [(1, 0.0), (2, 0.0), (1, -1.0), (2, -1.0)])
    def test_each_path_is_its_own(self, monkeypatch, budget, n, d, t0):
        # a path's report is bit-equal whether it is alone or among other
        # paths, fBm and smooth, in its call; with budget the 257-point lanes
        # go in groups of 3, so a batch crosses lane-group boundaries
        if budget:
            monkeypatch.setattr(fracnorm, "_BLOCK_ENTRIES", budget)
        grid = TimeGrid(t0, t0 + 2.0, n)
        g = sample_circulant(TimeGrid(0.0, 2.0, n), 0.75, 4 * d, seed=(5, n))
        fs = [SamplePath(grid, g.values[:, p * d : (p + 1) * d]) for p in range(4)]
        fs += [SamplePath(grid, kind_path(kind, n, t0).values * np.arange(1.0, d + 1.0))
               for kind in ("linear", "monotone", "tent", "period-4", "constant")]
        together = norm_reports(fs, 0.3, lambda_weight=0.7)
        for k in (1, 2, 4):
            for first in range(0, len(fs), k):
                batch = norm_reports(fs[first : first + k], 0.3, lambda_weight=0.7)
                for got, want in zip(batch, together[first : first + k]):
                    assert got.norms == want.norms


class TestCachedTables:
    def test_read_only_and_equal_to_a_fresh_build(self):
        n, dt, kappa = 37, 0.125, 1.3
        near, far = _lag_weights(n, dt, kappa)
        powers = _lag_powers(n, dt, 0.7)
        lags = np.arange(n + 1)
        assert np.array_equal(near, _cell_integrals(lags * dt, (lags + 1) * dt, 1.0, 0.0, kappa))
        assert np.array_equal(far, _cell_integrals(lags * dt, (lags + 1) * dt, 0.0, 1.0, kappa))
        assert np.array_equal(powers, [(lag * dt) ** 0.7 for lag in range(1, n + 1)])
        for table in (near, far, powers):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0
        assert _lag_weights(n, dt, kappa)[0] is near
        assert _lag_powers(n, dt, 0.7) is powers

    def test_report_and_driver_norm_share_the_power_table(self):
        def built():
            return _lag_powers.cache_info().misses, _lag_weights.cache_info().misses

        _lag_powers.cache_clear()
        _lag_weights.cache_clear()
        f = walk(5, 200)
        norm_report(f, 0.3)  # starts at t = 0: its sweep runs the driver norm too
        # one power table, read by the Hoelder quotient and the driver norm,
        # and one weight table for each kernel, the rows' and the driver's
        assert built() == (1, 2)
        lambda_alpha_bound(f, 0.3)  # reads the report's tables
        assert built() == (1, 2)


class TestMemory:
    def test_traced_peak_of_one_report(self):
        # in units of the path's 8 (n + 1) bytes: 70 to 75 with a max/min
        # table of every width kept, about 40 with every other one
        n = 1 << 14
        g = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 1, seed=(3, 0))
        norm_reports([walk(1, 64)], 0.375)  # lazy imports inside numpy, paid first
        _lag_weights.cache_clear()
        _lag_powers.cache_clear()
        tracemalloc.start()
        try:
            norm_reports([g], 0.375)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 55 * 8 * (n + 1)

    def test_traced_peak_of_the_weight_tables(self):
        # a cold build of both 2 MiB tables at 2^18 lags, bit for bit the cell
        # integrals: 22.3 MiB when built whole, 11 arrays of the tables' length
        n, dt = 1 << 18, 2.0 ** -18
        _lag_weights.cache_clear()
        tracemalloc.start()
        try:
            near, far = _lag_weights(n, dt, 1.375)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _lag_weights.cache_clear()
        assert peak < 10 * 2 ** 20
        lags = np.arange(n + 1)
        assert np.array_equal(near, _cell_integrals(lags * dt, (lags + 1) * dt, 1.0, 0.0, 1.375))
        assert np.array_equal(far, _cell_integrals(lags * dt, (lags + 1) * dt, 0.0, 1.0, 1.375))

    @pytest.mark.slow
    @needs_vmhwm
    def test_resident_peak_at_scale(self):
        # one report of a 2^18-step lane in a fresh interpreter raises its
        # peak resident set by 81 MB, 174 MB with every width's table kept.
        # The rise is taken from the peak the sampler left, so a lower
        # sampler peak leaves more of the report above it.  Seed (5, 0)
        # searches in 0.6 to 0.9 s on a 2-core x86-64 VM; how much exact
        # work a seed leaves is not what this checks.
        rise = resident_peak_rise(
            "from refsde.fbm import sample_circulant\n"
            "from refsde.fracnorm import norm_reports\n"
            "from refsde.grids import TimeGrid\n"
            "g = sample_circulant(TimeGrid(0.0, 1.0, 1 << 18), 0.75, 1, seed=(5, 0))",
            "norm_reports([g], 0.375)")
        assert rise <= 90 * 1024  # kB


class TestWAlphaInf:
    def test_constant(self):
        f = path_on(0.0, 1.0, 100, lambda t: np.full_like(t, -2.5))
        assert w_alpha_inf_norm(f, AlphaParams(alpha=0.3)) == pytest.approx(2.5)

    def test_identity_closed_form(self):
        f = path_on(0.0, 1.0, 4096, lambda t: t)
        got = w_alpha_inf_norm(f, AlphaParams(alpha=0.4))
        assert got == pytest.approx(1.0 + 1.0 / 0.6, abs=1e-3)

    def test_homogeneity(self):
        f = random_path(1)
        f2 = SamplePath(f.grid, 2.0 * f.values)
        p = AlphaParams(alpha=0.25)
        assert w_alpha_inf_norm(f2, p) == pytest.approx(2.0 * w_alpha_inf_norm(f, p), rel=1e-12)

    def test_monotone_in_t(self):
        f = random_path(2)
        a = w_alpha_inf_norm(f.restrict(0.0, 0.5), AlphaParams(alpha=0.3))
        b = w_alpha_inf_norm(f.restrict(0.0, 1.0), AlphaParams(alpha=0.3))
        assert b >= a - 1e-14

    def test_triangle_inequality(self):
        p = AlphaParams(alpha=0.35)
        f, g = random_path(3), random_path(4)
        s = SamplePath(f.grid, f.values + g.values)
        assert w_alpha_inf_norm(s, p) <= (w_alpha_inf_norm(f, p)
                                          + w_alpha_inf_norm(g, p)) * (1 + 1e-10)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            AlphaParams(alpha=0.5)


class TestWeighted:
    def test_lambda_zero_equals_unweighted(self):
        f = random_path(5)
        assert weighted_alpha_norm(f, AlphaParams(alpha=0.3)) == pytest.approx(
            w_alpha_inf_norm(f, AlphaParams(alpha=0.3)), rel=1e-12)

    def test_constant_sup_at_zero(self):
        f = path_on(0.0, 1.0, 64, lambda t: np.full_like(t, 3.0))
        assert weighted_alpha_norm(f, AlphaParams(alpha=0.3, lambda_weight=2.0)) \
            == pytest.approx(3.0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="finite and >= 0"):
            AlphaParams(alpha=0.3, lambda_weight=lam)

    def test_identity_against_dense_oracle(self):
        f = path_on(0.0, 1.0, 4096, lambda t: t)
        got = weighted_alpha_norm(f, AlphaParams(alpha=0.4, lambda_weight=5.0))
        u = np.linspace(0.0, 1.0, 200_001)
        want = np.max(np.exp(-5.0 * u) * (u + u ** 0.6 / 0.6))
        assert got == pytest.approx(want, abs=1e-3)

    def test_damping_that_underflows_is_clean(self):
        # exp(-1000 u) is 0 past u ~ 0.745: those ends weigh nothing, and no
        # warning leaks (the suite turns RuntimeWarnings into errors)
        f = walk(7, 400, t0=0.0)
        got = weighted_alpha_norm(f, AlphaParams(alpha=0.3, lambda_weight=1000.0))
        rows = one_lane_rows(f, 0.3, 0.7)[0]
        want = (np.exp(-1000.0 * f.times) * rows).max()
        assert got == want

    def test_damping_that_overflows_is_an_error(self):
        # exp(-1000 t) at t0 = -1 is past the largest float
        f = walk(7, 400, t0=-1.0)
        with pytest.raises(ValueError, match=r"lambda = 1000\.0, t0 = -1\.0"):
            weighted_alpha_norm(f, AlphaParams(alpha=0.3, lambda_weight=1000.0))
        with pytest.raises(ValueError, match=r"lambda = 1000\.0, t0 = -1\.0"):
            norm_reports([f], 0.3, lambda_weight=1000.0)

    @given(st.integers(0, 50), st.floats(0.5, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_sandwich(self, seed, lam):
        f = random_path(seed, n=80)
        base = w_alpha_inf_norm(f, AlphaParams(alpha=0.3))
        weighted = weighted_alpha_norm(f, AlphaParams(alpha=0.3, lambda_weight=lam))
        assert np.exp(-lam * 1.0) * base <= weighted * (1 + 1e-12)
        assert weighted <= base * (1 + 1e-12)  # e^(-lam*0) * base on [0, 1]


class TestHolder:
    def test_constant(self):
        f = path_on(0.0, 1.0, 50, lambda t: np.full_like(t, 1.5))
        assert holder_norm(f, 0.7) == pytest.approx(1.5)

    def test_identity_lipschitz(self):
        f = path_on(0.0, 1.0, 512, lambda t: t)
        assert holder_norm(f, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_sqrt_half_exponent(self):
        f = path_on(0.0, 1.0, 4096, lambda t: np.sqrt(t))
        assert holder_norm(f, 0.5) == pytest.approx(2.0, abs=1e-3)

    def test_bad_exponent(self):
        f = random_path(6)
        with pytest.raises(ValueError):
            holder_norm(f, 1.2)


class TestGNorm:
    def test_constant_vanishes(self):
        g = path_on(0.0, 1.0, 64, lambda t: np.full_like(t, 4.0))
        assert g_norm_one_minus_alpha(g, 0.4) == 0.0

    def test_identity_closed_form(self):
        g = path_on(0.0, 1.0, 4096, lambda t: t)
        assert g_norm_one_minus_alpha(g, 0.4) == pytest.approx(3.5, abs=1e-3)

    def test_homogeneity(self):
        g = random_path(7)
        g3 = SamplePath(g.grid, -3.0 * g.values)
        assert g_norm_one_minus_alpha(g3, 0.3) == pytest.approx(
            3.0 * g_norm_one_minus_alpha(g, 0.3), rel=1e-12)

    def test_rejects_vector(self):
        g = SamplePath(TimeGrid(0.0, 1.0, 10), np.zeros((11, 2)))
        with pytest.raises(ValueError):
            g_norm_one_minus_alpha(g, 0.3)


class TestLambdaBound:
    def test_constant(self):
        g = path_on(0.0, 1.0, 64, lambda t: np.full_like(t, 1.0))
        assert lambda_alpha_bound(g, 0.4) == 0.0

    def test_identity_closed_form(self):
        g = path_on(0.0, 1.0, 4096, lambda t: t)
        want = 3.5 / (gamma(0.6) * gamma(0.4))
        assert lambda_alpha_bound(g, 0.4) == pytest.approx(want, abs=1e-3)

    def test_gamma_product_matches_scipy(self):
        # the bound divides by math.gamma(1 - a) * math.gamma(a); scipy is the reference
        g = random_path(9)
        for alpha in np.linspace(0.01, 0.49, 25):
            want = g_norm_one_minus_alpha(g, alpha) / (gamma(1.0 - alpha) * gamma(alpha))
            assert lambda_alpha_bound(g, alpha) == pytest.approx(want, rel=4e-15)

    def test_scaling(self):
        g = random_path(8)
        g5 = SamplePath(g.grid, 5.0 * g.values)
        assert lambda_alpha_bound(g5, 0.25) == pytest.approx(
            5.0 * lambda_alpha_bound(g, 0.25), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1])
    def test_bad_alpha(self, alpha):
        for d in (1, 2):
            g = SamplePath(TimeGrid(0.0, 1.0, 10), np.zeros((11, d)))
            with pytest.raises(ValueError, match="alpha must lie in"):
                lambda_alpha_bound(g, alpha)


class TestFAlphaOne:
    def test_zero(self):
        f = path_on(0.0, 1.0, 64, lambda t: np.zeros_like(t))
        assert f_norm_alpha_1(f, 0.4) == 0.0

    def test_constant_one(self):
        f = path_on(0.0, 1.0, 256, lambda t: np.ones_like(t))
        assert f_norm_alpha_1(f, 0.4) == pytest.approx(1.0 / 0.6, abs=1e-4)

    def test_identity_vs_quadrature_oracle(self):
        f = path_on(0.0, 1.0, 2048, lambda t: t)
        # first term: int s^(1-a) ds = 1/(2-a); double integral of
        # int_0^s (s-y)^(-a) dy = s^(1-a)/(1-a) integrates to 1/((1-a)(2-a))
        a = 0.4
        want = 1.0 / (2.0 - a) + 1.0 / ((1.0 - a) * (2.0 - a))
        assert f_norm_alpha_1(f, a) == pytest.approx(want, abs=1e-3)


class TestHolderExponent:
    def test_identity(self):
        f = path_on(0.0, 1.0, 1024, lambda t: t)
        assert holder_exponent_estimate(f) == pytest.approx(1.0, abs=0.01)

    def test_sqrt(self):
        f = path_on(0.0, 1.0, 16384, lambda t: np.sqrt(t))
        assert holder_exponent_estimate(f) == pytest.approx(0.5, abs=0.05)

    def test_constant_flag(self):
        f = path_on(0.0, 1.0, 128, lambda t: np.full_like(t, 2.0))
        est, const = holder_exponent_estimate(f), norm_report(f, 0.25).norms["constant_path"]
        assert est == 1.0 and const

    def test_too_short(self):
        f = path_on(0.0, 1.0, 32, lambda t: t)
        with pytest.raises(ValueError, match="at least 64 steps"):
            holder_exponent_estimate(f)

    @pytest.mark.parametrize("n", [1, 63])
    def test_lanes_below_64_steps_have_no_estimate(self, n):
        values = np.stack([walk(seed, n, 2).values for seed in range(3)], axis=1)
        assert _holder_exponents(values, 2.0 / n) == [(None, None)] * 3


class TestReport:
    def test_report_roundtrip(self):
        f = random_path(9)
        rep = norm_report(f, 0.3)
        d = rep.to_dict()
        assert d["alpha"] == 0.3
        assert d["norms"]["w_alpha_inf"] > 0.0
        assert not d["approximate_pair_sup"]

    def test_refinement_stability(self):
        # norm at n and 2n differ by a decreasing amount
        fine = path_on(0.0, 1.0, 1024, lambda t: np.sin(3.0 * t) + t)
        p = AlphaParams(alpha=0.3)
        vals = [w_alpha_inf_norm(SamplePath(TimeGrid(0.0, 1.0, 1024 // s),
                                            fine.values[::s]), p)
                for s in (4, 2, 1)]
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12
