"""TimeGrid's one rule for grid points, and the one owner of each input range.

A time is a grid point when it lies within a thousandth of a step of it,
beyond the rounding of the grid's largest |t|; index_of, contains and
subgrid (so restrict) all read that rule.
"""

import numpy as np
import pytest

from refsde.diagnostics import PhiParams
from refsde.fbm import HurstParameter, _hurst_value, sample_circulant
from refsde.fracnorm import AlphaParams, f_norm_alpha_1, lambda_alpha_bound
from refsde.grids import SamplePath, TimeGrid

from conftest import linear_problem

GRIDS = [TimeGrid(0.0, 1.0, 1000), TimeGrid(-1.0, 3.0, 1024), TimeGrid(1e6, 1e6 + 1.0, 1000),
         TimeGrid(-2e6 - 1.0, -2e6, 1000)]
IDS = ["unit", "minus_1_to_3", "1e6", "minus_2e6"]


class TestIndexOf:
    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_every_point_and_its_text_round_trip(self, grid):
        k = np.arange(grid.n_steps + 1)
        for times in (grid.times, grid.t0 + k * grid.dt, [float("%.17g" % t) for t in grid.times]):
            assert [grid.index_of(t) for t in times] == k.tolist()

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    @pytest.mark.parametrize("steps", [5e-4, -5e-4])
    def test_within_a_thousandth_of_a_step(self, grid, steps):
        assert grid.index_of(grid.times[500] + steps * grid.dt) == 500

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    @pytest.mark.parametrize("steps", [2e-3, -2e-3, 0.4, 0.5])
    def test_off_the_grid_raises(self, grid, steps):
        with pytest.raises(ValueError, match="is not a point of"):
            grid.index_of(grid.times[500] + steps * grid.dt)

    def test_large_t_tolerance_does_not_grow_with_t(self):
        # a tolerance of 1e-9 |t| once put this time, 0.4 steps off, on point 500
        with pytest.raises(ValueError, match="is not a point of"):
            TimeGrid(1e6, 1e6 + 1, 1000).index_of(1e6 + 0.5004)

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_ends_and_beyond(self, grid):
        assert (grid.index_of(grid.t0), grid.index_of(grid.t1)) == (0, grid.n_steps)
        for t in (grid.t0 - grid.dt, grid.t1 + grid.dt):
            with pytest.raises(ValueError, match="is not a point of"):
                grid.index_of(t)

    def test_zero_on_the_solver_grid(self):
        # check_invariants reads the index of t = 0 on [-r, T]
        assert TimeGrid(-1.0, 3.0, 1024).index_of(0.0) == 256
        assert TimeGrid(-0.3, 0.9, 4 * 97).index_of(0.0) == 97


class TestContains:
    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_edges(self, grid):
        dt = grid.dt
        assert grid.contains(grid.t0, grid.t1)
        assert grid.contains(grid.t0 - 5e-4 * dt, grid.t1 + 5e-4 * dt)
        assert not grid.contains(grid.t0 - 2e-3 * dt, grid.t1)
        assert not grid.contains(grid.t0, grid.t1 + 2e-3 * dt)

    def test_large_t_slack_is_not_a_step(self):
        # a slack of 1e-9 max |t| once reached half a step at t = 1e6
        grid = TimeGrid(1e6, 1e6 + 1, 1000)
        assert not grid.contains(1e6 - 0.5 * grid.dt, 1e6 + 1)


class TestSubgrid:
    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_points_on_the_grid(self, grid):
        assert grid.subgrid(grid.t0, grid.t1) == (0, grid.n_steps)
        assert grid.subgrid(grid.times[300], grid.times[700]) == (300, 700)

    def test_large_t_points_are_their_own(self):
        # (s - t0) / dt rounds about 1e-7 off at t = 1e6; an index slack of
        # 1e-9 once dropped both ends
        assert TimeGrid(1e6, 1e6 + 1, 1000).subgrid(1e6 + 0.3, 1e6 + 0.7) == (300, 700)

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_ends_between_points(self, grid):
        s, t = grid.times[300], grid.times[700]
        dt = grid.dt
        assert grid.subgrid(s + 5e-4 * dt, t - 5e-4 * dt) == (300, 700)  # still the points
        assert grid.subgrid(s + 2e-3 * dt, t - 2e-3 * dt) == (301, 699)
        assert grid.subgrid(s - 0.5 * dt, t + 0.5 * dt) == (300, 700)

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_rejected(self, grid):
        dt = grid.dt
        with pytest.raises(ValueError, match="not covered"):
            grid.subgrid(grid.t0 - 2e-3 * dt, grid.t1)
        with pytest.raises(ValueError, match="not covered"):
            grid.subgrid(grid.times[5], grid.times[5])
        with pytest.raises(ValueError, match="fewer than two grid points"):
            grid.subgrid(grid.times[5] + 0.1 * dt, grid.times[6] + 0.9 * dt)


class TestRestrict:
    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_values_and_grid(self, grid):
        f = SamplePath(grid, np.arange(grid.n_steps + 1.0))
        assert f.restrict(grid.t0, grid.t1).grid == grid
        sub = f.restrict(grid.times[300] + 0.5 * grid.dt, grid.times[700])
        assert sub.grid == TimeGrid(grid.times[301], grid.times[700], 399)
        assert np.array_equal(sub.values[:, 0], np.arange(301.0, 701.0))


class TestRangeMessages:
    """Each range is checked by one owner; every caller raises its message."""

    @staticmethod
    def message(fn, *args, **kwargs):
        with pytest.raises(ValueError) as raised:
            fn(*args, **kwargs)
        return str(raised.value)

    def test_hurst(self):
        want = "Hurst parameter must lie in (0.5, 1), got 0.5"
        assert self.message(HurstParameter, 0.5) == want
        assert self.message(linear_problem, 8, H=0.5) == want
        assert self.message(HurstParameter, 1.0) == "Hurst parameter must lie in (0.5, 1), got 1.0"
        # the samplers admit H = 1/2, and say so
        assert self.message(_hurst_value, 1.0) == "Hurst parameter must lie in [0.5, 1), got 1.0"
        assert self.message(sample_circulant, TimeGrid(0.0, 1.0, 8), 0.4) == (
            "Hurst parameter must lie in [0.5, 1), got 0.4")
        assert _hurst_value(HurstParameter(0.75), allow_half=False) == 0.75

    @pytest.mark.parametrize("alpha", [0.5, 0.0, -0.1, float("nan")])
    def test_alpha(self, alpha):
        want = f"alpha must lie in (0, 1/2), got {alpha}"
        f = SamplePath(TimeGrid(0.0, 1.0, 16), np.linspace(0.0, 1.0, 17))
        assert self.message(AlphaParams, alpha=alpha) == want
        assert self.message(PhiParams, gamma=0.5, alpha=alpha) == want
        assert self.message(f_norm_alpha_1, f, alpha) == want
        assert self.message(lambda_alpha_bound, f, alpha) == want
