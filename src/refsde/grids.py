"""Uniform time grids and discrete d-dimensional sample paths.

Every path object in the library (initial segment, driver, free path,
reflected path, regulator) lives on a uniform grid and is stored as a
(n_steps + 1, dim) array of values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TimeGrid", "SamplePath"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + k*dt for k = 0..n_steps."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.t0) or not np.isfinite(self.t1):
            raise ValueError("grid endpoints must be finite")
        if self.t1 <= self.t0:
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_steps + 1)

    @property
    def _tol(self) -> float:
        """How far a time may lie from a grid point and still be that point: a
        thousandth of a step beyond the rounding of the grid's largest |t| (a
        tolerance relative to t would let a point sit steps away at large t)."""
        return 1e-3 * self.dt + 4 * float(np.spacing(max(abs(self.t0), abs(self.t1))))

    def index_of(self, t: float) -> int:
        """Index of the grid point at time t; t must sit on the grid."""
        k = round((t - self.t0) / self.dt)
        if k < 0 or k > self.n_steps or abs(self.t0 + k * self.dt - t) > self._tol:
            raise ValueError(f"time {t} is not a point of {self}")
        return int(k)

    def contains(self, s: float, t: float) -> bool:
        return s >= self.t0 - self._tol and t <= self.t1 + self._tol

    def subgrid(self, s: float, t: float) -> tuple[int, int]:
        """Index range [i, j] of grid points inside [s, t] (inclusive)."""
        if not self.contains(s, t) or s >= t:
            raise ValueError(f"interval ({s}, {t}) not covered by {self}")
        i = max(int(np.ceil((s - self._tol - self.t0) / self.dt)), 0)
        j = min(int(np.floor((t + self._tol - self.t0) / self.dt)), self.n_steps)
        if j - i < 1:
            raise ValueError(f"interval ({s}, {t}) contains fewer than two grid points")
        return i, j


@dataclass(frozen=True)
class SamplePath:
    """A dim-valued function sampled on a uniform time grid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError(f"values must be 1- or 2-dimensional, got shape {v.shape}")
        if v.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"values has {v.shape[0]} rows, grid has {self.grid.n_steps + 1} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def component(self, i: int) -> "SamplePath":
        return SamplePath(self.grid, self.values[:, i : i + 1])

    def restrict(self, s: float, t: float) -> "SamplePath":
        i, j = self.grid.subgrid(s, t)
        times = self.times
        sub = TimeGrid(times[i], times[j], j - i)
        return SamplePath(sub, self.values[i : j + 1])
