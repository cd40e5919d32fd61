"""Pathwise Riemann-Stieltjes (Young) integration and hereditary
Lebesgue integrals.

Left-point sums are used inside the solver (the explicit stepper must
stay causal); the trapezoid rule is the default for diagnostics.  Both
converge to the Young integral when the Hoelder exponents of integrand
and driver sum above 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fracnorm import lambda_alpha_bound, w_alpha_inf_norm, AlphaParams
from .grids import SamplePath, TimeGrid

__all__ = [
    "IndefiniteIntegral",
    "HistoryView",
    "young_integral",
    "hereditary_lebesgue_integral",
    "young_constant_probe",
]

SCHEMES = ("left_point", "trapezoid")


@dataclass(frozen=True)
class IndefiniteIntegral:
    """Integral from 0 to each grid point; additive over cells by construction."""

    path: SamplePath
    scheme: str

    def at_end(self) -> np.ndarray:
        return self.path.values[-1]


def _integrand_increment_products(f_vals: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Per-cell products matching f shapes against driver increments dg (n, m)."""
    if f_vals.ndim == 3:  # matrix-valued integrand (n+1, d, m)
        if f_vals.shape[2] != dg.shape[1]:
            raise ValueError(
                f"integrand has {f_vals.shape[2]} driver slots, driver has {dg.shape[1]} columns"
            )
        return np.einsum("kdm,km->kd", f_vals[:-1], dg), np.einsum("kdm,km->kd", f_vals[1:], dg)
    if f_vals.ndim != 2:
        raise ValueError(f"integrand must have 2 or 3 axes, got shape {f_vals.shape}")
    if dg.shape[1] == 1:
        return f_vals[:-1] * dg, f_vals[1:] * dg
    if f_vals.shape[1] == dg.shape[1]:  # columnwise pairing
        return f_vals[:-1] * dg, f_vals[1:] * dg
    raise ValueError(
        f"cannot pair integrand of shape {f_vals.shape} with driver of {dg.shape[1]} columns"
    )


def young_integral(f, g: SamplePath, scheme: str = "trapezoid") -> IndefiniteIntegral:
    """Indefinite Riemann-Stieltjes integral of f against g on g's grid.

    f may be a SamplePath on the same grid or a raw array of values with
    shape (n+1, d), (n+1,) or (n+1, d, m); a (d, m)-valued integrand is
    paired with the m driver columns, otherwise columns pair one-to-one
    (or against a single scalar driver column).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if isinstance(f, SamplePath):
        if f.grid != g.grid:
            raise ValueError("integrand and driver must share one grid")
        f_vals = f.values
    else:
        f_vals = np.asarray(f, dtype=float)
        if f_vals.ndim == 1:
            f_vals = f_vals[:, None]
        if f_vals.shape[0] != g.grid.n_steps + 1:
            raise ValueError(
                f"integrand has {f_vals.shape[0]} rows, grid has {g.grid.n_steps + 1} points"
            )
    dg = np.diff(g.values, axis=0)
    left, right = _integrand_increment_products(f_vals, dg)
    incr = left if scheme == "left_point" else 0.5 * (left + right)
    out = np.zeros((g.grid.n_steps + 1, incr.shape[1]))
    np.cumsum(incr, axis=0, out=out[1:])
    return IndefiniteIntegral(path=SamplePath(g.grid, out), scheme=scheme)


class HistoryView:
    """Causal window onto a path: values are visible only up to t_max."""

    def __init__(self, path_values: np.ndarray, times: np.ndarray, k_max: int):
        self._values = path_values
        self._times = times
        self._k_max = k_max

    @property
    def t_max(self) -> float:
        return float(self._times[self._k_max])

    def at(self, u: float) -> np.ndarray:
        """Linearly interpolated value at u <= t_max."""
        if u > self.t_max + 1e-12:
            raise ValueError(f"history access at u={u} past t_max={self.t_max}")
        if u < self._times[0] - 1e-12:
            raise ValueError(f"history access at u={u} before start {self._times[0]}")
        dt = self._times[1] - self._times[0]
        pos = (u - self._times[0]) / dt
        k = min(int(pos), self._k_max - 1) if self._k_max > 0 else 0
        w = pos - k
        if w <= 0.0:
            return self._values[k]
        return (1.0 - w) * self._values[k] + w * self._values[min(k + 1, self._k_max)]

    def current(self) -> np.ndarray:
        return self._values[self._k_max]

    def sup_abs(self) -> np.ndarray:
        """Componentwise running sup of |x| over the visible window."""
        return np.abs(self._values[: self._k_max + 1]).max(axis=0)


def hereditary_lebesgue_integral(
    b: Callable[[float, HistoryView], np.ndarray],
    x: SamplePath,
    grid: TimeGrid,
) -> IndefiniteIntegral:
    """Trapezoid integral of u -> b(u, history of x up to u) over grid.

    x must extend back to the delayed past (grid covers [0, T], x covers
    [-r, T] on the same mesh); b sees x only causally.
    """
    if abs(x.grid.dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError("history path and integration grid must share one mesh")
    offset = x.grid.index_of(grid.t0)
    times = x.times
    n = grid.n_steps
    vals = np.empty((n + 1, x.dim))
    for k in range(n + 1):
        bk = np.asarray(b(float(times[offset + k]), HistoryView(x.values, times, offset + k)), float)
        if not np.all(np.isfinite(bk)):
            raise ValueError(f"drift evaluator returned non-finite value at u={times[offset + k]}")
        vals[k] = bk
    incr = 0.5 * grid.dt * (vals[:-1] + vals[1:])
    out = np.zeros((n + 1, x.dim))
    np.cumsum(incr, axis=0, out=out[1:])
    return IndefiniteIntegral(path=SamplePath(grid, out), scheme="trapezoid")


def young_constant_probe(f: SamplePath, g: SamplePath, alpha: float,
                         sub: tuple[float, float]) -> float | None:
    """Empirical ratio |int_s^t f dg| / (Lambda_alpha(g) (t-s)^(1-alpha) |f|_{alpha,inf}).

    A reported diagnostic for the interval estimate's unspecified constant;
    None when the denominator vanishes (indeterminate).
    """
    s, t = sub
    integral = young_integral(f, g, scheme="trapezoid").path
    i, j = g.grid.subgrid(s, t)
    value = float(np.linalg.norm(integral.values[j] - integral.values[i]))
    lam = lambda_alpha_bound(g, alpha, interval=sub)
    fnorm = w_alpha_inf_norm(f, AlphaParams(alpha=alpha, interval=sub))
    denom = lam * (t - s) ** (1.0 - alpha) * fnorm
    if denom == 0.0:
        return None if value > 0.0 else 0.0
    return value / denom
