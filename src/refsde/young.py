"""Pathwise Riemann-Stieltjes (Young) integration.

Left-point sums are used inside the solver (the explicit stepper must
stay causal); the trapezoid rule is the default for diagnostics.  Both
converge to the Young integral when the Hoelder exponents of integrand
and driver sum above 1.  One per-cell product, _cell_products, serves
both rules and the solver's diffusion increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SamplePath

__all__ = [
    "IndefiniteIntegral",
    "young_integral",
]

SCHEMES = ("left_point", "trapezoid")


@dataclass(frozen=True)
class IndefiniteIntegral:
    """Integral from 0 to each grid point; additive over cells by construction."""

    path: SamplePath
    scheme: str

    def at_end(self) -> np.ndarray:
        return self.path.values[-1]


def _cell_products(f: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Per-cell products f_k dg_k of integrand values f against driver
    increments dg (K, m): a (K, d, m) matrix-valued f is summed over its m
    driver slots, a (K, d) f pairs its columns one-to-one with dg's (or
    with a single driver column)."""
    if f.ndim == 3:
        if f.shape[2] != dg.shape[1]:
            raise ValueError(
                f"integrand has {f.shape[2]} driver slots, driver has {dg.shape[1]} columns"
            )
        return np.einsum("kdm,km->kd", f, dg)
    if f.ndim != 2:
        raise ValueError(f"integrand must have 2 or 3 axes, got shape {f.shape}")
    if dg.shape[1] in (1, f.shape[1]):
        return f * dg
    raise ValueError(
        f"cannot pair integrand of shape {f.shape} with driver of {dg.shape[1]} columns"
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
    incr = _cell_products(f_vals[:-1], dg)
    if scheme == "trapezoid":
        incr = 0.5 * (incr + _cell_products(f_vals[1:], dg))
    out = np.zeros((g.grid.n_steps + 1, incr.shape[1]))
    np.cumsum(incr, axis=0, out=out[1:])
    return IndefiniteIntegral(path=SamplePath(g.grid, out), scheme=scheme)

