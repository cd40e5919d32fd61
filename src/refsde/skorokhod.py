"""Componentwise Skorokhod map on the non-negative orthant.

The regulator has the explicit running-maximum form
y_i(t) = max_{s <= t} (z_i(s))^- and the reflected path is x = z + y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SamplePath

__all__ = [
    "SkorokhodSolution",
    "regulator",
    "reflect",
    "complementarity_residual",
    "lipschitz_witness",
    "regulator_values",
]


@dataclass(frozen=True)
class SkorokhodSolution:
    """Free path z, reflected path x = z + y and regulator y."""

    z: SamplePath
    x: SamplePath
    y: SamplePath


def _check_admissible(z: SamplePath) -> None:
    if np.any(z.values[0] < 0.0):
        raise ValueError(
            f"Skorokhod problem requires z(0) >= 0 componentwise, got {z.values[0]}"
        )


def regulator_values(z: np.ndarray, y_prev=0.0) -> np.ndarray:
    """Running maximum of the negative part, columnwise, as a raw array.

    y_prev is the regulator's value before z[0]; a solver that reflects
    one delay interval at a time passes the previous interval's end value.
    """
    return np.maximum(y_prev, np.maximum.accumulate(np.maximum(-z, 0.0), axis=0))


def regulator(z: SamplePath) -> SamplePath:
    """Regulator y_i(t) = max_{s in [0,t]} (z_i(s))^-; one forward pass."""
    _check_admissible(z)
    return SamplePath(z.grid, regulator_values(z.values))


def reflect(z: SamplePath) -> SkorokhodSolution:
    """Solve the Skorokhod problem for z: x = z + regulator(z)."""
    y = regulator(z)
    x = SamplePath(z.grid, z.values + y.values)
    return SkorokhodSolution(z=z, x=x, y=y)


def complementarity_residual(sol: SkorokhodSolution) -> float:
    """Max over components of the discrete Stieltjes sum sum_k x(t_k) dy_k.

    Exactly zero in the continuum; on a grid it is O(mesh) because x at
    the left endpoint of a cell can still be positive just before the
    reflection event inside the cell.
    """
    return float(_complementarity(sol.x.values, sol.y.values))


def _complementarity(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """complementarity_residual on raw arrays x and y of shape (K, d), or
    of shape (K, P, d) for one residual per lane.  Each lane's sum runs over
    a contiguous copy of its own (K, d) terms, so numpy adds them in the
    order it adds a lone path's."""
    terms = np.moveaxis(x[:-1] * np.diff(y, axis=0), 0, -2)
    return np.max(np.ascontiguousarray(terms).sum(axis=-2), axis=-1, initial=0.0)


def lipschitz_witness(z1: SamplePath, z2: SamplePath) -> tuple[float, float]:
    """Observed sup-norm Lipschitz ratios of the reflector and regulator maps.

    Returns (|x1-x2|/|z1-z2|, |y1-y2|/|z1-z2|) with zeros when the
    denominator vanishes.  For the componentwise orthant map the sharp
    constants are 2 and 1.
    """
    if z1.grid != z2.grid or z1.dim != z2.dim:
        raise ValueError("paths must share grid and dimension")
    s1, s2 = reflect(z1), reflect(z2)
    dz = float(np.max(np.abs(z1.values - z2.values)))
    if dz == 0.0:
        return 0.0, 0.0
    dx = float(np.max(np.abs(s1.x.values - s2.x.values)))
    dy = float(np.max(np.abs(s1.y.values - s2.y.values)))
    return dx / dz, dy / dz
