"""Pathwise solvers for the reflected delay equation.

``_solve_lanes`` builds the solution one delay interval at a time, the
construction the paper follows: on [nr, (n+1)r] the delayed state is
already fixed, so the paths are independent given their drivers, and all
of them advance through the interval in one array pass, one lane per
path.  x, y, z and the running sups of |x| have shape (N+1, P, d).  The
diffusion's left-point Young increments are computed once per interval
in a batch, and one interval stepper, chosen once per solve, advances
every lane over the interval:

* ``_picard_interval`` (scheme = picard) iterates the drift + reflection
  map to a sup-norm fixed point; a lane within tolerance is frozen with
  its own iteration count and residual while the others iterate on;
* ``_euler_interval`` (scheme = euler, a drift that reads only t and the
  delayed state xd1..xdd) takes the whole interval with array operations
  (the method of steps), byte for byte the step loop's x, y and z;
* ``_euler_steps`` (scheme = euler, any other drift) is the explicit
  forward recursion with the regulator applied each step, so the drift's
  x and s arguments always see reflected values.

Every stepper writes only the rows i0 + 1..i1 of its interval, so x, y
and z keep the initial segment's bytes on [-r, 0] under both schemes.
The coefficients are evaluated unchecked: a non-finite drift or
diffusion value makes z non-finite at its step (inf * dt is inf, inf - inf
and inf * 0 are nan, and nan stays nan), and x = z + y with it.  x can
also overflow where z stays finite, once y has taken up a large negative
z.  The steppers only step; after each interval _solve_lanes alone
decides failures.  One scan of the interval's x gives a lane a
BlowUpError at its first non-finite row; under Picard, a lane that did
not blow up and whose final residual is above picard_tol gets a
PicardConvergenceError.  A failed lane is dropped with the error a solve
of that path alone raises; the other lanes' bytes do not depend on it,
since on the interval each path depends only on its own driver.

``solve`` is the one-lane case and raises the lane's error;
``solve_euler`` and ``solve_picard`` are ``solve`` with the scheme forced.
``solve_stochastic`` samples one fBm driver per path and solves the paths
as lanes, in chunks of about _LANE_BYTES of solver state, and keeps them
as lanes: a ``ReflectedSolution`` per path is built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .coeff import CoefficientSet, collect_vars, diffusion_variables
# the unchecked evaluators, under the names that perfbench/child.py hooks
from .coeff import diffusion_values as eval_diffusion, drift_values as eval_drift
from .fbm import sample_circulant, _hurst_value
from .grids import SamplePath, TimeGrid
from .skorokhod import _complementarity, regulator_values
from .young import _cell_products

__all__ = [
    "Problem",
    "SolverConfig",
    "ReflectedSolution",
    "MonteCarloResult",
    "BlowUpError",
    "PicardConvergenceError",
    "eta_from_callable",
    "driver_grid",
    "solve",
    "solve_euler",
    "solve_picard",
    "solve_stochastic",
    "convergence_study",
    "check_invariants",
]

# Bytes of solver state per chunk of lanes in solve_stochastic: x, y, z, the
# running sups and the driver increments of every lane of the chunk.
_LANE_BYTES = 1 << 24


class BlowUpError(RuntimeError):
    """Non-finite state during time stepping; carries the step index, its
    time and the first non-finite component (from 1)."""

    def __init__(self, step: int, t: float, component: int):
        super().__init__(f"non-finite state at step {step} (t={t}, component {component})")
        self.step = step
        self.t = t
        self.component = component


class PicardConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted max_iter; carries the last residual."""

    def __init__(self, interval: int, residual: float, max_iter: int):
        super().__init__(
            f"Picard iteration on delay interval {interval} did not reach tolerance "
            f"within {max_iter} iterations (last residual {residual:.3e})"
        )
        self.interval = interval
        self.residual = residual


@dataclass(frozen=True)
class Problem:
    """Reflected delay equation data: initial segment, coefficients, horizon."""

    eta: SamplePath  # on [-r, 0], d components
    coeffs: CoefficientSet
    r: float
    T: float
    H: float | None = None  # used only when the driver is sampled internally

    def __post_init__(self) -> None:
        if not (np.isfinite(self.r) and np.isfinite(self.T)):
            raise ValueError(f"delay and horizon must be finite, got r={self.r}, T={self.T}")
        if self.r <= 0.0:
            raise ValueError(f"delay must be positive, got {self.r}")
        ratio = self.T / self.r
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(f"horizon must be an integer multiple of the delay, got T/r={ratio}")
        g = self.eta.grid
        if abs(g.t0 + self.r) > 1e-9 * self.r or abs(g.t1) > 1e-12:
            raise ValueError(f"initial segment must live on [-r, 0], got [{g.t0}, {g.t1}]")
        if self.eta.dim != self.coeffs.d:
            raise ValueError(f"initial segment has {self.eta.dim} components, coefficients expect {self.coeffs.d}")
        if np.any(self.eta.values < 0.0):
            raise ValueError("initial segment must be non-negative componentwise")
        if self.H is not None:
            _hurst_value(self.H, allow_half=False)

    @property
    def d(self) -> int:
        return self.coeffs.d

    @property
    def m(self) -> int:
        return self.coeffs.m

    @property
    def n_intervals(self) -> int:
        return int(round(self.T / self.r))


@dataclass(frozen=True)
class SolverConfig:
    steps_per_delay: int = 256
    scheme: str = "euler"
    picard_tol: float = 1e-10
    picard_max_iter: int = 100
    seed: int = 0
    initial_iterate: str = "constant"  # or "linear"

    def __post_init__(self) -> None:
        if self.steps_per_delay < 4:
            raise ValueError(f"steps_per_delay must be >= 4, got {self.steps_per_delay}")
        if self.scheme not in ("euler", "picard"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # inf would stop every interval after one iteration; nan fails both
        if not 0.0 < self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be positive and finite, got {self.picard_tol}")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be positive")
        if self.initial_iterate not in ("constant", "linear"):
            raise ValueError(f"unknown initial iterate {self.initial_iterate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ReflectedSolution:
    """Solution triple on [-r, T] plus solver metadata.

    y and z are zero/eta-extended on [-r, 0]; x = z + y holds bit-exactly
    at every grid point of [0, T].
    """

    x: SamplePath
    y: SamplePath
    z: SamplePath
    driver: SamplePath
    iterations_per_interval: list[int] = field(default_factory=list)
    final_residuals: list[float] = field(default_factory=list)

    @property
    def grid(self) -> TimeGrid:
        return self.x.grid


def eta_from_callable(fn: Callable[[float], np.ndarray], r: float, n_r: int, d: int) -> SamplePath:
    """Sample an initial-segment function on the solver grid over [-r, 0]."""
    grid = TimeGrid(-r, 0.0, n_r)
    vals = np.empty((n_r + 1, d))
    for i, t in enumerate(grid.times.tolist()):
        vals[i] = fn(t)
    return SamplePath(grid, vals)


def driver_grid(p: Problem, n_r: int) -> TimeGrid:
    return TimeGrid(0.0, p.T, p.n_intervals * n_r)


def _start(p: Problem, gs: list[SamplePath], cfg: SolverConfig):
    """Check the initial segment and the drivers against the problem, then
    return the grid on [-r, T], the arrays x, y, z and running sups of |x|
    of shape (N+1, P, d), one lane per driver, filled on [-r, 0] from the
    initial segment, and the driver increments of shape (N, P, m)."""
    n_r = cfg.steps_per_delay
    if p.eta.grid.n_steps != n_r:
        raise ValueError(
            f"initial segment is sampled at {p.eta.grid.n_steps} steps per delay, config wants {n_r}"
        )
    want = driver_grid(p, n_r)
    for g in gs:
        got = g.grid
        if got.n_steps != want.n_steps or abs(got.t0) > 1e-12 or abs(got.t1 - want.t1) > 1e-9:
            raise ValueError(f"driver grid {got} does not match problem grid {want}")
        if g.dim != p.m:
            raise ValueError(f"driver has {g.dim} columns, problem expects {p.m}")
    grid = TimeGrid(-p.r, p.T, (p.n_intervals + 1) * n_r)
    x = np.zeros((grid.n_steps + 1, len(gs), p.d))
    x[: n_r + 1] = p.eta.values[:, None]
    z = x.copy()
    y = np.zeros_like(x)
    sups = np.empty_like(x)
    sups[: n_r + 1] = np.maximum.accumulate(np.abs(p.eta.values), axis=0)[:, None]
    dg = np.stack([np.diff(g.values, axis=0) for g in gs], axis=1)
    return grid, x, y, z, sups, dg


def _blow_ups(x_rows, i: int, times, n_r: int) -> dict:
    """A BlowUpError for each lane of x_rows (the rows of x from grid point
    i on, lanes on axis 1) that holds a non-finite value, at its first
    non-finite row and that row's first non-finite component; keyed by
    the lane's position j."""
    bad = ~np.isfinite(x_rows)
    errors = {}
    for j in np.flatnonzero(bad.any(axis=(0, 2))):
        k, c = np.argwhere(bad[:, j])[0]
        errors[int(j)] = BlowUpError(i + int(k) - n_r, float(times[i + k]), int(c) + 1)
    return errors


def _batched_diffusion_increments(p: Problem, times, x, dg, i0: int, i1: int, n_r: int) -> np.ndarray:
    """Left-point diffusion increments sigma(t_j, x(t_j - r)) dg_j on [i0, i1)
    for every lane, shape (i1 - i0, P, d).

    The delayed argument lies in the already-fixed part of the path, so
    the whole interval is evaluated in one batch; the lanes are folded into
    the batch axis of the per-cell product, which sums each cell's m driver
    slots as one path does.
    """
    sig = eval_diffusion(p.coeffs, times[i0:i1], x[i0 - n_r : i1 - n_r])  # (K, P, d, m)
    cells = sig.shape[0] * sig.shape[1]
    prod = _cell_products(sig.reshape(cells, p.d, p.m), dg[i0 - n_r : i1 - n_r].reshape(cells, p.m))
    return prod.reshape(sig.shape[:3])


def _close_interval(x, y, z, sups, z_new, i0: int, i1: int) -> None:
    """Write z_new as the rows i0 + 1..i1 of z, with the regulator
    continued from y[i0], x = z + y, and the running sups of |x|."""
    rows = slice(i0 + 1, i1 + 1)
    z[rows] = z_new
    y[rows] = regulator_values(z_new, y[i0])
    x[rows] = z_new + y[rows]
    np.maximum.accumulate(np.maximum(sups[i0], np.abs(x[rows])), axis=0, out=sups[rows])


def _euler_steps(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int) -> None:
    """The Euler recursion on [i0, i1], one grid step at a time for all
    lanes; a lane that turns non-finite steps on in nan."""
    n_r = cfg.steps_per_delay
    for k in range(i0, i1):
        b = eval_drift(p.coeffs, float(times[k]), x[k], x[k - n_r], sups[k])
        z[k + 1] = z[k] + b * dt + sig_dg[k - i0]
        # one step of regulator_values; calling it per step costs more than the step
        y[k + 1] = np.maximum(y[k], np.maximum(-z[k + 1], 0.0))
        x[k + 1] = z[k + 1] + y[k + 1]
        sups[k + 1] = np.maximum(sups[k], np.abs(x[k + 1]))


def _euler_interval(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int) -> None:
    """The Euler recursion on [i0, i1] for a drift that reads only t and the
    delayed state, which is already fixed there: one drift call and one
    cumulative sum for all lanes, with the step loop's rounding, so x
    turns non-finite at the step loop's row."""
    n_r = cfg.steps_per_delay
    xd = x[i0 - n_r : i1 - n_r]
    b = eval_drift(p.coeffs, times[i0:i1], xd, xd, xd)  # x and s are not read
    # [z[i0], b_0 dt, sig_dg_0, b_1 dt, ...]: the even partial sums are
    # (z[k] + b_k dt) + sig_dg_k, added in the step loop's order
    terms = np.empty((2 * (i1 - i0) + 1,) + b.shape[1:])
    terms[0] = z[i0]
    terms[1::2] = b * dt
    terms[2::2] = sig_dg
    _close_interval(x, y, z, sups, np.cumsum(terms, axis=0)[2::2], i0, i1)


def _picard_interval(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int,
                     reads_sups: bool = True):
    """The fixed-point construction on [i0, i1]; returns each lane's
    iteration count and final residual.

    The map u -> z(i0) + drift integral + Young term + regulator is
    iterated to a sup-norm fixed point from the configured initial iterate,
    with one batched drift call per iteration over the lanes still
    iterating; the running sups of |u| are taken only if the drift reads
    them (reads_sups).  A lane stops at the first iterate that is within
    tolerance, non-finite, or the max_iter-th, and its x, y and z on the
    interval are that iterate's.
    """
    n_r = cfg.steps_per_delay
    young = np.zeros((n_r + 1,) + sig_dg.shape[1:])
    np.cumsum(sig_dg, axis=0, out=young[1:])
    t_int = times[i0 : i1 + 1]

    if cfg.initial_iterate == "constant":
        u = np.tile(x[i0], (n_r + 1, 1, 1))
    else:  # the last step's slope, continued and kept non-negative
        slope = (x[i0] - x[i0 - 1]) / dt
        u = np.maximum(x[i0] + slope * (np.arange(n_r + 1) * dt)[:, None, None], 0.0)
    u[0] = x[i0]
    z_int = np.empty_like(u)  # each lane's z at the iterate it stopped on
    iterations = np.empty(u.shape[1], dtype=int)
    residuals = np.empty(u.shape[1])
    # the lanes still iterating, and their slices of the fixed data
    live = np.arange(u.shape[1])
    xd, s0, z0, y0 = x[i0 - n_r : i0 + 1], sups[i0 - 1], z[i0], y[i0]
    drift_cum = np.zeros_like(u)  # its row 0 stays 0
    for n_iter in range(1, cfg.picard_max_iter + 1):
        u_sups = np.maximum.accumulate(np.maximum(s0, np.abs(u)), axis=0) if reads_sups else u
        b = eval_drift(p.coeffs, t_int, u, xd, u_sups)
        np.cumsum(0.5 * dt * (b[:-1] + b[1:]), axis=0, out=drift_cum[1:])
        z_new = z0 + drift_cum + young
        u_new = z_new + regulator_values(z_new, y0)
        res = np.max(np.abs(u_new - u), axis=(0, 2))
        # u_new is x on this iterate; a nan residual is not above tol
        going = np.isfinite(u_new).all(axis=(0, 2)) & (res > cfg.picard_tol) & (n_iter < cfg.picard_max_iter)
        if not going.all():
            stop = ~going
            done = live[stop]
            z_int[:, done] = z_new[:, stop]
            iterations[done] = n_iter
            residuals[done] = res[stop]
            if not going.any():
                break
            live = live[going]
            u_new, xd, s0, z0, y0, young, drift_cum = (
                a[..., going, :] for a in (u_new, xd, s0, z0, y0, young, drift_cum))
        u = u_new
    _close_interval(x, y, z, sups, z_int[1:], i0, i1)
    return iterations, residuals


@dataclass(eq=False)
class MonteCarloResult:
    """Solved paths as lanes, and each failed path's error.  Lane j of x, y
    and z, of shape (N + 1, P, d) on grid, [-r, T], is path paths[j] (in
    index order) on drivers[j], with its Picard iteration counts and final
    residuals per delay interval (empty under Euler) iterations[j] and
    residuals[j]."""

    grid: TimeGrid
    paths: list
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    drivers: list
    iterations: list
    residuals: list
    failures: dict

    @cached_property
    def solutions(self) -> list:
        """A ReflectedSolution per path, in index order; None for a failed path."""
        solutions: list = [None] * (len(self.paths) + len(self.failures))
        for j, i in enumerate(self.paths):
            x, y, z = (SamplePath(self.grid, np.ascontiguousarray(a[:, j])) for a in (self.x, self.y, self.z))
            solutions[i] = ReflectedSolution(x, y, z, self.drivers[j], self.iterations[j], self.residuals[j])
        return solutions

    @property
    def n_ok(self) -> int:
        return len(self.paths)


def _solve_lanes(p: Problem, gs: list[SamplePath], cfg: SolverConfig) -> MonteCarloResult:
    """Solve on every driver of gs at once, one lane per driver, one delay
    interval at a time; path i of the result is the one on gs[i].

    Failures are decided only here, after each interval (see the module
    docstring); a failed lane is dropped from the arrays.
    """
    grid, x, y, z, sups, dg = _start(p, gs, cfg)
    n_r = cfg.steps_per_delay
    times = grid.times
    drift_vars = set().union(*map(collect_vars, p.coeffs.drift))
    if cfg.scheme == "picard":
        step = partial(_picard_interval, reads_sups=any(v.startswith("s") for v in drift_vars))
    elif drift_vars <= diffusion_variables(p.d):  # t, xd1..xdd
        step = _euler_interval
    else:
        step = _euler_steps
    lanes = np.arange(len(gs))  # the driver of each lane still running
    failures: dict = {}
    picard = [[] for _ in gs]
    with np.errstate(all="ignore"):  # a non-finite x ends as BlowUpError
        for i0 in range(n_r, grid.n_steps, n_r):
            if not lanes.size:
                break
            i1 = i0 + n_r
            sig_dg = _batched_diffusion_increments(p, times, x, dg, i0, i1, n_r)
            stats = step(p, cfg, times, grid.dt, x, y, z, sups, sig_dg, i0, i1)
            errors = _blow_ups(x[i0 + 1 : i1 + 1], i0 + 1, times, n_r)
            if stats is not None:  # Picard: a lane that did not blow up fails above tolerance
                iterations, residuals = stats
                for lane, n_iter, residual in zip(lanes, iterations, residuals):
                    picard[lane].append((int(n_iter), float(residual)))
                for j in np.flatnonzero(residuals > cfg.picard_tol):
                    errors.setdefault(int(j), PicardConvergenceError(
                        i0 // n_r - 1, float(residuals[j]), cfg.picard_max_iter))
            if errors:
                failures.update((int(lanes[j]), err) for j, err in errors.items())
                keep = np.ones(lanes.size, dtype=bool)
                keep[list(errors)] = False
                lanes = lanes[keep]
                x, y, z, sups, dg = (a[:, keep] for a in (x, y, z, sups, dg))
    kept = [picard[lane] for lane in lanes]
    return MonteCarloResult(grid, lanes.tolist(), x, y, z, [gs[lane] for lane in lanes],
                            [[n for n, _ in s] for s in kept], [[r for _, r in s] for s in kept],
                            dict(sorted(failures.items())))


def solve(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """Solve on the driver g one delay interval at a time: the one-lane
    case of the lane-batched solver, raising the lane's failure."""
    mc = _solve_lanes(p, [g], cfg)
    if mc.failures:
        raise mc.failures[0]
    return mc.solutions[0]


def solve_euler(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """``solve`` with scheme = euler, whatever cfg says."""
    return solve(p, g, replace(cfg, scheme="euler"))


def solve_picard(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """``solve`` with scheme = picard, whatever cfg says."""
    return solve(p, g, replace(cfg, scheme="picard"))


def solve_stochastic(p: Problem, cfg: SolverConfig, n_paths: int) -> MonteCarloResult:
    """Sample one fBm driver per path (streams keyed by (seed, path index))
    and solve the paths as lanes of one pass, in chunks of about
    _LANE_BYTES of solver state; one path's failure does not abort the
    others.  A ValueError is run-wide (the sampler's limits, or an initial
    segment the solver refuses): it ends the run."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if p.H is None:
        raise ValueError("problem carries no Hurst parameter for internal driver sampling")
    grid = driver_grid(p, cfg.steps_per_delay)
    # x, y, z, sups and the driver increments of one lane on [-r, T]
    lane_bytes = 8 * (grid.n_steps + cfg.steps_per_delay + 1) * (4 * p.d + p.m)
    chunk = max(1, _LANE_BYTES // lane_bytes)
    parts = [(first, _solve_lanes(p, [sample_circulant(grid, p.H, p.m, seed=(cfg.seed, i))
                                      for i in range(first, min(first + chunk, n_paths))], cfg))
             for first in range(0, n_paths, chunk)]
    if len(parts) == 1:
        return parts[0][1]
    # the chunks' lanes side by side, their paths numbered from each chunk's first
    return MonteCarloResult(
        parts[0][1].grid, [first + i for first, mc in parts for i in mc.paths],
        *(np.concatenate([getattr(mc, a) for _, mc in parts], axis=1) for a in "xyz"),
        *([v for _, mc in parts for v in getattr(mc, a)] for a in ("drivers", "iterations", "residuals")),
        {first + i: err for first, mc in parts for i, err in mc.failures.items()})


@dataclass
class ConvergenceTable:
    levels: list[int]
    errors: list[float]
    empirical_order: float | None


def _check_levels(levels: list[int]) -> None:
    """At least 3 strictly ascending levels, each dividing the finest, the
    coarsest a valid SolverConfig.steps_per_delay."""
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly ascending, got {list(levels)}")
    finest = levels[-1]
    for lvl in levels:
        if lvl < 1:
            raise ValueError(f"level {lvl} is not a positive number of steps per delay")
        if finest % lvl:
            raise ValueError(f"level {lvl} does not divide the finest level {finest}")
    SolverConfig(steps_per_delay=levels[0])  # the solver's minimum, before any sampling


def convergence_study(p: Problem, g_fine: SamplePath, levels: list[int],
                      cfg: SolverConfig) -> ConvergenceTable:
    """Self-convergence against the finest level on one shared driver.

    The driver (and the initial segment) must be sampled at the finest
    level; coarser levels subsample them, so every level sees the same
    realization.  The empirical order is the slope of log error against log
    step over the levels whose error is positive, None when fewer than two
    are.
    """
    _check_levels(levels)
    finest = levels[-1]
    if p.eta.grid.n_steps != finest:
        raise ValueError("initial segment must be sampled at the finest level")

    def run(n_r: int) -> ReflectedSolution:
        stride = finest // n_r
        eta = SamplePath(TimeGrid(-p.r, 0.0, n_r), p.eta.values[::stride])
        g = SamplePath(driver_grid(p, n_r), g_fine.values[::stride])
        p_lvl = replace(p, eta=eta)
        return solve(p_lvl, g, replace(cfg, steps_per_delay=n_r))

    ref = run(finest)
    errors = []
    for lvl in levels[:-1]:
        stride = finest // lvl
        sol = run(lvl)
        errors.append(float(np.max(np.abs(sol.x.values - ref.x.values[::stride]))))
    err = np.array(errors)
    fit = err > 0.0  # an exact level has no log error
    order = None
    if fit.sum() >= 2:
        steps = p.r / np.array(levels[:-1])
        order = float(np.polyfit(np.log(steps[fit]), np.log(err[fit]), 1)[0])
    return ConvergenceTable(levels=list(levels[:-1]), errors=errors, empirical_order=order)


def _lane_invariants(grid: TimeGrid, x, y, z) -> list[dict]:
    """check_invariants of every lane of x, y and z, arrays of shape
    (N + 1, P, d) on grid, [-r, T]: one array formula per flag, each lane's
    values bit-equal to its own check."""
    t0_idx = grid.index_of(0.0)
    x0, y0, z0 = x[t0_idx:], y[t0_idx:], z[t0_idx:]
    residual = _complementarity(x0, y0)
    bound = 10.0 * grid.dt * np.abs(x).max(axis=(0, 2)) * np.maximum(np.max(y[-1] - y[t0_idx], axis=-1), grid.dt)
    min_x = x.min(axis=(0, 2))
    flags = {
        "x_nonnegative": min_x >= -1e-12,
        "y_starts_at_zero": (y0[0] == 0.0).all(axis=-1),
        "y_nondecreasing": (np.diff(y0, axis=0) >= 0.0).all(axis=(0, 2)),
        "x_equals_z_plus_y": (x0 == z0 + y0).all(axis=(0, 2)),
        "regulator_consistent": (regulator_values(z0) == y0).all(axis=(0, 2)),
        "complementarity_residual": residual,
        "complementarity_ok": residual <= bound,
        "min_x": min_x,
    }
    return [dict(zip(flags, lane)) for lane in zip(*(v.tolist() for v in flags.values()))]


def check_invariants(sol: ReflectedSolution) -> dict:
    """Reflection invariants of a solution: the one-lane _lane_invariants."""
    return _lane_invariants(sol.grid, *(a.values[:, None] for a in (sol.x, sol.y, sol.z)))[0]
