"""Pathwise solvers for the reflected delay equation.

``solve`` builds the solution one delay interval at a time, the
construction the paper follows: on [nr, (n+1)r] the delayed state is
already fixed, so the diffusion's left-point Young increments are computed
once in a batch, and one interval stepper, chosen once per solve, advances
x, y and z over the interval:

* ``_picard_interval`` (scheme = picard) iterates the drift + reflection
  map to a sup-norm fixed point and records its iterations and residual;
* ``_euler_interval`` (scheme = euler, a drift that reads only t and the
  delayed state xd1..xdd) takes the whole interval with array operations
  (the method of steps), byte for byte the step loop's x, y and z;
* ``_euler_steps`` (scheme = euler, any other drift) is the explicit
  forward recursion with the regulator applied each step, so the drift's
  x and s arguments always see reflected values.

``solve_euler`` and ``solve_picard`` are ``solve`` with the scheme forced;
``solve_stochastic`` runs ``solve`` with independent fBm drivers per path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .coeff import CoefficientSet, collect_vars, diffusion_variables, eval_diffusion, eval_drift
from .fbm import sample_circulant, _hurst_value
from .grids import SamplePath, TimeGrid
from .skorokhod import regulator_values
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


class BlowUpError(RuntimeError):
    """Non-finite state during time stepping; carries the step index."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t={t})")
        self.step = step


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
        if self.picard_tol <= 0.0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be positive")
        if self.initial_iterate not in ("constant", "linear"):
            raise ValueError(f"unknown initial iterate {self.initial_iterate!r}")


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
    vals = np.array([np.broadcast_to(fn(float(t)), (d,)) for t in grid.times], dtype=float)
    return SamplePath(grid, vals)


def driver_grid(p: Problem, n_r: int) -> TimeGrid:
    return TimeGrid(0.0, p.T, p.n_intervals * n_r)


def _start(p: Problem, g: SamplePath, cfg: SolverConfig):
    """Check the initial segment and the driver against the problem, then
    return the grid on [-r, T], the arrays x, y, z and running sups of |x|
    filled on [-r, 0] from the initial segment, and the driver increments."""
    n_r = cfg.steps_per_delay
    if p.eta.grid.n_steps != n_r:
        raise ValueError(
            f"initial segment is sampled at {p.eta.grid.n_steps} steps per delay, config wants {n_r}"
        )
    want = driver_grid(p, n_r)
    got = g.grid
    if got.n_steps != want.n_steps or abs(got.t0) > 1e-12 or abs(got.t1 - want.t1) > 1e-9:
        raise ValueError(f"driver grid {got} does not match problem grid {want}")
    if g.dim != p.m:
        raise ValueError(f"driver has {g.dim} columns, problem expects {p.m}")
    grid = TimeGrid(-p.r, p.T, (p.n_intervals + 1) * n_r)
    x = np.zeros((grid.n_steps + 1, p.d))
    x[: n_r + 1] = p.eta.values
    z = x.copy()
    y = np.zeros_like(x)
    sups = np.empty_like(x)
    np.maximum.accumulate(np.abs(p.eta.values), axis=0, out=sups[: n_r + 1])
    return grid, x, y, z, sups, np.diff(g.values, axis=0)


def _batched_diffusion_increments(p: Problem, times, x, dg, i0: int, i1: int, n_r: int) -> np.ndarray:
    """Left-point diffusion increments sigma(t_j, x(t_j - r)) dg_j on [i0, i1).

    The delayed argument lies in the already-fixed part of the path, so
    the whole interval is evaluated in one batch.
    """
    idx = np.arange(i0, i1)
    sig = eval_diffusion(p.coeffs, times[idx], x[idx - n_r])  # (K, d, m)
    return _cell_products(sig, dg[idx - n_r])


def _close_interval(x, y, z, sups, z_new, i0: int, i1: int) -> None:
    """Write z_new as the rows of z that end at i1, with the regulator
    continued from y[i0], x = z + y, and the running sups of |x| on [i0, i1]."""
    rows = slice(i1 + 1 - len(z_new), i1 + 1)
    z[rows] = z_new
    y[rows] = regulator_values(z_new, y[i0])
    x[rows] = z_new + y[rows]
    np.maximum.accumulate(np.maximum(sups[i0 - 1], np.abs(x[i0 : i1 + 1])), axis=0, out=sups[i0 : i1 + 1])


def _euler_steps(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int) -> None:
    """The Euler recursion on [i0, i1], one grid step at a time."""
    n_r = cfg.steps_per_delay
    for k in range(i0, i1):
        b = eval_drift(p.coeffs, float(times[k]), x[k], x[k - n_r], sups[k])
        z[k + 1] = z[k] + b * dt + sig_dg[k - i0]
        if np.count_nonzero(np.isfinite(z[k + 1])) < p.d:
            raise BlowUpError(k + 1 - n_r, float(times[k + 1]))
        # one step of regulator_values; calling it per step costs more than the step
        y[k + 1] = np.maximum(y[k], np.maximum(-z[k + 1], 0.0))
        x[k + 1] = z[k + 1] + y[k + 1]
        sups[k + 1] = np.maximum(sups[k], np.abs(x[k + 1]))


def _euler_interval(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int) -> None:
    """The Euler recursion on [i0, i1] for a drift that reads only t and the
    delayed state, which is already fixed there: one drift call and one
    cumulative sum, with the step loop's rounding."""
    n_r = cfg.steps_per_delay
    xd = x[i0 - n_r : i1 - n_r]
    try:
        b = eval_drift(p.coeffs, times[i0:i1], xd, xd, xd)  # x and s are not read
    except ValueError:
        # a non-finite drift row; an earlier step may blow up first, so the
        # step loop raises whichever failure comes first in step order
        _euler_steps(p, cfg, times, dt, x, y, z, sups, sig_dg, i0, i1)
        return
    # [z[i0], b_0 dt, sig_dg_0, b_1 dt, ...]: the even partial sums are
    # (z[k] + b_k dt) + sig_dg_k, added in the step loop's order
    terms = np.empty((2 * (i1 - i0) + 1, p.d))
    terms[0] = z[i0]
    terms[1::2] = b * dt
    terms[2::2] = sig_dg
    z_new = np.cumsum(terms, axis=0)[2::2]
    finite = np.isfinite(z_new).all(axis=1)
    if not finite.all():
        k = i0 + int(np.argmin(finite))  # the first step whose z[k + 1] is not finite
        raise BlowUpError(k + 1 - n_r, float(times[k + 1]))
    _close_interval(x, y, z, sups, z_new, i0, i1)


def _picard_interval(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg,
                     i0: int, i1: int) -> tuple[int, float]:
    """The fixed-point construction on [i0, i1]; returns the iteration count
    and the final residual.

    The map u -> z(i0) + drift integral + Young term + regulator is
    iterated to a sup-norm fixed point from the configured initial iterate,
    with one batched drift call per iteration.
    """
    n_r = cfg.steps_per_delay
    young_cum = np.zeros((n_r + 1, p.d))
    np.cumsum(sig_dg, axis=0, out=young_cum[1:])
    t_int = times[i0 : i1 + 1]
    x_delayed = x[i0 - n_r : i0 + 1]

    if cfg.initial_iterate == "constant":
        u = np.tile(x[i0], (n_r + 1, 1))
    else:  # the last step's slope, continued and kept non-negative
        slope = (x[i0] - x[i0 - 1]) / dt
        u = np.maximum(x[i0] + slope * (np.arange(n_r + 1) * dt)[:, None], 0.0)
    u[0] = x[i0]
    for n_iter in range(1, cfg.picard_max_iter + 1):
        u_sups = np.maximum.accumulate(np.maximum(sups[i0 - 1], np.abs(u)), axis=0)
        b = eval_drift(p.coeffs, t_int, u, x_delayed, u_sups)
        drift_cum = np.zeros((n_r + 1, p.d))
        np.cumsum(0.5 * dt * (b[:-1] + b[1:]), axis=0, out=drift_cum[1:])
        z_int = z[i0] + drift_cum + young_cum
        if not np.all(np.isfinite(z_int)):
            raise BlowUpError(i1 - n_r, float(times[i1]))
        u_new = z_int + regulator_values(z_int, y[i0])
        residual = float(np.max(np.abs(u_new - u)))
        u = u_new
        if residual <= cfg.picard_tol:
            break
    else:
        raise PicardConvergenceError(i0 // n_r - 1, residual, cfg.picard_max_iter)
    # z_int covers [i0, i1]: rewriting row i0 keeps its bytes (z[i0] + 0.0 turns -0.0 into 0.0)
    _close_interval(x, y, z, sups, z_int, i0, i1)
    return n_iter, residual


def solve(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """Solve on the driver g one delay interval at a time.

    On each interval the delayed state is already fixed, so the diffusion's
    left-point Young increments are computed first in one batch; then the
    interval stepper chosen once per solve advances x, y and z over it.
    """
    grid, x, y, z, sups, dg = _start(p, g, cfg)
    n_r = cfg.steps_per_delay
    times = grid.times
    if cfg.scheme == "picard":
        step = _picard_interval
    elif set().union(*map(collect_vars, p.coeffs.drift)) <= diffusion_variables(p.d):  # t, xd1..xdd
        step = _euler_interval
    else:
        step = _euler_steps
    picard = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as BlowUpError
        for i0 in range(n_r, grid.n_steps, n_r):
            i1 = i0 + n_r
            sig_dg = _batched_diffusion_increments(p, times, x, dg, i0, i1, n_r)
            stats = step(p, cfg, times, grid.dt, x, y, z, sups, sig_dg, i0, i1)
            if stats is not None:
                picard.append(stats)
    return ReflectedSolution(
        x=SamplePath(grid, x),
        y=SamplePath(grid, y),
        z=SamplePath(grid, z),
        driver=g,
        iterations_per_interval=[n_iter for n_iter, _ in picard],
        final_residuals=[residual for _, residual in picard],
    )


def solve_euler(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """``solve`` with scheme = euler, whatever cfg says."""
    return solve(p, g, replace(cfg, scheme="euler"))


def solve_picard(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """``solve`` with scheme = picard, whatever cfg says."""
    return solve(p, g, replace(cfg, scheme="picard"))


@dataclass
class MonteCarloResult:
    """Per-path solutions (index order) and collected per-path failures."""

    solutions: list
    failures: dict

    @property
    def n_ok(self) -> int:
        return sum(s is not None for s in self.solutions)


def solve_stochastic(p: Problem, cfg: SolverConfig, n_paths: int) -> MonteCarloResult:
    """Sample one fBm driver per path (streams keyed by (seed, path index))
    and solve pathwise; one path's failure does not abort the others."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if p.H is None:
        raise ValueError("problem carries no Hurst parameter for internal driver sampling")
    grid = driver_grid(p, cfg.steps_per_delay)
    solutions: list = [None] * n_paths
    failures: dict = {}
    for i in range(n_paths):
        try:
            g = sample_circulant(grid, p.H, p.m, seed=(cfg.seed, i))
            solutions[i] = solve(p, g, cfg)
        except (BlowUpError, PicardConvergenceError, ValueError) as exc:  # reported per path
            failures[i] = exc
    return MonteCarloResult(solutions=solutions, failures=failures)


@dataclass
class ConvergenceTable:
    levels: list[int]
    errors: list[float]
    empirical_order: float


def _check_levels(levels: list[int]) -> None:
    """At least 3 ascending positive levels, each dividing the finest."""
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    if sorted(levels) != list(levels):
        raise ValueError("levels must be ascending")
    finest = levels[-1]
    for lvl in levels:
        if lvl < 1:
            raise ValueError(f"level {lvl} is not a positive number of steps per delay")
        if finest % lvl:
            raise ValueError(f"level {lvl} does not divide the finest level {finest}")


def convergence_study(p: Problem, g_fine: SamplePath, levels: list[int],
                      cfg: SolverConfig) -> ConvergenceTable:
    """Self-convergence against the finest level on one shared driver.

    The driver (and the initial segment) must be sampled at the finest
    level; coarser levels subsample them, so every level sees the same
    realization.
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
    slope = np.polyfit(np.log([p.r / lvl for lvl in levels[:-1]]), np.log(errors), 1)[0]
    return ConvergenceTable(levels=list(levels[:-1]), errors=errors, empirical_order=float(slope))


def check_invariants(sol: ReflectedSolution) -> dict:
    """Reflection invariants of a solution; used by tests and the CLI manifest."""
    grid = sol.grid
    t0_idx = grid.index_of(0.0)
    x = sol.x.values
    y = sol.y.values
    z = sol.z.values
    dy = np.diff(y[t0_idx:], axis=0)
    regul = regulator_values(z[t0_idx:])
    residual = float(np.max((x[t0_idx:-1] * dy).sum(axis=0), initial=0.0))
    total_increase = float(np.max(y[-1] - y[t0_idx]))
    bound = 10.0 * grid.dt * float(np.abs(x).max()) * max(total_increase, grid.dt)
    return {
        "x_nonnegative": bool(x.min() >= -1e-12),
        "y_starts_at_zero": bool(np.all(y[t0_idx] == 0.0)),
        "y_nondecreasing": bool(np.all(dy >= 0.0)),
        "x_equals_z_plus_y": bool(np.array_equal(x[t0_idx:], z[t0_idx:] + y[t0_idx:])),
        "regulator_consistent": bool(np.array_equal(regul, y[t0_idx:])),
        "complementarity_residual": residual,
        "complementarity_ok": bool(residual <= bound),
        "min_x": float(x.min()),
    }
