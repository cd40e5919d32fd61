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

The coefficients are evaluated unchecked: a non-finite drift or
diffusion value makes z non-finite at its step (inf * dt is inf, inf - inf
and inf * 0 are nan, and nan stays nan), and x = z + y with it.  x can
also overflow where z stays finite, once y has taken up a large negative
z.  So each stepper scans x once and _blow_ups reports every lane at its
first non-finite row.  A lane that fails on an interval (a non-finite x,
or Picard out of iterations) is dropped at the interval's end with the
error a solve of that path alone raises; the other lanes' bytes do not
depend on it, since on the interval each path depends only on its own
driver.

``solve`` is the one-lane case and raises the lane's error;
``solve_euler`` and ``solve_picard`` are ``solve`` with the scheme forced.
``solve_stochastic`` samples one fBm driver per path and solves the paths
as lanes, in chunks of about _LANE_BYTES of solver state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
        if not self.picard_tol > 0.0:  # nan too
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


def _blow_ups(x_rows, i: int, times, n_r: int, lanes=None) -> dict:
    """A BlowUpError for each lane of x_rows (the rows of x from grid point
    i on, lanes on axis 1) that holds a non-finite value, at its first
    non-finite row and that row's first non-finite component; keyed by
    lanes[j] (or j)."""
    bad = ~np.isfinite(x_rows)
    errors = {}
    for j in np.flatnonzero(bad.any(axis=(0, 2))):
        k, c = np.argwhere(bad[:, j])[0]
        errors[int(j if lanes is None else lanes[j])] = BlowUpError(
            i + int(k) - n_r, float(times[i + k]), int(c) + 1)
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
    """Write z_new as the rows of z that end at i1, with the regulator
    continued from y[i0], x = z + y, and the running sups of |x| on [i0, i1]."""
    rows = slice(i1 + 1 - len(z_new), i1 + 1)
    z[rows] = z_new
    y[rows] = regulator_values(z_new, y[i0])
    x[rows] = z_new + y[rows]
    np.maximum.accumulate(np.maximum(sups[i0 - 1], np.abs(x[i0 : i1 + 1])), axis=0, out=sups[i0 : i1 + 1])


def _euler_steps(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int):
    """The Euler recursion on [i0, i1], one grid step at a time for all
    lanes; a lane that turns non-finite steps on in nan until the scan of
    the interval's x rows at its end."""
    n_r = cfg.steps_per_delay
    for k in range(i0, i1):
        b = eval_drift(p.coeffs, float(times[k]), x[k], x[k - n_r], sups[k])
        z[k + 1] = z[k] + b * dt + sig_dg[k - i0]
        # one step of regulator_values; calling it per step costs more than the step
        y[k + 1] = np.maximum(y[k], np.maximum(-z[k + 1], 0.0))
        x[k + 1] = z[k + 1] + y[k + 1]
        sups[k + 1] = np.maximum(sups[k], np.abs(x[k + 1]))
    return None, _blow_ups(x[i0 + 1 : i1 + 1], i0 + 1, times, n_r)


def _euler_interval(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int):
    """The Euler recursion on [i0, i1] for a drift that reads only t and the
    delayed state, which is already fixed there: one drift call and one
    cumulative sum for all lanes, with the step loop's rounding, so the
    first non-finite row of x is the step loop's."""
    n_r = cfg.steps_per_delay
    xd = x[i0 - n_r : i1 - n_r]
    b = eval_drift(p.coeffs, times[i0:i1], xd, xd, xd)  # x and s are not read
    # [z[i0], b_0 dt, sig_dg_0, b_1 dt, ...]: the even partial sums are
    # (z[k] + b_k dt) + sig_dg_k, added in the step loop's order
    terms = np.empty((2 * (i1 - i0) + 1,) + b.shape[1:])
    terms[0] = z[i0]
    terms[1::2] = b * dt
    terms[2::2] = sig_dg
    z_new = np.cumsum(terms, axis=0)[2::2]
    _close_interval(x, y, z, sups, z_new, i0, i1)
    return None, _blow_ups(x[i0 + 1 : i1 + 1], i0 + 1, times, n_r)


def _picard_interval(p: Problem, cfg: SolverConfig, times, dt: float, x, y, z, sups, sig_dg, i0: int, i1: int):
    """The fixed-point construction on [i0, i1]; returns each lane's
    iteration count and final residual, and the failed lanes.

    The map u -> z(i0) + drift integral + Young term + regulator is
    iterated to a sup-norm fixed point from the configured initial iterate,
    with one batched drift call per iteration over the lanes still
    iterating.  A lane is frozen at the first iterate within tolerance and
    dropped at the first with a non-finite x; the lanes still iterating
    after max_iter fail with PicardConvergenceError.
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
    failures: dict = {}
    # the lanes still iterating, and their slices of the fixed data
    live = np.arange(u.shape[1])
    xd, s0, z0, y0 = x[i0 - n_r : i0 + 1], sups[i0 - 1], z[i0], y[i0]
    for n_iter in range(1, cfg.picard_max_iter + 1):
        u_sups = np.maximum.accumulate(np.maximum(s0, np.abs(u)), axis=0)
        b = eval_drift(p.coeffs, t_int, u, xd, u_sups)
        drift_cum = np.zeros_like(u)
        np.cumsum(0.5 * dt * (b[:-1] + b[1:]), axis=0, out=drift_cum[1:])
        z_new = z0 + drift_cum + young
        u_new = z_new + regulator_values(z_new, y0)
        res = np.max(np.abs(u_new - u), axis=(0, 2))
        finite = np.isfinite(u_new).all(axis=(0, 2))  # u_new is x on this iterate
        going = finite & (res > cfg.picard_tol)  # a nan residual is not above tol
        if not going.all():
            if not finite.all():
                failures.update(_blow_ups(u_new[:, ~finite], i0, times, n_r, lanes=live[~finite]))
            stop = finite & ~going
            done = live[stop]
            z_int[:, done] = z_new[:, stop]
            iterations[done] = n_iter
            residuals[done] = res[stop]
            if not going.any():
                break
            live, res = live[going], res[going]
            u_new, xd, s0, z0, y0, young = (a[..., going, :] for a in (u_new, xd, s0, z0, y0, young))
        u = u_new
    else:
        failures.update({int(j): PicardConvergenceError(i0 // n_r - 1, float(r), cfg.picard_max_iter)
                         for j, r in zip(live, res)})
    # z_int covers [i0, i1]: rewriting row i0 keeps its bytes (z[i0] + 0.0 turns -0.0 into 0.0);
    # the columns of failed lanes are never set, and those lanes are dropped
    _close_interval(x, y, z, sups, z_int, i0, i1)
    return (iterations, residuals), failures


def _solve_lanes(p: Problem, gs: list[SamplePath], cfg: SolverConfig) -> tuple[list, dict]:
    """Solve on every driver of gs at once, one lane per driver, one delay
    interval at a time.

    Returns the solutions in driver order and a dict of failures: a lane
    that fails on an interval is dropped at the interval's end with the
    error its own solve raises (solutions[j] is None); the other lanes'
    bytes do not depend on which lanes share the pass.
    """
    grid, x, y, z, sups, dg = _start(p, gs, cfg)
    n_r = cfg.steps_per_delay
    times = grid.times
    if cfg.scheme == "picard":
        step = _picard_interval
    elif set().union(*map(collect_vars, p.coeffs.drift)) <= diffusion_variables(p.d):  # t, xd1..xdd
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
            sig_dg = _batched_diffusion_increments(p, times, x, dg, i0, i0 + n_r, n_r)
            stats, errors = step(p, cfg, times, grid.dt, x, y, z, sups, sig_dg, i0, i0 + n_r)
            if stats is not None:
                for lane, n_iter, residual in zip(lanes, *stats):
                    picard[lane].append((int(n_iter), float(residual)))
            if errors:
                failures.update((int(lanes[j]), err) for j, err in errors.items())
                keep = np.ones(lanes.size, dtype=bool)
                keep[list(errors)] = False
                lanes = lanes[keep]
                x, y, z, sups, dg = (a[:, keep] for a in (x, y, z, sups, dg))
    solutions: list = [None] * len(gs)
    for j, lane in enumerate(lanes):
        solutions[lane] = ReflectedSolution(
            x=SamplePath(grid, np.ascontiguousarray(x[:, j])),
            y=SamplePath(grid, np.ascontiguousarray(y[:, j])),
            z=SamplePath(grid, np.ascontiguousarray(z[:, j])),
            driver=gs[lane],
            iterations_per_interval=[n_iter for n_iter, _ in picard[lane]],
            final_residuals=[residual for _, residual in picard[lane]],
        )
    return solutions, failures


def solve(p: Problem, g: SamplePath, cfg: SolverConfig) -> ReflectedSolution:
    """Solve on the driver g one delay interval at a time: the one-lane
    case of the lane-batched solver, raising the lane's failure.

    On each interval the delayed state is already fixed, so the diffusion's
    left-point Young increments are computed first in one batch; then the
    interval stepper chosen once per solve advances x, y and z over it.
    """
    (sol,), failures = _solve_lanes(p, [g], cfg)
    if failures:
        raise failures[0]
    return sol


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
    and solve the paths as lanes of one pass, in chunks of about
    _LANE_BYTES of solver state; one path's failure does not abort the
    others."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if p.H is None:
        raise ValueError("problem carries no Hurst parameter for internal driver sampling")
    grid = driver_grid(p, cfg.steps_per_delay)
    # x, y, z, sups and the driver increments of one lane on [-r, T]
    lane_bytes = 8 * (grid.n_steps + cfg.steps_per_delay + 1) * (4 * p.d + p.m)
    chunk = max(1, _LANE_BYTES // lane_bytes)
    solutions: list = [None] * n_paths
    failures: dict = {}
    for first in range(0, n_paths, chunk):
        paths = range(first, min(first + chunk, n_paths))
        try:
            gs = [sample_circulant(grid, p.H, p.m, seed=(cfg.seed, i)) for i in paths]
            sols, errors = _solve_lanes(p, gs, cfg)
        except ValueError as exc:  # a check that every path fails alike
            failures.update(dict.fromkeys(paths, exc))
            continue
        solutions[first : first + len(sols)] = sols
        failures.update({first + j: err for j, err in errors.items()})
    return MonteCarloResult(solutions=solutions, failures=dict(sorted(failures.items())))


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
    residual = _complementarity(x[t0_idx:], y[t0_idx:])
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
