"""Batch front-end: config parsing, experiment orchestration, artifacts.

Config grammar (INI-style, strict):

    [problem]
    hurst = 0.75            ; optional unless paths are sampled internally
    delay = 1.0
    horizon = 3.0           ; integer multiple of delay
    dim = 1
    noise_dim = 1
    eta = t + 1             ; expression in t (one per component, ';'-separated)
    drift = xd1             ; d expressions, ';'-separated
    diffusion = a * xd1 + b ; d rows ';'-separated, m entries ','-separated
    params = a = 0.2, b = 0.1   ; optional named constants

    [solver]
    scheme = euler          ; euler | picard
    steps_per_delay = 256
    picard_tol = 1e-10      ; optional
    picard_max_iter = 100   ; optional
    initial_iterate = constant  ; optional, constant | linear

    [mc]
    paths = 4
    seed = 0

    [output]
    directory = out
    formats = csv, json     ; optional, default both

Unknown sections or keys fail fast with their file location.  The
REFSDE_OUTPUT_DIR environment variable overrides the configured output
directory; a --out flag overrides both.

Exit codes: 0 ok, 1 error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coeff import (
    CoefficientSet,
    ExprSyntaxError,
    eval_expr,
    hypothesis_audit,
    parse_expr,
)
from .fbm import sample_cholesky, sample_circulant
from .fracnorm import norm_report, norm_reports
from .grids import SamplePath, TimeGrid
from .skorokhod import reflect
from .solver import (
    BlowUpError,
    PicardConvergenceError,
    Problem,
    SolverConfig,
    _check_levels,
    check_invariants,
    convergence_study,
    driver_grid,
    solve_stochastic,
)

__all__ = ["RunConfig", "load_config", "main"]

OUTPUT_DIR_ENV = "REFSDE_OUTPUT_DIR"
FLOAT_FMT = "%.17g"
# Cells per %-format call of the CSV writer: the formatted text of a file
# is built in row blocks of about this many cells.
_CSV_CELLS = 1 << 16

_REQUIRED_KEYS = {
    "problem": {"delay", "horizon", "dim", "noise_dim", "eta", "drift", "diffusion"},
    "solver": {"scheme", "steps_per_delay"},
    "mc": {"paths", "seed"},
    "output": {"directory"},
}
_OPTIONAL_KEYS = {
    "problem": {"hurst", "params"},
    "solver": {"picard_tol", "picard_max_iter", "initial_iterate"},
    "mc": set(),
    "output": {"formats"},
}


class ConfigError(ValueError):
    """Config parse/validation failure with a file location."""


@dataclass
class RunConfig:
    problem: Problem
    solver: SolverConfig
    paths: int
    directory: str
    formats: tuple
    echo: dict  # raw key/value echo for the manifest


def _key_lines(path: Path) -> dict:
    """Map (section, key) -> 1-based line number, for error reporting."""
    lines = {}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            lines[(section, None)] = lineno
        elif "=" in line and section is not None:
            key = line.split("=", 1)[0].strip().lower()
            lines.setdefault((section, key), lineno)
    return lines


def _loc(path: Path, lines: dict, section: str, key: str | None) -> str:
    lineno = lines.get((section, key)) or lines.get((section, None))
    where = f"{path}:{lineno}" if lineno else str(path)
    dotted = f"{section}.{key}" if key else section
    return f"{dotted} ({where})"


def _parse_params(raw: str) -> dict:
    params = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"parameter entry {chunk!r} is not name = value")
        name, value = chunk.split("=", 1)
        params[name.strip()] = float(value)
    return params


def _eta_values(exprs: list, params: dict, grid: TimeGrid, d: int) -> np.ndarray:
    times = grid.times
    cols = [np.broadcast_to(eval_expr(node, {"t": times}, params), times.shape)
            for node in exprs]
    return np.column_stack(cols * d if len(cols) == 1 else cols)


def load_config(path: str | Path, steps_per_delay: int | None = None) -> RunConfig:
    """Parse and validate a run config.

    steps_per_delay, when given, overrides the solver section value (the
    initial segment is resampled accordingly); used by the convergence
    command to rebuild the problem at the finest level.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    lines = _key_lines(path)

    for section in cp.sections():
        if section not in _REQUIRED_KEYS:
            raise ConfigError(f"unknown section {_loc(path, lines, section, None)}")
        for key in cp[section]:
            if key not in _REQUIRED_KEYS[section] | _OPTIONAL_KEYS[section]:
                raise ConfigError(f"unknown key {_loc(path, lines, section, key)}")
    for section, required in _REQUIRED_KEYS.items():
        if section not in cp:
            raise ConfigError(f"missing section [{section}] in {path}")
        missing = required - set(cp[section])
        if missing:
            raise ConfigError(
                f"missing key {section}.{sorted(missing)[0]} in {path}"
            )

    def get(section, key, cast, default=None):
        if key not in cp[section]:
            return default
        raw = cp[section][key]
        try:
            return cast(raw)
        except (ValueError, ExprSyntaxError) as exc:
            raise ConfigError(
                f"bad value for {_loc(path, lines, section, key)}: {exc}"
            ) from exc

    d = get("problem", "dim", int)
    m = get("problem", "noise_dim", int)
    params = get("problem", "params", _parse_params, {})
    delay = get("problem", "delay", float)
    horizon = get("problem", "horizon", float)
    hurst = get("problem", "hurst", float)
    n_r = steps_per_delay or get("solver", "steps_per_delay", int)

    def split_exprs(raw):
        return [s.strip() for s in raw.split(";") if s.strip()]

    drift_src = get("problem", "drift", split_exprs)
    diffusion_src = get("problem", "diffusion",
                        lambda raw: [[e.strip() for e in row.split(",")]
                                     for row in raw.split(";") if row.strip()])
    eta_src = get("problem", "eta", split_exprs)
    if len(drift_src) != d:
        raise ConfigError(f"{_loc(path, lines, 'problem', 'drift')}: expected {d} expressions")
    if len(diffusion_src) != d or any(len(row) != m for row in diffusion_src):
        raise ConfigError(f"{_loc(path, lines, 'problem', 'diffusion')}: expected a {d}x{m} matrix")
    if len(eta_src) not in (1, d):
        raise ConfigError(f"{_loc(path, lines, 'problem', 'eta')}: expected 1 or {d} expressions")

    try:
        coeffs = CoefficientSet.from_strings(drift_src, diffusion_src, params=params)
        eta_exprs = [parse_expr(s, params, d, variables={"t"}) for s in eta_src]
        eta_grid = TimeGrid(-delay, 0.0, n_r)
        eta = SamplePath(eta_grid, _eta_values(eta_exprs, params, eta_grid, d))
        problem = Problem(eta=eta, coeffs=coeffs, r=delay, T=horizon, H=hurst)
        solver = SolverConfig(
            steps_per_delay=n_r,
            seed=get("mc", "seed", int),
            # the [solver] keys present, cast to the type of SolverConfig's
            # default, which fills in every key left out
            **{key: get("solver", key, type(getattr(SolverConfig, key)))
               for key in cp["solver"] if key != "steps_per_delay"},
        )
    except (ValueError, ExprSyntaxError) as exc:
        raise ConfigError(f"invalid configuration in {path}: {exc}") from exc

    formats = tuple(
        f.strip() for f in cp["output"].get("formats", "csv, json").split(",") if f.strip()
    )
    bad = set(formats) - {"csv", "json"}
    if bad:
        raise ConfigError(f"{_loc(path, lines, 'output', 'formats')}: unknown formats {sorted(bad)}")

    echo = {s: dict(cp[s]) for s in cp.sections()}
    return RunConfig(
        problem=problem,
        solver=solver,
        paths=get("mc", "paths", int),
        directory=cp["output"]["directory"],
        formats=formats,
        echo=echo,
    )


# --- artifact writers -----------------------------------------------------

def _resolve_outdir(cfg_dir: str, flag_out: str | None) -> Path:
    out = flag_out or os.environ.get(OUTPUT_DIR_ENV) or cfg_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csvs(paths: list, header: list, t: np.ndarray, lanes: list) -> None:
    """Write one CSV per lane: the t column, which every file shares and
    which is formatted once, then the columns of lanes[j], an (n + 1, k)
    array, to paths[j].  The bytes are those of np.savetxt with FLOAT_FMT
    and "," as the delimiter: each row block is one %-format of its cells.
    """
    t_cells = [FLOAT_FMT % v for v in t.tolist()]
    head = ",".join(header) + "\n"
    for path, values in zip(paths, lanes):
        k = values.shape[1]
        row = "%s," + ",".join([FLOAT_FMT] * k) + "\n"
        step = max(1, _CSV_CELLS // (k + 1))
        with open(path, "w", newline="") as fh:
            fh.write(head)
            for first in range(0, len(t_cells), step):
                block = values[first : first + step]
                cells = [None] * (len(block) * (k + 1))
                cells[:: k + 1] = t_cells[first : first + step]
                for c in range(k):
                    cells[c + 1 :: k + 1] = block[:, c].tolist()
                fh.write(row * len(block) % tuple(cells))


def _write_csv(path: Path, header: list, columns: list) -> None:
    """One CSV of the columns, t first: the one-lane _write_csvs."""
    data = np.column_stack(columns)
    _write_csvs([path], header, data[:, 0], [data[:, 1:]])


def _solution_csvs(paths: list, sols: list) -> None:
    """t, then the x, y and z columns of each solver or Skorokhod solution
    of one grid."""
    d = sols[0].x.dim
    header = ["t"] + [f"{name}_{i + 1}" for name in "xyz" for i in range(d)]
    lanes = [np.column_stack([sol.x.values, sol.y.values, sol.z.values]) for sol in sols]
    _write_csvs(paths, header, sols[0].x.times, lanes)


def _raise_bad_cell(path: Path, text: str) -> None:
    """Raise ValueError naming the first data line of a CSV whose cell
    count is not its header's, or the first cell that is not a finite
    number, by its 1-based line and its column header; return if there is
    none."""
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if line.strip())
    header = [name.strip() for name in lines[header_at].split(",")]
    for lineno, line in enumerate(lines[header_at + 1 :], start=header_at + 2):
        line = line.split("#", 1)[0]  # a comment, as np.loadtxt reads it
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {lineno}: {len(cells)} cells, the header has {len(header)}")
        for name, cell in zip(header, cells):
            where = f"{path}, line {lineno}, column {name}: {cell.strip()!r}"
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{where} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"{where} is not finite")


def _read_path_csv(path: Path) -> SamplePath:
    text = path.read_text()
    if not text.strip():
        raise ValueError(f"{path} is empty")
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if line.strip())
    names = [name.strip() for name in lines[header_at].split(",")]
    body = lines[header_at + 1 :]
    if not any(line.strip() for line in body):  # loadtxt would warn, then return no rows
        raise ValueError(f"{path} needs at least two data rows, got 0")
    try:
        data = np.loadtxt(body, delimiter=",", ndmin=2)
    except ValueError:
        _raise_bad_cell(path, text)  # a cell that is not a number, or a row of another width
        raise
    if len(data) < 2:
        raise ValueError(f"{path} needs at least two data rows, got {len(data)}")
    if names[0] != "t":
        raise ValueError(f"first column of {path} must be t, got {names[0]}")
    if len(names) < 2:
        raise ValueError(f"{path} has no value column after t")
    if data.shape[1] != len(names) or not np.isfinite(data).all():
        # rows narrower or wider than the header, or nan, inf or an overflow such as 1e400
        _raise_bad_cell(path, text)
    times, values = data[:, 0], data[:, 1:]
    n = len(times) - 1
    grid = TimeGrid(float(times[0]), float(times[-1]), n)
    if not np.allclose(times, grid.times, atol=1e-9 * max(1.0, abs(grid.t1))):
        raise ValueError(f"{path} is not sampled on a uniform grid")
    return SamplePath(grid, values)


def _failure_record(exc: Exception) -> dict:
    """A path's failure for the manifest: its type and message, plus the
    step and time of a blow-up or the interval and last residual of a
    Picard iteration that did not converge."""
    record = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, BlowUpError):
        record.update(step=exc.step, t=exc.t)
    elif isinstance(exc, PicardConvergenceError):
        record.update(interval=exc.interval, residual=exc.residual)
    return record


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, default=_json_default,
                               sort_keys=True) + "\n")


def _report(payload: dict, out: str | None) -> int:
    """Write payload as JSON to out when given, then print it."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, payload)
    print(json.dumps(payload, default=_json_default))
    return 0


# --- subcommands ----------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    paths = args.paths if args.paths is not None else cfg.paths
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, seed=args.seed))
    if cfg.problem.H is None:
        raise ConfigError("problem.hurst is required to sample drivers")
    outdir = _resolve_outdir(cfg.directory, args.out)

    mc = solve_stochastic(cfg.problem, cfg.solver, paths)
    h = cfg.problem.H
    alpha = 0.5 * ((1.0 - h) + 0.5)  # midpoint of the admissible (1-H, 1/2)
    manifest = {
        "config": cfg.echo,
        "paths": paths,
        "seeds": [[cfg.solver.seed, i] for i in range(paths)],
        "alpha": alpha,
        "runs": [],
        "failures": {str(i): _failure_record(e) for i, e in mc.failures.items()},
    }
    done = [i for i, sol in enumerate(mc.solutions) if sol is not None]
    sols = [mc.solutions[i] for i in done]
    d = cfg.problem.d
    # every component of every path, as lanes of one norm sweep
    reports = norm_reports([sol.x.component(c) for sol in sols for c in range(d)], alpha)
    violated = False
    for j, (i, sol) in enumerate(zip(done, sols)):
        inv = check_invariants(sol)
        flags = [k for k, v in inv.items()
                 if isinstance(v, bool) and not v and k != "complementarity_ok"]
        violated = violated or bool(flags)
        entry = {"path": i, "invariants": inv}
        for comp in range(d):
            entry[f"norms_x_{comp + 1}"] = reports[j * d + comp].to_dict()
        if cfg.solver.scheme == "picard":
            entry["picard_iterations"] = sol.iterations_per_interval
            entry["picard_residuals"] = sol.final_residuals
        manifest["runs"].append(entry)
    if "csv" in cfg.formats and sols:
        _solution_csvs([outdir / f"path_{i:04d}.csv" for i in done], sols)
    if "json" in cfg.formats:
        _write_json(outdir / "manifest.json", manifest)
    if mc.failures:
        print(f"{len(mc.failures)} of {paths} paths failed; see manifest", file=sys.stderr)
        return 1
    if violated:
        print("invariant violation; see manifest", file=sys.stderr)
        return 2
    print(f"wrote {mc.n_ok} path(s) to {outdir}")
    return 0


def cmd_fbm(args) -> int:
    half_ok = args.allow_h_half and args.hurst == 0.5
    if not (0.5 < args.hurst < 1.0) and not half_ok:
        raise ValueError(
            "--hurst must lie in (0.5, 1); pass --allow-h-half to test at exactly 1/2"
        )
    grid = TimeGrid(0.0, args.horizon, args.steps)
    if args.method == "cholesky":
        path = sample_cholesky(grid, args.hurst, args.paths, seed=args.seed)
    else:
        path = sample_circulant(grid, args.hurst, args.paths, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["t"] + [f"w_{i + 1}" for i in range(args.paths)]
    _write_csv(out, header, [grid.times, path.values])
    print(f"wrote {args.paths} driver path(s) to {out}")
    return 0


def cmd_skorokhod(args) -> int:
    z = _read_path_csv(Path(args.input))
    sol = reflect(z)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _solution_csvs([out], [sol])
    print(f"wrote reflected path to {out}")
    return 0


def cmd_converge(args) -> int:
    levels = [int(v) for v in args.levels.split(",")]
    _check_levels(levels)  # before the finest driver is sampled
    finest = levels[-1]
    cfg = load_config(args.config, steps_per_delay=finest)
    if cfg.problem.H is None:
        raise ConfigError("problem.hurst is required to sample the shared driver")
    p = cfg.problem
    g_fine = sample_circulant(driver_grid(p, finest), p.H, p.m, seed=cfg.solver.seed)
    table = convergence_study(p, g_fine, levels, cfg.solver)
    payload = {
        "levels": table.levels,
        "errors": table.errors,
        "empirical_order": table.empirical_order,
        "finest": finest,
        "seed": cfg.solver.seed,
    }
    return _report(payload, args.out)


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    d = cfg.problem.d
    box = ([args.box_lo] * d, [args.box_hi] * d)
    report = hypothesis_audit(cfg.problem.coeffs, box,
                              n_samples=args.samples, seed=cfg.solver.seed,
                              delay=cfg.problem.r)
    payload = dataclasses.asdict(report)
    return _report(payload, args.out)


def cmd_norms(args) -> int:
    f = _read_path_csv(Path(args.input))
    reports = {
        f"component_{i + 1}": norm_report(f.component(i), args.alpha,
                                          lambda_weight=getattr(args, "lambda")).to_dict()
        for i in range(f.dim)
    }
    return _report(reports, args.out)


# --- entry point ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refsde",
        description="Simulate reflected delay equations driven by fractional noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured Monte Carlo simulation")
    p.add_argument("config")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fbm", help="emit fractional Brownian driver paths as CSV")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("cholesky", "circulant"), default="circulant")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--allow-h-half", action="store_true",
                   help="accept H = 1/2 (testing only)")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(fn=cmd_fbm)

    p = sub.add_parser("skorokhod", help="reflect a free path from CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(fn=cmd_skorokhod)

    p = sub.add_parser("converge", help="self-convergence study on one shared driver")
    p.add_argument("config")
    p.add_argument("--levels", required=True, help="comma-separated steps per delay")
    p.add_argument("--out", default=None, help="JSON file to write")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("audit", help="sample-based estimates of coefficient regularity")
    p.add_argument("config")
    p.add_argument("--box-lo", type=float, default=0.0)
    p.add_argument("--box-hi", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", default=None, help="JSON file to write")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("norms", help="fractional norm battery of a CSV path")
    p.add_argument("input")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", type=float, default=0.0)
    p.add_argument("--out", default=None, help="JSON file to write")
    p.set_defaults(fn=cmd_norms)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, BlowUpError, PicardConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
