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
    _param_dict,
    diffusion_variables,
    eval_expr,
    hypothesis_audit,
    parse_expr,
)
from .fbm import _hurst_value, sample_cholesky, sample_circulant
from .fracnorm import norm_report, norm_reports  # noqa: F401  norm_report: the traced layer name
from .grids import SamplePath, TimeGrid
from .skorokhod import reflect
from .solver import (
    BlowUpError,
    PicardConvergenceError,
    Problem,
    SolverConfig,
    _check_levels,
    _lane_invariants,
    check_invariants,  # noqa: F401  the traced layer name
    convergence_study,
    driver_grid,
    solve_stochastic,
)

__all__ = ["RunConfig", "load_config", "main"]

OUTPUT_DIR_ENV = "REFSDE_OUTPUT_DIR"
FLOAT_FMT = "%.17g"
# Cells per row block of the CSV writer: a file is written a block at a
# time, and a block's new distinct values are formatted in one %-format
# call.  Each distinct value's text is a str of its own, and the first
# file's are kept for the later files.
_CSV_CELLS = 1 << 14

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


def _parse_params(raw: str, d: int) -> dict:
    """The name = value entries as a dict; a repeated name or a variable's is a ValueError."""
    pairs = []
    for chunk in filter(None, map(str.strip, raw.split(","))):
        if "=" not in chunk:
            raise ValueError(f"parameter entry {chunk!r} is not name = value")
        name, value = chunk.split("=", 1)
        pairs.append((name.strip(), float(value)))
    return _param_dict(pairs, d)


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
        except ValueError as exc:  # ExprSyntaxError among them
            raise ConfigError(
                f"bad value for {_loc(path, lines, section, key)}: {exc}"
            ) from exc

    d = get("problem", "dim", int)
    m = get("problem", "noise_dim", int)
    params = get("problem", "params", lambda raw: _parse_params(raw, d), {})
    delay = get("problem", "delay", float)
    horizon = get("problem", "horizon", float)
    hurst = get("problem", "hurst", float)
    n_r = steps_per_delay or get("solver", "steps_per_delay", int)

    def parsed(exprs, variables=None):
        return [parse_expr(s.strip(), params, d, variables) for s in exprs]

    drift = get("problem", "drift", lambda raw: parsed(filter(str.strip, raw.split(";"))))
    diffusion = get("problem", "diffusion", lambda raw: [parsed(row.split(","), diffusion_variables(d))
                                                         for row in raw.split(";") if row.strip()])
    eta_exprs = get("problem", "eta", lambda raw: parsed(filter(str.strip, raw.split(";")), {"t"}))
    if len(drift) != d:
        raise ConfigError(f"{_loc(path, lines, 'problem', 'drift')}: expected {d} expressions")
    if len(diffusion) != d or any(len(row) != m for row in diffusion):
        raise ConfigError(f"{_loc(path, lines, 'problem', 'diffusion')}: expected a {d}x{m} matrix")
    if len(eta_exprs) not in (1, d):
        raise ConfigError(f"{_loc(path, lines, 'problem', 'eta')}: expected 1 or {d} expressions")

    try:
        coeffs = CoefficientSet(d, m, tuple(drift), tuple(map(tuple, diffusion)), params)
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
    except ValueError as exc:
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


def _format_values(values: list) -> list:
    """The FLOAT_FMT text of each of the values, by one %-format; the
    writer passes at most a block's cells."""
    return ((FLOAT_FMT + ",") * len(values) % tuple(values)).split(",")[:-1]


def _write_csvs(paths: list, header: list, t: np.ndarray, columns: list) -> None:
    """Write one CSV per lane to paths[j]: header (t's name and k column
    names), then t and lane j's columns of the arrays columns, each of shape
    (n + 1, P, c), side by side; the bytes of np.savetxt with FLOAT_FMT.

    A block of at most _CSV_CELLS cells holds a group of whole files if a
    file fits it, else rows of one file.  Only new values are formatted: t
    once, then each block's distinct bits (so -0.0 is not 0.0) less those
    whose text the first group's same row block holds, kept while a later
    group can read it.
    """
    k, n = len(header) - 1, len(t)
    step = max(1, _CSV_CELLS // (k + 1))  # rows per block
    group = max(1, _CSV_CELLS // ((k + 1) * n))  # lanes per block: 1 unless a file fits one
    # a block's text: t and the k cells of each row of each lane, "," between them, "\n" after
    line = np.empty((group, min(step, n), 2 * k + 2), dtype=object)
    line[..., 1:-1:2], line[..., -1] = ",", "\n"
    firsts = []  # each row block of the first group: t's text, its distinct bits, sorted, and theirs
    for g in range(0, len(paths), group):
        files = paths[g : g + group]
        for b, a in enumerate(range(0, n, step)):
            block = np.concatenate([c[a : a + step, g : g + group] for c in columns], axis=2)
            bits, cells = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            text = np.empty(len(bits), dtype=object)
            if g:  # the text of the bits that the first group's block holds
                t_text, known, known_text = firsts[b]
                if g + group >= len(paths):
                    firsts[b] = None  # no later group reads it
                at = np.searchsorted(known, bits).clip(max=len(known) - 1)
                new = known[at] != bits
                text[~new] = known_text[at[~new]]
            else:
                t_text, new = _format_values(t[a : a + step].tolist()), slice(None)
                if len(paths) > group:
                    firsts.append((t_text, bits, text))
            text[new] = _format_values(bits[new].view(np.float64).tolist())
            rows = len(block)
            line[:, :rows, 0] = t_text
            line[: len(files), :rows, 2::2] = text[cells].reshape(rows, len(files), k).transpose(1, 0, 2)
            for j, path in enumerate(files):
                with open(path, "a" if a else "w", newline="") as fh:
                    fh.write(("" if a else ",".join(header) + "\n") + "".join(line[j, :rows].ravel().tolist()))


def _write_csv(path: Path, header: list, columns: list) -> None:
    """One CSV of the columns, t first: the one-lane _write_csvs."""
    data = np.column_stack(columns)
    _write_csvs([path], header, data[:, 0], [data[:, None, 1:]])


def _solution_csvs(paths: list, t: np.ndarray, x, y, z) -> None:
    """t, then the x, y and z columns of each lane of x, y and z, arrays of
    shape (n + 1, P, d), lane j to paths[j]."""
    header = ["t"] + [f"{name}_{i + 1}" for name in "xyz" for i in range(x.shape[2])]
    _write_csvs(paths, header, t, [x, y, z])


def _csv_header(path: Path, lines) -> tuple[int, list]:
    """(index, column names) of the header of a CSV's lines, any iterable,
    read up to it: the first line that is not blank once a '#' comment is
    cut off, as np.loadtxt reads the data rows."""
    for at, line in enumerate(lines):
        cells = line.split("#", 1)[0]
        if cells.strip():
            return at, [name.strip() for name in cells.split(",")]
    raise ValueError(f"{path} is empty")


def _raise_bad_cell(path: Path, text: str) -> None:
    """Raise ValueError naming the first data line of a CSV whose cell
    count is not its header's, or the first cell that is not a finite
    number, by its 1-based line and its column header; return if there is
    none."""
    lines = text.splitlines()
    header_at, header = _csv_header(path, lines)
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
    """The path of a CSV: np.loadtxt reads the rows after the header from
    the file; the text is read whole only to name a bad cell."""
    with open(path) as fh:
        lines = iter(fh.readline, "")  # readline, not next: tell stays open
        _, names = _csv_header(path, lines)
        body = fh.tell()
        if not any(line.split("#", 1)[0].strip() for line in lines):  # loadtxt would warn
            raise ValueError(f"{path} needs at least two data rows, got 0")
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError:
            # a cell that is not a number, or a row of another width
            _raise_bad_cell(path, path.read_text())
            raise
    if len(data) < 2:
        raise ValueError(f"{path} needs at least two data rows, got {len(data)}")
    if names[0] != "t":
        raise ValueError(f"first column of {path} must be t, got {names[0]}")
    if len(names) < 2:
        raise ValueError(f"{path} has no value column after t")
    if data.shape[1] != len(names) or not np.isfinite(data).all():
        # rows narrower or wider than the header, or nan, inf or an overflow such as 1e400
        _raise_bad_cell(path, path.read_text())
    times, values = data[:, 0], data[:, 1:]
    grid = TimeGrid(float(times[0]), float(times[-1]), len(times) - 1)
    dev = grid.times  # a fresh array, the check's one n-sized temporary
    dev -= times
    if not np.abs(dev, out=dev).max() <= grid._tol:  # the grid's own rule
        raise ValueError(f"{path} is not sampled on a uniform grid")
    return SamplePath(grid, values)


def _failure_record(exc: Exception) -> dict:
    """A path's failure for the manifest: its type and message, plus the
    step, time and component of a blow-up or the interval and last residual
    of a Picard iteration that did not converge."""
    record = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, BlowUpError):
        record.update(step=exc.step, t=exc.t, component=exc.component)
    elif isinstance(exc, PicardConvergenceError):
        record.update(interval=exc.interval, residual=exc.residual)
    return record


def _dumps(payload: dict, **kwargs) -> str:
    """payload as strict JSON: a NaN or infinite value raises ValueError."""
    return json.dumps(payload, allow_nan=False, **kwargs)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_dumps(payload, indent=2, sort_keys=True) + "\n")


def _report(payload: dict, out: str | None) -> int:
    """Write payload as JSON to out when given, then print it."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, payload)
    print(_dumps(payload))
    return 0


def _versions() -> dict:
    """The versions of refsde, numpy and python, for a manifest."""
    import platform

    from . import __version__
    return {"refsde": __version__, "numpy": np.__version__, "python": platform.python_version()}


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
    alpha = 0.5 * ((1.0 - cfg.problem.H) + 0.5)  # midpoint of the admissible (1-H, 1/2)
    manifest = {"versions": _versions(), "config": cfg.echo, "paths": paths,
                "seeds": [[cfg.solver.seed, i] for i in range(paths)], "alpha": alpha, "runs": [],
                "failures": {str(i): _failure_record(e) for i, e in mc.failures.items()}}
    d = cfg.problem.d
    # every component of every path, as lanes of one norm sweep
    reports = norm_reports((mc.grid, mc.x.reshape(len(mc.x), mc.n_ok * d, 1)), alpha)
    for j, (i, inv) in enumerate(zip(mc.paths, _lane_invariants(mc.grid, mc.x, mc.y, mc.z))):
        entry = {"path": i, "invariants": inv} | {
            f"norms_x_{c + 1}": reports[j * d + c].to_dict() for c in range(d)}
        if cfg.solver.scheme == "picard":
            entry.update(picard_iterations=mc.iterations[j], picard_residuals=mc.residuals[j])
        manifest["runs"].append(entry)
    violated = any(v is False for run in manifest["runs"]
                   for k, v in run["invariants"].items() if k != "complementarity_ok")
    if "csv" in cfg.formats and mc.paths:
        _solution_csvs([outdir / f"path_{i:04d}.csv" for i in mc.paths], mc.grid.times, mc.x, mc.y, mc.z)
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
    try:
        _hurst_value(args.hurst, allow_half=args.allow_h_half)
    except ValueError:
        msg = "--hurst must lie in (0.5, 1); pass --allow-h-half to test at exactly 1/2"
        raise ValueError(msg) from None
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
    _solution_csvs([out], z.times, *(a.values[:, None] for a in (sol.x, sol.y, sol.z)))
    print(f"wrote reflected path to {out}")
    return 0


def cmd_converge(args) -> int:
    try:
        levels = [int(v) for v in args.levels.split(",")]
    except ValueError:
        msg = f"--levels must be comma-separated integers, got {args.levels!r}"
        raise ValueError(msg) from None
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
                              t_max=cfg.problem.T, delay=cfg.problem.r)
    payload = dataclasses.asdict(report)
    return _report(payload, args.out)


def cmd_norms(args) -> int:
    f = _read_path_csv(Path(args.input))
    # the components share one grid: one search, a lane each
    reports = norm_reports((f.grid, f.values[:, :, None]), args.alpha,
                           lambda_weight=getattr(args, "lambda"))
    return _report({f"component_{i + 1}": r.to_dict() for i, r in enumerate(reports)}, args.out)


# --- entry point ----------------------------------------------------------

def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The refsde parser.  With command one of its subcommands, only that one
    gets its arguments; every subcommand is listed, so the usage and help
    text stay the same.  Any other command builds them all."""
    parser = argparse.ArgumentParser(
        prog="refsde",
        description="Simulate reflected delay equations driven by fractional noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, text):  # the subcommand's parser if its arguments are wanted
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        return p if command in (None, name) else None

    if p := add("simulate", cmd_simulate, "run a configured Monte Carlo simulation"):
        p.add_argument("config")
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")

    if p := add("fbm", cmd_fbm, "emit fractional Brownian driver paths as CSV"):
        p.add_argument("--hurst", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--paths", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--method", choices=("cholesky", "circulant"), default="circulant")
        p.add_argument("--horizon", type=float, default=1.0)
        p.add_argument("--allow-h-half", action="store_true",
                       help="accept H = 1/2 (testing only)")
        p.add_argument("--out", required=True, help="CSV file to write")

    if p := add("skorokhod", cmd_skorokhod, "reflect a free path from CSV"):
        p.add_argument("input")
        p.add_argument("--out", required=True, help="CSV file to write")

    if p := add("converge", cmd_converge, "self-convergence study on one shared driver"):
        p.add_argument("config")
        p.add_argument("--levels", required=True, help="comma-separated steps per delay")
        p.add_argument("--out", default=None, help="JSON file to write")

    if p := add("audit", cmd_audit, "sample-based estimates of coefficient regularity"):
        p.add_argument("config")
        p.add_argument("--box-lo", type=float, default=0.0)
        p.add_argument("--box-hi", type=float, default=2.0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--out", default=None, help="JSON file to write")

    if p := add("norms", cmd_norms, "fractional norm battery of a CSV path"):
        p.add_argument("input")
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--lambda", type=float, default=0.0)
        p.add_argument("--out", default=None, help="JSON file to write")

    return parser if command in (None, *sub.choices) else _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, BlowUpError, PicardConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
