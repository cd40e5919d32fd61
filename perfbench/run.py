"""Seeded benchmark of the refsde CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory.  Each call of the CLI runs in a fresh
interpreter (``child.py``), one at a time, with BLAS/OpenMP pinned to one
thread.  The inputs (config or CSV) are generated from ``--seed`` into a
temporary directory inside the checkout, and the program receives only
those files.

A run first calls the CLI once on the inputs for REFERENCE_SEED and
compares the outputs with ``reference.json`` (CSV bytes by SHA-256, norms
and errors to REL_TOL).  It then repeats the seeded call for ``--seconds``
and reports medians.  Every call is checked: exit code 0, no failed path,
every invariant flag true, and outputs matching the first call of the
run.  Graded times are read against a calibration loop that the child runs
just before and after each call, because the host's speed drifts.  With
``--trace 1`` untraced and traced calls alternate; the traced ones wrap the
layer boundaries listed in ``child.HOOKS``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric's median,
quartiles and sample count.  ``--record-reference`` rewrites
``reference.json`` from the program as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"

REFERENCE_SEED = 0
REL_TOL = 1e-9  # norms and errors; room for a reordered summation, not a new algorithm
MIN_REPEATS = 3
LAST_START_S = 120.0  # no call starts later than this into a run ...
CALL_TIMEOUT_S = 50.0  # ... so a run ends well within 180 s
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

LINEAR_A = {"eta": "t + 1", "drift": "xd1", "diffusion": "a * xd1 + b",
            "params": "a = 0.2, b = 0.1", "scheme": "euler"}
NONLINEAR_B = {"eta": "t ^ 2", "drift": "cos(x1)", "diffusion": "sin(t + xd1)",
               "params": None, "scheme": "picard"}
DELAY_INTERVALS = 3  # T = 3r with r = 1: every grid step count is a power of two times 3
HURST = 0.75
NORMS_ALPHA = 0.375
# Printed beside the graded metrics but left out of the result line: raw
# wall time follows the host's speed, which drifts by 20-30% over minutes
# on a shared VM.  The graded times are read against a calibration loop.
UNGRADED = {"wall_s": "s", "steps_per_s": "step/s"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # simulate | converge | norms
    coeffs: dict | None = None
    steps_per_delay: int = 0
    paths: int = 0
    levels: tuple = ()
    driver_steps: int = 0

    @property
    def steps(self) -> int:
        """Grid steps one call solves (simulate, converge) or norms (norms)."""
        if self.command == "simulate":
            return self.paths * DELAY_INTERVALS * self.steps_per_delay
        if self.command == "converge":
            return DELAY_INTERVALS * sum(self.levels)
        return self.driver_steps


WORKLOADS = {w.name: w for w in (
    Workload("simulate-euler", "simulate", LINEAR_A, steps_per_delay=512, paths=4),
    Workload("simulate-picard", "simulate", NONLINEAR_B, steps_per_delay=64, paths=32),
    Workload("converge-euler", "converge", LINEAR_A, levels=(2048, 4096, 8192, 16384)),
    Workload("norms-driver", "norms", driver_steps=4096),
)}


# --- inputs ---------------------------------------------------------------

def config_text(w: Workload, seed: int) -> str:
    c = w.coeffs
    lines = [
        "[problem]", f"hurst = {HURST}", "delay = 1.0",
        f"horizon = {float(DELAY_INTERVALS)}", "dim = 1", "noise_dim = 1",
        f"eta = {c['eta']}", f"drift = {c['drift']}", f"diffusion = {c['diffusion']}",
    ]
    if c["params"]:
        lines.append(f"params = {c['params']}")
    lines += ["", "[solver]", f"scheme = {c['scheme']}",
              f"steps_per_delay = {w.steps_per_delay or max(w.levels)}"]
    if c["scheme"] == "picard":
        lines += ["picard_tol = 1e-10", "picard_max_iter = 100"]
    lines += ["", "[mc]", f"paths = {max(w.paths, 1)}", f"seed = {seed}",
              "", "[output]", "directory = out", "formats = csv, json", ""]
    return "\n".join(lines)


def fbm_driver(n: int, hurst: float, seed: int) -> np.ndarray:
    """fBm on n steps of [0, 1] by circulant embedding (Davies-Harte).

    The benchmark's own sampler, so the norms input does not depend on the
    sampler under test.
    """
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hurst
    rho = 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)
    lam = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real.clip(min=0.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    fgn = np.fft.fft(np.sqrt(lam / (2 * n)) * noise).real[:n]
    return np.concatenate([[0.0], np.cumsum(fgn)]) * n ** -hurst


def write_inputs(w: Workload, seed: int, directory: Path) -> tuple[Path, Path | None]:
    """Write the seeded input; return it and the config to load in set-up."""
    directory.mkdir(parents=True, exist_ok=True)
    if w.command == "norms":
        path = directory / "driver.csv"
        n = w.driver_steps
        data = np.column_stack([np.linspace(0.0, 1.0, n + 1), fbm_driver(n, HURST, seed)])
        with open(path, "w") as fh:
            fh.write("t,w_1\n")
            np.savetxt(fh, data, fmt="%.17g", delimiter=",")
        return path, None
    path = directory / "run.cfg"
    path.write_text(config_text(w, seed))
    return path, path


def cli_argv(w: Workload, input_path: Path, out: Path) -> list[str]:
    if w.command == "simulate":
        return ["simulate", str(input_path), "--out", str(out)]
    if w.command == "converge":
        levels = ",".join(str(v) for v in w.levels)
        return ["converge", str(input_path), "--levels", levels, "--out", str(out / "converge.json")]
    return ["norms", str(input_path), "--alpha", str(NORMS_ALPHA), "--out", str(out / "norms.json")]


# --- output checks --------------------------------------------------------

def digest(w: Workload, out: Path) -> dict:
    """The outputs a check compares: CSV hashes and the numbers in the JSON."""
    if w.command == "converge":
        payload = json.loads((out / "converge.json").read_text())
        return {key: payload[key] for key in ("levels", "errors", "empirical_order")}
    if w.command == "norms":
        return json.loads((out / "norms.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
    runs = [{key: run[key] for key in ("path", "invariants", "norms_x_1", "picard_iterations")
             if key in run} for run in manifest["runs"]]
    return {"csv_sha256": csvs, "failures": manifest["failures"], "runs": runs}


def call_problems(w: Workload, result: dict, out: Path) -> tuple[list[str], dict | None]:
    """Check one call; return its problems and, if readable, its digest."""
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}: {result['error']}"], None
    try:
        dig = digest(w, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], None
    problems = []
    if w.command == "simulate":
        if dig["failures"]:
            problems.append(f"failed paths: {sorted(dig['failures'])}")
        if len(dig["runs"]) != w.paths or len(dig["csv_sha256"]) != w.paths:
            problems.append(f"expected {w.paths} paths, got {len(dig['runs'])} runs "
                            f"and {len(dig['csv_sha256'])} CSVs")
        for run in dig["runs"]:
            false = [k for k, v in run["invariants"].items() if v is False]
            if false:
                problems.append(f"path {run['path']}: invariant flags false: {false}")
    return problems, dig


def mismatches(got, want, where: str = "") -> list[str]:
    """Differences between two digests; floats agree to REL_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, v) in enumerate(zip(got, want)) for m in mismatches(g, v, f"{where}/{i}")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if numbers and (isinstance(got, float) or isinstance(want, float)):
        if abs(got - want) <= REL_TOL * abs(want) or got == want:
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{where}: {got!r} != {want!r}"]


def picard_iterations(dig: dict | None) -> int:
    runs = (dig or {}).get("runs", [])
    return sum(sum(run.get("picard_iterations", [])) for run in runs)


# --- metrics --------------------------------------------------------------

def layer_metrics(w: Workload, spans: dict, dig: dict | None) -> dict:
    """Per-layer values of one traced call, keyed as in BENCHMARK.json."""
    values = {}
    for name, entry in spans.items():
        values[f"{name}.s"] = entry["s"]
        values[f"{name}.calls"] = entry["calls"]
    solve = spans["solver.solve"]
    rows = [spans["fracnorm.w_alpha_inf_norm"], spans["fracnorm.weighted_alpha_norm"]]
    row_s = sum(e["s"] for e in rows)
    values.update({
        "cli.write_csv.bytes": spans["cli.write_csv"].get("bytes", 0),
        "solver.solve.self_s": solve["s"] - solve["child_s"],
        "solver.steps_per_s": w.steps / solve["s"] if solve["calls"] else 0.0,
        "solver.picard_iterations": picard_iterations(dig),
        "fracnorm.pairs_per_s": sum(e.get("pairs", 0) for e in rows) / row_s if row_s else 0.0,
    })
    return values


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# --- the run --------------------------------------------------------------

class Run:
    """The calls of one benchmark run, their checks and their samples."""

    def __init__(self, w: Workload, workdir: Path):
        self.w = w
        self.workdir = workdir
        self.env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC),
                    "PYTHONHASHSEED": "0", "TMPDIR": str(workdir)}
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def call(self, input_path: Path, config: Path | None, trace: bool,
             want: dict | None = None) -> tuple[dict, dict | None]:
        """Run the CLI once in a fresh interpreter and check it."""
        self._n += 1
        out = self.workdir / f"out{self._n}"
        spec_path = self.workdir / f"call{self._n}.json"
        result_path = self.workdir / f"result{self._n}.json"
        spec_path.write_text(json.dumps({
            "argv": cli_argv(self.w, input_path, out),
            "config": str(config) if config else None,
            "trace": trace,
            "result": str(result_path),
        }))
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path), repr(time.monotonic())],
                env=self.env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result = {"exit_code": None, "error": f"timed out after {CALL_TIMEOUT_S} s"}
        else:
            if proc.returncode == 3:
                raise BenchError(proc.stderr.strip())
            if proc.returncode != 0 or not result_path.is_file():
                result = {"exit_code": None, "error": proc.stderr.strip()[-2000:]}
            else:
                result = json.loads(result_path.read_text())
        dig = self.check(result, out, want)
        shutil.rmtree(out, ignore_errors=True)
        return result, dig

    def check(self, result: dict, out: Path, want: dict | None) -> dict | None:
        """Count one call, and count it failed if any check fails.

        Returns the call's digest if it passed, else None.
        """
        self.attempted += 1
        problems, dig = call_problems(self.w, result, out)
        if dig is not None and want is not None:
            problems += mismatches(dig, want)[:20]
        self.fail(problems)
        return None if problems else dig

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check_reference(self) -> None:
        """One untimed call on the reference seed, compared with reference.json."""
        input_path, config = write_inputs(self.w, REFERENCE_SEED, self.workdir / "reference")
        want = json.loads(REFERENCE.read_text())[self.w.name]
        self.call(input_path, config, trace=False, want=want)

    def measure(self, seed: int, seconds: float, modes: tuple) -> dict:
        """Alternate the given trace modes until `seconds` have passed.

        Every call must reproduce the outputs of the run's first call.
        """
        input_path, config = write_inputs(self.w, seed, self.workdir / "seeded")
        samples = {mode: [] for mode in modes}
        first = None
        start = time.monotonic()
        while self.elapsed() < LAST_START_S:
            done = time.monotonic() - start >= seconds
            if done and min(len(s) for s in samples.values()) >= MIN_REPEATS:
                break
            for mode in modes:
                result, dig = self.call(input_path, config, trace=mode, want=first)
                if dig is not None:
                    first = first or dig
                    samples[mode].append((result, dig))
        return samples


def end_to_end(w: Workload, run: Run, samples: list) -> dict:
    results = [r for r, _ in samples]
    return {
        "wall_s": summarize([r["wall_s"] for r in results]),
        "steps_per_s": summarize([w.steps / r["wall_s"] for r in results]),
        "wall_calib": summarize([r["wall_s"] / r["cal_s"] for r in results]),
        "steps_per_calib": summarize([w.steps * r["cal_s"] / r["wall_s"] for r in results]),
        "setup_s": summarize([r["setup_s"] for r in results]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in results]),
        "ok_frac": summarize([1.0 - run.failed / run.attempted]),
    }


def per_layer(w: Workload, run: Run, untraced: list, traced: list) -> dict:
    layers = [layer_metrics(w, r["spans"], dig) for r, dig in traced]
    stats = {name: summarize([v[name] for v in layers]) for name in layers[0]}
    for name in stats:
        exact = name.endswith((".calls", ".bytes")) or name == "solver.picard_iterations"
        if exact and len({v[name] for v in layers}) > 1:
            run.fail([f"exact count {name} differs between traced calls"])
    # Calls alternate untraced, traced: difference within each pair.
    stats["trace.overhead_s"] = summarize(
        [t["wall_s"] - u["wall_s"] for (u, _), (t, _) in zip(untraced, traced)])
    return stats


def record_reference() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for name, w in WORKLOADS.items():
            run = Run(w, Path(tmp) / name)
            input_path, config = write_inputs(w, REFERENCE_SEED, run.workdir)
            _, dig = run.call(input_path, config, trace=False)
            if dig is None:
                print(f"{name}: {run.problems}", file=sys.stderr)
                return 1
            refs[name] = dig
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


class BenchError(RuntimeError):
    """The run cannot report: the program or the benchmark is unusable."""


def benchmark(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    """Measure one workload; return the run and a summary of each metric.

    The metrics are those of BENCHMARK.json, untraced also UNGRADED.
    """
    spec = load_spec()
    wanted = spec["per_layer"] if trace else {**spec["end_to_end"], **UNGRADED}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        run = Run(w, Path(tmp))
        run.check_reference()
        samples = run.measure(seed, seconds, (False, True) if trace else (False,))
    if not all(samples.values()):
        raise BenchError("no call succeeded:\n  " + "\n  ".join(run.problems[:20]))
    if trace:
        stats = per_layer(w, run, samples[False], samples[True])
    else:
        stats = end_to_end(w, run, samples[False])
    missing = set(wanted) - set(stats)
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    return run, {name: {**stats[name], "unit": unit} for name, unit in wanted.items()}


def print_summary(w: Workload, seed: int, trace: bool, run: Run, stats: dict) -> None:
    print(f"{w.name}  seed={seed}  trace={int(trace)}  calls={run.attempted} failed={run.failed}")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    for name, st in stats.items():
        print(f"  {name:36s} {st['median']:<14.6g} {st['unit']:10s} "
              f"[{st['q1']:.6g} .. {st['q3']:.6g}] n={st['n']}"
              + ("  (not graded)" if name in UNGRADED else ""))


def result_line(run: Run, stats: dict) -> dict:
    metrics = {name: {"value": st["median"], "unit": st["unit"]}
               for name, st in stats.items() if name not in UNGRADED}
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "refsde" / "cli.py").is_file():
        print(f"perfbench: no refsde package under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    try:
        run, stats = benchmark(w, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_summary(w, args.seed, bool(args.trace), run, stats)
    print(json.dumps(result_line(run, stats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
