"""One measured CLI call in a fresh interpreter.

Usage: python3 child.py SPEC.json SPAWNED

SPEC holds ``argv`` (the refsde command), ``config`` (a config file to
load during set-up, or null), ``trace`` (wrap the layer boundaries) and
``result`` (where to write the measurements as JSON).  SPAWNED is the
parent's time.monotonic() just before it started this interpreter; on
Linux that clock is shared by all processes, so set-up time includes
interpreter start.  The parent puts the package under test on
PYTHONPATH; this file imports it only inside ``main`` so that tests can
import the tracer without it.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import sys
import time

# Layer boundaries, named <module>.<function>.  Each is wrapped where its
# caller looks it up, so the wrapper sees every call the CLI makes.
HOOKS = {
    "cli.load_config": [("refsde.cli", "load_config")],
    "cli.write_csv": [("refsde.cli", "_write_csv")],
    "cli.write_json": [("refsde.cli", "_write_json")],
    "cli.read_csv": [("refsde.cli", "_read_path_csv")],
    "fbm.sample_circulant": [("refsde.solver", "sample_circulant"),
                             ("refsde.cli", "sample_circulant")],
    "solver.solve_stochastic": [("refsde.cli", "solve_stochastic")],
    "solver.convergence_study": [("refsde.cli", "convergence_study")],
    "solver.solve": [("refsde.solver", "solve")],
    "solver.check_invariants": [("refsde.cli", "check_invariants")],
    "coeff.eval_drift": [("refsde.solver", "eval_drift")],
    "coeff.eval_diffusion": [("refsde.solver", "eval_diffusion")],
    "fracnorm.norm_report": [("refsde.cli", "norm_report")],
    "fracnorm.w_alpha_inf_norm": [("refsde.fracnorm", "w_alpha_inf_norm")],
    "fracnorm.weighted_alpha_norm": [("refsde.fracnorm", "weighted_alpha_norm")],
    "fracnorm.holder_norm": [("refsde.fracnorm", "holder_norm")],
    "fracnorm.lambda_alpha_bound": [("refsde.fracnorm", "lambda_alpha_bound")],
    "fracnorm.holder_exponent_estimate": [("refsde.fracnorm", "holder_exponent_estimate")],
}


def _row_pairs(args, result) -> int:
    """Grid pairs (u, v) with v <= u that one row-norm call integrates over."""
    n = args[0].grid.n_steps
    return n * (n + 1) // 2


# Extra per-call quantities, summed: <span>.<quantity> -> fn(args, result).
MEASURES = {
    "cli.write_csv": {"bytes": lambda args, result: os.path.getsize(args[0])},
    "fracnorm.w_alpha_inf_norm": {"pairs": _row_pairs},
    "fracnorm.weighted_alpha_norm": {"pairs": _row_pairs},
}


class HookError(RuntimeError):
    """A hooked name is missing from the program under test."""


class Tracer:
    """In-memory spans at the hooked boundaries.

    Per span name it keeps the call count, the inclusive time and the time
    covered by directly nested hooked spans, so self time is inclusive
    minus child time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self._child_s: list[float] = []  # one accumulator per open span

    def _entry(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "s": 0.0, "child_s": 0.0})

    def wrap(self, name: str, fn):
        measures = MEASURES.get(name, {})

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                entry = self._entry(name)
                entry["calls"] += 1
                entry["s"] += elapsed
                entry["child_s"] += self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            for quantity, measure in measures.items():
                entry[quantity] = entry.get(quantity, 0) + measure(args, result)
            return result

        return traced

    def install(self, hooks: dict = HOOKS) -> None:
        """Wrap every hooked name; a name the program lacks is an error."""
        for name, sites in hooks.items():
            self._entry(name)
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise HookError(f"{module_name}.{attr} (span {name}) no longer exists")
                setattr(module, attr, self.wrap(name, getattr(module, attr)))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work, under 0.1 s.

    Run next to each call so that a result can be read against the host's
    speed at that moment.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.sin(np.linspace(0.0, 50.0, 4097))
    acc = 0.0
    for lag in range(1, 2000):
        acc += float(np.abs(x[lag:] - x[:-lag]).max())
        for j in range(300):
            acc += math.cos(j * 1e-3)
    return time.perf_counter() - start


def main(spec_path: str, spawned: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import refsde.cli as cli

    if spec["config"] is not None:
        cli.load_config(spec["config"])
    setup_s = time.monotonic() - spawned

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        try:
            tracer.install()
        except (HookError, ImportError) as exc:
            print(f"trace hook error: {exc}", file=sys.stderr)
            return 3

    cal_s = calibrate()
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except Exception as exc:  # an escaped error is a failed call, not a crash here
        code, error = None, repr(exc)
    wall_s = time.perf_counter() - start
    cal_s += calibrate()

    result = {
        "exit_code": code,
        "error": error,
        "wall_s": wall_s,
        "cal_s": cal_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.stats
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
