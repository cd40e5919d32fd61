import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refsde
from refsde import (
    CoefficientSet,
    ExprSyntaxError,
    Problem,
    SolverConfig,
    eta_from_callable,
    parse_expr,
)
from refsde.grids import SamplePath, TimeGrid


def path_on(t0, t1, n, fn, d=1):
    grid = TimeGrid(t0, t1, n)
    vals = np.column_stack([np.asarray(fn(grid.times), dtype=float)] * d) \
        if d > 1 else np.asarray(fn(grid.times), dtype=float)
    return SamplePath(grid, vals)


def linear_coeffs(a=0.2, b=0.1):
    """Scalar linear delay equation: drift x(t-r), diffusion a*x(t-r)+b."""
    return CoefficientSet.from_strings(["xd1"], [["a * xd1 + b"]],
                                       params={"a": a, "b": b})


def nonlinear_coeffs():
    """Scalar nonlinear delay equation: drift cos(x), diffusion sin(t+x(t-r))."""
    return CoefficientSet.from_strings(["cos(x1)"], [["sin(t + xd1)"]])


def linear_problem(n_r, M=1, a=0.2, b=0.1, H=0.75):
    eta = eta_from_callable(lambda t: np.array([t + 1.0]), 1.0, n_r, 1)
    return Problem(eta=eta, coeffs=linear_coeffs(a, b), r=1.0, T=float(M), H=H)


def nonlinear_problem(n_r, M=1, H=0.75):
    eta = eta_from_callable(lambda t: np.array([t * t]), 1.0, n_r, 1)
    return Problem(eta=eta, coeffs=nonlinear_coeffs(), r=1.0, T=float(M), H=H)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="reads VmHWM from /proc")


def resident_peak_rise(setup, measured):
    """Rise in kB of a fresh interpreter's peak resident set while it runs
    the code `measured`, after the code `setup`.

    VmHWM, not ru_maxrss: on Linux a child's ru_maxrss starts at the
    high-water mark of the process that spawned it, here pytest's.
    """
    code = (
        "import re\n"
        f"{setup}\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', fh.read()).group(1))\n"
        "before = hwm()\n"
        f"{measured}\n"
        "print(hwm() - before)\n")
    src = str(Path(refsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    return int(run.stdout)


def deepest_sum(source: str = "x1") -> int:
    """The most terms of source + source + ... that parse_expr accepts."""
    lo, hi = 1, 1200  # accepted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_expr("+".join([source] * mid))
            lo = mid
        except ExprSyntaxError:
            hi = mid
    return lo
