"""Declarative drift/diffusion coefficients.

A small expression language covers the representable coefficient class:
constants, named parameters, current state x1..xd, delayed state
xd1..xdd, running sups s1..sd of |x_i| over the visible history, the
unary functions sin/cos/exp/abs, and infix arithmetic with ^ (or **) for
powers.  ^ and ** are right-associative and bind tighter than a leading
minus, so -x1^2 is -(x1^2) and 2^3^2 is 2^9; * and / bind tighter than
+ and -, and all four associate left.  Diffusion expressions may only
reference t and the delayed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprSyntaxError",
    "Const",
    "Param",
    "Var",
    "Unary",
    "Binary",
    "parse_expr",
    "print_expr",
    "eval_expr",
    "DeclaredMeta",
    "CoefficientSet",
    "eval_drift",
    "eval_diffusion",
    "AuditReport",
    "hypothesis_audit",
]

UNARY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}

# Binding power of each operator, read by both the parser and the printer.
# "neg" is a leading minus: it binds tighter than * and / but looser than
# ^, so -x1^2 is -(x1^2).  ^ is right-associative, the others left.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class ExprSyntaxError(ValueError):
    """Malformed expression; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # sin | cos | exp | abs | neg
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: object
    right: object


def drift_variables(d: int) -> set[str]:
    names = {"t"}
    for i in range(1, d + 1):
        names.update({f"x{i}", f"xd{i}", f"s{i}"})
    return names


def diffusion_variables(d: int) -> set[str]:
    return {"t"} | {f"xd{i}" for i in range(1, d + 1)}


# --- tokenizer / parser -------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif source.startswith("**", i):
            tokens.append(("op", "^", i))
            i += 2
        elif ch in _TOKEN_CHARS:
            kind = "op" if ch in _PRECEDENCE else ch
            tokens.append((kind, ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] in ".eE" or
                             (source[j] in "+-" and j > i and source[j - 1] in "eE")):
                j += 1
            try:
                value = float(source[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal {source[i:j]!r}", i) from None
            tokens.append(("num", source[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, params: dict, variables: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, got {tok[1] or 'end of input'}", tok[2])

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expression(self, min_prec: int = 1):
        """Precedence climbing: an operand, then every binary operator that
        binds at least min_prec, with its right operand."""
        kind, value, _ = self.peek()
        if kind == "op" and value in ("+", "-"):  # a leading sign takes only ^ inside
            self.advance()
            node = self.expression(_PRECEDENCE["neg"] + 1)
            if value == "-":
                node = Unary("neg", node)
        else:
            node = self.atom()
        while self.peek()[0] == "op" and _PRECEDENCE[self.peek()[1]] >= min_prec:
            op = self.advance()[1]
            prec = _PRECEDENCE[op]
            node = Binary(op, node, self.expression(prec if op == "^" else prec + 1))
        return node

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "(":
            node = self.expression()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in UNARY_FUNCS:
                    raise ExprSyntaxError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expression()
                self.expect(")")
                return Unary(value, arg)
            if value in self.variables:
                return Var(value)
            if value in self.params:
                return Param(value)
            raise ExprSyntaxError(f"unknown identifier {value!r}", offset)
        raise ExprSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)


def parse_expr(source: str, params: dict | None = None, d: int = 1,
               variables: set[str] | None = None):
    """Parse an expression over the drift variables for dimension d.

    Pass variables=diffusion_variables(d) to restrict to the diffusion
    subclass.  Raises ExprSyntaxError with the byte offset on failure.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    allowed = variables if variables is not None else drift_variables(d)
    return _Parser(_tokenize(source), params or {}, allowed).parse()


# --- canonical printer --------------------------------------------------

def _print(node, min_prec: int = 0) -> str:
    """Text of node, parenthesized when it binds looser than min_prec."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, (Param, Var)):
        return node.name
    if isinstance(node, Unary) and node.op != "neg":
        return f"{node.op}({_print(node.arg)})"
    if isinstance(node, Unary):
        prec = _PRECEDENCE["neg"]
        text = f"-{_print(node.arg, prec + 1)}"
    else:
        prec = _PRECEDENCE[node.op]
        left, right = (prec + 1, prec) if node.op == "^" else (prec, prec + 1)
        text = f"{_print(node.left, left)} {node.op} {_print(node.right, right)}"
    return f"({text})" if prec < min_prec else text


def print_expr(node) -> str:
    """Canonical textual form; parse_expr(print_expr(ast)) == ast."""
    return _print(node)


# --- evaluation ---------------------------------------------------------

def eval_expr(node, env: dict, params: dict):
    """Evaluate an AST; env values may be scalars or broadcastable arrays."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Param):
        return params[node.name]
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        arg = eval_expr(node.arg, env, params)
        if node.op == "neg":
            return -arg
        return UNARY_FUNCS[node.op](arg)
    left = eval_expr(node.left, env, params)
    right = eval_expr(node.right, env, params)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        # IEEE semantics (1/0 -> inf) so the callers' finite checks can
        # report which component blew up instead of a bare ZeroDivisionError.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.true_divide(left, right)
    with np.errstate(invalid="ignore"):
        return np.float_power(left, right)


def collect_vars(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return collect_vars(node.arg)
    if isinstance(node, Binary):
        return collect_vars(node.left) | collect_vars(node.right)
    return set()


# --- coefficient sets ---------------------------------------------------

@dataclass(frozen=True)
class DeclaredMeta:
    """User-declared regularity constants; authoritative for diagnostics."""

    M0: float = 1.0
    beta: float = 1.0
    L0: float = 1.0
    K0: float = 1.0
    gamma: float = 1.0
    b0_bound: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class CoefficientSet:
    """Drift vector and diffusion matrix expressions for a d-dim state.

    Diffusion entries may depend only on t and the delayed state, mirroring
    the sigma(s, x(s-r)) structure of the reflected delay equation.
    """

    d: int
    m: int
    drift: tuple
    diffusion: tuple  # d rows of m expressions
    params: dict = field(default_factory=dict)
    meta: DeclaredMeta = field(default_factory=DeclaredMeta)

    def __post_init__(self) -> None:
        if len(self.drift) != self.d:
            raise ValueError(f"expected {self.d} drift expressions, got {len(self.drift)}")
        if len(self.diffusion) != self.d or any(len(row) != self.m for row in self.diffusion):
            raise ValueError(f"diffusion must be a {self.d}x{self.m} expression matrix")
        allowed = diffusion_variables(self.d)
        for i, row in enumerate(self.diffusion):
            for j, expr in enumerate(row):
                bad = collect_vars(expr) - allowed
                if bad:
                    raise ValueError(
                        f"diffusion entry ({i + 1},{j + 1}) uses non-delayed variables {sorted(bad)}"
                    )

    @classmethod
    def from_strings(cls, drift: list[str], diffusion: list[list[str]],
                     params: dict | None = None, meta: DeclaredMeta | None = None) -> "CoefficientSet":
        params = dict(params or {})
        d = len(drift)
        m = len(diffusion[0]) if diffusion else 0
        drift_ast = tuple(parse_expr(s, params, d) for s in drift)
        diff_ast = tuple(
            tuple(parse_expr(s, params, d, variables=diffusion_variables(d)) for s in row)
            for row in diffusion
        )
        return cls(d=d, m=m, drift=drift_ast, diffusion=diff_ast,
                   params=params, meta=meta or DeclaredMeta())


def drift_values(c: CoefficientSet, t, x, x_delayed, sups) -> np.ndarray:
    """eval_drift without its finite check: non-finite entries are returned
    as they are."""
    env = {"t": t}
    for i in range(c.d):
        env[f"x{i + 1}"] = x.T[i]
        env[f"xd{i + 1}"] = x_delayed.T[i]
        env[f"s{i + 1}"] = sups.T[i]
    out = np.empty_like(x)
    for i, expr in enumerate(c.drift):
        out.T[i] = eval_expr(expr, env, c.params)
    return out


def diffusion_values(c: CoefficientSet, t, x_delayed) -> np.ndarray:
    """eval_diffusion without its finite check."""
    x_delayed = np.asarray(x_delayed, dtype=float)
    env = {"t": t}
    for i in range(c.d):
        env[f"xd{i + 1}"] = x_delayed.T[i]
    out = np.empty(x_delayed.shape + (c.m,))
    for i, row in enumerate(c.diffusion):
        for j, expr in enumerate(row):
            out.T[j, i] = eval_expr(expr, env, c.params)
    return out


def _checked(out: np.ndarray, t, what) -> np.ndarray:
    """out, or a ValueError naming its first non-finite entry in C order by
    what(index), with its value and time: t itself when scalar, else t at
    the entry's index on axis 0."""
    if np.count_nonzero(np.isfinite(out)) < out.size:  # cheaper than all() on one row
        at = tuple(np.argwhere(~np.isfinite(out))[0])
        t_at = t if np.ndim(t) == 0 else np.asarray(t)[at[0]]
        raise ValueError(f"{what(at)} evaluated to {out[at]} at t={t_at}")
    return out


def eval_drift(c: CoefficientSet, t, x, x_delayed, sups) -> np.ndarray:
    """Drift vector b(t, x(t), x(t - r), sup |x|).

    x, x_delayed and sups are states of shape (..., d): one row (d,) or
    rows (P, d) with scalar t, or a batch (K, d) or (K, P, d) with t of
    shape (K,); the result has the shape of x.  A non-finite entry is
    reported with its component, value and t; in a (K, P, d) batch the
    first one in time order is also the one its lane alone reports.
    """
    return _checked(drift_values(c, t, x, x_delayed, sups), t,
                    lambda at: f"drift component {at[-1] + 1}")


def eval_diffusion(c: CoefficientSet, t, x_delayed) -> np.ndarray:
    """Diffusion matrix sigma(t, x(t-r)).

    Scalar t with x_delayed of shape (d,) gives a (d, m) matrix; an array
    t of shape (K,) with x_delayed (K, d) or (K, P, d) gives a (K, d, m)
    or (K, P, d, m) batch.  A non-finite entry is reported as eval_drift
    reports one.
    """
    return _checked(diffusion_values(c, t, x_delayed), t,
                    lambda at: f"diffusion entry ({at[-2] + 1},{at[-1] + 1})")


# --- hypothesis audit ---------------------------------------------------

@dataclass
class AuditReport:
    """Sampled estimates of the declared regularity constants.

    Estimates are noisy lower bounds; a flag is set when an estimate
    exceeds its declared value by more than 5%.
    """

    m0_spatial: float
    m0_time: float | None
    beta: float | None
    lipschitz_drift: float
    k0: float
    gamma: float
    b0_l_one_over_alpha: float
    flags: dict = field(default_factory=dict)


def _random_history(rng, lo, hi, times) -> np.ndarray:
    return rng.uniform(lo, hi, size=(len(times), len(lo)))


def hypothesis_audit(c: CoefficientSet, box, n_samples: int = 200, seed: int = 0,
                     t_max: float = 1.0, delay: float = 1.0, alpha: float = 0.25) -> AuditReport:
    """Numerical audit of the regularity hypotheses against declared_meta.

    box is a (lo, hi) pair of length-d state bounds.  Report-only: flags
    mark declared constants that sampling exceeds by > 5%; only a bad box
    or n_samples < 1 raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != (c.d,) or hi.shape != (c.d,):
        raise ValueError("box must be a (lo, hi) pair of length d")
    with np.errstate(over="ignore"):
        width = hi - lo
    # the uniform draws need a finite width, which inf and nan bounds, and
    # finite ones too far apart, do not have
    if not np.all(np.isfinite(width) & (width > 0.0)):
        raise ValueError(f"box needs lo < hi with a finite width hi - lo, got {box}")
    rng = np.random.default_rng(seed)

    # (H1).1 spatial Lipschitz constant of sigma
    m0_spatial = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.0, t_max)
        x, y = rng.uniform(lo, hi, (2, c.d))
        dist = float(np.linalg.norm(x - y))
        if dist > 1e-12:
            quot = np.linalg.norm(eval_diffusion(c, t, x) - eval_diffusion(c, t, y)) / dist
            m0_spatial = max(m0_spatial, float(quot))

    # (H1).2 time Hoelder: log-log fit of max increment vs lag
    lags = t_max * 2.0 ** -np.arange(1, 9)
    max_incr = np.zeros_like(lags)
    for _ in range(max(1, n_samples // 8)):
        x = rng.uniform(lo, hi, c.d)
        t = rng.uniform(0.0, t_max - lags[0])
        for k, lag in enumerate(lags):
            d_sig = np.linalg.norm(eval_diffusion(c, t + lag, x) - eval_diffusion(c, t, x))
            max_incr[k] = max(max_incr[k], float(d_sig))
    if np.all(max_incr > 0.0):
        beta_est = float(np.polyfit(np.log(lags), np.log(max_incr), 1)[0])
        m0_time = float(np.max(max_incr / lags ** min(beta_est, c.meta.beta)))
    else:
        beta_est, m0_time = None, None  # no detectable time dependence

    # (H2).1 drift Lipschitz over random histories inside the box, on a grid
    # of [-delay, t_max] with about 16 steps, a whole number n_delay of them
    # per delay, so x(t - delay) at grid point k is the grid value k - n_delay
    n_delay = max(1, round(16 * delay / (delay + t_max)))
    step = delay / n_delay
    hist_grid = step * np.arange(-n_delay, int(t_max / step + 1e-9) + 1)

    def drift_on(k, hist):
        return eval_drift(c, float(hist_grid[k]), hist[k], hist[k - n_delay],
                          np.abs(hist[: k + 1]).max(axis=0))

    lip = 0.0
    for _ in range(max(1, n_samples // 4)):
        hx = _random_history(rng, lo, hi, hist_grid)
        hy = _random_history(rng, lo, hi, hist_grid)
        k = int(rng.integers(n_delay, len(hist_grid)))
        bx = drift_on(k, hx)
        by = drift_on(k, hy)
        denom = float(np.abs(hx[: k + 1] - hy[: k + 1]).max())
        if denom > 1e-12:
            lip = max(lip, float(np.linalg.norm(bx - by)) / denom)

    # (H2).2 residual b0(t) = |b(t, zero history)|, L^(1/alpha) norm
    taus = np.linspace(0.0, t_max, 65)
    zeros = np.zeros((len(taus), c.d))
    b0 = np.linalg.norm(eval_drift(c, taus, zeros, zeros, zeros), axis=1)
    rho = 1.0 / alpha
    b0_norm = float(np.trapezoid(b0 ** rho, taus) ** alpha)

    # (H3) growth: log-log fit of |sigma| against |x| at large radii
    radii = np.logspace(0.0, 3.0, 10)
    growth = np.zeros_like(radii)
    for k, radius in enumerate(radii):
        for _ in range(max(1, n_samples // 10)):
            direction = rng.standard_normal(c.d)
            direction /= max(np.linalg.norm(direction), 1e-12)
            t = rng.uniform(0.0, t_max)
            growth[k] = max(growth[k], float(np.linalg.norm(eval_diffusion(c, t, radius * direction))))
    if np.all(growth > 0.0):
        gamma_est = float(np.clip(np.polyfit(np.log(radii), np.log(growth), 1)[0], 0.0, 1.0))
    else:
        gamma_est = 0.0
    k0_est = float(np.max(growth / (1.0 + radii ** c.meta.gamma)))

    meta = c.meta
    flags = {
        "m0": m0_spatial > 1.05 * meta.M0,
        "beta": beta_est is not None and beta_est < 0.95 * meta.beta,
        "l0": lip > 1.05 * meta.L0,
        "k0": k0_est > 1.05 * meta.K0,
        "gamma": gamma_est > 1.05 * meta.gamma + 0.05,
        "b0": b0_norm > 1.05 * meta.b0_bound,
    }
    return AuditReport(
        m0_spatial=m0_spatial,
        m0_time=m0_time,
        beta=beta_est,
        lipschitz_drift=lip,
        k0=k0_est,
        gamma=gamma_est,
        b0_l_one_over_alpha=b0_norm,
        flags=flags,
    )
