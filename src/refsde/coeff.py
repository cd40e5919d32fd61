"""Declarative drift/diffusion coefficients.

A small expression language covers the representable coefficient class:
constants, named parameters, current state x1..xd, delayed state
xd1..xdd, running sups s1..sd of |x_i| over the visible history, the
unary functions sin/cos/exp/abs, and infix arithmetic with ^ (or **) for
powers.  Its grammar is Python's, read by the ast module with ^ as **: ^
is right-associative and binds tighter than a leading minus, so -x1^2 is
-(x1^2) and 2^3^2 is 2^9; * and / bind tighter than + and -, and all four
associate left.  Diffusion expressions may only reference t and the
delayed state.  A parameter may not take a variable's name, nor be given
twice.

Each expression of a CoefficientSet is compiled once, on first use, into
closures that make a tree walk's numpy calls in its order; the compiled
form is cached by the set's identity, outside the picklable instance.

hypothesis_audit samples the constants of (H1)-(H3), each flagged against 1.
"""

from __future__ import annotations

import ast
import keyword
import operator
import re
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "ExprSyntaxError", "Const", "Param", "Var", "Unary", "Binary",
    "parse_expr", "print_expr", "eval_expr",
    "CoefficientSet", "eval_drift", "eval_diffusion",
    "AuditReport", "hypothesis_audit",
]

UNARY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}

# Binding power of each operator, as Python's grammar has it, for the printer.
# "neg" is a leading minus: it binds tighter than * and / but looser than
# ^, so -x1^2 is -(x1^2).  ^ is right-associative, the others left.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class ExprSyntaxError(ValueError):
    """Malformed expression; carries the offset of the failure into its source."""

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
    return {"t"} | {f"{v}{i}" for v in ("x", "xd", "s") for i in range(1, d + 1)}


def diffusion_variables(d: int) -> set[str]:
    return {"t"} | {f"xd{i}" for i in range(1, d + 1)}


# --- parser -------------------------------------------------------------

# The source as Python reads it, a match at a time: an exponent or a name is kept
# whole, so that its digits keep their zeros, and the leading zeros of a number,
# which Python rejects in an integer (007), become spaces, ^ becomes ** and any
# other whitespace a space.  A character outside the language, and a letter or _
# straight after a number (0x1, 1_0, 1j, 1if), which Python would read, are errors.
_LEXEMES = re.compile(r"(?<=[0-9.])[eE][+-]?[0-9]+|(?P<bad>(?<=[0-9.])[^\W\d]|[^\w\s.+\-*/^()])"
                      r"|[^\W\d]\w*|(?P<zeros>(?<![0-9.])0+(?=[0-9]))|(?P<power>\^)|(?P<space>[^\S ])")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _as_python(m: re.Match) -> str:
    if m["bad"]:
        raise ExprSyntaxError(f"unexpected character {m[0]!r}", m.start())
    return " " * len(m[0]) if m["zeros"] else "**" if m["power"] else " " if m["space"] else m[0]


def _tree(node, params: dict, variables: set[str], fail, room: int = 200):
    """The language's tree of a Python expression, by a whitelist; else fail(node, message).

    A tree deeper than room levels fails, as Python's parser fails on more
    than 200 nested parentheses: compiling, evaluating, comparing, printing
    and pickling a tree recurse through it, up to three frames a level, and
    must stay within Python's recursion limit (1000 frames by default)."""
    if not room:
        raise fail(node, "expression nested too deeply")
    room -= 1
    match node:
        case ast.Constant(value=int() | float() as value) if not isinstance(value, bool):
            return Const(float(str(value)))  # a long integer is inf, as float("1e999")
        case ast.Name(id=name) if name in variables or name in params:
            return Var(name) if name in variables else Param(name)
        case ast.Name(id=name):
            raise fail(node, f"unknown identifier {name!r}")
        case ast.UnaryOp(op=ast.USub(), operand=arg):
            return Unary("neg", _tree(arg, params, variables, fail, room))
        case ast.UnaryOp(op=ast.UAdd(), operand=arg):
            return _tree(arg, params, variables, fail, room)
        case ast.BinOp(op=op, left=left, right=right) if type(op) in _BINARY:
            return Binary(_BINARY[type(op)], _tree(left, params, variables, fail, room),
                          _tree(right, params, variables, fail, room))
        # a function's name stands right before its (: (sin)(x1) is no call
        case ast.Call(func=ast.Name(id=name, col_offset=at), args=[arg], keywords=[]) \
                if name in UNARY_FUNCS and at == node.col_offset:
            return Unary(name, _tree(arg, params, variables, fail, room))
        case ast.Call(func=ast.Name(id=name)) if name not in UNARY_FUNCS:
            raise fail(node, f"unknown function {name!r}")
    raise fail(node, "not an arithmetic expression of the language")


def parse_expr(source: str, params: dict | None = None, d: int = 1,
               variables: set[str] | None = None):
    """Parse an expression over the drift variables for dimension d.

    Pass variables=diffusion_variables(d) to restrict to the diffusion
    subclass.  Raises ExprSyntaxError with the offset into source on failure.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    text = _LEXEMES.sub(_as_python, source)
    body = text.lstrip(" ")

    def fail(at: int, message: str | None = None) -> ExprSyntaxError:  # at column at of body
        where = [i for i, ch in enumerate(source) for _ in range(1 + (ch == "^"))] + [len(source)]
        at = where[min(len(text) - len(body) + at, len(text))]
        got = f"unexpected {source[at]!r}" if at < len(source) else "unexpected end of input"
        return ExprSyntaxError(message or got, at)

    try:
        tree = ast.parse(body + "\n", mode="eval").body  # \n: an unfinished input fails at its end
    except (RecursionError, MemoryError):  # a tree thousands of levels deep; MemoryError is the parser's stack
        raise ExprSyntaxError("expression nested too deeply", 0) from None
    except SyntaxError as exc:
        at = exc.offset - 1 if exc.lineno == 1 and exc.offset else len(body)
        if exc.msg == "too many nested parentheses":  # Python's own limit, at the 201st (
            raise fail(at, "expression nested too deeply") from None
        # Python places a ( never closed at itself: its ) is missing at the end
        raise fail(len(body) if body[at : at + 1] == "(" else at) from None
    return _tree(tree, params or {}, variables if variables is not None else drift_variables(d),
                 lambda node, message: fail(len(body.encode()[: node.col_offset].decode()), message))


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

# / and ^ give IEEE results (1/0 and 0^-1 are inf, (-1)^0.5 is nan) in
# their own errstate scopes, silently: the callers' finite checks report
# which component blew up, instead of a warning or a ZeroDivisionError.
_OPS = {"neg": operator.neg, **UNARY_FUNCS, "+": operator.add, "-": operator.sub,
        "*": operator.mul, "/": np.errstate(divide="ignore", invalid="ignore")(np.true_divide),
        "^": np.errstate(divide="ignore", invalid="ignore")(np.float_power)}


def _compile(node, params: dict, slots: dict):
    """node as a function of a tuple v, with v[g][i] the value of the variable
    that slots maps to (g, i): a tree walk's calls, operands left to right."""
    match node:
        case Const(value):
            return lambda v: value
        case Param(name):
            value = params[name]
            return lambda v: value
        case Var(name):
            g, i = slots[name]
            return lambda v: v[g][i]
        case Unary(op, arg):
            fn, arg = _OPS[op], _compile(arg, params, slots)
            return lambda v: fn(arg(v))
    fn = _OPS[node.op]
    left, right = _compile(node.left, params, slots), _compile(node.right, params, slots)
    return lambda v: fn(left(v), right(v))


def eval_expr(node, env: dict, params: dict):
    """Evaluate an AST; env values may be scalars or broadcastable arrays."""
    return _compile(node, params, {name: (0, i) for i, name in enumerate(env)})((tuple(env.values()),))


def collect_vars(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return collect_vars(node.arg)
    if isinstance(node, Binary):
        return collect_vars(node.left) | collect_vars(node.right)
    return set()


# --- coefficient sets ---------------------------------------------------

def _param_dict(params, d: int) -> dict:
    """params, a mapping or (name, value) pairs, as a dict; a name given
    twice, a variable's, which the parser would read instead, or a Python
    keyword, which no expression can read, is a ValueError."""
    pairs = list(params.items() if isinstance(params, dict) else params or ())
    names = [name for name, _ in pairs]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"parameter {name!r} is given twice")
        if name in drift_variables(d):
            raise ValueError(f"parameter {name!r} is the name of a variable")
        if keyword.iskeyword(name):
            raise ValueError(f"parameter {name!r} is a Python keyword")
    return dict(pairs)


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
                     params: dict | list | None = None) -> "CoefficientSet":
        d = len(drift)
        params = _param_dict(params, d)
        m = len(diffusion[0]) if diffusion else 0
        drift_ast = tuple(parse_expr(s, params, d) for s in drift)
        diff_ast = tuple(
            tuple(parse_expr(s, params, d, variables=diffusion_variables(d)) for s in row)
            for row in diffusion
        )
        return cls(d=d, m=m, drift=drift_ast, diffusion=diff_ast, params=params)


# The compiled drift and diffusion of each live CoefficientSet, by id.
_COMPILED: dict = {}


def _compiled(c: CoefficientSet) -> tuple:
    fns = _COMPILED.get(id(c))
    if fns is None:
        # v[0][0] is t; v[1], v[2] and v[3] hold the columns of x, x(t - r) and the sups
        slots = {"t": (0, 0)} | {f"{v}{i + 1}": (g, i) for g, v in enumerate(("x", "xd", "s"), 1)
                                 for i in range(c.d)}
        fns = _COMPILED[id(c)] = ([_compile(e, c.params, slots) for e in c.drift],
                                  [[_compile(e, c.params, slots) for e in row] for row in c.diffusion])
        weakref.finalize(c, _COMPILED.pop, id(c))
    return fns


def drift_values(c: CoefficientSet, t, x, x_delayed, sups) -> np.ndarray:
    """eval_drift without its finite check: non-finite entries are returned
    as they are."""
    v = ((t,), x.T, x_delayed.T, sups.T)
    out = np.empty_like(x)
    for i, fn in enumerate(_compiled(c)[0]):
        out.T[i] = fn(v)
    return out


def diffusion_values(c: CoefficientSet, t, x_delayed) -> np.ndarray:
    """eval_diffusion without its finite check."""
    x_delayed = np.asarray(x_delayed, dtype=float)
    v = ((t,), None, x_delayed.T)
    out = np.empty(x_delayed.shape + (c.m,))
    for i, row in enumerate(_compiled(c)[1]):
        for j, fn in enumerate(row):
            out.T[j, i] = fn(v)
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
    """Sampled estimates of the regularity constants of (H1)-(H3).

    Estimates are noisy lower bounds; a flag is set when an estimate passes
    1 by more than 5% (beta: falls below 0.95; gamma: the fitted growth
    slope passes 1.1, while the reported gamma is that slope clipped to
    [0, 1]).
    """

    m0_spatial: float
    m0_time: float | None
    beta: float | None
    lipschitz_drift: float
    k0: float
    gamma: float
    b0_l_one_over_alpha: float
    flags: dict = field(default_factory=dict)


def _draws(n: int, *draw) -> list:
    """n samples, each calling the draw functions in turn, as one array per
    function: a loop's draws in its order, for one batched evaluation."""
    return [np.array(col) for col in zip(*([f() for f in draw] for _ in range(n)))]


def hypothesis_audit(c: CoefficientSet, box, n_samples: int = 200, seed: int = 0,
                     t_max: float = 1.0, delay: float = 1.0, alpha: float = 0.25) -> AuditReport:
    """Numerical audit of the regularity hypotheses, each constant against 1.

    box is a (lo, hi) pair of length-d state bounds.  Report-only: the flags
    are AuditReport's.  ValueError for a bad box, n_samples < 1, or a
    coefficient non-finite at a probe point, as eval_drift reports it: the
    b0 probe's zero history makes a drift such as 1 / x1 fail at t = 0.
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

    # (H1).1 spatial Lipschitz constant of sigma: sigma at x and y, one t
    ts, pairs = _draws(n_samples, partial(rng.uniform, 0.0, t_max),
                       partial(rng.uniform, lo, hi, (2, c.d)))
    sig = eval_diffusion(c, ts, pairs)
    dist = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
    quot = np.linalg.norm(sig[:, 0] - sig[:, 1], axis=(1, 2))[dist > 1e-12] / dist[dist > 1e-12]
    m0_spatial = float(np.max(quot, initial=0.0))

    # (H1).2 time Hoelder: log-log fit of max increment vs lag
    lags = t_max * 2.0 ** -np.arange(1, 9)
    xs, ts = _draws(max(1, n_samples // 8), partial(rng.uniform, lo, hi, c.d),
                    partial(rng.uniform, 0.0, t_max - lags[0]))
    ts = ts[:, None] + np.r_[0.0, lags]  # t, then t + each of the 8 lags
    sig = eval_diffusion(c, ts.ravel(), np.repeat(xs, 9, axis=0)).reshape(-1, 9, c.d, c.m)
    max_incr = np.linalg.norm(sig[:, 1:] - sig[:, :1], axis=(2, 3)).max(axis=0)
    if np.all(max_incr > 0.0):
        beta_est = float(np.polyfit(np.log(lags), np.log(max_incr), 1)[0])
        m0_time = float(np.max(max_incr / lags ** min(beta_est, 1.0)))
    else:
        beta_est, m0_time = None, None  # no detectable time dependence

    # (H2).1 drift Lipschitz over random histories inside the box, on a grid
    # of [-delay, t_max] with about 16 steps, a whole number n_delay of them
    # per delay, so x(t - delay) at grid point k is the grid value k - n_delay
    n_delay = max(1, round(16 * delay / (delay + t_max)))
    step = delay / n_delay
    hist_grid = step * np.arange(-n_delay, int(t_max / step + 1e-9) + 1)
    hists, ks = _draws(max(1, n_samples // 4), partial(rng.uniform, lo, hi, (2, len(hist_grid), c.d)),
                       partial(rng.integers, n_delay, len(hist_grid)))  # a pair of histories, a row k
    # x, x(t - delay) and the running sup at row k of each history of a pair
    rows = np.arange(len(ks))
    sups = np.maximum.accumulate(np.abs(hists), axis=2)[rows, :, ks]
    b = eval_drift(c, hist_grid[ks], hists[rows, :, ks], hists[rows, :, ks - n_delay], sups)
    denom = np.maximum.accumulate(np.abs(hists[:, 0] - hists[:, 1]).max(axis=2), axis=1)[rows, ks]
    quot = np.linalg.norm(b[:, 0] - b[:, 1], axis=1)[denom > 1e-12] / denom[denom > 1e-12]
    lip = float(np.max(quot, initial=0.0))

    # (H2).2 residual b0(t) = |b(t, zero history)|, L^(1/alpha) norm
    taus = np.linspace(0.0, t_max, 65)
    zeros = np.zeros((len(taus), c.d))
    b0 = np.linalg.norm(eval_drift(c, taus, zeros, zeros, zeros), axis=1)
    b0_norm = float(np.trapezoid(b0 ** (1.0 / alpha), taus) ** alpha)

    # (H3) growth: log-log fit of |sigma| against |x| at large radii
    radii = np.logspace(0.0, 3.0, 10)
    n_dir = max(1, n_samples // 10)
    directions, ts = _draws(len(radii) * n_dir, partial(rng.standard_normal, c.d),
                            partial(rng.uniform, 0.0, t_max))
    # reflection keeps x >= 0, so probe only directions of the non-negative orthant
    directions = np.abs(directions)
    directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-12)
    sig = eval_diffusion(c, ts, np.repeat(radii, n_dir)[:, None] * directions)
    growth = np.linalg.norm(sig, axis=(1, 2)).reshape(len(radii), n_dir).max(axis=1)
    slope = float(np.polyfit(np.log(radii), np.log(growth), 1)[0]) if np.all(growth > 0.0) else 0.0
    gamma_est = float(np.clip(slope, 0.0, 1.0))
    k0_est = float(np.max(growth / (1.0 + radii)))

    flags = {
        "m0": m0_spatial > 1.05,
        "beta": beta_est is not None and beta_est < 0.95,
        "l0": lip > 1.05,
        "k0": k0_est > 1.05,
        "gamma": slope > 1.1,  # before the clip, which stops at 1
        "b0": b0_norm > 1.05,
    }
    return AuditReport(m0_spatial=m0_spatial, m0_time=m0_time, beta=beta_est, lipschitz_drift=lip,
                       k0=k0_est, gamma=gamma_est, b0_l_one_over_alpha=b0_norm, flags=flags)
