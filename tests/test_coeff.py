import dataclasses
import gc
import pickle
import warnings
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refsde import coeff
from refsde.coeff import (
    _PRECEDENCE,
    UNARY_FUNCS,
    Binary,
    CoefficientSet,
    Const,
    ExprSyntaxError,
    Param,
    Unary,
    Var,
    collect_vars,
    drift_variables,
    eval_diffusion,
    eval_drift,
    eval_expr,
    hypothesis_audit,
    parse_expr,
    print_expr,
)
from refsde.cli import load_config

from conftest import deepest_sum, linear_coeffs, nonlinear_coeffs


class TestParser:
    def test_precedence_golden(self):
        assert eval_expr(parse_expr("1 + 2 * 3"), {}, {}) == 7.0
        assert eval_expr(parse_expr("(1 + 2) * 3"), {}, {}) == 9.0

    def test_power_right_associative(self):
        assert eval_expr(parse_expr("2 ^ 3 ^ 2"), {}, {}) == 512.0
        assert eval_expr(parse_expr("2 ** 3 ** 2"), {}, {}) == 512.0

    @pytest.mark.parametrize("source,want", [
        ("-x1^2", -9.0),  # ^ binds tighter than a leading minus
        ("-x1**2", -9.0),
        ("-2^2", -4.0),
        ("2^-1", 0.5),  # a signed exponent
        ("2^3^2", 512.0),
        ("a*-x1", -3.0 * 1.5),
    ])
    def test_power_binds_tighter_than_leading_minus(self, source, want):
        params = {"a": 1.5}
        assert eval_expr(parse_expr(source, params), {"x1": 3.0}, params) == want

    def test_negated_power_prints_back(self):
        ast = parse_expr("-x1^2")
        assert ast == Unary("neg", Binary("^", Var("x1"), Const(2.0)))
        assert parse_expr(print_expr(ast)) == ast

    def test_linear_diffusion_example(self):
        ast = parse_expr("a * xd1 + b", params={"a": 1.5, "b": 0.2})
        assert eval_expr(ast, {"xd1": 2.0}, {"a": 1.5, "b": 0.2}) == pytest.approx(3.2)

    def test_nonlinear_diffusion_example(self):
        ast = parse_expr("sin(t + xd1)")
        assert eval_expr(ast, {"t": 0.0, "xd1": np.pi / 2}, {}) == pytest.approx(1.0)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("sin(")
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("q1 + 1")

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ")

    def test_unary_functions(self):
        env = {"x1": -2.0}
        assert eval_expr(parse_expr("abs(x1)"), env, {}) == 2.0
        assert eval_expr(parse_expr("exp(0)"), env, {}) == 1.0
        assert eval_expr(parse_expr("-x1"), env, {}) == 2.0

    @pytest.mark.parametrize("source", [
        "+".join(["x1"] * 1200),  # a RecursionError in the tree walk once
        "+".join(["x1"] * 5000),  # ... and inside ast.parse
        "^".join(["x1"] * 5000),  # a MemoryError of Python's parser stack
        "-" * 5000 + "x1",
        "(" * 201 + "x1" + ")" * 201,  # Python's own limit on nested parentheses
        "sin(" * 300 + "x1" + ")" * 300,
    ], ids=["sum_1200", "sum_5000", "power_5000", "neg_5000", "parens_201", "sin_300"])
    def test_too_deep(self, source):
        with pytest.raises(ExprSyntaxError, match=r"^expression nested too deeply \(offset \d+\)$"):
            parse_expr(source)

    def test_deepest_accepted_tree_round_trips(self):
        terms = deepest_sum()
        assert 100 <= terms < 1200
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse_expr("+".join(["x1"] * (terms + 1)))
        tree = parse_expr("+".join(["x1"] * terms))
        # every walk of the tree stays within the recursion limit
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert parse_expr(print_expr(tree)) == tree and repr(tree)
        assert collect_vars(tree) == {"x1"}
        assert eval_expr(tree, {"x1": np.arange(3.0)}, {}).tolist() == [0.0, terms, 2.0 * terms]


def random_ast(rng, depth, d=2):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.integers(0, 4)
        if pick == 0:
            # canonical ASTs carry non-negative literals; negation is a neg node
            return Const(float(np.round(rng.uniform(0, 5), 3)))
        if pick == 1:
            return Param("p")
        if pick == 2:
            return Var("t")
        return Var(f"x{rng.integers(1, d + 1)}")
    if rng.random() < 0.3:
        op = ["sin", "cos", "exp", "abs", "neg"][rng.integers(0, 5)]
        return Unary(op, random_ast(rng, depth - 1, d))
    op = "+-*/^"[rng.integers(0, 5)]
    return Binary(op, random_ast(rng, depth - 1, d), random_ast(rng, depth - 1, d))


class TestRoundTrip:
    @given(st.integers(0, 2000))
    @settings(max_examples=300, deadline=None)
    def test_parse_print_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        ast = random_ast(rng, 4)
        text = print_expr(ast)
        again = parse_expr(text, params={"p": 1.0}, d=2)
        assert print_expr(again) == text
        assert again == ast


# --- the hand-written tokenizer and precedence climber that parse_expr
# replaced, kept as its oracle -------------------------------------------

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


def oracle_parse(source: str, params: dict | None = None, d: int = 1,
                 variables: set[str] | None = None):
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    allowed = variables if variables is not None else drift_variables(d)
    return _Parser(_tokenize(source), params or {}, allowed).parse()


@contextmanager
def no_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert [str(w.message) for w in caught] == []


# the language's tokens, and Python's that it has not
DSL_TOKENS = ["x1", "x2", "xd1", "s1", "t", "p", "e", "α", "q1", "sin", "cos", "exp", "abs", "foo",
              "0", "1", "2.5", ".5", "5.", "05", "007", "1e3", "1E-2", "1e+05",
              "+", "-", "*", "/", "^", "**", "(", ")", "(", ")"]
PYTHON_TOKENS = ["0x1", "1_0", "1j", "True", "x1.real", "if", "else", "and", "not", "<", "#", ",",
                 "1if", "2x1", "//", "%", "[", "]", ":", "lambda", "...", "'a'", "=", "@"]
PARAMS = {"p": 1.5, "e": 2.0, "α": 3.0}


class TestAgainstOracle:
    @given(st.lists(st.tuples(st.sampled_from(["", "", " ", "\t", "\n"]),
                              st.sampled_from(DSL_TOKENS * 3 + PYTHON_TOKENS)), max_size=9))
    @settings(max_examples=1500, deadline=None)
    def test_same_trees_and_rejections(self, parts):
        source = "".join(sep + token for sep, token in parts)
        try:
            want = repr(oracle_parse(source, PARAMS, d=2))
        except ExprSyntaxError:
            want = None
        with no_warnings():
            try:
                got = repr(parse_expr(source, PARAMS, d=2))
            except ExprSyntaxError as exc:
                got = None
                assert 0 <= exc.offset <= len(source)
        assert got == want

    @pytest.mark.parametrize("source,want", [
        # Python rejects an integer with leading zeros
        ("05", Const(5.0)),
        ("007 * x1", Binary("*", Const(7.0), Var("x1"))),
        (" \t\n x1 +\n\txd1", Binary("+", Var("x1"), Var("xd1"))),
        ("α * 2", Binary("*", Param("α"), Const(2.0))),  # ast's columns count UTF-8 bytes
        ("e+05 * 1e+05", Binary("+", Param("e"), Binary("*", Const(5.0), Const(1e5)))),
    ])
    def test_named_inputs(self, source, want):
        with no_warnings():
            assert parse_expr(source, PARAMS) == oracle_parse(source, PARAMS) == want

    @pytest.mark.parametrize("source,offset", [
        ("x1 +", 4), ("1 + * 2", 4), ("q1 + 1", 0), ("x1 + q1", 5), ("foo(x1)", 0), ("(x1", 3),
        ("x1)", 2), ("x1 2", 3), ("2 ^^ 3", 3), ("x1 $ 2", 3), ("α + q1", 4),
    ])
    def test_error_offsets(self, source, offset):
        with no_warnings(), pytest.raises(ExprSyntaxError) as exc:
            parse_expr(source, PARAMS)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("source", ["1if", "2x1", "(sin)(x1)", "sin(x1,)", "x1 # 2", "True",
                                        "x1 if t else 2", "1j", "0x1", "1_0", "x1.real", "٣"])
    def test_python_only_input_rejected(self, source):
        # the hand-written parser read ٣, an Arabic-Indic digit, as 3.0; Python's
        # tokenizer rejects every digit outside 0-9
        with no_warnings(), pytest.raises(ExprSyntaxError) as exc:
            parse_expr(source, PARAMS)
        assert 0 <= exc.value.offset <= len(source)


class TestCoefficientSet:
    def test_diffusion_variable_restriction(self):
        # rejected at parse time (restricted variable set) or at validation
        with pytest.raises(ValueError, match="x1"):
            CoefficientSet.from_strings(["xd1"], [["x1"]])

    def test_running_sup_in_drift_allowed(self):
        c = CoefficientSet.from_strings(["s1 + xd1"], [["t"]])
        assert collect_vars(c.drift[0]) == {"s1", "xd1"}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CoefficientSet.from_strings(["x1", "x2"], [["t"]])


class TestParams:
    @pytest.mark.parametrize("params,message", [
        ({"x1": 5.0, "t": 2.0}, "parameter 'x1' is the name of a variable"),
        ({"s2": 1.0}, "parameter 's2' is the name of a variable"),
        ([("a", 1.0), ("a", 2.0)], "parameter 'a' is given twice"),
        ({"lambda": 0.5}, "parameter 'lambda' is a Python keyword"),  # no expression can read it
    ])
    def test_rejected(self, params, message):
        # the parser reads a variable before a parameter: x1 = 5 would be ignored
        with pytest.raises(ValueError, match=f"^{message}$"):
            CoefficientSet.from_strings(["x1", "x2"], [["1"], ["1"]], params=params)

    def test_pairs_or_mapping(self):
        pairs = CoefficientSet.from_strings(["a * x1"], [["b"]], params=[("a", 2.0), ("b", 3.0)])
        assert pairs == CoefficientSet.from_strings(["a * x1"], [["b"]], params={"a": 2.0, "b": 3.0})
        assert pairs.params == {"a": 2.0, "b": 3.0}


class TestCompiled:
    def test_bit_equal_to_the_numpy_expression(self):
        c = CoefficientSet.from_strings(
            ["exp(-x1) * xd1 ^ 2 / (1 + s1)", "cos(t * x2) - a * abs(xd2) ^ 0.5 + sin(s1 - s2)"],
            [["xd1 / (1 + t)", "-xd2 ^ 3"], ["exp(xd1 - xd2)", "a"]], params={"a": 0.7})
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 2.0, 6)
        x, xd, s = rng.uniform(-2.0, 2.0, (3, 6, 4, 2))  # (K, P, d) rows
        tt = t[:, None]
        want_b = np.stack([
            np.exp(-x[..., 0]) * np.float_power(xd[..., 0], 2.0) / (1.0 + s[..., 0]),
            np.cos(tt * x[..., 1]) - 0.7 * np.float_power(np.abs(xd[..., 1]), 0.5)
            + np.sin(s[..., 0] - s[..., 1]),
        ], axis=-1)
        want_sig = np.stack([
            np.stack([xd[..., 0] / (1.0 + tt), -np.float_power(xd[..., 1], 3.0)], axis=-1),
            np.stack([np.exp(xd[..., 0] - xd[..., 1]), np.full(xd.shape[:2], 0.7)], axis=-1),
        ], axis=-2)
        assert eval_drift(c, t, x, xd, s).tobytes() == want_b.tobytes()
        assert eval_diffusion(c, t, xd).tobytes() == want_sig.tobytes()
        # one row, scalar t, as the Euler step loop calls it
        row = eval_drift(c, float(t[2]), x[2, 1], xd[2, 1], s[2, 1])
        assert row.tobytes() == want_b[2, 1].tobytes()
        assert eval_expr(c.drift[0], {"x1": x, "xd1": xd, "s1": s}, c.params).tobytes() == \
            (np.exp(-x) * np.float_power(xd, 2.0) / (1.0 + s)).tobytes()

    @pytest.mark.parametrize("source,want", [("1 / 0", np.inf), ("0 ^ -1", np.inf),
                                             ("(-1) ^ 0.5", np.nan), ("x1 / x1", np.nan)])
    def test_ieee_values_without_warnings(self, source, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eval_expr(parse_expr(source), {"x1": np.zeros(3)}, {})
            c = CoefficientSet.from_strings([source], [["1"]])
            row = coeff.drift_values(c, 0.0, np.zeros(1), np.zeros(1), np.zeros(1))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(row, [want])

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            eval_expr(parse_expr("x1 + a", {"a": 1.0}), {"x1": 1.0}, {})

    @pytest.mark.parametrize("name", ["linear_a.cfg", "nonlinear_b.cfg"])
    def test_pickled_problem_evaluates_the_same(self, name):
        p = load_config(str(resources.files("refsde") / "configs" / name)).problem
        t, x = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 2.0, 10).reshape(5, 2, 1)
        before = eval_drift(p.coeffs, t, x, x, x), eval_diffusion(p.coeffs, t, x)
        again = pickle.loads(pickle.dumps(p))  # after the compiled form was made
        assert again.coeffs == p.coeffs and again.coeffs is not p.coeffs
        after = eval_drift(again.coeffs, t, x, x, x), eval_diffusion(again.coeffs, t, x)
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]

    def test_compiled_once_per_set(self, monkeypatch):
        compiled = []

        def counted(node, *args):
            compiled.append(node)
            return compile_node(node, *args)

        compile_node = coeff._compile
        monkeypatch.setattr(coeff, "_compile", counted)
        c = CoefficientSet.from_strings(["cos(x1)", "xd1 * s2"], [["sin(t + xd1)"], ["0.5"]])
        key = id(c)
        evaluations = []
        for _ in range(3):
            eval_drift(c, 0.5, np.ones(2), np.ones(2), np.ones(2))
            eval_diffusion(c, np.zeros(2), np.ones((2, 2)))
            evaluations.append(len(compiled))
        assert evaluations[0] > 0 and evaluations == evaluations[:1] * 3
        del c
        gc.collect()
        assert key not in coeff._COMPILED  # a set's compiled form goes with it


def history_of(values):
    """Grid values of x over one delay interval that ends at the current time."""
    return np.asarray(values, float)


def drift_at(c, t, hist):
    # x(t) is the last row, x(t - r) the first, the running sup is over all rows
    return eval_drift(c, t, hist[-1], hist[0], np.abs(hist).max(axis=0))


class TestEvaluation:
    def test_drift_cos_at_zero(self):
        c = nonlinear_coeffs()
        hist = history_of(np.zeros((11, 1)))
        assert drift_at(c, 0.0, hist)[0] == pytest.approx(1.0)

    def test_drift_delayed_initial_segment(self):
        # drift xd1 with eta(t) = t + r evaluates to eta(-r) = 0 at t = 0
        c = linear_coeffs()
        times = np.linspace(-1.0, 0.0, 11)
        hist = history_of((times + 1.0)[:, None])
        assert drift_at(c, 0.0, hist)[0] == pytest.approx(0.0)

    def test_zero_drift(self):
        c = CoefficientSet.from_strings(["0", "0"], [["1"], ["1"]])
        hist = history_of(np.zeros((5, 2)))
        assert np.all(drift_at(c, 0.0, hist) == 0.0)

    def test_diffusion_constant_matrix(self):
        c = CoefficientSet.from_strings(["0"], [["2.5", "-1"]])
        out = eval_diffusion(c, 0.3, np.array([9.9]))
        assert np.array_equal(out, np.array([[2.5, -1.0]]))

    def test_diffusion_linear(self):
        c = CoefficientSet.from_strings(["0"], [["a * xd1 + b"]], params={"a": 2.0, "b": 1.0})
        assert eval_diffusion(c, 0.0, np.array([3.0]))[0, 0] == pytest.approx(7.0)

    def test_diffusion_purity(self):
        c = nonlinear_coeffs()
        a = eval_diffusion(c, 0.7, np.array([1.3]))
        b = eval_diffusion(c, 0.7, np.array([1.3]))
        assert np.array_equal(a, b)

    def test_diffusion_batch_matches_scalar(self):
        c = nonlinear_coeffs()
        ts = np.array([0.1, 0.5, 0.9])
        xs = np.array([[0.2], [1.0], [2.0]])
        batch = eval_diffusion(c, ts, xs)
        for k in range(3):
            assert np.allclose(batch[k], eval_diffusion(c, float(ts[k]), xs[k]))

    def test_drift_batch_matches_rows(self):
        c = CoefficientSet.from_strings(["cos(x1) + xd2 * s1", "2", "t * x3 - s2"],
                                        [["1"], ["1"], ["1"]])
        rng = np.random.default_rng(0)
        ts = np.array([0.1, 0.5, 0.9, 1.3])
        x, xd, sups = rng.uniform(0.0, 2.0, (3, 4, 3))
        batch = eval_drift(c, ts, x, xd, sups)
        assert batch.shape == (4, 3)
        for k in range(4):
            assert np.array_equal(batch[k], eval_drift(c, float(ts[k]), x[k], xd[k], sups[k]))

    def test_non_finite_drift_named(self):
        c = CoefficientSet.from_strings(["1 / t"], [["1"]])
        hist = history_of(np.zeros((5, 1)))
        with pytest.raises(ValueError, match="component 1"):
            drift_at(c, 0.0, hist)

    def test_non_finite_diffusion_names_its_row(self):
        c = CoefficientSet.from_strings(["0"], [["1", "1 / (1.5 - t)"]])
        ts = np.array([0.25, 0.5, 1.5, 1.75])
        with pytest.raises(ValueError) as exc:
            eval_diffusion(c, ts, np.ones((4, 1)))
        assert str(exc.value) == "diffusion entry (1,2) evaluated to inf at t=1.5"

    def test_lane_batch_reports_what_its_lane_reports(self):
        # (K, P, d) batches with t of shape (K,): the entry named is the
        # first non-finite one in time order, as its lane alone names it
        c = CoefficientSet.from_strings(["x1", "(xd2 - 1) ^ 0.5"],
                                        [["1"], ["(1 - xd1) ^ 0.5"]])
        ts = np.array([0.25, 0.5, 0.75, 1.0])
        x = np.full((4, 3, 2), 2.0)
        x[:, 0, 0] = 0.5  # the diffusion is finite on lane 0 only
        x[2, 1, 1] = 0.5  # drift component 2 is nan on lane 1 at t = 0.75
        x[3, 2, 1] = 0.0  # and on lane 2 at t = 1.0
        cases = [(lambda x: eval_drift(c, ts, x, x, x), "drift component 2 evaluated to nan at t=0.75"),
                 (lambda x: eval_diffusion(c, ts, x), "diffusion entry (2,1) evaluated to nan at t=0.25")]
        for evaluate, message in cases:
            with pytest.raises(ValueError) as batch:
                evaluate(x)
            with pytest.raises(ValueError) as lane:
                evaluate(x[:, 1:2])
            assert str(batch.value) == str(lane.value) == message
        with pytest.raises(ValueError, match="^drift component 2 evaluated to nan at t=0.75$"):
            eval_drift(c, 0.75, x[2], x[2], x[2])  # one row per lane, scalar t


AUDIT_SETS = {
    "linear_a": (["xd1"], [["a * xd1 + b"]], {"a": 0.2, "b": 0.1}, 1),
    "nonlinear_b": (["cos(x1)"], [["sin(t + xd1)"]], {}, 2),
    "two_dim": (["cos(x1) - 0.5 * xd2", "sin(x2) * xd1 - s1"],
                [["0.2 * xd1", "0.1"], ["sin(xd2)", "0.3"]], {}, 3),
}
# hypothesis_audit(..., n_samples=200, seed, delay=0.3) over the box [0, 2]^d,
# as it reported with one evaluator call per sample; the flags that are set
AUDIT_GOLDEN = {
    "linear_a": (dict(m0_spatial=0.2000000000000024, m0_time=None, beta=None,
                      lipschitz_drift=1.0, k0=0.19990009990009988, gamma=0.954662446384412,
                      b0_l_one_over_alpha=0.0), []),
    "nonlinear_b": (dict(m0_spatial=0.9797183865399307, m0_time=0.8475176397309669,
                         beta=0.9874996267957441, lipschitz_drift=0.8817837729778075,
                         k0=0.4999829802582746, gamma=0.0, b0_l_one_over_alpha=1.0), []),
    "two_dim": (dict(m0_spatial=0.9805987726461927, m0_time=None, beta=None,
                     lipschitz_drift=1.327255569614407, k0=0.44907488157500697,
                     gamma=0.8236482591154879, b0_l_one_over_alpha=1.0), ["l0"]),
}


def audit_of(name):
    drift, diffusion, params, seed = AUDIT_SETS[name]
    c = CoefficientSet.from_strings(drift, diffusion, params=params)
    box = ([0.0] * c.d, [2.0] * c.d)
    return hypothesis_audit(c, box, n_samples=200, seed=seed, delay=0.3)


class TestAudit:
    @pytest.mark.parametrize("name", sorted(AUDIT_GOLDEN))
    def test_report_as_recorded(self, name):
        # the draws, their order and their counts are those of the one-call-
        # per-sample audit; only the rounding of the norms may differ
        report = dataclasses.asdict(audit_of(name))
        want, flagged = AUDIT_GOLDEN[name]
        assert [key for key, on in report.pop("flags").items() if on] == flagged
        for key, value in want.items():
            assert report[key] == (value if value is None else pytest.approx(value, rel=1e-12))

    @pytest.mark.parametrize("name", sorted(AUDIT_GOLDEN))
    def test_one_evaluator_call_per_probe(self, name, monkeypatch):
        calls = []
        for fn in ("eval_drift", "eval_diffusion"):
            def counted(*args, _fn=getattr(coeff, fn), _name=fn):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(coeff, fn, counted)
        audit_of(name)
        # sigma's Lipschitz and Hoelder probes, the drift's Lipschitz probe,
        # the residual b0 and sigma's growth
        assert sorted(calls) == ["eval_diffusion"] * 3 + ["eval_drift"] * 2

    def test_sine_diffusion(self):
        c = nonlinear_coeffs()
        rep = hypothesis_audit(c, ([0.0], [2.0]), n_samples=400, seed=0)
        assert rep.m0_spatial <= 1.05
        # bounded sigma: growth exponent ~ 0 and, under the 1 + |x|^gamma
        # normalisation, the fitted prefactor sits near max|sigma| / 2
        assert 0.4 <= rep.k0 <= 1.05
        assert rep.gamma == pytest.approx(0.0, abs=0.1)

    def test_linear_diffusion(self):
        c = CoefficientSet.from_strings(["0"], [["2 * xd1"]])
        rep = hypothesis_audit(c, ([0.0], [2.0]), n_samples=400, seed=1)
        assert rep.m0_spatial == pytest.approx(2.0, abs=0.05)
        assert rep.gamma == pytest.approx(1.0, abs=0.05)
        assert not rep.flags["gamma"]

    def test_superlinear_diffusion_sets_the_gamma_flag(self):
        # the fitted slope is 2; the reported gamma is clipped to 1, the flag
        # reads the slope before the clip
        c = CoefficientSet.from_strings(["xd1"], [["xd1 ^ 2"]])
        rep = hypothesis_audit(c, ([0.0], [2.0]), n_samples=200, seed=0)
        assert rep.gamma == 1.0
        assert rep.flags["gamma"]

    def test_constant_diffusion(self):
        c = CoefficientSet.from_strings(["0"], [["3"]])
        rep = hypothesis_audit(c, ([0.0], [1.0]), n_samples=100, seed=2)
        assert rep.m0_spatial == pytest.approx(0.0, abs=1e-9)

    def test_delayed_reads_are_grid_values(self, monkeypatch):
        # at a delay that is no multiple of 1/16 the delayed argument must still
        # be a sampled grid value, not an interpolation between two of them
        draws, calls = [], []
        draw, evaluate = coeff._draws, coeff.eval_drift

        def recording_draws(*args):
            draws.append(draw(*args))
            return draws[-1]

        def recording_eval(c, t, x, x_delayed, sups):
            calls.append((t, x, x_delayed, sups))
            return evaluate(c, t, x, x_delayed, sups)

        monkeypatch.setattr(coeff, "_draws", recording_draws)
        monkeypatch.setattr(coeff, "eval_drift", recording_eval)
        c = CoefficientSet.from_strings(["cos(x1) + xd1 * s1"], [["0.5 * xd1"]])
        hypothesis_audit(c, ([0.0], [2.0]), n_samples=200, seed=1, delay=0.3)
        # the Lipschitz probe draws a pair of histories and a row k per sample,
        # and evaluates the drift at row k of both in one call; the b0
        # residual's call reads zeros
        (hists, ks), = [d for d in draws if d[0].ndim == 4]
        (t, x, xd, sups), = [call for call in calls if np.ndim(call[1]) == 3]
        assert x.shape == (50, 2, 1) and hists.shape == (50, 2, 18, 1)
        for j, lane in np.ndindex(x.shape[:2]):
            hist, k = hists[j, lane], ks[j]
            # row k sits at t on a uniform grid that starts at -delay, and the
            # delayed argument is the grid value n_delay = 4 steps of 0.075 earlier
            assert t[j] == pytest.approx(-0.3 + 0.075 * k, abs=1e-12)
            assert np.array_equal(x[j, lane], hist[k])
            assert np.array_equal(xd[j, lane], hist[k - 4])
            assert np.array_equal(sups[j, lane], np.abs(hist[: k + 1]).max(axis=0))

    def test_deterministic(self):
        c = linear_coeffs()
        a = hypothesis_audit(c, ([0.0], [2.0]), n_samples=100, seed=3)
        b = hypothesis_audit(c, ([0.0], [2.0]), n_samples=100, seed=3)
        assert a == b

    @pytest.mark.parametrize("lo,hi", [(0.0, float("inf")), (float("nan"), 2.0),
                                       (-1e308, 1e308)])
    def test_rejects_a_box_without_finite_width(self, lo, hi):
        # uniform draws over such a box overflow: an error, not a traceback
        with pytest.raises(ValueError, match="finite width"):
            hypothesis_audit(linear_coeffs(), ([lo], [hi]), n_samples=10)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_no_samples(self, n_samples):
        # no sample would leave every estimate at its starting value, 0 or None
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            hypothesis_audit(linear_coeffs(), ([0.0], [2.0]), n_samples=n_samples)
