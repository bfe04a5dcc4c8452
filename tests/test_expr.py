import random
import re
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from _replaced_parser import _program as reference_program
from _replaced_parser import BinOp, Call, Neg, Num, Var, reference_parse_field
from semigeo.errors import EvalError, FieldSyntaxError, UnknownSymbol, VariableOutOfRange
from semigeo.expr import FUNCTIONS, eval_field_on, parse_field, variables


def ev(text, point=(0.0,), n=None):
    return float(eval_field_on(parse_field(text, n if n is not None else len(point)), point))


class TestPrecedence:
    def test_mul_binds_above_add(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_parens_override(self):
        assert ev("(2 + 3) * 4") == 20.0

    def test_power_binds_above_mul(self):
        assert ev("2 * 3^2") == 18.0

    def test_power_binds_above_unary_minus(self):
        # -2^2 reads as -(2^2)
        assert ev("-2^2") == -4.0
        assert ev("(-2)^2") == 4.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_sub_left_associative(self):
        assert ev("2 - 3 - 4") == -5.0

    def test_div_left_associative(self):
        assert ev("8 / 4 / 2") == 1.0

    def test_unary_minus_stacks(self):
        assert ev("--3") == 3.0
        assert ev("2 - -3") == 5.0

    def test_unary_minus_in_product(self):
        assert ev("2 * -3") == -6.0


class TestFunctions:
    @pytest.mark.parametrize(
        "name,ref",
        [
            ("sin", np.sin),
            ("cos", np.cos),
            ("tan", np.tan),
            ("sinh", np.sinh),
            ("cosh", np.cosh),
            ("exp", np.exp),
        ],
    )
    def test_matches_numpy(self, name, ref):
        for x in (-1.3, -0.2, 0.0, 0.7, 1.9):
            assert ev(f"{name}(x1)", (x,)) == pytest.approx(float(ref(x)), abs=0, rel=1e-15)

    def test_log_sqrt_abs(self):
        assert ev("log(x1)", (np.e,)) == pytest.approx(1.0)
        assert ev("sqrt(x1)", (9.0,)) == 3.0
        assert ev("abs(x1)", (-2.5,)) == 2.5

    def test_nested_calls(self):
        assert ev("cos(sin(x1))", (0.3,)) == pytest.approx(np.cos(np.sin(0.3)))

    def test_whitespace_insignificant(self):
        assert ev("  cos( x1 ) ^ 2+ 1 ", (0.4,)) == pytest.approx(np.cos(0.4) ** 2 + 1)


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1 / x1", (0.0,))

    def test_log_of_zero_and_negative(self):
        with pytest.raises(EvalError):
            ev("log(x1)", (0.0,))
        with pytest.raises(EvalError):
            ev("log(x1)", (-1.0,))

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(x1)", (-1e-12,))

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvalError):
            ev("exp(x1)", (1e6,))

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            ev("x1^-1", (0.0,))

    def test_errors_never_return_nan(self):
        # 0/0 via expression must raise, not return NaN
        with pytest.raises(EvalError):
            ev("x1 / x1", (0.0,))


class TestParseErrors:
    def test_trailing_operator(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("2 +", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("sin(x1", 1)

    def test_empty_input(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("", 1)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_field("y1 + 1", 2)

    def test_unknown_function(self):
        with pytest.raises(UnknownSymbol):
            parse_field("arcsin(x1)", 1)

    def test_variable_beyond_dimension(self):
        with pytest.raises(VariableOutOfRange):
            parse_field("x3", 2)

    def test_x0_rejected(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("x0", 2)

    def test_no_implicit_multiplication(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("2 x1", 1)

    def test_error_carries_position(self):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field("1 + @", 1)
        assert exc.value.position == 4

    def test_non_finite_literal_rejected_at_its_position(self):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field("x1 + 1e999", 1)
        assert exc.value.position == 5
        assert "not finite" in str(exc.value)

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(FieldSyntaxError, match="nested too deeply"):
            parse_field("(" * 1000 + "x1" + ")" * 1000, 1)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(" * 900 + "x1" + ")" * 900, None),
            ("(" * 901 + "x1" + ")" * 901, 900),
            ("-" * 900 + "x1", 902),
            ("-" * 901 + "x1", 900),
            ("sin(" * 901 + "x1" + ")" * 901, 3600),
            ("x1 * (" * 450 + "x1" + ")" * 450, None),
            ("x1 * (" * 451 + "x1" + ")" * 451, 2703),
        ],
        ids=["parens", "parens-past", "minus", "minus-past", "calls-past", "mixed", "mixed-past"],
    )
    def test_nesting_cap(self, text, position):
        # a fixed count of pending parentheses, calls and operators, and
        # of nodes in height: 900 minus signs over x1 are 901 nodes high
        if position is None:
            parse_field(text, 1)
        else:
            with pytest.raises(FieldSyntaxError, match="nested too deeply") as exc:
                parse_field(text, 1)
            assert exc.value.position == position

    def test_nesting_does_not_depend_on_the_call_stack(self):
        def parse_below(frames):
            if frames:
                return parse_below(frames - 1)
            return parse_field("(" * 150 + "x1" + ")" * 150, 1)

        assert parse_below(300) == parse_field("x1", 1)

    def test_long_power_chain(self):
        # right-associative: 599 operators pending before the last operand
        expr = parse_field("^".join(["x1"] * 600), 1)
        assert float(eval_field_on(expr, (1.0,))) == 1.0

    def test_garbage_after_expression(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("1 + 2 )", 1)

    @pytest.mark.parametrize(
        "text, position",
        [("x1²", 2), ("²", 0), ("①", 0), ("٣+x1", 0), ("1.٣", 2), ("2e٣", 2), ("x_٣", 2)],
    )
    def test_non_ascii_digit_rejected_at_its_position(self, text, position):
        # str.isdigit accepts these, but they are neither numbers nor names here
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field(text, 2)
        assert exc.value.position == position
        assert "unexpected character" in str(exc.value)


def _kind(ins):
    """What an instruction of a FieldExpr's code does."""
    if ins[0] == "n":
        return "num"
    if ins[0] == "x":
        return "var"
    if len(ins) == 3:
        return "operator"
    return "neg" if ins[0] == "-" else "call"


@pytest.mark.parametrize(
    "a, b, equal",
    [
        ("x1+x1", "(x1)+(x1)", True),
        ("2*x2 - sin(x1)^2", "(2.0 * x2) - ((sin((x1))) ^ 2)", True),
        ("(x1+x2)-x1", "(x1+x2)-x2", False),
        ("x1*x1", "x1*x2", False),
        ("x1+x2", "x2+x1", False),
    ],
)
def test_parses_are_equal_exactly_when_their_trees_are(a, b, equal):
    first, second = parse_field(a, 2), parse_field(b, 2)
    assert (first == second) is equal
    assert (reference_parse_field(a, 2) == reference_parse_field(b, 2)) is equal
    if equal:
        assert hash(first) == hash(second)
    elif len(first.code) == len(second.code):
        # the same instruction kinds, reading other slots
        assert list(map(_kind, first.code)) == list(map(_kind, second.code))


class TestFormat:
    def test_deep_tree_is_refused_at_parse(self):
        # the text format holds at most MAX_DEPTH terms in one sum and
        # MAX_DEPTH pending parentheses; one more is refused where it is read
        assert ev("+".join(["x1"] * 900), (1.0,)) == 900.0
        with pytest.raises(FieldSyntaxError, match="nested too deeply") as exc:
            parse_field("+".join(["x1"] * 901), 1)
        assert exc.value.position == 2702
        assert ev("(" * 900 + "x1" + ")" * 900, (2.0,)) == 2.0
        with pytest.raises(FieldSyntaxError, match="nested too deeply") as exc:
            parse_field("(" * 901 + "x1" + ")" * 901, 1)
        assert exc.value.position == 900


class TestEval:
    def test_eval_field_on_broadcasts(self):
        expr = parse_field("x1 * x2", 2)
        a = np.array([1.0, 2.0, 3.0])[:, None]
        b = np.array([10.0, 20.0])[None, :]
        out = eval_field_on(expr, (a, b))
        assert out.shape == (3, 2)
        assert np.array_equal(out, a * b)

    def test_eval_field_on_constant_fills_shape(self):
        expr = parse_field("7", 2)
        out = eval_field_on(expr, (np.zeros(4), np.zeros(4)))
        assert out.shape == (4,)
        assert np.all(out == 7.0)

    def test_variables_listing(self):
        assert variables(parse_field("x1 + cos(x3)", 3)) == {1, 3}
        assert variables(parse_field("4", 3)) == set()

    def test_deep_tree_is_refused_at_parse(self):
        with pytest.raises(FieldSyntaxError, match="nested too deeply") as exc:
            parse_field("+".join(["x1"] * 3000), 1)
        assert exc.value.position == 2702
        # only a parse makes a program: any other value is an EvalError
        for value, name in (("x1", "str"), (None, "NoneType")):
            for call in (
                lambda: eval_field_on(value, (1.0,)),
                lambda: eval_field_on(value, (np.ones(3),)),
                lambda: variables(value),
            ):
                with pytest.raises(EvalError, match=f"^{name} was not made by parse_field$"):
                    call()

    def test_depth_cap_counts_a_shared_subtree_where_it_sits_deepest(self):
        # the 800-term sum is built first on the left, 800 high; under
        # 150 minus signs on the right the 101st is 901 high, built at
        # the end of the text
        inner = "+".join(["x1"] * 800)
        assert float(eval_field_on(parse_field(inner, 1), (1.0,))) == 800.0
        text = f"({inner}) + {'-' * 150}({inner})"
        with pytest.raises(FieldSyntaxError, match="nested too deeply") as exc:
            parse_field(text, 1)
        assert exc.value.position == len(text) == 4955
        ok = parse_field(f"({inner}) + {'-' * 99}({inner})", 1)
        # the sum's 800 instructions appear once, then the minus signs and
        # the root, which reads the sum's slot again
        sum_code = parse_field(inner, 1).code
        top = len(sum_code) - 1
        assert len(sum_code) == 800 and ok.code[:800] == sum_code
        minuses = (("-", top),) + tuple(("-", ~slot) for slot in range(800, 898))
        assert ok.code[800:] == minuses + (("+", ~top, ~898),)
        assert float(eval_field_on(ok, (1.0,))) == 0.0
        assert variables(ok) == {1}

    def test_missing_coordinate_value(self):
        expr = parse_field("x2", 2)
        with pytest.raises(EvalError):
            eval_field_on(expr, (1.0,))


# ------------------------------------------------- reference evaluator


def reference_eval(node, coords):
    """Recursive evaluation with the semantics the compiled program keeps:
    literals stay Python floats, and each operation is checked, in
    postorder, before its parent runs."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index > len(coords):
            raise EvalError(f"no value supplied for x{node.index}")
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -reference_eval(node.operand, coords)
    if isinstance(node, Call):
        arg = reference_eval(node.arg, coords)
        if node.func == "log" and np.any(np.asarray(arg) <= 0.0):
            raise EvalError("log of a non-positive value")
        if node.func == "sqrt" and np.any(np.asarray(arg) < 0.0):
            raise EvalError("sqrt of a negative value")
        with np.errstate(all="ignore"):
            out = FUNCTIONS[node.func](arg)
        if not np.all(np.isfinite(out)):
            raise EvalError(f"{node.func} produced a non-finite value")
        return out
    left = reference_eval(node.left, coords)
    right = reference_eval(node.right, coords)
    if node.op == "/" and np.any(np.asarray(right) == 0.0):
        raise EvalError("division by zero")
    with np.errstate(all="ignore"):
        if node.op == "+":
            out = left + right
        elif node.op == "-":
            out = left - right
        elif node.op == "*":
            out = left * right
        elif node.op == "/":
            out = left / right
        else:
            out = np.power(left, right, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise EvalError(f"operator {node.op!r} produced a non-finite value")
    return out


def reference(expr, coords):
    arrays = [np.asarray(c, dtype=np.float64) for c in coords]
    out = reference_eval(expr, arrays)
    return np.asarray(out, dtype=np.float64) + np.zeros(np.broadcast(*arrays).shape)


LEAVES = ("x1", "x2", "x3", "0", "0.5", "2", "3", "1e300", "1e-300")


def _draw(rng, pool, depth):
    """Expression text; half the draws reuse an earlier subexpression."""
    if pool and rng.random() < 0.5:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        text = rng.choice(LEAVES)
    elif rng.random() < 0.35:
        text = f"{rng.choice(sorted(FUNCTIONS))}({_draw(rng, pool, depth - 1)})"
    elif rng.random() < 0.15:
        text = f"-({_draw(rng, pool, depth - 1)})"
    else:
        left, right = _draw(rng, pool, depth - 1), _draw(rng, pool, depth - 1)
        text = f"({left} {rng.choice('+-*/^')} {right})"
    pool.append(text)
    return text


def _walk(node):
    """Every node of the tree, a repeated subtree once per occurrence."""
    yield node
    for field in ("left", "right", "operand", "arg"):
        if hasattr(node, field):
            yield from _walk(getattr(node, field))


def _corpus(seed, count):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        pool = []
        parts = [_draw(rng, pool, rng.randrange(2, 7)) for _ in range(3)]
        texts.append(f"{parts[0]} {rng.choice('+-*/^')} {parts[1]} * {parts[2]}")
    return texts


def _outcome(evaluate, expr, coords):
    try:
        return "value", evaluate(expr, coords).view(np.int64).tolist()
    except EvalError as err:
        return type(err).__name__, str(err)


REFERENCE_COORDS = {
    "scalar": (0.3, -0.7, 1.25),
    "scalar-zero": (0.0, 2.0, -1.0),
    "broadcast": (
        np.array([-1.5, -0.5, 0.0, 0.25, 2.0])[:, None],
        np.array([0.0, 1.0, -2.0])[None, :],
        0.5,
    ),
    "broadcast-positive": (np.array([0.1, 0.7, 1.3])[:, None], np.array([0.4, 2.5])[None, :], 3.0),
}


class TestAgainstReference:
    TEXTS = _corpus(20261019, 240)

    def test_draws_cover_the_language_with_reuse(self):
        joined = " ".join(self.TEXTS)
        assert all(f"{name}(" in joined for name in FUNCTIONS)
        assert "^" in joined and "-(" in joined
        nodes = sum(len(list(_walk(reference_parse_field(text, 3)))) for text in self.TEXTS)
        # a parse keeps a repeated subtree once: one instruction per distinct one
        distinct = sum(len(parse_field(text, 3).code) for text in self.TEXTS)
        assert nodes > 2 * distinct

    @pytest.mark.parametrize("where", sorted(REFERENCE_COORDS))
    def test_same_bits_or_same_error(self, where):
        coords = REFERENCE_COORDS[where]
        kinds = set()
        for text in self.TEXTS:
            expected = _outcome(reference, reference_parse_field(text, 3), coords)
            assert _outcome(eval_field_on, parse_field(text, 3), coords) == expected, text
            kinds.add(expected[0] if expected[0] == "value" else expected[1])
        assert "value" in kinds and len(kinds) >= 4, kinds


# ------------------------------------------- reference (recursive) parser

# tokens of the random strings: non-finite and malformed literals, names
# that are neither variables nor functions, function names with no "("
# and unbalanced parentheses; a few strings also get a bad character
VOCABULARY = (
    "x1", "x2", "x3", "x0", "x", "y", "0", "2", "0.5", "1e999", "1e", ".5e-3",
    "+", "-", "-", "*", "/", "^", "(", "(", ")", ")", "sin", "cos(", "log", "sqrt(", "abs(",
)
BAD = ("@", "²", ",", "٣")
ATOMS = ("x1", "x2", "x3", "0", "2", "0.5", "1e-3")


def _token_string(rng):
    parts = [rng.choice(VOCABULARY) for _ in range(rng.randrange(10))]
    if rng.random() < 0.05:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(BAD))
    return "".join(part + rng.choice(("", " ", " ", " ")) for part in parts)


def _structured(rng, pool, depth):
    """Expression text with few parentheses, so precedence decides the
    shape; two draws in five reuse an earlier subexpression."""
    if pool and rng.random() < 0.4:
        return rng.choice(pool)
    pick = rng.random()
    if depth == 0 or pick < 0.2:
        text = rng.choice(ATOMS)
    elif pick < 0.35:
        text = f"{rng.choice(sorted(FUNCTIONS))}({_structured(rng, pool, depth - 1)})"
    elif pick < 0.45:
        text = "-" + _structured(rng, pool, depth - 1)
    elif pick < 0.55:
        text = f"({_structured(rng, pool, depth - 1)})"
    else:
        left, right = _structured(rng, pool, depth - 1), _structured(rng, pool, depth - 1)
        text = f"{left} {rng.choice('+-*/^')} {right}"
    pool.append(text)
    return text


def _reference_code(text, n):
    """The program the replaced compiler makes of the replaced parser's
    tree, in the form of ``FieldExpr.code``."""
    tree = reference_parse_field(text, n)
    nodes, reads = reference_program(tree)
    read = iter(reads.tolist()).__next__
    code = []
    for node in chain(nodes, (tree,)):
        kind = type(node)
        if kind is Num:
            code.append(("n", node.value))
        elif kind is Var:
            code.append(("x", node.index))
        elif kind is Neg:
            code.append(("-", read()))
        elif kind is Call:
            code.append((node.func, read()))
        else:
            code.append((node.op, read(), read()))
    return tuple(code)


def _parsed(code_of, text, n):
    """("program", the code ``code_of`` makes of ``text``), or the error
    it raises."""
    try:
        return "program", code_of(text, n)
    except FieldSyntaxError as err:
        return type(err).__name__, str(err), err.position


class TestAgainstReplacedParser:
    """The one-loop parser against the recursive-descent one it replaced:
    the same error type, message and position, or the code it makes is
    the program the replaced compiler makes of the replaced parser's tree."""

    @pytest.mark.parametrize("draw", ["token-strings", "structured"])
    def test_same_error_or_same_program(self, draw):
        rng = random.Random(20261019)
        outcomes = {}
        for _ in range(20_000):
            if draw == "token-strings":
                text, n = _token_string(rng), rng.randrange(1, 4)
            else:
                text, n = _structured(rng, [], rng.randrange(1, 5)), 3
            expected = _parsed(_reference_code, text, n)
            assert _parsed(lambda t, k: parse_field(t, k).code, text, n) == expected, (text, n)
            key = "program" if expected[0] == "program" else expected[1].split(" (at")[0]
            outcomes[key] = outcomes.get(key, 0) + 1
        assert all("nested too deeply" not in key for key in outcomes)
        if draw == "token-strings":
            # every kind of parse error shows up, and some strings parse
            fixed = {"program", "unexpected end of expression", "expected '('", "expected ')'"}
            assert fixed <= set(outcomes)
            for kind in ("unexpected token", "unexpected character", "number", "unknown", "variable"):
                assert any(key.startswith(kind) for key in outcomes), kind
        else:
            assert outcomes == {"program": 20_000}


class TestMemory:
    def test_parsed_fields_and_their_programs_stay_small(self):
        # the 55 KB metric scenario: 18,420 tree nodes, 1,490 distinct
        # subtrees; as trees of distinct objects they held about 1.9 MB
        path = Path(__file__).parents[1] / "perfbench" / "inputs" / "metric3d-seed11.fields"
        sources = re.findall(r'^\S+ = "(.*)"$', path.read_text(), flags=re.M)
        assert len(sources) == 9
        coords = (np.array([-0.3, 0.0, 0.3])[:, None], np.array([0.0, 0.5, 1.0]), 0.5)
        tracemalloc.start()
        try:
            trees = [parse_field(source, 3) for source in sources]
            for tree in trees:
                assert eval_field_on(tree, coords).shape == (3, 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1_000_000
