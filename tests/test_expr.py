import numpy as np
import pytest

from semigeo.errors import EvalError, FieldSyntaxError, UnknownSymbol, VariableOutOfRange
from semigeo.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    eval_field,
    eval_field_on,
    format_field,
    parse_field,
    variables,
)


def ev(text, point=(0.0,), n=None):
    return eval_field(parse_field(text, n if n is not None else len(point)), point)


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

    def test_garbage_after_expression(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("1 + 2 )", 1)


CORPUS = [
    "0",
    "-x1",
    "x1 + x2 * x3",
    "(x1 + x2) * x3",
    "x1 - (x2 - x3)",
    "-(x1 + 1)",
    "x1^2^3",
    "(x1^2)^3",
    "-x1^2",
    "(-x1)^2",
    "2 / x1 / x2",
    "2 / (x1 / x2)",
    "cos(x1)^2 - sin(x2 * x3)",
    "1.5 * exp(-x1^2) + sqrt(abs(x2))",
    "x1 * -x2",
]


class TestFormat:
    @pytest.mark.parametrize("text", CORPUS)
    def test_format_parse_roundtrip_is_identity(self, text):
        tree = parse_field(text, 3)
        printed = format_field(tree)
        assert parse_field(printed, 3) == tree
        # and printing is a fixed point after one pass
        assert format_field(parse_field(printed, 3)) == printed

    def test_integral_constants_print_without_decimal(self):
        assert format_field(parse_field("2.0", 1)) == "2"
        assert format_field(parse_field("2.5", 1)) == "2.5"

    def test_random_trees_roundtrip(self):
        rng = np.random.default_rng(2024)

        def tree(depth):
            # only parser-producible shapes: literals are unsigned (a
            # leading minus always parses as Neg)
            pick = rng.integers(0, 6 if depth < 4 else 2)
            if pick == 0:
                return Num(float(rng.integers(0, 4)))
            if pick == 1:
                return Var(int(rng.integers(1, 4)))
            if pick == 2:
                return Neg(tree(depth + 1))
            if pick == 3:
                return Call(["sin", "cos", "exp", "abs"][rng.integers(0, 4)], tree(depth + 1))
            op = "+-*/^"[rng.integers(0, 5)]
            return BinOp(op, tree(depth + 1), tree(depth + 1))

        for _ in range(200):
            t = tree(0)
            assert parse_field(format_field(t), 3) == t


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

    def test_missing_coordinate_value(self):
        expr = parse_field("x2", 2)
        with pytest.raises(EvalError):
            eval_field(expr, (1.0,))
