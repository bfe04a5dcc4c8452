"""Tiny expression language for coordinate fields.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary -
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are ``x1 .. xn``; functions are sin, cos, tan, sinh, cosh, exp,
log, sqrt, abs.  Evaluation is IEEE double and every invalid operation
(division by zero, log/sqrt domain, non-finite result) raises
:class:`~semigeo.errors.EvalError` instead of propagating NaN or inf.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, FieldSyntaxError, UnknownSymbol, VariableOutOfRange

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate index


@dataclass(frozen=True)
class Neg:
    operand: "FieldExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "FieldExpr"
    right: "FieldExpr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "FieldExpr"


FieldExpr = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------- tokenizer

_OPS = set("+-*/^()")


def _tokenize(text):
    """Yield (kind, value, position) triples; kind in {num, ident, op}."""
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < size and text[i + 1].isdigit()):
            j = i
            while j < size and text[j].isdigit():
                j += 1
            if j < size and text[j] == ".":
                j += 1
                while j < size and text[j].isdigit():
                    j += 1
            if j < size and text[j] in "eE":
                k = j + 1
                if k < size and text[k] in "+-":
                    k += 1
                if k < size and text[k].isdigit():
                    j = k
                    while j < size and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise FieldSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, n, text_len):
        self.tokens = tokens
        self.n = n
        self.pos = 0
        self.text_len = text_len

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of expression", self.text_len)
        self.pos += 1
        return tok

    def _expect_op(self, op):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise FieldSyntaxError(f"expected {op!r}", tok[2])

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise FieldSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                node = BinOp(tok[1], node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.pos += 1
                node = BinOp(tok[1], node, self.unary())
            else:
                return node

    def unary(self):
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self._next()
        kind, value, pos = tok
        if kind == "num":
            number = float(value)
            if not np.isfinite(number):
                raise FieldSyntaxError(f"number {value!r} is not finite", pos)
            return Num(number)
        if kind == "op" and value == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(value, arg)
            if value.startswith("x") and value[1:].isdigit():
                index = int(value[1:])
                if not 1 <= index <= self.n:
                    raise VariableOutOfRange(
                        f"variable {value} out of range for dimension {self.n}", pos
                    )
                return Var(index)
            raise UnknownSymbol(f"unknown symbol {value!r}", pos)
        raise FieldSyntaxError(f"unexpected token {value!r}", pos)


def parse_field(text, n):
    """Parse ``text`` into a FieldExpr over coordinates x1..x``n``."""
    if not isinstance(n, int) or n < 1:
        raise FieldSyntaxError("dimension must be a positive integer", 0)
    return _Parser(_tokenize(text), n, len(text)).parse()


# ------------------------------------------------------------------ printer

# precedence: +- = 1, */ = 2, unary - = 3, ^ = 4, atoms = 5
def _prec(node):
    if isinstance(node, BinOp):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def format_field(node):
    """Render a FieldExpr to text; parse(format_field(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        if node.value == int(node.value) and abs(node.value) < 1e16:
            return str(int(node.value))
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.func}({format_field(node.arg)})"
    if isinstance(node, Neg):
        inner = format_field(node.operand)
        if _prec(node.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    left, right = format_field(node.left), format_field(node.right)
    if node.op in "+-":
        # right operand at the same level would re-associate: keep parens
        if isinstance(node.right, BinOp) and node.right.op in "+-":
            right = f"({right})"
    elif node.op in "*/":
        if _prec(node.left) < 2:
            left = f"({left})"
        if _prec(node.right) <= 2:
            right = f"({right})"
    else:  # ^ is right-assoc and binds above unary minus
        if _prec(node.left) <= 4:
            left = f"({left})"
        if isinstance(node.right, BinOp) and node.right.op != "^":
            right = f"({right})"
    return f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"


# ---------------------------------------------------------------- evaluator


def _eval(node, coords):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index > len(coords):
            raise EvalError(f"no value supplied for x{node.index}")
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -_eval(node.operand, coords)
    if isinstance(node, Call):
        arg = _eval(node.arg, coords)
        if node.func == "log" and np.any(np.asarray(arg) <= 0.0):
            raise EvalError("log of a non-positive value")
        if node.func == "sqrt" and np.any(np.asarray(arg) < 0.0):
            raise EvalError("sqrt of a negative value")
        with np.errstate(all="ignore"):
            out = FUNCTIONS[node.func](arg)
        if not np.all(np.isfinite(out)):
            raise EvalError(f"{node.func} produced a non-finite value")
        return out
    left = _eval(node.left, coords)
    right = _eval(node.right, coords)
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


def eval_field(expr, point):
    """Evaluate at a single point (sequence of n reals); returns a float."""
    return float(_eval(expr, [float(c) for c in point]))


def eval_field_on(expr, coords):
    """Evaluate over broadcastable coordinate arrays; returns an ndarray.

    ``coords`` is a sequence of n arrays (or scalars) that numpy can
    broadcast against each other, one per coordinate x1..xn.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in coords]
    out = _eval(expr, arrays)
    return np.asarray(out, dtype=np.float64) + np.zeros(np.broadcast(*arrays).shape)


def variables(expr):
    """Set of 1-based coordinate indices the expression references."""
    if isinstance(expr, Var):
        return {expr.index}
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        return variables(expr.arg)
    return set()
