"""Tiny expression language for coordinate fields.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary -
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

NUMBER is an ASCII decimal literal, the pattern ``NUMBER`` below.
Variables are ``x1 .. xn``; functions are sin, cos, tan, sinh, cosh, exp,
log, sqrt, abs.  Evaluation is IEEE double and every invalid operation
(division by zero, log/sqrt domain, non-finite result) raises
:class:`~semigeo.errors.EvalError` instead of propagating NaN or inf.
The parser is recursive descent and interns each node it builds, with
one table per ``parse_field`` call, so equal subtrees of a parse are one
object: a parsed tree is a DAG.  Nesting past the interpreter's
recursion limit is a FieldSyntaxError while parsing.  Nothing after the
parser recurses.  The first evaluation of a tree compiles it, with an
explicit stack, into a flat program that holds each distinct subtree
once, in the postorder of its first occurrence, and keeps it on the
root node.  Every evaluation runs that program in one loop: each node
applies its checked operation to its operands' values, and a value is
dropped after its last read.  So every value has the bits, and every
error the node and message, of evaluating the tree node by node.  A
tree more than MAX_DEPTH nodes deep is an EvalError ("expression nested
too deeply") when it is compiled, for evaluation and ``variables``
alike.
"""

import re
from dataclasses import dataclass
from itertools import chain

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

# ASCII only: float() also reads digits such as "٣" and separators as in
# "1_0"; the config reader takes its numbers with this pattern too
NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>{NUMBER})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text):
    """Yield (kind, value, position) triples; kind in {num, ident, op}."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token = (kind, match[kind], match.start(kind))
        if kind == "bad":
            raise FieldSyntaxError(f"unexpected character {token[1]!r}", token[2])
        tokens.append(token)
    return tokens


class _Parser:
    """Recursive-descent parser that interns every node it builds.

    ``_nodes`` maps a direct key of each node (its literal, its index,
    or its operator and the ids of its interned operands) to the one
    node built for it, so equal subtrees of a parse are one object.
    """

    def __init__(self, tokens, n, text_len):
        self.tokens = tokens
        self.n = n
        self.pos = 0
        self.text_len = text_len
        self._nodes = {}

    def _intern(self, key, make, *fields):
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = make(*fields)
        return node

    def _binop(self, op, left, right):
        return self._intern((op, id(left), id(right)), BinOp, op, left, right)

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
                node = self._binop(tok[1], node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.pos += 1
                node = self._binop(tok[1], node, self.unary())
            else:
                return node

    def unary(self):
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            operand = self.unary()
            return self._intern(("-", id(operand)), Neg, operand)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            return self._binop("^", base, self.unary())
        return base

    def atom(self):
        tok = self._next()
        kind, value, pos = tok
        if kind == "num":
            number = float(value)
            if not np.isfinite(number):
                raise FieldSyntaxError(f"number {value!r} is not finite", pos)
            return self._intern(number, Num, number)
        if kind == "op" and value == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return self._intern((value, id(arg)), Call, value, arg)
            if value.startswith("x") and value[1:].isdigit():
                index = int(value[1:])
                if not 1 <= index <= self.n:
                    raise VariableOutOfRange(
                        f"variable {value} out of range for dimension {self.n}", pos
                    )
                return self._intern(("x", index), Var, index)
            raise UnknownSymbol(f"unknown symbol {value!r}", pos)
        raise FieldSyntaxError(f"unexpected token {value!r}", pos)


def parse_field(text, n):
    """Parse ``text`` into a FieldExpr over coordinates x1..x``n``.

    Nesting deeper than the interpreter's recursion limit is a
    FieldSyntaxError at the token where the parser gave up.
    """
    if not isinstance(n, int) or n < 1:
        raise FieldSyntaxError("dimension must be a positive integer", 0)
    parser = _Parser(_tokenize(text), n, len(text))
    try:
        return parser.parse()
    except RecursionError:
        tok = parser._peek()
        raise FieldSyntaxError(
            "expression nested too deeply", len(text) if tok is None else tok[2]
        ) from None


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

# deepest tree, counted in nodes from the root to its deepest leaf, that
# compiles; a sum of k terms is k deep
MAX_DEPTH = 900


def _program(root):
    """The compiled program of ``root``, built on first use and kept on it.

    The program is (nodes, reads).  ``nodes`` holds every distinct
    subtree but the root once, in postorder of its first occurrence; the
    root runs last.  ``reads`` holds, flat and in run order, the slots
    (positions in that order) each node reads; a slot read for the last
    time is stored as ``~slot``, so its value is dropped there.  A tree
    deeper than MAX_DEPTH raises EvalError and keeps no program.
    """
    program = root.__dict__.get("_program")
    if program is not None:
        return program
    slots = {}  # id(node) -> slot
    heights = []  # per slot: nodes on its deepest path
    nodes = []
    reads = []
    stack = [(root, 1, None)]
    while stack:
        node, depth, kids = stack.pop()
        if id(node) in slots:
            continue
        if kids is None:
            if depth > MAX_DEPTH:
                raise EvalError("expression nested too deeply")
            kids = _operands(node)
            if kids:
                stack.append((node, depth, kids))
                # right first, so the left operand compiles first
                stack.extend([(kid, depth + 1, None) for kid in reversed(kids)])
                continue
        # a subtree met before may sit deeper here than where it compiled
        height = 1
        for kid in kids:
            slot = slots[id(kid)]
            reads.append(slot)
            height = max(height, heights[slot] + 1)
        if height > MAX_DEPTH:
            raise EvalError("expression nested too deeply")
        slots[id(node)] = len(nodes)
        heights.append(height)
        nodes.append(node)
    seen = set()
    for i in range(len(reads) - 1, -1, -1):
        if reads[i] not in seen:
            seen.add(reads[i])
            reads[i] = ~reads[i]
    # the root stays out of its own program: no reference cycle
    program = (tuple(nodes[:-1]), np.array(reads, dtype=np.int32))
    object.__setattr__(root, "_program", program)
    return program


def _operands(node):
    kind = type(node)
    if kind is BinOp:
        return (node.left, node.right)
    if kind is Neg:
        return (node.operand,)
    if kind is Call:
        return (node.arg,)
    return ()


def _run(root, coords):
    """Value of ``root``; every operation checked as it runs."""
    nodes, reads = _program(root)
    values = [None] * (len(nodes) + 1)
    read = iter(reads.tolist()).__next__
    with np.errstate(all="ignore"):
        for k, node in enumerate(chain(nodes, (root,))):
            kind = type(node)
            if kind is Num:
                values[k] = node.value
                continue
            if kind is Var:
                if node.index > len(coords):
                    raise EvalError(f"no value supplied for x{node.index}")
                values[k] = coords[node.index - 1]
                continue
            i = read()
            if i < 0:
                i = ~i
                arg, values[i] = values[i], None
            else:
                arg = values[i]
            if kind is Neg:
                values[k] = -arg
                continue
            if kind is Call:
                func = node.func
                if func == "log" and (np.asarray(arg) <= 0.0).any():
                    raise EvalError("log of a non-positive value")
                if func == "sqrt" and (np.asarray(arg) < 0.0).any():
                    raise EvalError("sqrt of a negative value")
                out = FUNCTIONS[func](arg)
                if not np.isfinite(out).all():
                    raise EvalError(f"{func} produced a non-finite value")
                values[k] = out
                continue
            j = read()
            if j < 0:
                j = ~j
                right, values[j] = values[j], None
            else:
                right = values[j]
            op = node.op
            if op == "+":
                out = arg + right
            elif op == "-":
                out = arg - right
            elif op == "*":
                out = arg * right
            elif op == "/":
                if (np.asarray(right) == 0.0).any():
                    raise EvalError("division by zero")
                out = arg / right
            else:
                out = np.power(arg, right, dtype=np.float64)
            # a Call or Neg next rebinds only arg: free a last-read right
            right = None
            if not np.isfinite(out).all():
                raise EvalError(f"operator {op!r} produced a non-finite value")
            values[k] = out
    return values[-1]


def eval_field_on(expr, coords):
    """Evaluate over broadcastable coordinate arrays; returns an ndarray.

    ``coords`` is a sequence of n arrays (or scalars) that numpy can
    broadcast against each other, one per coordinate x1..xn.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in coords]
    out = _run(expr, arrays)
    return np.asarray(out, dtype=np.float64) + np.zeros(np.broadcast(*arrays).shape)


def variables(expr):
    """Set of 1-based coordinate indices the expression references."""
    nodes = chain(_program(expr)[0], (expr,))
    return {node.index for node in nodes if type(node) is Var}
