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
The parser reads the tokens in one loop with explicit stacks and
interns each node it builds, with one table per ``parse_field`` call,
so equal subtrees of a parse are one object: a parsed tree is a DAG.
As it builds each new node it also emits the flat program the tree
runs as, which holds each distinct subtree once, in the order the
parser built them, and keeps it on the root node.  Nothing recurses.
One rule bounds depth, checked while parsing: at most MAX_DEPTH
pending parentheses, calls and operators, and at most MAX_DEPTH nodes
from a node to its deepest leaf; either is a FieldSyntaxError
("expression nested too deeply").  Every evaluation runs the program
in one loop: each node applies its checked operation to its operands'
values, and a value is dropped after its last read.  So every value
has the bits, and every error the node and message, of evaluating the
tree node by node.  Only trees made by ``parse_field`` carry a program;
evaluating, printing or listing the variables of any other value is an
EvalError.
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


# how tightly each binary operator binds; unary minus binds at 3, between
# * / and ^, and ( and function calls at 0, so no operator reduces past them
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}

# most nodes from a node to its deepest leaf (a sum of k terms is k high),
# and most entries the parser holds pending at once
MAX_DEPTH = 900


def parse_field(text, n):
    """Parse ``text`` into a FieldExpr over coordinates x1..x``n``.

    One loop over the tokens, with a stack of operands and a stack of
    pending entries (open parentheses, calls, unary minuses and binary
    operators waiting for their right operand).  Each new node takes the
    next slot of the program, reads its operands' slots and records its
    height, one more than its highest operand's.  More than MAX_DEPTH
    pending entries, or a node higher than MAX_DEPTH, is a
    FieldSyntaxError at the token that made one too many.
    """
    if not isinstance(n, int) or n < 1:
        raise FieldSyntaxError("dimension must be a positive integer", 0)
    tokens = _tokenize(text)
    tokens.append(("end", "", len(text)))
    next_token = iter(tokens).__next__
    slots = {}  # direct key (literal, index, or operator and operand slots) -> slot
    built = []  # per slot: its node, in the order built
    heights = []  # per slot: nodes on its deepest path
    reads = []  # per slot in turn: its operands' slots
    operands = []  # slots
    pending = []  # (binding, "(", a function name, "neg" or an operator)

    def add(key, pos, reading, make, *fields):
        # push the slot of the node for ``key``; a new node takes the next
        # slot and reads the slots in ``reading``
        slot = slots.get(key)
        if slot is None:
            height = 1 + max([heights[i] for i in reading], default=0)
            if height > MAX_DEPTH:
                raise FieldSyntaxError("expression nested too deeply", pos)
            slot = slots[key] = len(built)
            built.append(make(*fields))
            heights.append(height)
            reads.extend(reading)
        operands.append(slot)

    def reduce(least, pos):
        # build every pending operator that binds at least ``least``
        while pending and pending[-1][0] >= least:
            what = pending.pop()[1]
            right = operands.pop()
            if what == "neg":
                add(("-", right), pos, (right,), Neg, built[right])
            else:
                left = operands.pop()
                add((what, left, right), pos, (left, right), BinOp, what, built[left], built[right])

    def push(binding, what, pos):
        pending.append((binding, what))
        if len(pending) > MAX_DEPTH:
            raise FieldSyntaxError("expression nested too deeply", pos)

    while True:
        kind, value, pos = next_token()
        # an operand: first any unary minuses, parentheses and calls it opens
        if kind == "op" and value == "-":
            push(3, "neg", pos)
            continue
        if kind == "op" and value == "(":
            push(0, "(", pos)
            continue
        if kind == "num":
            number = float(value)
            if not np.isfinite(number):
                raise FieldSyntaxError(f"number {value!r} is not finite", pos)
            add(number, pos, (), Num, number)
        elif kind == "ident" and value in FUNCTIONS:
            after = next_token()
            if after[0] == "end":
                raise FieldSyntaxError("unexpected end of expression", after[2])
            if after[:2] != ("op", "("):
                raise FieldSyntaxError("expected '('", after[2])
            push(0, value, pos)
            continue
        elif kind == "ident" and value.startswith("x") and value[1:].isdigit():
            index = int(value[1:])
            if not 1 <= index <= n:
                raise VariableOutOfRange(f"variable {value} out of range for dimension {n}", pos)
            add(("x", index), pos, (), Var, index)
        elif kind == "ident":
            raise UnknownSymbol(f"unknown symbol {value!r}", pos)
        elif kind == "end":
            raise FieldSyntaxError("unexpected end of expression", pos)
        else:
            raise FieldSyntaxError(f"unexpected token {value!r}", pos)
        # then the closing parentheses that follow it, up to a binary operator
        while True:
            kind, value, pos = next_token()
            if kind == "op" and value in _BINDS:
                # ^ is right-associative: nothing pending binds above it
                if value != "^":
                    reduce(_BINDS[value], pos)
                push(_BINDS[value], value, pos)
                break
            reduce(1, pos)
            if not pending:
                if kind == "end":
                    return _with_program(built, reads)
                raise FieldSyntaxError(f"unexpected token {value!r}", pos)
            if kind == "end":
                raise FieldSyntaxError("unexpected end of expression", pos)
            if value != ")":
                raise FieldSyntaxError("expected ')'", pos)
            opened = pending.pop()[1]
            if opened != "(":
                arg = operands.pop()
                add((opened, arg), pos, (arg,), Call, opened, built[arg])


def _with_program(built, reads):
    """The root of a parse, with its program stored on it.

    The program is (nodes, reads).  ``nodes`` holds every node but the
    root, each distinct subtree once, in the order the parser built
    them; the root, built last since it holds all the others, runs
    last.  ``reads`` holds, flat and in run order, the slots (positions
    in that order) each node reads; a slot read for the last time is
    stored as ``~slot``, so its value is dropped there.
    """
    seen = set()
    for i in range(len(reads) - 1, -1, -1):
        if reads[i] not in seen:
            seen.add(reads[i])
            reads[i] = ~reads[i]
    root = built[-1]
    # the root stays out of its own program: no reference cycle
    object.__setattr__(root, "_program", (tuple(built[:-1]), np.array(reads, dtype=np.int32)))
    return root


def is_parsed(value):
    """Whether ``value`` is a FieldExpr made by ``parse_field``."""
    return isinstance(value, FieldExpr) and "_program" in value.__dict__


def _program(root):
    """The program ``parse_field`` stored on ``root``; EvalError if none."""
    if not is_parsed(root):
        raise EvalError(f"{type(root).__name__} was not made by parse_field")
    return root._program


# ------------------------------------------------------------------ printer

# per operator, the least precedence (_BINDS; unary minus 3, atoms 5) its
# left and its right operand print without parentheses
_UNPARENTHESIZED = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}


def format_field(node):
    """Render a parsed FieldExpr to text; parse(format_field(parse(s))) == parse(s).

    Prints the program ``parse_field`` stored on it, in one loop.
    """
    nodes, reads = _program(node)
    printed = []  # per slot: (text, precedence)
    read = iter(reads.tolist()).__next__

    def operand(least):
        slot = read()
        text, prec = printed[slot if slot >= 0 else ~slot]
        return f"({text})" if prec < least else text

    for sub in chain(nodes, (node,)):
        kind = type(sub)
        if kind is Num:
            value = sub.value
            text = str(int(value)) if value == int(value) and abs(value) < 1e16 else repr(value)
            printed.append((text, 5))
        elif kind is Var:
            printed.append((f"x{sub.index}", 5))
        elif kind is Call:
            printed.append((f"{sub.func}({operand(0)})", 5))
        elif kind is Neg:
            printed.append((f"-{operand(3)}", 3))
        else:
            left_least, right_least = _UNPARENTHESIZED[sub.op]
            left, right = operand(left_least), operand(right_least)
            text = f"{left}^{right}" if sub.op == "^" else f"{left} {sub.op} {right}"
            printed.append((text, _BINDS[sub.op]))
    return printed[-1][0]


# ---------------------------------------------------------------- evaluator


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
