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
The parser reads the tokens in one loop with explicit stacks.  A
parsed field is its flat program, a FieldExpr: one instruction per
distinct subtree, in the order the parser built them, each reading the
slots of earlier ones, so equal subtrees of a parse are one
instruction and equal parses are equal values.  Nothing recurses.
One rule bounds depth, checked while parsing: at most MAX_DEPTH
pending parentheses, calls and operators, and at most MAX_DEPTH
instructions from one to its deepest leaf; either is a
FieldSyntaxError ("expression nested too deeply").  Every evaluation
runs the program in one loop: each instruction applies its checked
operation to its operands' values, and a value is dropped after its
last read.  So every value has the bits, and every error the message,
of evaluating the expression's tree node by node.  Only ``parse_field``
makes a FieldExpr; evaluating or listing the variables of any other
value is an EvalError.
"""

import re
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
class FieldExpr:
    """A parsed field: its program, made only by ``parse_field``.

    ``code`` holds one instruction per distinct subtree, in the order
    the parser built them, the root last: ``("n", value)``, ``("x",
    index)``, ``("-", slot)``, ``(function, slot)`` or ``(operator,
    left, right)``, where a slot is the position of an earlier
    instruction and a slot read for the last time is stored as
    ``~slot``.  Equal parses have equal code.
    """

    code: tuple


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
    operators waiting for their right operand).  Each new instruction
    takes the next slot, reads its operands' slots and records its
    height, one more than its highest operand's.  More than MAX_DEPTH
    pending entries, or an instruction higher than MAX_DEPTH, is a
    FieldSyntaxError at the token that made one too many.
    """
    if not isinstance(n, int) or n < 1:
        raise FieldSyntaxError("dimension must be a positive integer", 0)
    tokens = _tokenize(text)
    tokens.append(("end", "", len(text)))
    next_token = iter(tokens).__next__
    slots = {}  # instruction -> slot
    code = []  # per slot: its instruction, in the order built
    heights = []  # per slot: instructions on its deepest path
    operands = []  # slots
    pending = []  # (binding, "(", a function name, "neg" or an operator)

    def add(key, pos, reading):
        # push the slot of the instruction ``key``; a new one takes the
        # next slot and reads the slots in ``reading``
        slot = slots.get(key)
        if slot is None:
            height = 1 + max([heights[i] for i in reading], default=0)
            if height > MAX_DEPTH:
                raise FieldSyntaxError("expression nested too deeply", pos)
            slot = slots[key] = len(code)
            code.append(key)
            heights.append(height)
        operands.append(slot)

    def reduce(least, pos):
        # build every pending operator that binds at least ``least``
        while pending and pending[-1][0] >= least:
            what = pending.pop()[1]
            right = operands.pop()
            if what == "neg":
                add(("-", right), pos, (right,))
            else:
                left = operands.pop()
                add((what, left, right), pos, (left, right))

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
            add(("n", number), pos, ())
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
            add(("x", index), pos, ())
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
                    return _mark_last_reads(code)
                raise FieldSyntaxError(f"unexpected token {value!r}", pos)
            if kind == "end":
                raise FieldSyntaxError("unexpected end of expression", pos)
            if value != ")":
                raise FieldSyntaxError("expected ')'", pos)
            opened = pending.pop()[1]
            if opened != "(":
                arg = operands.pop()
                add((opened, arg), pos, (arg,))


def _mark_last_reads(code):
    """The FieldExpr of ``code``, each slot's last read marked ``~slot``,
    so its value is dropped there."""
    seen = set()
    marked = []
    for ins in reversed(code):
        if ins[0] not in ("n", "x"):
            reads = []  # last operand first
            for slot in reversed(ins[1:]):
                reads.append(slot if slot in seen else ~slot)
                seen.add(slot)
            ins = (ins[0], *reversed(reads))
        marked.append(ins)
    return FieldExpr(tuple(reversed(marked)))


def _code(expr):
    """The code of ``expr``; EvalError for any value parse_field did not make."""
    if not isinstance(expr, FieldExpr):
        raise EvalError(f"{type(expr).__name__} was not made by parse_field")
    return expr.code


# ---------------------------------------------------------------- evaluator


def _run(expr, coords):
    """Value of ``expr``; every operation checked as it runs."""
    code = _code(expr)
    values = [None] * len(code)
    with np.errstate(all="ignore"):
        for k, ins in enumerate(code):
            kind = ins[0]
            if kind == "n":
                values[k] = ins[1]
                continue
            if kind == "x":
                index = ins[1]
                if index > len(coords):
                    raise EvalError(f"no value supplied for x{index}")
                values[k] = coords[index - 1]
                continue
            i = ins[1]
            if i < 0:
                i = ~i
                arg, values[i] = values[i], None
            else:
                arg = values[i]
            if len(ins) == 2:
                if kind == "-":
                    values[k] = -arg
                    continue
                if kind == "log" and (np.asarray(arg) <= 0.0).any():
                    raise EvalError("log of a non-positive value")
                if kind == "sqrt" and (np.asarray(arg) < 0.0).any():
                    raise EvalError("sqrt of a negative value")
                out = FUNCTIONS[kind](arg)
                if not np.isfinite(out).all():
                    raise EvalError(f"{kind} produced a non-finite value")
                values[k] = out
                continue
            j = ins[2]
            if j < 0:
                j = ~j
                right, values[j] = values[j], None
            else:
                right = values[j]
            if kind == "+":
                out = arg + right
            elif kind == "-":
                out = arg - right
            elif kind == "*":
                out = arg * right
            elif kind == "/":
                if (np.asarray(right) == 0.0).any():
                    raise EvalError("division by zero")
                out = arg / right
            else:
                out = np.power(arg, right, dtype=np.float64)
            # a call or negation next rebinds only arg: free a last-read right
            right = None
            if not np.isfinite(out).all():
                raise EvalError(f"operator {kind!r} produced a non-finite value")
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
    return {ins[1] for ins in _code(expr) if ins[0] == "x"}
