"""The recursive-descent parser, the tree it built and the tree-walking
compiler that the one-loop parser replaced, kept as a reference.

``expr.parse_field`` once parsed with one method per grammar rule into
a tree of the five node classes below, and turned a ``RecursionError``
into ``expression nested too deeply``; the first evaluation of its tree
then compiled it with ``_program`` below.  This copy keeps that code,
so the tests can check that the one-loop parser raises the same error
at the same position, or makes the code this compiler makes of the
replaced parser's tree, for every input under both nesting caps, and
can evaluate that tree recursively.
"""

from dataclasses import dataclass

import numpy as np

from semigeo.errors import EvalError, FieldSyntaxError, UnknownSymbol, VariableOutOfRange
from semigeo.expr import FUNCTIONS, MAX_DEPTH, _tokenize


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


def reference_parse_field(text, n):
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
