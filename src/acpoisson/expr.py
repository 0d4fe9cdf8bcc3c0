"""Recursive-descent parser for chart-coordinate expressions.

Grammar:

    expr   := term { ("+"|"-") term }
    term   := factor { ("*"|"/") factor }
    factor := atom [ "^" integer ] | "-" factor
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

Identifiers are the five chart variables x1, x2, y1, y2, y3, the constants
pi and e, and the builtin functions sin, cos, tan, exp, ln, sqrt, tanh,
cutoff.  Power exponents must be integer literals.

The tree is made of the interned field nodes of :mod:`~acpoisson.fields`,
re-exported here, so a parsed expression is already a field.
"""

from __future__ import annotations

import re

from .errors import ExprSyntaxError, NonIntegerExponent, UnknownIdentifier
from .fields import VAR_NAMES as VARIABLES
from .fields import BinOp, Call, Const, Field, Neg, Num, Pow, Var

CONSTANTS = ("pi", "e")
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "tanh", "cutoff")

_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT = re.compile(r"-?\d+")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(source, i)
            if not m:
                raise ExprSyntaxError("malformed number", line, col)
            tokens.append(_Token("number", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _WORD.match(source, i)
            tokens.append(_Token("word", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{ch}'", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            what = "end of input" if tok.kind == "end" else f"'{tok.text}'"
            raise ExprSyntaxError(f"unexpected {what}", tok.line, tok.col, expected=kind)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected '{tok.text}'", tok.line, tok.col)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self):
        tok = self.peek()
        text = tok.text
        if tok.kind == "-":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind != "number":
                raise ExprSyntaxError("bad exponent", nxt.line, nxt.col, expected="integer")
            self.advance()
            tok = self.advance()
            text = "-" + tok.text
        elif tok.kind == "number":
            self.advance()
        else:
            raise ExprSyntaxError("bad exponent", tok.line, tok.col, expected="integer")
        if not _INT.fullmatch(text):
            raise NonIntegerExponent(tok.line, tok.col)
        return int(text)

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "word":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Const(name)
            raise UnknownIdentifier(name, tok.line, tok.col)
        kind = "end of input" if tok.kind == "end" else f"'{tok.text}'"
        raise ExprSyntaxError(f"unexpected {kind}", tok.line, tok.col, expected="atom")


def parse(source: str) -> Field:
    """Parse expression text into an interned expression node."""
    return _Parser(source).parse()


# Printer --------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Pow):
        return _PREC["pow"]
    if isinstance(node, Num) and node.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def _wrap(node, limit):
    text = to_source(node)
    return f"({text})" if _prec(node) < limit else text


def to_source(node) -> str:
    """Render a node back to text; parse(to_source(node)) is node."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _PREC["neg"])
    if isinstance(node, Pow):
        base = _wrap(node.base, _PREC["atom"])
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        # all four operators parse left-associatively, so a right child at the
        # same precedence level must keep its parentheses
        left = _wrap(node.left, _PREC[node.op])
        right = _wrap(node.right, _PREC[node.op] + 1)
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def variables_used(node) -> set:
    """Set of chart-variable names the field depends on, from its variable mask."""
    return {name for k, name in enumerate(VARIABLES) if node.mask >> k & 1}


# node construction with light constant folding (it keeps derivatives small) ----


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def neg(a):
    if _is_num(a):
        return Num(-a.value)
    return Neg(a)


def pow_(a, n):
    if n == 0:
        return Num(1.0)
    if n == 1:
        return a
    return Pow(a, n)


def differentiate(node, var: str):
    """Exact derivative of the expression ``node`` by the chart variable ``var``.

    The children's derivatives come from ``Field.derivative``, which each node
    computes once and keeps, so a shared subexpression is differentiated once.
    """
    k = VARIABLES.index(var)
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return neg(node.arg.derivative(k))
    if isinstance(node, BinOp):
        da = node.left.derivative(k)
        db = node.right.derivative(k)
        if node.op == "+":
            return add(da, db)
        if node.op == "-":
            return sub(da, db)
        if node.op == "*":
            return add(mul(da, node.right), mul(node.left, db))
        return div(sub(mul(da, node.right), mul(node.left, db)), pow_(node.right, 2))
    if isinstance(node, Pow):
        db = node.base.derivative(k)
        return mul(mul(Num(float(node.exponent)), pow_(node.base, node.exponent - 1)), db)
    if isinstance(node, Call):
        du = node.arg.derivative(k)
        return mul(_BUILTIN_DERIVATIVES[node.func](node.arg), du)
    raise TypeError(f"not an expression node: {node!r}")


# derivative of each builtin f at u, for the chain rule d f(u) = f'(u) du
_BUILTIN_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: neg(Call("sin", u)),
    "tan": lambda u: add(Num(1.0), pow_(Call("tan", u), 2)),
    "exp": lambda u: Call("exp", u),
    "ln": lambda u: div(Num(1.0), u),
    "sqrt": lambda u: div(Num(0.5), Call("sqrt", u)),
    "tanh": lambda u: sub(Num(1.0), pow_(Call("tanh", u), 2)),
    # d/du exp(-u/(1-u)) = cutoff(u) * (-1/(1-u)^2); the factor is
    # annihilated by the zero branch except exactly at u = 1
    "cutoff": lambda u: mul(Call("cutoff", u), neg(div(Num(1.0), pow_(sub(Num(1.0), u), 2)))),
}
