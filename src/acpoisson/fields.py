"""Scalar fields on the chart, evaluable to exact 2-jets.

A field is anything with an ``eval_jet(points, order)`` method returning a
:class:`~acpoisson.jets.Jet`.  There is one field algebra.  Parsed
expressions, constants and coordinates are *expression-backed*: they carry an
AST in ``ast``, and ``+ - * /`` and unary ``-`` between expression-backed
operands fold into a new expression (``0*f`` is ``0``, ``1*f`` is ``f``, and
so on), so every spelling of zero is the same zero (:func:`is_zero`).  Any
other operand gives an evaluation node (:class:`BinField`).

Parsed expressions carry a full 2-jet budget.  ``partial`` extracts a
derivative from the parent's jet and so consumes one order; ``derivative`` is
symbolic for expression-backed fields and keeps the full budget.  All
evaluation is pure, so fields are safe to share between threads.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .errors import OrderBudgetExceeded
from .jets import BUILTIN_JET_RULES, Jet

VAR_INDEX = {name: k for k, name in enumerate(ex.VARIABLES)}
VAR_NAMES = ex.VARIABLES
FD_STEP = 1e-4


def as_points(p) -> np.ndarray:
    """Coerce a point (5,) or point batch (5, n) to a float array."""
    a = np.asarray(p, dtype=float)
    if a.shape[0] != 5:
        raise ValueError(f"points must have leading dimension 5, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("point coordinates must be finite")
    return a


class Field:
    """Base class; subclasses implement ``eval_jet``."""

    budget = 2
    ast = None  # expression AST of an expression-backed field

    def eval_jet(self, points, order):
        raise NotImplementedError

    # evaluation helpers --------------------------------------------------

    def at(self, p, order=2) -> Jet:
        """Evaluate to a jet truncated to ``order`` at point(s) ``p``."""
        if order > self.budget:
            raise OrderBudgetExceeded(
                f"order {order} requested from a field with budget {self.budget}"
            )
        return self.eval_jet(as_points(p), order)

    def value(self, p):
        return self.at(p, order=0).value

    def gradient(self, p):
        return self.at(p, order=1).grad

    def hessian(self, p):
        return self.at(p, order=2).hess

    def partial(self, k) -> "Field":
        """First partial derivative by variable index or name."""
        if isinstance(k, str):
            k = VAR_INDEX[k]
        return PartialField(self, k)

    def derivative(self, k) -> "Field":
        """First partial derivative, symbolic (full budget) when expression-backed."""
        if self.ast is None:
            return self.partial(k)
        return ExprField(ex.differentiate(self.ast, VAR_NAMES[k] if isinstance(k, int) else k))

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return _combine("+", self, as_field(other))

    def __radd__(self, other):
        return _combine("+", as_field(other), self)

    def __sub__(self, other):
        return _combine("-", self, as_field(other))

    def __rsub__(self, other):
        return _combine("-", as_field(other), self)

    def __mul__(self, other):
        return _combine("*", self, as_field(other))

    def __rmul__(self, other):
        return _combine("*", as_field(other), self)

    def __truediv__(self, other):
        return _combine("/", self, as_field(other))

    def __rtruediv__(self, other):
        return _combine("/", as_field(other), self)

    def __neg__(self):
        if self.ast is not None:
            return ExprField(ex.neg(self.ast))
        return BinField("*", ConstField(-1.0), self)


_FOLD = {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}


def _combine(op, a, b):
    if a.ast is not None and b.ast is not None:
        return ExprField(_FOLD[op](a.ast, b.ast))
    return BinField(op, a, b)


def is_zero(f) -> bool:
    """True when ``f`` is expression-backed and its AST is the number 0."""
    return isinstance(f.ast, ex.Num) and f.ast.value == 0.0


class ConstField(Field):
    def __init__(self, c):
        self.c = float(c)
        self.ast = ex.Num(self.c)

    def eval_jet(self, points, order):
        return Jet.constant(self.c, points.shape[1:], order)

    def __repr__(self):
        return f"ConstField({self.c})"


class CoordField(Field):
    def __init__(self, k):
        self.k = VAR_INDEX[k] if isinstance(k, str) else k
        self.ast = ex.Var(VAR_NAMES[self.k])

    def eval_jet(self, points, order):
        return Jet.coordinate(self.k, points[self.k], order)

    def __repr__(self):
        return f"CoordField({VAR_NAMES[self.k]})"


class ExprField(Field):
    """Field backed by a parsed expression AST (or the AST itself)."""

    def __init__(self, source):
        if isinstance(source, str):
            self.ast = ex.parse(source)
            self._source = source
        else:
            self.ast = source
            # rendered on demand: rendering every arithmetic result would make
            # building a graph quadratic in its size
            self._source = None

    @property
    def source(self) -> str:
        if self._source is None:
            self._source = ex.to_source(self.ast)
        return self._source

    def eval_jet(self, points, order):
        return _eval_ast(self.ast, points, order)

    def __repr__(self):
        return f"ExprField({self.source!r})"


def _eval_ast(node, points, order):
    if isinstance(node, ex.Num):
        return Jet.constant(node.value, points.shape[1:], order)
    if isinstance(node, ex.Const):
        return Jet.constant(math.pi if node.name == "pi" else math.e, points.shape[1:], order)
    if isinstance(node, ex.Var):
        return Jet.coordinate(VAR_INDEX[node.name], points[VAR_INDEX[node.name]], order)
    if isinstance(node, ex.Neg):
        return -_eval_ast(node.arg, points, order)
    if isinstance(node, ex.Pow):
        return _eval_ast(node.base, points, order).powi(node.exponent)
    if isinstance(node, ex.Call):
        arg = _eval_ast(node.arg, points, order)
        try:
            return BUILTIN_JET_RULES[node.func](arg)
        except Exception as err:
            _tag_domain_error(err, node)
            raise
    if isinstance(node, ex.BinOp):
        a = _eval_ast(node.left, points, order)
        b = _eval_ast(node.right, points, order)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            return a / b
        except Exception as err:
            _tag_domain_error(err, node)
            raise
    raise TypeError(f"not an expression node: {node!r}")


def _tag_domain_error(err, node):
    from .errors import DomainError

    if isinstance(err, DomainError) and err.subexpr is None:
        err.subexpr = ex.to_source(node)
        err.args = (f"{err.args[0]} in '{err.subexpr}'",)


class BinField(Field):
    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b
        self.budget = min(a.budget, b.budget)

    def eval_jet(self, points, order):
        a = self.a.eval_jet(points, order)
        b = self.b.eval_jet(points, order)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b


class FuncField(Field):
    """Composition of a builtin with another field, e.g. exp(h)."""

    def __init__(self, func, child):
        self.func = func
        self.child = as_field(child)
        self.budget = self.child.budget

    def eval_jet(self, points, order):
        return BUILTIN_JET_RULES[self.func](self.child.eval_jet(points, order))


class PartialField(Field):
    """d(parent)/d(variable k); supports jets one order below the parent."""

    def __init__(self, parent, k):
        self.parent = parent
        self.k = k
        self.budget = parent.budget - 1
        if self.budget < 0:
            raise OrderBudgetExceeded("cannot differentiate a field with exhausted budget")

    def eval_jet(self, points, order):
        if order > self.budget:
            raise OrderBudgetExceeded(
                f"order {order} requested from a derivative field with budget {self.budget}"
            )
        jet = self.parent.eval_jet(points, order + 1)
        grad = jet.hess[self.k] if order >= 1 else None
        return Jet(jet.grad[self.k], grad, None)


def as_field(obj) -> Field:
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, str):
        return ExprField(obj)
    if isinstance(obj, (int, float)):
        return ConstField(obj)
    raise TypeError(f"cannot interpret {obj!r} as a field")


def finite_difference_check(f: Field, p) -> float:
    """Max relative gap between AD first partials and central differences.

    Returns ``max_k |AD_k - FD_k| / (1 + |AD_k|)`` with step 1e-4.  The point
    should be away from builtin support boundaries.
    """
    p = as_points(p)
    grad = f.at(p, order=1).grad
    worst = 0.0
    for k in range(5):
        shift = np.zeros_like(p)
        shift[k] = FD_STEP
        fd = (f.at(p + shift, order=0).value - f.at(p - shift, order=0).value) / (2 * FD_STEP)
        gap = np.abs(grad[k] - fd) / (1.0 + np.abs(grad[k]))
        worst = max(worst, float(np.max(gap)))
    return worst
