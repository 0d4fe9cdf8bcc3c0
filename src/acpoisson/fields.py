"""Scalar fields on the chart: interned expression nodes, evaluable to exact 2-jets.

A field is anything with an ``eval_jet(points, order)`` method returning a
:class:`~acpoisson.jets.Jet`.  The fields this package builds, and the trees
:mod:`~acpoisson.expr` parses, are immutable nodes: a number (``Num``, also
``ConstField``), a named constant, a variable (``Var``, also ``CoordField``),
a negation, a binary operation, an integer power, a builtin call, or a
derivative slot (``PartialField``).  One weak intern table keys each node by
its kind, its parameters (numbers by ``float.hex``) and the identity of its
children, so structurally equal nodes are one object while they live.

Each operation has one node class.  A node is *expression-backed*
(``ExprField``) exactly when no ``PartialField`` lies below it.  Arithmetic on
expression-backed operands is folded (``0*f`` is ``0``, ``1*f`` is ``f``), so
every spelling of zero is the same zero (:func:`is_zero`), ``derivative`` is
symbolic with the full 2-jet budget, and a domain error names its
subexpression.  Any other operand gives a plain ``BinOp``; ``partial`` reads a
slot of the parent's jet and spends one order.  A node computes its budget,
expression flag and variable bitmask once, and keeps its derivatives and
source text once asked.  It also tells whether a ``cutoff`` call lies below
it (``nudges``): evaluating such a node may nudge a point off the cutoff's
branch point, which a command counts per evaluation.  A binary operation and
a negation keep that flag in a slot; a call, a power and a partial read it
from their child, because one more slot would move each of them into the
next allocation size.

A node's jet is one ``combine`` step applied to the jets of its ``operands``;
the step holds the node's jet rule and tags its domain errors.  ``Field.at``
walks the tree without a memo and is the oracle; ``lowering.evaluate`` walks a
group with one.  Nodes are inserted into the table atomically, so fields are
safe to share between threads.
"""

from __future__ import annotations

import math
import operator
import weakref
from _weakref import _remove_dead_weakref

import numpy as np

from .errors import DomainError, OrderBudgetExceeded
from .jets import BUILTIN_JET_RULES, Jet

VAR_NAMES = ("x1", "x2", "y1", "y2", "y3")
VAR_INDEX = {name: k for k, name in enumerate(VAR_NAMES)}
NVARS = len(VAR_NAMES)
FD_STEP = 1e-4

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def as_points(p) -> np.ndarray:
    """Coerce a point (5,) or point batch (5, n) to a float array."""
    a = np.asarray(p, dtype=float)
    if a.shape[0] != 5:
        raise ValueError(f"points must have leading dimension 5, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("point coordinates must be finite")
    return a


def _arithmetic(op, swap=False):
    def method(self, other):
        a, b = (as_field(other), self) if swap else (self, as_field(other))
        if a.expression and b.expression:
            return _FOLD[op](a, b)
        return BinOp(op, a, b)

    return method


class Field:
    """Base class; subclasses implement ``eval_jet``, nodes ``operands`` and ``combine``."""

    __slots__ = ()
    budget = 2
    expression = False  # expression-backed: folded, differentiated symbolically
    mask = (1 << NVARS) - 1  # bit k: the field may depend on variable k
    nudges = True  # evaluating the field may count a cutoff nudge

    def eval_jet(self, points, order):
        raise NotImplementedError

    def operands(self, order):
        """The ``(field, order)`` pairs whose jets ``combine`` takes, in evaluation order."""
        return ()

    def combine(self, points, order, *jets):
        """The jet at ``points`` from the jets of ``operands(order)``."""
        return self.eval_jet(points, order)

    # evaluation helpers --------------------------------------------------

    def at(self, p, order=2) -> Jet:
        """Evaluate to a jet truncated to ``order`` at point(s) ``p``."""
        self.check_budget(order)
        return self.eval_jet(as_points(p), order)

    def check_budget(self, order):
        """Refuse an order beyond the field's jet budget."""
        if order > self.budget:
            raise OrderBudgetExceeded(
                f"order {order} requested from a field with budget {self.budget}"
            )

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
        if not self.expression:
            return self.partial(k)
        if isinstance(k, str):
            k = VAR_INDEX[k]
        cache = self._derivs
        if cache is None:
            cache = [None] * NVARS
            object.__setattr__(self, "_derivs", cache)
        if cache[k] is None:
            cache[k] = ex.differentiate(self, VAR_NAMES[k])
        return cache[k]

    # arithmetic: expression-backed operands fold, any other gives a plain BinOp

    __add__, __radd__ = _arithmetic("+"), _arithmetic("+", swap=True)
    __sub__, __rsub__ = _arithmetic("-"), _arithmetic("-", swap=True)
    __mul__, __rmul__ = _arithmetic("*"), _arithmetic("*", swap=True)
    __truediv__, __rtruediv__ = _arithmetic("/"), _arithmetic("/", swap=True)

    def __neg__(self):
        if self.expression:
            return ex.neg(self)
        return BinOp("*", Num(-1.0), self)


def is_zero(f) -> bool:
    """True when ``f`` is the number 0 (or -0)."""
    return type(f) is Num and f.value == 0.0


# nodes -------------------------------------------------------------------------

_NODES = {}  # the intern table: key -> weak reference to the node


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref):
    """Drop a dead node's entry, unless its key was rebuilt: one atomic step, as in WeakValueDictionary."""
    _remove_dead_weakref(_NODES, ref.key)


class _Interned(type):
    """Metaclass of the nodes: calling a node class returns the interned node."""

    def __call__(cls, *args):
        key, args = cls._key(*args)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls._open)
            node._source = node._derivs = None
            node.__init__(*args)
            node.__class__ = cls
            ref = _Ref(node, _forget)
            ref.key = key
            while (first := _NODES.setdefault(key, ref)) is not ref:  # one atomic step
                other = first()
                if other is not None:
                    return other  # another thread interned the same node first
                _remove_dead_weakref(_NODES, key)  # that node died before its entry went
        return node


class _Node(Field, metaclass=_Interned):
    # budget, expression and mask are set once by __init__ (or are class
    # constants); _source and _derivs are caches, filled on first use
    __slots__ = ("budget", "expression", "mask", "_source", "_derivs", "__weakref__")

    def __init_subclass__(cls, frozen=True):
        super().__init_subclass__()
        if frozen:
            # nodes are built as instances of this open twin, then switched to cls
            twin = {"__slots__": (), "__setattr__": object.__setattr__}
            cls._open = _Interned(cls.__name__, (cls,), twin, frozen=False)

    @classmethod
    def _key(cls, *args):
        """The intern key (children by identity, parameters by value) and the ``__init__`` arguments."""
        return (cls, *[id(a) if isinstance(a, Field) else a for a in args]), args

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        return f"ExprField({self.source!r})" if self.expression else super().__repr__()

    def eval_jet(self, points, order):
        # the tree walked without a memo: a node reached twice is evaluated twice;
        # a loop, not a comprehension, so each level of the tree costs one frame
        jets = []
        for f, o in self.operands(order):
            jets.append(f.eval_jet(points, o))
        return self.combine(points, order, *jets)

    def _tag(self, err):
        """Name this node's source in an untagged domain error raised while evaluating it."""
        if self.expression and err.subexpr is None:
            err.subexpr = self.source
            err.args = (f"{err.args[0]} in '{err.subexpr}'",)

    @property
    def source(self) -> str:
        """The node as expression text, rendered on first use."""
        if self._source is None:
            object.__setattr__(self, "_source", ex.to_source(self))
        return self._source


class _Expressions(type):
    def __call__(cls, source):
        return ex.parse(source) if isinstance(source, str) else source

    def __instancecheck__(cls, obj):
        return isinstance(obj, Field) and obj.expression


class ExprField(metaclass=_Expressions):
    """An expression-backed field: ``ExprField(text)`` parses, ``ExprField(node)`` is the node."""


def _derive(node, a, b):
    """Set what a node derives from its children ``a`` and ``b``: budget, expression flag, mask."""
    node.budget = min(a.budget, b.budget)
    node.expression = a.expression and b.expression
    node.mask = a.mask | b.mask


class _Leaf(_Node):  # a number or a named constant
    __slots__ = ("value",)
    budget = 2
    expression = True
    mask = 0
    nudges = False

    def combine(self, points, order):
        return Jet.constant(self.value, points.shape[1:], order)


class Num(_Leaf):
    __slots__ = ()

    @classmethod
    def _key(cls, value):
        value = float(value)
        return (cls, value.hex()), (value,)

    def __init__(self, value):
        self.value = value


class Const(_Leaf):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name  # "pi" or "e"
        self.value = math.pi if name == "pi" else math.e


class Var(_Node):
    __slots__ = ("name", "k")
    budget = 2
    expression = True
    nudges = False

    @classmethod
    def _key(cls, name):
        k = VAR_INDEX[name] if isinstance(name, str) else name
        return (cls, k), (k,)

    def __init__(self, k):
        self.name = VAR_NAMES[k]
        self.k = k
        self.mask = 1 << k

    def combine(self, points, order):
        return Jet.coordinate(self.k, points[self.k], order)


class Neg(_Node):
    __slots__ = ("arg", "nudges")

    def __init__(self, arg):
        _derive(self, arg, arg)
        self.nudges = arg.nudges
        self.arg = arg

    def operands(self, order):
        return ((self.arg, order),)

    def combine(self, points, order, a):
        return -a


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        _derive(self, base, base)
        self.base = base
        self.exponent = exponent

    @property
    def nudges(self):
        return self.base.nudges

    def operands(self, order):
        return ((self.base, order),)

    def combine(self, points, order, a):
        return a.powi(self.exponent)


class BinOp(_Node):
    """``left op right`` for op in ``+ - * /``."""

    __slots__ = ("op", "left", "right", "nudges")

    @classmethod
    def _key(cls, op, left, right):
        return (cls, op, id(left), id(right)), (op, left, right)

    def __init__(self, op, left, right):
        _derive(self, left, right)
        self.nudges = left.nudges or right.nudges
        self.op = op
        self.left = left
        self.right = right

    def operands(self, order):
        return ((self.left, order), (self.right, order))

    def combine(self, points, order, a, b):
        try:
            return _ARITH[self.op](a, b)
        except DomainError as err:
            self._tag(err)
            raise


class Call(_Node):
    """A builtin applied to a field, e.g. exp(h)."""

    __slots__ = ("func", "arg")

    @classmethod
    def _key(cls, func, arg):
        arg = as_field(arg)
        return (cls, func, id(arg)), (func, arg)

    def __init__(self, func, arg):
        _derive(self, arg, arg)
        self.func = func  # a key of BUILTIN_JET_RULES
        self.arg = arg

    @property
    def nudges(self):
        return self.func == "cutoff" or self.arg.nudges

    def operands(self, order):
        return ((self.arg, order),)

    def combine(self, points, order, a):
        try:
            return BUILTIN_JET_RULES[self.func](a)
        except DomainError as err:
            self._tag(err)
            raise


class PartialField(_Node):
    """d(parent)/d(variable k): slot k of the parent's jet, one order below the parent."""

    __slots__ = ("parent", "k")

    @classmethod
    def _key(cls, parent, k):
        if parent.budget < 1:
            raise OrderBudgetExceeded("cannot differentiate a field with exhausted budget")
        return (cls, id(parent), k), (parent, k)

    def __init__(self, parent, k):
        self.budget = parent.budget - 1
        self.expression = False
        self.mask = parent.mask
        self.parent = parent
        self.k = k

    @property
    def nudges(self):
        return self.parent.nudges

    def operands(self, order):
        if order > self.budget:
            raise OrderBudgetExceeded(
                f"order {order} requested from a derivative field with budget {self.budget}"
            )
        return ((self.parent, order + 1),)

    def combine(self, points, order, jet):
        grad = jet.hess[self.k] if order >= 1 else None
        return Jet(jet.grad[self.k], grad, None)


ConstField = Num
CoordField = Var


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


# the parser, the printer, folding and the derivative rules build on the nodes
from . import expr as ex  # noqa: E402

_FOLD = {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}
