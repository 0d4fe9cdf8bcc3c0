"""Straight-line lowering of the components of a coordinate vector field.

:func:`lower` turns a list of component fields into one generated Python
function that evaluates all of them at order 0.  Every distinct subexpression
runs once for all components: a constant, a coordinate, an AST node, a
``BinField``, a ``FuncField``, and for ``PartialField(parent, k)`` only the
parent's value and its forward-mode derivative slot ``k`` (slot ``(k, j)`` for
a partial of a partial).  Subexpressions are shared by structure, so a term
that two components spell alike is computed once.

The generated code does what the jet path does, operation for operation:
the same numpy operation on operands of the same shape, with the builtins,
powers and reciprocals applied through the value-level rules of
:mod:`~acpoisson.jets`.  It eliminates common subexpressions and nothing
else: ``0*x`` and ``x + 0`` are computed as written, because skipping them
could flip the sign of a zero or lose a NaN.  The results are therefore
bit-identical to ``c.at(p, 0).value``, and the jet path remains the oracle.

A graph that holds a node of any other kind is not lowered (:func:`lower`
returns ``None``) and stays on the jet path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expr as ex
from .fields import VAR_INDEX, BinField, ConstField, CoordField, ExprField, FuncField, PartialField
from .jets import BUILTIN_RULES, powi_rule, reciprocal_rule

# jets carry derivatives up to the Hessian
MAX_ORDER = 2

_ARITH = {"+": "add", "-": "sub", "*": "mul"}


class NotLowerable(Exception):
    """The graph holds a node the lowering cannot express."""


class _Graph:
    """Hash-consed nodes; a reference is ``(node id, derivative slot prefix)``.

    Node kinds: ``("const", hex)``, ``("var", k)``, ``("neg", a)``,
    ``("add"|"sub"|"mul", a, b)``, ``("rec", a)`` (reciprocal),
    ``("pow", a, n)``, ``("call", a, func)`` and ``("one", a)`` (``a^0``: the
    constant 1, which still evaluates ``a`` as the jet path does).
    """

    def __init__(self):
        self.nodes = []
        self.ids = {}
        self.memo = {}  # id(field or AST node) -> reference

    def node(self, *key):
        nid = self.ids.get(key)
        if nid is None:
            nid = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return (nid, ())

    def const(self, c):
        return self.node("const", float(c).hex())

    def ref(self, obj):
        """Reference of a field or an AST node."""
        ref = self.memo.get(id(obj))
        if ref is None:
            ref = self.memo[id(obj)] = self._ref(obj)
        return ref

    def _ref(self, obj):
        kind = type(obj)
        if kind is ExprField:
            return self.ref(obj.ast)
        if kind is ConstField:
            return self.const(obj.c)
        if kind is ex.Num:
            return self.const(obj.value)
        if kind is ex.Const:
            return self.const(math.pi if obj.name == "pi" else math.e)
        if kind is CoordField:
            return self.node("var", obj.k)
        if kind is ex.Var:
            return self.node("var", VAR_INDEX[obj.name])
        if kind is ex.Neg:
            return self.node("neg", self.ref(obj.arg))
        if kind is BinField:
            return self.binop(obj.op, self.ref(obj.a), self.ref(obj.b))
        if kind is ex.BinOp:
            return self.binop(obj.op, self.ref(obj.left), self.ref(obj.right))
        if kind is FuncField:
            return self.node("call", self.ref(obj.child), obj.func)
        if kind is ex.Call:
            return self.node("call", self.ref(obj.arg), obj.func)
        if kind is ex.Pow:
            base = self.ref(obj.base)
            if obj.exponent == 1:
                return base  # the jet path returns the base's jet itself
            if obj.exponent == 0:
                return self.node("one", base)
            return self.node("pow", base, obj.exponent)
        if kind is PartialField:
            nid, prefix = self.ref(obj.parent)
            return (nid, prefix + (obj.k,))
        raise NotLowerable(f"cannot lower a {kind.__name__}")

    def binop(self, op, a, b):
        if op == "/":
            # the jet path divides as a * (1/b)
            return self.node("mul", a, self.node("rec", b))
        return self.node(_ARITH[op], a, b)


def _children(key):
    if key[0] in ("const", "var"):
        return ()
    return key[1:2] if key[0] in ("pow", "call", "one") else key[1:]


class _Emitter:
    """Derivative orders per node, then one line per needed (node, slot) in dependency order."""

    def __init__(self, graph):
        self.graph = graph
        self.order = {}  # node id -> highest derivative order needed
        self.consts = []
        self.const_names = {}  # hex of the constant -> temp
        self.names = {}  # (node id, slot) -> temp
        self.rule_out = {}  # node id -> (f, d1, d2) temps
        self.lines = []  # (targets, template, operands)
        self.known = {}  # (template, *operands) -> targets
        self.ntemps = 0

    def need(self, ref, order=0):
        nid, prefix = ref
        order += len(prefix)
        if order > MAX_ORDER:
            raise NotLowerable("derivative order beyond the jet budget")
        if order <= self.order.get(nid, -1):
            return
        self.order[nid] = order
        key = self.graph.nodes[nid]
        for child in _children(key):
            # a^0 only evaluates a
            self.need(child, 0 if key[0] == "one" else order)

    # emission ------------------------------------------------------------------

    def temp(self):
        self.ntemps += 1
        return self.ntemps - 1

    def line(self, template, operands, ntargets=1):
        # lines are pure, so one that repeats an earlier line reuses its
        # result: the derivative slots of a term in variables it does not
        # contain are all the same computation on zeros
        key = (template, *operands)
        targets = self.known.get(key)
        if targets is None:
            targets = self.known[key] = [self.temp() for _ in range(ntargets)]
            self.lines.append((targets, template, operands))
        return targets[0] if ntargets == 1 else targets

    def const(self, c):
        name = self.const_names.get(c)
        if name is None:
            name = self.const_names[c] = self.line(f"C(K[{len(self.consts)}])", [])
            self.consts.append(float.fromhex(c))
        return name

    def get(self, ref, slot=()):
        nid, prefix = ref
        slot = prefix + slot
        name = self.names.get((nid, slot))
        if name is None:
            if slot:
                self.get((nid, ()))  # the value first, as the jet path does
            name = self.names[(nid, slot)] = self.emit(nid, slot)
        return name

    def emit(self, nid, slot):
        key = self.graph.nodes[nid]
        kind = key[0]
        get = self.get
        if kind == "const":
            return self.zero() if slot else self.const(key[1])
        if kind == "var":
            if not slot:
                return self.line(f"P[{key[1]}]", [])
            return self.unit() if slot == (key[1],) else self.zero()
        if kind == "neg":
            return self.line("-{}", [get(key[1], slot)])
        if kind in ("add", "sub"):
            op = "+" if kind == "add" else "-"
            return self.line(f"{{}} {op} {{}}", [get(key[1], slot), get(key[2], slot)])
        if kind == "mul":
            a, b = key[1], key[2]
            if not slot:
                return self.line("{} * {}", [get(a), get(b)])
            ops = [get(a, slot), get(b), get(b, slot), get(a)]
            if len(slot) == 1:
                return self.line("{} * {} + {} * {}", ops)
            k, j = slot
            ops += [get(a, (k,)), get(b, (j,)), get(b, (k,)), get(a, (j,))]
            # np.einsum builds each outer-product entry as 0.0 + a*b
            return self.line("{} * {} + {} * {} + ({} * {} + 0.0) + ({} * {} + 0.0)", ops)
        if kind == "one":
            get(key[1])
            return self.zero() if slot else self.const((1.0).hex())
        # chain-rule nodes: rec, pow, call
        f, d1, d2 = self.rule(nid, key)
        if not slot:
            return f
        x = key[1]
        if len(slot) == 1:
            return self.line("{} * {}", [d1, get(x, slot)])
        k, j = slot
        return self.line(
            "{} * {} + {} * ({} * {} + 0.0)", [d1, get(x, slot), d2, get(x, (k,)), get(x, (j,))]
        )

    def zero(self):
        return self.const((0.0).hex())

    def unit(self):
        return self.const((1.0).hex())

    def rule(self, nid, key):
        out = self.rule_out.get(nid)
        if out is None:
            kind, order = key[0], self.order[nid]
            if kind == "rec":
                call = "reciprocal_rule({})"
            elif kind == "pow":
                call = f"powi_rule({{}}, {key[2]}, {order})"
            else:
                call = f"RULES[{key[2]!r}]({{}})"
            x = self.get(key[1])
            if order == 0:
                out = (self.line(call + "[0]", [x]), None, None)
            else:
                out = tuple(self.line(call, [x], ntargets=3))
            self.rule_out[nid] = out
        return out


def _source(lines, outputs):
    """Function text; a temp's name is reused once its value is dead."""
    last = {}
    for i, (targets, _, operands) in enumerate(lines):
        for t in targets + operands:
            last[t] = i
    for t in outputs:
        last[t] = len(lines)
    free, name, count = [], {}, 0
    body = []
    for i, (targets, template, operands) in enumerate(lines):
        text = template.format(*(name[t] for t in operands))
        for t in set(operands):
            if last[t] == i:
                free.append(name[t])
        names = []
        for t in targets:
            if last[t] == i:
                names.append("_")  # never read
                continue
            if free:
                name[t] = free.pop()
            else:
                name[t] = f"t{count}"
                count += 1
            names.append(name[t])
        body.append(f"    {', '.join(names)} = {text}")
    body.append(f"    return {', '.join(name[t] for t in outputs)}")
    return "def lowered(P, C):\n" + "\n".join(body) + "\n"


def lower(comps):
    """Compile component fields into ``f(points) -> tuple of values``, or None.

    ``points`` must already be validated (``fields.as_points``).  The result
    raises :class:`~acpoisson.errors.DomainError` untagged where the jet path
    raises it tagged with the failing subexpression.
    """
    graph = _Graph()
    emitter = _Emitter(graph)
    try:
        refs = [graph.ref(c) for c in comps]
        for ref in refs:
            emitter.need(ref)
        outputs = [emitter.get(ref) for ref in refs]
    except (NotLowerable, RecursionError):
        return None
    text = _source(emitter.lines, outputs)
    scope = {"K": tuple(emitter.consts), "RULES": BUILTIN_RULES,
             "powi_rule": powi_rule, "reciprocal_rule": reciprocal_rule}
    exec(compile(text, "<lowered vector field>", "exec"), scope)
    return functools.partial(_call, scope["lowered"])


def _call(fn, points):
    shape = points.shape[1:]
    if shape:
        # constants take the batch shape, as Jet.constant gives them, and rows
        # are contiguous like the copies Jet.coordinate makes
        return fn(np.ascontiguousarray(points), functools.partial(np.full, shape))
    # at one point the values are numpy scalars where jets hold 0-d arrays:
    # + - * / round alike on both, and powi_rule makes its own 0-d array
    return fn(points, np.float64)
