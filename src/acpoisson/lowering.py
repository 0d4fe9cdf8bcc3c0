"""Evaluation of field groups: one memoized jet walk, plus one compiler.

* :func:`evaluate` serves every batch evaluation of a group of fields, at
  every size and order.  It runs the jets' own ``operands``/``combine`` steps
  (:mod:`~acpoisson.fields`), as ``Field.at`` does, but combines each (node,
  order) pair once and drops a jet after its last consumer: forward mode over
  a shared graph (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
  2008, ch. 6).  Its results are bit-identical to ``f.at(p, order)``, which
  walks the tree without a memo and stays the oracle, and a domain error
  names its failing subexpression.
* :func:`lower` compiles the components of a vector field into one
  straight-line Python function, which ``CoordVector.values`` keeps because
  the RK4 right-hand side calls it hundreds of times.  ``PartialField(parent,
  k)`` is the parent's derivative slot ``k`` (``(k, j)`` for a partial of a
  partial).  The emitter gives each node the highest order any use needs and
  writes one line per needed (node, slot) pair, in dependency order, sharing
  lines that repeat.  Each line performs the jets' numpy operation on
  operands of the same shape, through the value-level rules of
  :mod:`~acpoisson.jets`, and nothing is skipped: ``0*x`` and ``x + 0`` are
  computed as written, because skipping them could flip the sign of a zero or
  lose a NaN.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import BinOp, Call, Const, Neg, Num, PartialField, Pow, Var, as_points
from .jets import BUILTIN_RULES, Jet, powi_rule, reciprocal_rule

# jets carry derivatives up to the Hessian
MAX_ORDER = 2

_ARITH = {"+": "add", "-": "sub", "*": "mul"}
_ZERO, _ONE = (0.0).hex(), (1.0).hex()


class NotLowerable(Exception):
    """A field holds a node the lowering cannot express."""


def _locate(field):
    """``(node, derivative slot prefix)`` of a field: a partial is a slot of its parent's node."""
    prefix = ()
    while True:
        if type(field) is PartialField:
            prefix = (field.k, *prefix)
            field = field.parent
        elif type(field) is Pow and field.exponent == 1:
            field = field.base  # the jet path returns the base's jet itself
        elif isinstance(field, (Num, Const, Var, Neg, Pow, BinOp, Call)):
            return field, prefix
        else:
            raise NotLowerable(f"cannot lower a {type(field).__name__}")


def _parts(node):
    """``(kind, parameter, child references)`` of a node, as the jets compute it.

    ``a/b`` is ``a * rec(b)``, the reciprocal being the tuple ``("rec", *reference of b)``;
    ``a^0`` is ``one``, the constant 1, which still evaluates ``a``."""
    if type(node) is tuple:
        return "rec", None, (node[1:],)
    if isinstance(node, (Num, Const)):
        return "const", node.value.hex(), ()
    if type(node) is Var:
        return "var", node.k, ()
    if type(node) is Neg:
        return "neg", None, (_locate(node.arg),)
    if type(node) is Pow:
        return ("one" if node.exponent == 0 else "pow"), node.exponent, (_locate(node.base),)
    if isinstance(node, Call):
        return "call", node.func, (_locate(node.arg),)
    a, b = _locate(node.left), _locate(node.right)
    if node.op == "/":
        return "mul", None, (a, (("rec", *b), ()))
    return _ARITH[node.op], None, (a, b)


# line operations ---------------------------------------------------------------
#
# A line is ``(targets, op, operands)``: ``op`` is a tuple ``(kind, *params)``
# and the operands are temps.  ``C`` and ``P`` read the constants and points;
# rules return ``(f, d1, d2)`` and a one-target line keeps ``f``.  Every other
# kind is a pure expression, given here as text.

_EXPRESSIONS = {
    "neg": "-{}",
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    # first derivative slot of a product
    "dmul": "{} * {} + {} * {}",
    # Hessian slots of a product and of a chain rule: np.einsum builds each
    # outer-product entry as 0.0 + x*y, so a -0.0 product enters as +0.0
    "hmul": "{} * {} + {} * {} + ({} * {} + 0.0) + ({} * {} + 0.0)",
    "hchain": "{} * {} + {} * ({} * {} + 0.0)",
}


class _Emitter:
    """Derivative orders per node, then one line per needed (node, slot) in dependency order."""

    def __init__(self):
        self.order = {}  # node -> highest derivative order needed
        self.parts = {}  # node -> _parts(node)
        self.consts = []
        self.const_names = {}  # hex of the constant -> temp
        self.names = {}  # (node, slot) -> temp
        self.rule_out = {}  # node -> (f, d1, d2) temps
        self.lines = []  # (targets, op, operands)
        self.known = {}  # (op, number of targets, *operands) -> targets
        self.ntemps = 0

    def need(self, ref, order=0):
        node, prefix = ref
        order += len(prefix)
        if order > MAX_ORDER:
            raise NotLowerable("derivative order beyond the jet budget")
        if order <= self.order.get(node, -1):
            return
        self.order[node] = order
        kind, _, children = self.parts[node] = _parts(node)
        for child in children:
            # a^0 only evaluates a
            self.need(child, 0 if kind == "one" else order)

    # emission ------------------------------------------------------------------

    def temp(self):
        self.ntemps += 1
        return self.ntemps - 1

    def line(self, op, operands, ntargets=1):
        # lines are pure, so one that repeats an earlier line reuses its
        # result: the derivative slots of a term in variables it does not
        # contain are all the same computation on zeros
        key = (op, ntargets, *operands)
        targets = self.known.get(key)
        if targets is None:
            targets = self.known[key] = [self.temp() for _ in range(ntargets)]
            self.lines.append((targets, op, operands))
        return targets[0] if ntargets == 1 else targets

    def const(self, c):
        name = self.const_names.get(c)
        if name is None:
            name = self.const_names[c] = self.line(("C", len(self.consts)), ())
            self.consts.append(float.fromhex(c))
        return name

    def get(self, ref, slot=()):
        node, prefix = ref
        slot = prefix + slot
        name = self.names.get((node, slot))
        if name is None:
            if slot:
                self.get((node, ()))  # the value first, as the jet path does
            name = self.names[(node, slot)] = self.emit(node, slot)
        return name

    def emit(self, node, slot):
        kind, param, children = self.parts[node]
        get = self.get
        if kind == "const":
            return self.const(_ZERO if slot else param)
        if kind == "var":
            if not slot:
                return self.line(("P", param), ())
            return self.const(_ONE if slot == (param,) else _ZERO)
        if kind == "neg":
            return self.line(("neg",), (get(children[0], slot),))
        if kind in ("add", "sub"):
            return self.line((kind,), (get(children[0], slot), get(children[1], slot)))
        if kind == "mul":
            a, b = children
            if not slot:
                return self.line(("mul",), (get(a), get(b)))
            ops = (get(a, slot), get(b), get(b, slot), get(a))
            if len(slot) == 1:
                return self.line(("dmul",), ops)
            k, j = slot
            ops += (get(a, (k,)), get(b, (j,)), get(b, (k,)), get(a, (j,)))
            return self.line(("hmul",), ops)
        x = children[0]
        if kind == "one":
            get(x)
            return self.const(_ZERO if slot else _ONE)
        # chain-rule nodes: rec, pow, call
        f, d1, d2 = self.rule(node, kind, param, x)
        if not slot:
            return f
        if len(slot) == 1:
            return self.line(("mul",), (d1, get(x, slot)))
        k, j = slot
        return self.line(("hchain",), (d1, get(x, slot), d2, get(x, (k,)), get(x, (j,))))

    def rule(self, node, kind, param, x):
        out = self.rule_out.get(node)
        if out is None:
            order = self.order[node]
            if kind == "rec":
                op = ("rec",)
            elif kind == "pow":
                op = ("powi", param, order)
            else:
                op = ("call", param)
            x = self.get(x)
            if order == 0:
                out = (self.line(op, (x,)), None, None)
            else:
                out = tuple(self.line(op, (x,), ntargets=3))
            self.rule_out[node] = out
        return out


def _emit(fields):
    """Lines, output temps and constants of every field's value."""
    emitter = _Emitter()
    refs = [_locate(f) for f in fields]
    for ref in refs:
        emitter.need(ref)
    outputs = [emitter.get(ref) for ref in refs]
    return emitter.lines, outputs, emitter.consts


def _dying(lines, outputs):
    """Per line, the temps read or written there and never read after it."""
    last = {}
    for i, (targets, _, operands) in enumerate(lines):
        for t in targets:
            last[t] = i
        for t in operands:
            last[t] = i
    for t in outputs:
        last[t] = len(lines)
    dead = [[] for _ in lines]
    for t, i in last.items():
        if i < len(lines):
            dead[i].append(t)
    return dead


# compiled text ---------------------------------------------------------------------


def _text(op, names, ntargets):
    kind = op[0]
    if kind == "C":
        return f"C(K[{op[1]}])"
    if kind == "P":
        return f"P[{op[1]}]"
    if kind in _EXPRESSIONS:
        return _EXPRESSIONS[kind].format(*names)
    if kind == "rec":
        call = f"reciprocal_rule({names[0]})"
    elif kind == "powi":
        call = f"powi_rule({names[0]}, {op[1]}, {op[2]})"
    else:
        call = f"RULES[{op[1]!r}]({names[0]})"
    return call if ntargets == 3 else call + "[0]"


def _source(lines, outputs):
    """Function text; a temp's name is reused once its value is dead."""
    dying = _dying(lines, outputs)
    free, name, count = [], {}, 0
    body = []
    for (targets, op, operands), dead in zip(lines, dying):
        text = _text(op, [name[t] for t in operands], len(targets))
        for t in operands:
            if t in dead and t in name:
                free.append(name.pop(t))
        names = []
        for t in targets:
            if t in dead:
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
    try:
        lines, outputs, consts = _emit(comps)
    except (NotLowerable, RecursionError):
        return None
    text = _source(lines, outputs)
    scope = {"K": tuple(consts), "RULES": BUILTIN_RULES,
             "powi_rule": powi_rule, "reciprocal_rule": reciprocal_rule}
    exec(compile(text, "<lowered vector field>", "exec"), scope)
    return functools.partial(_call, scope["lowered"])


def _call(fn, points):
    """Run a compiled function with points and constants shaped as the jets shape them."""
    shape = points.shape[1:]
    if shape:
        # constants take the batch shape, as Jet.constant gives them, and rows
        # are contiguous like the copies Jet.coordinate makes
        return fn(np.ascontiguousarray(points), functools.partial(np.full, shape))
    # at one point the values are numpy scalars where jets hold 0-d arrays:
    # + - * / round alike on both, and powi_rule makes its own 0-d array
    return fn(points, np.float64)


# the memoized jet walk --------------------------------------------------------------


def evaluate(fields, points, order=0):
    """The jets of ``fields`` at ``points``, as ``[f.at(points, order) for f in fields]``.

    Each (node, order) pair is combined once, in the order the jets first reach
    it, and its jet is dropped after its last consumer.  Every output owns its
    arrays, also when a field repeats.
    """
    fields = list(fields)
    if not fields:
        return []
    points = as_points(points)
    for f in fields:
        f.check_budget(order)
    steps, users = [], {}  # (pair, its operand pairs) in post-order; pair -> consumer count

    def visit(pair):
        ops = pair[0].operands(pair[1])
        for op in ops:
            if op in users:
                users[op] += 1
            else:
                users[op] = 1
                visit(op)
        steps.append((pair, ops))

    wanted = {}  # output pair -> its positions in the result
    for i, f in enumerate(fields):
        pair = (f, order)
        if pair not in users:
            users[pair] = 0
            visit(pair)
        wanted.setdefault(pair, []).append(i)
    held, result = {}, [None] * len(fields)
    for pair, ops in steps:
        jet = pair[0].combine(points, pair[1], *map(held.__getitem__, ops))
        for op in ops:
            users[op] -= 1
            if not users[op]:
                del held[op]
        if users[pair]:
            held[pair] = jet
        for i in wanted.get(pair, ()):
            g, h = jet.grad, jet.hess
            result[i] = Jet(jet.value.copy(), None if g is None else g.copy(), None if h is None else h.copy())
    return result
