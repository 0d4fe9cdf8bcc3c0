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
  lines that repeat; constants are operands, not lines.  Each line performs
  the jets' operation, and a chain-rule line calls the value-level rule of
  :mod:`~acpoisson.jets` at its node's order.  Nothing is skipped: ``0*x``
  and ``x + 0`` are computed as written, because skipping them could flip the
  sign of a zero or lose a NaN.  A batch runs on arrays shaped as the jets
  shape them.  One point runs on Python floats, whose ``+ - *`` are the same
  IEEE double operations as numpy's; each rule still takes a numpy scalar and
  its results convert back exactly, so the values are bit-identical to the
  jets either way.  Nothing is cached beyond the compiled function itself.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import BinOp, Call, Const, Neg, Num, PartialField, Pow, Var, as_points
from .jets import BUILTIN_RULES, NVARS, Jet, powi_rule, reciprocal_rule

# jets carry derivatives up to the Hessian
MAX_ORDER = 2

_ARITH = {"+": "add", "-": "sub", "*": "mul"}
_ZERO, _ONE = (0.0).hex(), (1.0).hex()


class NotLowerable(Exception):
    """A field holds a node the lowering cannot express."""


_NODES = frozenset({Num, Const, Var, Neg, Pow, BinOp, Call})


def _locate(field):
    """``(node, derivative slot prefix)`` of a field: a partial is a slot of its parent's node."""
    prefix = ()
    while True:
        kind = type(field)
        if kind is PartialField:
            prefix = (field.k, *prefix)
            field = field.parent
        elif kind is Pow and field.exponent == 1:
            field = field.base  # the jet path returns the base's jet itself
        elif kind in _NODES:
            return field, prefix
        else:
            raise NotLowerable(f"cannot lower a {kind.__name__}")


def _parts(node):
    """``(kind, parameter, child references)`` of a node, as the jets compute it.

    ``a/b`` is ``a * rec(b)``, the reciprocal being the tuple ``("rec", *reference of b)``;
    ``a^0`` is ``one``, the constant 1, which still evaluates ``a``."""
    kind = type(node)
    if kind is BinOp:
        a, b = _locate(node.left), _locate(node.right)
        if node.op == "/":
            return "mul", None, (a, (("rec", *b), ()))
        return _ARITH[node.op], None, (a, b)
    if kind is Num or kind is Const:
        return "const", node.value.hex(), ()
    if kind is Var:
        return "var", node.k, ()
    if kind is tuple:
        return "rec", None, (node[1:],)
    if kind is Neg:
        return "neg", None, (_locate(node.arg),)
    if kind is Pow:
        return ("one" if node.exponent == 0 else "pow"), node.exponent, (_locate(node.base),)
    return "call", node.func, (_locate(node.arg),)


# line operations ---------------------------------------------------------------
#
# A line is ``(targets, op, operands)``: ``op`` is a tuple ``(kind, *params)``
# and an operand is a temp or the name of a function argument: a coordinate
# ``p0``..``p4`` or a constant ``k0``, ``k1``, ...  ``C`` gives a constant the
# batch shape; a rule line calls its rule at the line's order and keeps its
# first order + 1 results.  Every other kind is a pure expression, given here
# as text.

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
        self.consts = {}  # hex of the constant -> its argument name
        self.names = {}  # (node, slot) -> operand
        self.rule_out = {}  # node -> (f, d1, d2) operands, None above the node's order
        self.lines = []  # (targets, op, operands)
        self.known = {}  # (op, number of targets, *operands) -> targets
        self.ntemps = 0

    def need(self, ref, order=0):
        node, prefix = ref
        if prefix:
            order += len(prefix)
            if order > MAX_ORDER:
                raise NotLowerable("derivative order beyond the jet budget")
        if order <= self.order.get(node, -1):
            return
        self.order[node] = order
        parts = self.parts.get(node)
        if parts is None:
            parts = self.parts[node] = _parts(node)
        kind, _, children = parts
        for child in children:
            # a^0 only evaluates a
            self.need(child, 0 if kind == "one" else order)

    # emission ------------------------------------------------------------------

    def line(self, op, operands, ntargets=1):
        # lines are pure, so one that repeats an earlier line reuses its
        # result: the derivative slots of a term in variables it does not
        # contain are all the same computation on zeros
        key = (op, ntargets, *operands)
        targets = self.known.get(key)
        if targets is None:
            first = self.ntemps
            targets = self.known[key] = [first] if ntargets == 1 else list(range(first, first + ntargets))
            self.ntemps += ntargets
            self.lines.append((targets, op, operands))
        return targets[0] if ntargets == 1 else targets

    def const(self, c):
        name = self.consts.get(c)
        if name is None:
            name = self.consts[c] = f"k{len(self.consts)}"
        return name

    def get(self, ref, slot=()):
        node, prefix = ref
        if prefix:
            slot = prefix + slot
        key = (node, slot)
        name = self.names.get(key)
        if name is None:
            if slot and (node, ()) not in self.names:
                self.get((node, ()))  # the value first, as the jet path does
            name = self.names[key] = self.emit(node, slot)
        return name

    def emit(self, node, slot):
        kind, param, children = self.parts[node]
        get = self.get
        if kind == "const":
            return self.const(_ZERO if slot else param)
        if kind == "var":
            if not slot:
                return f"p{param}"
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
            x = self.get(x)
            if type(x) is str and x[0] == "k":
                # a constant argument takes the batch shape, as the jets give it
                x = self.line(("C", x), ())
            targets = self.line((kind, param, order), (x,), ntargets=order + 1)
            out = self.rule_out[node] = (*(targets if order else [targets]), None, None)[:3]
        return out


def _emit(fields):
    """Lines, output operands and constants of every field's value."""
    emitter = _Emitter()
    refs = [_locate(f) for f in fields]
    for ref in refs:
        emitter.need(ref)
    outputs = [emitter.get(ref) for ref in refs]
    return emitter.lines, outputs, [float.fromhex(c) for c in emitter.consts]


# compiled text ---------------------------------------------------------------------

_RULE_CALLS = {
    "rec": "reciprocal_rule(A({x}), {order})",
    "pow": "powi_rule(A({x}), {param}, {order})",
    "call": "RULES[{param!r}](A({x}), {order})",
}
# the results a rule line keeps, by its order, each passed through V
_RULE_RESULTS = ("V({}[0])", "map(V, {}[:2])", "map(V, {})")


def _text(op, names):
    kind = op[0]
    if kind == "C":
        return f"C({op[1]})"
    if kind in _EXPRESSIONS:
        return _EXPRESSIONS[kind].format(*names)
    _, param, order = op
    call = _RULE_CALLS[kind].format(x=names[0], param=param, order=order)
    return _RULE_RESULTS[order].format(call)


def _source(lines, outputs, nconsts):
    """Function text, written in one backward pass over the lines.

    Going backwards, a temp's first read is its last use: it takes a free name
    there, and gives the name back where it is written, for an earlier temp to
    reuse.  A target never read is named ``_``.
    """
    name, free = {}, []

    def take(t):
        if type(t) is str:  # an argument
            return t
        if t not in name:
            name[t] = free.pop() if free else f"t{len(name) + len(free)}"
        return name[t]

    body = [f"    return {', '.join(map(take, outputs))},"]
    for targets, op, operands in reversed(lines):
        written = []
        for t in targets:
            written.append(name.pop(t, "_"))
            if written[-1] != "_":
                free.append(written[-1])
        body.append(f"    {', '.join(written)} = {_text(op, [take(t) for t in operands])}")
    params = [*(f"p{k}" for k in range(NVARS)), "C", "A", "V", *(f"k{i}" for i in range(nconsts))]
    body.append(f"def lowered({', '.join(params)}):")
    return "\n".join(reversed(body)) + "\n"


def lower(comps):
    """Compile component fields into ``f(points) -> (len(comps),) + batch shape values``, or None.

    ``points`` is one point as a list of five finite Python floats, or a
    batch (5, ...) already validated by ``fields.as_points``.  The result
    raises :class:`~acpoisson.errors.DomainError` untagged where the jet path
    raises it tagged with the failing subexpression.
    """
    try:
        lines, outputs, consts = _emit(comps)
    except (NotLowerable, RecursionError):
        return None
    scope = {"RULES": BUILTIN_RULES, "powi_rule": powi_rule, "reciprocal_rule": reciprocal_rule}
    exec(compile(_source(lines, outputs, len(consts)), "<lowered vector field>", "exec"), scope)
    # a batch reads each constant as a 0-d array, which numpy multiplies from
    # either side as fast as an array; one point reads Python floats
    return functools.partial(_call, scope["lowered"], tuple(consts), tuple(map(np.asarray, consts)))


def _same(v):
    return v


def _call(fn, consts, batch_consts, points):
    """Run a compiled function on one point or a batch; values come out as the jets give them."""
    if type(points) is list:
        # at one point the lines run on Python floats: + - * round as on numpy
        # scalars.  A rule takes a numpy scalar, for its domain check, and its
        # results turn back into Python floats exactly; powi_rule makes its own
        # 0-d array, as the jets hold
        return np.array(fn(*points, np.float64, np.float64, float, *consts))
    shape = points.shape[1:]
    # rows are contiguous like the copies Jet.coordinate makes, and a constant
    # rule argument is full like a Jet.constant; a constant component broadcasts
    values = fn(*np.ascontiguousarray(points), functools.partial(np.full, shape), _same, _same, *batch_consts)
    out = np.empty((len(values),) + shape)
    for row, v in zip(out, values):
        row[...] = v
    return out


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
