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
  partial).  The emitter writes one line per needed (node, slot) pair, in
  dependency order, sharing lines that repeat; the slots of the variables a
  node does not contain are one computation, written once.  Constants are
  operands, not lines.  Each line performs the jets' operation, and a
  chain-rule line calls the value-level rule of :mod:`~acpoisson.jets` at
  the highest order any slot of its node reads.

  A pure line (``+ - *``) whose result is the same double at every finite
  point is not written: it becomes that constant, as activity analysis drops
  passive work in AD (Griewank & Walther, ch. 6-7).  The fold knows an
  operand as an exact constant, a coordinate (finite: ``values`` checks the
  point), a zero of unknown sign Z, or unknown (any other line's result, which
  may have overflowed, and ``0*inf`` is NaN).  Constant ``+ - *`` constant
  is the Python-float result, when finite; ``(±0)*x`` is Z for ``x`` a
  coordinate, a finite constant or Z; ``Z + c`` is ``c`` for a finite ``c``
  other than zero, ``Z + (+0)`` is ``+0``, and ``Z + (-0)``, ``Z + Z`` and
  ``-Z`` are Z; ``a - b`` is ``a + (-b)``.  These are IEEE 754 identities, so
  no zero changes sign; nothing else is folded.  A first-derivative product
  line with one all-constant product folds that product alone.  A pure line
  no line reads is dropped.  A rule line is never folded or dropped, since it
  may raise a domain error or count a cutoff nudge.

  A batch runs on arrays shaped as the jets shape them.  One point runs on
  Python floats, whose ``+ - *`` are the same IEEE double operations as
  numpy's; each rule still takes a numpy scalar and its results convert back
  exactly, so the values are bit-identical to the jets either way.  Nothing
  is cached beyond the compiled function itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import BinOp, Call, Const, Neg, Num, PartialField, Pow, Var, as_points
from .jets import BUILTIN_RULES, NVARS, Jet, powi_rule, reciprocal_rule

# jets carry derivatives up to the Hessian
MAX_ORDER = 2

_ARITH = {"+": "add", "-": "sub", "*": "mul"}
_COORDS = tuple(f"p{k}" for k in range(NVARS))
# the variable index that stands for every variable a node does not contain;
# _parts sets its bit in every mask
_ABSENT = NVARS


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
    """``(kind, parameter, child references, variable mask)`` of a node, as the jets compute it.

    ``a/b`` is ``a * rec(b)``, the reciprocal being the tuple ``("rec", *reference of b)``;
    ``a^0`` is ``one``, the constant 1, which still evaluates ``a``."""
    kind = type(node)
    if kind is tuple:
        return "rec", None, (node[1:],), node[1].mask | 1 << _ABSENT
    mask = node.mask | 1 << _ABSENT
    if kind is BinOp:
        a, b = _locate(node.left), _locate(node.right)
        if node.op == "/":
            return "mul", None, (a, (("rec", *b), ())), mask
        return _ARITH[node.op], None, (a, b), mask
    if kind is Num or kind is Const:
        return "const", node.value, (), mask
    if kind is Var:
        return "var", node.k, (), mask
    if kind is Neg:
        return "neg", None, (_locate(node.arg),), mask
    if kind is Pow:
        return ("one" if node.exponent == 0 else "pow"), node.exponent, (_locate(node.base),), mask
    return "call", node.func, (_locate(node.arg),), mask


# folding -------------------------------------------------------------------------
#
# The abstract value of an operand is a float (an exact finite constant),
# _COORD, _Z or None (unknown); a line whose value is a float becomes that
# constant.  The rules are those of the module docstring.

_COORD, _Z = "coordinate", "zero of unknown sign"


def _mul(u, v):
    if u is None or v is None:
        return None
    if type(u) is float and type(v) is float:
        r = u * v
        return r if math.isfinite(r) else None
    if u is _Z or v is _Z or u == 0.0 or v == 0.0:
        return _Z  # a zero times a finite value or a zero
    return None


def _add(u, v):
    if type(u) is float and type(v) is float:
        r = u + v
        return r if math.isfinite(r) else None
    if v is _Z:
        u, v = v, u
    if u is not _Z or v is None or v is _COORD:
        return None
    if v is _Z or v != 0.0:
        return v  # Z + Z is a zero; Z + c is c
    # Z + (+0) is +0 whatever Z's sign; Z + (-0) keeps Z's sign
    return _Z if math.copysign(1.0, v) < 0.0 else 0.0


def _neg(u):
    if type(u) is float:
        return -u
    return _Z if u is _Z else None


# line operations ---------------------------------------------------------------
#
# A line is ``(targets, op, operands)``: an operand is a temp or the name of a
# function argument, a coordinate ``p0``..``p4`` or a constant ``k0``, ``k1``,
# ...  A pure line has one target and an op from _EXPRESSIONS, given here as
# text; ``C`` gives a constant the batch shape.  A rule line's op is a tuple
# ``(kind, param, order)``: it calls its rule at that order and keeps its first
# order + 1 results.

_EXPRESSIONS = {
    "C": "C({})",
    "neg": "-{}",
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    # first derivative slot of a product, and the same with one all-constant
    # product folded into a constant
    "dmul": "{} * {} + {} * {}",
    "cdmul": "{} + {} * {}",
    "dmulc": "{} * {} + {}",
    # Hessian slots of a product and of a chain rule: np.einsum builds each
    # outer-product entry as 0.0 + x*y, so a -0.0 product enters as +0.0
    "hmul": "{} * {} + {} * {} + ({} * {} + 0.0) + ({} * {} + 0.0)",
    "hchain": "{} * {} + {} * ({} * {} + 0.0)",
}


class _Emitter:
    """One line per needed (node, slot), in dependency order; a line of a proven double is a constant."""

    def __init__(self):
        self.parts = {}  # node -> _parts(node)
        self.consts = {}  # hex of the constant -> its argument name
        self.values = []  # the constants' values, by argument number
        self.abstract = dict.fromkeys(_COORDS, _COORD)  # operand -> abstract value
        self.names = {}  # (node, slot) -> operand
        self.rules = {}  # chain-rule node -> [index of its rule line, highest order read, first target]
        self.lines = []  # (targets, op, operands)
        self.known = {}  # (op, *operands) -> the temp of a pure line
        self.ntemps = 0
        self.zero, self.one = self.const(0.0), self.const(1.0)

    def const(self, c):
        key = c.hex()
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"k{len(self.values)}"
            self.values.append(c)
            if math.isfinite(c):
                self.abstract[name] = c
        return name

    def line(self, op, operands, folded=None):
        """The operand of a pure line's result: a constant when ``folded`` is one."""
        if type(folded) is float:
            return self.const(folded)
        # lines are pure, so one that repeats an earlier line reuses its result
        key = (op, *operands)
        t = self.known.get(key)
        if t is None:
            t = self.known[key] = self.ntemps
            self.ntemps += 1
            self.lines.append(((t,), op, operands))
            if folded is _Z:
                self.abstract[t] = _Z
        return t

    def get(self, ref, slot=()):
        node, prefix = ref
        if prefix:
            slot = prefix + slot
        key = (node, slot)
        name = self.names.get(key)
        if name is not None:
            return name
        parts = self.parts.get(node)
        if parts is None:
            parts = self.parts[node] = _parts(node)
        kind, param = parts[0], parts[1]
        # leaves write no line
        if kind == "var":
            name = self.names[key] = (self.one if slot == (param,) else self.zero) if slot else _COORDS[param]
            return name
        if kind == "const":
            name = self.names[key] = self.zero if slot else self.const(param)
            return name
        if slot:
            # the slots of the variables a node does not contain are one
            # computation, written once as the slot of variable _ABSENT
            mask, k = parts[3], slot[0]
            if len(slot) == 1:
                same = slot if mask >> k & 1 else (_ABSENT,)
            elif len(slot) == 2:
                j = slot[1]
                same = (k if mask >> k & 1 else _ABSENT, j if mask >> j & 1 else _ABSENT)
            else:
                raise NotLowerable("derivative order beyond the jet budget")
            if same != slot:
                name = self.names[key] = self.get((node, ()), same)
                return name
            if (node, ()) not in self.names:
                self.get((node, ()))  # the value first, as the jet path does
        name = self.names[key] = self.emit(node, parts, slot)
        return name

    def emit(self, node, parts, slot):
        kind, param, children, _ = parts
        get = self.get
        abstract = self.abstract.get
        if kind == "mul":
            a, b = children
            if not slot:
                a, b = get(a), get(b)
                return self.line("mul", (a, b), _mul(abstract(a), abstract(b)))
            ops = (get(a, slot), get(b), get(b, slot), get(a))
            left, right = _mul(abstract(ops[0]), abstract(ops[1])), _mul(abstract(ops[2]), abstract(ops[3]))
            if len(slot) == 1:
                folded = _add(left, right)
                if folded is None and (type(left) is float) != (type(right) is float):
                    # one all-constant product is a constant operand
                    if type(left) is float:
                        return self.line("cdmul", (self.const(left), ops[2], ops[3]))
                    return self.line("dmulc", (ops[0], ops[1], self.const(right)))
                return self.line("dmul", ops, folded)
            k, j = slot
            ops += (get(a, (k,)), get(b, (j,)), get(b, (k,)), get(a, (j,)))
            v = [abstract(x) for x in ops[4:]]
            folded = _add(_add(_add(left, right), _add(_mul(v[0], v[1]), 0.0)), _add(_mul(v[2], v[3]), 0.0))
            return self.line("hmul", ops, folded)
        if kind == "add" or kind == "sub":
            a, b = get(children[0], slot), get(children[1], slot)
            u, v = abstract(a), abstract(b)
            return self.line(kind, (a, b), _add(u, v if kind == "add" else _neg(v)))
        x = children[0]
        if kind == "neg":
            x = get(x, slot)
            return self.line("neg", (x,), _neg(abstract(x)))
        if kind == "one":
            get(x)
            return self.zero if slot else self.one
        # chain-rule nodes: rec, pow, call.  Their lines never fold, since the
        # rule's results are unknown
        rule = self.rules.get(node)
        if rule is None:
            rule = self.rule(node, kind, param, x)
        f = rule[2]
        if not slot:
            return f
        if rule[1] < len(slot):
            rule[1] = len(slot)
        if len(slot) == 1:
            return self.line("mul", (f + 1, get(x, slot)))
        k, j = slot
        return self.line("hchain", (f + 1, get(x, slot), f + 2, get(x, (k,)), get(x, (j,))))

    def rule(self, node, kind, param, x):
        """Emit a chain-rule node's rule line, whose order is the highest slot read of it."""
        x = self.get(x)
        if type(x) is str and x[0] == "k":
            # a constant argument takes the batch shape, as the jets give it
            x = self.line("C", (x,))
        first = self.ntemps
        self.ntemps += MAX_ORDER + 1
        rule = self.rules[node] = [len(self.lines), 0, first]
        self.lines.append((range(first, first + MAX_ORDER + 1), (kind, param), (x,)))
        return rule

    def finish(self):
        """Give each rule line the order of the highest slot read of its node."""
        lines = self.lines
        for i, order, _ in self.rules.values():
            targets, (kind, param), operands = lines[i]
            lines[i] = (targets[: order + 1], (kind, param, order), operands)
        return lines


def _emit(fields):
    """Lines, output operands and constants of every field's value."""
    emitter = _Emitter()
    outputs = [emitter.get(_locate(f)) for f in fields]
    return emitter.finish(), outputs, emitter.values


# compiled text ---------------------------------------------------------------------

_RULE_CALLS = {
    "rec": "reciprocal_rule(A({x}), {order})",
    "pow": "powi_rule(A({x}), {param}, {order})",
    "call": "RULES[{param!r}](A({x}), {order})",
}
# the results a rule line keeps, by its order, each passed through V
_RULE_RESULTS = ("V({}[0])", "map(V, {}[:2])", "map(V, {})")


def _source(lines, outputs, nconsts):
    """Function text, written in one backward pass over the lines.

    Going backwards, a temp's first read is its last use: it takes a free name
    there, and gives the name back where it is written, for an earlier temp to
    reuse.  A pure line whose result is never read is dropped.  A rule line
    stays, because it may raise a domain error or warn of a cutoff nudge; a
    result of it never read is named ``_``.
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
        if type(op) is str:
            target = name.pop(targets[0], None)
            if target is not None:
                free.append(target)
                body.append(f"    {target} = {_EXPRESSIONS[op].format(*map(take, operands))}")
            continue
        written = []
        for t in targets:
            written.append(name.pop(t, "_"))
            if written[-1] != "_":
                free.append(written[-1])
        kind, param, order = op
        call = _RULE_CALLS[kind].format(x=take(operands[0]), param=param, order=order)
        body.append(f"    {', '.join(written)} = {_RULE_RESULTS[order].format(call)}")
    params = [*_COORDS, "C", "A", "V", *(f"k{i}" for i in range(nconsts))]
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
