"""Evaluation of field groups: one memoized jet walk, plus one compiler.

* :func:`evaluate` serves every batch evaluation of a group of fields, at
  every size and order.  It runs the jets' own ``operands``/``combine`` steps
  (:mod:`~acpoisson.fields`), as ``Field.at`` does, but combines each (node,
  order) pair once and drops a jet after its last consumer: forward mode over
  a shared graph (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
  2008, ch. 6).  Its results are bit-identical to ``f.at(p, order)``, which
  walks the tree without a memo and stays the oracle, and a domain error
  names its failing subexpression.  Given a sample
  (:class:`~acpoisson.strata.SampleSet`) instead of bare points, the walk
  stops at the jets the sample already holds: a field held at the order
  needed, or higher, is a leaf whose jet is the held value, or value and
  gradient, since every rule computes those alike at every order.  A held
  field with a ``cutoff`` below it is walked again all the same, because a
  command counts the cutoff's nudges per evaluation.  The walk is a module
  function, not a closure that calls itself: such a closure is a reference
  cycle, which would keep the held jets, and with them the sample's memory,
  alive until the cyclic collector runs.
* :func:`lower` compiles the components of a vector field into one
  straight-line Python function, which ``CoordVector.values`` keeps because
  the RK4 right-hand side calls it hundreds of times.  ``PartialField(parent,
  k)`` is the parent's derivative slot ``k`` (``(k, j)`` for a partial of a
  partial).  The emitter writes one line per needed (node, slot) pair, in
  dependency order, sharing lines that repeat; the slots of the variables a
  node does not contain are one computation, written once.  Constants are
  operands, not lines.  Each line performs the jets' operation, and a
  chain-rule line calls the value-level rule of :mod:`~acpoisson.jets` at
  the highest order any slot of its node reads.  A square ``x^2`` is not a
  rule line but the pure lines ``x*x``, ``2.0*x`` and the constant 2.0: numpy
  computes ``v**2`` as ``v*v`` on numpy scalars, 0-d arrays and arrays alike,
  so these are the bits ``powi_rule(v, 2, ...)`` gives, and a square can
  raise no domain error and count no nudge.  Only the square qualifies:
  numpy's scalar and array results of other powers can differ in the last
  bit.

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

  The text is straight-line code, as few statements as it can be, because
  ``compile`` costs far more per statement than per operator: a pure line
  read by exactly one line (or output) is written inside its reader as an
  expression, parenthesized only where Python's precedence would group it
  otherwise, so the ``flow_rk4`` graphs compile 6-11 statements.  Every
  result is named once, so an expression written in place reads the values
  it would have read, in the jets' order of operations.  An expression grows
  to at most MAX_INLINE characters before it is named, which keeps its
  parentheses far below the 200 levels CPython's parser allows.

  A batch runs on arrays shaped as the jets shape them.  One point runs on
  Python floats, whose ``+ - *`` are the same IEEE double operations as
  numpy's; each rule still takes a numpy scalar and its results convert back
  exactly, so the values are bit-identical to the jets either way.  Nothing
  is cached beyond the compiled function itself.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .fields import BinOp, Const, Neg, Num, PartialField, Pow, Var, as_points
from .jets import BUILTIN_RULES, NVARS, Jet, powi_rule, reciprocal_rule

_ARITH = {"+": "add", "-": "sub", "*": "mul"}

# the names of the coordinates, of results and of constants, interned once
# and kept: a compiled function whose names died with it would add them to
# the interpreter's table of interned strings and take them out again, and
# that churn makes the table resize, which raised the peak memory of a long
# run of flows by a megabyte
_COORDS = tuple(sys.intern(f"p{k}") for k in range(NVARS))
_TEMPS = tuple(sys.intern(f"t{i}") for i in range(256))
_CONSTS = tuple(sys.intern(f"k{i}") for i in range(256))


def _name(names, prefix, i):
    return names[i] if i < len(names) else f"{prefix}{i}"


# the variable index that stands for every variable a node does not contain;
# _parts sets its bit in every mask
_ABSENT = NVARS


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
        else:
            return field, prefix


def _parts(node):
    """``(kind, parameter, child references, variable mask)`` of a node other than a leaf, as the jets compute it.

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
# A line is ``(op, operands)``; its index in the list of lines stands for its
# result.  An operand is the name of a function argument (a coordinate
# ``p0``..``p4`` or a constant ``k0``, ``k1``, ...), the index of a pure line,
# or ``(i, j)``, result ``j`` of the rule line at index ``i``.  A pure line's
# op is a key of _EXPRESSIONS, given here as text; ``C`` gives a constant the
# batch shape.  A rule line's op is ``(kind, param, order)``: it calls its
# rule at that order and keeps its first order + 1 results.

# how tightly an expression binds: a sum, a product, a negation, an atom
_SUM, _PRODUCT, _UNARY, _ATOM = 1, 2, 3, 4
# op -> (text, how tightly it binds, how tightly each operand place needs its
# operand to bind: a looser operand written in place is parenthesized)
_EXPRESSIONS = {
    "C": ("C({})", _ATOM, (0,)),
    "neg": ("-{}", _UNARY, (_UNARY,)),
    "add": ("{} + {}", _SUM, (_SUM, _PRODUCT)),
    "sub": ("{} - {}", _SUM, (_SUM, _PRODUCT)),
    "mul": ("{} * {}", _PRODUCT, (_PRODUCT, _UNARY)),
    # first derivative slot of a product, and the same with one all-constant
    # product folded into a constant
    "dmul": ("{} * {} + {} * {}", _SUM, (_PRODUCT, _UNARY) * 2),
    "cdmul": ("{} + {} * {}", _SUM, (_SUM, _PRODUCT, _UNARY)),
    "dmulc": ("{} * {} + {}", _SUM, (_PRODUCT, _UNARY, _PRODUCT)),
    # Hessian slots of a product and of a chain rule: np.einsum builds each
    # outer-product entry as 0.0 + x*y, so a -0.0 product enters as +0.0
    "hmul": ("{} * {} + {} * {} + ({} * {} + 0.0) + ({} * {} + 0.0)", _SUM, (_PRODUCT, _UNARY) * 4),
    "hchain": ("{} * {} + {} * ({} * {} + 0.0)", _SUM, (_PRODUCT, _UNARY, _PRODUCT, _PRODUCT, _UNARY)),
}


class _Emitter:
    """One line per needed (node, slot), in dependency order; a line of a proven double is a constant."""

    def __init__(self):
        self.parts = {}  # node -> _parts(node)
        self.consts = {}  # the constant (its hex for a zero) -> its argument name
        self.values = []  # the constants' values, by argument number
        self.abstract = dict.fromkeys(_COORDS, _COORD)  # operand -> abstract value
        self.names = {}  # (node, slot) -> operand
        self.rules = {}  # chain-rule node -> [index of its rule line, highest order read]
        self.lines = []  # (op, operands)
        self.known = {}  # (op, *operands) -> the index of a pure line
        self.zero, self.one = self.const(0.0), self.const(1.0)

    def const(self, c):
        key = c if c else c.hex()  # the two zeros are equal floats but distinct constants
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = _name(_CONSTS, "k", len(self.values))
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
        i = self.known.get(key)
        if i is None:
            i = self.known[key] = len(self.lines)
            self.lines.append((op, operands))
            if folded is _Z:
                self.abstract[i] = _Z
        return i

    def get(self, ref, slot=()):
        """The operand of (node, slot), emitting its lines on its first request."""
        node, prefix = ref
        if prefix:
            slot = prefix + slot
        # leaves write no line
        kind = type(node)
        if kind is Var:
            return (self.one if slot == (node.k,) else self.zero) if slot else _COORDS[node.k]
        if kind is Num or kind is Const:
            return self.zero if slot else self.const(node.value)
        key = (node, slot)
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = self.emit(node, slot)
        return name

    def emit(self, node, slot):
        parts = self.parts.get(node)
        if parts is None:
            parts = self.parts[node] = _parts(node)
        kind, param, children, mask = parts
        get = self.get
        if slot:
            # the slots of the variables a node does not contain are one
            # computation, written once as the slot of variable _ABSENT
            k = slot[0]
            if len(slot) == 1:
                if not mask >> k & 1:
                    return get((node, ()), (_ABSENT,))
            else:  # two long at most: a partial spends one order of a budget of at most 2
                j = slot[1]
                same = (k if mask >> k & 1 else _ABSENT, j if mask >> j & 1 else _ABSENT)
                if same != slot:
                    return get((node, ()), same)
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
        if kind == "pow" and param == 2:
            # a square is pure: numpy computes v**2 as v*v at every shape, and
            # powi_rule's derivatives are then 2*v and the constant 2
            v = get(x)
            if not slot:
                u = abstract(v)
                return self.line("mul", (v, v), _mul(u, u))
            d2 = self.const(2.0)
            d1 = self.line("mul", (d2, v), _mul(2.0, abstract(v)))
        else:
            # rec, pow and call nodes run their rule on a line that never
            # folds, since the rule's results are unknown
            rule = self.rules.get(node)
            if rule is None:
                rule = self.rule(node, kind, param, x)
            i = rule[0]
            if not slot:
                return (i, 0)
            if rule[1] < len(slot):
                rule[1] = len(slot)
            d1, d2 = (i, 1), (i, 2)
        if len(slot) == 1:
            dx = get(x, slot)
            return self.line("mul", (d1, dx), _mul(abstract(d1), abstract(dx)))
        k, j = slot
        return self.line("hchain", (d1, get(x, slot), d2, get(x, (k,)), get(x, (j,))))

    def rule(self, node, kind, param, x):
        """Emit a chain-rule node's rule line, whose order is the highest slot read of it."""
        x = self.get(x)
        if type(x) is str and x[0] == "k":
            # a constant argument takes the batch shape, as the jets give it
            x = self.line("C", (x,))
        rule = self.rules[node] = [len(self.lines), 0]
        self.lines.append(((kind, param), (x,)))
        return rule

    def finish(self):
        """Give each rule line the order of the highest slot read of its node."""
        lines = self.lines
        for i, order in self.rules.values():
            (kind, param), operands = lines[i]
            lines[i] = ((kind, param, order), operands)
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
# the longest expression written in place of an operand: its parentheses,
# each pair around at least an operator and two operands, nest far below the
# 200 levels CPython's parser allows
MAX_INLINE = 300


def _source(lines, outputs, nconsts):
    """Function text: a pure line read exactly once is written where it is read.

    Going backwards, the reads of each line are counted, outputs first: a
    pure line no line reads is dropped, and reads nothing.  Then, going
    forwards, each result that stays is named once, ``t0``, ``t1``, ... in
    the order they are written, so an expression written in place of its
    operand reads the same values where it lands.  It is parenthesized only
    where Python's precedence would group it otherwise, and one longer than
    MAX_INLINE is named instead.  A rule line is always written, because it
    may raise a domain error or count a cutoff nudge.  The function reads
    its ``nconsts`` constants ``k0``, ``k1``, ..., and A, V and the rules, as
    globals.
    """
    reads = [0] * len(lines)
    for x in outputs:
        if type(x) is int:
            reads[x] += 1
    for i in range(len(lines) - 1, -1, -1):
        op, operands = lines[i]
        if reads[i] or type(op) is not str:
            for y in operands:
                if type(y) is int:
                    reads[y] += 1
    body = [f"# globals: k0 .. k{nconsts - 1}, A, V and the rules", f"def lowered({', '.join(_COORDS)}, C):"]
    # a pure line's (text, how tightly it binds); a rule line's result names
    texts = [None] * len(lines)
    named = 0

    def operand(x, place=0):
        if type(x) is int:
            text, binding = texts[x]
            return text if binding >= place else f"({text})"
        return x if type(x) is str else texts[x[0]][x[1]]  # an argument, or a rule line's result

    for i, (op, operands) in enumerate(lines):
        if type(op) is not str:
            kind, param, order = op
            call = _RULE_CALLS[kind].format(x=operand(operands[0]), param=param, order=order)
            texts[i] = [_name(_TEMPS, "t", named + j) for j in range(order + 1)]
            named += order + 1
            body.append(f"    {', '.join(texts[i])} = {_RULE_RESULTS[order].format(call)}")
        elif reads[i]:
            form, binding, places = _EXPRESSIONS[op]
            text = form.format(*map(operand, operands, places))
            if reads[i] == 1 and len(text) <= MAX_INLINE:
                texts[i] = (text, binding)
            else:
                texts[i] = (_name(_TEMPS, "t", named), _ATOM)
                body.append(f"    {texts[i][0]} = {text}")
                named += 1
    body.append(f"    return {', '.join(map(operand, outputs))},")
    return "\n".join(body) + "\n"


def lower(comps):
    """Compile component fields into ``f(points)``, or None when the graph is nested too deeply to emit.

    ``points`` is one point as a sequence of five finite Python floats, for
    which ``f`` gives a tuple of len(comps) Python floats, or a batch (5, ...)
    already validated by ``fields.as_points``, for which it gives an array
    ``(len(comps),) + batch shape``.  ``f`` raises
    :class:`~acpoisson.errors.DomainError` untagged where the jet path raises
    it tagged with the failing subexpression.
    """
    try:
        lines, outputs, consts = _emit(comps)
    except RecursionError:
        return None
    code = compile(_source(lines, outputs, len(consts)), "<lowered vector field>", "exec")
    # one point runs on Python floats: + - * round as on numpy scalars.  A rule
    # takes a numpy scalar, for its domain check, and V turns its results back
    # into Python floats exactly; powi_rule makes its own 0-d array, as the
    # jets hold.  A batch reads each constant as a 0-d array, which numpy
    # multiplies from either side as fast as an array
    point = _function(code, tuple(consts), np.float64, float)
    batch = _function(code, tuple(map(np.asarray, consts)), _same, _same)
    return functools.partial(_call, point, batch)


def _function(code, consts, A, V):
    """The function the compiled text defines, with its constants, A and V bound."""
    scope = {_name(_CONSTS, "k", i): c for i, c in enumerate(consts)}
    scope.update(RULES=BUILTIN_RULES, powi_rule=powi_rule, reciprocal_rule=reciprocal_rule, A=A, V=V)
    exec(code, scope)
    return scope.pop("lowered")  # the scope keeps no reference back: no cycle for the collector


def _same(v):
    return v


def _call(point, batch, points):
    """Run a compiled function on one point or a batch; values come out as the jets give them."""
    if type(points) is not np.ndarray:
        return point(*points, np.float64)
    shape = points.shape[1:]
    # rows are contiguous like the copies Jet.coordinate makes, and a constant
    # rule argument is full like a Jet.constant; a constant component broadcasts
    values = batch(*np.ascontiguousarray(points), functools.partial(np.full, shape))
    out = np.empty((len(values),) + shape)
    for row, v in zip(out, values):
        row[...] = v
    return out


# the memoized jet walk --------------------------------------------------------------


def evaluate(fields, points, order=0):
    """The jets of ``fields`` at ``points``, as ``[f.at(points, order) for f in fields]``.

    ``points`` is a point (5,), a batch (5, ...), or a sample
    (:class:`~acpoisson.strata.SampleSet`), evaluated at its points.  Each (node,
    order) pair is combined once, in the order the jets first reach it, and its
    jet is dropped after its last consumer.  On a sample, a field the sample
    holds at ``order`` or higher is a leaf: its held value, or value and
    gradient, is the jet, unless a ``cutoff`` lies below it (``nudges``),
    because each evaluation counts its own nudges.  Every output owns its
    arrays, also when a field repeats.
    """
    fields = list(fields)
    if not fields:
        return []
    held = getattr(points, "_jets", None) or None  # the jets a sample holds; None on bare points
    points = as_points(sample_points(points))
    for f in fields:
        f.check_budget(order)
    steps, users = [], {}  # (pair, its operand pairs, or None for a held leaf) in post-order; pair -> consumer count
    wanted = {}  # output pair -> its positions in the result
    for i, f in enumerate(fields):
        pair = (f, order)
        if pair not in users:
            users[pair] = 0
            _visit(pair, users, steps, held)
        wanted.setdefault(pair, []).append(i)
    live, result = {}, [None] * len(fields)
    for pair, ops in steps:
        if ops is None:
            jet = _truncated(held[pair[0]], pair[1])
        else:
            jet = pair[0].combine(points, pair[1], *map(live.__getitem__, ops))
            for op in ops:
                users[op] -= 1
                if not users[op]:
                    del live[op]
        if users[pair]:
            live[pair] = jet
        for i in wanted.get(pair, ()):
            g, h = jet.grad, jet.hess
            result[i] = Jet(jet.value.copy(), None if g is None else g.copy(), None if h is None else h.copy())
    return result


def sample_points(p):
    """The points of a sample, or ``p`` itself when it is bare points."""
    return getattr(p, "points", p)


def _visit(pair, users, steps, held):
    """Append the steps of ``pair`` to ``steps`` after those of the operands it reaches first.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which would keep ``held``, and so a sample's jets, alive
    until the cyclic collector runs.
    """
    field, order = pair
    if held is not None:
        jet = held.get(field)
        if jet is not None and jet.order >= order and not field.nudges:
            steps.append((pair, None))
            return
    ops = field.operands(order)
    for op in ops:
        if op in users:
            users[op] += 1
        else:
            users[op] = 1
            _visit(op, users, steps, held)
    steps.append((pair, ops))


def _truncated(jet, order):
    """A held jet cut to ``order``, sharing its arrays: every rule computes value and gradient alike at every order."""
    if jet.order == order:
        return jet
    return Jet(jet.value, jet.grad if order >= 1 else None, None)
