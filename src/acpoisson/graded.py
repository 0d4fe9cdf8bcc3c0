"""Bigraded exterior/multivector algebra at a point.

Elements live over the moving frame {hor_1, hor_2, dy_1, dy_2, dy_3} (multi-
vectors) and coframe {dx^1, dx^2, eta^1, eta^2, eta^3} (forms).  A monomial is
keyed ``(h, v)`` with ``h`` a strictly increasing tuple from {1,2} and ``v``
from {1,2,3}; horizontal factors always precede vertical ones.  This is the
one bigraded algebra of the package: :class:`GradedElement` holds floats or
numpy arrays (point batches), and its subclass
:class:`~acpoisson.calculus.FieldElement` holds scalar fields and adds only
how a coefficient is stored and how the element is evaluated at points.

Sign conventions (fixed once, used everywhere):

* wedge is the standard graded product;
* a degree-1 argument contracts the first slot:
  ``i_v(a_1^...^a_m) = sum_j (-1)^(j-1) <a_j, v> (factors without a_j)``;
* a decomposable multivector of degree p contracts a form by
  ``i_{X_1^...^X_p} s = (-1)^(p-1) * s(X_1, ..., X_p, . )``,
  which reduces to ``i_{X^Y} = i_X o i_Y`` for vector pairs;
* a decomposable form contracts a multivector slot-by-slot in listed order
  (no extra sign).

These choices make ``i_{Q_H} Omega_H = i_{Q_V} Omega_V = 1`` with
``Q_H = -hor_1^hor_2`` and ``Q_V = dy_1^dy_2^dy_3`` while keeping
``i_{dy_2^dy_3}(eta^1^eta^2^eta^3) = -eta^1``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeOverflow, DegreeUnderflow


def mono_degree(key):
    h, v = key
    return len(h) + len(v)


def _merge_sorted(a, b):
    """Merge two strictly increasing tuples; return (sign, merged) or None on collision."""
    if set(a) & set(b):
        return None
    merged = tuple(sorted(a + b))
    # count transpositions needed to interleave b into a
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1.0 if inversions % 2 else 1.0), merged


def wedge_keys(ka, kb):
    """Combine monomial keys; returns (sign, key) or None if the product vanishes."""
    ha, va = ka
    hb, vb = kb
    mh = _merge_sorted(ha, hb)
    if mh is None:
        return None
    mv = _merge_sorted(va, vb)
    if mv is None:
        return None
    sh, h = mh
    sv, v = mv
    # moving the |hb| horizontal factors of b past the |va| vertical factors of a
    cross = -1.0 if (len(hb) * len(va)) % 2 else 1.0
    return sh * sv * cross, (h, v)


def contract_key(key, factor):
    """Contract one dual basis factor ('h', i) or ('v', a) against a monomial.

    Returns (sign, key) or None; the factor hits the first matching slot with
    the usual alternating sign.
    """
    h, v = key
    kind, idx = factor
    if kind == "h":
        if idx not in h:
            return None
        pos = h.index(idx)
        sign = -1.0 if pos % 2 else 1.0
        return sign, (h[:pos] + h[pos + 1 :], v)
    if idx not in v:
        return None
    pos = len(h) + v.index(idx)
    sign = -1.0 if pos % 2 else 1.0
    return sign, (h, v[:pos - len(h)] + v[pos - len(h) + 1 :])


def key_factors(key):
    h, v = key
    return [("h", i) for i in h] + [("v", a) for a in v]


class GradedElement:
    """Sparse form or multivector at a point (or point batch)."""

    __slots__ = ("kind", "coeffs")

    def __init__(self, kind, coeffs=None):
        if kind not in ("form", "mv"):
            raise ValueError("kind must be 'form' or 'mv'")
        self.kind = kind
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                self._add(key, c)

    def _add(self, key, c):
        if key in self.coeffs:
            self.coeffs[key] = self.coeffs[key] + c
        else:
            self.coeffs[key] = c

    @classmethod
    def form(cls, coeffs=None):
        return cls("form", coeffs)

    @classmethod
    def multivector(cls, coeffs=None):
        return cls("mv", coeffs)

    def copy(self):
        return type(self)(self.kind, dict(self.coeffs))

    def max_degree(self):
        return max((mono_degree(k) for k in self.coeffs), default=0)

    def __add__(self, other):
        if other == 0:
            return self.copy()
        if self.kind != other.kind:
            raise ValueError("cannot add a form and a multivector")
        out = self.copy()
        for key, c in other.coeffs.items():
            out._add(key, c)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, s):
        return type(self)(self.kind, {k: c * s for k, c in self.coeffs.items()})

    def __neg__(self):
        return self.scale(-1.0)

    def wedge(self, other):
        if self.kind != other.kind:
            raise ValueError("wedge requires elements of the same kind")
        if self.coeffs and other.coeffs and self.max_degree() + other.max_degree() > 5:
            raise DegreeOverflow("wedge exceeds the chart's top degree 5")
        out = type(self)(self.kind)
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                merged = wedge_keys(ka, kb)
                if merged is None:
                    continue
                sign, key = merged
                term = ca * cb
                # not ``term * sign``: a field times 1.0 is a new node whose
                # product rule turns a -0.0 gradient slot into +0.0
                out._add(key, term if sign > 0 else term * -1.0)
        return out

    def project(self, p, q):
        """Keep exactly the (p, q) bidegree monomials."""
        return type(self)(
            self.kind, {k: c for k, c in self.coeffs.items() if (len(k[0]), len(k[1])) == (p, q)}
        )

    def coefficient(self, key):
        return self.coeffs.get(key, 0.0)

    def norm(self):
        """Max absolute coefficient (over batch entries as well)."""
        return max([0.0, *(float(np.max(np.abs(c))) for c in self.coeffs.values())])

    def allclose(self, other, tol=1e-12):
        keys = set(self.coeffs) | set(other.coeffs)
        for k in keys:
            if np.max(np.abs(np.asarray(self.coefficient(k)) - np.asarray(other.coefficient(k)))) > tol:
                return False
        return True

    def __repr__(self):
        items = ", ".join(f"{k}: {c}" for k, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}({self.kind}, {{{items}}})"


def _contract_once(element, factor):
    out = GradedElement(element.kind)
    for key, c in element.coeffs.items():
        hit = contract_key(key, factor)
        if hit is None:
            continue
        sign, new_key = hit
        out._add(new_key, c * sign)
    return out


def interior(arg: GradedElement, target: GradedElement) -> GradedElement:
    """Interior product pairing multivectors with forms (either direction)."""
    if arg.kind == target.kind:
        raise ValueError("interior requires one multivector and one form")
    if arg.coeffs and target.coeffs and arg_min_degree(arg) > target.max_degree():
        raise DegreeUnderflow("argument degree exceeds target degree")
    mv_on_form = arg.kind == "mv"
    out = GradedElement(target.kind)
    for key, c in arg.coeffs.items():
        p = mono_degree(key)
        acc = target
        for factor in key_factors(key):
            acc = _contract_once(acc, factor)
        sign = -1.0 if (mv_on_form and p % 2 == 0) else 1.0  # (-1)^(p-1)
        for k2, c2 in acc.coeffs.items():
            out._add(k2, c * c2 * sign)
    return out


def arg_min_degree(a):
    return min((mono_degree(k) for k in a.coeffs), default=0)


# chart constants ---------------------------------------------------------


def omega_h():
    """Base area form dx^1 ^ dx^2 pulled back to the chart."""
    return GradedElement.form({((1, 2), ()): 1.0})


def omega_v():
    """Fiber volume coframe eta^1 ^ eta^2 ^ eta^3."""
    return GradedElement.form({((), (1, 2, 3)): 1.0})


def q_vertical():
    """Vertical 3-vector dual to omega_v: i_{Q_V} Omega_V = 1."""
    return GradedElement.multivector({((), (1, 2, 3)): 1.0})


def q_horizontal():
    """Horizontal 2-vector dual to omega_h: Q_H = -hor_1 ^ hor_2."""
    return GradedElement.multivector({((1, 2), ()): -1.0})
