"""Field-level exterior calculus and coordinate-frame tensor kernels.

:class:`FieldElement` is a form/multivector whose coefficients are scalar
fields; it evaluates to a :class:`~acpoisson.graded.GradedElement` at a point.
The split exterior differential, the Schouten bracket of bivector fields, Lie
derivatives and divergences live here, together with the moving-frame to
coordinate-frame conversions (hor_i = d/dx_i - gamma_i^a d/dy_a).
"""

from __future__ import annotations

import numpy as np

from .errors import OrderBudgetExceeded
from .fields import Field, as_field, is_zero
from .graded import GradedElement, key_factors, wedge_keys

# coordinate order: x1 x2 y1 y2 y3
X_SLOTS = (0, 1)
Y_SLOTS = (2, 3, 4)


class FieldElement:
    """Graded element with field coefficients, evaluable at chart points."""

    __slots__ = ("kind", "coeffs")

    def __init__(self, kind, coeffs=None):
        self.kind = kind
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                self._add(key, as_field(c))

    def _add(self, key, f):
        if is_zero(f):
            if key not in self.coeffs:
                return
        if key in self.coeffs:
            self.coeffs[key] = self.coeffs[key] + f
        else:
            self.coeffs[key] = f

    @classmethod
    def form(cls, coeffs=None):
        return cls("form", coeffs)

    @classmethod
    def multivector(cls, coeffs=None):
        return cls("mv", coeffs)

    def __add__(self, other):
        if other == 0:
            return FieldElement(self.kind, dict(self.coeffs))
        if self.kind != other.kind:
            raise ValueError("cannot add elements of different kinds")
        out = FieldElement(self.kind, dict(self.coeffs))
        for key, f in other.coeffs.items():
            out._add(key, f)
        return out

    __radd__ = __add__

    def scale(self, s):
        s = as_field(s)
        return FieldElement(self.kind, {k: f * s for k, f in self.coeffs.items()})

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def wedge(self, other):
        if self.kind != other.kind:
            raise ValueError("wedge requires elements of the same kind")
        out = FieldElement(self.kind)
        for ka, fa in self.coeffs.items():
            for kb, fb in other.coeffs.items():
                merged = wedge_keys(ka, kb)
                if merged is None:
                    continue
                sign, key = merged
                term = fa * fb
                out._add(key, term if sign > 0 else term * -1.0)
        return out

    def project(self, p, q):
        return FieldElement(
            self.kind, {k: f for k, f in self.coeffs.items() if (len(k[0]), len(k[1])) == (p, q)}
        )

    def at(self, p, order=0) -> GradedElement:
        """Evaluate coefficients at point(s) p; order>0 is rarely needed."""
        return GradedElement(
            self.kind, {k: f.at(p, order=order).value for k, f in self.coeffs.items()}
        )

    def min_budget(self):
        return min((f.budget for f in self.coeffs.values()), default=2)

    def __repr__(self):
        items = ", ".join(str(k) for k in sorted(self.coeffs))
        return f"FieldElement({self.kind}, keys=[{items}])"


# exterior differential -----------------------------------------------------


def hor_apply(conn, i, f: Field, derivative=None) -> Field:
    """Horizontal derivative hor_i(f) = df/dx_i - gamma_i^a df/dy_a.

    ``derivative`` defaults to ``Field.partial`` (jet extraction, one order
    spent); ``Field.derivative`` is symbolic and keeps the full budget of
    expression-backed input, which derived structures (gauge images) need.
    """
    derivative = derivative or Field.partial
    out = derivative(f, X_SLOTS[i - 1])
    for a in (1, 2, 3):
        g = conn.gamma[i - 1][a - 1]
        if is_zero(g):
            continue
        out = out - g * derivative(f, Y_SLOTS[a - 1])
    return out


def d_eta(conn, a) -> FieldElement:
    """Differential of the coframe element eta^a = dy^a + gamma_i^a dx^i."""
    g1, g2 = conn.gamma[0][a - 1], conn.gamma[1][a - 1]
    out = FieldElement.form()
    # (2,0) part: (hor_1 g2 - hor_2 g1) dx^1 ^ dx^2
    out._add(((1, 2), ()), hor_apply(conn, 1, g2) - hor_apply(conn, 2, g1))
    # (1,1) part: -(dgamma_i^a/dy^b) dx^i ^ eta^b
    for i in (1, 2):
        gi = conn.gamma[i - 1][a - 1]
        if is_zero(gi):
            continue
        for b in (1, 2, 3):
            out._add(((i,), (b,)), -1.0 * gi.partial(Y_SLOTS[b - 1]))
    return out


def exterior_d_field(xi: FieldElement, conn) -> FieldElement:
    """Full exterior differential of a form with field coefficients."""
    if xi.kind != "form":
        raise ValueError("d is defined on forms")
    detas = {a: d_eta(conn, a) for a in (1, 2, 3)}
    out = FieldElement.form()
    for key, c in xi.coeffs.items():
        h, v = key
        # dc ^ monomial
        for i in (1, 2):
            merged = wedge_keys(((i,), ()), key)
            if merged is not None:
                sign, nk = merged
                out._add(nk, hor_apply(conn, i, c) * sign)
        for a in (1, 2, 3):
            merged = wedge_keys(((), (a,)), key)
            if merged is not None:
                sign, nk = merged
                out._add(nk, c.partial(Y_SLOTS[a - 1]) * sign)
        # c * d(monomial): only eta factors contribute (dx^i is closed)
        for j, a in enumerate(v):
            pos = len(h) + j  # 0-based slot of eta^a in the factor list
            sign = -1.0 if pos % 2 else 1.0
            prefix = FieldElement.form({(h, v[:j]): 1.0})
            suffix = FieldElement.form({((), v[j + 1 :]): 1.0})
            term = prefix.wedge(detas[a]).wedge(suffix).scale(c)
            for nk, nf in term.coeffs.items():
                out._add(nk, nf if sign > 0 else nf * -1.0)
    return out


def d_component(xi: FieldElement, conn, shift) -> FieldElement:
    """Bigraded component of d: shift is (1,0), (0,1) or (2,-1)."""
    sh, sv = shift
    out = FieldElement.form()
    for key, c in xi.coeffs.items():
        p, q = len(key[0]), len(key[1])
        single = exterior_d_field(FieldElement.form({key: c}), conn)
        part = single.project(p + sh, q + sv)
        for nk, nf in part.coeffs.items():
            out._add(nk, nf)
    return out


def exterior_d(xi: FieldElement, conn, p, order=0) -> GradedElement:
    """Pointwise full differential; coefficients need jet budget >= 1 + order."""
    if xi.min_budget() < 1 + order:
        raise OrderBudgetExceeded("coefficients do not support the requested differential")
    return exterior_d_field(xi, conn).at(p, order=order)


def cochain_residuals(conn, test: FieldElement, p):
    """Residual norms of the three coboundary identities of the split d."""
    d10 = lambda e: d_component(e, conn, (1, 0))
    d01 = lambda e: d_component(e, conn, (0, 1))
    d2m1 = lambda e: d_component(e, conn, (2, -1))
    r1 = (d10(d10(test)) + d2m1(d01(test)) + d01(d2m1(test))).at(p).norm()
    r2 = (d10(d01(test)) + d01(d10(test))).at(p).norm()
    r3 = d01(d01(test)).at(p).norm()
    return r1, r2, r3


# frame conversions ----------------------------------------------------------


def coord_basis_in_moving(conn):
    """Coordinate frame vectors written in the moving frame, as FieldElements."""
    basis = {}
    for i in (1, 2):
        coeffs = {((i,), ()): 1.0}
        for a in (1, 2, 3):
            g = conn.gamma[i - 1][a - 1]
            if not is_zero(g):
                coeffs[((), (a,))] = g
        basis[i - 1] = FieldElement.multivector(coeffs)
    for a in (1, 2, 3):
        basis[2 + a - 1] = FieldElement.multivector({((), (a,)): 1.0})
    return basis


def moving_basis_in_coord(conn):
    """Moving frame vectors written in the coordinate frame (same key layout)."""
    basis = {}
    for i in (1, 2):
        coeffs = {((i,), ()): 1.0}
        for a in (1, 2, 3):
            g = conn.gamma[i - 1][a - 1]
            if not is_zero(g):
                coeffs[((), (a,))] = g * -1.0
        basis[("h", i)] = FieldElement.multivector(coeffs)
    for a in (1, 2, 3):
        basis[("v", a)] = FieldElement.multivector({((), (a,)): 1.0})
    return basis


def _convert_bivector(P: FieldElement, basis_map) -> FieldElement:
    out = FieldElement.multivector()
    for key, c in P.coeffs.items():
        factors = key_factors(key)
        if len(factors) != 2:
            raise ValueError("expected a bivector")
        fa, fb = factors
        ea = basis_map[fa] if fa in basis_map else basis_map[_slot(fa)]
        eb = basis_map[fb] if fb in basis_map else basis_map[_slot(fb)]
        term = ea.wedge(eb).scale(c)
        for nk, nf in term.coeffs.items():
            out._add(nk, nf)
    return out


def _slot(factor):
    kind, idx = factor
    return idx - 1 if kind == "h" else 2 + idx - 1


def moving_to_coord_bivector(P: FieldElement, conn) -> FieldElement:
    """Expand hor_i factors; the result's keys read as coordinate indices."""
    return _convert_bivector(P, moving_basis_in_coord(conn))


def coord_to_moving_bivector(P: FieldElement, conn) -> FieldElement:
    """Re-bigrade a coordinate bivector with respect to the given connection."""
    return _convert_bivector(P, coord_basis_in_moving(conn))


# coordinate-frame kernels ---------------------------------------------------

_PAIR_TO_COORDS = {}
for _i in (1, 2):
    _PAIR_TO_COORDS[((_i,), ())] = None
_PAIR_TO_COORDS[((1, 2), ())] = (0, 1)
for _i in (1, 2):
    for _a in (1, 2, 3):
        _PAIR_TO_COORDS[((_i,), (_a,))] = (_i - 1, 2 + _a - 1)
for _a in (1, 2, 3):
    for _b in (1, 2, 3):
        if _a < _b:
            _PAIR_TO_COORDS[((), (_a, _b))] = (2 + _a - 1, 2 + _b - 1)


def bivector_matrix_fields(P: FieldElement):
    """Dict {(mu, nu): Field} with mu < nu over coordinate slots 0..4."""
    out = {}
    for key, c in P.coeffs.items():
        pair = _PAIR_TO_COORDS.get(key)
        if pair is None:
            raise ValueError(f"not a coordinate bivector key: {key}")
        out[pair] = out[pair] + c if pair in out else c
    return out


class CoordVector:
    """Vector field in the coordinate frame: five scalar-field components."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = [as_field(c) for c in comps]

    def values(self, p):
        return np.stack([c.at(p, order=0).value for c in self.comps])

    def jets(self, p):
        vals, grads = [], []
        for c in self.comps:
            jet = c.at(p, order=1)
            vals.append(jet.value)
            grads.append(jet.grad)
        return np.stack(vals), np.stack(grads)  # (5,...) and (5,5,...)


def matrix_values(matrix_fields, p, order=1):
    """Evaluate a bivector's component fields to a full antisymmetric array."""
    probe = next(iter(matrix_fields.values())).at(p, order=0).value if matrix_fields else None
    shape = np.shape(probe) if probe is not None else np.shape(np.asarray(p)[0])
    vals = np.zeros((5, 5) + shape)
    grads = np.zeros((5, 5, 5) + shape) if order >= 1 else None
    for (mu, nu), f in matrix_fields.items():
        jet = f.at(p, order=order)
        vals[mu, nu] = jet.value
        vals[nu, mu] = -jet.value
        if order >= 1:
            grads[mu, nu] = jet.grad
            grads[nu, mu] = -jet.grad
    return (vals, grads) if order >= 1 else vals


TRIPLES = [(m, n, l) for m in range(5) for n in range(m + 1, 5) for l in range(n + 1, 5)]


def schouten_bivectors(A, B, p):
    """Schouten bracket of two coordinate bivectors at p.

    Inputs are ``{(mu, nu): Field}`` maps (or FieldElements, converted).
    Returns ``{(mu, nu, lam): value}`` for the 10 increasing triples.
    """
    same = B is A
    if isinstance(A, FieldElement):
        A = bivector_matrix_fields(A)
    if isinstance(B, FieldElement):
        B = A if same else bivector_matrix_fields(B)
    va, ga = matrix_values(A, p)
    vb, gb = (va, ga) if same else matrix_values(B, p)
    out = {}
    for (m, n, l) in TRIPLES:
        total = 0.0
        for (i, j, k) in ((m, n, l), (n, l, m), (l, m, n)):
            # sum over rho of A^{i rho} d_rho B^{jk} + B^{i rho} d_rho A^{jk}
            total = total + np.einsum("r...,r...->...", va[i], gb[j, k])
            total = total + np.einsum("r...,r...->...", vb[i], ga[j, k])
        out[(m, n, l)] = total
    return out


def schouten_norm(A, B, p):
    comps = schouten_bivectors(A, B, p)
    return max(float(np.max(np.abs(v))) for v in comps.values())


def lie_derivative_bivector(X: CoordVector, P, p):
    """L_X P for a vector and a bivector, both in the coordinate frame."""
    if isinstance(P, FieldElement):
        P = bivector_matrix_fields(P)
    vx, gx = X.jets(p)
    vp, gp = matrix_values(P, p)
    out = {}
    for mu in range(5):
        for nu in range(mu + 1, 5):
            term = np.einsum("r...,r...->...", vx, gp[mu, nu])
            term = term - np.einsum("r...,r...->...", vp[:, nu], gx[mu])
            term = term - np.einsum("r...,r...->...", vp[mu], gx[nu])
            out[(mu, nu)] = term
    return out


def lie_derivative_norm(X, P, p):
    comps = lie_derivative_bivector(X, P, p)
    return max(float(np.max(np.abs(v))) for v in comps.values())


def vector_commutator(X: CoordVector, Y: CoordVector, p):
    """[X, Y] at p, componentwise."""
    vx, gx = X.jets(p)  # gx[m, r] = d_r X^m
    vy, gy = Y.jets(p)
    return np.einsum("r...,mr...->m...", vx, gy) - np.einsum("r...,mr...->m...", vy, gx)


def divergence(X: CoordVector, p, density: Field | None = None):
    """div X with respect to the chart volume scaled by ``density``."""
    vx, gx = X.jets(p)
    div = np.einsum("mm...->...", gx)
    if density is not None:
        jet = density.at(p, order=1)
        if np.any(jet.value == 0.0):
            from .errors import ZeroVolumeFactor

            raise ZeroVolumeFactor("volume density vanishes at a sampled point")
        div = div + np.einsum("m...,m...->...", vx, jet.grad) / jet.value
    return div
