"""Field-level exterior calculus and coordinate-frame tensor kernels.

:class:`FieldElement` is the bigraded algebra of :mod:`acpoisson.graded` with
scalar-field coefficients: it inherits the sums, wedges and projections, never
stores a zero field under a new key, and evaluates to a
:class:`~acpoisson.graded.GradedElement` at a point.
The split exterior differential, the Schouten bracket of bivector fields, Lie
derivatives and divergences live here, together with the moving-frame to
coordinate-frame conversions (hor_i = d/dx_i - gamma_i^a d/dy_a).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ZeroVolumeFactor
from .fields import Field, as_field, as_points, is_zero
from .graded import GradedElement, key_factors, wedge_keys
from .lowering import evaluate, lower, sample_points

# coordinate order: x1 x2 y1 y2 y3
X_SLOTS = (0, 1)
Y_SLOTS = (2, 3, 4)


class FieldElement(GradedElement):
    """Graded element with field coefficients, evaluable at chart points."""

    __slots__ = ()

    def _add(self, key, c):
        f = as_field(c)
        if key in self.coeffs:
            self.coeffs[key] = self.coeffs[key] + f
        elif not is_zero(f):
            self.coeffs[key] = f

    def at(self, p) -> GradedElement:
        """Evaluate coefficients at point(s) or a sample p."""
        return evaluate_elements([self], p)[0]


def evaluate_elements(elements, p):
    """Evaluate the coefficients of several elements as one group, sharing their subexpressions.

    ``p`` is points or a sample, whose held jets the group walk reads."""
    jets = iter(evaluate([f for e in elements for f in e.coeffs.values()], p))
    return [GradedElement(e.kind, {k: next(jets).value for k in e.coeffs}) for e in elements]


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
    """Full exterior differential of a form: the sum of its three bigraded components."""
    return sum(d_components(xi, conn, [(1, 0), (0, 1), (2, -1)]))


def d_component(xi: FieldElement, conn, shift) -> FieldElement:
    """Bigraded component of d: shift is (1,0), (0,1) or (2,-1)."""
    return d_components(xi, conn, [shift])[0]


def d_components(xi: FieldElement, conn, shifts) -> list[FieldElement]:
    """Several bigraded components of d, building only the terms they read.

    d(c m) = dc ^ m + c dm.  The horizontal part of dc shifts the bidegree by
    (1,0) and its vertical part by (0,1); dm replaces each eta^a of m by
    d eta^a, whose parts shift it by (1,0) and (2,-1) (``Connection.d_eta_parts``).
    A monomial's terms are summed per key before they join the component.
    """
    if xi.kind != "form":
        raise ValueError("d is defined on forms")
    outs = {sh: FieldElement.form() for sh in shifts}
    eta_shifts = [sh for sh in ((1, 0), (2, -1)) if sh in outs]
    detas = conn.d_eta_parts if eta_shifts else None
    for key, c in xi.coeffs.items():
        h, v = key
        if len(h) + len(v) == 5 or is_zero(c):
            continue  # d of a top-degree form vanishes; its wedges would overflow
        terms = {sh: FieldElement.form() for sh in outs}
        for i in (1, 2) if (1, 0) in outs else ():
            merged = wedge_keys(((i,), ()), key)
            if merged is not None:
                terms[1, 0]._add(merged[1], hor_apply(conn, i, c) * merged[0])
        for a in (1, 2, 3) if (0, 1) in outs else ():
            merged = wedge_keys(((), (a,)), key)
            if merged is not None:
                terms[0, 1]._add(merged[1], c.partial(Y_SLOTS[a - 1]) * merged[0])
        for j, a in enumerate(v if eta_shifts else ()):
            prefix = FieldElement.form({(h, v[:j]): 1.0})
            suffix = FieldElement.form({((), v[j + 1 :]): 1.0})
            for sh in eta_shifts:
                for nk, nf in prefix.wedge(detas[a][sh]).wedge(suffix).scale(c).coeffs.items():
                    terms[sh]._add(nk, nf * -1.0 if (len(h) + j) % 2 else nf)
        for sh, out in outs.items():
            for nk, nf in terms[sh].copy().coeffs.items():  # the copy drops sums that cancelled
                out._add(nk, nf)
    return [outs[sh] for sh in shifts]


def cochain_residual_forms(conn, test: FieldElement):
    """The three coboundary identities of the split d, as forms that vanish when they hold."""
    d10, d01, d2m1 = d_components(test, conn, [(1, 0), (0, 1), (2, -1)])
    d10d10, d01d10 = d_components(d10, conn, [(1, 0), (0, 1)])
    d10d01, d01d01, d2m1d01 = d_components(d01, conn, [(1, 0), (0, 1), (2, -1)])
    (d01d2m1,) = d_components(d2m1, conn, [(0, 1)])
    return [d10d10 + d2m1d01 + d01d2m1, d10d01 + d01d10, d01d01]


def cochain_residuals(conn, test: FieldElement, p):
    """Residual norms of the three coboundary identities of the split d."""
    return tuple(r.norm() for r in evaluate_elements(cochain_residual_forms(conn, test), p))


# frame conversions ----------------------------------------------------------


def _frame(conn, sign):
    """One frame's vectors written in the other, keyed by basis factor ('h', i) or ('v', a).

    hor_i = d/dx_i - gamma_i^a d/dy_a: ``sign`` -1.0 gives the moving frame in
    coordinates, +1.0 the coordinate frame in the moving one; dy_a is shared.
    """
    basis = {}
    for i in (1, 2):
        coeffs = {((i,), ()): 1.0}
        for a in (1, 2, 3):
            g = conn.gamma[i - 1][a - 1]
            if not is_zero(g):
                coeffs[((), (a,))] = g if sign > 0 else g * -1.0
        basis[("h", i)] = FieldElement.multivector(coeffs)
    for a in (1, 2, 3):
        basis[("v", a)] = FieldElement.multivector({((), (a,)): 1.0})
    return basis


def _convert_bivector(P: FieldElement, frame) -> FieldElement:
    out = FieldElement.multivector()
    for key, c in P.coeffs.items():
        factors = key_factors(key)
        if len(factors) != 2:
            raise ValueError("expected a bivector")
        fa, fb = factors
        term = frame[fa].wedge(frame[fb]).scale(c)
        for nk, nf in term.coeffs.items():
            out._add(nk, nf)
    return out


def moving_to_coord_bivector(P: FieldElement, conn) -> FieldElement:
    """Expand hor_i factors; the result's keys read as coordinate indices."""
    return _convert_bivector(P, _frame(conn, -1.0))


def coord_to_moving_bivector(P: FieldElement, conn) -> FieldElement:
    """Re-bigrade a coordinate bivector with respect to the given connection."""
    return _convert_bivector(P, _frame(conn, 1.0))


# coordinate-frame kernels ---------------------------------------------------

_COORD = {("h", 1): 0, ("h", 2): 1, ("v", 1): 2, ("v", 2): 3, ("v", 3): 4}  # basis factor -> slot


def bivector_matrix_fields(P: FieldElement):
    """Dict {(mu, nu): Field} with mu < nu over coordinate slots 0..4."""
    out = {}
    for key, c in P.coeffs.items():
        factors = key_factors(key)
        if len(factors) != 2:
            raise ValueError(f"not a coordinate bivector key: {key}")
        out[_COORD[factors[0]], _COORD[factors[1]]] = c
    return out


class CoordVector:
    """Vector field in the coordinate frame: five scalar-field components.

    ``values`` runs the components as one straight-line function, compiled on
    first use (``lowering.lower``) and bit-identical to evaluating each
    component's jet; a graph nested too deeply to compile and every domain error
    go through ``lowering.evaluate``, so an error names its failing subexpression.
    ``jets`` evaluates the components as one group (``lowering.evaluate``), on
    points or on a sample, whose held jets the walk reads.
    """

    __slots__ = ("comps", "_lowered")

    def __init__(self, comps):
        self.comps = [as_field(c) for c in comps]
        self._lowered = None  # the compiled function; False when the graph is too deep to lower

    def values(self, p):
        """The components at ``p``, the same doubles whichever form ``p`` takes.

        ``p`` is one point as a sequence of five Python floats, whose values
        come back as a tuple of Python floats, or an array, a point (5,) or a
        batch (5, ...), whose values come back as an array.
        """
        if self._lowered is None:
            self._lowered = lower(self.comps) or False
        if type(p) is not np.ndarray:
            return self._at_point(p)
        p = as_points(p)
        if p.shape == (5,):
            return np.array(self._at_point(p.tolist()))
        if self._lowered:
            try:
                return self._lowered(p)
            except DomainError:
                pass  # the jet path raises it again, tagged
        return np.stack([jet.value for jet in evaluate(self.comps, p)])

    def _at_point(self, point):
        # one point runs as five Python floats, checked here without numpy
        if self._lowered and all(map(math.isfinite, point)):
            try:
                return self._lowered(point)
            except DomainError:
                pass  # the jet path raises it again, tagged
        return tuple(jet.value.item() for jet in evaluate(self.comps, np.array(point, dtype=float)))

    def jets(self, p):
        jets = evaluate(self.comps, p, 1)
        # (5,...) and (5,5,...)
        return np.stack([j.value for j in jets]), np.stack([j.grad for j in jets])


def _bivector_jets(matrix_fields, p, order):
    """A bivector's component fields run as one group: the full antisymmetric
    value array and the component jets, keyed as ``matrix_fields``; ``p`` is
    points or a sample."""
    jets = dict(zip(matrix_fields, evaluate(matrix_fields.values(), p, order)))
    vals = np.zeros((5, 5) + np.shape(np.asarray(sample_points(p))[0]))
    for (mu, nu), jet in jets.items():
        vals[mu, nu] = jet.value
        vals[nu, mu] = -jet.value
    return vals, jets


def matrix_values(matrix_fields, p):
    """Evaluate a bivector's component fields, as one group, to a full antisymmetric value array."""
    return _bivector_jets(matrix_fields, p, 0)[0]


class _Gradients:
    """``grad[mu, nu]``, the gradient of a bivector component, read from its jets:
    a lower-triangle entry is the negated upper one, and an absent one is zero."""

    __slots__ = ("jets", "zero")

    def __init__(self, jets, vals):
        self.jets = jets
        self.zero = np.zeros_like(vals[0])

    def __getitem__(self, pair):
        jet = self.jets.get(pair)
        if jet is not None:
            return jet.grad
        jet = self.jets.get(pair[::-1])
        return self.zero if jet is None else -jet.grad


def _bivector_gradients(matrix_fields, p):
    """The full value array and the gradient lookup of a bivector, from one group evaluation."""
    vals, jets = _bivector_jets(matrix_fields, p, 1)
    return vals, _Gradients(jets, vals)


TRIPLES = [(m, n, l) for m in range(5) for n in range(m + 1, 5) for l in range(n + 1, 5)]


def schouten_bivectors(A, B, p):
    """Schouten bracket of two coordinate bivectors at p.

    Inputs are ``{(mu, nu): Field}`` maps (``bivector_matrix_fields``).
    Returns ``{(mu, nu, lam): value}`` for the 10 increasing triples.
    """
    va, ga = _bivector_gradients(A, p)
    vb, gb = (va, ga) if B is A else _bivector_gradients(B, p)
    out = {}
    for (m, n, l) in TRIPLES:
        total = 0.0
        for (i, j, k) in ((m, n, l), (n, l, m), (l, m, n)):
            # sum over rho of A^{i rho} d_rho B^{jk} + B^{i rho} d_rho A^{jk}
            total = total + np.einsum("r...,r...->...", va[i], gb[j, k])
            total = total + np.einsum("r...,r...->...", vb[i], ga[j, k])
        out[(m, n, l)] = total
    return out


def lie_derivative_bivector(X: CoordVector, P, p):
    """L_X P for a vector and a ``{(mu, nu): Field}`` bivector, both in the coordinate frame."""
    vx, gx = X.jets(p)
    vp, gp = _bivector_gradients(P, p)
    out = {}
    for mu in range(5):
        for nu in range(mu + 1, 5):
            term = np.einsum("r...,r...->...", vx, gp[mu, nu])
            term = term - np.einsum("r...,r...->...", vp[:, nu], gx[mu])
            term = term - np.einsum("r...,r...->...", vp[mu], gx[nu])
            out[(mu, nu)] = term
    return out


def vector_commutator(X: CoordVector, Y: CoordVector, p):
    """[X, Y] at p, componentwise."""
    vx, gx = X.jets(p)  # gx[m, r] = d_r X^m
    vy, gy = Y.jets(p)
    return np.einsum("r...,mr...->m...", vx, gy) - np.einsum("r...,mr...->m...", vy, gx)


def divergence(X: CoordVector, p, density: Field):
    """div X with respect to the chart volume scaled by ``density``, read through the sample ``p``."""
    from .strata import as_sample

    sample = as_sample(p)
    vx, gx = X.jets(sample)
    (jet,) = sample.jets([density], 1)
    if np.any(jet.value == 0.0):
        raise ZeroVolumeFactor("volume density vanishes at a sampled point")
    return np.einsum("mm...->...", gx) + np.einsum("m...,m...->...", vx, jet.grad) / jet.value
