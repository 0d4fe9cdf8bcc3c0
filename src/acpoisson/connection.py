"""Ehresmann connection data and its derived invariants.

A connection is stored by its six component fields gamma_i^a; the horizontal
frame hor_i = d/dx_i - gamma_i^a d/dy_a and everything else is derived.  The
two scalar invariants are

* ``theta``: the fiber-volume drift 1-form, theta_i = -sum_a d(gamma_i^a)/dy^a;
* ``rho``: the curvature 2-form, rho^a = hor_2(gamma_1^a) - hor_1(gamma_2^a).

``theta_from_volume``/``rho_from_volume`` recompute both through the split
differential of the fiber volume coframe and must agree with the component
formulas to rounding.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import calculus as ca
from .calculus import Y_SLOTS, CoordVector, FieldElement
from .fields import ConstField, Field, as_field
from .graded import interior, omega_h, omega_v, q_horizontal, q_vertical
from .lowering import evaluate


class Connection:
    """Connection with components gamma[i][a], i in {1,2}, a in {1,2,3}."""

    def __init__(self, gamma):
        if len(gamma) != 2 or any(len(row) != 3 for row in gamma):
            raise ValueError("gamma must be a 2x3 array of fields")
        self.gamma = [[as_field(g) for g in row] for row in gamma]

    @classmethod
    def flat(cls):
        return cls([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    @cached_property
    def d_eta_parts(self):
        """d eta^a by a, built once and split by the bidegree shift each part gives a monomial
        in ``calculus.d_components``: the (1,1) part under (1, 0), the (2,0) part under (2, -1)."""
        detas = {a: ca.d_eta(self, a) for a in (1, 2, 3)}
        return {a: {(1, 0): de.project(1, 1), (2, -1): de.project(2, 0)} for a, de in detas.items()}

    def gamma_values(self, p):
        return np.stack([np.stack([j.value for j in evaluate(row, p)]) for row in self.gamma])


class ConnectionShift:
    """Vertical-valued shift Xi with Im Xi in V and V in ker Xi.

    Stored by its action on d/dx_i: Xi[i][a] scalar fields.
    """

    def __init__(self, xi):
        if len(xi) != 2 or any(len(row) != 3 for row in xi):
            raise ValueError("xi must be a 2x3 array of fields")
        self.xi = [[as_field(f) for f in row] for row in xi]

    @classmethod
    def zero(cls):
        return cls([[0.0] * 3, [0.0] * 3])

    @classmethod
    def gauge(cls, mu, beta, epsilon):
        """Shift induced by a horizontal 1-form mu against the vertical 1-form ``beta``.

        Component form: Xi_i^a = -epsilon * eps^{abc} (dmu_i/dy^b) beta_c.
        """
        mu = [as_field(m) for m in mu]
        bc = beta.comps
        rows = []
        for i in (0, 1):
            dm = [mu[i].derivative(Y_SLOTS[b]) for b in range(3)]
            row = []
            for a in range(3):
                acc = ConstField(0.0)
                for b in range(3):
                    for c in range(3):
                        sign = _levi_civita(a, b, c)
                        if sign:
                            acc = acc + dm[b] * bc[c] * (sign * -epsilon)
                row.append(acc)
            rows.append(row)
        return cls(rows)

    def __add__(self, other):
        return ConnectionShift(
            [[self.xi[i][a] + other.xi[i][a] for a in range(3)] for i in range(2)]
        )


def _levi_civita(a, b, c):
    perm = (a, b, c)
    if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1.0
    if perm in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1.0
    return 0.0


def shift(conn: Connection, xi: ConnectionShift) -> Connection:
    """New connection gamma - Xi; the horizontal bundle moves to (id+Xi)H."""
    return Connection([[conn.gamma[i][a] - xi.xi[i][a] for a in range(3)] for i in range(2)])


def horizontal_lift(i: int, conn: Connection) -> CoordVector:
    """hor_i as a coordinate-frame vector field."""
    comps = [ConstField(0.0)] * 5
    comps[i - 1] = ConstField(1.0)
    for a in range(3):
        comps[2 + a] = conn.gamma[i - 1][a] * -1.0
    return CoordVector(comps)


def theta(conn: Connection) -> FieldElement:
    """Volume drift 1-form, bidegree (1,0)."""
    out = FieldElement.form()
    for i in (1, 2):
        acc = ConstField(0.0)
        for a in range(3):
            acc = acc - conn.gamma[i - 1][a].partial(Y_SLOTS[a])
        out._add(((i,), ()), acc)
    return out


def rho_components(conn: Connection) -> list[Field]:
    """The three curvature component fields rho^a = hor_2 g1^a - hor_1 g2^a."""
    return [
        ca.hor_apply(conn, 2, conn.gamma[0][a]) - ca.hor_apply(conn, 1, conn.gamma[1][a])
        for a in range(3)
    ]


def rho(conn: Connection) -> FieldElement:
    """Curvature 2-form, bidegree (0,2): -(rho^1 e23 - rho^2 e13 + rho^3 e12)."""
    r = rho_components(conn)
    return FieldElement.form(
        {((), (2, 3)): r[0] * -1.0, ((), (1, 3)): r[1], ((), (1, 2)): r[2] * -1.0}
    )


def theta_from_volume(conn: Connection, p):
    """theta through the fiber volume: -i_{Q_V} d_{1,0} Omega_V, at p."""
    d10 = ca.d_component(FieldElement.form(omega_v().coeffs), conn, (1, 0)).at(p)
    return interior(q_vertical(), d10).scale(-1.0)


def rho_from_volume(conn: Connection, p):
    """rho through the fiber volume: i_{Q_H} d_{2,-1} Omega_V, at p."""
    d2m1 = ca.d_component(FieldElement.form(omega_v().coeffs), conn, (2, -1)).at(p)
    return interior(q_horizontal(), d2m1)


def curvature(conn: Connection, p):
    """Commutator [hor_1, hor_2] at p: a vertical vector, 3 components.

    Equals +rho^a d/dy_a under this package's sign conventions, which is fixed
    by the identity i_{Curv} Omega_V = -Omega_H(hor_1, hor_2) rho.
    """
    h1 = horizontal_lift(1, conn)
    h2 = horizontal_lift(2, conn)
    comm = ca.vector_commutator(h1, h2, p)
    return comm[2:]


def f4_residual_forms(conn: Connection):
    """d_{1,0}Omega_V - theta ^ Omega_V and d_{2,-1}Omega_V - Omega_H ^ rho: both vanish."""
    vol_v = FieldElement.form(omega_v().coeffs)
    lhs1, lhs2 = ca.d_components(vol_v, conn, [(1, 0), (2, -1)])
    return [lhs1 - theta(conn).wedge(vol_v), lhs2 - FieldElement.form(omega_h().coeffs).wedge(rho(conn))]


def f4_residuals(conn: Connection, p):
    """Residual norms of d_{1,0}Omega_V = theta ^ Omega_V and d_{2,-1}Omega_V = Omega_H ^ rho."""
    return tuple(r.norm() for r in ca.evaluate_elements(f4_residual_forms(conn), p))
