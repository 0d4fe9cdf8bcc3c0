"""Gauge deformations of Poisson triples.

A gauge datum is a horizontal 1-form mu = mu_i dx^i and a function c that is a
Casimir of the vertical structure.  The induced transformation shifts the
connection by the vertical-bracket coupling of mu with beta, rescales kappa by
1/(1 - eps kappa (vk - c)), and leaves beta untouched.  ``family`` realizes
the eps-scaled conjugated version whose eps = 0 member is the input triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from . import connection as cn
from . import strata as st
from . import triple as tr
from .calculus import Y_SLOTS, FieldElement
from .errors import EmptyDomain, OutsideDomain
from .fields import ConstField, Field, as_field
from .lowering import evaluate


@dataclass
class GaugeData:
    """Horizontal 1-form components, Casimir function and deformation size."""

    mu: tuple
    c: Field
    epsilon: float = 0.0

    def __post_init__(self):
        self.mu = tuple(as_field(m) for m in self.mu)
        self.c = as_field(self.c)


def _vertical_bracket_field(triple: tr.PoissonTriple, f: Field, g: Field) -> Field:
    """{f, g} of the vertical structure: eps^{abc} (df/dy^a)(dg/dy^b) beta_c."""
    out = ConstField(0.0)
    for a, b, c, sign in (
        (0, 1, 2, 1.0),
        (1, 2, 0, 1.0),
        (2, 0, 1, 1.0),
        (1, 0, 2, -1.0),
        (2, 1, 0, -1.0),
        (0, 2, 1, -1.0),
    ):
        out = out + f.derivative(Y_SLOTS[a]) * g.derivative(Y_SLOTS[b]) * triple.beta.comps[c] * sign
    return out


def varkappa_field(triple: tr.PoissonTriple, gauge: GaugeData, epsilon) -> Field:
    """vk_{mu,eps} as a field: [d_(1,0)mu + (eps/2){mu^mu}]/Omega_H."""
    mu1, mu2 = gauge.mu
    d10 = ca.hor_apply(triple.conn, 1, mu2, Field.derivative) - ca.hor_apply(
        triple.conn, 2, mu1, Field.derivative
    )
    return d10 + _vertical_bracket_field(triple, mu1, mu2) * epsilon


def varkappa(triple: tr.PoissonTriple, gauge: GaugeData, p, epsilon=None):
    """Coordinate-formula value of vk_{mu,eps} at p."""
    eps = gauge.epsilon if epsilon is None else epsilon
    mu1, mu2 = gauge.mu
    hor = [ca.hor_apply(triple.conn, 1, mu2), ca.hor_apply(triple.conn, 2, mu1)]
    h1, h2 = (jet.value for jet in evaluate(hor, p))
    d1, d2 = (jet.grad[2:] for jet in evaluate([mu1, mu2], p, 1))
    bv = triple.beta.values(p)
    bilinear = np.einsum("a...,a...->...", d1, np.cross(bv, d2, axis=0))
    return h1 - h2 - eps * bilinear


def varkappa_intrinsic(triple: tr.PoissonTriple, gauge: GaugeData, p, epsilon=None):
    """Same number through the graded machinery (mutual cross-check)."""
    eps = gauge.epsilon if epsilon is None else epsilon
    mu_form = FieldElement.form({((1,), ()): gauge.mu[0], ((2,), ()): gauge.mu[1]})
    d10 = ca.d_component(mu_form, triple.conn, (1, 0)).at(p)
    base = d10.coefficient(((1, 2), ()))
    (bracket,) = evaluate([_vertical_bracket_field(triple, gauge.mu[0], gauge.mu[1])], p)
    return base + eps * bracket.value


def family(triple: tr.PoissonTriple, gauge: GaugeData, epsilon, probe):
    """The eps-member of the deformation family; eps = 0 returns the input.  A member
    whose domain misses every point of ``probe`` raises :class:`EmptyDomain`."""
    if epsilon == 0.0:
        return triple
    xi = cn.ConnectionShift.gauge(gauge.mu, triple.beta, epsilon)
    new_conn = cn.shift(triple.conn, xi)
    # 1 - eps kappa (vk - c): the rescaling of kappa and the domain of the eps-member
    denom = 1.0 - triple.kappa * (varkappa_field(triple, gauge, epsilon) - gauge.c) * epsilon
    (jet,) = evaluate([denom], probe)
    if np.all(np.abs(jet.value) <= 1e-9):
        raise EmptyDomain("transformation denominator vanishes on every probe point")
    kappa_new = triple.kappa / denom
    return tr.PoissonTriple(new_conn, kappa_new, triple.beta, domain=denom)


def characteristic_compare(tripleA: tr.PoissonTriple, tripleB: tr.PoissonTriple, p):
    """Compare the pointwise images of the two sharp maps by rank.

    The distributions agree at p iff rank(A) == rank(B) == rank([A | B]).
    """
    if not np.all(tripleA.domain_mask(p)) or not np.all(tripleB.domain_mask(p)):
        raise OutsideDomain("characteristic comparison outside the definition domain")
    ma = st.pi_matrix_values(tripleA, p)
    mb = st.pi_matrix_values(tripleB, p)
    ra = st.matrix_rank(ma)
    rb = st.matrix_rank(mb)
    rab = st.matrix_rank(np.concatenate([ma, mb], axis=-1))
    return {
        "rank_a": ra,
        "rank_b": rb,
        "rank_joint": rab,
        "equal": np.logical_and(ra == rb, rb == rab),
    }
