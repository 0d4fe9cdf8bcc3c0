"""Gauge deformations of Poisson triples and the scaling symmetry.

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

    def validate(self, triple: tr.PoissonTriple, pts, tol=1e-8):
        """The function c must be a Casimir of the vertical structure."""
        _, res = tr.casimir_residual(triple, self.c, pts)
        return float(np.max(res)) <= tol, float(np.max(res))


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
    h1 = ca.hor_apply(triple.conn, 1, mu2).at(p, 0).value
    h2 = ca.hor_apply(triple.conn, 2, mu1).at(p, 0).value
    d1 = mu1.at(p, 1).grad[2:]
    d2 = mu2.at(p, 1).grad[2:]
    bv = triple.beta.values(p)
    bilinear = np.einsum("a...,a...->...", d1, np.cross(bv, d2, axis=0))
    return h1 - h2 - eps * bilinear


def varkappa_intrinsic(triple: tr.PoissonTriple, gauge: GaugeData, p, epsilon=None):
    """Same number through the graded machinery (mutual cross-check)."""
    eps = gauge.epsilon if epsilon is None else epsilon
    mu_form = FieldElement.form({((1,), ()): gauge.mu[0], ((2,), ()): gauge.mu[1]})
    d10 = ca.d_component(mu_form, triple.conn, (1, 0)).at(p)
    base = d10.coefficient(((1, 2), ()))
    bracket = _vertical_bracket_field(triple, gauge.mu[0], gauge.mu[1]).at(p, 0).value
    return base + eps * bracket


def family(triple: tr.PoissonTriple, gauge: GaugeData, epsilon, probe=None):
    """The eps-member of the deformation family; eps = 0 returns the input."""
    if epsilon == 0.0:
        return triple
    xi = cn.ConnectionShift.gauge(gauge.mu, triple.beta, epsilon)
    new_conn = cn.shift(triple.conn, xi)
    vk = varkappa_field(triple, gauge, epsilon)
    denom = 1.0 - triple.kappa * (vk - gauge.c) * epsilon
    if probe is not None:
        (jet,) = evaluate([denom], probe)
        if np.all(np.abs(jet.value) <= 1e-9):
            raise EmptyDomain("transformation denominator vanishes on every probe point")
    kappa_new = triple.kappa / denom
    return tr.PoissonTriple(new_conn, kappa_new, triple.beta, domain=denom)


def gauge_transform(triple: tr.PoissonTriple, gauge: GaugeData, probe=None):
    """Full (eps = 1) transformation."""
    return family(triple, gauge, 1.0, probe=probe)


def scale(triple: tr.PoissonTriple, epsilon) -> tr.PoissonTriple:
    """(gamma, kappa, beta) -> (gamma, eps kappa, eps beta)."""
    return tr.PoissonTriple(
        triple.conn,
        triple.kappa * epsilon,
        tr.VerticalOneForm([b * epsilon for b in triple.beta.comps]),
        domain=triple.domain,
    )


def domain_indicator(triple: tr.PoissonTriple, gauge: GaugeData, epsilon, p):
    """Denominator 1 - eps kappa (vk - c); membership is |value| > tol."""
    vk = varkappa_field(triple, gauge, epsilon)
    denom = ConstField(1.0) - triple.kappa * (vk - gauge.c) * epsilon
    return denom.at(p, 0).value


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


def upsilon_closedness(gauge: GaugeData, triple: tr.PoissonTriple, p):
    """(|d Upsilon|, |vertical part of dc|) with Upsilon = -d mu + c Omega_H."""
    mu_form = FieldElement.form({((1,), ()): gauge.mu[0], ((2,), ()): gauge.mu[1]})
    omega_h = FieldElement.form({((1, 2), ()): 1.0})
    upsilon = ca.exterior_d_field(mu_form, triple.conn).scale(-1.0) + omega_h.scale(gauge.c)
    d_upsilon = ca.exterior_d_field(upsilon, triple.conn).at(p).norm()
    dc_vertical = np.max(np.abs(gauge.c.at(p, 1).grad[2:]), axis=0)
    return d_upsilon, float(np.max(dc_vertical))
