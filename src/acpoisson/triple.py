"""Poisson triples (connection, scalar factor, vertical 1-form).

The bivector assembled from a triple is Pi = kappa hor_1 ^ hor_2 + P_beta
with P_beta = beta_1 dy2^dy3 + beta_2 dy3^dy1 + beta_3 dy1^dy2.  The triple
is Poisson exactly when the three integrability residuals vanish; that
equivalence (checked against the raw Schouten Jacobiator) is the backbone of
the verification suite.
"""

from __future__ import annotations

from functools import partial, reduce

import numpy as np

from . import calculus as ca
from . import connection as cn
from . import strata as st
from .calculus import Y_SLOTS, CoordVector, FieldElement
from .errors import NotAlmostCoupling, OutsideCouplingDomain
from .fields import ConstField, as_field, is_zero
from .graded import GradedElement, interior
from .lowering import evaluate, sample_points
from .reports import Block, VerificationReport, residual_block, run_table


class VerticalOneForm:
    """beta = beta_a eta^a, stored by its three coefficient fields."""

    def __init__(self, comps):
        if len(comps) != 3:
            raise ValueError("a vertical 1-form has three components")
        self.comps = [as_field(c) for c in comps]

    @classmethod
    def zero(cls):
        return cls([0.0, 0.0, 0.0])

    def as_form(self) -> FieldElement:
        return FieldElement.form({((), (a,)): self.comps[a - 1] for a in (1, 2, 3)})

    def values(self, p):
        return np.stack([jet.value for jet in st.as_sample(p).jets(self.comps)])

    def norm_values(self, p):
        return np.sqrt(np.sum(self.values(p) ** 2, axis=0))


def vertical_poisson(beta: VerticalOneForm) -> FieldElement:
    """Vertical bivector with {y1,y2} = beta_3, {y2,y3} = beta_1, {y3,y1} = beta_2."""
    coeffs = {}
    for key, comp, sign in (
        (((), (2, 3)), beta.comps[0], 1.0),
        (((), (1, 3)), beta.comps[1], -1.0),
        (((), (1, 2)), beta.comps[2], 1.0),
    ):
        if is_zero(comp):
            continue
        coeffs[key] = comp if sign > 0 else comp * -1.0
    return FieldElement.multivector(coeffs)


class PoissonTriple:
    """Triple (gamma, kappa, beta); Poisson-ness is verified, not assumed.

    ``domain`` optionally carries a denominator field whose zero set bounds
    the region where the triple is defined (gauge images use this).
    """

    def __init__(self, conn: cn.Connection, kappa, beta: VerticalOneForm, domain=None):
        self.conn = conn
        self.kappa = as_field(kappa)
        self.beta = beta if isinstance(beta, VerticalOneForm) else VerticalOneForm(beta)
        self.domain = domain
        self._pi_coord = None
        self._pi_matrix = None

    # assembled tensors ----------------------------------------------------

    def pi_moving(self) -> FieldElement:
        out = vertical_poisson(self.beta)
        out._add(((1, 2), ()), self.kappa)
        return out

    def pi_coord(self) -> FieldElement:
        if self._pi_coord is None:
            self._pi_coord = ca.moving_to_coord_bivector(self.pi_moving(), self.conn)
        return self._pi_coord

    def pi_matrix(self):
        if self._pi_matrix is None:
            self._pi_matrix = ca.bivector_matrix_fields(self.pi_coord())
        return self._pi_matrix

    def p_beta_matrix(self):
        return ca.bivector_matrix_fields(vertical_poisson(self.beta))

    def kappa_values(self, p):
        return st.as_sample(p).jets([self.kappa])[0].value

    def kappa_tol(self, p):
        """Coupling-domain tolerance scaled by the sampled magnitude of kappa."""
        return _scaled_tol(self.kappa_values(p))

    def coupling_mask(self, p):
        kv = self.kappa_values(p)
        return np.abs(kv) > _scaled_tol(kv)

    def domain_mask(self, p):
        sample = st.as_sample(p)
        if self.domain is None:
            return np.ones(np.shape(sample.points[0]), dtype=bool)
        return np.abs(sample.jets([self.domain])[0].value) > 1e-9


def _scaled_tol(kappa_values):
    scale = float(np.max(np.abs(kappa_values))) if np.size(kappa_values) else 0.0
    return 1e-9 * (1.0 + scale)


def mixed_residual(mov: FieldElement, p):
    """Pointwise max |coefficient| of the mixed (1,1) component of a moving-frame bivector, at points or a sample."""
    return form_max(mov.project(1, 1), p)


def form_max(form: FieldElement, p):
    """Pointwise max |coefficient| of a field element, at points or a sample."""
    return coefficient_max([form.at(p)], sample_points(p))


def recover_triple(pi: FieldElement, conn: cn.Connection, probe=None):
    """Invert assembly: kappa from the horizontal block, beta from the vertical.

    ``pi`` is a coordinate-frame bivector; the mixed component must vanish in
    the bigrading of ``conn`` (checked on ``probe`` points).
    """
    mov = ca.coord_to_moving_bivector(pi, conn)
    if probe is None:
        probe = st.halton_points(64, [(-1.0, 1.0)] * 5)
    mixed = float(np.max(mixed_residual(mov, probe)))
    if mixed > 1e-9:
        raise NotAlmostCoupling(mixed)
    kappa = mov.coeffs.get(((1, 2), ()), ConstField(0.0))
    beta = VerticalOneForm(
        [
            mov.coeffs.get(((), (2, 3)), ConstField(0.0)),
            mov.coeffs.get(((), (1, 3)), ConstField(0.0)) * -1.0,
            mov.coeffs.get(((), (1, 2)), ConstField(0.0)),
        ]
    )
    return kappa, beta


# residuals ------------------------------------------------------------------


def jacobiator(triple: PoissonTriple, p):
    """Schouten bracket of Pi with itself at p: 10 trivector components."""
    m = triple.pi_matrix()
    return ca.schouten_bivectors(m, m, p)


def jacobiator_norm(triple: PoissonTriple, p):
    return component_max(jacobiator(triple, p).values())


def component_max(values, shape=()):
    """Pointwise max |value| over component arrays, one at a time; zeros of ``shape`` when there are none."""
    return reduce(np.maximum, map(np.abs, values), np.zeros(shape))


def coefficient_max(elements, p):
    """Pointwise max |coefficient| over graded elements evaluated at the points p."""
    return component_max((c for e in elements for c in e.coeffs.values()), np.shape(np.asarray(p)[0]))


def _input_jets(triple: PoissonTriple, sample):
    """The 1-jets of the triple's inputs on a sample: beta (3), kappa, gamma (2 x 3)."""
    jets = sample.jets([*triple.beta.comps, triple.kappa, *triple.conn.gamma[0], *triple.conn.gamma[1]], 1)
    return jets[:3], jets[3], [jets[4:7], jets[7:]]


def ic_residuals(triple: PoissonTriple, p):
    """The three integrability residual groups at p (coordinate formulas)."""
    sample = st.as_sample(p)
    bj, kj, gv = _input_jets(triple, sample)
    bv = [j.value for j in bj]
    rho_v = [j.value for j in sample.jets(cn.rho_components(triple.conn))]

    def dyb(jet, a):
        return jet.grad[Y_SLOTS[a]]

    # ic1: cyclic sum of (d beta_a / dy^b - d beta_b / dy^a) beta_c
    ic1 = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        ic1 = ic1 + (dyb(bj[a], b) - dyb(bj[b], a)) * bv[c]

    # ic2[i][a] = kappa (d beta_a/dx^i - g_i^b d beta_a/dy^b
    #                    - beta_b d g_i^b/dy^a + beta_a d g_i^b/dy^b)
    ic2 = np.zeros((2, 3) + np.shape(kj.value))
    for i in range(2):
        for a in range(3):
            term = bj[a].grad[i]
            for b in range(3):
                term = term - gv[i][b].value * dyb(bj[a], b)
                term = term - bv[b] * dyb(gv[i][b], a)
                term = term + bv[a] * dyb(gv[i][b], b)
            ic2[i, a] = kj.value * term

    # ic3 over pairs (a,b): dk/dy^a beta_b - dk/dy^b beta_a + eps_abc k^2 rho^c
    k2 = kj.value**2
    ic3 = np.zeros((3,) + np.shape(kj.value))
    for idx, (a, b, c, sign) in enumerate([(0, 1, 2, 1.0), (0, 2, 1, -1.0), (1, 2, 0, 1.0)]):
        ic3[idx] = dyb(kj, a) * bv[b] - dyb(kj, b) * bv[a] + sign * k2 * rho_v[c]
    return {"ic1": np.abs(ic1), "ic2": np.abs(ic2), "ic3": np.abs(ic3)}


def ic_norm(triple: PoissonTriple, p):
    r = ic_residuals(triple, p)
    return component_max([r["ic1"], *r["ic2"].reshape((6,) + r["ic1"].shape), *r["ic3"]])


def verdict_scale(triple: PoissonTriple, p):
    """1 + max magnitude of the kappa/beta/gamma 1-jets at p."""
    bj, kj, gv = _input_jets(triple, st.as_sample(p))
    return 1.0 + component_max(v for jet in [kj, *bj, *gv[0], *gv[1]] for v in [jet.value, *jet.grad])


def verdict_arrays(triple: PoissonTriple, p):
    """The integrability norm, the Jacobiator norm and the verdict scale at each point of p."""
    ic = ic_norm(triple, p)
    jac = jacobiator_norm(triple, p)  # on a sample, its walk takes the inputs' held 1-jets as leaves
    return {"ic": ic, "jacobiator": jac, "scale": verdict_scale(triple, p)}


def equivalence_block(triple: PoissonTriple, sample, tol=1e-9) -> Block:
    """The table entry of the verdict agreement on a sample: its blocks ``integrability``
    and ``jacobiator``, the disagreements and ``meta.both_fail_fraction``."""
    return Block("equivalence", sample, partial(verdict_arrays, triple), tol, enter=enter_equivalence)


def enter_equivalence(report: VerificationReport, block: Block, arrays):
    """Report the verdict agreement from the joined per-point arrays of ``equivalence_block``."""
    ic, jac, tol, pts = arrays["ic"], arrays["jacobiator"], block.tol, block.subset.points
    ic_pass = ic <= tol
    jac_pass = jac <= tol * arrays["scale"]
    report.add(residual_block("integrability", ic, pts, tol))
    jacobiator = report.add(residual_block("jacobiator", jac, pts, tol, note="tolerance scaled by 1 + jet magnitudes"))
    jacobiator.passed = bool(np.all(jac_pass))
    disagree = ic_pass != jac_pass
    if np.any(disagree):
        report.disagreements = [
            {"point": pts[:, i].tolist(), "ic": float(ic[i]), "jacobiator": float(jac[i])}
            for i in np.nonzero(disagree)[0][:32]
        ]
    report.meta["both_fail_fraction"] = float(np.mean(~ic_pass & ~jac_pass))


def equivalence_check(triple: PoissonTriple, samples, tol=1e-9) -> VerificationReport:
    """Pointwise agreement of the integrability verdict and the Jacobiator verdict on
    ``samples``, points or a sample already cut to the triple's domain, every one of them."""
    return run_table(VerificationReport(name="equivalence"), [equivalence_block(triple, st.as_sample(samples), tol)])


# brackets and Hamiltonian fields ---------------------------------------------


def poisson_bracket(triple: PoissonTriple, f, g, p):
    """{f, g} by the split formula: horizontal ratio plus vertical triple product.

    The ratio of a (2,0)-form by Omega_H is the unique scalar multiple; the
    vertical term is the determinant of the vertical gradients against beta.
    """
    f, g = as_field(f), as_field(g)
    jf, jg = evaluate([f, g], p, 1)
    hf = [j.value for j in evaluate([ca.hor_apply(triple.conn, i, f) for i in (1, 2)], p)]
    hg = [j.value for j in evaluate([ca.hor_apply(triple.conn, i, g) for i in (1, 2)], p)]
    horizontal = triple.kappa_values(p) * (hf[0] * hg[1] - hf[1] * hg[0])
    bv = triple.beta.values(p)
    vertical = np.einsum("a...,a...->...", jf.grad[2:], np.cross(jg.grad[2:], bv, axis=0))
    return horizontal + vertical


def poisson_bracket_direct(triple: PoissonTriple, f, g, p):
    """{f, g} = Pi(df, dg) from the assembled coordinate bivector."""
    gf, gg = (j.grad for j in evaluate([as_field(f), as_field(g)], p, 1))
    vals = ca.matrix_values(triple.pi_matrix(), p)
    return np.einsum("mn...,m...,n...->...", vals, gf, gg)


def hamiltonian_field(triple: PoissonTriple, F) -> CoordVector:
    """X_F = i_{dF} Pi as a coordinate vector field: X^m = sum_n Pi^{nm} dF/dn."""
    F = as_field(F)
    m = triple.pi_matrix()
    comps = [ConstField(0.0)] * 5
    for (mu, nu), f in m.items():
        comps[nu] = comps[nu] + f * F.partial(mu)
        comps[mu] = comps[mu] - f * F.partial(nu)
    return CoordVector(comps)


def hamiltonian_parts(triple: PoissonTriple, F, p):
    """Bigraded pieces of X_F: hor-frame pair and vertical triple."""
    F = as_field(F)
    kv = triple.kappa_values(p)
    h1F, h2F = (j.value for j in evaluate([ca.hor_apply(triple.conn, i, F) for i in (1, 2)], p))
    hor_part = np.stack([-kv * h2F, kv * h1F])  # coefficients of hor_1, hor_2
    bv = triple.beta.values(p)
    dFv = evaluate([F], p, 1)[0].grad[2:]
    vert = np.cross(bv, dFv, axis=0)
    return hor_part, vert


def vertical_casimir_residual(beta: VerticalOneForm, c, p):
    """|d_{0,1} c ^ beta|, max-norm at p: zero where c is a Casimir of the vertical structure."""
    sample = st.as_sample(p)
    (cj,) = sample.jets([as_field(c)], 1)
    return np.max(np.abs(np.cross(cj.grad[2:], beta.values(sample), axis=0)), axis=0)


# coupling-domain identities ---------------------------------------------------


def _require_coupling(triple, p):
    mask = triple.coupling_mask(p)
    if not np.all(mask):
        raise OutsideCouplingDomain("kappa vanishes at a requested point")


def poisson_connection_residual(triple: PoissonTriple, p):
    """Max over u in {dx1, dx2} of |L_{hor u} P_beta| at p."""
    sample = st.as_sample(p)
    _require_coupling(triple, sample)
    return _lie_residual(triple.conn, triple.p_beta_matrix(), sample)


def _lie_residual(conn, pb, p):
    """Max over i in {1, 2} of |L_{hor_i} P_beta| at points or a sample, for any kappa."""
    lies = (ca.lie_derivative_bivector(cn.horizontal_lift(i, conn), pb, p) for i in (1, 2))
    return component_max(v for comps in lies for v in comps.values())


def cocycle_residual(triple: PoissonTriple, p):
    """Max-norm of the Schouten bracket of Q_H with P_beta at p."""
    sample = st.as_sample(p)
    _require_coupling(triple, sample)
    qh = ca.bivector_matrix_fields(
        ca.moving_to_coord_bivector(FieldElement.multivector({((1, 2), ()): -1.0}), triple.conn)
    )
    return component_max(ca.schouten_bivectors(qh, triple.p_beta_matrix(), sample).values())


def curvature_identity_residual(triple: PoissonTriple, p):
    """Curvature vs -P_beta-sharp d(1/kappa) at coupling-domain points.

    The gap is normalized by the natural magnitude of the 1/kappa^2 terms so
    the check stays meaningful arbitrarily close to the domain boundary,
    where the raw quotient amplifies rounding noise without bound.
    """
    sample = st.as_sample(p)
    _require_coupling(triple, sample)
    curv = cn.curvature(triple.conn, sample)
    (kj,) = sample.jets([triple.kappa], 1)
    bv = triple.beta.values(sample)
    k2 = kj.value**2
    rhs = np.cross(bv, kj.grad[2:], axis=0) / k2
    scale = 1.0 + np.abs(curv) + _cross_magnitude(bv, kj.grad[2:]) / k2
    return np.max(np.abs(curv - rhs) / scale, axis=0)


def _cross_magnitude(u, v):
    """Entrywise magnitude bound of the cross product (no cancellation)."""
    au, av = np.abs(u), np.abs(v)
    return np.stack(
        [
            au[1] * av[2] + au[2] * av[1],
            au[2] * av[0] + au[0] * av[2],
            au[0] * av[1] + au[1] * av[0],
        ]
    )


def c2_form(triple: PoissonTriple) -> FieldElement:
    """d_{1,0} beta + beta ^ theta, which vanishes where C2 holds: its residual is ``form_max`` of it."""
    beta_form = triple.beta.as_form()
    return ca.d_component(beta_form, triple.conn, (1, 0)) + beta_form.wedge(cn.theta(triple.conn))


def c3_residual(triple: PoissonTriple, p):
    """d_{0,1}(1/kappa) ^ beta + rho at coupling-domain points.

    Residuals are normalized by the uncancelled magnitude of the quotient
    terms (see curvature_identity_residual) to stay well conditioned near
    the boundary of the coupling domain.
    """
    sample = st.as_sample(p)
    _require_coupling(triple, sample)
    (kj,) = sample.jets([triple.kappa], 1)
    k2 = kj.value**2
    dinv = -kj.grad[2:] / k2  # vertical gradient of 1/kappa
    bv = triple.beta.values(sample)
    rho_v = np.stack([j.value for j in sample.jets(cn.rho_components(triple.conn))])

    def ratio(a, b, c, sign):
        ab, ba = dinv[a] * bv[b], dinv[b] * bv[a]
        return (ab - ba + sign * rho_v[c]) / (1.0 + np.abs(ab) + np.abs(ba) + np.abs(rho_v[c]))

    # (0,2) pairs (a,b) with the matching rho component carrying -eps_{abc}
    return component_max(ratio(*pair) for pair in [(1, 2, 0, -1.0), (0, 2, 1, 1.0), (0, 1, 2, -1.0)])


def c5_residual(triple: PoissonTriple, p):
    """|d_{0,1} kappa ^ beta| at p (meaningful near the kappa zero set)."""
    return vertical_casimir_residual(triple.beta, triple.kappa, p)


def coupling_form(triple: PoissonTriple, p) -> GradedElement:
    """(1/kappa) Omega_H at p; defined on the coupling domain."""
    _require_coupling(triple, p)
    return GradedElement.form({((1, 2), ()): 1.0 / triple.kappa_values(p)})


def coupling_form_residual(triple: PoissonTriple, p):
    """Defining identity: i_{i_alpha Pi_20} sigma = -alpha for alpha in {dx1, dx2}."""
    sample = st.as_sample(p)
    sigma = coupling_form(triple, sample)
    kv = triple.kappa_values(sample)
    pi20 = GradedElement.multivector({((1, 2), ()): kv})
    alphas = [GradedElement.form({key: np.ones_like(kv)}) for key in (((1,), ()), ((2,), ()))]
    return coefficient_max([interior(interior(alpha, pi20), sigma) + alpha for alpha in alphas], sample.points)
