"""Modular vector fields and unimodularity certificates.

The modular field of the assembled bivector relative to the chart volume
(scaled by a positive factor a) has components div_a(X_{coordinate}).  Its
bigraded form

    Z_(1,0) = -i_{kappa theta + d_(1,0)kappa} hor_1^hor_2,
    Z_(0,1) = i_{d_(0,1)beta + kappa rho} Q_V

is checked against the direct divergence route; certificates (h, K, and an
optional Casimir factor kappa0) are verified, never solved for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import calculus as ca
from . import connection as cn
from . import strata as st
from . import triple as tr
from .calculus import Y_SLOTS, CoordVector
from .errors import MissingCertificate, ZeroVolumeFactor
from .fields import Call, ConstField, CoordField, ExprField, Field, as_field
from .lowering import evaluate
from .reports import Block, VerificationReport, run_table


@dataclass
class UnimodularityCertificate:
    """Candidate data (h, K, kappa0) for the unimodularity criteria."""

    h: Field
    K: Field | None = None
    kappa0: Field | None = None

    def __post_init__(self):
        self.h = as_field(self.h)
        if self.K is not None:
            self.K = as_field(self.K)
        if self.kappa0 is not None:
            self.kappa0 = as_field(self.kappa0)


def modular_direct_fields(triple: tr.PoissonTriple, a=None) -> CoordVector:
    """Components of the modular field as fields: Z^m = (1/a) d_l (a Pi^{ml})."""
    m = triple.pi_matrix()
    comps = [ConstField(0.0)] * 5
    for (mu, nu), f in m.items():
        comps[mu] = comps[mu] + f.partial(nu)
        comps[nu] = comps[nu] - f.partial(mu)
        if a is not None:
            comps[mu] = comps[mu] + f * a.partial(nu) / a
            comps[nu] = comps[nu] - f * a.partial(mu) / a
    return CoordVector(comps)


def modular_direct(triple: tr.PoissonTriple, a, p):
    """Modular field values at p relative to the volume scaled by ``a``."""
    sample = st.as_sample(p)
    a = None if a is None else as_field(a)
    if a is ConstField(1.0):
        a = None
    if a is not None and np.any(_values(sample, [a])[0] == 0.0):
        raise ZeroVolumeFactor("volume factor vanishes at a requested point")
    # evaluated once: one group walk, nothing compiled
    return np.stack([jet.value for jet in evaluate(modular_direct_fields(triple, a).comps, sample, 0)])


def _values(sample, fields):
    return [jet.value for jet in sample.jets(fields)]


def modular_bigraded(triple: tr.PoissonTriple, p):
    """Bigraded components: (hor-frame pair, vertical triple)."""
    sample = st.as_sample(p)
    conn = triple.conn
    (kj,) = sample.jets([triple.kappa], 1)
    th = _values(sample, _theta_fields(conn))
    hk = _values(sample, [ca.hor_apply(conn, i, triple.kappa) for i in (1, 2)])
    alpha = [kj.value * th[i] + hk[i] for i in range(2)]
    hor_part = np.stack([alpha[1], -np.asarray(alpha[0])])
    # nu = d_(0,1) beta + kappa rho on the pairs (2,3), (1,3), (1,2)
    bj = sample.jets(triple.beta.comps, 1)
    rho_v = _values(sample, cn.rho_components(conn))
    rho_pairs = {(1, 2): -np.asarray(rho_v[0]), (0, 2): np.asarray(rho_v[1]), (0, 1): -np.asarray(rho_v[2])}
    nu = {}
    for (a, b), rv in rho_pairs.items():
        dab = bj[b].grad[Y_SLOTS[a]] - bj[a].grad[Y_SLOTS[b]]
        nu[(a, b)] = dab + kj.value * rv
    vert = np.stack([nu[(1, 2)], -nu[(0, 2)], nu[(0, 1)]])
    return hor_part, vert


def _theta_fields(conn):
    coeffs = cn.theta(conn).coeffs
    return [coeffs[((i,), ())] for i in (1, 2)]


def bigraded_to_coordinates(triple: tr.PoissonTriple, hor_part, vert, p):
    """Convert (hor-frame, vertical) components to the coordinate frame."""
    gv = _values(st.as_sample(p), [*triple.conn.gamma[0], *triple.conn.gamma[1]])  # gamma_1^a, gamma_2^a
    out = np.zeros((5,) + np.shape(hor_part[0]))
    out[0], out[1] = hor_part[0], hor_part[1]
    for a in range(3):
        out[2 + a] = vert[a] - hor_part[0] * gv[a] - hor_part[1] * gv[3 + a]
    return out


def bigraded_vs_direct_residual(triple: tr.PoissonTriple, p):
    hor_part, vert = modular_bigraded(triple, p)
    direct = modular_direct(triple, None, p)
    return np.max(np.abs(bigraded_to_coordinates(triple, hor_part, vert, p) - direct), axis=0)


def renormalization_check(triple: tr.PoissonTriple, a, p):
    """Residual of Z^{a Omega} = Z^Omega - (1/a) i_{da} Pi at p."""
    sample = st.as_sample(p)
    a = as_field(a)
    za = modular_direct(triple, a, sample)  # raises where a vanishes
    (av,) = _values(sample, [a])
    z1 = modular_direct(triple, None, sample)
    xa = np.stack([jet.value for jet in evaluate(tr.hamiltonian_field(triple, a).comps, sample, 0)])
    return np.max(np.abs(za - (z1 - xa / av)), axis=0)


def closedness_check(triple: tr.PoissonTriple, p):
    """Residuals (|d_(0,1)beta|, theta-coefficients-Casimir, |d_(1,0)theta|)."""
    sample = st.as_sample(p)
    bj = sample.jets(triple.beta.comps, 1)
    dbeta = tr.component_max([bj[b].grad[Y_SLOTS[a]] - bj[a].grad[Y_SLOTS[b]] for a, b in ((0, 1), (0, 2), (1, 2))])
    thf = _theta_fields(triple.conn)
    th_cas = tr.component_max([tr.vertical_casimir_residual(triple.beta, f, sample) for f in thf])
    h1, h2 = _values(sample, [ca.hor_apply(triple.conn, 1, thf[1]), ca.hor_apply(triple.conn, 2, thf[0])])
    dtheta = np.abs(h1 - h2)
    return {"dbeta": dbeta, "theta_casimir": th_cas, "dtheta": dtheta}


def test_hamiltonians(seed=7):
    """Five coordinate functions plus three seeded random cubic polynomials."""
    rng = np.random.default_rng(seed)
    names = ["x1", "x2", "y1", "y2", "y3"]
    polys = []
    for _ in range(3):
        terms = []
        for _ in range(4):
            c = rng.uniform(-1, 1)
            picks = rng.choice(names, size=rng.integers(1, 4), replace=True)
            terms.append(f"{c:.6f}*" + "*".join(picks))
        polys.append(ExprField(" + ".join(terms)))
    return [CoordField(k) for k in range(5)] + polys


def invariant_divergence_residual(triple: tr.PoissonTriple, density, p, hamiltonians=None):
    """Max over test Hamiltonians of |div_(density)(X_F)| at p."""
    hams = hamiltonians if hamiltonians is not None else test_hamiltonians()
    sample = st.as_sample(p)
    return tr.component_max(ca.divergence(tr.hamiltonian_field(triple, F), sample, density) for F in hams)


def coupling_table(triple: tr.PoissonTriple, cert: UnimodularityCertificate, sample, tol=1e-9, div_tol=1e-6):
    """Blocks of the coupling-domain criterion: theta exact, h a Casimir, volume invariant."""
    if cert is None or cert.h is None:
        raise MissingCertificate("the coupling-domain check needs a primitive h")
    coupled = sample.subset(triple.coupling_mask(sample), "coupling")
    thf = _theta_fields(triple.conn)
    exactness = [thf[i - 1] + ca.hor_apply(triple.conn, i, cert.h) for i in (1, 2)]
    density = Call("exp", cert.h) / triple.kappa
    return [
        Block("theta-exactness", coupled, lambda s: np.max(np.abs(_values(s, exactness)), axis=0), tol),
        Block("h-casimir", coupled, partial(tr.vertical_casimir_residual, triple.beta, cert.h), tol),
        Block("invariant-volume-divergence", coupled, partial(invariant_divergence_residual, triple, density), div_tol),
    ]


def certificate_table(triple: tr.PoissonTriple, cert: UnimodularityCertificate, sample, tol=1e-9, div_tol=1e-6):
    """The coupling-domain blocks, then, for a certificate with a factor K, those of the
    global criterion: kappa factorization, K Casimir on the zero set, invariance."""
    table = coupling_table(triple, cert, sample, tol, div_tol)
    if cert.K is None:
        return table
    mask = triple.coupling_mask(sample)
    kappa0 = cert.kappa0 if cert.kappa0 is not None else ConstField(1.0)
    factor = Call("exp", cert.h) * kappa0 * cert.K

    def factorization(s):
        # read on the whole sample, where K must not vanish, and cut to the coupling domain
        if np.any(_values(sample, [cert.K])[0] == 0.0):
            raise ZeroVolumeFactor("certificate factor K vanishes on the sample set")
        return np.abs(triple.kappa_values(sample) - _values(sample, [factor])[0])[mask]

    table.append(Block("kappa-factorization", sample.subset(mask, "coupling"), factorization, tol))
    if np.any(~mask):
        zero_set = sample.subset(~mask, "kappa zero set")
        table.append(Block("K-casimir-on-zero-set", zero_set, partial(tr.vertical_casimir_residual, triple.beta, cert.K), tol))
    density = ConstField(1.0) / cert.K
    return table + [Block("global-volume-divergence", sample, partial(invariant_divergence_residual, triple, density), div_tol)]


def unimod_coupling_check(
    triple: tr.PoissonTriple, cert: UnimodularityCertificate, pts, tol=1e-9, div_tol=1e-6
) -> VerificationReport:
    """Coupling-domain criterion: theta exact, h a Casimir, volume invariant."""
    table = coupling_table(triple, cert, st.as_sample(pts), tol, div_tol)
    return run_table(VerificationReport(name="unimodularity-coupling"), table)


def unimod_global_check(
    triple: tr.PoissonTriple, cert: UnimodularityCertificate, pts, tol=1e-9, div_tol=1e-6
) -> VerificationReport:
    """Global criterion: coupling check, kappa factorization, K Casimir, invariance."""
    if cert is None or cert.K is None:
        raise MissingCertificate("the global check needs a factor K")
    table = certificate_table(triple, cert, st.as_sample(pts), tol, div_tol)
    return run_table(VerificationReport(name="unimodularity-global"), table)
