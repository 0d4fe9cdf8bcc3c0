import numpy as np
import pytest

from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import gauge as ga
from acpoisson import triple as tr
from acpoisson.errors import EmptyDomain, OutsideDomain
from acpoisson.fields import ConstField, CoordField, ExprField
from acpoisson.lowering import evaluate
from acpoisson.strata import halton_points


def test_varkappa_zero_for_zero_mu(so3_coupled, pts):
    G = ga.GaugeData(mu=(ConstField(0.0), ConstField(0.0)), c=ConstField(0.0))
    assert np.max(np.abs(ga.varkappa(so3_coupled, G, pts, 1.0))) == 0.0


def test_varkappa_pure_base_part(so3_coupled, pts):
    G = ga.GaugeData(mu=(ConstField(0.0), CoordField("x1")), c=ConstField(0.0))
    assert np.max(np.abs(ga.varkappa(so3_coupled, G, pts, 1.0) - 1.0)) == 0.0


def test_varkappa_routes_agree_with_bilinear_term(so3_coupled, rng, pts):
    for _ in range(10):
        G = fuzz.random_gauge(rng)
        eps = float(rng.uniform(0.2, 1.0))
        a = ga.varkappa(so3_coupled, G, pts, eps)
        b = ga.varkappa_intrinsic(so3_coupled, G, pts, eps)
        c = ga.varkappa_field(so3_coupled, G, eps).at(pts, 0).value
        assert np.max(np.abs(a - b)) <= 1e-10
        assert np.max(np.abs(a - c)) <= 1e-10


def test_identity_gauge_is_identity(so3_coupled, pts):
    G = ga.GaugeData(mu=(ConstField(0.0), ConstField(0.0)), c=ConstField(0.0))
    T = ga.family(so3_coupled, G, 1.0)
    assert np.max(np.abs(T.kappa_values(pts) - so3_coupled.kappa_values(pts))) == 0.0
    assert np.max(np.abs(T.conn.gamma_values(pts))) == 0.0
    assert T.beta is so3_coupled.beta


def test_deformed_connection_components(so3_coupled, pts):
    # mu = (y3, 0): gamma_1 = eps(-y2, y1, 0), gamma_2 = 0
    G = ga.GaugeData(mu=(ExprField("y3"), ConstField(0.0)), c=ConstField(0.0))
    T = ga.family(so3_coupled, G, 0.05, probe=pts)
    gv = T.conn.gamma_values(pts)
    expect = np.zeros_like(gv)
    expect[0, 0] = -0.05 * pts[3]
    expect[0, 1] = 0.05 * pts[2]
    assert np.max(np.abs(gv - expect)) == 0.0
    assert np.max(tr.ic_norm(T, pts)) <= 1e-12


def test_gauge_closure_fuzz(rng):
    for _ in range(15):
        base = fuzz.random_flat_casimir_triple(rng)
        G = fuzz.random_gauge(rng)
        pts = halton_points(80, [(-1, 1)] * 5)
        ok, _ = G.validate(base, pts)
        assert ok
        T = ga.family(base, G, G.epsilon, probe=pts)
        inside = T.domain_mask(pts)
        rep = tr.equivalence_check(T, pts[:, inside])
        assert rep.passed and not rep.disagreements


def test_beta_fixed_and_zero_set_preserved(rng):
    for _ in range(10):
        base = fuzz.random_flat_casimir_triple(rng)
        G = fuzz.random_gauge(rng)
        pts = halton_points(60, [(-1, 1)] * 5)
        T = ga.family(base, G, G.epsilon, probe=pts)
        assert T.beta is base.beta
        kv = np.abs(base.kappa_values(pts))
        kge = np.abs(T.kappa_values(pts))
        assert np.array_equal(kv <= 1e-12, kge <= 1e-12)


def test_scale_symmetry(sec5, wide_pts):
    same = ga.scale(sec5, 1.0)
    assert np.max(np.abs(same.kappa_values(wide_pts) - sec5.kappa_values(wide_pts))) == 0.0
    zero = ga.scale(sec5, 0.0)
    assert np.max(tr.jacobiator_norm(zero, wide_pts)) == 0.0
    stretched = ga.scale(sec5, -2.0)
    assert np.max(tr.ic_norm(stretched, wide_pts)) <= 1e-12
    assert np.max(tr.jacobiator_norm(stretched, wide_pts)) <= 1e-12


def test_family_epsilon_zero_is_input(sec5):
    G = ga.GaugeData(mu=(ExprField("y3"), ConstField(0.0)), c=ConstField(0.0))
    assert ga.family(sec5, G, 0.0) is sec5


def _domain_values(triple, gauge, epsilon, p):
    """The denominator 1 - eps kappa (vk - c) of the eps-member, which is its domain field."""
    return evaluate([ga.family(triple, gauge, epsilon).domain], p)[0].value


def test_domain_indicator(so3_coupled, pts):
    G0 = ga.GaugeData(mu=(ConstField(0.0), ConstField(0.0)), c=ConstField(0.0))
    assert np.all(_domain_values(so3_coupled, G0, 1.0, pts) == 1.0)
    # denominators tend to 1 uniformly (linearly in eps) on compact boxes
    G = ga.GaugeData(mu=(ExprField("x2*y3"), ExprField("x1*y1")), c=ConstField(0.0))
    gaps = [
        float(np.max(np.abs(_domain_values(so3_coupled, G, eps, pts) - 1.0)))
        for eps in (0.1, 0.01, 0.001)
    ]
    assert gaps[0] < 1.0 and gaps[1] <= 0.15 * gaps[0] and gaps[2] <= 0.15 * gaps[1]


def test_domain_sign_change_detected():
    # an engineered transformation whose denominator 1 - x1 crosses zero
    T = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    G = ga.GaugeData(mu=(ConstField(0.0), ConstField(0.0)), c=ExprField("-x1"))
    path = np.stack([np.linspace(0, 2, 21), *([np.zeros(21)] * 4)])
    d = _domain_values(T, G, 1.0, path)
    np.testing.assert_allclose(d, 1.0 - path[0], atol=1e-15)
    signs = np.sign(d)
    assert signs.min() < 0 < signs.max()


def test_empty_domain_error():
    T = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    # c = -1 makes the denominator identically zero at eps = 1
    G = ga.GaugeData(mu=(ConstField(0.0), ConstField(0.0)), c=ConstField(-1.0))
    pts = halton_points(20, [(0, 1)] * 5)
    with pytest.raises(EmptyDomain):
        ga.family(T, G, 1.0, probe=pts)


def test_characteristic_distribution_invariance(rng):
    for _ in range(10):
        base = fuzz.random_flat_casimir_triple(rng)
        G = fuzz.random_gauge(rng)
        pts = halton_points(60, [(-1, 1)] * 5)
        T = ga.family(base, G, G.epsilon, probe=pts)
        inside = T.domain_mask(pts)
        cmp = ga.characteristic_compare(base, T, pts[:, inside])
        assert np.all(cmp["equal"])


def test_characteristic_differs_for_unrelated_structures(pts):
    A = tr.PoissonTriple(cn.Connection.flat(), ConstField(0.0), tr.VerticalOneForm(["y1", "y2", "y3"]))
    B = tr.PoissonTriple(cn.Connection.flat(), ConstField(0.0), tr.VerticalOneForm(["1", "0", "0"]))
    cmp = ga.characteristic_compare(A, B, pts)
    assert not np.all(cmp["equal"])


def test_characteristic_outside_domain_guard(so3_coupled, pts):
    G = ga.GaugeData(mu=(ExprField("y3"), ConstField(0.0)), c=ConstField(0.0))
    T = ga.family(so3_coupled, G, 0.05, probe=pts)
    bad = tr.PoissonTriple(T.conn, T.kappa, T.beta, domain=ConstField(0.0))
    with pytest.raises(OutsideDomain):
        ga.characteristic_compare(so3_coupled, bad, pts)


def test_upsilon_closedness_cases(so3_coupled, pts):
    mu = (ExprField("x2*y3"), ConstField(0.0))
    for c_expr, closed in (("0", True), ("x1", True), ("y1", False)):
        G = ga.GaugeData(mu=mu, c=ExprField(c_expr))
        dY, dc_vert = ga.upsilon_closedness(G, so3_coupled, pts)
        if closed:
            assert dY <= 1e-12 and dc_vert <= 1e-12
        else:
            assert dY > 1e-3 and dc_vert > 1e-3
