import numpy as np
import pytest

from acpoisson import calculus as ca
from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import triple as tr
from acpoisson.errors import NotAlmostCoupling, OutsideCouplingDomain
from acpoisson.fields import ConstField, CoordField, ExprField
from acpoisson.strata import halton_points


def test_vertical_poisson_components(pts):
    P = tr.vertical_poisson(tr.VerticalOneForm(["y1", "y2", "y3"]))
    m = ca.bivector_matrix_fields(P)
    np.testing.assert_array_equal(m[(2, 3)].at(pts, 0).value, pts[4])  # {y1,y2} = y3
    np.testing.assert_array_equal(m[(3, 4)].at(pts, 0).value, pts[2])  # {y2,y3} = y1
    np.testing.assert_array_equal(m[(2, 4)].at(pts, 0).value, -pts[3])  # {y1,y3} = -y2
    single = tr.vertical_poisson(tr.VerticalOneForm(["y1^2", "0", "0"]))
    ms = ca.bivector_matrix_fields(single)
    np.testing.assert_array_equal(ms[(3, 4)].at(pts, 0).value, pts[2] ** 2)
    assert tr.vertical_poisson(tr.VerticalOneForm.zero()).coeffs == {} or all(
        f.at(pts, 0).value.max() == 0 for f in tr.vertical_poisson(tr.VerticalOneForm.zero()).coeffs.values()
    )


def test_assemble_pi_reproduces_displayed_tensor(sec5, wide_pts):
    m = sec5.pi_matrix()
    kv = sec5.kappa_values(wide_pts)
    expected = {
        (0, 1): kv,
        (0, 3): kv,
        (0, 4): kv,
        (1, 3): -kv,
        (1, 4): -kv,
        (3, 4): wide_pts[2] ** 2,
    }
    for pair, want in expected.items():
        got = m[pair].at(wide_pts, 0).value
        assert np.array_equal(np.asarray(got), np.asarray(want)), pair
    for pair in [(0, 2), (1, 2), (2, 3), (2, 4)]:
        if pair in m:
            assert np.max(np.abs(m[pair].at(wide_pts, 0).value)) == 0.0


def test_assemble_flat_trivial(pts):
    T = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    m = T.pi_matrix()
    assert set(m) == {(0, 1)}
    assert np.all(m[(0, 1)].at(pts, 0).value == 1.0)


def test_mixed_component_vanishes_by_construction(rng, pts):
    for _ in range(50):
        conn = fuzz.random_connection(rng)
        T = tr.PoissonTriple(
            conn,
            ExprField(fuzz.random_poly_expr(rng)),
            tr.VerticalOneForm([fuzz.random_poly_expr(rng) for _ in range(3)]),
        )
        mov = ca.coord_to_moving_bivector(T.pi_coord(), conn)
        for key, f in mov.coeffs.items():
            if (len(key[0]), len(key[1])) == (1, 1):
                assert np.max(np.abs(f.at(pts, 0).value)) <= 1e-12


def test_recover_roundtrip(sec5, rng, wide_pts):
    kappa, beta = tr.recover_triple(sec5.pi_coord(), sec5.conn)
    assert np.max(np.abs(kappa.at(wide_pts, 0).value - sec5.kappa_values(wide_pts))) <= 1e-12
    for a in range(3):
        got = beta.comps[a].at(wide_pts, 0).value
        want = sec5.beta.comps[a].at(wide_pts, 0).value
        assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-12


def test_recover_trivial():
    flat = cn.Connection.flat()
    T = tr.PoissonTriple(flat, ConstField(1.0), tr.VerticalOneForm.zero())
    kappa, beta = tr.recover_triple(T.pi_coord(), flat)
    p = np.zeros(5)
    assert kappa.at(p, 0).value == 1.0
    assert all(b.at(p, 0).value == 0.0 for b in beta.comps)


def test_recover_rejects_mixed_terms():
    from acpoisson.calculus import FieldElement

    pi = FieldElement.multivector({((1,), (1,)): 1.0})  # a bare dx1 ^ dy1 term
    with pytest.raises(NotAlmostCoupling):
        tr.recover_triple(pi, cn.Connection.flat())


def test_jacobiator_flat_casimir_families(rng):
    for _ in range(10):
        T = fuzz.random_flat_casimir_triple(rng)
        pts = halton_points(100, [(-1, 1)] * 5)
        assert np.max(tr.jacobiator_norm(T, pts)) <= 1e-10


def test_jacobiator_sec5_on_wide_box(sec5):
    pts = halton_points(1000, [(-2, 2)] * 5)
    assert np.max(tr.jacobiator_norm(sec5, pts)) <= 1e-9


def test_jacobiator_detects_noncasimir(pts):
    bad = tr.PoissonTriple(
        cn.Connection.flat(), CoordField("y1"), tr.VerticalOneForm(["y1", "y2", "y3"])
    )
    jn = tr.jacobiator_norm(bad, pts)
    assert np.max(jn) > 0.1


def test_ic_residuals_examples(pts, sec5):
    assert np.max(tr.ic_norm(sec5, pts)) == 0.0
    base_only = tr.PoissonTriple(
        cn.Connection.flat(), ExprField("sin(x1) + x2^2"), tr.VerticalOneForm.zero()
    )
    assert np.max(tr.ic_norm(base_only, pts)) == 0.0
    bad = tr.PoissonTriple(
        cn.Connection.flat(), CoordField("y1"), tr.VerticalOneForm(["y1", "y2", "y3"])
    )
    res = tr.ic_residuals(bad, pts)
    # d kappa / dy^1 beta_2 - d kappa / dy^2 beta_1 = y2
    assert np.max(np.abs(res["ic3"][0] - np.abs(pts[3]))) <= 1e-12
    assert np.max(res["ic1"]) <= 1e-12 and np.max(res["ic2"]) <= 1e-12


def test_equivalence_check_flat_casimir_and_perturbed(rng):
    for _ in range(10):
        T = fuzz.random_flat_casimir_triple(rng)
        pts = halton_points(100, [(-1, 1)] * 5)
        rep = tr.equivalence_check(T, pts)
        assert rep.passed and not rep.disagreements
    for _ in range(10):
        T = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
        bad = fuzz.curvature_perturbed(rng, T)
        rep = tr.equivalence_check(bad, halton_points(100, [(-1, 1)] * 5))
        assert not rep.disagreements
        assert rep.meta["both_fail_fraction"] == 1.0


def test_equivalence_check_reports_on_exactly_the_points_given(so3):
    # the domain field y1 vanishes at four of the points: the caller cuts to the domain, not the check
    T = tr.PoissonTriple(so3.conn, so3.kappa, so3.beta, domain=ExprField("y1"))
    pts = halton_points(20, [(-1, 1)] * 5)
    pts[2, ::5] = 0.0
    assert not T.domain_mask(pts).all()
    rep = tr.equivalence_check(T, pts)
    assert [b.n_samples for b in rep.blocks] == [20, 20]


def test_poisson_bracket_examples(so3, sec5):
    p = np.array([0.5, -0.3, 0.7, 0.2, -0.4])
    flat = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    assert tr.poisson_bracket(flat, "x1", "x2", p) == 1.0
    assert np.isclose(tr.poisson_bracket(so3, "y1", "y2", p), p[4])
    assert abs(tr.poisson_bracket(sec5, "x1", "y1", p)) <= 1e-15


def test_poisson_bracket_routes_agree(rng, sec5, wide_pts):
    for _ in range(10):
        f = ExprField(fuzz.random_poly_expr(rng))
        g = ExprField(fuzz.random_poly_expr(rng))
        a = tr.poisson_bracket(sec5, f, g, wide_pts)
        b = tr.poisson_bracket_direct(sec5, f, g, wide_pts)
        assert np.max(np.abs(a - b)) <= 1e-10 * (1 + np.max(np.abs(a)))


def test_hamiltonian_field_examples(so3, pts):
    flat = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    v = tr.hamiltonian_field(flat, CoordField("x1")).values(pts)
    assert np.all(v[1] == 1.0) and np.max(np.abs(v[[0, 2, 3, 4]])) == 0.0
    # the rotation field of F = y3 in the cyclic structure
    v3 = tr.hamiltonian_field(so3, CoordField("y3")).values(pts)
    np.testing.assert_allclose(v3[2], pts[3], atol=1e-15)
    np.testing.assert_allclose(v3[3], -pts[2], atol=1e-15)
    assert np.max(np.abs(v3[4])) <= 1e-15


def test_hamiltonian_field_casimir_is_zero(so3, pts):
    v = tr.hamiltonian_field(so3, ExprField("y1^2 + y2^2 + y3^2")).values(pts)
    assert np.max(np.abs(v)) <= 1e-14


def test_hamiltonian_bigraded_parts(rng, sec5, wide_pts):
    for _ in range(5):
        F = ExprField(fuzz.random_poly_expr(rng))
        X = tr.hamiltonian_field(sec5, F).values(wide_pts)
        hor_part, vert = tr.hamiltonian_parts(sec5, F, wide_pts)
        gv = sec5.conn.gamma_values(wide_pts)
        rebuilt = np.zeros_like(X)
        rebuilt[0], rebuilt[1] = hor_part
        for a in range(3):
            rebuilt[2 + a] = vert[a] - hor_part[0] * gv[0, a] - hor_part[1] * gv[1, a]
        assert np.max(np.abs(X - rebuilt)) <= 1e-10


def test_casimir_residual_examples(so3, pts):
    assert np.max(tr.vertical_casimir_residual(so3.beta, ExprField("y1^2 + y2^2 + y3^2"), pts)) <= 1e-14
    # base functions are vertical Casimirs
    assert np.max(tr.vertical_casimir_residual(so3.beta, ExprField("x1*x2"), pts)) == 0.0
    assert np.max(tr.vertical_casimir_residual(so3.beta, CoordField("y1"), pts)) > 0.1


def test_coupling_domain_guards(sec5):
    inside = np.array([[0.0], [0.0], [1.0], [0.0], [0.0]])
    on_zero = np.array([[1.0], [0.0], [1.0], [0.0], [0.0]])
    tr.poisson_connection_residual(sec5, inside)
    with pytest.raises(OutsideCouplingDomain):
        tr.poisson_connection_residual(sec5, on_zero)


def test_coupling_domain_identities_verified_triples(rng):
    worst = {"pa": 0.0, "c2": 0.0, "c3": 0.0, "cocycle": 0.0, "curv": 0.0}
    for k in range(10):
        T = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
        pts = halton_points(50, [(-1, 1)] * 5, seed=k)
        worst["pa"] = max(worst["pa"], np.max(tr.poisson_connection_residual(T, pts)))
        worst["c2"] = max(worst["c2"], np.max(tr.form_max(tr.c2_form(T), pts)))
        worst["c3"] = max(worst["c3"], np.max(tr.c3_residual(T, pts)))
        worst["cocycle"] = max(worst["cocycle"], np.max(tr.cocycle_residual(T, pts)))
        worst["curv"] = max(worst["curv"], np.max(tr.curvature_identity_residual(T, pts)))
    assert max(worst.values()) <= 1e-9, worst


def test_coupling_domain_identities_detect_breakage(rng, pts):
    T = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
    bad = fuzz.curvature_perturbed(rng, T)
    assert np.max(tr.curvature_identity_residual(bad, pts)) > 1e-3
    # an x-dependent beta breaks the structure-preserving property
    bent = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm(["x1*y1", "0", "0"])
    )
    assert np.max(tr.poisson_connection_residual(bent, pts)) > 1e-3
    assert np.max(tr.form_max(tr.c2_form(bent), pts)) > 1e-3


def test_c5_on_kappa_zero_band(sec5):
    # points with kappa = 0: y1^2 = x1^2 + x2^2
    xs = np.linspace(0.2, 1.0, 9)
    pts = np.stack([xs, np.zeros(9), xs, np.full(9, 0.3), np.full(9, -0.2)])
    assert np.max(np.abs(sec5.kappa_values(pts))) <= 1e-12
    assert np.max(tr.c5_residual(sec5, pts)) <= 1e-12


def test_cocycle_flat_constant(pts):
    T = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm(["1", "2", "3"])
    )
    assert np.max(tr.cocycle_residual(T, pts)) == 0.0


def test_coupling_form(sec5):
    p = np.array([[0.0], [0.0], [1.0], [0.0], [0.0]])
    sigma = tr.coupling_form(sec5, p)
    assert np.allclose(sigma.coefficient(((1, 2), ())), 1.0)
    pts = halton_points(100, [(-2, 2)] * 5)
    mask = sec5.coupling_mask(pts)
    assert np.max(tr.coupling_form_residual(sec5, pts[:, mask])) <= 1e-10


def test_flat_pair_three_way_agreement(rng):
    # flatness, the horizontal self-bracket and the pair bracket vanish (or
    # fail) together on coupling-domain samples of verified structures
    from acpoisson import gauge as ga
    from acpoisson.calculus import FieldElement

    for curved in (False, True):
        T = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
        if curved:
            G = fuzz.random_gauge(rng)
            pts = halton_points(60, [(-1, 1)] * 5)
            T = ga.family(T, G, G.epsilon, probe=pts)
        pts = halton_points(60, [(-1, 1)] * 5)
        pts = pts[:, T.domain_mask(pts) & T.coupling_mask(pts)]
        pi20 = ca.bivector_matrix_fields(
            ca.moving_to_coord_bivector(FieldElement.multivector({((1, 2), ()): T.kappa}), T.conn)
        )
        curv = np.max(np.abs(cn.curvature(T.conn, pts)), axis=0)
        s20 = ca.schouten_bivectors(pi20, pi20, pts)
        s2002 = ca.schouten_bivectors(pi20, T.p_beta_matrix(), pts)
        m20 = np.max(np.stack([np.abs(v) for v in s20.values()]), axis=0)
        m2002 = np.max(np.stack([np.abs(v) for v in s2002.values()]), axis=0)
        tol = 1e-9
        flat_v = curv <= tol
        assert np.array_equal(flat_v, m20 <= tol)
        assert np.array_equal(flat_v, m2002 <= tol)


def test_ic_residuals_match_graded_calculus_route(rng):
    # the jet-based coordinate residuals agree with the split-differential
    # forms (d01 b ^ b, kappa (d10 b + b ^ theta), d01 k ^ b - k^2 rho)
    # computed through the graded machinery, including on broken triples
    from acpoisson.calculus import FieldElement, d_component

    for k in range(8):
        conn = fuzz.random_connection(rng)
        T = tr.PoissonTriple(
            conn,
            ExprField(fuzz.random_poly_expr(rng)),
            tr.VerticalOneForm([fuzz.random_poly_expr(rng) for _ in range(3)]),
        )
        pts = halton_points(30, [(-1, 1)] * 5, seed=k)
        res = tr.ic_residuals(T, pts)
        beta_form = T.beta.as_form()
        kv = T.kappa_values(pts)

        # ic1 against the (0,3) coefficient of d01 beta ^ beta
        wedge1 = d_component(beta_form, conn, (0, 1)).wedge(beta_form).at(pts)
        assert np.max(np.abs(res["ic1"] - np.abs(wedge1.coefficient(((), (1, 2, 3)))))) <= 1e-10

        # ic2 against kappa (d10 beta + beta ^ theta), componentwise
        c2 = (d_component(beta_form, conn, (1, 0)) + beta_form.wedge(cn.theta(conn))).at(pts)
        for i in (1, 2):
            for a in (1, 2, 3):
                want = np.abs(kv * c2.coefficient(((i,), (a,))))
                assert np.max(np.abs(res["ic2"][i - 1, a - 1] - want)) <= 1e-10

        # ic3 against d01 kappa ^ beta - kappa^2 rho on the (0,2) monomials
        kappa_form = FieldElement.form({((), ()): T.kappa})
        lhs = d_component(kappa_form, conn, (0, 1)).wedge(beta_form).at(pts)
        rho_vals = cn.rho(conn).at(pts)
        for idx, pair in enumerate([(1, 2), (1, 3), (2, 3)]):
            want = np.abs(
                lhs.coefficient(((), pair)) - kv**2 * np.asarray(rho_vals.coefficient(((), pair)))
            )
            assert np.max(np.abs(res["ic3"][idx] - want)) <= 1e-10


def test_jacobiator_unit_factor_cyclic(pts):
    T = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm(["y1", "y2", "y3"])
    )
    assert np.max(tr.jacobiator_norm(T, pts)) <= 1e-14


def test_cocycle_detects_breakage(pts):
    bent = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm(["x1*y1", "0", "0"])
    )
    assert np.max(tr.cocycle_residual(bent, pts)) > 0.1
