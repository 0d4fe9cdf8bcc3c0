"""Split differential, Schouten bracket and frame-conversion tests.

The Schouten oracle differentiates bivector components by central finite
differences and assembles the bracket of coordinate functions directly, so it
shares no code with the jet-based production path.
"""

import numpy as np

from acpoisson import calculus as ca
from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson.calculus import CoordVector, FieldElement
from acpoisson.fields import ConstField, CoordField, ExprField

FD_STEP = 1e-5


def fd_schouten_oracle(matrix_fields, p):
    """[P, P] via {f,{g,h}} + cyclic on coordinate functions, finite differences."""

    def comp(mu, nu, q):
        if mu == nu:
            return 0.0
        if (mu, nu) in matrix_fields:
            return float(matrix_fields[(mu, nu)].at(q, 0).value)
        if (nu, mu) in matrix_fields:
            return -float(matrix_fields[(nu, mu)].at(q, 0).value)
        return 0.0

    def bracket_fg(mu, nu, q):  # {x^mu, x^nu}(q)
        return comp(mu, nu, q)

    def xf_apply(mu, func, q):  # X_{x^mu}(func) with X^lam = P^{mu lam}
        total = 0.0
        for lam in range(5):
            step = np.zeros(5)
            step[lam] = FD_STEP
            total += comp(mu, lam, q) * (func(q + step) - func(q - step)) / (2 * FD_STEP)
        return total

    out = {}
    for m, n, l in ca.TRIPLES:
        val = 0.0
        for i, j, k in ((m, n, l), (n, l, m), (l, m, n)):
            val += xf_apply(i, lambda q, a=j, b=k: bracket_fg(a, b, q), p)
        out[(m, n, l)] = 2.0 * val
    return out


def test_flat_d_is_classical_split():
    flat = cn.Connection.flat()
    F = ExprField("x1*y2 + y3^2")
    df = ca.exterior_d_field(FieldElement.form({((), ()): F}), flat)
    pts = np.array([0.5, -0.2, 0.3, 0.8, -0.6])
    jet = F.at(pts, 1)
    d10 = ca.d_component(FieldElement.form({((), ()): F}), flat, (1, 0)).at(pts)
    d01 = ca.d_component(FieldElement.form({((), ()): F}), flat, (0, 1)).at(pts)
    assert d10.coefficient(((1,), ())) == jet.grad[0]
    assert d10.coefficient(((2,), ())) == jet.grad[1]
    for a in (1, 2, 3):
        assert d01.coefficient(((), (a,))) == jet.grad[1 + a]
    assert (df.at(pts) - d10 - d01).norm() == 0.0


def test_d_eta_zero_for_constant_connection(pts):
    conn = cn.Connection([["0", "-1", "-1"], ["0", "-1", "-1"]])
    for a in (1, 2, 3):
        assert ca.d_eta(conn, a).at(pts).norm() == 0.0


def test_d_bidegree_shifts(rng, pts):
    conn = fuzz.random_connection(rng)
    for key in [((1,), ()), ((), (2,)), ((1,), (1,)), ((), (1, 3))]:
        p, q = len(key[0]), len(key[1])
        xi = FieldElement.form({key: ExprField(fuzz.random_poly_expr(rng))})
        full = ca.exterior_d_field(xi, conn).at(pts)
        allowed = {(p + 1, q), (p, q + 1), (p + 2, q - 1)}
        for k in full.coeffs:
            assert (len(k[0]), len(k[1])) in allowed


def test_cochain_residuals_flat_exact(pts):
    flat = cn.Connection.flat()
    xi = FieldElement.form({((1,), ()): ExprField("x1*y2^2"), ((), (3,)): ExprField("y1*x2")})
    assert ca.cochain_residuals(flat, xi, pts) == (0.0, 0.0, 0.0)


def test_cochain_residuals_random_campaign(rng):
    from acpoisson.strata import halton_points

    worst = 0.0
    for k in range(20):
        conn = fuzz.random_connection(rng)
        pts = halton_points(20, [(-1, 1)] * 5, seed=k)
        xi = FieldElement.form(
            {((1,), ()): ExprField(fuzz.random_poly_expr(rng)), ((), (2,)): ExprField(fuzz.random_poly_expr(rng))}
        )
        worst = max(worst, max(ca.cochain_residuals(conn, xi, pts)))
        ov = FieldElement.form({((), (1, 2, 3)): 1.0})
        worst = max(worst, max(ca.cochain_residuals(conn, ov, pts)))
    assert worst <= 1e-9


def test_schouten_constant_bivector(pts):
    P = {(0, 1): ConstField(2.0), (2, 3): ConstField(-1.0)}
    comps = ca.schouten_bivectors(P, P, pts)
    assert all(np.max(np.abs(v)) == 0.0 for v in comps.values())


def test_schouten_so3_vanishes(so3, wide_pts):
    comps = ca.schouten_bivectors(so3.pi_matrix(), so3.pi_matrix(), wide_pts)
    assert max(np.max(np.abs(v)) for v in comps.values()) <= 1e-12


def test_schouten_nonjacobi_case_matches_oracle():
    # {x1,x2} = y1 against {y1,y2} = 1 fails Jacobi: a single decomposable
    # block on constant frame vectors never does, so two blocks are needed
    P = {(0, 1): CoordField("y1"), (2, 3): ConstField(1.0)}
    pts = np.array([[0.3], [0.1], [0.7], [0.4], [-0.2]])
    comps = ca.schouten_bivectors(P, P, pts)
    oracle = fd_schouten_oracle(P, pts[:, 0])
    for key in ca.TRIPLES:
        got = float(np.asarray(comps[key]).ravel()[0])
        assert abs(got - oracle[key]) <= 1e-8
    assert abs(float(np.asarray(comps[(0, 1, 3)]).ravel()[0])) == 2.0


def test_schouten_random_against_fd_oracle(rng):
    for _ in range(5):
        fields = {}
        for mu in range(5):
            for nu in range(mu + 1, 5):
                if rng.random() < 0.5:
                    fields[(mu, nu)] = ExprField(fuzz.random_poly_expr(rng, degree=2, terms=2))
        if not fields:
            continue
        p = rng.uniform(-0.8, 0.8, size=5)
        comps = ca.schouten_bivectors(fields, fields, p)
        oracle = fd_schouten_oracle(fields, p)
        for key in ca.TRIPLES:
            assert abs(float(comps[key]) - oracle[key]) <= 1e-6


def test_lie_derivative_translation_of_constants(pts):
    X = CoordVector([1.0, 0.0, 0.0, 0.0, 0.0])
    P = {(0, 1): ConstField(3.0), (3, 4): ConstField(1.0)}
    comps = ca.lie_derivative_bivector(X, P, pts)
    assert max(np.max(np.abs(v)) for v in comps.values()) == 0.0


def test_lie_derivative_gives_component_derivatives(so3, pts):
    # L_{d/dy1} P has entries dP/dy1
    X = CoordVector([0.0, 0.0, 1.0, 0.0, 0.0])
    comps = ca.lie_derivative_bivector(X, so3.pi_matrix(), pts)
    expect = {(3, 4): 1.0, (2, 4): 0.0, (2, 3): 0.0}
    for pair, val in expect.items():
        assert np.max(np.abs(comps[pair] - val)) <= 1e-14


def test_lie_derivative_horizontal_lift_annihilates(sec5, wide_pts):
    # structure-preserving property of the example's connection
    pb = sec5.p_beta_matrix()
    for i in (1, 2):
        comps = ca.lie_derivative_bivector(cn.horizontal_lift(i, sec5.conn), pb, wide_pts)
        assert max(np.max(np.abs(v)) for v in comps.values()) <= 1e-12


def test_frame_conversion_roundtrip(rng, pts):
    conn = fuzz.random_connection(rng)
    P = FieldElement.multivector(
        {
            ((1, 2), ()): ExprField(fuzz.random_poly_expr(rng)),
            ((1,), (2,)): ExprField(fuzz.random_poly_expr(rng)),
            ((), (1, 3)): ExprField(fuzz.random_poly_expr(rng)),
        }
    )
    coord = ca.moving_to_coord_bivector(P, conn)
    back = ca.coord_to_moving_bivector(coord, conn)
    for key in set(P.coeffs) | set(back.coeffs):
        a = P.coeffs.get(key, ConstField(0.0)).at(pts, 0).value
        b = back.coeffs.get(key, ConstField(0.0)).at(pts, 0).value
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-10


def test_divergence_with_density():
    X = CoordVector([CoordField("x1"), 0.0, 0.0, 0.0, 0.0])
    p = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
    assert float(ca.divergence(X, p, ConstField(1.0))) == 1.0
    # density exp(x1): div = 1 + x1
    dens = ExprField("exp(x1)")
    assert np.isclose(float(ca.divergence(X, p, dens)), 1.5)


def test_field_element_evaluation_commutes(rng, pts):
    # evaluating coefficients commutes with wedge and with projection
    A = FieldElement.form(
        {((1,), ()): ExprField(fuzz.random_poly_expr(rng)), ((), (2,)): ExprField(fuzz.random_poly_expr(rng))}
    )
    B = FieldElement.form(
        {((), (1,)): ExprField(fuzz.random_poly_expr(rng)), ((2,), ()): ExprField(fuzz.random_poly_expr(rng))}
    )
    assert A.wedge(B).at(pts).allclose(A.at(pts).wedge(B.at(pts)), tol=1e-12)
    for p, q in ((1, 0), (0, 1), (1, 1)):
        assert A.project(p, q).at(pts).allclose(A.at(pts).project(p, q), tol=1e-15)
