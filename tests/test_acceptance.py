"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all).
Tolerances are pinned here, not configurable.
"""

import numpy as np

from acpoisson import calculus as ca
from acpoisson import cli
from acpoisson import connection as cn
from acpoisson import flow as fl
from acpoisson import fuzz
from acpoisson import gauge as ga
from acpoisson import model as md
from acpoisson import modular as mo
from acpoisson import strata as st
from acpoisson import triple as tr
from acpoisson.fields import ConstField, ExprField, finite_difference_check
from acpoisson.strata import halton_points

BOX = [(-1, 1)] * 2 + [(-1.2, 1.2)] * 3


def _report(name, ok, detail=""):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_equivalence_fuzz():
    """200 flat-Casimir triples pass both routes; 200 perturbed fail both,
    with zero verdict disagreements at 200 Halton points each."""
    rng = np.random.default_rng(101)
    worst_ic = worst_jac = 0.0
    disagreements = 0
    for k in range(200):
        T = fuzz.random_flat_casimir_triple(rng, closed=(k % 2 == 0))
        pts = halton_points(200, BOX, seed=17 * k)
        ic = tr.ic_norm(T, pts)
        jac = tr.jacobiator_norm(T, pts)
        worst_ic = max(worst_ic, float(np.max(ic)))
        worst_jac = max(worst_jac, float(np.max(jac)))
        rep = tr.equivalence_check(T, pts, tol=1e-9)
        disagreements += len(rep.disagreements)
    assert worst_ic <= 1e-9 and worst_jac <= 1e-9

    all_both_fail = True
    for k in range(200):
        T = fuzz.random_flat_casimir_triple(rng, nonvanishing=True)
        bad = fuzz.curvature_perturbed(rng, T)
        pts = halton_points(200, BOX, seed=13 * k)
        rep = tr.equivalence_check(bad, pts, tol=1e-9)
        disagreements += len(rep.disagreements)
        all_both_fail &= rep.meta["both_fail_fraction"] == 1.0
    _report(
        "criterion 1: equivalence fuzz",
        disagreements == 0 and all_both_fail and worst_ic <= 1e-9,
        f"worst ic {worst_ic:.2e}, worst jacobiator {worst_jac:.2e}, "
        f"{disagreements} disagreements, perturbed triples fail everywhere: {all_both_fail}",
    )


def test_criterion_2_quadratic_example_regression(sec5):
    """The recorded example reproduces its tensor exactly, is Poisson on the
    wide box, has vanishing drift 1-form, the pinned modular value, and no
    admissible global unimodularity certificate."""
    pts = halton_points(1000, [(-2, 2)] * 5)
    kv = sec5.kappa_values(pts)
    m = sec5.pi_matrix()
    expected = {(0, 1): kv, (0, 3): kv, (0, 4): kv, (1, 3): -kv, (1, 4): -kv, (3, 4): pts[2] ** 2}
    exact = all(
        np.array_equal(np.asarray(m[pair].at(pts, 0).value), np.asarray(want))
        for pair, want in expected.items()
    )
    jac = float(np.max(tr.jacobiator_norm(sec5, pts)))
    theta_norm = cn.theta(sec5.conn).at(pts).norm()
    zvals = [
        np.max(np.abs(mo.modular_direct(sec5, None, np.array([1.0, 2.0, *y])) - [-4, 2, 0, -2, -2]))
        for y in ([0.1, 0.2, 0.3], [0, 0, 0], [1.5, -0.7, 0.4])
    ]
    cert_failures = []
    candidates = [
        (ConstField(0.0), ConstField(1.0)),
        (ConstField(0.0), ExprField("exp(x1)")),
        (ConstField(0.0), ExprField("2 + x1^2")),
        (ExprField("x1"), ConstField(1.0)),
        (ExprField("0.5*x2"), ExprField("1 + x2^2")),
    ]
    for h, K in candidates:
        cert = mo.UnimodularityCertificate(h=h, K=K)
        rep = mo.unimod_global_check(sec5, cert, pts)
        cert_failures.append(not rep.block("kappa-factorization").passed)
    ok = exact and jac <= 1e-9 and theta_norm == 0.0 and max(zvals) <= 1e-9 and all(cert_failures)
    _report(
        "criterion 2: recorded-example regression",
        ok,
        f"coefficients exact: {exact}, jacobiator {jac:.2e}, theta {theta_norm:.1e}, "
        f"modular gap {max(zvals):.2e}, all certificate families fail: {all(cert_failures)}",
    )


def test_criterion_3_cutoff_family():
    """The compact-support family passes the full check on its box for both
    deformation sizes, classifies its coupling domain as the open unit ball
    up to tolerance bands, and verifies its unimodularity certificate."""
    model = md.resolve("br3_unimodular")
    base = model.base_triple()
    G = model.gauge_data()
    pts = model.samples().points  # 1000 Halton points on the recorded box
    results = {}
    for eps in (0.01, 0.05):
        variant = model.with_gauge_epsilon(eps)
        report = cli.run_check(variant)
        T = ga.family(base, G, eps, probe=pts)
        coupling = T.coupling_mask(pts)
        r2 = np.sum(pts[2:] ** 2, axis=0)
        # band in r^2 where the bump factor underflows the kappa tolerance
        hard_inside = r2 <= 0.9
        outside = r2 >= 1.0
        domain_ok = np.all(coupling[hard_inside]) and not np.any(coupling[outside])
        vk = ga.varkappa_field(base, G, eps)
        K = ConstField(1.0) / (ConstField(1.0) - base.kappa * vk * eps)
        cert = mo.UnimodularityCertificate(h=ConstField(0.0), K=K, kappa0=base.kappa)
        urep = mo.unimod_global_check(T, cert, pts, div_tol=1e-6)
        results[eps] = (report.passed, domain_ok, urep.passed,
                        urep.block("global-volume-divergence").max_residual)
    ok = all(r[0] and r[1] and r[2] for r in results.values())
    _report(
        "criterion 3: compact-support family",
        ok,
        "; ".join(
            f"eps={eps}: check={r[0]}, domain={r[1]}, unimodular={r[2]}, div={r[3]:.1e}"
            for eps, r in results.items()
        ),
    )


def test_criterion_4_bigraded_identity_campaign():
    """Cochain, volume-structure and dual-formula identities over 100 random
    polynomial connections x 50 points, all within 1e-9."""
    rng = np.random.default_rng(404)
    worst = {"cochain": 0.0, "f4": 0.0, "dual": 0.0, "curvature": 0.0}
    for k in range(100):
        conn = fuzz.random_connection(rng)
        pts = halton_points(50, BOX, seed=29 * k)
        form = ca.FieldElement.form(
            {
                ((1,), ()): ExprField(fuzz.random_poly_expr(rng)),
                ((), (2,)): ExprField(fuzz.random_poly_expr(rng)),
            }
        )
        worst["cochain"] = max(worst["cochain"], *ca.cochain_residuals(conn, form, pts))
        worst["f4"] = max(worst["f4"], *cn.f4_residuals(conn, pts))
        worst["dual"] = max(
            worst["dual"],
            (cn.theta(conn).at(pts) - cn.theta_from_volume(conn, pts)).norm(),
            (cn.rho(conn).at(pts) - cn.rho_from_volume(conn, pts)).norm(),
        )
        curv = cn.curvature(conn, pts)
        rc = np.stack([f.at(pts, 0).value for f in cn.rho_components(conn)])
        worst["curvature"] = max(worst["curvature"], float(np.max(np.abs(curv - rc))))
    ok = max(worst.values()) <= 1e-9
    _report(
        "criterion 4: bigraded identity campaign",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_5_structural_invariants():
    """Assembly/recovery roundtrip to 1e-12, horizontal rank invariant under
    20 random connection shifts, stratum labels match matrix ranks."""
    rng = np.random.default_rng(505)
    pts = halton_points(100, BOX)
    worst_rt = 0.0
    rank_ok = True
    label_ok = True
    for k in range(20):
        T = fuzz.random_flat_casimir_triple(rng)
        kappa, beta = tr.recover_triple(T.pi_coord(), T.conn)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(kappa.at(pts, 0).value - T.kappa_values(pts)))),
            max(
                float(
                    np.max(
                        np.abs(
                            np.asarray(beta.comps[a].at(pts, 0).value)
                            - np.asarray(T.beta.comps[a].at(pts, 0).value)
                        )
                    )
                )
                for a in range(3)
            ),
        )
        xi = cn.ConnectionShift(
            [[fuzz.random_poly_expr(rng, scale=0.5) for _ in range(3)] for _ in range(2)]
        )
        shifted = cn.shift(T.conn, xi)
        mov = ca.coord_to_moving_bivector(T.pi_coord(), shifted)
        before = np.asarray(T.kappa_values(pts))
        after = np.asarray(mov.coeffs[((1, 2), ())].at(pts, 0).value)
        rank_ok &= np.array_equal(np.abs(before) > 1e-9, np.abs(after) > 1e-9)
        samples = st.SampleSet(halton_points(60, BOX, seed=7 * k))
        label_ok &= st.strata_columns(T, samples)[2].size == 0
    ok = worst_rt <= 1e-12 and rank_ok and label_ok
    _report(
        "criterion 5: structural invariants",
        ok,
        f"roundtrip {worst_rt:.2e}, rank invariance {rank_ok}, labels {label_ok}",
    )


def test_criterion_6_gauge_closure():
    """100 random admissible deformations of verified triples pass the
    equivalence check on their domains; the vertical form is fixed, zero sets
    are preserved and the characteristic ranks agree."""
    rng = np.random.default_rng(606)
    closure = beta_fixed = zero_sets = characteristic = True
    for k in range(100):
        base = fuzz.random_flat_casimir_triple(rng)
        G = fuzz.random_gauge(rng, eps_max=0.1)
        pts = halton_points(80, BOX, seed=41 * k)
        T = ga.family(base, G, G.epsilon, probe=pts)
        inside = T.domain_mask(pts)
        rep = tr.equivalence_check(T, pts[:, inside], tol=1e-9)
        closure &= rep.passed and not rep.disagreements
        beta_fixed &= T.beta is base.beta
        kv = np.abs(base.kappa_values(pts))
        zero_sets &= bool(np.array_equal(kv <= 1e-9, np.abs(T.kappa_values(pts)) <= 1e-9))
        cmp = ga.characteristic_compare(base, T, pts[:, inside])
        characteristic &= bool(np.all(cmp["equal"]))
    ok = closure and beta_fixed and zero_sets and characteristic
    _report(
        "criterion 6: gauge closure",
        ok,
        f"closure {closure}, beta fixed {beta_fixed}, zero sets {zero_sets}, "
        f"characteristic ranks {characteristic}",
    )


def test_criterion_7_flow_diagnostics(so3, sec5):
    """Cyclic-structure benchmark: Casimir drift <= 1e-9 over 1e4 steps at
    dt = 1e-3; energy-drift halving ratio in [8, 32]; kappa keeps its sign
    along 20 trajectories started inside the coupling domain."""
    casimir = ExprField("y1^2 + y2^2 + y3^2")
    traj = fl.integrate(
        so3, ExprField("y1^2/2 + y2^2/3 + y3^2/4"), [0, 0, 1, 0.7, -0.4],
        dt=1e-3, n=10000,
    )
    cv = casimir.at(traj.states, 0).value
    drift = float(np.max(np.abs(cv - cv[0])))

    F = ExprField("y1^2/2 + y2^2/3 + y3^2/4")
    drifts = []
    for dt, n in ((0.02, 200), (0.01, 400)):
        t2 = fl.integrate(so3, F, [0, 0, 1, 0.7, -0.4], dt=dt, n=n)
        fv = F.at(t2.states, 0).value
        drifts.append(float(np.max(np.abs(fv - fv[0]))))
    ratio = drifts[0] / drifts[1]

    rng = np.random.default_rng(707)
    starts = []
    while len(starts) < 20:
        p = rng.uniform(-1, 1, size=5)
        p[2] = rng.uniform(1.2, 1.8) * rng.choice([-1, 1])
        if sec5.kappa_values(p) > 0.2:
            starts.append(p)
    states = fl.integrate_batch(sec5, ExprField("x1 + y2"), np.stack(starts, axis=1), dt=1e-3, n=2000)
    kmin = float(np.min(sec5.kappa_values(states.reshape(5, -1))))

    ok = drift <= 1e-9 and 8.0 <= ratio <= 32.0 and kmin > 0.0
    _report(
        "criterion 7: flow diagnostics",
        ok,
        f"casimir drift {drift:.2e}, halving ratio {ratio:.1f}, min kappa along flows {kmin:.2e}",
    )


def test_criterion_8_ad_soundness():
    """Finite-difference cross-check <= 1e-5 relative on 100 random smooth
    fields/points; Hessians bitwise symmetric."""
    rng = np.random.default_rng(808)
    worst = 0.0
    symmetric = True
    for _ in range(100):
        f = ExprField(fuzz.random_smooth_expr(rng))
        p = rng.uniform(-1, 1, size=5)
        worst = max(worst, finite_difference_check(f, p))
        hess = f.at(p, order=2).hess
        symmetric &= bool(np.array_equal(hess, hess.T))
    ok = worst <= 1e-5 and symmetric
    _report(
        "criterion 8: automatic differentiation soundness",
        ok,
        f"worst relative gap {worst:.2e}, hessians exactly symmetric: {symmetric}",
    )
