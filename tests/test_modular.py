import json

import numpy as np
import pytest

from acpoisson import calculus as ca
from acpoisson import cli
from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import gauge as ga
from acpoisson import modular as mo
from acpoisson import triple as tr
from acpoisson.errors import MissingCertificate, ZeroVolumeFactor
from acpoisson.fields import ConstField, ExprField
from acpoisson.reports import VerificationReport, residual_block, run_table
from acpoisson.strata import as_sample, halton_points


def test_modular_flat_symplectic_zero(pts):
    T = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    assert np.max(np.abs(mo.modular_direct(T, None, pts))) == 0.0


def test_modular_sec5_value(sec5):
    for y in ([0.3, 0.4, 0.5], [0.0, 0.0, 0.0], [2.0, -1.0, 0.7]):
        p = np.array([1.0, 2.0, *y])
        z = mo.modular_direct(sec5, None, p)
        np.testing.assert_allclose(z, [-4.0, 2.0, 0.0, -2.0, -2.0], atol=1e-9)
    # and via the bigraded formula: 2 x1 hor_2 - 2 x2 hor_1
    hor, vert = mo.modular_bigraded(sec5, np.array([1.0, 2.0, 0.3, 0.4, 0.5]))
    np.testing.assert_allclose(hor, [-4.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(vert, 0.0, atol=1e-12)


def test_modular_closed_vertical_zero(so3, pts):
    assert np.max(np.abs(mo.modular_direct(so3, None, pts))) <= 1e-14


def test_bigraded_vs_direct_campaign(rng):
    worst = 0.0
    for k in range(20):
        T = fuzz.random_flat_casimir_triple(rng)
        pts = halton_points(50, [(-1, 1)] * 5, seed=k)
        worst = max(worst, float(np.max(mo.bigraded_vs_direct_residual(T, pts))))
        G = fuzz.random_gauge(rng)
        Tg = ga.family(T, G, G.epsilon, probe=pts)
        inside = Tg.domain_mask(pts)
        worst = max(worst, float(np.max(mo.bigraded_vs_direct_residual(Tg, pts[:, inside]))))
    assert worst <= 1e-9


def test_renormalization_identity(sec5, pts):
    assert np.max(mo.renormalization_check(sec5, ConstField(1.0), pts)) == 0.0
    flat = tr.PoissonTriple(cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm.zero())
    assert np.max(mo.renormalization_check(flat, ExprField("exp(x1)"), pts)) <= 1e-10
    assert np.max(mo.renormalization_check(sec5, ExprField("2 + sin(x1)*y1"), pts)) <= 1e-10


def test_renormalization_random_positive_factors(rng, sec5, pts):
    worst = 0.0
    for _ in range(10):
        a = ExprField(f"2.5 + tanh({fuzz.random_poly_expr(rng, terms=2)})")
        worst = max(worst, float(np.max(mo.renormalization_check(sec5, a, pts))))
    assert worst <= 1e-10


def test_volume_factor_guard(sec5, pts):
    with pytest.raises(ZeroVolumeFactor):
        mo.renormalization_check(sec5, ExprField("x1"), pts)
    mo.modular_direct(sec5, ExprField("1 + x1^2"), pts)
    with pytest.raises(ZeroVolumeFactor):
        mo.modular_direct(sec5, ExprField("x1"), pts)


def test_inverse_kappa_renormalization_kills_modular_field(sec5):
    # relative to Omega/kappa the example's modular field vanishes on the
    # coupling domain (theta = 0 and the vertical form is closed)
    pts = halton_points(300, [(-2, 2)] * 5)
    pts = pts[:, np.abs(sec5.kappa_values(pts)) > 0.3]
    a = ConstField(1.0) / sec5.kappa
    z = mo.modular_direct(sec5, a, pts)
    assert np.max(np.abs(z)) <= 1e-9


def test_inverse_kappa_reproduces_bigraded_prime_formula(rng):
    # Z' = kappa i_theta Q_H + i_{d_(0,1) beta} Q_V for a deformed structure
    # with nonzero theta (non-closed beta)
    T = fuzz.random_flat_casimir_triple(rng, closed=False, nonvanishing=True)
    G = fuzz.random_gauge(rng)
    pts = halton_points(60, [(-1, 1)] * 5)
    Tg = ga.family(T, G, G.epsilon, probe=pts)
    pts = pts[:, Tg.domain_mask(pts) & Tg.coupling_mask(pts)]
    kv = Tg.kappa_values(pts)
    thf = mo._theta_fields(Tg.conn)
    th = np.stack([f.at(pts, 0).value for f in thf])
    hor_expect = np.stack([kv * th[1], -kv * th[0]])
    bj = [c.at(pts, 1) for c in Tg.beta.comps]
    nu = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        nu[(a, b)] = bj[b].grad[2 + a] - bj[a].grad[2 + b]
    vert_expect = np.stack([nu[(1, 2)], -nu[(0, 2)], nu[(0, 1)]])
    expect = mo.bigraded_to_coordinates(Tg, hor_expect, vert_expect, pts)
    got = mo.modular_direct(Tg, ConstField(1.0) / Tg.kappa, pts)
    assert np.max(np.abs(got - expect)) <= 1e-9


def test_modular_field_is_infinitesimal_symmetry(rng):
    worst = 0.0
    for k in range(5):
        T = fuzz.random_flat_casimir_triple(rng)
        pts = halton_points(40, [(-1, 1)] * 5, seed=k)
        Z = mo.modular_direct_fields(T)
        worst = max(worst, np.max(tr.component_max(ca.lie_derivative_bivector(Z, T.pi_matrix(), pts).values())))
    assert worst <= 1e-8


def test_closedness_check_cases(sec5, so3, pts):
    res = mo.closedness_check(sec5, pts)
    assert max(float(np.max(v)) for v in res.values()) == 0.0
    res = mo.closedness_check(so3, pts)
    assert float(np.max(res["dbeta"])) <= 1e-14
    bad = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(1.0), tr.VerticalOneForm(["y2", "0", "0"])
    )
    assert float(np.max(mo.closedness_check(bad, pts)["dbeta"])) == 1.0


def test_coupling_check_sec5(sec5):
    pts = halton_points(300, [(-2, 2)] * 5)
    cert = mo.UnimodularityCertificate(h=ConstField(0.0))
    rep = run_table(VerificationReport(name="unimodularity-coupling"), mo.coupling_table(sec5, cert, as_sample(pts)))
    assert rep.passed


def test_coupling_check_requires_certificate(sec5, pts):
    with pytest.raises(MissingCertificate):
        mo.coupling_table(sec5, None, as_sample(pts))
    with pytest.raises(MissingCertificate):
        mo.unimod_global_check(sec5, mo.UnimodularityCertificate(h=ConstField(0.0)), pts)


def test_coupling_check_detects_inexact_drift(pts):
    # theta has dx^1 coefficient y1; no Casimir primitive can cancel it
    conn = cn.Connection([["0 - y1^2/2", "0", "0"], ["0", "0", "0"]])
    T = tr.PoissonTriple(conn, ConstField(1.0), tr.VerticalOneForm.zero())
    th = cn.theta(conn).at(pts)
    assert np.max(np.abs(th.coefficient(((1,), ())) - pts[2])) <= 1e-12
    table = mo.coupling_table(T, mo.UnimodularityCertificate(h=ConstField(0.0)), as_sample(pts))
    rep = run_table(VerificationReport(name="unimodularity-coupling"), table)
    assert not rep.block("theta-exactness").passed


def test_global_check_flat_family(rng):
    # nowhere-vanishing Casimir factor with closed beta: kappa = K certifies
    T = fuzz.random_flat_casimir_triple(rng, closed=True, nonvanishing=True)
    pts = halton_points(150, [(-1, 1)] * 5)
    cert = mo.UnimodularityCertificate(h=ConstField(0.0), K=T.kappa)
    rep = mo.unimod_global_check(T, cert, pts)
    assert rep.passed


def test_global_check_fails_for_sign_changing_kappa(sec5):
    # kappa takes both signs on the coupling domain, no nowhere-vanishing
    # factorization can match it
    pts = halton_points(400, [(-2, 2)] * 5)
    for K in (ConstField(1.0), ExprField("exp(x1)"), ExprField("1 + x1^2 + y1^2")):
        cert = mo.UnimodularityCertificate(h=ConstField(0.0), K=K)
        rep = mo.unimod_global_check(sec5, cert, pts)
        assert not rep.block("kappa-factorization").passed


def test_global_check_cutoff_family(pts):
    base = tr.PoissonTriple(
        cn.Connection.flat(),
        ExprField("cutoff(y1^2+y2^2+y3^2)"),
        tr.VerticalOneForm(["y1", "y2", "y3"]),
    )
    G = ga.GaugeData(mu=(ExprField("y3"), ConstField(0.0)), c=ConstField(0.0))
    box = [(-1, 1), (-1, 1), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)]
    sample = halton_points(500, box)
    for eps in (0.01, 0.05):
        T = ga.family(base, G, eps, probe=sample)
        vk = ga.varkappa_field(base, G, eps)
        K = ConstField(1.0) / (ConstField(1.0) - base.kappa * vk * eps)
        cert = mo.UnimodularityCertificate(h=ConstField(0.0), K=K, kappa0=base.kappa)
        rep = mo.unimod_global_check(T, cert, sample)
        assert rep.passed
        assert rep.block("global-volume-divergence").max_residual <= 1e-6


def test_modular_direct_zero_volume_factor(sec5, pts):
    with pytest.raises(ZeroVolumeFactor):
        mo.modular_direct(sec5, ExprField("x1"), pts)


def test_bigraded_vertical_part_vanishes_for_closed_beta(rng, pts):
    T = fuzz.random_flat_casimir_triple(rng, closed=True)
    _, vert = mo.modular_bigraded(T, pts)
    assert np.max(np.abs(vert)) <= 1e-12


def test_modular_certificate_reads_through_the_sample(tmp_path, capsys, monkeypatch):
    """Every field `modular --certificate` reads goes through its sample or a group walk, none through Field.at."""
    from acpoisson import cli, fields

    calls = []
    at = fields.Field.at

    def spy(self, p, order=2):
        calls.append(self)
        return at(self, p, order)

    monkeypatch.setattr(fields.Field, "at", spy)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["modular", "br3_unimodular", "--certificate", "--csv", "z.csv"]) == 0
    capsys.readouterr()
    assert calls == []


def test_gauge_functions_and_volume_factor_call_no_field_at(so3_coupled, pts, monkeypatch):
    """Field.at is the oracle: the gauge functions and the volume factor read through group walks."""
    from acpoisson import fields

    calls = []
    at = fields.Field.at

    def spy(self, p, order=2):
        calls.append(self)
        return at(self, p, order)

    monkeypatch.setattr(fields.Field, "at", spy)
    G = ga.GaugeData(mu=(ExprField("y3*x1"), ExprField("y1 + x2")), c=ExprField("y1^2 + y2^2 + y3^2"), epsilon=0.1)
    ga.varkappa(so3_coupled, G, pts)
    ga.varkappa_intrinsic(so3_coupled, G, pts)
    ga.family(so3_coupled, G, 0.1, probe=pts)
    mo.modular_direct(so3_coupled, ExprField("1 + x1^2"), pts)
    assert calls == []


def test_informational_closedness_blocks_do_not_decide_the_verdict(tmp_path, capsys):
    # beta = y2 eta^1 is not closed, so closedness-dbeta fails, but it is informational
    path = tmp_path / "nonclosed.ini"
    path.write_text("[model]\nname = nonclosed\n\n[kappa]\nexpr = 1 + y1^2\n\n[beta]\nb1 = y2\nb2 = 0\nb3 = 0\n")
    code = cli.main(["modular", str(path), "--samples", "50"])
    doc = json.loads(capsys.readouterr().out)
    verdicts = {b["check"]: b["verdict"] for b in doc["checks"]}
    assert verdicts["closedness-dbeta"] == "fail"
    assert all(v == "pass" for check, v in verdicts.items() if check != "closedness-dbeta")
    assert doc["verdict"] == "pass" and code == 0
    assert all("informational" not in b for b in doc["checks"])


def test_an_informational_block_is_kept_out_of_the_report_verdict():
    report = VerificationReport(name="r")
    report.add(residual_block("loose", np.array([1.0]), np.zeros((5, 1)), 0.5, informational=True))
    assert report.passed
    report.add(residual_block("strict", np.array([1.0]), np.zeros((5, 1)), 0.5))
    assert not report.passed


def test_a_residual_block_refuses_residuals_that_are_not_one_per_point():
    with pytest.raises(ValueError):
        residual_block("scalar", 1.0, np.zeros((5, 3)), 0.5)
    block = residual_block("one point", 2.0, np.arange(5.0), 0.5)
    assert (block.n_samples, block.worst_point) == (1, [0.0, 1.0, 2.0, 3.0, 4.0])
