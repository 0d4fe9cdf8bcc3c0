import numpy as np
import pytest

from acpoisson import calculus as ca
from acpoisson import connection as cn
from acpoisson import flow as fl
from acpoisson import fuzz
from acpoisson import model as md
from acpoisson import triple as tr
from acpoisson.errors import DomainError
from acpoisson.fields import ConstField, ExprField

CASIMIR = "y1^2 + y2^2 + y3^2"


def test_casimir_flow_is_stationary(so3):
    traj = fl.integrate(so3, ExprField(CASIMIR), [0, 0, 0.6, -0.2, 0.3], dt=1e-2, n=50)
    drift = np.max(np.abs(traj.states - traj.states[:, :1]))
    assert drift == 0.0


def test_so3_circle_and_conservation(so3):
    traj = fl.integrate(so3, ExprField("y3"), [0, 0, 1, 0, 0], dt=1e-3, n=2000)
    # exact solution rotates (y1, y2) with angular rate 1
    t = traj.times
    np.testing.assert_allclose(traj.states[2], np.cos(t), atol=1e-9)
    np.testing.assert_allclose(traj.states[3], -np.sin(t), atol=1e-9)
    report = fl.conservation_report(so3, traj, casimirs=[ExprField(CASIMIR)], casimir_tol=1e-9)
    assert report.passed
    assert traj.halving_error is not None and traj.halving_error <= 1e-10


def test_casimir_drift_no_secular_growth(so3):
    traj = fl.integrate(
        so3, ExprField("y1^2/2 + y2^2/3 + y3^2/4"), [0, 0, 1, 0.7, -0.4],
        dt=1e-3, n=10000,
    )
    c = ExprField(CASIMIR).at(traj.states, 0).value
    drift = np.abs(c - c[0])
    assert np.max(drift) <= 1e-9
    # comparing window maxima guards against secular accumulation
    early = np.max(drift[: len(drift) // 2])
    late = np.max(drift[len(drift) // 2 :])
    assert late <= max(10 * early, 1e-12)


def test_energy_drift_fourth_order(so3):
    F = ExprField("y1^2/2 + y2^2/3 + y3^2/4")
    p0 = [0, 0, 1.0, 0.7, -0.4]
    drifts = []
    for dt, n in ((0.02, 200), (0.01, 400)):
        traj = fl.integrate(so3, F, p0, dt=dt, n=n)
        f = F.at(traj.states, 0).value
        drifts.append(np.max(np.abs(f - f[0])))
    ratio = drifts[0] / drifts[1]
    assert 8.0 <= ratio <= 32.0


def test_sec5_horizontal_motion(sec5):
    # X_{x1} = kappa hor_2 at the start point
    p0 = np.array([0.0, 0.0, 1.5, 0.0, 0.0])
    traj = fl.integrate(sec5, ExprField("x1"), p0, dt=1e-3, n=10)
    kv = float(sec5.kappa_values(p0))
    velocity = (traj.states[:, 1] - traj.states[:, 0]) / 1e-3
    np.testing.assert_allclose(velocity, [0.0, kv, 0.0, kv, kv], atol=1e-3)


def test_kappa_sign_constant_along_flows(sec5):
    rng = np.random.default_rng(11)
    starts = []
    while len(starts) < 20:
        p = rng.uniform(-1, 1, size=5)
        p[2] = rng.uniform(1.2, 1.8) * rng.choice([-1, 1])  # kappa > 0 region
        if sec5.kappa_values(p) > 0.2:
            starts.append(p)
    p0s = np.stack(starts, axis=1)
    states = fl.integrate_batch(sec5, ExprField("x1 + y2"), p0s, dt=1e-3, n=2000)
    kv = sec5.kappa_values(states.reshape(5, -1)).reshape(20, -1)
    assert np.min(kv) > 0.0


def test_trajectory_truncated_on_domain_error():
    T = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(0.0), tr.VerticalOneForm(["0", "1", "0"])
    )
    # X_F drives y1 downward while F needs ln(y1)
    F = ExprField("0 - y3 - 0.001*ln(y1)")
    traj = fl.integrate(T, F, [0, 0, 0.5, 0, 0], dt=0.01, n=200)
    assert traj.truncated
    assert traj.states.shape[1] < 201
    assert np.all(traj.states[2] > 0)


def test_conservation_report_with_invariant_volume(so3):
    traj = fl.integrate(so3, ExprField("y3"), [0, 0, 1, 0, 0], dt=1e-2, n=200)
    report = fl.conservation_report(
        so3, traj, casimirs=[ExprField(CASIMIR)], volume_factor=ConstField(1.0)
    )
    assert report.block("invariant-volume-divergence").passed


def test_trajectory_csv(tmp_path, so3):
    traj = fl.integrate(so3, ExprField("y3"), [0, 0, 1, 0, 0], dt=1e-2, n=5)
    path = tmp_path / "traj.csv"
    fl.trajectory_to_csv(traj, [ExprField(CASIMIR)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,y3,F,casimir_1"
    assert len(lines) == 7


def test_divergence_accumulation_with_certificate_volume():
    # the deformed compact-support family is unimodular for the flat chart
    # volume, so divergence accumulates to zero along its flows
    from acpoisson import model as md

    model = md.resolve("br3_unimodular")
    T = model.effective_triple()
    traj = fl.integrate(
        T, ExprField("y3 + 0.2*x1"), [0.1, 0.0, 0.4, 0.2, 0.1], dt=1e-2, n=300,
    )
    report = fl.conservation_report(T, traj, volume_factor=ConstField(1.0), div_tol=1e-6)
    block = report.block("invariant-volume-divergence")
    assert block.passed and block.mean_residual <= 1e-6
    # the block holds |div| at each state; the accumulated integral is in meta
    div = ca.divergence(tr.hamiltonian_field(T, traj.hamiltonian), traj.sample, ConstField(1.0))
    assert block.n_samples == traj.n_steps + 1 and block.mean_residual == np.mean(np.abs(div))
    assert report.meta["divergence_integral"] == abs(np.sum(div) * traj.dt) <= 1e-6


def test_kappa_sign_block_marks_each_state_where_the_sign_changes():
    # kappa = y1 on a flow that moves y1 from -0.5 through its zero set at unit speed
    T = tr.PoissonTriple(cn.Connection.flat(), ExprField("y1"), tr.VerticalOneForm(["0", "0", "1"]))
    traj = fl.integrate(T, ExprField("0 - y2"), [0, 0, -0.5, 0, 0], dt=0.1, n=10)
    np.testing.assert_allclose(traj.states[2], np.arange(11) * 0.1 - 0.5, atol=1e-12)
    block = fl.conservation_report(T, traj).block("kappa-sign-constancy")
    # state 5 sits in kappa's zero band, so state 6 is the one off-band state whose sign differs
    assert not block.passed and block.max_residual == 1.0
    assert block.n_samples == 11 and block.mean_residual == 1.0 / 11
    assert block.worst_point == traj.states[:, 6].tolist()


def test_batch_domain_error_raises_with_its_subexpression():
    T = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(0.0), tr.VerticalOneForm(["0", "1", "0"])
    )
    F = ExprField("ln(y1) - y3")
    # X_F moves y1 at unit speed towards 0 on the compiled path
    X = tr.hamiltonian_field(T, F)
    np.testing.assert_array_equal(X.values([0, 0, 0.5, 0, 0]), [0.0, 0.0, -1.0, 0.0, -2.0])
    assert X._lowered
    p0s = np.array([[0, 0, 0.5, 0, 0], [0, 0, 0.02, 0, 0]], dtype=float).T
    with pytest.raises(DomainError, match=r"ln of a non-positive value in 'ln\(y1\)'"):
        fl.integrate_batch(T, F, p0s, dt=0.01, n=5)
    assert fl.integrate_batch(T, F, p0s[:, :1], dt=0.01, n=5).shape == (5, 1, 6)


def test_batch_stage_overflow_raises_domain_error():
    from acpoisson import model as md

    triple = md.resolve("flat_so3").effective_triple()
    p0s = np.array([[0, 0, 0.6, -0.2, 0.3], [0.1, 0, 0.2, 0.4, -0.5]]).T
    # the second stage lands near 1e307, so the third leaves the finite range
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="an RK4 stage left the finite range"):
            fl.integrate_batch(triple, ExprField("y1"), p0s, dt=1e308, n=5)
        # the single flow from the same point truncates at the same step
        traj = fl.integrate(triple, ExprField("y1"), p0s[:, 0], dt=1e308, n=5)
    assert traj.truncated and traj.n_steps == 0


def test_csv_reads_the_fields_the_report_evaluated(so3, tmp_path, monkeypatch):
    import sys

    from acpoisson import fields, lowering

    traj = fl.integrate(so3, ExprField("y3"), [0, 0, 1, 0, 0], dt=1e-2, n=5)
    casimirs = [ExprField(CASIMIR), ExprField("y1 + x2")]
    fl.conservation_report(so3, traj, casimirs=casimirs)
    walks = []
    evaluate, at = lowering.evaluate, fields.Field.at

    def evaluate_spy(fs, *args, **kwargs):
        fs = list(fs)
        if fs:  # an empty group walks nothing
            walks.append(fs)
        return evaluate(fs, *args, **kwargs)

    def at_spy(self, p, order=2):
        walks.append([self])
        return at(self, p, order)

    for name, module in list(sys.modules.items()):
        if name.startswith("acpoisson") and vars(module).get("evaluate") is evaluate:
            monkeypatch.setattr(module, "evaluate", evaluate_spy)
    monkeypatch.setattr(fields.Field, "at", at_spy)
    fl.trajectory_to_csv(traj, casimirs, tmp_path / "traj.csv")
    assert walks == []
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,y3,F,casimir_1,casimir_2" and len(lines) == 7


def test_drift_blocks_hold_the_drift_at_each_state(so3):
    F = ExprField("y1^2/2 + y2^2/3 + y3^2/4")
    traj = fl.integrate(so3, F, [0, 0, 1.0, 0.7, -0.4], dt=0.05, n=40)
    report = fl.conservation_report(so3, traj, casimirs=[ExprField(CASIMIR)])
    for check_id, field in (("hamiltonian-drift", F), ("casimir-1-drift", ExprField(CASIMIR))):
        values = field.at(traj.states, 0).value
        drift = np.abs(values - values[0])
        block = report.block(check_id)
        assert block.n_samples == 41
        assert block.max_residual == np.max(drift) and block.mean_residual == np.mean(drift)
        assert block.worst_point == traj.states[:, np.argmax(drift)].tolist()


def test_report_meta_counts_rhs_calls_with_the_halving_rerun(so3):
    traj = fl.integrate(so3, ExprField("y3"), [0, 0, 1, 0, 0], dt=1e-2, n=30)
    meta = fl.conservation_report(so3, traj).meta
    assert meta["rhs_evaluations"] == 4 * 30 + 4 * 60
    assert meta["truncated"] is False and "truncated_at_step" not in meta


def test_truncated_report_names_its_step_and_subexpression():
    T = tr.PoissonTriple(
        cn.Connection.flat(), ConstField(0.0), tr.VerticalOneForm(["0", "1", "0"])
    )
    F = ExprField("0 - y3 - 0.001*ln(y1)")
    traj = fl.integrate(T, F, [0, 0, 0.5, 0, 0], dt=0.01, n=200)
    meta = fl.conservation_report(T, traj).meta
    assert meta["truncated"] is True
    assert meta["truncated_at_step"] == traj.n_steps
    assert meta["truncation_cause"] == "ln of a non-positive value in 'ln(y1)'"
    # every step before the cut made its four calls, the cut one fewer
    assert 4 * traj.n_steps < meta["rhs_evaluations"] <= 4 * traj.n_steps + 4


def test_one_point_stage_overflow_truncates_at_the_same_step():
    from acpoisson import model as md

    triple = md.resolve("sec5_example").effective_triple()
    F = ExprField("y1^2*y2^2*y3^2")
    X = tr.hamiltonian_field(triple, F)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = fl.integrate(triple, F, [0.1, 0.2, 1.5, 1.0, 0.5], dt=0.1, n=200)
        # the compiled right-hand side itself runs into the infinities at the last state
        p, dt = traj.states[:, -1], 0.1
        k1 = X.values(p)
        k2 = X.values(p + 0.5 * dt * k1)
        stages = [k1, k2]
        if np.isfinite(p + 0.5 * dt * k2).all():
            stages.append(X.values(p + 0.5 * dt * k2))
    assert X._lowered
    assert not all(np.isfinite(k).all() for k in stages)
    # the step the single-point flow was cut at before it ran on Python floats
    assert traj.truncated and traj.n_steps == 7
    assert traj.cause == "an RK4 stage left the finite range"
    assert traj.halving_error is None


def _flow_hamiltonian(rng):
    """The flow benchmark's shape of Hamiltonian: degree-1 terms behind "0 +"."""

    def poly(terms):
        return ("0 + " + fuzz.random_poly_expr(rng, degree=1, terms=terms)).replace("+ -", "- ")

    return f"{poly(3)} + ({poly(2)})*({poly(2)})"


@pytest.mark.parametrize("model", sorted(md.BUILTIN_MODELS))
@pytest.mark.parametrize("kind", ["flow", "smooth"])
@pytest.mark.parametrize("seed", range(6))
def test_one_point_flow_equals_a_one_column_batch(model, kind, seed):
    # one point runs its RK4 stages on Python floats, a batch on arrays: the
    # same double operations in the same order give the same states
    rng = np.random.default_rng([seed, 22])
    triple = md.resolve(model).effective_triple()
    F = ExprField(_flow_hamiltonian(rng) if kind == "flow" else fuzz.random_smooth_expr(rng))
    p0 = rng.uniform(-0.5, 0.5, 5)
    traj = fl.integrate(triple, F, p0, 0.01, 12)
    assert not traj.truncated
    batch = fl.integrate_batch(triple, F, p0[:, None], 0.01, 12)
    assert traj.states.tobytes() == batch[:, 0].tobytes()
