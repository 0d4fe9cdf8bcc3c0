"""The sample as the evaluation context of a command: subsets, held jets, route independence."""

import gc
import sys
from pathlib import Path

import numpy as np
import pytest

from acpoisson import calculus as ca
from acpoisson import cli
from acpoisson import connection as cn
from acpoisson import fields
from acpoisson import model as md
from acpoisson import strata as st
from acpoisson import triple as tr
from acpoisson.fields import Const, Num, Var
from acpoisson.lowering import evaluate

MODELS = sorted(md.BUILTIN_MODELS)
LEAVES = (Num, Const, Var)


def _inputs(triple):
    return [triple.kappa, *triple.beta.comps, *triple.conn.gamma[0], *triple.conn.gamma[1]]


def _nodes(roots):
    """Every node reachable from ``roots``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(
            getattr(node, name) for name in ("arg", "base", "left", "right", "parent") if hasattr(node, name)
        )
        yield node


def _ids(roots):
    """Identities of the nodes reachable from ``roots`` other than leaves (numbers, named constants, coordinates)."""
    return {id(n) for n in _nodes(roots) if not isinstance(n, LEAVES)}


def _model_sample(name, n=300):
    model = md.resolve(name)
    triple = model.effective_triple()
    sample = model.samples(n=n)
    return triple, sample.subset(triple.domain_mask(sample.points), "domain")


def _evaluated(monkeypatch, run):
    """The fields ``run`` evaluates through ``lowering.evaluate``, from any module."""
    seen = []

    def record(group, points, order=0):
        group = list(group)
        seen.extend(group)
        return evaluate(group, points, order)

    with monkeypatch.context() as patch:
        for module in (ca, cn, st, tr):
            patch.setattr(module, "evaluate", record)
        run()
    return seen


@pytest.mark.parametrize("name", MODELS)
def test_verdict_routes_meet_only_in_the_inputs(name, monkeypatch):
    triple, sample = _model_sample(name)
    inputs = _inputs(triple)
    pts = sample.points
    jacobiator_route = _evaluated(monkeypatch, lambda: tr.jacobiator_norm(triple, pts))
    integrability_route = _evaluated(monkeypatch, lambda: tr.ic_norm(triple, st.SampleSet(pts, "points")))
    assert {id(f) for f in integrability_route} == {id(f) for f in [*inputs, *cn.rho_components(triple.conn)]}
    assert _ids(jacobiator_route) & _ids(integrability_route) <= _ids(inputs)

    report = tr.equivalence_check(triple, sample)
    assert report.passed
    held = {id(f) for f in sample._jets}
    domain = [] if triple.domain is None else [triple.domain]  # the domain cut reads through the sample too
    assert {id(f) for f in [*inputs, *domain]} <= held <= {id(f) for f in [*integrability_route, *domain]}


def test_subset_keeps_the_sample_when_nothing_is_dropped():
    sample = st.sample_box([(-1, 1)] * 5, n=20)
    assert sample.subset(np.ones(20, dtype=bool), "domain") is sample
    assert sample.subset(slice(200), "first 200 points") is sample
    keep = np.arange(20) % 3 == 0
    child = sample.subset(keep, "coupling")
    assert child is not sample
    assert child.parent is sample and child.reason == "coupling"
    assert (child.generator, child.seed, child.box) == (sample.generator, sample.seed, sample.box)
    np.testing.assert_array_equal(child.points, sample.points[:, keep])
    assert sample.subset(slice(5), "first 5 points").points.shape == (5, 5)


def _jet_bytes(jet, order):
    value = jet.value.shape, jet.value.tobytes()
    return value if order == 0 else (value, jet.grad.shape, jet.grad.tobytes())


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 7), (5, 10**4)])
def test_sample_reads_are_bit_identical_to_field_at(name, shape):
    triple = md.resolve(name).effective_triple()
    points = np.random.default_rng(len(shape) + shape[-1]).uniform(-1, 1, shape)
    fields_ = [*_inputs(triple), *cn.rho_components(triple.conn)]
    sample = st.SampleSet(points, "points")
    for order in (0, 1):
        got = sample.jets(fields_, order)
        assert [_jet_bytes(j, order) for j in got] == [_jet_bytes(f.at(points, order), order) for f in fields_]
    # the held 1-jets serve a later read at order 0
    assert all(a is b for a, b in zip(sample.jets(fields_, 0), got))
    kappa = triple.kappa.at(points, 0).value
    assert triple.kappa_values(sample).tobytes() == kappa.tobytes()
    beta = np.stack([c.at(points, 0).value for c in triple.beta.comps])
    assert triple.beta.values(sample).tobytes() == beta.tobytes()


def test_held_jets_are_read_only():
    sample = st.sample_box([(-1, 1)] * 5, n=10)
    (jet,) = sample.jets([fields.ExprField("x1*y2 + 1")], 1)
    with pytest.raises(ValueError):
        jet.value[0] = 0.0
    with pytest.raises(ValueError):
        jet.grad[0, 0] = 0.0


def test_a_check_leaves_no_node_alive(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gc.collect()
    before = len(fields._NODES)
    assert cli.main(["check", "flat_pair_flatness", "--samples", "50"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(fields._NODES) == before


@pytest.mark.parametrize("name", MODELS)
def test_check_reads_no_field_at_from_the_verdict_modules(name, tmp_path, capsys, monkeypatch):
    """In ``check``, the triple's inputs go through the sample and derived fields through the tape."""
    callers = []
    at = fields.Field.at

    def spy(self, p, order=2):
        callers.append(Path(sys._getframe(1).f_code.co_filename).name)
        return at(self, p, order)

    monkeypatch.setattr(fields.Field, "at", spy)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check", name, "--samples", "50"]) == 0
    capsys.readouterr()
    assert not {"cli.py", "triple.py", "connection.py"} & set(callers)


def _dense_schouten(A, B, p):
    """The Schouten bracket from full (5, 5, 5, ...) gradient arrays."""
    va, ga = ca.matrix_values(A, p)
    vb, gb = ca.matrix_values(B, p)
    out = {}
    for (m, n, l) in ca.TRIPLES:
        total = 0.0
        for (i, j, k) in ((m, n, l), (n, l, m), (l, m, n)):
            total = total + np.einsum("r...,r...->...", va[i], gb[j, k])
            total = total + np.einsum("r...,r...->...", vb[i], ga[j, k])
        out[(m, n, l)] = total
    return out


def _dense_lie(X, P, p):
    vx, gx = X.jets(p)
    vp, gp = ca.matrix_values(P, p)
    out = {}
    for mu in range(5):
        for nu in range(mu + 1, 5):
            term = np.einsum("r...,r...->...", vx, gp[mu, nu])
            term = term - np.einsum("r...,r...->...", vp[:, nu], gx[mu])
            term = term - np.einsum("r...,r...->...", vp[mu], gx[nu])
            out[(mu, nu)] = term
    return out


def _bytes(comps):
    return {k: (np.shape(v), np.asarray(v).tobytes()) for k, v in comps.items()}


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("shape", [(5,), (5, 7)])
def test_bivector_kernels_match_the_dense_arrays(name, shape):
    triple = md.resolve(name).effective_triple()
    p = np.random.default_rng(shape[-1]).uniform(-1, 1, shape)
    pi, pb = triple.pi_matrix(), triple.p_beta_matrix()
    assert _bytes(ca.schouten_bivectors(pi, pi, p)) == _bytes(_dense_schouten(pi, pi, p))
    assert _bytes(ca.schouten_bivectors(pi, pb, p)) == _bytes(_dense_schouten(pi, pb, p))
    X = cn.horizontal_lift(1, triple.conn)
    assert _bytes(ca.lie_derivative_bivector(X, pb, p)) == _bytes(_dense_lie(X, pb, p))
    assert _bytes(ca.lie_derivative_bivector(X, pi, p)) == _bytes(_dense_lie(X, pi, p))


def _field_at_calls(monkeypatch):
    """The fields ``Field.at`` is called on from here on."""
    calls = []
    at = fields.Field.at

    def spy(self, p, order=2):
        calls.append(self)
        return at(self, p, order)

    monkeypatch.setattr(fields.Field, "at", spy)
    return calls


FLOW = ["--hamiltonian", "y1*y2 + 0.3*x1 + y3^2", "--p0", "0.1,-0.2,0.4,0.2,-0.3", "--dt", "0.01", "--steps", "20"]
DIAGNOSTICS = ["--casimir", "y1^2 + y2^2 + y3^2", "--casimir", "y1 + x2", "--volume-factor", "1 + 0.1*y1^2"]


@pytest.mark.parametrize(
    "argv, code",
    [
        *((["flow", name, *FLOW, *DIAGNOSTICS, "--csv", "f.csv", "--out", "r.json"], 1) for name in MODELS),
        (["flow", "flat_so3", "--hamiltonian", "1/(y1-0.3)", "--p0", "0,0,0.3,0,0", "--dt", "0.01", "--steps", "5"], 3),
        (["gauge", "br3_unimodular", "--sweep", "0,0.05", "--outdir", "g"], 0),
        (["strata", "sec5_example", "--grid", "4", "--out", "s.csv"], 0),
        (["selftest"], 0),
    ],
    ids=[*(f"flow-{name}" for name in MODELS), "flow-exits-3", "gauge-sweep", "strata", "selftest"],
)
def test_commands_call_no_field_at(argv, code, tmp_path, capsys, monkeypatch):
    """``Field.at`` is the oracle: no command evaluates through it."""
    calls = _field_at_calls(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    capsys.readouterr()
    assert calls == []


def test_batch_flow_calls_no_field_at(monkeypatch):
    from acpoisson import flow as fl

    triple = md.resolve("sec5_example").effective_triple()
    p0s = np.random.default_rng(3).uniform(-0.5, 0.5, (5, 4))
    calls = _field_at_calls(monkeypatch)
    states = fl.integrate_batch(triple, fields.ExprField("x1 + y2*y3"), p0s, 1e-2, 10)
    assert states.shape == (5, 4, 11) and calls == []

