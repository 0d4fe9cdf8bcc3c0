"""The tape evaluator of field groups against the jet path, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import calculus as ca
from acpoisson import fuzz
from acpoisson import model as md
from acpoisson import triple as tr
from acpoisson.calculus import CoordVector, FieldElement
from acpoisson.errors import DomainError, OrderBudgetExceeded
from acpoisson.fields import Call, ConstField, CoordField, ExprField
from acpoisson.jets import take_nudges
from acpoisson.lowering import evaluate

MODELS = sorted(md.BUILTIN_MODELS)
SHAPES = [(5,), (5, 1), (5, 64)]

seeds = st.integers(0, 2**32 - 1)
shapes = st.sampled_from(SHAPES)
orders = st.sampled_from([0, 1])


def _jet_bytes(jet):
    grad = None if jet.grad is None else (jet.grad.shape, jet.grad.tobytes())
    return jet.value.shape, jet.value.tobytes(), grad


def _outcome(fn):
    """Bytes of every jet, or the DomainError message."""
    try:
        jets = fn()
    except DomainError as err:
        return ("error", str(err))
    return ("ok", [_jet_bytes(j) for j in jets])


def assert_tape_matches_jets(fields, p, order):
    got = _outcome(lambda: evaluate(fields, p, order))
    assert got == _outcome(lambda: [f.at(p, order) for f in fields])
    return got


def _shared_group(rng):
    """Fields that share subgraphs through folding, plain BinOp and Call nodes, and partials."""
    F = ExprField(fuzz.random_smooth_expr(rng))
    G = ExprField(fuzz.random_smooth_expr(rng))
    H = F * G - ConstField(0.5)  # folds into one expression
    bare = Call("tanh", F.partial(2)) * G  # a plain BinOp over a Call of a partial
    return [F, G, H, F.partial(0), G.partial(3) * F, bare, bare / (2.5 + F * F), H.partial(4)]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, shape=shapes, order=orders)
def test_smooth_expression_groups_match_jets(seed, shape, order):
    rng = np.random.default_rng(seed)
    got = assert_tape_matches_jets(_shared_group(rng), rng.uniform(-1, 1, shape), order)
    assert got[0] == "ok"


def _coefficients(elements):
    return [f for e in elements for f in e.coeffs.values()]


@settings(max_examples=15, deadline=None)
@given(seed=seeds, shape=shapes, order=orders)
def test_d_component_chains_match_jets(seed, shape, order):
    # the coefficients of the cochain identities: partials of partials of the
    # connection, shared across the three residual elements
    rng = np.random.default_rng(seed)
    conn = fuzz.random_connection(rng)
    form = FieldElement.form({((1,), ()): ExprField(fuzz.random_poly_expr(rng))})
    d10 = ca.d_component(form, conn, (1, 0))
    d01 = ca.d_component(form, conn, (0, 1))
    d2m1 = ca.d_component(form, conn, (2, -1))
    chains = [
        ca.d_component(d10, conn, (1, 0)) + ca.d_component(d01, conn, (2, -1)) + ca.d_component(d2m1, conn, (0, 1)),
        ca.d_component(d01, conn, (1, 0)) + ca.d_component(d10, conn, (0, 1)),
        ca.d_component(d01, conn, (0, 1)),
    ]
    p = rng.uniform(-1, 1, shape)
    # one d spends one order of the budget, so only single steps have a gradient
    assert_tape_matches_jets(_coefficients([d10, d01, d2m1]), p, order)
    assert_tape_matches_jets(_coefficients(chains), p, 0)
    if any(f.budget == 0 for f in _coefficients(chains)):
        with pytest.raises(OrderBudgetExceeded):
            evaluate(_coefficients(chains), p, 1)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, source=st.sampled_from(MODELS + ["fuzz"]), shape=shapes, order=orders)
def test_pi_matrix_matches_jets(seed, source, shape, order):
    rng = np.random.default_rng(seed)
    if source == "fuzz":
        triple = fuzz.random_flat_casimir_triple(rng)
    else:
        triple = md.resolve(source).effective_triple()
    assert_tape_matches_jets(list(triple.pi_matrix().values()), rng.uniform(-1, 1, shape), order)


@pytest.mark.parametrize("shape", SHAPES)
def test_routed_sites_match_jets(shape, rng):
    triple = md.resolve("flat_pair_flatness").effective_triple()
    p = rng.uniform(-1, 1, shape)
    # FieldElement.at
    element = ca.d_component(triple.beta.as_form(), triple.conn, (1, 0))
    got = element.at(p)
    assert list(got.coeffs) == list(element.coeffs)
    for key, f in element.coeffs.items():
        assert got.coeffs[key].tobytes() == f.at(p, 0).value.tobytes()
    # matrix_values, and the component jets the bivector kernels read
    m = triple.pi_matrix()
    vals = ca.matrix_values(m, p)
    _, jets = ca._bivector_jets(m, p, 1)
    assert vals.shape == (5, 5) + shape[1:]
    for (mu, nu), f in m.items():
        jet = f.at(p, 1)
        assert vals[mu, nu].tobytes() == jet.value.tobytes()
        assert vals[nu, mu].tobytes() == (-jet.value).tobytes()
        assert jets[mu, nu].grad.tobytes() == jet.grad.tobytes()
    # CoordVector.jets
    X = tr.hamiltonian_field(triple, ExprField("y1*y2 + sin(x1)*y3"))
    vx, gx = X.jets(p)
    jets = [c.at(p, 1) for c in X.comps]
    assert vx.tobytes() == np.stack([j.value for j in jets]).tobytes()
    assert gx.tobytes() == np.stack([j.grad for j in jets]).tobytes()


@pytest.mark.parametrize(
    "source, y1, message",
    [
        ("1/(y1-0.3)", 0.3, "division by zero in '1.0 / (y1 - 0.3)'"),
        ("ln(y1)", -0.5, "ln of a non-positive value in 'ln(y1)'"),
    ],
)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("order", [0, 1])
def test_domain_errors_keep_their_subexpression(source, y1, message, shape, order):
    fields = [ExprField("y2*y3"), ExprField(source) * ExprField("x1 + 2"), ExprField("y1")]
    p = np.full(shape, 0.2)
    p[2] = y1
    with pytest.raises(DomainError) as caught:
        evaluate(fields, p, order)
    assert str(caught.value) == message
    assert_tape_matches_jets(fields, p, order)


@pytest.mark.parametrize("shape", SHAPES)
def test_cutoff_guard_band_gives_same_values_and_warning(shape):
    fields = [ExprField("cutoff(y1) + y2*y3"), ExprField("y1*cutoff(y3)"), Call("cutoff", CoordField(4))]
    p = np.broadcast_to(np.array([0.1, 0.2, 1 + 1e-12, -0.3, 1 - 1e-11]).reshape((5,) + (1,) * (len(shape) - 1)), shape)
    take_nudges()
    caught = {}
    for path, fn in (("tape", evaluate), ("jets", lambda fs, q, o: [f.at(q, o) for f in fs])):
        out = [_jet_bytes(j) for j in fn(fields, p, 1)]
        caught[path] = (out, take_nudges())
    assert caught["tape"][0] == caught["jets"][0]
    # per point: the tape runs cutoff(y1) and the shared cutoff(y3) once each; the
    # fields evaluated one by one run cutoff(y3) once for each of its two readers
    points = int(np.prod(shape[1:]))
    assert (caught["tape"][1], caught["jets"][1]) == (2 * points, 3 * points)


@pytest.mark.parametrize("shape", SHAPES)
def test_signed_zeros_of_hessian_slots(shape):
    # np.einsum forms each outer-product entry as 0.0 + a*b, so a -0.0 product
    # enters the Hessian as +0.0; every slot compared below is exactly zero
    product = ExprField("(-x1)*(y1 - y1)")
    chain = ExprField("cos(y1 - x1)")
    p = np.zeros(shape)
    p[0], p[2] = 0.25, 0.75
    slots = [product.partial(0).partial(0), chain.partial(0).partial(3)]
    assert_tape_matches_jets(slots, p, 0)
    assert [np.signbit(j.value).all() for j in evaluate(slots, p, 0)] == [False, True]
    # the same slots as gradients of first partials
    assert_tape_matches_jets([product.partial(0), chain.partial(0)], p, 1)


def test_outputs_own_their_arrays():
    # two equal fields and a bare coordinate: writing into one result must not
    # change another or the points
    p = np.array([[0.5, 1.5], [0.0, 1.0], [2.0, 3.0], [0.0, 0.0], [1.0, 1.0]])
    before = p.copy()
    jets = evaluate([ExprField("y1*x1"), ExprField("y1*x1"), CoordField(2), 0.0 + CoordField(2)], p, 0)
    for jet in jets:
        jet.value += 100.0
    assert np.array_equal(p, before)
    assert jets[0].value.tolist() == [101.0, 104.5] == jets[1].value.tolist()


def test_budgets_orders_and_unknown_kinds_follow_the_jets():
    p = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    twice = ExprField("x1^3*y1").partial(0).partial(2)
    with pytest.raises(OrderBudgetExceeded):
        evaluate([ExprField("y1"), twice], p, 1)
    assert_tape_matches_jets([twice, ExprField("x1")], p, 0)
    # order 2 is served by the jets
    hess = evaluate([ExprField("x1*y2^2")], p, 2)[0].hess
    assert hess.tobytes() == ExprField("x1*y2^2").at(p, 2).hess.tobytes()
    assert evaluate([], p, 1) == []
    assert FieldElement.form().at(p).coeffs == {}
