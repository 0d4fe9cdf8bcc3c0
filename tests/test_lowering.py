"""The compiled ``CoordVector.values`` against the jet path, byte for byte."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import fuzz
from acpoisson import model as md
from acpoisson import modular as mo
from acpoisson import triple as tr
from acpoisson.calculus import CoordVector
from acpoisson.errors import DomainError
from acpoisson.fields import ConstField, ExprField, Field
from acpoisson.lowering import lower

MODELS = sorted(md.BUILTIN_MODELS)
SOURCES = MODELS + ["fuzz"]
SHAPES = [(5,), (5, 64)]


def _outcome(fn):
    """Result bytes and shape, or the DomainError message."""
    try:
        out = fn()
    except DomainError as err:
        return ("error", str(err))
    return ("ok", out.shape, out.tobytes())


def _jet_values(X, p):
    return np.stack([c.at(p, order=0).value for c in X.comps])


def assert_compiled_matches_jets(X, p):
    got = _outcome(lambda: X.values(p))
    assert X._lowered, "the vector field was not lowered"
    assert got == _outcome(lambda: _jet_values(X, p))


def _triple(source, rng):
    if source == "fuzz":
        return fuzz.random_flat_casimir_triple(rng)
    return md.resolve(source).effective_triple()


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, source=st.sampled_from(SOURCES), shape=st.sampled_from(SHAPES))
def test_hamiltonian_field_matches_jets(seed, source, shape):
    rng = np.random.default_rng(seed)
    triple = _triple(source, rng)
    F = ExprField(fuzz.random_smooth_expr(rng))
    assert_compiled_matches_jets(tr.hamiltonian_field(triple, F), rng.uniform(-1, 1, shape))


@settings(max_examples=20, deadline=None)
@given(seed=seeds, source=st.sampled_from(SOURCES), shape=st.sampled_from(SHAPES))
def test_modular_fields_match_jets(seed, source, shape):
    # partials of partials (Hessian slots) and divisions by a volume factor
    rng = np.random.default_rng(seed)
    triple = _triple(source, rng)
    p = rng.uniform(-1, 1, shape)
    assert_compiled_matches_jets(mo.modular_direct_fields(triple), p)
    a = ExprField("2 + sin(x1)")
    assert_compiled_matches_jets(mo.modular_direct_fields(triple, a), p)


@pytest.mark.parametrize(
    "hamiltonian, y1, message",
    [
        ("1/(y1-0.3)", 0.3, "division by zero in '1.0 / (y1 - 0.3)'"),
        ("ln(y1)", -0.5, "ln of a non-positive value in 'ln(y1)'"),
    ],
)
@pytest.mark.parametrize("shape", SHAPES)
def test_domain_errors_keep_their_subexpression(hamiltonian, y1, message, shape, so3):
    X = tr.hamiltonian_field(so3, ExprField(hamiltonian))
    p = np.full(shape, 0.2)
    p[2] = y1
    with pytest.raises(DomainError) as caught:
        X.values(p)
    assert X._lowered
    assert str(caught.value) == message
    assert_compiled_matches_jets(X, p)


def test_cutoff_guard_band_gives_same_values_and_warning(so3):
    X = tr.hamiltonian_field(so3, ExprField("cutoff(y1) + y2*y3 + y1*cutoff(y3)"))
    p = np.array([0.1, 0.2, 1 + 1e-12, -0.3, 1 - 1e-11])
    caught = {}
    for path, fn in (("compiled", X.values), ("jets", lambda q: _jet_values(X, q))):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            caught[path] = (fn(p).tobytes(), {(w.category, str(w.message)) for w in record})
    assert X._lowered
    assert caught["compiled"] == caught["jets"]
    assert any("branch point" in message for _, message in caught["jets"][1])


def test_pinned_power_point(so3):
    # with AVX-512 numpy, np.float64(v)**3 differs from np.asarray(v)**3 in the
    # last bit here; the jet path powers 0-d arrays, so the compiled path must too
    v = 1.740289695151073
    X = tr.hamiltonian_field(so3, ExprField("y1^3*y2 + y3^3 - y2*y1^3/y3^2"))
    assert_compiled_matches_jets(X, np.array([0.0, 0.0, v, -0.7, v]))


def test_non_expression_nodes_match_jets(rng):
    # BinField, FuncField and PartialField chains, shared between components
    F = ExprField(fuzz.random_smooth_expr(rng))
    g = F.partial(2) * F.partial(3).partial(4) - ConstField(-0.0)
    X = CoordVector([g, g / (F.partial(0) + 3.0), F.partial(1).partial(1), ConstField(2.5), F])
    for shape in SHAPES + [(5, 3, 4)]:
        assert_compiled_matches_jets(X, rng.uniform(-1, 1, shape))


def test_signed_zeros_of_hessian_slots():
    # np.einsum forms each outer-product entry as 0.0 + a*b, so a -0.0 product
    # enters the Hessian as +0.0; both entries below are exactly zero
    product = ExprField("(-x1)*(y1 - y1)").partial(0).partial(0)
    chain = ExprField("cos(y1 - x1)").partial(0).partial(3)
    X = CoordVector([product, chain, product * chain, 0.0, 0.0])
    p = np.array([0.25, 0.0, 0.75, 0.0, 0.0])
    assert_compiled_matches_jets(X, p)
    assert np.signbit(X.values(p)[:2]).tolist() == [False, True]


def test_unknown_field_kinds_stay_on_the_jet_path():
    class Doubled(Field):
        def __init__(self, f):
            self.f = f

        def eval_jet(self, points, order):
            return self.f.eval_jet(points, order) * 2.0

    comps = [ExprField("y1"), Doubled(ExprField("x1*y2")), 0.0, 0.0, ExprField("y3")]
    assert lower(CoordVector(comps).comps) is None
    X = CoordVector(comps)
    np.testing.assert_array_equal(X.values([0.5, 0.0, 1.0, 3.0, 0.0]), [1.0, 3.0, 0.0, 0.0, 0.0])
    assert X._lowered is False


def test_compiled_path_validates_points(so3):
    X = tr.hamiltonian_field(so3, ExprField("y1*y2"))
    with pytest.raises(ValueError, match="finite"):
        X.values([0, 0, np.nan, 0, 0])
    with pytest.raises(ValueError, match="leading dimension"):
        X.values(np.zeros((4, 3)))


def test_a_vector_field_is_lowered_once(so3):
    X = tr.hamiltonian_field(so3, ExprField("y1*y2 + 0.3*y3^2"))
    X.values([0, 0, 0.1, 0.2, 0.3])
    compiled = X._lowered
    X.values(np.zeros((5, 7)))
    assert X._lowered is compiled
