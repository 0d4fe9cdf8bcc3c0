"""The compiled ``CoordVector.values`` against the jet path, byte for byte."""

import ast
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import cli
from acpoisson import fuzz
from acpoisson import lowering
from acpoisson import model as md
from acpoisson import modular as mo
from acpoisson import triple as tr
from acpoisson.calculus import CoordVector
from acpoisson.errors import DomainError
from acpoisson.fields import BinOp, ConstField, ExprField, Num, Var
from acpoisson.jets import BUILTIN_RULES, powi_rule, take_nudges

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


def _group_values(X, p):
    return np.stack([jet.value for jet in lowering.evaluate(X.comps, p)])


def assert_compiled_matches_jets(X, p):
    got = _outcome(lambda: X.values(p))
    assert X._lowered, "the vector field was not lowered"
    assert got == _outcome(lambda: _jet_values(X, p))


def _triple(source, rng):
    if source == "fuzz":
        return fuzz.random_flat_casimir_triple(rng)
    return md.resolve(source).effective_triple()


def flow_hamiltonian(rng):
    """The shape of Hamiltonian the RK4 flow benchmark integrates: degree-1 terms behind "0 +"."""

    def poly(terms):
        return ("0 + " + fuzz.random_poly_expr(rng, degree=1, terms=terms)).replace("+ -", "- ")

    return f"{poly(3)} + ({poly(2)})*({poly(2)})"


# Hamiltonians whose compiled lines multiply by signed zeros, overflow or square
FOLDED_HAMILTONIANS = [
    "0*y1 - 0*y2 + y3*0", "-0.0*y1 + y2*(-0.0)", "1e308*y1*y2*1e308",
    "(1e200*y1)^2 - y2^2*y3", "(-0.0*y1)^2 + (0*y2)^2", "y1^2/2 + y2^2/3 + y3^2/4",
]
# signed zeros and exact values, where a wrong fold flips a sign
EXACT_COORDINATES = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])

seeds = st.integers(0, 2**32 - 1)
hamiltonians = st.sampled_from(["smooth", "flow", *FOLDED_HAMILTONIANS])
coordinates = st.sampled_from(["uniform", "exact"])


def _hamiltonian(kind, rng):
    if kind == "smooth":
        return fuzz.random_smooth_expr(rng)
    return flow_hamiltonian(rng) if kind == "flow" else kind


def _points(kind, rng, shape):
    return rng.uniform(-1, 1, shape) if kind == "uniform" else rng.choice(EXACT_COORDINATES, shape)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds, source=st.sampled_from(SOURCES), shape=st.sampled_from(SHAPES),
    hamiltonian=hamiltonians, coords=coordinates,
)
def test_hamiltonian_field_matches_jets(seed, source, shape, hamiltonian, coords):
    rng = np.random.default_rng(seed)
    triple = _triple(source, rng)
    F = ExprField(_hamiltonian(hamiltonian, rng))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_compiled_matches_jets(tr.hamiltonian_field(triple, F), _points(coords, rng, shape))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, source=st.sampled_from(SOURCES), shape=st.sampled_from(SHAPES), coords=coordinates)
def test_modular_fields_match_jets(seed, source, shape, coords):
    # partials of partials (Hessian slots) and divisions by a volume factor
    rng = np.random.default_rng(seed)
    triple = _triple(source, rng)
    p = _points(coords, rng, shape)
    assert_compiled_matches_jets(mo.modular_direct_fields(triple), p)
    a = ExprField("2 + sin(x1)")
    assert_compiled_matches_jets(mo.modular_direct_fields(triple, a), p)


@pytest.mark.parametrize(
    "hamiltonian, y1, message",
    [
        ("1/(y1-0.3)", 0.3, "division by zero in '1.0 / (y1 - 0.3)'"),
        ("ln(y1)", -0.5, "ln of a non-positive value in 'ln(y1)'"),
        # a rule line whose result no line reads still runs
        ("y1*y2 + ln(y1)^0", -0.5, "ln of a non-positive value in 'ln(y1)'"),
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
    take_nudges()
    caught = {}
    for path, fn in (("compiled", X.values), ("jets", partial(_jet_values, X)), ("group jets", partial(_group_values, X))):
        caught[path] = (fn(p).tobytes(), take_nudges())
    assert X._lowered
    assert caught["compiled"][0] == caught["jets"][0] == caught["group jets"][0]
    # one nudge for each of the two cutoff calls, as the group jet walk gives them;
    # the components walked one by one nudge again in each component that reads a call
    assert caught["compiled"][1] == caught["group jets"][1] == 2
    assert caught["jets"][1] > 2


def test_unread_cutoff_still_warns(so3):
    # cutoff(y3)^0 reads no result of its rule line, which must still nudge and count
    X = tr.hamiltonian_field(so3, ExprField("y1*y2 + cutoff(y3)^0"))
    p = np.array([0.1, 0.2, 0.3, -0.3, 1.0])
    take_nudges()
    caught = {}
    for path, fn in (("compiled", X.values), ("group jets", partial(_group_values, X))):
        caught[path] = (fn(p).tobytes(), take_nudges())
    assert X._lowered
    # one nudge, as the group jet walk gives it
    assert caught["compiled"] == caught["group jets"]
    assert caught["compiled"][1] == 1
    assert_compiled_matches_jets(X, p)


def test_pinned_power_point(so3):
    # with AVX-512 numpy, np.float64(v)**3 differs from np.asarray(v)**3 in the
    # last bit here; the jet path powers 0-d arrays, so the compiled path must too
    v = 1.740289695151073
    X = tr.hamiltonian_field(so3, ExprField("y1^3*y2 + y3^3 - y2*y1^3/y3^2"))
    assert_compiled_matches_jets(X, np.array([0.0, 0.0, v, -0.7, v]))


def test_non_expression_nodes_match_jets(rng):
    # BinOp and PartialField chains below the expressions, shared between components
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


# folding ---------------------------------------------------------------------------

Z, COORD = lowering._Z, lowering._COORD
_mul, _add, _neg = lowering._mul, lowering._add, lowering._neg

# (rule, abstract value, what the lowering makes of it, the IEEE arithmetic it
# stands for at a zero z and a finite coordinate p): a float is the one double
# the line gives at every finite point; Z a zero whose sign the point decides,
# so the line stays; None an unknown value, so the line stays
FOLD_RULES = [
    ("2.5 * -3.0", _mul(2.5, -3.0), -7.5, lambda z, p: 2.5 * -3.0),
    ("0.5 - 0.25", _add(0.5, _neg(0.25)), 0.25, lambda z, p: 0.5 - 0.25),
    ("-0.0 * 2.0", _mul(-0.0, 2.0), -0.0, lambda z, p: -0.0 * 2.0),
    ("0 * p", _mul(0.0, COORD), Z, lambda z, p: 0.0 * p),
    ("p * -0.0", _mul(COORD, -0.0), Z, lambda z, p: p * -0.0),
    ("Z * 3.0", _mul(Z, 3.0), Z, lambda z, p: z * 3.0),
    ("Z * Z", _mul(Z, Z), Z, lambda z, p: z * z),
    ("0*p + 1.5", _add(_mul(0.0, COORD), 1.5), 1.5, lambda z, p: 0.0 * p + 1.5),
    ("1.5 - 0*p", _add(1.5, _neg(_mul(0.0, COORD))), 1.5, lambda z, p: 1.5 - 0.0 * p),
    ("0*p + 0.0", _add(_mul(0.0, COORD), 0.0), 0.0, lambda z, p: 0.0 * p + 0.0),
    ("0*p - (-0.0)", _add(_mul(0.0, COORD), _neg(-0.0)), 0.0, lambda z, p: 0.0 * p - -0.0),
    ("0*p + (-0.0)", _add(_mul(0.0, COORD), -0.0), Z, lambda z, p: 0.0 * p + -0.0),
    ("Z + Z", _add(Z, Z), Z, lambda z, p: z + 0.0 * p),
    ("-Z", _neg(Z), Z, lambda z, p: -z),
    ("0 * intermediate", _mul(0.0, None), None, None),
    ("Z + p", _add(Z, COORD), None, None),
    ("p + 0.0", _add(COORD, 0.0), None, None),
    ("2.0 * p", _mul(2.0, COORD), None, None),
    ("1e308 * 1e308", _mul(1e308, 1e308), None, None),
    ("-p", _neg(COORD), None, None),
]


@pytest.mark.parametrize("rule, got, expected, arithmetic", FOLD_RULES, ids=[row[0] for row in FOLD_RULES])
def test_fold_rules(rule, got, expected, arithmetic):
    if type(expected) is float:
        assert type(got) is float and got.hex() == expected.hex()
    else:
        assert got is expected
    # a folded row holds in IEEE arithmetic for both signs of zero and a
    # spread of finite coordinates
    if arithmetic is not None:
        for p in (0.0, -0.0, 1e-300, -2.5, 1e300, -1.7976931348623157e308):
            for z in (0.0, -0.0):
                value = arithmetic(z, p)
                if expected is Z:
                    assert value == 0.0
                else:
                    assert value.hex() == expected.hex()


def _partial(left, right, k):
    """Slot k of the unfolded product left*right, which the lowering writes as a product-rule line."""
    return BinOp("*", left, right).partial(k)


# (graph, point): each line a wrong fold would change
FOLD_CASES = [
    # 0*y1 + (-0.0): the sign of y1 decides
    ("0*p + (-0.0)", _partial(Num(-0.0), Var(2), 2), [0.0, 0.0, 0.5, 0.0, 0.0], False),
    ("0*p + (-0.0)", _partial(Num(-0.0), Var(2), 2), [0.0, 0.0, -0.5, 0.0, 0.0], True),
    # 0*y2 + 0*y1, a zero whose sign the point decides
    ("Z + Z", ExprField("y1*y2").partial(0), [0.0, 0.0, -0.5, -0.5, 0.0], True),
    ("Z + Z", ExprField("y1*y2").partial(0), [0.0, 0.0, 0.5, -0.5, 0.0], False),
    # 0*y3 + 0*(y1 + y2), where y1 + y2 overflows to inf and 0*inf is NaN
    ("0 * intermediate", _partial(ExprField("y1 + y2"), Var(4), 0), [0.0, 0.0, 1e308, 1e308, 1.0], None),
]


@pytest.mark.parametrize("rule, field, p, negative", FOLD_CASES, ids=[case[0] for case in FOLD_CASES])
def test_fold_cases_match_jets(rule, field, p, negative):
    X = CoordVector([field, 0.0, 0.0, 0.0, 0.0])
    p = np.array(p)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_compiled_matches_jets(X, p)
        assert_compiled_matches_jets(X, p[:, None])
        value = X.values(p)[0]
    if negative is None:
        assert np.isnan(value)
    else:
        assert value == 0.0 and bool(np.signbit(value)) is negative


def _line_count(X):
    lines, outputs, consts = lowering._emit(X.comps)
    text = lowering._source(lines, outputs, len(consts))
    return sum(1 for line in text.splitlines()[1:] if not line.lstrip().startswith("return"))


@pytest.mark.parametrize("model, most", [("flat_so3", 41), ("br3_unimodular", 59)])
@pytest.mark.parametrize("seed", [1, 7, 14, 21])
def test_flow_graph_line_count(model, most, seed):
    # the unfolded graphs took 80 and 98 lines; folding leaves 36-41 and 53-59
    rng = np.random.default_rng([seed, 1])
    X = tr.hamiltonian_field(md.resolve(model).effective_triple(), ExprField(flow_hamiltonian(rng)))
    assert _line_count(X) <= most


def test_each_vector_field_compiles_its_own_function(so3):
    # nothing is cached across vector fields: the same triple and F compile twice
    F = ExprField("y1*y2 + 0.3*y3^2")
    fields = [tr.hamiltonian_field(so3, F) for _ in range(2)]
    for X in fields:
        X.values([0.0, 0.0, 0.1, 0.2, 0.3])
    first, second = (X._lowered.args[0] for X in fields)
    assert first is not second and first.__code__ is not second.__code__


@pytest.mark.parametrize("name", sorted(BUILTIN_RULES))
def test_one_point_and_one_point_batch_agree_to_order_one(name, rng):
    # a point of shape (5,) and the same point as a sample of shape (5, 1)
    # give the same values and gradients; order-2 cutoff Hessians may differ
    # in the last bit (see jets._cutoff)
    arg = "1.5 + y1" if name in ("ln", "sqrt") else "y1"
    F = ExprField(f"{name}({arg})*y2 + y3")
    for p in rng.uniform(-1, 1, (200, 5)):
        point, batch = F.at(p, 1), F.at(p[:, None], 1)
        assert point.value.tobytes() == batch.value[..., 0].tobytes()
        assert point.grad.tobytes() == batch.grad[..., 0].tobytes()


# squares and written-in-place lines -------------------------------------------------

# doubles where a square's rounding, overflow, underflow or sign is at an edge
SQUARE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1.3407807929942596e154,
                -1.3407807929942596e154, 1e200, -1e200, np.inf, -np.inf, np.nan]


def _square_inputs():
    rng = np.random.default_rng(20261019)
    # random bit patterns cover subnormals, NaN payloads and every exponent
    bits = rng.integers(0, 2**63, 400, dtype=np.uint64) | rng.choice(np.array([0, 2**63], dtype=np.uint64), 400)
    return np.concatenate([SQUARE_EDGES, bits.view(np.float64), rng.uniform(-2.0, 2.0, 100)])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kind", ["numpy scalar", "0-d array", "1-d array"])
def test_a_square_is_a_product_byte_for_byte(kind, order):
    # the lowering writes x^2 as the pure lines x*x, 2.0*x and 2.0, which is
    # exact because numpy computes v**2 as v*v on every kind of input
    values = _square_inputs()
    inputs = {"numpy scalar": list(map(np.float64, values)), "0-d array": list(map(np.asarray, values)),
              "1-d array": [values]}[kind]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for v in inputs:
            got = powi_rule(v, 2, order)
            want = (v * v, 2.0 * v, np.full(np.shape(v), 2.0))
            for k in range(3):
                if k > order:
                    assert got[k] is None
                else:
                    assert np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes(), (kind, order, k, v)
            if np.ndim(v) == 0:
                # the one-point path squares the Python float
                assert np.float64(float(v) * float(v)).tobytes() == np.asarray(got[0]).tobytes()


# each operator's operands grouped on the right: written in place, a line keeps
# its parentheses where Python would group it otherwise
GROUPED_HAMILTONIANS = [
    "y1*(y2*(y3*x1)) - y2*(y3 - (y1 - x2)) + (y1 - y2)*(y3 + x1)",
    "-(y1*y2)*y3 + y1 - (y2 + y3)*-(x1*y2) + y2*y3*(x2 - y1*y3)",
]


@pytest.mark.parametrize("hamiltonian", GROUPED_HAMILTONIANS)
@pytest.mark.parametrize("source", SOURCES)
def test_lines_written_in_place_keep_their_grouping(hamiltonian, source):
    rng = np.random.default_rng(17)
    X = tr.hamiltonian_field(_triple(source, rng), ExprField(hamiltonian))
    for shape in SHAPES:
        assert_compiled_matches_jets(X, rng.uniform(-1, 1, shape))


def _compiled_statements(X):
    lines, outputs, consts = lowering._emit(X.comps)
    function = ast.parse(lowering._source(lines, outputs, len(consts))).body[0]
    return len(lines), len(function.body) - 1  # the return is not counted


@pytest.mark.parametrize("model, lines, statements", [("flat_so3", 49, 8), ("br3_unimodular", 67, 11)])
@pytest.mark.parametrize("seed", [1, 7, 14, 21])
def test_flow_graph_compiled_size(model, lines, statements, seed):
    # squares are pure lines and a line read once is written where it is read:
    # 36-41 and 53-59 lines compile to 6-8 and 8-11 statements over seeds 1-40
    rng = np.random.default_rng([seed, 1])
    X = tr.hamiltonian_field(md.resolve(model).effective_triple(), ExprField(flow_hamiltonian(rng)))
    emitted, written = _compiled_statements(X)
    assert emitted <= lines and written <= statements


LONG_HAMILTONIANS = {
    # 300 terms: sum and derivative chains far longer than 200 lines
    "sum": " + ".join(f"{k % 7 + 1}/64*y{k % 3 + 1}*y{(k + 1) % 3 + 1}*x{k % 2 + 1}" for k in range(300)),
    # 120 products of sums, each inside the next: written in place without a
    # bound, the derivative lines nest 474 parentheses deep
    "nested": "".join(f"y{k % 3 + 1}*(0.5 + " for k in range(120)) + "x1" + ")" * 120,
}


@pytest.mark.parametrize("shape", sorted(LONG_HAMILTONIANS))
def test_a_long_hamiltonian_lowers_below_the_nesting_limit(shape, tmp_path, monkeypatch):
    # CPython's parser allows 200 nested parentheses; a line written in place
    # is bounded, so the lowering compiles and matches the jets
    H = LONG_HAMILTONIANS[shape]
    X = tr.hamiltonian_field(md.resolve("flat_so3").effective_triple(), ExprField(H))
    rng = np.random.default_rng(300)
    for points in SHAPES:
        assert_compiled_matches_jets(X, rng.uniform(-1, 1, points))
    monkeypatch.chdir(tmp_path)
    argv = ["flow", "flat_so3", f"--hamiltonian={H}", "--p0", "0.1,0.2,0.3,0.4,0.5", "--dt", "0.001", "--steps", "5"]
    assert cli.main(argv) == 0
