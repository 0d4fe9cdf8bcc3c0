"""The value rules at each order, and the compiled one-point path against the jets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import model as md
from acpoisson import triple as tr
from acpoisson.calculus import CoordVector
from acpoisson.errors import DomainError
from acpoisson.fields import ExprField
from acpoisson.jets import BUILTIN_RULES, CUTOFF_GUARD, CUTOFF_NUDGE, powi_rule, reciprocal_rule, take_nudges

RULES = {
    **BUILTIN_RULES,
    "reciprocal": reciprocal_rule,
    **{f"powi{n}": (lambda v, order, n=n: powi_rule(v, n, order)) for n in (-3, -2, -1, 2, 3, 5)},
}

values = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(1.0, 60.0),  # the cutoff's zero branch, t >= 1
    st.floats(1.0 - 2 * CUTOFF_GUARD, 1.0 + 2 * CUTOFF_GUARD),  # its guard band
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + CUTOFF_GUARD / 2, 1.0 - CUTOFF_GUARD / 2]),
)
SHAPES = {"0-d": (), "(1,)": (1,), "(64,)": (64,)}


def _run(rule, v, order):
    """The rule's results as bytes (None above ``order``) or its DomainError, with the nudged point count."""
    take_nudges()
    with np.errstate(all="ignore"):
        try:
            out = rule(v, order)
        except DomainError as err:
            out = ("error", str(err))
        else:
            out = tuple(None if r is None else (np.shape(r), np.asarray(r).tobytes()) for r in out)
    return out, take_nudges()


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(RULES)), shape=st.sampled_from(sorted(SHAPES)), data=st.lists(values, min_size=64, max_size=64))
def test_each_order_gives_the_order_two_results_it_keeps(name, shape, data):
    rule = RULES[name]
    v = np.asarray(data[: int(np.prod(SHAPES[shape]))], dtype=float).reshape(SHAPES[shape])
    full, full_nudges = _run(rule, v, 2)
    for order in (0, 1):
        out, nudges = _run(rule, v, order)
        assert nudges == full_nudges
        if full[0] == "error":
            assert out == full
        else:
            assert out[: order + 1] == full[: order + 1]
            assert out[order + 1 :] == (None,) * (2 - order)


def _cutoff_reference(v):
    """The cutoff's three results as the batch branch computes them, on any shape, and its nudge count."""
    t = np.array(v, dtype=float)
    near = np.abs(t - 1.0) <= CUTOFF_GUARD
    below = t < 1.0
    t = np.where(near & below, 1.0 - CUTOFF_NUDGE, t)
    t = np.where(near & ~below, 1.0 + CUTOFF_NUDGE, t)
    inside = t < 1.0
    ts = np.where(inside, t, 0.0)
    u = 1.0 - ts
    f = np.exp(-ts / u)
    d1 = f * (-1.0 / (u * u))
    d2 = f * (1.0 / u**4 - 2.0 / u**3)
    return tuple(((), np.where(inside, r, 0.0).tobytes()) for r in (f, d1, d2)), int(near.sum())


@settings(max_examples=300, deadline=None)
@given(x=values, scalar=st.booleans())
def test_the_one_value_cutoff_gives_the_batch_branch_bits(x, scalar):
    # one value runs on Python floats up to the numpy exp and powers
    v = np.float64(x) if scalar else np.asarray(x)
    assert _run(BUILTIN_RULES["cutoff"], v, 2) == _cutoff_reference(v)


def _jet_values(X, p):
    return np.stack([c.at(p, order=0).value for c in X.comps])


def _outcome(fn):
    try:
        out = fn()
    except DomainError as err:
        return ("error", str(err))
    return ("ok", out.shape, out.dtype, out.tobytes())


# every builtin and a division, at one point
HAMILTONIANS = [
    "sin(y1)*cos(x2) + tan(y3/4)/(2 + x1) + exp(x2)*ln(2 + y1) - sqrt(3 + y2)*tanh(y3)",
    "cutoff(y1^2 + y2^2)*y3 + x1*y2/(1 + y1^2) + (y2 - 0.5)^3/7",
    "y1^2/2 + y2^2/3 + y3^2/4 + 0.1*x1*y1",
]
POINTS = [
    [0.1, 0.2, 0.3, 0.4, 0.5],
    [0.0, -0.0, 0.0, 0.5, -0.0],
    [-0.7, 0.3, 1.1, -0.6, 0.9],
]


@pytest.mark.parametrize("model", sorted(md.BUILTIN_MODELS))
@pytest.mark.parametrize("hamiltonian", HAMILTONIANS)
def test_one_point_values_match_the_jets(model, hamiltonian):
    X = tr.hamiltonian_field(md.resolve(model).effective_triple(), ExprField(hamiltonian))
    for p in POINTS:
        p = np.array(p)
        assert _outcome(lambda: X.values(p)) == _outcome(lambda: _jet_values(X, p))
    assert X._lowered


def test_one_point_signed_zeros_match_the_jets():
    comps = [
        ExprField("-(x1*y1)"),
        ExprField("x1*y1 - x1*y1"),
        ExprField("sin(x1)*(0 - y2)"),
        ExprField("(y1 - 1)/(1 + y1)").partial(2),
        ExprField("cos(y1 - x1)").partial(0).partial(3),
    ]
    X = CoordVector(comps)
    p = np.array([0.0, -0.0, 0.5, 0.25, 0.0])
    got = X.values(p)
    assert X._lowered
    assert got.tobytes() == _jet_values(X, p).tobytes()
    assert np.signbit(got[[0, 2]]).all() and (got[[0, 2]] == 0.0).all()


def test_one_point_domain_error_keeps_its_subexpression():
    X = tr.hamiltonian_field(md.resolve("flat_so3").effective_triple(), ExprField("y2/(y1 - 0.25) + sqrt(y3)"))
    with pytest.raises(DomainError, match=r"division by zero in "):
        X.values([0.0, 0.0, 0.25, 0.5, 0.5])
    with pytest.raises(DomainError, match=r"sqrt of a non-positive value in 'sqrt\(y3\)'"):
        X.values([0.0, 0.0, 0.5, 0.5, -0.5])
