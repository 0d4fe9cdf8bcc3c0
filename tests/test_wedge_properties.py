"""Algebraic properties of the bigraded wedge product, checked by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson.graded import GradedElement, mono_degree

ALL_KEYS = [
    (h, v)
    for h in [(), (1,), (2,), (1, 2)]
    for v in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
]
COEFFS = st.one_of(
    st.floats(-2, 2, allow_nan=False),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3).map(np.array),
)


@st.composite
def element(draw, kind, degree):
    """A random element of the given kind, every monomial of degree at most ``degree``."""
    keys = [k for k in ALL_KEYS if mono_degree(k) <= degree]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), COEFFS, max_size=4))
    return GradedElement(kind, coeffs)


@st.composite
def triples(draw):
    """Three elements of one kind whose top degrees sum to at most 5."""
    kind = draw(st.sampled_from(["form", "mv"]))
    p = draw(st.integers(0, 5))
    q = draw(st.integers(0, 5 - p))
    r = draw(st.integers(0, 5 - p - q))
    return draw(element(kind, p)), draw(element(kind, q)), draw(element(kind, r))


@settings(max_examples=150, deadline=None)
@given(triples())
def test_wedge_is_associative(abc):
    a, b, c = abc
    assert a.wedge(b).wedge(c).allclose(a.wedge(b.wedge(c)), tol=1e-12)
