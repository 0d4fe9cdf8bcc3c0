"""Automatic differentiation against central differences, checked by hypothesis.

The expressions have the shapes ``fuzz.random_smooth_expr`` draws,
``f1(u) + 0.7*f2(v) + exp(w)*0.3`` over random polynomials, built here from
strategies so that a failing case shrinks to a small expression and point.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import fuzz
from acpoisson.fields import ExprField, finite_difference_check

FUNCS = st.sampled_from(["sin", "cos", "tanh"])


def polynomials(degree, terms, scale):
    """Polynomial text in the format of ``fuzz.random_poly_expr``."""
    term = st.tuples(
        st.floats(-scale, scale, allow_nan=False),
        st.lists(st.sampled_from(fuzz.ALL_VARS), min_size=1, max_size=degree),
    )
    return st.lists(term, min_size=terms, max_size=terms).map(
        lambda ts: " + ".join(f"{c:.6f}*" + "*".join(vs) for c, vs in ts)
    )


smooth_exprs = st.builds(
    "{}({}) + 0.7*{}({}) + exp({})*0.3".format,
    FUNCS, polynomials(2, 2, 0.6), FUNCS, polynomials(1, 2, 0.8), polynomials(2, 2, 0.4),
)
points = st.lists(st.floats(-1, 1, allow_nan=False), min_size=5, max_size=5).map(np.array)


@settings(max_examples=100, deadline=None)
@given(source=smooth_exprs, p=points)
def test_first_partials_match_central_differences(source, p):
    f = ExprField(source)
    assert finite_difference_check(f, p) <= 1e-5
    hess = f.at(p, order=2).hess
    assert np.array_equal(hess, hess.T)
