"""Pointwise exterior-algebra tests, with a brute-force contraction oracle."""

import itertools

import numpy as np
import pytest

from acpoisson.errors import DegreeOverflow
from acpoisson.graded import (
    GradedElement,
    interior,
    key_factors,
    mono_degree,
    omega_h,
    omega_v,
    q_horizontal,
    q_vertical,
)

ALL_KEYS = [
    (h, v)
    for h in [(), (1,), (2,), (1, 2)]
    for v in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
]
VECTOR_KEYS = [k for k in ALL_KEYS if mono_degree(k) == 1]


def form_on_frame(form_key, vector_keys):
    """Brute-force determinant pairing: evaluate a monomial form on vectors."""
    rows = key_factors(form_key)
    mat = np.zeros((len(rows), len(vector_keys)))
    for i, rf in enumerate(rows):
        for j, vk in enumerate(vector_keys):
            mat[i, j] = 1.0 if key_factors(vk)[0] == rf else 0.0
    return np.linalg.det(mat) if mat.shape[0] == mat.shape[1] else 0.0


def interior_oracle(arg, target):
    """Contract by first-slot insertion, factor by factor, with the fixed
    degree sign (-1)^(p-1) for multivector arguments; built on the
    determinant pairing rather than the production code paths."""
    mv_on_form = arg.kind == "mv"
    out = GradedElement(target.kind)
    for akey, acoef in arg.coeffs.items():
        p = mono_degree(akey)
        sign = -1.0 if (mv_on_form and p % 2 == 0) else 1.0
        for tkey, tcoef in target.coeffs.items():
            m = mono_degree(tkey)
            if p > m:
                continue
            # evaluate target(arg-factors, remaining-frame-vectors)
            for rest in itertools.combinations(key_factors(tkey), m - p):
                slot_keys = [_factor_key(f) for f in key_factors(akey)] + [
                    _factor_key(f) for f in rest
                ]
                val = _pair_full(tkey, slot_keys)
                if val:
                    rkey = _combine(rest)
                    cur = out.coeffs.get(rkey, 0.0)
                    out.coeffs[rkey] = cur + sign * acoef * tcoef * val
    return out


def _factor_key(factor):
    kind, idx = factor
    return ((idx,), ()) if kind == "h" else ((), (idx,))


def _combine(factors):
    h = tuple(sorted(i for k, i in factors if k == "h"))
    v = tuple(sorted(i for k, i in factors if k == "v"))
    return (h, v)


def _pair_full(form_key, vector_keys):
    rows = key_factors(form_key)
    if len(rows) != len(vector_keys):
        return 0.0
    mat = np.zeros((len(rows), len(rows)))
    for i, rf in enumerate(rows):
        for j, vk in enumerate(vector_keys):
            mat[i, j] = 1.0 if key_factors(vk)[0] == rf else 0.0
    return float(np.linalg.det(mat))


def test_wedge_basis_products():
    dx1 = GradedElement.form({((1,), ()): 1.0})
    dx2 = GradedElement.form({((2,), ()): 1.0})
    assert dx1.wedge(dx2).coefficient(((1, 2), ())) == 1.0
    eta1 = GradedElement.form({((), (1,)): 1.0})
    assert eta1.wedge(eta1).norm() == 0.0


def test_wedge_sign_rule():
    # (b1 eta^1) ^ (t1 dx^1) = -b1 t1 dx^1 ^ eta^1
    a = GradedElement.form({((), (1,)): 2.0})
    b = GradedElement.form({((1,), ()): 3.0})
    assert a.wedge(b).coefficient(((1,), (1,))) == -6.0


def test_wedge_graded_commutativity(rng):
    done = 0
    while done < 200:
        ka = ALL_KEYS[rng.integers(len(ALL_KEYS))]
        kb = ALL_KEYS[rng.integers(len(ALL_KEYS))]
        if mono_degree(ka) + mono_degree(kb) > 5:
            continue
        a = GradedElement.form({ka: float(rng.normal())})
        b = GradedElement.form({kb: float(rng.normal())})
        sign = (-1.0) ** (mono_degree(ka) * mono_degree(kb))
        assert a.wedge(b).allclose(b.wedge(a).scale(sign))
        done += 1


def test_wedge_degree_overflow():
    with pytest.raises(DegreeOverflow):
        omega_h().wedge(omega_v()).wedge(GradedElement.form({((1,), ()): 1.0}))


def test_chart_constant_pairings():
    assert interior(q_vertical(), omega_v()).coefficient(((), ())) == 1.0
    assert interior(q_horizontal(), omega_h()).coefficient(((), ())) == 1.0
    psi = GradedElement.multivector({((1, 2), ()): 1.0})
    assert interior(psi, omega_h()).coefficient(((), ())) == -1.0


def test_interior_pinned_examples():
    e23 = GradedElement.multivector({((), (2, 3)): 1.0})
    res = interior(e23, omega_v())
    assert res.coefficient(((), (1,))) == -1.0 and len(res.coeffs) == 1

    beta = GradedElement.form({((), (1,)): 2.0, ((), (2,)): 3.0, ((), (3,)): 5.0})
    res = interior(beta, q_vertical())
    assert res.coefficient(((), (2, 3))) == 2.0
    assert res.coefficient(((), (1, 3))) == -3.0
    assert res.coefficient(((), (1, 2))) == 5.0


def _check_against_oracle(arg, target):
    from acpoisson.errors import DegreeUnderflow

    try:
        got = interior(arg, target)
    except DegreeUnderflow:
        assert interior_oracle(arg, target).norm() == 0.0
        return
    assert got.allclose(interior_oracle(arg, target), tol=1e-12)


def test_interior_against_bruteforce_oracle(rng):
    for _ in range(120):
        nk = int(rng.integers(1, 3))
        arg = GradedElement.multivector(
            {ALL_KEYS[rng.integers(len(ALL_KEYS))]: float(rng.normal()) for _ in range(nk)}
        )
        target = GradedElement.form(
            {ALL_KEYS[rng.integers(len(ALL_KEYS))]: float(rng.normal()) for _ in range(2)}
        )
        _check_against_oracle(arg, target)
        # and the mirrored direction
        argf = GradedElement.form(
            {ALL_KEYS[rng.integers(len(ALL_KEYS))]: float(rng.normal()) for _ in range(nk)}
        )
        targm = GradedElement.multivector(
            {ALL_KEYS[rng.integers(len(ALL_KEYS))]: float(rng.normal()) for _ in range(2)}
        )
        _check_against_oracle(argf, targm)


def test_interior_composition_property(rng):
    # i_{X^Y} = i_X o i_Y for vector arguments, on random targets
    for _ in range(200):
        X = GradedElement.multivector({VECTOR_KEYS[rng.integers(5)]: float(rng.normal())})
        Y = GradedElement.multivector({VECTOR_KEYS[rng.integers(5)]: float(rng.normal())})
        big_keys = [k for k in ALL_KEYS if mono_degree(k) >= 2]
        target = GradedElement.form(
            {big_keys[rng.integers(len(big_keys))]: float(rng.normal()) for _ in range(3)}
        )
        lhs = interior(X.wedge(Y), target)
        rhs = interior(X, interior(Y, target))
        assert lhs.allclose(rhs, tol=1e-12)


def test_projection_partition(rng):
    for _ in range(50):
        a = GradedElement.form(
            {ALL_KEYS[rng.integers(len(ALL_KEYS))]: float(rng.normal()) for _ in range(4)}
        )
        total = GradedElement.form()
        for p in range(3):
            for q in range(4):
                total = total + a.project(p, q)
        assert total.allclose(a)


def test_projection_examples():
    hv = omega_h().wedge(omega_v())
    assert hv.project(2, 3).allclose(hv)
    mixed = GradedElement.form({((1,), (1,)): 1.0})
    assert mixed.project(2, 0).norm() == 0.0


def test_frame_coframe_duality():
    # evaluating a stored form on its own frame monomial returns the coefficient
    rng = np.random.default_rng(5)
    for key in ALL_KEYS:
        if mono_degree(key) == 0:
            continue
        c = float(rng.normal())
        form = GradedElement.form({key: c})
        vecs = [_factor_key(f) for f in key_factors(key)]
        assert _pair_full(key, vecs) == 1.0
        total = sum(
            form.coefficient(k) * _pair_full(k, vecs) for k in form.coeffs
        )
        assert total == c


def test_interior_degree_underflow():
    import pytest

    from acpoisson.errors import DegreeUnderflow

    with pytest.raises(DegreeUnderflow):
        interior(q_vertical(), GradedElement.form({((1,), ()): 1.0}))
