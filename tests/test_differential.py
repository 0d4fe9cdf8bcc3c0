"""The bigraded differential: each component of d against the full d of each monomial, projected."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import calculus as ca
from acpoisson import cli
from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import model as md
from acpoisson.calculus import Y_SLOTS, FieldElement
from acpoisson.fields import ExprField
from acpoisson.graded import wedge_keys
from acpoisson.lowering import evaluate

SHIFTS = [(1, 0), (0, 1), (2, -1)]
# every monomial key of degree at most 4
KEYS = [
    (h, v)
    for nh in range(3)
    for nv in range(4)
    if nh + nv <= 4
    for h in combinations((1, 2), nh)
    for v in combinations((1, 2, 3), nv)
]


def _full_d(xi, conn, detas):
    """The full differential of a form, each term added in turn (the reference construction)."""
    out = FieldElement.form()
    for key, c in xi.coeffs.items():
        h, v = key
        if len(h) + len(v) == 5:
            continue
        for i in (1, 2):
            merged = wedge_keys(((i,), ()), key)
            if merged is not None:
                sign, nk = merged
                out._add(nk, ca.hor_apply(conn, i, c) * sign)
        for a in (1, 2, 3):
            merged = wedge_keys(((), (a,)), key)
            if merged is not None:
                sign, nk = merged
                out._add(nk, c.partial(Y_SLOTS[a - 1]) * sign)
        for j, a in enumerate(v):
            sign = -1.0 if (len(h) + j) % 2 else 1.0
            prefix = FieldElement.form({(h, v[:j]): 1.0})
            suffix = FieldElement.form({((), v[j + 1 :]): 1.0})
            term = prefix.wedge(detas[a]).wedge(suffix).scale(c)
            for nk, nf in term.coeffs.items():
                out._add(nk, nf if sign > 0 else nf * -1.0)
    return out


def _reference_components(xi, conn, shifts):
    """The full d of each monomial, projected onto each requested bidegree."""
    detas = {a: ca.d_eta(conn, a) for a in (1, 2, 3)}
    outs = [FieldElement.form() for _ in shifts]
    for key, c in xi.coeffs.items():
        p, q = len(key[0]), len(key[1])
        single = _full_d(FieldElement.form({key: c}), conn, detas)
        for (sh, sv), out in zip(shifts, outs):
            for nk, nf in single.project(p + sh, q + sv).coeffs.items():
                out._add(nk, nf)
    return outs


def _jet_bytes(fields, p, order):
    return [
        (j.value.tobytes(), None if order == 0 else j.grad.tobytes()) for j in evaluate(fields, p, order)
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=5, unique=True),
    shifts=st.lists(st.sampled_from(SHIFTS), min_size=1, max_size=3, unique=True),
)
def test_components_match_the_projected_full_differential(seed, keys, shifts):
    rng = np.random.default_rng(seed)
    conn = fuzz.random_connection(rng)
    xi = FieldElement.form({key: ExprField(fuzz.random_poly_expr(rng)) for key in keys})
    got = ca.d_components(xi, conn, shifts)
    want = _reference_components(xi, conn, shifts)
    p = rng.uniform(-1, 1, (5, 4))
    for g, w in zip(got, want):
        assert list(g.coeffs) == list(w.coeffs)
        # structurally equal fields are one node
        assert all(a is b for a, b in zip(g.coeffs.values(), w.coeffs.values()))
        for order in (0, 1):
            assert _jet_bytes(g.coeffs.values(), p, order) == _jet_bytes(w.coeffs.values(), p, order)


def test_full_differential_is_the_sum_of_its_components(rng):
    conn = fuzz.random_connection(rng)
    p = rng.uniform(-1, 1, (5, 3))
    for bidegree in sorted({(len(h), len(v)) for h, v in KEYS}):
        keys = [k for k in KEYS if (len(k[0]), len(k[1])) == bidegree]
        xi = FieldElement.form({k: ExprField(fuzz.random_poly_expr(rng)) for k in keys})
        full = ca.exterior_d_field(xi, conn)
        parts = ca.d_components(xi, conn, SHIFTS)
        # one bidegree in, so the components share no key
        assert sum(len(part.coeffs) for part in parts) == len(full.coeffs)
        assert all(full.coeffs[k] is f for part in parts for k, f in part.coeffs.items())
    mixed = FieldElement.form({k: ExprField(fuzz.random_poly_expr(rng)) for k in KEYS[::3]})
    assert ca.exterior_d_field(mixed, conn).at(p).allclose(sum(ca.d_components(mixed, conn, SHIFTS)).at(p), 0.0)


def _count_d_eta(monkeypatch):
    calls = []
    build = ca.d_eta

    def spy(conn, a):
        calls.append(a)
        return build(conn, a)

    monkeypatch.setattr(ca, "d_eta", spy)
    return calls


def test_vertical_component_builds_no_d_eta(rng, monkeypatch):
    calls = _count_d_eta(monkeypatch)
    conn = fuzz.random_connection(rng)
    xi = FieldElement.form({((1,), (2,)): ExprField("x1*y3"), ((), (1, 3)): ExprField("y2")})
    ca.d_components(xi, conn, [(0, 1)])
    assert calls == []
    ca.d_components(xi, conn, [(1, 0), (2, -1)])
    ca.d_component(xi, conn, (2, -1))
    assert calls == [1, 2, 3]


def test_component_formulas_read_no_d_eta(rng, monkeypatch):
    """theta and rho by their formulas stay independent of the volume route, which reads d eta."""
    calls = _count_d_eta(monkeypatch)
    conn = fuzz.random_connection(rng)
    cn.theta(conn), cn.rho(conn), cn.rho_components(conn)
    assert calls == [] and "d_eta_parts" not in vars(conn)
    cn.theta_from_volume(conn, rng.uniform(-1, 1, 5))
    assert calls == [1, 2, 3]


@pytest.mark.parametrize("name", sorted(md.BUILTIN_MODELS))
def test_a_check_builds_each_d_eta_once(name, monkeypatch):
    calls = _count_d_eta(monkeypatch)
    cli.run_check(md.resolve(name), n=50)
    assert sorted(calls) == [1, 2, 3]
