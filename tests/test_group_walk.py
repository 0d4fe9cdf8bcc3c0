"""The memoized jet walk of ``lowering.evaluate``: sharing, last-use eviction, order 2."""

import tracemalloc

import numpy as np
import pytest

from acpoisson import model as md
from acpoisson.fields import Call, CoordField
from acpoisson.jets import Jet
from acpoisson.lowering import evaluate

MODELS = sorted(md.BUILTIN_MODELS)


def test_each_shared_node_is_combined_once(monkeypatch):
    # squaring 30 times builds a DAG of 30 products whose tree has 2^30 leaves:
    # the unmemoized f.at would never finish, so it is not called here
    f = Call("sin", CoordField(0))
    for _ in range(30):
        f = f * f
    calls = []
    mul = Jet.__mul__

    def spy(self, other):
        calls.append(1)
        if len(calls) > 30:
            raise AssertionError("a shared product was combined twice")
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", spy)
    jet = evaluate([f], np.full(5, 0.5), 1)[0]
    assert len(calls) == 30
    assert jet.value.shape == () and jet.grad.shape == (5,)


def _chain(length):
    """A chain of links that share the five coordinate leaves."""
    g = CoordField(2)
    for i in range(length):
        g = Call("sin", g) * CoordField(i % 5)
    return g


def test_jets_are_dropped_after_their_last_consumer():
    n, length = 10**4, 60
    points = np.random.default_rng(5).uniform(0.1, 0.5, (5, n))
    jet_bytes = 6 * 8 * n  # one order-1 jet: a value and five gradient rows
    evaluate([_chain(2)], points, 1)  # warm up numpy before tracing
    f = _chain(length)
    tracemalloc.start()
    try:
        jet = evaluate([f], points, 1)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the walk combines 2 * length + 5 jets; holding them all would take over 100
    assert peak < 12 * jet_bytes
    assert np.isfinite(jet.value).all()


def _bytes(jet):
    return tuple(None if a is None else (a.shape, a.tobytes()) for a in (jet.value, jet.grad, jet.hess))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 64)])
def test_order_two_matches_the_oracle_byte_for_byte(name, shape):
    model = md.resolve(name)
    triple = model.effective_triple()
    points = model.samples(64).points[:, : (shape[1] if len(shape) > 1 else 1)].reshape(shape)
    fields = list(triple.pi_matrix().values())
    got = evaluate(fields, points, 2)
    assert [_bytes(j) for j in got] == [_bytes(f.at(points, 2)) for f in fields]
    assert all(j.hess is not None for j in got)


def test_a_deep_chain_costs_one_frame_per_level():
    # both walks recurse once per level, so an 800-deep tree stays under the
    # default recursion limit of 1000
    g = CoordField(0)
    for _ in range(800):
        g = Call("sin", g)
    p = np.full(5, 0.3)
    assert _bytes(evaluate([g], p, 1)[0]) == _bytes(g.at(p, 1))
