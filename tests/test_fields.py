import warnings

import numpy as np
import pytest

from acpoisson import fuzz
from acpoisson.errors import DomainError, OrderBudgetExceeded
from acpoisson.fields import (
    Call,
    ConstField,
    CoordField,
    ExprField,
    finite_difference_check,
)


def test_polynomial_jet_values():
    f = ExprField("y1^2 - x1^2 - x2^2")
    jet = f.at([1, 1, 1, 0, 0], order=1)
    assert jet.value == -1.0
    assert jet.grad[2] == 2.0 and jet.grad[0] == -2.0


def test_product_second_order():
    f = ExprField("sin(x1)*y2")
    jet = f.at([0, 0, 0, 1, 0], order=2)
    assert abs(jet.value) == 0.0
    assert np.isclose(jet.grad[0], 1.0)
    assert np.isclose(jet.hess[0, 3], 1.0)
    assert jet.hess[0, 0] == 0.0


def test_cutoff_outside_support():
    f = ExprField("cutoff(y1^2+y2^2+y3^2)")
    jet = f.at([0, 0, 2, 0, 0], order=2)
    assert jet.value == 0.0
    assert np.all(jet.grad == 0.0) and np.all(jet.hess == 0.0)


def test_cutoff_normalization_and_continuity():
    f = ExprField("cutoff(y1)")
    assert f.at([0, 0, 0, 0, 0], 0).value == 1.0
    for side in (1 - 1e-6, 1 + 1e-6):
        jet = f.at([0, 0, side, 0, 0], order=1)
        assert abs(jet.value) <= 1e-12
        assert np.max(np.abs(jet.grad)) <= 1e-12


def test_cutoff_branch_guard_warns():
    f = ExprField("cutoff(y1)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f.at([0, 0, 1 + 1e-12, 0, 0], 1)
    assert any("branch point" in str(w.message) for w in caught)


def test_hessian_exactly_symmetric(rng):
    for _ in range(25):
        f = ExprField(fuzz.random_smooth_expr(rng))
        hess = f.at(rng.uniform(-1, 1, size=5), order=2).hess
        assert np.array_equal(hess, hess.T)


def test_finite_difference_polynomial():
    f = ExprField("x1^3 + y2^2*x2")
    assert finite_difference_check(f, [0.4, -0.2, 0.1, 0.7, -0.5]) <= 1e-8


def test_finite_difference_exp():
    f = ExprField("exp(x1*y1)")
    assert finite_difference_check(f, [0.3, 0, 0.7, 0, 0]) <= 1e-6


def test_finite_difference_after_extraction():
    f = ExprField("exp(x1*y1)").partial(0)
    assert finite_difference_check(f, [0.3, 0, 0.7, 0, 0]) <= 1e-6


def test_fd_campaign_random_smooth(rng):
    # 100 random smooth field/point pairs within 1e-5 relative
    worst = 0.0
    for _ in range(100):
        f = ExprField(fuzz.random_smooth_expr(rng))
        p = rng.uniform(-1, 1, size=5)
        worst = max(worst, finite_difference_check(f, p))
    assert worst <= 1e-5


def test_order_budget():
    f = ExprField("sin(x1)*y1^3")
    d1 = f.partial(2)
    d2 = d1.partial(2)
    p = [0.3, 0, 0.5, 0, 0]
    assert d1.at(p, 1).grad is not None
    with pytest.raises(OrderBudgetExceeded):
        d1.at(p, 2)
    assert d2.at(p, 0).value is not None
    with pytest.raises(OrderBudgetExceeded):
        d2.at(p, 1)
    with pytest.raises(OrderBudgetExceeded):
        d2.partial(2)


def test_extracted_partial_matches_hessian():
    f = ExprField("sin(x1*y1) + x2^2*y3")
    p = np.array([0.4, -0.3, 0.8, 0.1, 0.6])
    jet = f.at(p, 2)
    d = f.partial(0)
    np.testing.assert_allclose(d.at(p, 0).value, jet.grad[0], rtol=0, atol=0)
    np.testing.assert_allclose(d.at(p, 1).grad, jet.hess[0], rtol=0, atol=0)


def test_domain_errors_carry_subexpression():
    with pytest.raises(DomainError) as err:
        ExprField("ln(y1)").at([0, 0, -1, 0, 0], 0)
    assert "ln" in str(err.value)
    with pytest.raises(DomainError):
        ExprField("sqrt(x1)").at([-2, 0, 0, 0, 0], 0)
    with pytest.raises(DomainError):
        ExprField("x1/(y1-1)").at([0, 0, 1, 0, 0], 0)


def test_field_algebra_and_composition():
    f = ExprField("x1") * ExprField("y1") + 2.0
    assert f.at([3, 0, 4, 0, 0], 0).value == 14.0
    g = Call("exp", ConstField(0.0))
    assert g.at([0, 0, 0, 0, 0], 0).value == 1.0
    h = CoordField("y2") / 2.0
    assert h.at([0, 0, 0, 5, 0], 0).value == 2.5


def test_batched_evaluation_matches_single(rng):
    f = ExprField("sin(x1)*y2 + cutoff(y1^2)")
    pts = rng.uniform(-1, 1, size=(5, 17))
    batch = f.at(pts, 2)
    for k in range(17):
        single = f.at(pts[:, k], 2)
        assert single.value == batch.value[k]
        assert np.array_equal(single.grad, batch.grad[:, k])
        assert np.array_equal(single.hess, batch.hess[:, :, k])


def test_evaluation_is_pure():
    f = ExprField("tanh(x1+y3)^3")
    p = [0.2, 0.1, -0.4, 0.5, 0.8]
    a = f.at(p, 2)
    b = f.at(p, 2)
    assert a.value == b.value and np.array_equal(a.hess, b.hess)


def test_zero_power_is_one_everywhere():
    f = ExprField("x1^0")
    assert f.at([0, 0, 0, 0, 0], 2).value == 1.0


def test_concurrent_evaluation_consistent():
    from concurrent.futures import ThreadPoolExecutor

    f = ExprField("sin(x1*y2) + cutoff(y1^2)*x2")
    pts = np.linspace(-1, 1, 5 * 40).reshape(5, 40)
    expected = f.at(pts, 2)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: f.at(pts, 2), range(32)))
    for jet in results:
        assert np.array_equal(jet.value, expected.value)
        assert np.array_equal(jet.hess, expected.hess)


def test_fd_every_builtin_composition(rng):
    # each builtin composed with a polynomial argument, on domain-safe points
    compositions = {
        "sin": "sin(x1 + 0.5*y2^2)",
        "cos": "cos(x2*y1)",
        "tan": "tan(0.3*(x1 + y3))",
        "exp": "exp(0.4*x1*y2)",
        "tanh": "tanh(x1 + y1*y3)",
        "ln": "ln(2 + x1 + 0.5*y2)",
        "sqrt": "sqrt(3 + x2 + y1)",
        "cutoff": "cutoff(0.4 + 0.2*y1^2 + 0.1*x1)",
    }
    for name, src in compositions.items():
        f = ExprField(src)
        worst = 0.0
        for _ in range(20):
            p = rng.uniform(-0.9, 0.9, size=5)
            worst = max(worst, finite_difference_check(f, p))
        assert worst <= 1e-5, (name, worst)


def test_hessian_against_second_differences(rng):
    # row k of the Hessian equals the central difference of the gradient
    h = 1e-4
    for _ in range(10):
        f = ExprField(fuzz.random_smooth_expr(rng))
        p = rng.uniform(-0.8, 0.8, size=5)
        hess = f.at(p, 2).hess
        for k in range(5):
            shift = np.zeros(5)
            shift[k] = h
            fd_row = (f.at(p + shift, 1).grad - f.at(p - shift, 1).grad) / (2 * h)
            gap = np.max(np.abs(hess[k] - fd_row) / (1 + np.abs(hess[k])))
            assert gap <= 1e-5
