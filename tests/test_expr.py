import numpy as np
import pytest

from acpoisson import expr as ex
from acpoisson.errors import ExprSyntaxError, NonIntegerExponent, UnknownIdentifier


def test_basic_ast_shape():
    ast = ex.parse("y1^2 - x1^2 - x2^2")
    assert ast == ex.BinOp(
        "-",
        ex.BinOp("-", ex.Pow(ex.Var("y1"), 2), ex.Pow(ex.Var("x1"), 2)),
        ex.Pow(ex.Var("x2"), 2),
    )


def test_builtin_call():
    ast = ex.parse("cutoff(y1^2+y2^2+y3^2)")
    assert isinstance(ast, ex.Call) and ast.func == "cutoff"


def test_incomplete_input_position():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("x1 +")
    assert err.value.column == 5
    assert err.value.line == 1


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        ex.parse("z1 + 1")
    with pytest.raises(UnknownIdentifier):
        ex.parse("foo(x1)")


def test_non_integer_exponent():
    with pytest.raises(NonIntegerExponent):
        ex.parse("x1^2.5")
    with pytest.raises(ExprSyntaxError):
        ex.parse("x1^y1")


def test_numbers_with_exponents():
    assert ex.parse("3.5e-2").value == 3.5e-2
    assert ex.parse(".25").value == 0.25
    assert ex.parse("2e3").value == 2000.0


def test_negative_exponent_allowed():
    ast = ex.parse("x1^-2")
    assert isinstance(ast, ex.Pow) and ast.exponent == -2


def test_precedence_and_unary_minus():
    # -x^2 is -(x^2); a - b - c is left associative
    assert ex.parse("-x1^2") == ex.Neg(ex.Pow(ex.Var("x1"), 2))
    ast = ex.parse("x1 - x2 - y1")
    assert ast.op == "-" and ast.left.op == "-"


def test_print_parse_roundtrip():
    sources = [
        "y1^2 - x1^2 - x2^2",
        "cutoff(y1^2+y2^2+y3^2)",
        "sin(x1)*y2 + cos(x2)/tanh(y3+2)",
        "-x1^2 + 3.5e-2/(y1-2)",
        "x1 - (x2 - y1)",
        "x1/(x2*y1)/y2",
        "pi*e + sqrt(y1+3)^3",
        "-(x1+y1)^2",
    ]
    for src in sources:
        ast = ex.parse(src)
        assert ex.parse(ex.to_source(ast)) == ast, src


def test_roundtrip_random_asts(rng=np.random.default_rng(7)):
    variables = list(ex.VARIABLES) + list(ex.CONSTANTS)

    def random_ast(depth):
        if depth == 0:
            if rng.random() < 0.5:
                return ex.Num(float(abs(round(rng.normal(), 3))))
            return ex.Var(str(rng.choice(ex.VARIABLES)))
        kind = rng.integers(0, 5)
        if kind == 0:
            return ex.Neg(random_ast(depth - 1))
        if kind == 1:
            return ex.Pow(random_ast(0), int(rng.integers(0, 4)))
        if kind == 2:
            return ex.Call(str(rng.choice(["sin", "cos", "exp", "tanh"])), random_ast(depth - 1))
        op = str(rng.choice(["+", "-", "*", "/"]))
        return ex.BinOp(op, random_ast(depth - 1), random_ast(depth - 1))

    for _ in range(200):
        ast = random_ast(3)
        assert ex.parse(ex.to_source(ast)) == ast


def test_ast_immutable():
    ast = ex.parse("x1 + y1")
    with pytest.raises(AttributeError):
        ast.op = "*"


def test_variables_used():
    assert ex.variables_used(ex.parse("sin(x1)*y2 + pi")) == {"x1", "y2"}


def test_symbolic_differentiation_matches_ad():
    from acpoisson.fields import ExprField

    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.8, 0.8, size=(5, 40))
    sources = [
        "sin(x1*y2) + exp(0.3*y1)*cos(x2)",
        "tanh(x2 + y3)/(2 + y1^2)",
        "cutoff(y1^2 + y2^2) * x1",
        "sqrt(2 + x1^2) - ln(3 + y2^2)",
    ]
    for src in sources:
        f = ExprField(src)
        grad = f.at(pts, 1).grad
        for k, name in enumerate(ex.VARIABLES):
            df = ex.differentiate(ex.parse(src), name)
            np.testing.assert_allclose(df.at(pts, 0).value, grad[k], atol=1e-12)
