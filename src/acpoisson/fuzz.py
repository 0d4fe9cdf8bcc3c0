"""Deterministic random families for verification campaigns.

The flat-Casimir construction draws a fiber function C(y), sets
beta = g dC (g = 1 gives the closed variant), and a factor kappa0 = phi(x, C);
such a triple satisfies the integrability conditions identically.  The
curvature perturbation adds a constant-curvature term to the connection while
keeping kappa bounded away from zero, so both verification routes fail at
every sample point.
"""

from __future__ import annotations

from . import connection as cn
from . import gauge as ga
from . import triple as tr
from .fields import ExprField

ALL_VARS = ("x1", "x2", "y1", "y2", "y3")
Y_VARS = ("y1", "y2", "y3")
X_VARS = ("x1", "x2")


def random_poly_expr(rng, variables=ALL_VARS, degree=2, terms=3, scale=1.0):
    """Random polynomial expression text with bounded coefficients."""
    parts = []
    for _ in range(terms):
        c = rng.uniform(-scale, scale)
        n_factors = int(rng.integers(1, degree + 1))
        picks = rng.choice(variables, size=n_factors, replace=True)
        parts.append(f"{c:.6f}*" + "*".join(picks))
    return " + ".join(parts) if parts else "0"


def random_smooth_expr(rng):
    """Random smooth (non-polynomial) expression with tame arguments."""
    u = random_poly_expr(rng, degree=2, terms=2, scale=0.6)
    v = random_poly_expr(rng, degree=1, terms=2, scale=0.8)
    w = random_poly_expr(rng, degree=2, terms=2, scale=0.4)
    funcs = ["sin", "cos", "tanh"]
    f1, f2 = rng.choice(funcs, size=2, replace=True)
    return f"{f1}({u}) + 0.7*{f2}({v}) + exp({w})*0.3"


def random_connection(rng) -> cn.Connection:
    return cn.Connection([[random_poly_expr(rng, degree=2, terms=3, scale=0.7) for _ in range(3)] for _ in range(2)])


def random_flat_casimir_triple(rng, closed=None, nonvanishing=False) -> tr.PoissonTriple:
    """Flat connection, beta = g dC along a fiber function C, kappa = phi(x, C)."""
    c_src = random_poly_expr(rng, Y_VARS, degree=2, terms=3, scale=1.0)
    if closed is None:
        closed = bool(rng.integers(0, 2))
    g_src = "1" if closed else random_poly_expr(rng, Y_VARS, degree=1, terms=2, scale=1.0)
    C = ExprField(c_src)
    g = ExprField(g_src)
    beta = tr.VerticalOneForm([g * C.derivative(2 + a) for a in range(3)])
    if nonvanishing:
        c0, c1, c2, c3 = rng.uniform(0.3, 1.0, size=4)
        kappa_src = f"{c0:.6f} + {c1:.6f}*x1^2 + {c2:.6f}*x2^2 + {c3:.6f}*({c_src})^2"
    else:
        a0, a1, a2 = rng.uniform(-1, 1, size=3)
        b0, b1 = rng.uniform(-1, 1, size=2)
        kappa_src = (
            f"{a0:.6f} + {a1:.6f}*x1 + {a2:.6f}*x1*x2 "
            f"+ ({b0:.6f} + {b1:.6f}*x2)*({c_src}) + 0.3*({c_src})^2"
        )
    return tr.PoissonTriple(cn.Connection.flat(), ExprField(kappa_src), beta)


def curvature_perturbed(rng, triple: tr.PoissonTriple) -> tr.PoissonTriple:
    """Break the triple by a constant-curvature shift of the connection.

    With kappa bounded away from zero the third integrability residual picks
    up the constant kappa^2 * s everywhere, so the failure is decisive.
    """
    s = float(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
    gamma = [[f for f in row] for row in triple.conn.gamma]
    gamma[0][0] = gamma[0][0] + ExprField(f"{s:.6f}*x2")
    return tr.PoissonTriple(cn.Connection(gamma), triple.kappa, triple.beta)


def random_gauge(rng, eps_max=0.1) -> ga.GaugeData:
    """Random admissible gauge datum: base-function c is always a Casimir."""
    mu1 = random_poly_expr(rng, ALL_VARS, degree=2, terms=3, scale=0.5)
    mu2 = random_poly_expr(rng, ALL_VARS, degree=2, terms=3, scale=0.5)
    c = random_poly_expr(rng, X_VARS, degree=2, terms=2, scale=0.5)
    eps = float(rng.uniform(0.01, eps_max))
    return ga.GaugeData(mu=(ExprField(mu1), ExprField(mu2)), c=ExprField(c), epsilon=eps)
