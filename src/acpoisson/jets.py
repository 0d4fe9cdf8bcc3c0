"""Truncated second-order jet arithmetic over the five chart variables.

A :class:`Jet` carries value, gradient (5 slots) and Hessian (5x5) payloads,
each a numpy array whose trailing shape is a point batch.  Arithmetic applies
exact chain rules, so derivatives are exact up to floating rounding and
Hessians are symmetric by construction.  ``grad``/``hess`` are ``None`` when
the evaluation order does not request them.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import CutoffNudge, DomainError

NVARS = 5

# half-width of the guard band around the cutoff branch point t = 1
CUTOFF_GUARD = 1e-9
CUTOFF_NUDGE = 1e-6


class Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=None, hess=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = grad
        self.hess = hess

    @property
    def order(self):
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    # constructors -------------------------------------------------------

    @staticmethod
    def constant(c, shape, order):
        g = np.zeros((NVARS,) + shape) if order >= 1 else None
        h = np.zeros((NVARS, NVARS) + shape) if order >= 2 else None
        return Jet(np.full(shape, float(c)), g, h)

    @staticmethod
    def coordinate(k, values, order):
        values = np.asarray(values, dtype=float)
        shape = values.shape
        g = h = None
        if order >= 1:
            g = np.zeros((NVARS,) + shape)
            g[k] = 1.0
        if order >= 2:
            h = np.zeros((NVARS, NVARS) + shape)
        return Jet(values.copy(), g, h)

    # arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value + other, self.grad, self.hess)
        g = None if self.grad is None else self.grad + other.grad
        h = None if self.hess is None else self.hess + other.hess
        return Jet(self.value + other.value, g, h)

    __radd__ = __add__

    def __neg__(self):
        g = None if self.grad is None else -self.grad
        h = None if self.hess is None else -self.hess
        return Jet(-self.value, g, h)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value - other, self.grad, self.hess)
        g = None if self.grad is None else self.grad - other.grad
        h = None if self.hess is None else self.hess - other.hess
        return Jet(self.value - other.value, g, h)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            g = None if self.grad is None else self.grad * other
            h = None if self.hess is None else self.hess * other
            return Jet(self.value * other, g, h)
        v = self.value * other.value
        g = h = None
        if self.grad is not None:
            g = self.grad * other.value + other.grad * self.value
        if self.hess is not None:
            h = (
                self.hess * other.value
                + other.hess * self.value
                + _outer(self.grad, other.grad)
                + _outer(other.grad, self.grad)
            )
        return Jet(v, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        return self._chain(*reciprocal_rule(self.value))

    def powi(self, n: int):
        """Integer power; 0**0 == 1 by the constant-exponent convention."""
        if n == 0:
            return Jet.constant(1.0, self.value.shape, self.order)
        if n == 1:
            return self
        f, d1, d2 = powi_rule(self.value, n, self.order)
        if self.grad is None:
            return Jet(f)
        return self._chain(f, d1, d2)

    def _chain(self, f, d1, d2):
        """Compose with a scalar function given by value/derivatives at self.value."""
        g = h = None
        if self.grad is not None:
            g = d1 * self.grad
        if self.hess is not None:
            h = d1 * self.hess + d2 * _outer(self.grad, self.grad)
        return Jet(f, g, h)


def _outer(a, b):
    return np.einsum("i...,j...->ij...", a, b)


def _safe_pow(v, n):
    if n == 0:
        return np.ones_like(v)
    if n > 0:
        return v**n
    return 1.0 / (v ** (-n))


# value-level rules -----------------------------------------------------------
#
# Each rule maps the value of its argument to (f, d1, d2): the function value
# and its first two derivatives there.  Jet arithmetic applies them through
# ``Jet._chain``; the straight-line code of ``lowering`` calls the very same
# functions, so every derivative formula and domain check exists once.


def reciprocal_rule(v):
    if (v == 0.0).any():
        raise DomainError("division by zero")
    inv = 1.0 / v
    return inv, -inv * inv, 2.0 * inv * inv * inv


def powi_rule(v, n, order):
    """v**n for an integer n other than 0 and 1; derivatives beyond ``order`` are None."""
    # a power of a numpy scalar and of a 0-d array can differ in the last bit
    v = np.asarray(v)
    if n < 0 and (v == 0.0).any():
        raise DomainError("zero raised to a negative power")
    f = _safe_pow(v, n)
    d1 = n * _safe_pow(v, n - 1) if order >= 1 else None
    d2 = n * (n - 1) * _safe_pow(v, n - 2) if order >= 2 else None
    return f, d1, d2


def _sin(v):
    s, c = np.sin(v), np.cos(v)
    return s, c, -s


def _cos(v):
    s, c = np.sin(v), np.cos(v)
    return c, -s, -c


def _tan(v):
    c = np.cos(v)
    if (c == 0.0).any():
        raise DomainError("tan at a pole")
    t = np.tan(v)
    sec2 = 1.0 + t * t
    return t, sec2, 2.0 * t * sec2


def _exp(v):
    f = np.exp(v)
    return f, f, f


def _ln(v):
    if (v <= 0.0).any():
        raise DomainError("ln of a non-positive value")
    inv = 1.0 / v
    return np.log(v), inv, -inv * inv


def _sqrt(v):
    if (v <= 0.0).any():
        raise DomainError("sqrt of a non-positive value")
    r = np.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def _tanh(v):
    t = np.tanh(v)
    sech2 = 1.0 - t * t
    return t, sech2, -2.0 * t * sech2


def _cutoff(v):
    """Smooth bump factor: exp(-t/(1-t)) for t < 1, identically 0 for t >= 1.

    cutoff(0) == 1 and every derivative tends to 0 from both sides at t = 1.
    Points inside the guard band around t = 1 are nudged off the branch point.
    """
    t = np.array(v, dtype=float)
    near = np.abs(t - 1.0) <= CUTOFF_GUARD
    if near.any():
        msg = "cutoff evaluated within 1e-9 of the branch point t=1; argument perturbed by 1e-6"
        warnings.warn(CutoffNudge(msg, int(near.sum())), stacklevel=4)
        below = t < 1.0
        t = np.where(near & below, 1.0 - CUTOFF_NUDGE, t)
        t = np.where(near & ~below, 1.0 + CUTOFF_NUDGE, t)
    inside = t < 1.0
    # evaluate the smooth branch with the argument clamped away from 1
    ts = np.where(inside, t, 0.0)
    u = 1.0 - ts
    s = -ts / u
    f = np.exp(s)
    d1 = f * (-1.0 / (u * u))
    d2 = f * (1.0 / u**4 - 2.0 / u**3)
    return np.where(inside, f, 0.0), np.where(inside, d1, 0.0), np.where(inside, d2, 0.0)


BUILTIN_RULES = {
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "exp": _exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "tanh": _tanh,
    "cutoff": _cutoff,
}


def _jet_rule(rule):
    def apply(x):
        return x._chain(*rule(x.value))

    return apply


# the builtins applied to jets
BUILTIN_JET_RULES = {name: _jet_rule(rule) for name, rule in BUILTIN_RULES.items()}
