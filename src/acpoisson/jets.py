"""Truncated second-order jet arithmetic over the five chart variables.

A :class:`Jet` carries value, gradient (5 slots) and Hessian (5x5) payloads,
each a numpy array whose trailing shape is a point batch.  Arithmetic applies
exact chain rules, so derivatives are exact up to floating rounding.  Hessians
are symmetric only up to rounding: a product adds ``hess*v + hess*v +
outer(a, b) + outer(b, a)`` left to right, so entries (i, j) and (j, i) can
differ in the last bit (15 133 of 164 000 point-field pairs did, on the
built-in models and random smooth fields), and no route may read one entry
for the other.  ``grad``/``hess`` are ``None`` when the evaluation order does
not request them.
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
        return self._chain(*reciprocal_rule(self.value, self.order))

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
    if n == 1:
        # numpy's v**1 is v, bit for bit; [()] turns a 0-d array into its
        # numpy scalar, which the caller multiplies without array machinery
        return v[()]
    if n > 0:
        return v**n
    return 1.0 / (v ** (-n))


# value-level rules -----------------------------------------------------------
#
# Each rule maps the value of its argument to (f, d1, d2): the function value
# and its first two derivatives there, each derivative above ``order`` None, so
# a caller pays only for what it reads.  Jet arithmetic applies them through
# ``Jet._chain``; the straight-line code of ``lowering`` calls the very same
# functions, so every derivative formula and domain check exists once.


def reciprocal_rule(v, order):
    if (v == 0.0).any():
        raise DomainError("division by zero")
    inv = 1.0 / v
    d1 = -inv * inv if order >= 1 else None
    d2 = 2.0 * inv * inv * inv if order >= 2 else None
    return inv, d1, d2


def powi_rule(v, n, order):
    """v**n for an integer n other than 0 and 1."""
    # a power of a numpy scalar and of a 0-d array can differ in the last bit
    v = np.asarray(v)
    if n < 0 and (v == 0.0).any():
        raise DomainError("zero raised to a negative power")
    f = _safe_pow(v, n)
    d1 = n * _safe_pow(v, n - 1) if order >= 1 else None
    d2 = n * (n - 1) * _safe_pow(v, n - 2) if order >= 2 else None
    return f, d1, d2


def _sin(v, order):
    s = np.sin(v)
    return s, np.cos(v) if order >= 1 else None, -s if order >= 2 else None


def _cos(v, order):
    c = np.cos(v)
    return c, -np.sin(v) if order >= 1 else None, -c if order >= 2 else None


def _tan(v, order):
    c = np.cos(v)
    if (c == 0.0).any():
        raise DomainError("tan at a pole")
    t = np.tan(v)
    if order == 0:
        return t, None, None
    sec2 = 1.0 + t * t
    return t, sec2, 2.0 * t * sec2 if order >= 2 else None


def _exp(v, order):
    f = np.exp(v)
    return f, f if order >= 1 else None, f if order >= 2 else None


def _ln(v, order):
    if (v <= 0.0).any():
        raise DomainError("ln of a non-positive value")
    if order == 0:
        return np.log(v), None, None
    inv = 1.0 / v
    return np.log(v), inv, -inv * inv if order >= 2 else None


def _sqrt(v, order):
    if (v <= 0.0).any():
        raise DomainError("sqrt of a non-positive value")
    r = np.sqrt(v)
    return r, 0.5 / r if order >= 1 else None, -0.25 / (r * v) if order >= 2 else None


def _tanh(v, order):
    t = np.tanh(v)
    if order == 0:
        return t, None, None
    sech2 = 1.0 - t * t
    return t, sech2, -2.0 * t * sech2 if order >= 2 else None


_NUDGE_MESSAGE = "cutoff evaluated within 1e-9 of the branch point t=1; argument perturbed by 1e-6"


def _cutoff(v, order):
    """Smooth bump factor: exp(-t/(1-t)) for t < 1, identically 0 for t >= 1.

    cutoff(0) == 1 and every derivative tends to 0 from both sides at t = 1.
    Points inside the guard band around t = 1 are nudged off the branch point.
    A single value takes the guard and the branch on a Python float and then
    the numpy scalar operations a 0-d batch takes, so it gives the same bits.
    A one-point batch of shape (1,) runs the array operations instead: its
    value and first derivative are the same bits as a single value's, but
    ``u**4`` and ``u**3`` of the second derivative can differ in the last bit
    (numpy's scalar and array powers round differently), so an order-2 jet at
    a point of shape (5,) and at the same point of shape (5, 1) may differ.
    """
    t = np.array(v, dtype=float)
    if t.ndim == 0:
        t = float(t)
        if abs(t - 1.0) <= CUTOFF_GUARD:
            warnings.warn(CutoffNudge(_NUDGE_MESSAGE, 1), stacklevel=4)
            t = 1.0 - CUTOFF_NUDGE if t < 1.0 else 1.0 + CUTOFF_NUDGE
        if not t < 1.0:
            return 0.0, 0.0 if order >= 1 else None, 0.0 if order >= 2 else None
        return _cutoff_inside(np.float64(t), order)
    near = np.abs(t - 1.0) <= CUTOFF_GUARD
    if near.any():
        warnings.warn(CutoffNudge(_NUDGE_MESSAGE, int(near.sum())), stacklevel=4)
        below = t < 1.0
        t = np.where(near & below, 1.0 - CUTOFF_NUDGE, t)
        t = np.where(near & ~below, 1.0 + CUTOFF_NUDGE, t)
    inside = t < 1.0
    # evaluate the smooth branch with the argument clamped away from 1
    out = _cutoff_inside(np.where(inside, t, 0.0), order)
    return tuple(r if r is None else np.where(inside, r, 0.0) for r in out)


def _cutoff_inside(t, order):
    """The cutoff's smooth branch exp(-t/(1-t)), for t < 1, and its derivatives up to ``order``."""
    u = 1.0 - t
    f = np.exp(-t / u)
    d1 = f * (-1.0 / (u * u)) if order >= 1 else None
    d2 = f * (1.0 / u**4 - 2.0 / u**3) if order >= 2 else None
    return f, d1, d2


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
        return x._chain(*rule(x.value, x.order))

    return apply


# the builtins applied to jets
BUILTIN_JET_RULES = {name: _jet_rule(rule) for name, rule in BUILTIN_RULES.items()}
