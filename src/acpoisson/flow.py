"""Fixed-step RK4 integration of Hamiltonian fields with conservation diagnostics.

The integrator is deliberately plain: classical fourth-order Runge-Kutta with
a uniform step, so drift reports are reproducible and scale as O(dt^4).  A
step-halving rerun provides the error estimate.
"""

from __future__ import annotations

import math

import numpy as np

from . import calculus as ca
from . import strata as st
from . import triple as tr
from .errors import BadInput, DomainError
from .fields import as_field
from .reports import Block, VerificationReport, run_table, write_csv

# most RK4 steps in one trajectory, checked before its (5, steps + 1) states
# are allocated; the step-halving rerun takes twice as many
MAX_FLOW_STEPS = 10**6


class Trajectory:
    """Uniform-step trajectory of a Hamiltonian flow.

    A truncated trajectory keeps the states before the step that failed, so
    that step's index is ``n_steps``; ``cause`` is the message of its
    :class:`~acpoisson.errors.DomainError`.
    """

    def __init__(self, times, states, hamiltonian, dt, truncated=False, halving_error=None,
                 rhs_evaluations=0, cause=None):
        self.times = times
        self.states = states  # (5, n_steps+1)
        self.sample = st.as_sample(states)  # every field along the path is read through it
        self.hamiltonian = hamiltonian
        self.dt = dt
        self.truncated = truncated
        self.halving_error = halving_error
        self.rhs_evaluations = rhs_evaluations  # right-hand-side calls, the halving rerun's included
        self.cause = cause

    @property
    def n_steps(self):
        return self.states.shape[1] - 1


def _check_steps(n):
    if not 0 <= n <= MAX_FLOW_STEPS:
        raise BadInput(f"step count {n} is negative or more than {MAX_FLOW_STEPS}")


def _step(p, h, k):
    """``p + h * k`` on a batch; an RK4 stage that left the finite range raises :class:`DomainError`."""
    q = p + h * k
    if not np.isfinite(q).all():
        raise DomainError("an RK4 stage left the finite range")
    return q


def _slope(k1, k2, k3, k4):
    return k1 + 2 * k2 + 2 * k3 + k4


def _step_floats(p, h, k):
    """``_step`` on one point held as five Python floats: the same double operations."""
    a0, a1, a2, a3, a4 = p
    b0, b1, b2, b3, b4 = k
    q = [a0 + h * b0, a1 + h * b1, a2 + h * b2, a3 + h * b3, a4 + h * b4]
    if not all(map(math.isfinite, q)):
        raise DomainError("an RK4 stage left the finite range")
    return q


def _slope_floats(k1, k2, k3, k4):
    return [a + 2 * b + 2 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]


def _rk4_path(X, p0, dt, n):
    """RK4 of the vector field ``X`` from a point (5,) or a batch (5, m).

    Returns the states, shape ``p0.shape + (n + 1,)``, and None, or the states
    before the step a :class:`DomainError` cut, and that error; then the number
    of right-hand-side calls made.  A batch runs on its (5, m) array.  One
    point runs as five Python floats, which ``X.values`` takes and gives back
    without numpy: each stage is the batch expression's double operations in
    its order, ``p + (dt / 6) * (k1 + 2*k2 + 2*k3 + k4)`` included, so one
    point gives the bits of the same point as a one-column batch.
    """
    states = np.zeros(p0.shape + (n + 1,))
    states[..., 0] = p0
    p, step, slope = (p0.tolist(), _step_floats, _slope_floats) if p0.ndim == 1 else (p0, _step, _slope)
    values = X.values
    half, sixth = 0.5 * dt, dt / 6.0
    calls = 0

    def f(q):
        nonlocal calls
        calls += 1
        return values(q)

    for k in range(n):
        try:
            k1 = f(p)
            k2 = f(step(p, half, k1))
            k3 = f(step(p, half, k2))
            k4 = f(step(p, dt, k3))
            p = step(p, sixth, slope(k1, k2, k3, k4))
        except DomainError as err:
            return states[..., : k + 1], err, calls
        states[..., k + 1] = p
    return states, None, calls


def integrate_batch(triple: tr.PoissonTriple, F, p0s, dt, n):
    """RK4 on a batch of starting points, shape (5, m); returns (5, m, n+1).

    All trajectories share the step sequence.  Where a single flow would
    truncate (a domain error, or a stage that leaves the finite range, at any
    point) this raises that :class:`~acpoisson.errors.DomainError`; no partial
    batch is returned.  Used for sweep-style diagnostics.
    """
    _check_steps(n)
    X = tr.hamiltonian_field(triple, as_field(F))
    states, error, _ = _rk4_path(X, np.asarray(p0s, dtype=float), dt, n)
    if error is not None:
        raise error
    return states


def integrate(triple: tr.PoissonTriple, F, p0, dt, n) -> Trajectory:
    """RK4 trajectory of X_F from p0, with its error estimated by a rerun at half the step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_steps(n)
    F = as_field(F)
    X = tr.hamiltonian_field(triple, F)
    p0 = np.asarray(p0, dtype=float)
    states, error, calls = _rk4_path(X, p0, dt, n)
    halving = None
    if error is None:
        fine, fine_error, fine_calls = _rk4_path(X, p0, dt / 2.0, 2 * n)
        calls += fine_calls
        if fine_error is None:
            halving = float(np.max(np.abs(states[:, -1] - fine[:, -1])))
    times = np.arange(states.shape[1]) * dt
    return Trajectory(times, states, F, dt, truncated=error is not None, halving_error=halving,
                      rhs_evaluations=calls, cause=None if error is None else str(error))


def conservation_report(
    triple: tr.PoissonTriple,
    traj: Trajectory,
    casimirs=(),
    volume_factor=None,
    f_tol=1e-6,
    casimir_tol=1e-6,
    div_tol=1e-6,
) -> VerificationReport:
    """Drift of the Hamiltonian, of Casimirs, kappa-sign constancy, divergence.

    Each block holds one residual per state.  ``meta`` holds the right-hand-side
    call count, ``|integral of div dt|`` along the path (``divergence_integral``)
    and, for a truncated flow, its step and cause.
    """
    report = VerificationReport(name="conservation")
    sample = traj.sample
    fields = [traj.hamiltonian, *(as_field(c) for c in casimirs)]
    values = [jet.value for jet in sample.jets(fields)]  # one walk for all of them
    table = [
        Block("hamiltonian-drift" if i == 0 else f"casimir-{i}-drift", sample,
              lambda s, v=v: np.abs(v - v[0]), f_tol if i == 0 else casimir_tol)
        for i, v in enumerate(values)
    ]

    def sign_changes(s):
        # kappa must not change sign along a flow started off its zero set
        off = np.flatnonzero(triple.coupling_mask(s))
        signs = np.sign(triple.kappa_values(s)[off])
        changes = np.zeros(s.points.shape[1])
        changes[off[1:][signs[1:] != signs[:-1]]] = 1.0
        return changes

    table.append(Block("kappa-sign-constancy", sample, sign_changes, 0.0,
                       "1 at each state where kappa's sign differs from the previous state's off its zero band"))
    if volume_factor is not None:
        div = ca.divergence(tr.hamiltonian_field(triple, traj.hamiltonian), sample, as_field(volume_factor))
        report.meta["divergence_integral"] = float(np.abs(np.sum(div) * traj.dt))
        table.append(Block("invariant-volume-divergence", sample, lambda s: np.abs(div), div_tol))
    run_table(report, table)
    if traj.halving_error is not None:
        report.meta["halving_error"] = traj.halving_error
    report.meta["rhs_evaluations"] = traj.rhs_evaluations
    report.meta["truncated"] = traj.truncated
    if traj.truncated:
        report.meta["truncated_at_step"] = traj.n_steps
        report.meta["truncation_cause"] = traj.cause
    return report


def trajectory_to_csv(traj: Trajectory, casimirs, path):
    """The states with F and the Casimirs along them, read through the trajectory's sample:
    after ``conservation_report`` on the same Casimirs, the jets it already holds."""
    fields = [traj.hamiltonian, *(as_field(c) for c in casimirs)]
    header = ["t", "x1", "x2", "y1", "y2", "y3", "F"] + [f"casimir_{i}" for i in range(1, len(fields))]
    columns = [traj.times, *traj.states, *(jet.value for jet in traj.sample.jets(fields))]
    write_csv(path, header, columns)
