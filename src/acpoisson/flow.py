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
from .reports import CheckBlock, VerificationReport, residual_block, write_csv

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


def _finite(p):
    """``p`` itself; an RK4 stage that left the finite range raises :class:`DomainError`."""
    # one point is checked as five Python floats, without a numpy reduction
    if not (all(map(math.isfinite, p.tolist())) if p.ndim == 1 else np.isfinite(p).all()):
        raise DomainError("an RK4 stage left the finite range")
    return p


def _rk4_path(rhs, p0, dt, n):
    """RK4 from a point (5,) or a batch (5, m): the states, shape ``p0.shape + (n + 1,)``,
    and None, or the states before the step a :class:`DomainError` cut, and that error;
    then the number of ``rhs`` calls made."""
    states = np.zeros(p0.shape + (n + 1,))
    states[..., 0] = p0
    p = np.array(p0, dtype=float)
    calls = 0

    def f(q):
        nonlocal calls
        calls += 1
        return rhs(q)

    for k in range(n):
        try:
            k1 = f(p)
            k2 = f(_finite(p + 0.5 * dt * k1))
            k3 = f(_finite(p + 0.5 * dt * k2))
            k4 = f(_finite(p + dt * k3))
            p = _finite(p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
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
    states, error, _ = _rk4_path(X.values, np.asarray(p0s, dtype=float), dt, n)
    if error is not None:
        raise error
    return states


def integrate(triple: tr.PoissonTriple, F, p0, dt, n, halving_check=True) -> Trajectory:
    """RK4 trajectory of X_F from p0; optionally estimates error by step halving."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_steps(n)
    F = as_field(F)
    X = tr.hamiltonian_field(triple, F)
    p0 = np.asarray(p0, dtype=float)
    states, error, calls = _rk4_path(X.values, p0, dt, n)
    halving = None
    if halving_check and error is None:
        fine, fine_error, fine_calls = _rk4_path(X.values, p0, dt / 2.0, 2 * n)
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

    A drift block holds the drift at each state; ``meta`` holds the
    right-hand-side call count and, for a truncated flow, its step and cause.
    """
    report = VerificationReport(name="conservation")
    sample = traj.sample
    n_samples = sample.points.shape[1]
    fields = [traj.hamiltonian, *(as_field(c) for c in casimirs)]
    for i, jet in enumerate(sample.jets(fields)):
        check_id, tol = ("hamiltonian-drift", f_tol) if i == 0 else (f"casimir-{i}-drift", casimir_tol)
        report.add(residual_block(check_id, np.abs(jet.value - jet.value[0]), sample.points, tol))
    # kappa must not change sign along a flow started off its zero set
    kv = triple.kappa_values(sample)
    tol = triple.kappa_tol(sample)
    signs = np.sign(kv[np.abs(kv) > tol])
    crossings = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
    report.add(
        CheckBlock(
            "kappa-sign-constancy",
            float(crossings),
            float(crossings),
            0.0,
            crossings == 0,
            n_samples=n_samples,
            note="number of sign changes of kappa along the path",
        )
    )
    if volume_factor is not None:
        X = tr.hamiltonian_field(triple, traj.hamiltonian)
        div = ca.divergence(X, sample, as_field(volume_factor))
        accumulated = float(np.abs(np.sum(div) * traj.dt))
        worst = float(np.max(np.abs(div)))
        report.add(
            CheckBlock(
                "invariant-volume-divergence",
                worst,
                accumulated,
                div_tol,
                worst <= div_tol,
                n_samples=n_samples,
                note="mean field holds the accumulated integral of div along the path",
            )
        )
    if traj.halving_error is not None:
        report.meta["halving_error"] = traj.halving_error
    report.meta["rhs_evaluations"] = traj.rhs_evaluations
    report.meta["truncated"] = traj.truncated
    if traj.truncated:
        report.meta["truncated_at_step"] = traj.n_steps
        report.meta["truncation_cause"] = traj.cause
    return report


def trajectory_to_csv(traj: Trajectory, casimirs, path):
    """The states with F and the Casimirs along them, read through the trajectory's sample."""
    fields = [traj.hamiltonian, *(as_field(c) for c in casimirs)]
    header = ["t", "x1", "x2", "y1", "y2", "y3", "F"] + [f"casimir_{i}" for i in range(1, len(fields))]
    columns = [traj.times, *traj.states, *(jet.value for jet in traj.sample.jets(fields))]
    write_csv(path, header, columns)
