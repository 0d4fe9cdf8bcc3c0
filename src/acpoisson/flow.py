"""Fixed-step RK4 integration of Hamiltonian fields with conservation diagnostics.

The integrator is deliberately plain: classical fourth-order Runge-Kutta with
a uniform step, so drift reports are reproducible and scale as O(dt^4).  A
step-halving rerun provides the error estimate.
"""

from __future__ import annotations

import numpy as np

from . import calculus as ca
from . import strata as st
from . import triple as tr
from .errors import BadInput, DomainError
from .fields import as_field
from .reports import CheckBlock, VerificationReport, write_csv

# most RK4 steps in one trajectory, checked before its (5, steps + 1) states
# are allocated; the step-halving rerun takes twice as many
MAX_FLOW_STEPS = 10**6


class Trajectory:
    """Uniform-step trajectory of a Hamiltonian flow."""

    def __init__(self, times, states, hamiltonian, dt, truncated=False, halving_error=None):
        self.times = times
        self.states = states  # (5, n_steps+1)
        self.hamiltonian = hamiltonian
        self.dt = dt
        self.truncated = truncated
        self.halving_error = halving_error

    @property
    def n_steps(self):
        return self.states.shape[1] - 1


def _check_steps(n):
    if not 0 <= n <= MAX_FLOW_STEPS:
        raise BadInput(f"step count {n} is negative or more than {MAX_FLOW_STEPS}")


def _stage(rhs, p):
    """``rhs(p)`` at an intermediate RK4 stage, which may have left the finite range."""
    if not np.isfinite(p).all():
        raise DomainError("an RK4 stage left the finite range")
    return rhs(p)


def _rk4_path(rhs, p0, dt, n):
    states = np.zeros((5, n + 1))
    states[:, 0] = p0
    p = np.array(p0, dtype=float)
    truncated = False
    for k in range(n):
        try:
            k1 = rhs(p)
            k2 = _stage(rhs, p + 0.5 * dt * k1)
            k3 = _stage(rhs, p + 0.5 * dt * k2)
            k4 = _stage(rhs, p + dt * k3)
        except DomainError:
            states = states[:, : k + 1]
            truncated = True
            break
        p = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(p)):
            states = states[:, : k + 1]
            truncated = True
            break
        states[:, k + 1] = p
    return states, truncated


def integrate_batch(triple: tr.PoissonTriple, F, p0s, dt, n):
    """RK4 on a batch of starting points, shape (5, m); returns (5, m, n+1).

    All trajectories share the step sequence.  A domain error at any point of
    any stage raises :class:`~acpoisson.errors.DomainError`, naming the
    failing subexpression; no partial batch is returned.  Used for
    sweep-style diagnostics.
    """
    _check_steps(n)
    F = as_field(F)
    X = tr.hamiltonian_field(triple, F)
    p = np.array(p0s, dtype=float)
    out = [p.copy()]
    for _ in range(n):
        k1 = X.values(p)
        k2 = X.values(p + 0.5 * dt * k1)
        k3 = X.values(p + 0.5 * dt * k2)
        k4 = X.values(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(p.copy())
    return np.stack(out, axis=-1)


def integrate(triple: tr.PoissonTriple, F, p0, dt, n, halving_check=True) -> Trajectory:
    """RK4 trajectory of X_F from p0; optionally estimates error by step halving."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_steps(n)
    F = as_field(F)
    X = tr.hamiltonian_field(triple, F)
    rhs = lambda p: X.values(p)
    p0 = np.asarray(p0, dtype=float)
    states, truncated = _rk4_path(rhs, p0, dt, n)
    halving = None
    if halving_check and not truncated:
        fine, trunc2 = _rk4_path(rhs, p0, dt / 2.0, 2 * n)
        if not trunc2:
            halving = float(np.max(np.abs(states[:, -1] - fine[:, -1])))
    times = np.arange(states.shape[1]) * dt
    return Trajectory(times, states, F, dt, truncated=truncated, halving_error=halving)


def conservation_report(
    triple: tr.PoissonTriple,
    traj: Trajectory,
    casimirs=(),
    volume_factor=None,
    f_tol=1e-6,
    casimir_tol=1e-6,
    div_tol=1e-6,
) -> VerificationReport:
    """Drift of the Hamiltonian, of Casimirs, kappa-sign constancy, divergence."""
    report = VerificationReport(name="conservation")
    pts = traj.states
    fvals = traj.hamiltonian.at(pts, 0).value
    f_drift = float(np.max(np.abs(fvals - fvals[0])))
    report.add(
        CheckBlock("hamiltonian-drift", f_drift, f_drift, f_tol, f_drift <= f_tol, n_samples=pts.shape[1])
    )
    for i, c in enumerate(casimirs):
        c = as_field(c)
        cv = c.at(pts, 0).value
        drift = float(np.max(np.abs(cv - cv[0])))
        report.add(
            CheckBlock(
                f"casimir-{i + 1}-drift", drift, drift, casimir_tol, drift <= casimir_tol,
                n_samples=pts.shape[1],
            )
        )
    # kappa must not change sign along a flow started off its zero set
    path = st.as_sample(pts)
    kv = triple.kappa_values(path)
    tol = triple.kappa_tol(path)
    signs = np.sign(kv[np.abs(kv) > tol])
    crossings = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
    report.add(
        CheckBlock(
            "kappa-sign-constancy",
            float(crossings),
            float(crossings),
            0.0,
            crossings == 0,
            n_samples=pts.shape[1],
            note="number of sign changes of kappa along the path",
        )
    )
    if volume_factor is not None:
        X = tr.hamiltonian_field(triple, traj.hamiltonian)
        div = ca.divergence(X, pts, as_field(volume_factor))
        accumulated = float(np.abs(np.sum(div) * traj.dt))
        worst = float(np.max(np.abs(div)))
        report.add(
            CheckBlock(
                "invariant-volume-divergence",
                worst,
                accumulated,
                div_tol,
                worst <= div_tol,
                n_samples=pts.shape[1],
                note="mean field holds the accumulated integral of div along the path",
            )
        )
    if traj.halving_error is not None:
        report.meta["halving_error"] = traj.halving_error
    report.meta["truncated"] = traj.truncated
    return report


def trajectory_to_csv(traj: Trajectory, casimirs, path):
    casimirs = [as_field(c) for c in casimirs]
    header = ["t", "x1", "x2", "y1", "y2", "y3", "F"] + [f"casimir_{i + 1}" for i in range(len(casimirs))]
    columns = [traj.times, *traj.states, traj.hamiltonian.at(traj.states, 0).value]
    write_csv(path, header, columns + [c.at(traj.states, 0).value for c in casimirs])
