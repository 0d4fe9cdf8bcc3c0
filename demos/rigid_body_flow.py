"""Hamiltonian flow diagnostics on the cyclic vertical structure.

beta = (y1, y2, y3) gives the cyclic brackets {y1,y2} = y3 etc.; the flow of
F = y3 rotates the (y1, y2) plane and conserves the radius function.  The
script shows the RK4 drift budget and the fourth-order convergence of the
energy error under step halving.
"""

import numpy as np

from acpoisson import Connection, PoissonTriple, VerticalOneForm, ExprField
from acpoisson import flow as fl
from acpoisson.fields import ConstField

so3 = PoissonTriple(Connection.flat(), ConstField(0.0), VerticalOneForm(["y1", "y2", "y3"]))
radius2 = ExprField("y1^2 + y2^2 + y3^2")

traj = fl.integrate(so3, ExprField("y3"), [0, 0, 1, 0, 0], dt=1e-3, n=10000)
cv = radius2.at(traj.states, 0).value
print(f"rotation flow, 10^4 steps at dt = 1e-3")
print(f"  radius^2 drift      : {np.max(np.abs(cv - cv[0])):.3e}")
print(f"  final (y1, y2)      : {traj.states[2, -1]:+.6f}, {traj.states[3, -1]:+.6f}")
print(f"  exact    (cos, -sin): {np.cos(traj.times[-1]):+.6f}, {-np.sin(traj.times[-1]):+.6f}")

# a rigid-body style energy shows the O(dt^4) drift profile
F = ExprField("y1^2/2 + y2^2/3 + y3^2/4")
p0 = [0, 0, 1.0, 0.7, -0.4]
drifts = {}
for dt, n in ((0.02, 200), (0.01, 400), (0.005, 800)):
    t = fl.integrate(so3, F, p0, dt=dt, n=n)
    fv = F.at(t.states, 0).value
    drifts[dt] = np.max(np.abs(fv - fv[0]))
print("\nenergy drift under step halving (expect ratio ~ 16):")
for dt, d in drifts.items():
    print(f"  dt = {dt:<6} drift = {d:.3e}")
print(f"  ratios: {drifts[0.02] / drifts[0.01]:.1f}, {drifts[0.01] / drifts[0.005]:.1f}")

report = fl.conservation_report(so3, fl.integrate(so3, F, p0, dt=1e-3, n=2000),
                                casimirs=[radius2], casimir_tol=1e-9)
print("\nconservation report blocks:")
for block in report.blocks:
    print(f"  {block.check_id:28s} max {block.max_residual:.3e}  "
          f"{'pass' if block.passed else 'FAIL'}")
