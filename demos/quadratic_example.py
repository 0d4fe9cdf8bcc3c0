"""Walk through the built-in quadratic example.

The triple has connection components gamma_i^a = -1 for a in {2, 3},
kappa = y1^2 - x1^2 - x2^2 and beta = y1^2 eta^1.  The script assembles the
bivector, confirms it is Poisson two ways, looks at its rank strata and at
its modular vector field.
"""

import numpy as np

from acpoisson import (
    Connection,
    PoissonTriple,
    VerticalOneForm,
    ExprField,
    equivalence_check,
    halton_points,
    modular_direct,
)
from acpoisson import strata as st

conn = Connection([["0", "-1", "-1"], ["0", "-1", "-1"]])
T = PoissonTriple(
    conn, ExprField("y1^2 - x1^2 - x2^2"), VerticalOneForm(["y1^2", "0", "0"])
)

probe = np.array([0.5, -1.0, 1.5, 0.2, 0.8])
print(f"assembled coordinate components at {probe.tolist()}:")
print(f"  (kappa there is {float(T.kappa_values(probe)):+.4f})")
for pair, field in sorted(T.pi_matrix().items()):
    print(f"  Pi[{pair}] = {float(field.at(probe, 0).value):+.4f}")

pts = halton_points(1000, [(-2, 2)] * 5)
report = equivalence_check(T, pts)
print(f"\nintegrability max residual : {report.block('integrability').max_residual:.3e}")
print(f"jacobiator max residual    : {report.block('jacobiator').max_residual:.3e}")
print(f"verdicts agree everywhere  : {not report.disagreements}")

print("\nrank strata on a coarse grid:")
samples = st.sample_box([(-2, 2)] * 5, generator="grid", resolution=3)
_, counts, _ = st.strata_columns(T, samples)
for label, count in sorted(counts.items()):
    print(f"  {label:18s} {count}")

# the modular field relative to the chart volume is linear in the base slot:
# 2 x1 hor_2 - 2 x2 hor_1
for x1, x2 in ((1.0, 2.0), (-0.5, 0.25)):
    p = np.array([x1, x2, 0.3, -0.1, 0.9])
    print(f"\nmodular field at x=({x1}, {x2}): {modular_direct(T, None, p)}")

# kappa changes sign, so no globally nonvanishing factor can certify an
# invariant volume: the factorization check fails for any candidate
from acpoisson.fields import ConstField
from acpoisson import modular as mo

cert = mo.UnimodularityCertificate(h=ConstField(0.0), K=ExprField("1 + x1^2"))
rep = mo.unimod_global_check(T, cert, pts)
print(f"\nglobal certificate K = 1 + x1^2 factorization passes: "
      f"{rep.block('kappa-factorization').passed} (expected False)")
