"""
Adaptive refinement chasing a characteristic layer
==================================================

A step advected along x = t has a discontinuity the uniform mesh can
only smear.  Drive newest-vertex bisection with the gradient-recovery
indicator and the refinement piles onto the layer; once enough facets
align with it the discrete solution is exact and the loop stops by
itself.
"""

import numpy as np

from sthdg.amr import amr_loop
from sthdg.cases import build_case_mesh, make_layer1d
from sthdg.hdg import st_l2_error
from sthdg.solving import solve_problem

case = make_layer1d()

records = amr_loop(case, 1, cycles=6, n0=8, fraction=0.05)
print("adaptive loop:")
print(f"{'cycle':>5} {'unknowns':>9} {'L2 error':>12} {'median h':>10}")
for r in records:
    print(f"{r.cycle:>5} {r.n_coupled:>9} {r.l2_error:>12.3e} "
          f"{r.median_h:>10.4f}")

# where did the elements go?  count how many of the smaller-than-median
# elements sit on the front (crossing x = t, or within one diameter of
# it -- bisection leaves half the children flush against the line)
mesh = records[-1].mesh
signed = (mesh.vertices[mesh.elements][:, :, 1] -
          mesh.vertices[mesh.elements][:, :, 0]) / np.sqrt(2.0)
onband = ((signed.min(axis=1) <= 0) & (signed.max(axis=1) >= 0)) | \
    (np.abs(signed).min(axis=1) <= mesh.element_h)
small = mesh.element_h < np.median(mesh.element_h)
print(f"\nsmall elements on the layer: {onband[small].mean():.0%}")

# uniform refinement for contrast: four times the unknowns per halving,
# and the error creeps because the layer is never resolved
print("\nuniform ladder:")
for n in (8, 16, 32):
    m = build_case_mesh(case, n, n, mode="all_at_once")
    sol = solve_problem(m, 1, case.prob)
    err = st_l2_error(m, 1, sol.U, case.prob.exact)
    print(f"  n={n:<3} unknowns={len(sol.lam):<6} error={err:.3e}")

# driver form (also writes amr_uniform.csv for the comparison):
#     sthdg amr --case layer1d --out results/
