"""
A first tour: mesh, assembly, condensation, solve
=================================================

Walk the pieces of the toolkit one call at a time on a small diffusing
pulse, the same pipeline the drivers run at scale.
"""

import numpy as np

# a catalog case bundles the PDE data (viscosity, velocity, boundary
# values, exact solution) with the space-time box it lives on
from sthdg.cases import build_case_mesh, case_by_name

name = "pulse1d"
case = case_by_name(name, nu=1e-2)
print("case:", name, " nu =", case.prob.nu)

# the mesh is a triangulation of the (t, x) rectangle; every facet is a
# full space-time object, so "time stepping" is just a mesh mode
mesh = build_case_mesh(case, 16, 16, mode="all_at_once")
print("elements:", mesh.n_elements, " facets:", mesh.n_facets)

# assemble the four coupling blocks between element unknowns U and
# facet traces lambda, then eliminate U element-by-element
from sthdg.hdg import assemble_blocks, condense, reconstruct, st_l2_error

bs = assemble_blocks(mesh, 2, case.prob)
cs = condense(bs)
print("facet system:", cs.S.shape, "with", cs.S.nnz, "nonzeros")

# the condensed system is what the multigrid-preconditioned Krylov
# solver sees; reconstruction recovers the element solution afterwards
from sthdg.solving import solve_condensed

sol = solve_condensed(cs)
print("BiCGSTAB iterations:", sol.iterations)
print("AIR hierarchy levels:", sol.hierarchy.n_levels)

err = st_l2_error(mesh, 2, sol.U, case.prob.exact)
print("space-time L2 error: %.3e" % err)

# the one-call wrapper does all of the above; on a slab-mode mesh it
# marches slab by slab instead, transferring the outflow trace
from sthdg.solving import solve_problem

slab_mesh = build_case_mesh(case, 16, 16, mode="slab")
slab_sol = solve_problem(slab_mesh, 2, case.prob)
slab_err = slab_sol.error(2, case.prob.exact)
print("slab-by-slab error:   %.3e" % slab_err)
print("agreement: %.1e" % abs(err - slab_err))

# reconstruct() is also how you turn any facet iterate into an element
# field -- handy for looking at partially converged solutions
U1 = reconstruct(cs, np.zeros_like(sol.lam))
print("error of the zero trace: %.3e" % st_l2_error(mesh, 2, U1,
                                                    case.prob.exact))
