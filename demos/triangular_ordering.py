"""
One ordered sweep solves the pure-advection system
==================================================

With nu = 0 every facet unknown depends only on facets upwind of it, so
the block dependency graph is acyclic: a topological sort exists and a
single ordered block Gauss-Seidel sweep is a direct solve.  Any amount
of diffusion couples both ways and the graph picks up cycles.
"""

from dataclasses import replace

import numpy as np

from sthdg.air import RelaxationPlan
from sthdg.cases import build_case_mesh, make_layer1d
from sthdg.hdg import assemble_blocks, condense
from sthdg.sparsela import BlockDiagonalScaling

case = make_layer1d()
mesh = build_case_mesh(case, 16, 16, mode="all_at_once")

for nu in (0.0, 1e-2):
    cs = condense(assemble_blocks(mesh, 1, replace(case.prob, nu=nu)))

    # scale by the facet-block diagonal first; ordering works on the
    # scaled operator, which is what the multigrid cycle sees
    scaling = BlockDiagonalScaling(cs.S, cs.facet_block_size)
    Ss, Hs = scaling.matrix, scaling.apply(cs.H)

    # the ordered sweep sorts the facet blocks topologically at setup
    plan = RelaxationPlan(Ss, "ordered_block_gs",
                          block_size=cs.facet_block_size)
    order = plan.ordering
    print(f"nu = {nu:g}: {len(order.order)} blocks, "
          f"complete = {order.complete}, "
          f"blocks in cycles = {len(order.cycle_blocks)}")

    x = plan.apply(Hs, np.zeros_like(Hs))
    res = np.linalg.norm(Hs - Ss @ x) / np.linalg.norm(Hs)
    print(f"          residual after one sweep: {res:.3e}")

# CSV version over several viscosities: the CLI solves each case as
# built, and layer1d exists only at nu = 0, so use pulse1d, with
# "nus = 0,1e-2" and "ladder = 16" under [experiment] in an INI file:
#     sthdg ordercheck --config that.ini --out results/
