"""
What the smoother choice buys on adapted meshes
===============================================

Rebuild the facet system on a sequence of adaptively refined meshes and
solve it with different relaxation schemes inside the AIR preconditioner
plus, separately, with the facet-block diagonal scaling switched off.
"""

from sthdg.air import RELAXATIONS
from sthdg.amr import amr_loop
from sthdg.cases import make_layer1d
from sthdg.hdg import assemble_blocks, condense
from sthdg.solving import SolverParams, solve_condensed

case = make_layer1d()
records = amr_loop(case, 1, cycles=6, n0=8, fraction=0.12)

header = f"{'unknowns':>9}" + "".join(f"{s:>18}" for s in RELAXATIONS)
print(header + f"{'no block scaling':>18}")

for rec in records:
    cs = condense(assemble_blocks(rec.mesh, 1, case.prob))
    row = [f"{cs.S.shape[0]:>9}"]
    for scheme in RELAXATIONS:
        params = SolverParams(relaxation=scheme)
        row.append(f"{solve_condensed(cs, params).iterations:>18}")
    noscale = SolverParams(scale_blocks=False)
    row.append(f"{solve_condensed(cs, noscale).iterations:>18}")
    print("".join(row))

# F-relaxation followed by a full forward sweep (the default) and the
# ordered block sweep both track the triangular structure; pointwise
# Jacobi does not, and dropping the block scaling costs iterations as
# the mesh degrades.  Driver:  sthdg relaxcompare --case layer1d
