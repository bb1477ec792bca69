"""Gradient-recovery error indicators and the adapt-solve loop.

The indicator is the classical recovered-gradient discrepancy, applied to
the full space-time gradient (temporal component included): element
gradients of the reconstructed solution are averaged to vertices with
area weights, re-interpolated linearly, and the elementwise L2 distance
to the raw discrete gradient serves as the refinement indicator.
"""

from dataclasses import dataclass

import numpy as np

from . import cases, hdg, solving
from .basis import REF_VERTICES, triangle_basis
from .mesh import bisect_refine


def zz_estimate(mesh, U, p):
    """Recovered-gradient indicators eta_K, one per element, of solution U.

    The recovery averages adjacent-element space-time gradients at each
    vertex (area weights) and interpolates them linearly; eta_K is the
    L2(K) norm of the difference to the element gradient.  Exact on
    globally linear fields, so eta vanishes there.
    """
    ne = mesh.n_elements
    coeffs = U.reshape(ne, -1)
    detJ, Jinv = mesh.detJ, mesh.Jinv

    # element gradient at the three vertices, physical components (t, x)
    gref_v = triangle_basis(p).grad(REF_VERTICES)
    du_v = np.einsum("ei,vid,edc->evc", coeffs, gref_v, Jinv)

    nv = len(mesh.vertices)
    gsum = np.zeros((nv, 2))
    wsum = np.zeros(nv)
    for i in range(3):  # detJ, twice the area: the factor 2 cancels exactly
        np.add.at(gsum, mesh.elements[:, i], detJ[:, None] * du_v[:, i])
        np.add.at(wsum, mesh.elements[:, i], detJ)
    gvert = gsum / wsum[:, None]

    # assembly's quadrature rule and reference gradients at its points
    rq, rw, _, gref_q = hdg._tables(p)[:4]
    hat = np.stack([1.0 - rq[:, 0] - rq[:, 1], rq[:, 0], rq[:, 1]], axis=1)
    grec = np.einsum("qv,evc->eqc", hat, gvert[mesh.elements])
    du_q = np.einsum("ei,qid,edc->eqc", coeffs, gref_q, Jinv)
    diff2 = np.sum((grec - du_q) ** 2, axis=2)
    eta2 = np.einsum("q,eq->e", rw, diff2) * detJ
    return np.sqrt(np.maximum(eta2, 0.0))


def mark_fixed_fraction(eta, fraction):
    """Ids of the ceil(fraction * n) largest of the nonnegative indicators
    ``eta``, ties by lowest id."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    eta = np.asarray(eta, dtype=float)
    if (eta < 0).any():
        raise ValueError("indicators must be nonnegative")
    n = len(eta)
    if n == 0:
        raise ValueError("empty indicator field")
    k = int(np.ceil(fraction * n))
    order = np.lexsort((np.arange(n), -eta))
    return np.sort(order[:k])


@dataclass(frozen=True)
class AmrRecord:
    """One adapt-solve cycle: size, error, solver effort, mesh resolution,
    and the mesh it solved on."""

    cycle: int
    n_coupled: int
    l2_error: float
    iterations: int
    median_h: float
    mesh: object


def amr_loop(case, p, cycles, params=None, *, n0, fraction):
    """Run solve -> estimate -> mark -> refine for `cycles` rounds.

    Starts from a uniform n0 x n0 mesh of `case` and returns one
    :class:`AmrRecord` per solve (up to cycles + 1 total; cycles=0 is a
    single uniform solve).  n_coupled counts globally coupled facet
    unknowns.  The loop stops early once the global indicator reaches
    roundoff: past that point the field is numerical noise and marking
    on it would scatter refinement instead of concentrating it.
    """
    mesh = cases.build_case_mesh(case, n0, n0, mode="all_at_once")
    records = []
    for cycle in range(cycles + 1):
        sol = solving.solve_problem(mesh, p, case.prob, params)
        records.append(AmrRecord(
            cycle=cycle,
            n_coupled=len(sol.lam),
            l2_error=hdg.st_l2_error(mesh, p, sol.U, case.prob.exact),
            iterations=int(sol.iterations),
            median_h=float(np.median(mesh.element_h)),
            mesh=mesh,
        ))
        if cycle == cycles:
            break
        eta = zz_estimate(mesh, sol.U, p)
        if np.sqrt(np.sum(eta**2)) <= 1e-10 * (1.0 + np.abs(sol.U).max()):
            break
        marked = mark_fixed_fraction(eta, fraction)
        mesh = bisect_refine(mesh, marked)
    return records
