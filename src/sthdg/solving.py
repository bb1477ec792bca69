"""End-to-end solve drivers: assemble, condense, precondition, iterate.

The production path mirrors the intended solver pipeline: condense to
the facet system, scale on the left by the facet block-diagonal inverse,
build the AIR hierarchy on the scaled operator, and run preconditioned
BiCGSTAB.  Slab mode extracts one time slab at a time and hands each
slab's top trace to the next slab as inflow-like Neumann data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .air import AirParams, build_hierarchy
from .hdg import (assemble_blocks, condense, line_trace_evaluator, reconstruct,
                  st_l2_error)
from .krylov import bicgstab
from .mesh import extract_slab
from .sparsela import DenseLU, block_diag_inverse_scale

__all__ = ["SolverParams", "SolverFailure", "CondensedSolve", "SlabSolution",
           "accepted", "scaled_system", "solve_condensed", "solve_problem"]


class SolverFailure(RuntimeError):
    """The linear solver did not reach the requested tolerance."""


# A converged solve must also have a true (unpreconditioned) relative
# residual within this factor of the tolerance on the preconditioned one.
TRUE_RESIDUAL_FACTOR = 100.0


def accepted(report, tol):
    """Whether a solve counts as converged at tolerance ``tol``.

    BiCGSTAB must converge and its true relative residual must be within
    ``TRUE_RESIDUAL_FACTOR * tol``; a dense solve (``report`` None) always
    counts.
    """
    return report is None or (
        report.converged and report.true_residual <= TRUE_RESIDUAL_FACTOR * tol)


@dataclass
class SolverParams:
    method: str = "air_bicgstab"  # or "dense"
    tol: float = 1e-12
    maxiter: int = 5000
    scale_blocks: bool = True
    air: AirParams = field(default_factory=AirParams)
    raise_on_failure: bool = True


@dataclass
class CondensedSolve:
    lam: np.ndarray
    U: np.ndarray
    report: object  # SolveReport or None for the dense path
    hierarchy: object
    timings: dict

    @property
    def iterations(self):
        return self.report.iterations if self.report is not None else 0


def scaled_system(cs, scale_blocks=True):
    """The facet system ``(S, H)`` the iteration sees.

    With ``scale_blocks`` both are scaled on the left by the inverse facet
    diagonal blocks; otherwise they are returned as condensed.
    """
    if not scale_blocks:
        return cs.S, cs.H
    scaling = block_diag_inverse_scale(cs.S, cs.facet_block_size)
    return scaling.matrix, scaling.apply(cs.H)


def solve_condensed(cs, params=None, callback=None):
    """Solve one condensed facet system and reconstruct element unknowns.

    ``callback(lam_k, k)`` is forwarded to BiCGSTAB (full steps); the
    left scaling does not change the iterates' meaning, so callbacks see
    genuine facet coefficients.  With ``raise_on_failure`` a solve raises
    :class:`SolverFailure` unless it is :func:`accepted`.
    """
    params = params or SolverParams()
    timings = {}
    t0 = time.perf_counter()
    if params.method == "dense":
        lam = DenseLU(cs.S.toarray()).solve(cs.H)
        timings["solve_seconds"] = time.perf_counter() - t0
        U = reconstruct(cs, lam)
        return CondensedSolve(lam=lam, U=U, report=None, hierarchy=None,
                              timings=timings)
    if params.method != "air_bicgstab":
        raise ValueError(f"unknown solver method {params.method!r}")
    Ss, Hs = scaled_system(cs, params.scale_blocks)
    air = params.air
    if air.block_size != cs.facet_block_size:
        air = replace(air, block_size=cs.facet_block_size)
    hierarchy = build_hierarchy(Ss, air)
    timings["setup_seconds"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    lam, report = bicgstab(Ss, Hs, hierarchy.as_preconditioner(),
                           tol=params.tol, maxiter=params.maxiter,
                           callback=callback)
    timings["solve_seconds"] = time.perf_counter() - t1
    if params.raise_on_failure and not accepted(report, params.tol):
        if not report.converged:
            raise SolverFailure(
                f"BiCGSTAB stopped at relative residual {report.final_residual:.3e} "
                f"after {report.iterations} iterations")
        raise SolverFailure(
            f"true relative residual {report.true_residual:.3e} exceeds "
            f"{TRUE_RESIDUAL_FACTOR:g} x tol ({params.tol:.1e}) "
            f"after {report.iterations} iterations")
    t2 = time.perf_counter()
    U = reconstruct(cs, lam)
    timings["reconstruct_seconds"] = time.perf_counter() - t2
    return CondensedSolve(lam=lam, U=U, report=report, hierarchy=hierarchy,
                          timings=timings)


@dataclass
class SlabSolution:
    mesh: object
    slabs: list  # (slab_mesh, CondensedSolve)
    mode: str

    @property
    def iterations(self):
        its = [s.iterations for _, s in self.slabs]
        return max(its) if its else 0

    @property
    def iteration_list(self):
        return [s.iterations for _, s in self.slabs]

    def error(self, p, exact):
        parts = [st_l2_error(sm, p, s.U, exact) for sm, s in self.slabs]
        return float(np.sqrt(np.sum(np.square(parts))))


def _slab_neumann(base, transfer):
    """Dispatch inflow data: slab-bottom facets read the previous trace."""

    def g_n(points, normals):
        pts = np.atleast_2d(points)
        nrm = np.atleast_2d(normals)
        out = (np.asarray(base(pts, nrm), dtype=float) if base is not None
               else np.zeros(len(pts)))
        bottom = nrm[:, 0] < -0.5
        if transfer is not None and bottom.any():
            out[bottom] = transfer(pts[bottom])
        return out

    return g_n


def solve_problem(mesh, p, prob, params=None, callback=None):
    """Solve on ``mesh`` according to its mode.

    all_at_once: one global condensed solve; returns a CondensedSolve.
    slab: sequential per-slab solves with trace transfer; returns a
    SlabSolution whose per-slab systems reuse the same solver settings.
    """
    params = params or SolverParams()
    if mesh.mode != "slab":
        cs = condense(assemble_blocks(mesh, p, prob))
        return solve_condensed(cs, params, callback=callback)
    slabs = []
    transfer = None
    for n in range(mesh.n_slabs):
        sub, _, _ = extract_slab(mesh, n)
        sprob = replace(prob, neumann=_slab_neumann(prob.neumann, transfer))
        cs = condense(assemble_blocks(sub, p, sprob))
        sol = solve_condensed(cs, params)
        slabs.append((sub, sol))
        transfer = line_trace_evaluator(sub, p, sol.U, side="tmax")
    return SlabSolution(mesh=mesh, slabs=slabs, mode="slab")
