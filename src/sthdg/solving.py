"""End-to-end solve drivers: assemble, condense, precondition, iterate.

The production path mirrors the intended solver pipeline: condense to
the facet system, scale on the left by the facet block-diagonal inverse,
build the AIR hierarchy on the scaled operator, and run preconditioned
BiCGSTAB.  Slab mode extracts one time slab at a time and hands each
slab's top trace to the next slab as the data on its ``tmin`` facets
(:attr:`~sthdg.hdg.ProblemSpec.initial`).

A solve has two steps.  :func:`prepare_operator` scales ``S`` and builds
the hierarchy; :func:`solve_condensed` scales one ``H`` with the kept
block inverses, iterates and reconstructs.  A slab march keys each slab
on the inputs of its operator (:func:`~sthdg.hdg.operator_key`: element
maps, facet geometry, side labels, topology and velocity values).  A
slab whose key equals the last fully assembled slab's forms only its
load (``elem_F``, ``G`` and ``H``) and reuses that slab's condensed and
prepared operator, so a march on a domain that does not change in time
assembles, condenses and sets up once.

This module is also the one stage clock: every solve returns a
``timings`` dict of wall seconds per stage, named after the call it
times (``hdg.assemble``, ``air.setup``, ...), filled by :func:`timed`
around the call sites.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from .air import RELAXATIONS, build_hierarchy
from .hdg import (assemble_blocks, assemble_load, condense, condense_load,
                  line_trace_evaluator, operator_key, reconstruct, st_l2_error)
from .krylov import SolverFailure, bicgstab
from .mesh import extract_slab
# the tracer in perfbench/tracing.py times block scaling under this name
from .sparsela import BlockDiagonalScaling as block_diag_inverse_scale

__all__ = ["SolverParams", "SolverFailure", "PreparedOperator",
           "CondensedSolve", "SlabSolution", "accepted", "prepare_operator",
           "solve_condensed", "solve_problem", "timed"]


@contextmanager
def timed(timings, stage):
    """Add the wall time of the ``with`` body to ``timings[stage]``."""
    t0 = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


# A converged solve must also have a true (unpreconditioned) relative
# residual within this factor of the tolerance on the preconditioned one.
TRUE_RESIDUAL_FACTOR = 100.0


def accepted(report, tol):
    """Whether a solve counts as converged at tolerance ``tol``.

    BiCGSTAB must converge and its true relative residual must be within
    ``TRUE_RESIDUAL_FACTOR * tol``.
    """
    return report.converged and report.true_residual <= TRUE_RESIDUAL_FACTOR * tol


# the values each scalar field annotation accepts (annotations are strings
# under ``from __future__ import annotations``)
_KINDS = {"float": Real, "int": Integral, "bool": bool, "str": str}


def _of_kind(value, kind):
    """Whether ``value`` is of ``kind`` (a ``_KINDS`` value): a bool is not
    taken for a number, nor a number or string for a bool."""
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def _check_field_types(obj, error):
    """Raise ``error(name, message)`` for the first field of the dataclass
    ``obj`` whose value is not of its scalar annotation (a ``_KINDS`` key);
    fields of any other annotation are not checked."""
    for f in fields(obj):
        kind, value = _KINDS.get(f.type), getattr(obj, f.name)
        if kind is not None and not _of_kind(value, kind):
            raise error(f.name, f"must be {f.type}, got {value!r}")


@dataclass
class SolverParams:
    """Every solver setting; a value of the wrong type or out of range is
    a ``ValueError`` whose message starts with the field's name."""

    tol: float = 1e-12
    maxiter: int = 5000
    relaxation: str = "f_then_all_fgs"
    theta_c: float = 0.2  # coarsening strength threshold
    theta_r: float = 0.3  # restriction neighborhood threshold
    scale_blocks: bool = True
    raise_on_failure: bool = True  # for library callers: no INI key

    def __post_init__(self):
        _check_field_types(self, lambda name, msg: ValueError(f"{name}: {msg}"))
        if not self.tol > 0:
            raise ValueError("tol: must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter: must be >= 1")
        if self.relaxation not in RELAXATIONS:
            raise ValueError(f"relaxation: must be one of {RELAXATIONS}")
        # a strength threshold is a fraction of the row maximum
        for key in ("theta_c", "theta_r"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key}: must lie in [0, 1]")


@dataclass
class PreparedOperator:
    """One condensed operator made ready to solve with, for any ``H``.

    ``matrix`` is the operator the iteration sees: the condensed ``S``
    after its left block ``scaling`` (None without one, and then ``S``
    itself).  ``hierarchy`` is the AIR hierarchy on ``matrix``.
    """

    matrix: object
    scaling: object  # BlockDiagonalScaling or None
    hierarchy: object

    def scale(self, H):
        """The right-hand side the iteration sees."""
        return H if self.scaling is None else self.scaling.apply(H)


@dataclass
class CondensedSolve:
    lam: np.ndarray
    U: np.ndarray
    report: object  # SolveReport
    hierarchy: object
    timings: dict  # stage name -> wall seconds

    @property
    def iterations(self):
        return self.report.iterations


def prepare_operator(cs, params, timings):
    """Block-scale ``cs.S`` unless ``params.scale_blocks`` is off, then
    build the AIR hierarchy on the result."""
    with timed(timings, "sparsela.block_scaling"):
        scaling = (block_diag_inverse_scale(cs.S, cs.facet_block_size)
                   if params.scale_blocks else None)
    matrix = cs.S if scaling is None else scaling.matrix
    with timed(timings, "air.setup"):
        hierarchy = build_hierarchy(matrix, params.theta_c, params.theta_r,
                                    params.relaxation, cs.facet_block_size)
    return PreparedOperator(matrix, scaling, hierarchy)


def solve_condensed(cs, params=None, callback=None, operator=None):
    """Solve one condensed facet system and reconstruct element unknowns.

    ``operator`` is the :class:`PreparedOperator` that
    :func:`prepare_operator` made of ``cs.S`` under the same ``params``;
    without one it is prepared here.  ``callback(lam_k, k)`` is forwarded
    to BiCGSTAB (full steps); the left scaling does not change the
    iterates' meaning, so callbacks see genuine facet coefficients.  With
    ``raise_on_failure`` a solve raises :class:`SolverFailure` unless it
    is :func:`accepted`.  The right-hand side is scaled inside the
    ``krylov.bicgstab`` stage.
    """
    params = params or SolverParams()
    timings = {}
    if operator is None:
        operator = prepare_operator(cs, params, timings)
    with timed(timings, "krylov.bicgstab"):
        lam, report = bicgstab(operator.matrix, operator.scale(cs.H),
                               operator.hierarchy.as_preconditioner(),
                               tol=params.tol, maxiter=params.maxiter,
                               callback=callback)
    if params.raise_on_failure and not accepted(report, params.tol):
        if not report.converged:
            raise SolverFailure(
                f"BiCGSTAB stopped at relative residual {report.final_residual:.3e} "
                f"after {report.iterations} iterations")
        raise SolverFailure(
            f"true relative residual {report.true_residual:.3e} exceeds "
            f"{TRUE_RESIDUAL_FACTOR:g} x tol ({params.tol:.1e}) "
            f"after {report.iterations} iterations")
    with timed(timings, "hdg.reconstruct"):
        U = reconstruct(cs, lam)
    return CondensedSolve(lam=lam, U=U, report=report,
                          hierarchy=operator.hierarchy, timings=timings)


@dataclass
class SlabSolution:
    slabs: list  # (slab_mesh, CondensedSolve)
    timings: dict  # stage name -> wall seconds, summed over the march

    @property
    def iterations(self):
        return max(self.iteration_list, default=0)

    @property
    def iteration_list(self):
        return [s.iterations for _, s in self.slabs]

    def error(self, p, exact):
        parts = [st_l2_error(sm, p, s.U, exact) for sm, s in self.slabs]
        return float(np.sqrt(np.sum(np.square(parts))))


def _condensed(mesh, p, prob, timings):
    """Assemble and condense the HDG system on ``mesh``, booking both."""
    with timed(timings, "hdg.assemble"):
        blocks = assemble_blocks(mesh, p, prob)
    with timed(timings, "hdg.condense"):
        return condense(blocks)


def solve_problem(mesh, p, prob, params=None):
    """Solve on ``mesh`` according to its mode.

    all_at_once: one global condensed solve; returns a CondensedSolve.
    slab: sequential per-slab solves; from the second slab on, the
    problem's ``initial`` is the previous slab's top trace.  Returns a
    SlabSolution.  A slab whose :func:`~sthdg.hdg.operator_key` (the bytes
    of every input of its operator, not the assembled ``S``) equals that
    of the last slab assembled in full forms only its load and is solved
    with that slab's condensed and prepared operator; any other slab is
    assembled, condensed and prepared in full.  ``params`` are fixed for
    the call, so they need no part in that comparison.  Either result's
    ``timings`` books every stage of the call, summed over all slabs in
    slab mode (block scaling and AIR setup once per prepared operator).
    """
    params = params or SolverParams()
    if mesh.mode != "slab":
        timings = {}
        cs = _condensed(mesh, p, prob, timings)
        sol = solve_condensed(cs, params)
        timings.update(sol.timings)
        sol.timings = timings
        return sol
    timings = Counter()
    slabs = []
    transfer = None
    key = None
    for n in range(mesh.n_slabs):
        with timed(timings, "mesh.extract_slab"):
            sub = extract_slab(mesh, n)
        sprob = prob if transfer is None else replace(prob, initial=transfer)
        with timed(timings, "hdg.assemble"):
            held, key = key, operator_key(sub, p, sprob)
            reuse = key == held
            if reuse:
                elem_F, G = assemble_load(blocks, sub, sprob)
            else:
                blocks = assemble_blocks(sub, p, sprob)
        with timed(timings, "hdg.condense"):
            cs = (replace(cs, mesh=sub, elem_F=elem_F,
                          H=condense_load(blocks, cs, elem_F, G))
                  if reuse else condense(blocks))
        if not reuse:
            operator = prepare_operator(cs, params, timings)
        sol = solve_condensed(cs, params, operator=operator)
        timings.update(sol.timings)
        slabs.append((sub, sol))
        with timed(timings, "hdg.trace"):
            transfer = line_trace_evaluator(sub, p, sol.U)
    return SlabSolution(slabs=slabs, timings=dict(timings))
