"""Algebraic multigrid with approximate ideal restriction (AIR).

Built for the nonsymmetric, advection-dominated facet systems coming out
of static condensation: restriction approximates the ideal operator

    R_ideal = [-A_cf A_ff^{-1},  I]

row by row from local neighborhood solves (distance-one lAIR), while
interpolation is the cheap one-point operator.  The neighborhood systems
are gathered with :func:`~sthdg.sparsela.csr_gatherer`, whose keys are
built once per level, and solved stacked, one solve per neighborhood
size.  Coarse operators are Galerkin triple products with independently
built R and P.  The cycle is V(0,1): restrict the residual, correct,
then one post-relaxation sweep (forward Gauss-Seidel on F-points
followed by all points, by default).

Strength of connection is decided once per level: one pass over the
level's matrix yields the graph for the coarsening threshold theta_c and
the one for the restriction threshold theta_r, and each setup step takes
the graph it reads.  The CF splitting is a plain ``int8`` label vector,
``C_POINT`` or ``F_POINT`` per row; the steps derive what else they need.
Its heap loop runs in the compiled ``rs_split`` of :mod:`sthdg._compiled`
where that can be built, else in Python, with the same labels.

Also provides the block topological ordering used to expose the lower
block-triangular structure of purely advective facet systems, and the
relaxation schemes (Jacobi, forward GS, F-then-all GS, ordered block GS).
All of them share one mechanism: a scheme is a list of stages, each a
point set and a matrix M factored once at setup, and a sweep updates
x[idx] += M^{-1} (b - A x)[idx] stage by stage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import _compiled
from .krylov import SolverFailure
from .sparsela import DenseLU, csr_gatherer, unit_lower_solver, validate_csr

__all__ = [
    "RELAXATIONS",
    "AirSetupError",
    "TopologicalOrder",
    "strength_graph",
    "rs_coarsen",
    "lair_restriction",
    "one_point_interpolation",
    "galerkin_coarse",
    "topological_block_order",
    "build_hierarchy",
    "AirHierarchy",
    "vcycle",
]

F_POINT = 0
C_POINT = 1

# the relaxation schemes :class:`RelaxationPlan` builds
RELAXATIONS = ("f_then_all_fgs", "fgs", "jacobi", "ordered_block_gs")


class AirSetupError(SolverFailure):
    """Setup cannot continue (e.g. coarsening stagnated on a large level)."""


def strength_graph(A, *thetas):
    """Magnitude-based strength of connection (nonsymmetric-safe).

    Returns one directed graph per threshold in ``thetas``, each a CSR
    matrix holding |a_ij| for the retained edges i -> j ("i strongly
    depends on j": |a_ij| >= theta * max_{k != i} |a_ik|), with no
    diagonal.  The row maxima are computed once for all thresholds.
    """
    A = validate_csr(A)
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = (A.indices != rows) & (A.data != 0)
    rows, cols, dat = rows[off], A.indices[off], np.abs(A.data[off])
    rowmax = np.zeros(n)
    np.maximum.at(rowmax, rows, dat)
    rowmax = rowmax[rows]
    graphs = []
    for theta in thetas:
        keep = dat >= theta * rowmax - 1e-300
        graphs.append(sp.csr_matrix((dat[keep], (rows[keep], cols[keep])),
                                    shape=(n, n)))
    return graphs


def rs_coarsen(S):
    """Classical Ruge-Stuben CF splitting on a CSR strength graph ``S``,
    returned as the ``int8`` label vector (``C_POINT``/``F_POINT`` per row).

    The measure of a point is the number of points that strongly depend
    on it.  The splitting repeatedly makes C the undecided point with the
    highest current measure, the lowest index among equal measures; its
    undecided dependents become F, and each remaining undecided
    dependency of such a new F-point gains one measure.  Points with no
    connections at all become F up front: relaxation solves their
    (diagonal) equations exactly, and keeping them off the coarse grids
    stops them from piling up level after level.

    A point becomes F only as a dependent of a new C-point, so every
    F-point with a strong dependency already has a C-dependency: the
    classical second pass, which would make C any F-point without one,
    never finds a candidate and is not run.

    Each heap entry is one integer, ``i - measure * n``, which orders
    exactly like ``(-measure, i)``.  Measures only grow, so a point's
    newest entry pops before its older ones, and an entry popped while
    its point is undecided is current.  The keys are unique, so any
    min-heap pops them in one sequence: the loop runs in the compiled
    ``rs_split`` (:mod:`sthdg._compiled`) and, where that is not
    available, in Python on native lists and memoryviews, about 9x
    slower, with bitwise the same labels.
    """
    n = S.shape[0]
    if S.shape != (n, n):  # rs_split reads rows and columns as points
        raise ValueError(f"strength graph must be square, not {S.shape}")
    ST = S.tocsc()
    n_infl = np.diff(ST.indptr)  # how many depend on me
    isolated = (np.diff(S.indptr) == 0) & (n_infl == 0)
    state = np.where(isolated, F_POINT, -1).astype(np.int8)
    split = _compiled.kernel("rs_split")
    if split is not None:  # ``arrays`` holds every buffer over the call
        arrays = [np.ascontiguousarray(a, dtype=np.intc) for a in
                  (S.indptr, S.indices, ST.indptr, ST.indices)]
        arrays += n_infl.astype(np.int64), state, np.empty(n + S.nnz, np.int64)
        split(n, *map(_compiled.address, arrays))
        return state
    sptr, sidx = memoryview(S.indptr), memoryview(S.indices)
    tptr, tidx = memoryview(ST.indptr), memoryview(ST.indices)
    state = state.tolist()
    measure = n_infl.tolist()
    heap = (np.arange(n, dtype=np.int64) - n_infl.astype(np.int64) * n).tolist()
    heappop, heappush = heapq.heappop, heapq.heappush
    heapq.heapify(heap)
    while heap:
        i = heappop(heap) % n
        if state[i] != -1:
            continue  # already C or F
        state[i] = C_POINT
        for k in tidx[tptr[i]:tptr[i + 1]]:  # dependents of i become F
            if state[k] != -1:
                continue
            state[k] = F_POINT
            # k now leans on its other dependencies: raise their priority
            for j in sidx[sptr[k]:sptr[k + 1]]:
                if state[j] == -1:
                    measure[j] = m = measure[j] + 1
                    heappush(heap, j - m * n)
    return np.array(state, dtype=np.int8)


def lair_restriction(A, labels, gR):
    """Distance-one local AIR restriction, as ``(R, fallbacks)``.

    Each C-point of the label vector ``labels`` gets a row of R (nc x n)
    that solves a small transposed neighborhood system so that (R A)
    vanishes on the strong F-neighborhood of the C-point, its F-neighbors
    in the restriction strength graph ``gR``.  ``A`` must be canonical
    CSR (see :func:`~sthdg.sparsela.validate_csr`).  The systems of all
    C-points with one neighborhood size are solved stacked; only if that
    raises (a member is exactly singular) is each solved alone, singular
    ones by least squares; ``fallbacks`` counts those.
    """
    cpts = np.flatnonzero(labels == C_POINT)
    nc = len(cpts)
    # strong F-neighbors of every C-point, concatenated row by row
    gC = gR[cpts]
    isf = labels[gC.indices] == F_POINT
    owner = np.repeat(np.arange(nc), np.diff(gC.indptr))[isf]
    nbr = gC.indices[isf]
    size = np.bincount(owner, minlength=nc)
    start = np.cumsum(size) - size
    w = np.empty(len(nbr))
    fallbacks = 0
    gather = csr_gatherer(A)
    for m in np.unique(size[size > 0]):
        grp = np.nonzero(size == m)[0]
        slots = start[grp][:, None] + np.arange(m)
        N = nbr[slots]
        AnnT = gather(N[:, None, :], N[:, :, None])
        ain = gather(cpts[grp][:, None], N)
        try:
            w[slots] = np.linalg.solve(AnnT, -ain[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for k in range(len(grp)):
                try:
                    w[slots[k]] = np.linalg.solve(AnnT[k], -ain[k])
                except np.linalg.LinAlgError:
                    w[slots[k]] = np.linalg.lstsq(AnnT[k], -ain[k],
                                                  rcond=1e-12)[0]
                    fallbacks += 1
    rows = np.concatenate([owner, np.arange(nc)])
    cols = np.concatenate([nbr, cpts])
    vals = np.concatenate([w, np.ones(nc)])
    R = validate_csr(sp.csr_matrix((vals, (rows, cols)), shape=(nc, A.shape[0])))
    return R, fallbacks


def one_point_interpolation(labels, S):
    """Each F-point of the label vector ``labels`` interpolates from its
    strongest C-neighbor in the strength graph ``S`` (n x nc)."""
    n = S.shape[0]
    si, sd = S.indices, np.abs(S.data)
    rows = np.repeat(np.arange(n), np.diff(S.indptr))
    # per-entry weight; non-C neighbors can never win
    w = np.where(labels[si] == C_POINT, sd, -1.0)
    rowmax = np.full(n, -1.0)
    np.maximum.at(rowmax, rows, w)
    # ties resolve to the lowest column index among the maximizers
    cand = np.where((w == rowmax[rows]) & (w >= 0.0), si, n)
    best = np.full(n, n)
    np.minimum.at(best, rows, cand)
    # C-points map to themselves; isolated F-points (best == n) get no entry
    src = np.where(labels == C_POINT, np.arange(n), best)
    ip = np.nonzero(src < n)[0]
    # position among the C-points (C_POINT is 1, F_POINT 0), read at C only
    coarse_index = np.cumsum(labels, dtype=np.int64) - 1
    P = sp.csr_matrix((np.ones(len(ip)), (ip, coarse_index[src[ip]])),
                      shape=(n, np.count_nonzero(labels == C_POINT)))
    return validate_csr(P)


def galerkin_coarse(R, A, P):
    """Exact triple product R A P (no dropping), canonical CSR."""
    return validate_csr(validate_csr(R @ A) @ P)


@dataclass
class TopologicalOrder:
    """Result of the block topological sort.

    ``order`` lists block indices in an admissible processing order; when
    ``complete`` is False, the matrix has block cycles and ``order`` is a
    topological order of the cycle condensation (cycle members listed
    ascending within their component).  ``cycle_blocks`` contains every
    block that sits in a nontrivial strongly connected component.
    """

    order: np.ndarray
    complete: bool
    cycle_blocks: np.ndarray


def topological_block_order(A, block_size):
    """Order blocks so the matrix becomes (block) lower triangular.

    A dependency edge j -> i exists when block (i, j), i != j, holds an
    entry with nonzero value; explicit zeros are ignored.
    Uses Kahn's algorithm with an index-min heap, so the order is
    deterministic; cycles are reported via strongly connected components.
    """
    A = validate_csr(A)
    n = A.shape[0]
    b = int(block_size)
    if n % b != 0:
        raise ValueError("matrix size not divisible by block size")
    nb = n // b
    coo = A.tocoo()
    bi = coo.row // b
    bj = coo.col // b
    keep = (bi != bj) & (np.abs(coo.data) > 0.0)
    # unique block edges j -> i  (i depends on j)
    eij = np.unique(bi[keep] * nb + bj[keep])
    src = (eij % nb).astype(np.int64)  # j
    dst = (eij // nb).astype(np.int64)  # i
    G = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(nb, nb))
    ncomp, comp = csgraph.connected_components(G, directed=True,
                                               connection="strong")
    sizes = np.bincount(comp, minlength=ncomp)
    cycle_blocks = np.nonzero(sizes[comp] > 1)[0]
    complete = len(cycle_blocks) == 0
    # Kahn on the condensation (identical to the block graph when acyclic)
    csrc, cdst = comp[src], comp[dst]
    keep2 = csrc != cdst
    CG = sp.csr_matrix((np.ones(np.count_nonzero(keep2)),
                        (csrc[keep2], cdst[keep2])), shape=(ncomp, ncomp))
    CG.sum_duplicates()
    indeg = np.asarray((CG > 0).sum(axis=0)).ravel()
    srt = np.argsort(comp, kind="stable")
    starts = np.cumsum(sizes) - sizes
    first = srt[starts]
    members = np.split(srt, starts[1:])
    heap = [(first[c], c) for c in range(ncomp) if indeg[c] == 0]
    heapq.heapify(heap)
    order = []
    CGb = (CG > 0).tocsr()
    while heap:
        _, c = heapq.heappop(heap)
        order.extend(members[c])
        for d in CGb.indices[CGb.indptr[c]:CGb.indptr[c + 1]]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(heap, (first[d], d))
    return TopologicalOrder(order=np.asarray(order, dtype=np.int64),
                            complete=complete,
                            cycle_blocks=cycle_blocks)


# -- relaxation ---------------------------------------------------------


class RelaxationPlan:
    """Prebuilt data for one relaxation scheme on a fixed matrix.

    Every scheme is a short list of stages ``(idx, solve)``, where ``idx``
    selects the points a stage updates (all points, the F-points, or the
    block permutation) and ``solve`` applies M^{-1} for a stage matrix M
    factored once here (see :func:`_factored_solve`).  One sweep runs each
    stage in turn as

        r = b - A x;  x[idx] += M^{-1} r[idx]

    Schemes and their stage matrices:

    - ``jacobi``: diag A on all points;
    - ``fgs`` (forward Gauss-Seidel): tril A on all points;
    - ``f_then_all_fgs``: tril A_FF on the F-points, then tril A on all
      points;
    - ``ordered_block_gs`` (forward block GS in a topological block
      order): the block lower triangle of A[perm][:, perm], applied at
      ``perm``, from the :class:`TopologicalOrder` kept as ``ordering``
      (None for the pointwise schemes).
    """

    def __init__(self, A, scheme, labels=None, *, block_size):
        A = validate_csr(A)
        self.A = A
        self.ordering = None
        every = slice(None)
        if scheme == "jacobi":
            stages = [(every, sp.diags(A.diagonal()), 1)]
        elif scheme == "fgs":
            stages = [(every, sp.tril(A), 1)]
        elif scheme == "f_then_all_fgs":
            if labels is None:
                raise ValueError("f_then_all_fgs requires a CF splitting")
            f = np.flatnonzero(labels == F_POINT)
            stages = [(f, sp.tril(A[f][:, f]), 1), (every, sp.tril(A), 1)]
        elif scheme == "ordered_block_gs":
            b = block_size
            self.ordering = topological_block_order(A, b)
            perm = (self.ordering.order[:, None] * b + np.arange(b)).ravel()
            coo = A[perm][:, perm].tocoo()
            keep = (coo.row // b) >= (coo.col // b)  # block lower triangle
            M = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                              shape=A.shape)
            stages = [(perm, M, b)]
        else:
            raise ValueError(f"unknown relaxation scheme {scheme!r}")
        self.stages = [(idx, _factored_solve(M, b)) for idx, M, b in stages]

    def apply(self, b, x):
        """One sweep; returns the updated iterate (input not modified)."""
        x = x.copy()
        for idx, solve in self.stages:
            r = b - self.A @ x
            x[idx] += solve(r[idx])
        return x


def _factored_solve(M, block_size):
    """Factor the stage matrix M once and return ``r -> M^{-1} r``.

    A pointwise M (``block_size`` 1) is lower triangular or diagonal and is
    stored as M = L D with L unit lower triangular, so a solve is one
    forward substitution (:func:`~sthdg.sparsela.unit_lower_solver`) and a
    scaling.  This keeps nothing beyond M's own entries, whereas a SuperLU
    factor holds storage sized for fill, many times nnz(M); every level of
    every retained hierarchy holds its plans, so that would multiply the
    solver's memory.  Block matrices are factored by SuperLU in natural
    order, with partial pivoting inside the diagonal blocks.
    """
    if block_size > 1:
        lu = spla.splu(M.tocsc(), permc_spec="NATURAL",
                       options={"SymmetricMode": False})
        return lu.solve
    d = M.diagonal()
    if np.any(d == 0):
        raise ValueError("relaxation requires a nonzero diagonal")
    dinv = 1.0 / d
    L = sp.csc_matrix(M, copy=True)
    L.data *= np.repeat(dinv, np.diff(L.indptr))  # column scaling: M D^{-1}
    L.sum_duplicates()  # canonical: each column's diagonal comes first
    solve_l = unit_lower_solver(L)
    return lambda r: solve_l(r) * dinv


# -- hierarchy ----------------------------------------------------------


# coarsening stops at this many rows (dense LU there) or this many levels
MAX_COARSE = 40
MAX_LEVELS = 25


@dataclass
class AirLevel:
    A: sp.csr_matrix
    R: Optional[sp.csr_matrix]
    P: Optional[sp.csr_matrix]
    labels: Optional[np.ndarray]  # C_POINT / F_POINT per row
    plan: Optional[RelaxationPlan]


@dataclass
class AirHierarchy:
    levels: list
    coarse_lu: DenseLU
    lair_fallbacks: int

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def grid_complexity(self):
        return sum(l.A.shape[0] for l in self.levels) / self.levels[0].A.shape[0]

    @property
    def operator_complexity(self):
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz

    def as_preconditioner(self):
        """Single-V-cycle application suitable for Krylov preconditioning."""
        return lambda r: vcycle(self, r)


def build_hierarchy(A, theta_c, theta_r, relaxation, block_size):
    """Set up the AIR hierarchy for ``A``.

    ``theta_c`` and ``theta_r`` are the coarsening and restriction
    strength thresholds, ``relaxation`` names the scheme of every level
    and ``block_size`` is its block size on the finest level.
    Coarsening stops at ``MAX_COARSE`` rows (dense LU there).  If the CF
    splitting stagnates (all C or all F), the level is sent to the dense
    solver when small enough, otherwise setup fails with
    :class:`AirSetupError`.
    """
    A = validate_csr(A)
    levels = []
    fallbacks = 0
    while A.shape[0] > MAX_COARSE and len(levels) < MAX_LEVELS - 1:
        g, gR = strength_graph(A, theta_c, theta_r)
        labels = rs_coarsen(g)
        nc = np.count_nonzero(labels == C_POINT)
        if nc == A.shape[0] or nc == 0:
            if A.shape[0] <= 4 * MAX_COARSE:
                break  # close enough: hand to the dense coarse solver
            raise AirSetupError(
                f"coarsening stagnated at n={A.shape[0]} (n_coarse={nc})")
        R, nfall = lair_restriction(A, labels, gR)
        fallbacks += nfall
        P = one_point_interpolation(labels, g)
        bsize = block_size if not levels else 1
        plan = RelaxationPlan(A, relaxation, labels, block_size=bsize)
        levels.append(AirLevel(A=A, R=R, P=P, labels=labels, plan=plan))
        A = galerkin_coarse(R, A, P)
    levels.append(AirLevel(A=A, R=None, P=None, labels=None, plan=None))
    return AirHierarchy(levels=levels, coarse_lu=DenseLU(A.toarray()),
                        lair_fallbacks=fallbacks)


def vcycle(h: AirHierarchy, b, x=None, level=0):
    """One V(0,1) cycle: coarse-grid correction then post-relaxation."""
    lev = h.levels[level]
    if level == h.n_levels - 1:
        return h.coarse_lu.solve(b)
    if x is None:
        r = b
        x = np.zeros_like(b)
    else:
        r = b - lev.A @ x
    xc = vcycle(h, lev.R @ r, None, level + 1)
    x = x + lev.P @ xc
    return lev.plan.apply(b, x)
