"""Hybridized DG discretization of space-time advection-diffusion.

The PDE ``u_t + a u_x - nu u_xx = f`` is discretized on a space-time
triangulation as a steady advection-diffusion problem in the space-time
velocity ``(1, a)``: element unknowns ``u`` live in P_p per triangle and
facet unknowns ``lambda`` in P_p per facet segment.  The facet flux

    sigma(u, lambda) = a_n^+ u + a_n^- lambda            (upwind advective)
                       - nu du/dx n_x
                       + (nu n_x^2 alpha/h)(u - lambda)  (IP diffusive)

with ``a_n = n_t + a n_x`` and penalty ``alpha = 10 p^2`` couples the two
spaces; the diffusive gradient is spatial only (the space-time diffusion
tensor is diag(0, nu), whose facet-normal component nu n_x^2 weights the
penalty), so time stepping is upwinding through the mesh.

Boundary conditions come from the problem, read once per assembly from
the mesh's side labels: ``tmin`` facets are inflow-like Neumann, carrying
``-zeta u a_n + nu u_x n_x = g_N`` weakly (``g_N`` from
:attr:`ProblemSpec.initial` when the problem gives it, else from
``neumann``), ``tmax`` facets are the vacuous outflow Neumann surface,
and a spatial side is Neumann when :attr:`ProblemSpec.neumann_sides`
names it and Dirichlet otherwise.  Dirichlet data is eliminated (lifted
into the right-hand side).

Assembly produces per-element dense blocks plus the facet-coupled blocks
of the saddle system

    [A  B] [U     ]   [F]
    [C  D] [Lambda] = [G]

and :func:`condense` eliminates ``U`` element by element to the facet
Schur complement ``S = D - C A^{-1} B``, ``H = G - C A^{-1} F``.

Both steps come in two parts.  The operator part (:class:`BlockOperator`:
``A``, ``B``, ``C``, ``D``, the coupled and loose facets, and per facet
group the operands the data is contracted with; :class:`CondensedOperator`:
the element inverses, the gather index and ``S``) reads only what
:func:`operator_key` holds as bytes: the element maps, facet geometry,
side labels and topology, the velocity at the quadrature points, ``p``,
``nu`` and the Neumann sides.  The load part (:func:`assemble_load`:
``F`` from the source and the Dirichlet lift, ``G`` from the Neumann-like
data; :func:`condense_load`: ``H``) adds the problem's data.
:func:`assemble_blocks` and :func:`condense` run both parts; a slab march
runs only the load part for a slab whose key it has met.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .basis import REF_VERTICES, segment_basis, triangle_basis, tri_space_dim
from .mesh import _LOCAL_EDGES, _SIDE_ID
from .quadrature import segment_rule, triangle_rule
from .sparsela import SingularBlockError, block_diag_csr, validate_csr

__all__ = [
    "ProblemSpec",
    "BlockOperator",
    "BlockSystem",
    "CondensedOperator",
    "CondensedSystem",
    "default_penalty",
    "operator_key",
    "assemble_blocks",
    "assemble_load",
    "condense",
    "condense_load",
    "reconstruct",
    "st_l2_error",
    "line_trace_evaluator",
    "lambda_dof_positions",
]


def default_penalty(p: int) -> float:
    """Interior-penalty constant alpha = 10 p^2."""
    return 10.0 * p * p


@dataclass
class ProblemSpec:
    """Data defining one advection-diffusion problem.

    ``velocity`` may be a constant or a callable on (n, 2) space-time
    points; ``neumann`` receives points and the matching outward normals
    and must implement the inflow-trace formula for manufactured data.
    ``initial`` maps points on the facets labelled ``tmin`` to their data
    (a slab march passes the previous slab's top trace); ``None`` leaves
    that data to ``neumann``, and a ``None`` ``neumann`` means zero data.
    ``neumann_sides`` names the spatial sides (``xlo``, ``xhi``) that
    carry Neumann data; the others are Dirichlet.
    """

    nu: float
    velocity: object = 1.0
    source: Optional[Callable] = None
    dirichlet: Optional[Callable] = None
    neumann: Optional[Callable] = None
    exact: Optional[Callable] = None
    exact_grad: Optional[Callable] = None  # rows (u_t, u_x)
    initial: Optional[Callable] = None
    neumann_sides: tuple = ()

    def __post_init__(self):
        for s in self.neumann_sides:
            if s not in ("xlo", "xhi"):
                raise ValueError(f"neumann_sides may only name spatial sides, got {s!r}")


@lru_cache(maxsize=None)
def _tables(p: int):
    """Reference quadrature/basis/trace tables for degree p."""
    rq, rw = triangle_rule(2 * p + 2)
    tb = triangle_basis(p)
    phi = tb.eval(rq)
    gref = tb.grad(rq)
    s, wf = segment_rule(2 * p + 2)
    psi = segment_basis(p).eval(s)
    traces = {}
    for la, lb in permutations(range(3), 2):
        pts = np.outer(1.0 - s, REF_VERTICES[la]) + np.outer(s, REF_VERTICES[lb])
        traces[(la, lb)] = (tb.eval(pts), tb.grad(pts))
    return rq, rw, phi, gref, s, wf, psi, traces


@lru_cache(maxsize=256)
def _einsum_path(subscripts, *shapes):
    ops = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *ops, optimize=True)[0]


def _einsum(subscripts, *operands):
    """``np.einsum(..., optimize=True)`` with the contraction path memoised
    on the subscripts and operand shapes.  The path depends on nothing
    else, so the blocks are bitwise those of ``optimize=True``.  The memo
    saves the path search, but ``np.einsum`` still parses the subscripts
    on every call; :func:`assemble_load`, which a march runs on every
    slab, therefore writes its contractions as the matrix products that
    their paths run.  The two contractions over the reference axis ``d``,
    of ``G`` and ``Gxt``, are written out as the two products and the sum
    that plain ``np.einsum`` makes, at a third of its time."""
    path = _einsum_path(subscripts, *(np.shape(op) for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def _facet_side_groups(mesh):
    """Facet sides grouped by the (local index of low, high vertex) pair.

    Members run side 0 before side 1, then by facet; groups by their first
    member's side, then by key.  Assembly accumulates in this order.
    """
    sides, fids = np.nonzero(mesh.facet_elems.T >= 0)
    kids = mesh.facet_elems[fids, sides]
    locs = mesh.facet_locals[fids, sides]
    i, j = np.asarray(_LOCAL_EDGES)[locs].T
    first = mesh.elements[kids, i] == mesh.facets[fids, 0]
    key = np.where(first, i * 3 + j, j * 3 + i)
    order = np.argsort(key, kind="stable")
    fids, kids, locs, sides, key = (a[order] for a in (fids, kids, locs, sides, key))
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(key)]
    lead = np.lexsort((key[starts], sides[starts]))
    return {divmod(int(key[a]), 3): (fids[a:b], kids[a:b], locs[a:b], sides[a:b])
            for a, b in zip(starts[lead], ends[lead])}


def _facet_points(mesh, fids, s):
    """Points (len(fids), len(s), 2) at parameters ``s`` along facets ``fids``."""
    pa = mesh.vertices[mesh.facets[fids, 0]]
    pb = mesh.vertices[mesh.facets[fids, 1]]
    return pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]


def _velocities(mesh, p, prob):
    """The velocity at every element and every facet quadrature point,
    (ne, nq) and (nf, nqf).  A constant velocity is filled in without
    the points."""
    rq, _, _, _, sseg, _, _, _ = _tables(p)
    shapes = ((mesh.n_elements, len(rq)), (mesh.n_facets, len(sseg)))
    if not callable(prob.velocity):
        return tuple(np.full(shape, float(prob.velocity)) for shape in shapes)
    points = (mesh.element_points(rq), _facet_points(mesh, slice(None), sseg))
    return tuple(np.asarray(prob.velocity(X.reshape(-1, 2)), dtype=float).reshape(shape)
                 for X, shape in zip(points, shapes))


def operator_key(mesh, p, prob):
    """Everything the operator part of :func:`assemble_blocks` reads, as bytes.

    That is ``p``, ``prob.nu`` and ``prob.neumann_sides``; the element
    maps, facet lengths and normals, side labels, ``element_h`` and
    topology arrays of ``mesh``; and the velocity at every element and
    facet quadrature point.  Two (mesh, problem) pairs with equal keys
    have bitwise-equal operator parts, whatever their source, boundary
    and initial data.
    """
    arrays = (mesh.Jinv, mesh.detJ, mesh.element_h, mesh.facet_lengths,
              mesh.facet_normals, mesh.boundary_sides, mesh.elements,
              mesh.facets, mesh.elem_facets, mesh.facet_elems,
              mesh.facet_locals, *_velocities(mesh, p, prob))
    return (p, float(prob.nu), tuple(prob.neumann_sides),
            *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


@dataclass
class BlockOperator:
    """The operator part of an assembled system: every block but the load.

    ``dirichlet`` and ``neumann`` keep, per facet side group, the
    operands that :func:`assemble_load` contracts with a problem's data.
    """

    mesh: object
    p: int
    nV: int
    facet_block_size: int
    elem_A: np.ndarray  # (ne, nV, nV)
    elem_B: np.ndarray  # (ne, 3, nV, nM), zero on Dirichlet edges
    elem_C: np.ndarray  # (ne, 3, nM, nV)
    elem_facet_block: np.ndarray  # (ne, 3) facet block column or -1
    D: sp.csr_matrix
    coupled_facets: np.ndarray
    loose_facets: np.ndarray  # coupled facets whose traces are pinned to 0
    dirichlet: list  # (TV, fids, kids, wmi, wnx, Gxt) of the Dirichlet facets
    neumann: list  # (fids, normals, w2) of the Neumann-like facets

    @property
    def n_lambda(self):
        return len(self.coupled_facets) * self.facet_block_size


@dataclass
class BlockSystem(BlockOperator):
    """Assembled four-block system in element/facet-local storage."""

    elem_F: np.ndarray  # (ne, nV)
    G: np.ndarray


@dataclass
class CondensedOperator:
    """The operator part of a condensed system: ``S`` and the element solves."""

    S: sp.csr_matrix
    facet_block_size: int
    mesh: object
    elem_Ainv: np.ndarray  # (ne, nV, nV)
    elem_Brect: np.ndarray  # (ne, nV, 3*nM)
    gather_index: np.ndarray  # (ne, 3*nM) global lambda index or -1
    coupled_facets: np.ndarray

    @property
    def n_lambda(self):
        return self.S.shape[0]


@dataclass
class CondensedSystem(CondensedOperator):
    """Facet Schur complement with retained element solves."""

    elem_F: np.ndarray
    H: np.ndarray


def assemble_blocks(mesh, p, prob):
    """Assemble the four-block HDG system for ``prob`` at degree ``p``: its
    operator part, then its load (:func:`assemble_load`)."""
    op = _assemble_operator(mesh, p, prob)
    elem_F, G = assemble_load(op, mesh, prob)
    return BlockSystem(**vars(op), elem_F=elem_F, G=G)


def _assemble_operator(mesh, p, prob):
    if p < 1:
        raise ValueError("degree must be >= 1")
    nu = float(prob.nu)
    alpha = default_penalty(p)
    rq, rw, phi, gref, sseg, wf, psi, traces = _tables(p)
    nV = tri_space_dim(p)
    nM = p + 1
    ne = mesh.n_elements
    nf = mesh.n_facets
    avals, afacets = _velocities(mesh, p, prob)
    # volume terms
    # G = einsum("qid,edc->eqic", gref, Jinv) as plain einsum sums it, from
    # +0.0 (so two products of -0.0 sum to +0.0): bitwise, at a third of the time
    G = gref[:, :, 0, None] * mesh.Jinv[:, None, None, 0, :] + 0.0
    G += gref[:, :, 1, None] * mesh.Jinv[:, None, None, 1, :]
    conv = G[:, :, :, 0] + avals[:, :, None] * G[:, :, :, 1]
    wdet = rw[None, :] * mesh.detJ[:, None]
    elem_A = -_einsum("eq,eqi,qj->eij", wdet, conv, phi)
    elem_A += nu * _einsum("eq,eqi,eqj->eij", wdet, G[:, :, :, 1],
                           G[:, :, :, 1])

    elem_B = np.zeros((ne, 3, nV, nM))
    elem_C = np.zeros((ne, 3, nM, nV))
    D_blocks = np.zeros((nf, nM, nM))
    dirichlet, neumann = [], []
    # tmin (inflow data), tmax (vacuous outflow) and the problem's Neumann
    # sides couple a trace; every other boundary facet is Dirichlet
    on_neumann = np.isin(mesh.boundary_sides, [
        _SIDE_ID[s] for s in ("tmin", "tmax", *prob.neumann_sides)])
    on_dirichlet = (mesh.boundary_sides >= 0) & ~on_neumann

    for (la, lb), (fids, kids, locs, sides) in _facet_side_groups(mesh).items():
        TV, TGref = traces[(la, lb)]
        L = mesh.facet_lengths[fids]
        n = mesh.facet_normals[fids, sides]
        af = afacets[fids]
        an = n[:, 0:1] + af * n[:, 1:2]
        apl = np.maximum(an, 0.0)
        ami = np.minimum(an, 0.0)
        w2 = wf[None, :] * L[:, None]
        # penalty weighted by the facet-normal component of the (space-only)
        # diffusion tensor, n^T diag(0, nu) n = nu n_x^2: full strength on
        # spatial facets, none across purely time-like facets, where only
        # the upwind advective flux couples and extra penalization would
        # degrade even-degree convergence
        coef = (nu * alpha / mesh.element_h[kids])[:, None] * n[:, 1:2] ** 2
        Jx = mesh.Jinv[kids, :, 1][:, :, None, None]  # Gxt as G: "qid,md->mqi"
        Gxt = TGref[:, :, 0] * Jx[:, 0] + 0.0 + TGref[:, :, 1] * Jx[:, 1]
        wpl = w2 * (apl + coef)
        wmi = w2 * (ami - coef)
        wnx = w2 * n[:, 1:2]

        A_f = _einsum("mq,qj,qi->mij", wpl, TV, TV)
        A_f -= nu * _einsum("mq,mqj,qi->mij", wnx, Gxt, TV)
        A_f -= nu * _einsum("mq,qj,mqi->mij", wnx, TV, Gxt)
        np.add.at(elem_A, kids, A_f)

        is_dir = on_dirichlet[fids]
        nd = ~is_dir
        if nd.any():
            B_f = _einsum("mq,qi,qn->min", wmi[nd], TV, psi)
            B_f += nu * _einsum("mq,mqi,qn->min", wnx[nd], Gxt[nd], psi)
            elem_B[kids[nd], locs[nd]] = B_f
            C_f = _einsum("mq,qn,qj->mnj", -wpl[nd], psi, TV)
            C_f += nu * _einsum("mq,qn,mqj->mnj", wnx[nd], psi, Gxt[nd])
            elem_C[kids[nd], locs[nd]] = C_f
            wD = (w2 * (coef - ami))[nd]
            np.add.at(D_blocks, fids[nd],
                      _einsum("mq,qn,qk->mnk", wD, psi, psi))
        if is_dir.any():
            dirichlet.append((TV, fids[is_dir], kids[is_dir], wmi[is_dir],
                              wnx[is_dir], Gxt[is_dir]))
        # inflow-like and final facets: outflow stabilization here, their
        # data in the load
        is_neu = on_neumann[fids]
        if is_neu.any():
            np.add.at(D_blocks, fids[is_neu],
                      _einsum("mq,qn,qk->mnk", (w2 * apl)[is_neu], psi, psi))
            neumann.append((fids[is_neu], n[is_neu], w2[is_neu]))

    coupled = np.nonzero((mesh.facet_elems[:, 1] >= 0) | on_neumann)[0]

    # In the pure-advection limit a facet can align with the characteristics
    # (a_n = 0 along it); nothing then couples to its trace, whose value is
    # immaterial for the element solution.  Pin those traces to zero so the
    # facet system stays invertible.
    scale = np.abs(D_blocks).max() if nf else 0.0
    loose = coupled[np.abs(D_blocks[coupled]).max(axis=(1, 2)) <= 1e-12 * scale]
    D_blocks[loose] = np.eye(nM)
    ks, locs = mesh.facet_elems[loose], mesh.facet_locals[loose]
    has = ks >= 0
    elem_B[ks[has], locs[has]] = 0.0
    elem_C[ks[has], locs[has]] = 0.0

    facet_block = np.full(nf, -1, dtype=np.int64)
    facet_block[coupled] = np.arange(len(coupled))
    return BlockOperator(mesh=mesh, p=p, nV=nV, facet_block_size=nM,
                         elem_A=elem_A, elem_B=elem_B, elem_C=elem_C,
                         elem_facet_block=facet_block[mesh.elem_facets],
                         D=validate_csr(block_diag_csr(D_blocks[coupled])),
                         coupled_facets=coupled, loose_facets=loose,
                         dirichlet=dirichlet, neumann=neumann)


def assemble_load(op, mesh, prob):
    """The load part of assembly: ``(elem_F, G)`` for the data of ``prob``.

    ``elem_F`` holds the source and the Dirichlet lift, ``G`` the data on
    the Neumann-like facets (``prob.initial`` on those labelled ``tmin``
    when the problem gives it), zero on loose facets.  ``op`` may come
    from another mesh whose :func:`operator_key` under ``prob`` equals
    ``mesh``'s: the data is taken at ``mesh``'s points, everything else
    from ``op``.
    """
    rq, rw, phi, _, sseg, _, psi, _ = _tables(op.p)
    nu = float(prob.nu)
    ne = mesh.n_elements
    if prob.source is not None:
        X = mesh.element_points(rq).reshape(-1, 2)
        fvals = np.asarray(prob.source(X), dtype=float).reshape(ne, -1)
        wdet = rw[None, :] * mesh.detJ[:, None]
        elem_F = (wdet * fvals) @ phi
    else:
        elem_F = np.zeros((ne, op.nV))
    for TV, fids, kids, wmi, wnx, Gxt in op.dirichlet:
        if prob.dirichlet is None:
            raise ValueError("problem has Dirichlet facets but no dirichlet data")
        Xd = _facet_points(mesh, fids, sseg)
        gd = np.asarray(prob.dirichlet(Xd.reshape(-1, 2)),
                        dtype=float).reshape(len(fids), -1)
        lift = (wmi * gd) @ TV
        lift += nu * np.matmul((wnx * gd)[:, None, :], Gxt)[:, 0, :]
        np.add.at(elem_F, kids, -lift)

    G_blocks = np.zeros((mesh.n_facets, op.facet_block_size))
    for fids, n, w2 in op.neumann:
        Xn = _facet_points(mesh, fids, sseg)
        gn = np.zeros(Xn.shape[:2])
        if prob.neumann is not None:
            nn = np.repeat(n[:, None, :], len(sseg), axis=1)
            gn[:] = np.reshape(
                prob.neumann(Xn.reshape(-1, 2), nn.reshape(-1, 2)), gn.shape)
        bottom = mesh.boundary_sides[fids] == _SIDE_ID["tmin"]
        if prob.initial is not None and bottom.any():
            gn[bottom] = np.reshape(prob.initial(Xn[bottom].reshape(-1, 2)),
                                    (bottom.sum(), -1))
        np.add.at(G_blocks, fids, (w2 * gn) @ psi)
    G_blocks[op.loose_facets] = 0.0
    return elem_F, G_blocks[op.coupled_facets].ravel()


def condense(bs):
    """Eliminate element unknowns; return the facet Schur system: its
    operator part, then its load (:func:`condense_load`)."""
    op = _condense_operator(bs)
    return CondensedSystem(**vars(op), elem_F=bs.elem_F,
                           H=condense_load(bs, op, bs.elem_F, bs.G))


def _condense_operator(bs):
    ne, nV, nM = len(bs.elem_A), bs.nV, bs.facet_block_size
    Ainv = np.linalg.inv(bs.elem_A)
    resid = np.abs(np.matmul(bs.elem_A, Ainv) - np.eye(nV)).max(axis=(1, 2))
    if resid.max() > 1e-6:
        k = int(np.argmax(resid))
        raise SingularBlockError(f"element matrix {k} is numerically singular "
                                 f"(inverse residual {resid[k]:.2e})")
    Brect = np.transpose(bs.elem_B, (0, 2, 1, 3)).reshape(ne, nV, 3 * nM)
    Crect = bs.elem_C.reshape(ne, 3 * nM, nV)
    AinvB = np.matmul(Ainv, Brect)
    Sloc = np.matmul(Crect, AinvB)

    gather = np.where(bs.elem_facet_block >= 0,
                      bs.elem_facet_block * nM, -1)[:, :, None] + np.arange(nM)
    gather = np.where(bs.elem_facet_block[:, :, None] >= 0, gather, -1)
    gather = gather.reshape(ne, 3 * nM)
    nL = bs.n_lambda
    valid = gather >= 0
    pair = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(gather[:, :, None], Sloc.shape)[pair]
    cols = np.broadcast_to(gather[:, None, :], Sloc.shape)[pair]
    S = bs.D + sp.coo_matrix((-Sloc[pair], (rows, cols)), shape=(nL, nL)).tocsr()
    return CondensedOperator(S=validate_csr(S), facet_block_size=nM,
                             mesh=bs.mesh, elem_Ainv=Ainv, elem_Brect=Brect,
                             gather_index=gather,
                             coupled_facets=bs.coupled_facets)


def condense_load(bo, co, elem_F, G):
    """The load part of condensation: ``H = G - C A^{-1} F``, with ``C``
    from the operator part ``bo`` and the element solves of its
    condensation ``co``."""
    ne, nV = elem_F.shape
    AinvF = np.matmul(co.elem_Ainv, elem_F[:, :, None])[:, :, 0]
    Hloc = np.matmul(bo.elem_C.reshape(ne, -1, nV), AinvF[:, :, None])[:, :, 0]
    valid = co.gather_index >= 0
    H = G.copy()
    np.subtract.at(H, co.gather_index[valid], Hloc[valid])
    return H


def reconstruct(cs, lam):
    """Recover element unknowns from facet values; returns (ne*nV,)."""
    lam_ext = np.append(lam, 0.0)
    lamloc = lam_ext[np.where(cs.gather_index >= 0, cs.gather_index, len(lam))]
    rhs = cs.elem_F - np.matmul(cs.elem_Brect, lamloc[:, :, None])[:, :, 0]
    U = np.matmul(cs.elem_Ainv, rhs[:, :, None])[:, :, 0]
    return U.ravel()


def st_l2_error(mesh, p, U, exact):
    """Space-time L2 distance between U and a callable exact solution."""
    rq, rw = triangle_rule(2 * p + 4)
    phi = triangle_basis(p).eval(rq)
    X = mesh.element_points(rq)
    ue = np.asarray(exact(X.reshape(-1, 2)), dtype=float).reshape(mesh.n_elements, -1)
    uh = np.einsum("qi,ei->eq", phi, U.reshape(mesh.n_elements, -1))
    err2 = np.einsum("eq,eq->", rw[None, :] * mesh.detJ[:, None], (uh - ue) ** 2)
    return float(np.sqrt(err2))


def line_trace_evaluator(mesh, p, U):
    """Evaluator for the solution trace on the final-time side ``tmax``.

    Returns a callable mapping (n, 2) space-time points on that side to
    solution values, used to hand a slab's top trace to the next slab as
    inflow data.  Lookup is by the spatial coordinate.
    """
    fsel = np.nonzero(mesh.boundary_sides == _SIDE_ID["tmax"])[0]
    if len(fsel) == 0:
        raise ValueError("mesh has no boundary facets on side 'tmax'")
    xs = mesh.vertices[mesh.facets[fsel]][:, :, 1]
    lo = xs.min(axis=1)
    order = np.argsort(lo)
    fsel = fsel[order]
    lo = lo[order]
    ks = mesh.facet_elems[fsel, 0]
    v0 = mesh.vertices[mesh.elements[:, 0]]
    tb = triangle_basis(p)
    Ue = U.reshape(mesh.n_elements, -1)

    def evaluate(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.clip(np.searchsorted(lo, pts[:, 1], side="right") - 1, 0, len(lo) - 1)
        k = ks[idx]
        ref = np.einsum("ndc,nc->nd", mesh.Jinv[k], pts - v0[k])
        return np.einsum("qi,qi->q", tb.eval(ref), Ue[k])

    return evaluate


def lambda_dof_positions(bs_or_cs):
    """Facet-midpoint coordinates for every lambda DOF; (n_lambda, 2)."""
    mesh = bs_or_cs.mesh
    nM = bs_or_cs.facet_block_size
    mids = mesh.facet_midpoints()[bs_or_cs.coupled_facets]
    return np.repeat(mids, nM, axis=0)
