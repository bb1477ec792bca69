"""Space-time simplicial meshes on (1+1)-dimensional slabs.

Coordinates are ordered ``(t, x)``: column 0 of the vertex array is time,
column 1 is space.  Tensor meshes are built by splitting each cell of an
``nt x nx`` grid along the anti-diagonal, so that no interior facet is
aligned with the characteristic direction ``(1, a)`` for moderate positive
velocities ``a`` (a main-diagonal split would put facets exactly along the
characteristics of ``a = 1`` and produce zero upwind flux there).

Adaptive refinement uses newest-vertex bisection with conformity closure.
Element vertex order is "peak first": local vertex 0 is the newest vertex
and the refinement edge is (v1, v2).  The initial grid assigns peaks at
the right-angle corners, so all refinement edges are anti-diagonal
hypotenuses and the initial mesh is compatibly divisible.

The closure is chain arithmetic: each mark starts a chain whose next link
is the neighbour across the refinement edge when that edge is not the
neighbour's own, and edges are cut in (lowest marked owner, -depth along
its chain) order.  The numbering is a contract, as AIR coarsening and so
the iteration counts depend on it: the t-th cut gets vertex
``n_vertices + t``; whole elements come first in order, then the new ones
by (cut, slot), slots 0-1 holding the children ``(m, p, b1)``,
``(m, b2, p)`` of the chain's element and 2-3 those of the element across,
as if the marks were refined one at a time in increasing id order.

Boundary facets carry a side label (``tmin``, ``tmax``, ``xlo``, ``xhi``),
kept per facet in ``boundary_sides`` and inherited under deformation and
refinement.  The mesh holds geometry and side labels only: which condition
a side carries is the problem's to say (:func:`sthdg.hdg.assemble_blocks`).

Facet numbering is a contract: facets are the sorted vertex pairs in
lexicographic order, whatever the element order, and side 0 of a facet is
its element with the lower id.  Connectivity comes from one ``np.unique``
of the keys ``lo * n_vertices + hi``, not from a loop over elements.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = [
    "SpaceTimeMesh",
    "DeformationMap",
    "build_st_mesh",
    "deform_mesh",
    "bisect_refine",
    "extract_slab",
    "validate_mesh",
    "write_mesh",
    "read_mesh",
    "MODES",
    "SIDE_NAMES",
]

MODES = ("all_at_once", "slab")
# relative tolerance of every check in :func:`validate_mesh`
_VALIDATE_TOL = 1e-12
SIDE_NAMES = ("tmin", "tmax", "xlo", "xhi")
_SIDE_ID = {name: i for i, name in enumerate(SIDE_NAMES)}

# local edge l is opposite local vertex l
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


class SpaceTimeMesh:
    """Conforming triangulation of a space-time slab.

    Parameters
    ----------
    vertices : ndarray (nv, 2)
        Coordinates (t, x).
    elements : ndarray (ne, 3)
        Vertex indices, positively oriented, peak-first.
    slab_index : ndarray (ne,)
        Time-slab index of each element; ``n_slabs`` is its maximum + 1.
    boundary : (pairs, sides)
        Side labels: sorted vertex pairs (nb, 2) and their side ids (nb,)
        (see SIDE_NAMES).  Every boundary facet needs a label; labels on
        other pairs are ignored.  :meth:`boundary` returns those kept.
    mode : str
        One of MODES, "all_at_once" or "slab".
    box : tuple
        (t0, tN, xlo, xhi) of the undeformed bounding box.

    Element maps (computed once): element k is the reference triangle's
    image under ``x = vertices[elements[k, 0]] + J[k] @ xi`` (see
    :meth:`element_points`); ``J`` (ne, 2, 2) has the edges from local
    vertex 0 as columns, and ``detJ`` (twice the area), ``Jinv`` and the
    longest edge ``element_h`` come with it.

    Derived connectivity (computed once):

    - ``facets`` (nf, 2): sorted vertex pairs, lexicographically ordered.
    - ``facet_elems`` (nf, 2): adjacent element ids, the lower id on side
      0; side 1 of a boundary facet is -1.
    - ``facet_locals`` (nf, 2): the facet's local edge in each element.
    - ``facet_normals`` (nf, 2, 2): unit outward normal per adjacent side.
    - ``facet_lengths`` (nf,), ``elem_facets`` (ne, 3).
    - ``boundary_sides`` (nf,): side id, -1 for interior facets.
    """

    def __init__(self, vertices, elements, slab_index, boundary, mode, box):
        self._set_frame(vertices, elements, slab_index, mode, box)
        self._build_connectivity(*boundary)

    # -- construction ---------------------------------------------------

    def _set_frame(self, vertices, elements, slab_index, mode, box):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.slab_index = np.asarray(slab_index, dtype=np.int64)
        self.mode = mode
        self.box = tuple(float(v) for v in box)

    @classmethod
    def _restricted(cls, vertices, elements, slab_index, mode, box, **derived):
        """A mesh whose element maps and connectivity ``derived`` are given
        rather than built (see :func:`extract_slab`)."""
        mesh = cls.__new__(cls)
        mesh._set_frame(vertices, elements, slab_index, mode, box)
        vars(mesh).update(derived)
        return mesh

    def _build_connectivity(self, pairs, sides):
        v, e = self.vertices, self.elements
        ne = len(e)
        if self.slab_index.shape != (ne,):
            raise ValueError("slab_index shape mismatch")
        J = np.stack([v[e[:, 1]] - v[e[:, 0]], v[e[:, 2]] - v[e[:, 0]]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(det <= 0):
            bad = int(np.argmax(det <= 0))
            raise ValueError(f"element {bad} is not positively oriented")
        Jinv = np.empty_like(J)
        Jinv[:, 0, 0] = J[:, 1, 1] / det
        Jinv[:, 0, 1] = -J[:, 0, 1] / det
        Jinv[:, 1, 0] = -J[:, 1, 0] / det
        Jinv[:, 1, 1] = J[:, 0, 0] / det
        self.J, self.detJ, self.Jinv = J, det, Jinv

        # one key lo*nv + hi per local edge; np.unique numbers the facets
        # in lexicographic vertex-pair order
        nv = len(v)
        ends = np.sort(e[:, np.asarray(_LOCAL_EDGES)], axis=2).reshape(-1, 2)
        keys, inverse, counts = np.unique(ends[:, 0] * nv + ends[:, 1],
                                          return_inverse=True, return_counts=True)
        self.facets = np.stack([keys // nv, keys % nv], axis=1)
        if np.any(counts > 2):
            a, b = self.facets[np.argmax(counts > 2)].tolist()
            raise ValueError(f"facet {(a, b)} shared by more than two elements")
        nf = len(keys)
        self.elem_facets = inverse.reshape(ne, 3)
        # sides in (element, local) order: side 0 is the lower element id
        slot = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts
        two = counts == 2
        self.facet_elems = np.full((nf, 2), -1, dtype=np.int64)
        self.facet_locals = np.full((nf, 2), -1, dtype=np.int64)
        self.facet_elems[:, 0], self.facet_locals[:, 0] = np.divmod(slot[first], 3)
        self.facet_elems[two, 1], self.facet_locals[two, 1] = np.divmod(
            slot[first[two] + 1], 3)

        tang = v[self.facets[:, 1]] - v[self.facets[:, 0]]
        self.facet_lengths = np.hypot(tang[:, 0], tang[:, 1])
        mid = 0.5 * (v[self.facets[:, 0]] + v[self.facets[:, 1]])
        base = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        base /= self.facet_lengths[:, None]
        self.facet_normals = np.zeros((nf, 2, 2))
        centroids = v[e].mean(axis=1)
        for s in range(2):
            has = self.facet_elems[:, s] >= 0
            c = centroids[self.facet_elems[has, s]]
            sign = np.where(np.sum(base[has] * (mid[has] - c), axis=1) >= 0.0, 1.0, -1.0)
            self.facet_normals[has, s, :] = base[has] * sign[:, None]

        # side labels looked up by the same keys
        bnd = np.nonzero(self.facet_elems[:, 1] < 0)[0]
        labeled = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        label = np.asarray(sides, dtype=np.int64).reshape(-1)
        ok = np.all((labeled >= 0) & (labeled < nv), axis=1)
        lkeys = labeled[ok, 0] * nv + labeled[ok, 1]
        lorder = np.argsort(lkeys)
        lkeys = np.append(lkeys[lorder], nv * nv)  # sentinel above every key
        pos = np.searchsorted(lkeys, keys[bnd])
        found = lkeys[pos] == keys[bnd]
        if not found.all():
            a, b = self.facets[bnd[np.argmin(found)]].tolist()
            raise ValueError(f"boundary facet {(a, b)} has no side label")
        self.boundary_sides = np.full(nf, -1, dtype=np.int8)
        self.boundary_sides[bnd] = label[ok][lorder][pos]
        edges = np.stack([J[:, :, 0], J[:, :, 1], v[e[:, 2]] - v[e[:, 1]]])
        self.element_h = np.hypot(edges[..., 0], edges[..., 1]).max(axis=0)

    # -- queries --------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_facets(self):
        return len(self.facets)

    @property
    def n_slabs(self):
        return int(self.slab_index.max()) + 1

    def boundary(self):
        """The side labels ``(pairs, sides)``: the boundary facets' vertex
        pairs (nb, 2) in facet order and their side ids (nb,)."""
        bnd = self.boundary_sides >= 0
        return self.facets[bnd], self.boundary_sides[bnd]

    def element_points(self, ref):
        """Images (ne, nq, 2) of reference points ``ref`` (nq, 2) under every
        element map."""
        origin = self.vertices[self.elements[:, 0]]
        return origin[:, None, :] + np.einsum("eij,qj->eqi", self.J, ref)

    def facet_midpoints(self):
        return 0.5 * (self.vertices[self.facets[:, 0]] + self.vertices[self.facets[:, 1]])


class DeformationMap:
    """Coordinate map applied to undeformed tensor-mesh vertices.

    The default map keeps time fixed and advects space periodically:

        x = x_u + A * (1/2 - x_u) * sin(2*pi*t)

    so the deformation vanishes at t in {0, 1/2, 1} and is strongest at
    quarter periods.  A custom callable mapping an (n, 2) array of (t, x)
    to deformed coordinates may be supplied instead.
    """

    def __init__(self, amplitude=0.1, mapping=None):
        self.amplitude = float(amplitude)
        self._mapping = mapping

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._mapping is not None:
            return self._mapping(pts)
        t = pts[:, 0]
        x = pts[:, 1]
        out = np.empty_like(pts)
        out[:, 0] = t
        out[:, 1] = x + self.amplitude * (0.5 - x) * np.sin(2.0 * np.pi * t)
        return out


def build_st_mesh(nx, nt, box, mode):
    """Uniform anti-diagonal-split triangulation of [t0,tN] x [xlo,xhi].

    Parameters
    ----------
    nx, nt : int
        Cells in space and time; 2*nx*nt elements result.
    box : tuple (t0, tN, xlo, xhi)
    mode : {"all_at_once", "slab"}
        Solution strategy tag; geometry is identical, and each row of
        cells forms one time slab (``slab_index`` records the row).
    """
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be positive")
    t0, tN, xlo, xhi = (float(v) for v in box)
    if not (tN > t0 and xhi > xlo):
        raise ValueError("box must have positive extent")
    tv = np.linspace(t0, tN, nt + 1)
    xv = np.linspace(xlo, xhi, nx + 1)
    # vertex (it, ix) -> it*(nx+1) + ix
    verts = np.stack(np.meshgrid(tv, xv, indexing="ij"), axis=-1).reshape(-1, 2)
    v00 = (np.arange(nt)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01, v11 = v00 + nx + 1, v00 + 1, v00 + nx + 2
    # per cell, peaks at the right-angle corners; refinement edge is the
    # shared anti-diagonal (v10, v01)
    elems = np.stack([v00, v10, v01, v11, v01, v10], axis=1).reshape(-1, 3)
    slabs = np.repeat(np.arange(nt), 2 * nx)
    # labels in the order tmin/tmax per ix, then xlo/xhi per it
    ix, it = np.arange(nx), np.arange(nt) * (nx + 1)
    bottom = np.stack([ix, ix + 1], axis=1)
    left = np.stack([it, it + nx + 1], axis=1)
    pairs = np.concatenate([np.stack([bottom, bottom + nt * (nx + 1)], axis=1),
                            np.stack([left, left + nx], axis=1)]).reshape(-1, 2)
    sides = np.concatenate([np.tile([_SIDE_ID["tmin"], _SIDE_ID["tmax"]], nx),
                            np.tile([_SIDE_ID["xlo"], _SIDE_ID["xhi"]], nt)])
    return SpaceTimeMesh(verts, elems, slabs, (pairs, sides), mode, box)


def deform_mesh(mesh, deformation):
    """Apply a :class:`DeformationMap` to the mesh vertices; topology and
    labels stay."""
    return SpaceTimeMesh(deformation(mesh.vertices), mesh.elements,
                         mesh.slab_index, mesh.boundary(), mesh.mode, mesh.box)


def bisect_refine(mesh, marked):
    """Newest-vertex bisection of ``marked`` elements with conformity
    closure, numbered as the module docstring states."""
    ne, nv = mesh.n_elements, mesh.n_vertices
    ids = np.unique(np.asarray(marked).astype(np.int64))
    bad = ids[(ids < 0) | (ids >= ne)]
    if bad.size:
        raise ValueError(f"marked element {bad[0]} out of range")
    ef, fe = mesh.elem_facets, mesh.facet_elems
    ref = ef[:, 0]
    across = np.where(fe[ref, 0] == np.arange(ne), fe[ref, 1], fe[ref, 0])
    nxt = np.where((across >= 0) & (ef[across, 0] != ref), across, -1)

    # key owner * ne - depth: the lowest marked id reaching an element along
    # nxt, then how far down its chain; relaxed one chain link per round
    key = np.full(ne, ne * ne)
    key[ids] = ids * ne
    front = ids
    while front.size:
        src = front[nxt[front] >= 0]
        dst, old = nxt[src], key[nxt[src]]
        np.minimum.at(key, dst, key[src] - 1)
        front = np.unique(dst[key[dst] < old])

    # each refinement edge of a reached element is cut once, in key order,
    # by the chain element with the smallest key
    reached = np.nonzero(key < ne * ne)[0]
    reached = reached[np.argsort(key[reached])]
    _, first = np.unique(ref[reached], return_index=True)
    chain = reached[np.sort(first)]
    time = np.full(mesh.n_facets, -1)
    time[ref[chain]] = np.arange(len(chain))
    lo, hi = mesh.facets[ref[chain]].T
    vertices = np.concatenate([mesh.vertices,
                               (mesh.vertices[lo] + mesh.vertices[hi]) / 2.0])

    # a split element's children (m, p, b1), (m, b2, p) come at its cut in
    # slots 0-1 (chain element) or 2-3 (across); a child whose refinement
    # edge (the parent's local edge 2 or 1) is cut is split there, slots 2-3
    whole = time[ref] < 0
    split = np.nonzero(~whole)[0]
    p, b1, b2 = mesh.elements[split].T
    t0, t1, t2 = time[ef[split]].T
    m, m1, m2 = nv + t0, nv + t1, nv + t2
    s = np.where(chain[t0] == split, 0, 2)
    tris = np.stack([[m, p, b1], [m, b2, p], [m2, m, p], [m2, b1, m],
                     [m1, m, b2], [m1, p, m]]).transpose(0, 2, 1)
    order = np.stack([4 * t0 + s, 4 * t0 + s + 1, 4 * t2 + 2, 4 * t2 + 3,
                      4 * t1 + 2, 4 * t1 + 3])
    keep = np.stack([t2 < 0, t1 < 0, t2 >= 0, t2 >= 0, t1 >= 0, t1 >= 0])
    new = np.argsort(order[keep])
    elements = np.concatenate([mesh.elements[whole], tris[keep][new]])
    slabs = np.broadcast_to(mesh.slab_index[split], keep.shape)[keep][new]
    slab_index = np.concatenate([mesh.slab_index[whole], slabs])

    # a cut boundary facet's label goes to both halves; the constructor
    # ignores the label of the facet itself, which is gone
    pairs, sides = mesh.boundary()
    label = mesh.boundary_sides[ref[chain]]
    cut = np.nonzero(label >= 0)[0]
    halves = np.stack([np.concatenate([lo[cut], hi[cut]]), np.tile(nv + cut, 2)], axis=1)
    pairs = np.concatenate([pairs, halves])
    sides = np.concatenate([sides, np.tile(label[cut], 2)])
    return SpaceTimeMesh(vertices, elements, slab_index, (pairs, sides),
                         mesh.mode, mesh.box)


def extract_slab(mesh, n):
    """Stand-alone mesh of time slab ``n``.

    Facets that were interior in the parent become boundary facets of the
    slab mesh: the interface to slab n-1 is labeled ``tmin`` (inflow-like
    Neumann carrying transferred data) and the interface to slab n+1 is
    labeled ``tmax``.  The slab mesh keeps the parent's element and vertex
    order, and its ``slab_index`` is ``n`` throughout.

    Its arrays are the parent's, restricted to the slab and renumbered:
    the vertex, element and facet maps all increase, so the facets keep
    their lexicographic order and the lower element id its side 0.  A
    facet whose side 0 lies outside the slab moves its side 1 there.  The
    result is bitwise the mesh the constructor would build from the
    slab's vertices, elements and labels.
    """
    in_slab = mesh.slab_index == n
    if not in_slab.any():
        raise ValueError(f"slab {n} is empty")
    eids = np.flatnonzero(in_slab)
    elems = mesh.elements[eids]
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[elems] = True
    fe = mesh.facet_elems
    inside = (fe >= 0) & in_slab[fe]
    touched = inside[:, 0] | inside[:, 1]
    fids = np.flatnonzero(touched)
    # the maps from parent to slab ids
    vmap, emap, fmap = (np.cumsum(m) - 1 for m in (used, in_slab, touched))
    # side 0 holds the in-slab element of lower id: the parent's side 0,
    # or its side 1 where side 0 lies outside; a side outside becomes -1
    side = np.where(inside[fids, :1], [0, 1], [1, 0])
    rows = fids[:, None]
    keep = inside[rows, side]
    # a facet on the slab boundary keeps its label or, if the parent had
    # an element across it, is labelled after that element's slab
    lone = ~keep[:, 1]
    other = fe[fids[lone], side[lone, 1]]
    boundary_sides = np.full(len(fids), -1, dtype=np.int8)
    boundary_sides[lone] = np.where(
        other < 0, mesh.boundary_sides[fids[lone]],
        np.where(mesh.slab_index[other] < n, _SIDE_ID["tmin"], _SIDE_ID["tmax"]))
    return SpaceTimeMesh._restricted(
        mesh.vertices[used], vmap[elems], mesh.slab_index[eids], "slab", mesh.box,
        J=mesh.J[eids], detJ=mesh.detJ[eids], Jinv=mesh.Jinv[eids],
        element_h=mesh.element_h[eids],
        facets=vmap[mesh.facets[fids]], facet_lengths=mesh.facet_lengths[fids],
        facet_elems=np.where(keep, emap[fe[rows, side]], -1),
        facet_locals=np.where(keep, mesh.facet_locals[rows, side], -1),
        facet_normals=np.where(keep[..., None], mesh.facet_normals[rows, side], 0.0),
        elem_facets=fmap[mesh.elem_facets[eids]], boundary_sides=boundary_sides)


def validate_mesh(mesh):
    """Check mesh invariants; raises AssertionError with a description.

    Verifies positive orientation, two-sided facet consistency
    (anti-parallel outward normals), the per-element closed-polygon
    identity (sum of length-weighted outward normals vanishes) and
    conformity (no vertex interior to another element's facet), each to
    ``_VALIDATE_TOL``.  The checks are explicit raises, so they also run
    under ``python -O``.
    """
    tol = _VALIDATE_TOL
    scale = max(abs(v) for v in mesh.box) + 1.0
    if not np.all(mesh.detJ > 0):
        raise AssertionError("non-positive element area")
    inner = mesh.facet_elems[:, 1] >= 0
    nsum = mesh.facet_normals[inner, 0] + mesh.facet_normals[inner, 1]
    if inner.any() and not np.abs(nsum).max() < tol:
        raise AssertionError("interior facet normals are not anti-parallel")
    f = mesh.elem_facets
    s = (mesh.facet_elems[f, 0] != np.arange(mesh.n_elements)[:, None]).astype(int)
    flux = mesh.facet_lengths[f][:, :, None] * mesh.facet_normals[f, s]
    closed = np.abs(flux[:, 0] + flux[:, 1] + flux[:, 2]).max(axis=1) < tol * scale
    if not closed.all():
        raise AssertionError(f"element {np.argmin(closed)} normals do not close")
    # conformity: no vertex strictly inside a facet
    vert, fac = _hanging_pairs(mesh.vertices, mesh.facets, tol, scale)
    if len(vert):
        raise AssertionError(
            f"vertex {vert[0]} hangs on facet {fac[vert == vert[0]]}")
    return True


def _hanging_pairs(vertices, facets, tol, scale):
    """``(vertex, facet)`` index pairs with the vertex strictly inside the facet.

    A vertex is inside when it lies within ``tol * scale`` of the facet
    line, strictly between the ends (``tol < t < 1 - tol`` along it), and
    is not an end.  Such a vertex lies in the facet's bounding box grown
    by ``tol * scale``; the candidates are the vertices in the box grown
    by twice that (for roundoff), taken from one sort on t, and only they
    get the distance test.  Pairs are sorted by vertex, then facet.
    """
    va = vertices[facets[:, 0]]
    vb = vertices[facets[:, 1]]
    d = vb - va
    L2 = np.sum(d * d, axis=1)
    pad = 2.0 * tol * scale
    lo = np.minimum(va, vb) - pad
    hi = np.maximum(va, vb) + pad
    order = np.argsort(vertices[:, 0], kind="stable")
    ts = vertices[order, 0]
    first = np.searchsorted(ts, lo[:, 0], "left")
    count = np.searchsorted(ts, hi[:, 0], "right") - first
    start = np.cumsum(count) - count
    fac = np.repeat(np.arange(len(facets)), count)
    vert = order[np.arange(count.sum()) + np.repeat(first - start, count)]
    x = vertices[vert, 1]
    cand = ((x >= lo[fac, 1]) & (x <= hi[fac, 1])
            & (vert != facets[fac, 0]) & (vert != facets[fac, 1]))
    fac, vert = fac[cand], vert[cand]
    p = vertices[vert]
    tpar = np.sum((p - va[fac]) * d[fac], axis=1) / L2[fac]
    foot = va[fac] + tpar[:, None] * d[fac]
    dist = np.hypot(*(p - foot).T)
    on = (dist < tol * scale) & (tpar > tol) & (tpar < 1 - tol)
    fac, vert = fac[on], vert[on]
    srt = np.lexsort((fac, vert))
    return vert[srt], fac[srt]


# -- persistence --------------------------------------------------------


def _opened(path_or_stream, mode):
    """``open`` a path (``\\n`` line ends when writing); a stream is used
    as it is and left open."""
    if isinstance(path_or_stream, (str, bytes, os.PathLike)):
        return open(path_or_stream, mode, newline="\n" if mode == "w" else None)
    return contextlib.nullcontext(path_or_stream)


def write_mesh(mesh, path_or_stream):
    """Plain-text mesh format (version 2) with 17-significant-digit
    coordinates."""
    with _opened(path_or_stream, "w") as f:
        f.write("sthdg-mesh 2\n")
        f.write(f"mode {mesh.mode}\n")
        f.write("box " + " ".join("%.17g" % v for v in mesh.box) + "\n")
        f.write(f"nslabs {mesh.n_slabs}\n")
        f.write(f"vertices {mesh.n_vertices}\n")
        np.savetxt(f, mesh.vertices, fmt="%.17g")
        f.write(f"elements {mesh.n_elements}\n")
        np.savetxt(f, np.column_stack([mesh.elements, mesh.slab_index]), fmt="%d")
        pairs, sides = mesh.boundary()
        f.write(f"boundary {len(sides)}\n")
        np.savetxt(f, np.column_stack([pairs, np.array(SIDE_NAMES)[sides]]), fmt="%s")


def read_mesh(path_or_stream):
    """Inverse of :func:`write_mesh`; coordinates round-trip exactly.

    Version 1 files, which carried a ``classified`` line after
    ``nslabs``, are read by skipping that line.  An ``nslabs`` line that
    disagrees with the slab column is a ``ValueError``, and so are an
    element vertex id outside the vertex list and a vertex strictly inside
    a facet, which assembly would take for boundary.
    """
    with _opened(path_or_stream, "r") as f:
        header = f.readline().split()
        if header not in (["sthdg-mesh", "1"], ["sthdg-mesh", "2"]):
            raise ValueError(f"unsupported mesh header {' '.join(header)!r}")
        mode = f.readline().split()[1]
        box = tuple(float(v) for v in f.readline().split()[1:])
        n_slabs = int(f.readline().split()[1])
        if header[1] == "1":
            f.readline()  # classified
        nv = int(f.readline().split()[1])
        verts = np.loadtxt(f, max_rows=nv, ndmin=2)
        ne = int(f.readline().split()[1])
        rows = np.loadtxt(f, dtype=np.int64, max_rows=ne, ndmin=2)
        nb = int(f.readline().split()[1])
        labels = np.loadtxt(f, dtype=np.int64, max_rows=nb, ndmin=2,
                            converters={2: _SIDE_ID.__getitem__})
    k, j = np.nonzero((rows[:, :3] < 0) | (rows[:, :3] >= len(verts)))
    if len(k):
        raise ValueError(f"element row {k[0]} names vertex {rows[k[0], j[0]]}, "
                         f"not one of the {len(verts)} vertices")
    mesh = SpaceTimeMesh(verts, rows[:, :3], rows[:, 3],
                         (labels[:, :2], labels[:, 2]), mode, box)
    if mesh.n_slabs != n_slabs:
        raise ValueError(f"nslabs {n_slabs} disagrees with the slab column")
    vert, fac = _hanging_pairs(mesh.vertices, mesh.facets, _VALIDATE_TOL,
                               max(abs(v) for v in box) + 1.0)
    if len(vert):
        raise ValueError(f"vertex {vert[0]} hangs on facet {mesh.facets[fac[0]].tolist()}")
    return mesh
