"""Mesh topology, facet grouping and the conformity check from index
arithmetic against the loops they replaced.

``build_st_mesh`` builds vertices, elements, slab ids and side labels
from ``arange`` arithmetic, and ``SpaceTimeMesh`` numbers its facets
with one ``np.unique`` of vertex-pair keys.  The nested grid loops and
the dict-of-pairs connectivity loop they replaced are kept here as
oracles; every connectivity array, the side labels (which the mesh
returns in facet order) and the facet normals must match them bitwise.  The facet
side groups of ``assemble_blocks`` set the order in which element
blocks are accumulated, so they must match the per-side loop in group
order, member order and dtype.  ``validate_mesh``'s conformity check
tests only the vertices in each facet's bounding box, found by a sort on
t; it must report exactly the (vertex, facet) pairs of the loop that
tests every vertex against every facet.  The element maps (``J``,
``detJ``, ``Jinv``) that ``SpaceTimeMesh`` computes once for every
element, and the longest edges ``element_h`` it takes from them, must
match a per-element loop bitwise.  ``extract_slab`` restricts its
parent's arrays to the slab; every array of every slab mesh must equal
the one the constructor builds from the slab's vertices, elements and
side labels.  ``bisect_refine`` computes its closure, midpoints and
children by index arithmetic along chains of refinement-edge
neighbours; the vertex and element numbering the dict-and-stack loop it
replaced gives must hold bitwise, since the AIR coarsening and so the
Krylov iteration counts depend on it.
"""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import sthdg.amr
from sthdg.amr import amr_loop
from sthdg.cases import build_case_mesh, case_by_name
from sthdg.hdg import _facet_side_groups, assemble_blocks
from sthdg.mesh import (MODES, SIDE_NAMES, DeformationMap, SpaceTimeMesh, _hanging_pairs,
                        bisect_refine, build_st_mesh, deform_mesh, extract_slab,
                        read_mesh, validate_mesh, write_mesh)
from sthdg.sparsela import validate_csr

_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))
_SIDE_ID = {name: i for i, name in enumerate(SIDE_NAMES)}


# -- oracles: the loop versions -------------------------------------------


BOX = (0.0, 1.0, -0.5, 0.5)  # pulse1d's box


def build_st_mesh_loop(nx, nt, box=BOX):
    t0, tN, xlo, xhi = (float(v) for v in box)
    tv = np.linspace(t0, tN, nt + 1)
    xv = np.linspace(xlo, xhi, nx + 1)
    vid = lambda it, ix: it * (nx + 1) + ix
    verts = np.empty(((nt + 1) * (nx + 1), 2))
    for it in range(nt + 1):
        for ix in range(nx + 1):
            verts[vid(it, ix)] = (tv[it], xv[ix])
    elems = []
    slabs = []
    for it in range(nt):
        for ix in range(nx):
            v00 = vid(it, ix)
            v10 = vid(it + 1, ix)
            v01 = vid(it, ix + 1)
            v11 = vid(it + 1, ix + 1)
            elems.append((v00, v10, v01))
            elems.append((v11, v01, v10))
            slabs.extend((it, it))
    side_of_edge = {}

    def _label(a, b, side):
        side_of_edge[(a, b) if a < b else (b, a)] = _SIDE_ID[side]

    for ix in range(nx):
        _label(vid(0, ix), vid(0, ix + 1), "tmin")
        _label(vid(nt, ix), vid(nt, ix + 1), "tmax")
    for it in range(nt):
        _label(vid(it, 0), vid(it + 1, 0), "xlo")
        _label(vid(it, nx), vid(it + 1, nx), "xhi")
    return verts, np.asarray(elems), np.asarray(slabs), side_of_edge


def connectivity_loop(vertices, elements, side_of_edge):
    v, e = vertices, elements
    ne = len(e)
    pairs = {}
    elem_facets = np.empty((ne, 3), dtype=np.int64)
    raw = []
    for k in range(ne):
        for loc, (i, j) in enumerate(_LOCAL_EDGES):
            a, b = int(e[k, i]), int(e[k, j])
            key = (a, b) if a < b else (b, a)
            fid = pairs.get(key)
            if fid is None:
                fid = len(raw)
                pairs[key] = fid
                raw.append([key, [(k, loc)]])
            else:
                raw[fid][1].append((k, loc))
    order = sorted(range(len(raw)), key=lambda f: raw[f][0])
    nf = len(raw)
    facets = np.empty((nf, 2), dtype=np.int64)
    facet_elems = np.full((nf, 2), -1, dtype=np.int64)
    facet_locals = np.full((nf, 2), -1, dtype=np.int64)
    for newf, oldf in enumerate(order):
        key, adj = raw[oldf]
        if len(adj) > 2:
            raise ValueError(f"facet {key} shared by more than two elements")
        facets[newf] = key
        for s, (k, loc) in enumerate(sorted(adj)):
            facet_elems[newf, s] = k
            facet_locals[newf, s] = loc
            elem_facets[k, loc] = newf

    tang = v[facets[:, 1]] - v[facets[:, 0]]
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    mid = 0.5 * (v[facets[:, 0]] + v[facets[:, 1]])
    base = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    base /= lengths[:, None]
    normals = np.zeros((nf, 2, 2))
    centroids = v[e].mean(axis=1)
    for s in range(2):
        has = facet_elems[:, s] >= 0
        c = centroids[facet_elems[has, s]]
        sign = np.where(np.sum(base[has] * (mid[has] - c), axis=1) >= 0.0, 1.0, -1.0)
        normals[has, s, :] = base[has] * sign[:, None]

    boundary_sides = np.full(nf, -1, dtype=np.int8)
    for f in np.nonzero(facet_elems[:, 1] < 0)[0]:
        key = (int(facets[f, 0]), int(facets[f, 1]))
        side = side_of_edge.get(key)
        if side is None:
            raise ValueError(f"boundary facet {key} has no side label")
        boundary_sides[f] = side
    return {"facets": facets, "facet_elems": facet_elems,
            "facet_locals": facet_locals, "elem_facets": elem_facets,
            "facet_lengths": lengths, "facet_normals": normals,
            "boundary_sides": boundary_sides}


def element_maps_loop(vertices, elements):
    ne = len(elements)
    J = np.empty((ne, 2, 2))
    detJ = np.empty(ne)
    Jinv = np.empty((ne, 2, 2))
    h = np.empty(ne)
    for k in range(ne):
        (t0, x0), (t1, x1), (t2, x2) = vertices[elements[k]].tolist()
        # columns: the edges from local vertex 0 to local vertices 1 and 2
        a, b, c, d = t1 - t0, t2 - t0, x1 - x0, x2 - x0
        det = a * d - b * c
        J[k] = [[a, b], [c, d]]
        detJ[k] = det
        Jinv[k] = [[d / det, -b / det], [-c / det, a / det]]
        h[k] = max(np.hypot(t2 - t1, x2 - x1), np.hypot(t0 - t2, x0 - x2),
                   np.hypot(t1 - t0, x1 - x0))
    return {"J": J, "detJ": detJ, "Jinv": Jinv, "element_h": h}


def extract_slab_rebuilt(mesh, n):
    """Slab ``n`` built by the mesh constructor from its vertices, elements
    and side labels, as ``extract_slab`` did before it restricted the
    parent's arrays."""
    in_slab = mesh.slab_index == n
    elems = mesh.elements[in_slab]
    vids = np.unique(elems)
    vmap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vmap[vids] = np.arange(len(vids))
    fe = mesh.facet_elems
    inside = (fe >= 0) & in_slab[fe]
    f = np.nonzero(inside[:, 0] != inside[:, 1])[0]  # facets on the slab boundary
    other = np.where(inside[f, 0], fe[f, 1], fe[f, 0])
    sid = np.where(other < 0, mesh.boundary_sides[f],
                   np.where(mesh.slab_index[other] < n,
                            _SIDE_ID["tmin"], _SIDE_ID["tmax"]))
    return SpaceTimeMesh(mesh.vertices[vids], vmap[elems], mesh.slab_index[in_slab],
                         (vmap[mesh.facets[f]], sid), "slab", mesh.box)


def bisect_refine_loop(mesh, marked):
    """Newest-vertex bisection of ``marked`` elements with conformity closure.

    Neighbors whose refinement edge disagrees are refined first
    (recursively); the result is conforming.
    """
    verts = [tuple(v) for v in mesh.vertices]
    elems = {i: tuple(int(v) for v in mesh.elements[i]) for i in range(mesh.n_elements)}
    slab = {i: int(mesh.slab_index[i]) for i in range(mesh.n_elements)}
    side = {(a, b): s for (a, b), s in zip(*(x.tolist() for x in mesh.boundary()))}
    next_id = mesh.n_elements

    edge2elems = {}
    for i, tri in elems.items():
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            key = (a, b) if a < b else (b, a)
            edge2elems.setdefault(key, set()).add(i)

    edge_mid = {}

    def _drop(i):
        tri = elems[i]
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            key = (a, b) if a < b else (b, a)
            edge2elems[key].discard(i)
        del elems[i]

    def _add(tri, sl):
        nonlocal next_id
        i = next_id
        next_id += 1
        elems[i] = tri
        slab[i] = sl
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            key = (a, b) if a < b else (b, a)
            edge2elems.setdefault(key, set()).add(i)

    def _midpoint(key):
        m = edge_mid.get(key)
        if m is None:
            a, b = key
            pa, pb = verts[a], verts[b]
            verts.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
            m = len(verts) - 1
            edge_mid[key] = m
            if key in side:
                s = side.pop(key)
                side[(min(a, m), max(a, m))] = s
                side[(min(b, m), max(b, m))] = s
        return m

    def _bisect(i):
        # split one element across its refinement edge (v1, v2)
        p, b1, b2 = elems[i]
        key = (b1, b2) if b1 < b2 else (b2, b1)
        m = _midpoint(key)
        sl = slab[i]
        _drop(i)
        _add((m, p, b1), sl)
        _add((m, b2, p), sl)

    def _refine(i):
        # iterative closure: refine incompatible neighbors across the
        # refinement edge before splitting i itself
        stack = [i]
        while stack:
            k = stack[-1]
            if k not in elems:
                stack.pop()
                continue
            p, b1, b2 = elems[k]
            key = (b1, b2) if b1 < b2 else (b2, b1)
            nbrs = [j for j in sorted(edge2elems.get(key, ())) if j != k]
            incompatible = None
            for j in nbrs:
                jp, jb1, jb2 = elems[j]
                jkey = (jb1, jb2) if jb1 < jb2 else (jb2, jb1)
                if jkey != key:
                    incompatible = j
                    break
            if incompatible is not None:
                stack.append(incompatible)
                continue
            stack.pop()
            _bisect(k)
            for j in nbrs:
                _bisect(j)

    for i in sorted(set(int(m) for m in marked)):
        if not 0 <= i < mesh.n_elements:
            raise ValueError(f"marked element {i} out of range")
        if i in elems:  # may already be split by closure
            _refine(i)

    ids = sorted(elems)
    new_elems = np.asarray([elems[i] for i in ids], dtype=np.int64)
    new_slab = np.asarray([slab[i] for i in ids], dtype=np.int64)
    return SpaceTimeMesh(np.asarray(verts), new_elems, new_slab,
                         (list(side), list(side.values())), mesh.mode, mesh.box)


def facet_side_groups_loop(mesh):
    groups = {}
    for s in (0, 1):
        ks = mesh.facet_elems[:, s]
        have = np.nonzero(ks >= 0)[0]
        k = ks[have]
        loc = mesh.facet_locals[have, s]
        i = np.array([_LOCAL_EDGES[l][0] for l in loc])
        j = np.array([_LOCAL_EDGES[l][1] for l in loc])
        first = mesh.elements[k, i] == mesh.facets[have, 0]
        la = np.where(first, i, j)
        lb = np.where(first, j, i)
        for key in range(9):
            sel = np.nonzero(la * 3 + lb == key)[0]
            if len(sel) == 0:
                continue
            g = groups.setdefault((key // 3, key % 3), [[], [], [], []])
            g[0].extend(have[sel])
            g[1].extend(k[sel])
            g[2].extend(loc[sel])
            g[3].extend([s] * len(sel))
    return {
        key: tuple(np.asarray(a, dtype=np.int64) for a in g)
        for key, g in groups.items()
    }


# -- checks -------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def labels(mesh):
    """The mesh's side labels as the loop's dict of sorted vertex pairs."""
    pairs, sides = mesh.boundary()
    return dict(zip(map(tuple, pairs.tolist()), sides.tolist()))


def assert_connectivity_matches_loop(mesh):
    want = connectivity_loop(mesh.vertices, mesh.elements, labels(mesh))
    want.update(element_maps_loop(mesh.vertices, mesh.elements))
    for name, arr in want.items():
        assert same_bits(getattr(mesh, name), arr), name


@pytest.mark.parametrize("nx, nt", [(1, 1), (1, 4), (5, 1), (3, 3), (4, 7),
                                    (16, 9), (32, 32)])
def test_build_st_mesh_matches_loop(nx, nt):
    box = BOX if nx != 4 else (-1.0, 2.5, 0.25, 3.0)
    mesh = build_st_mesh(nx, nt, box, "all_at_once")
    verts, elems, slabs, side = build_st_mesh_loop(nx, nt, box)
    assert same_bits(mesh.vertices, verts)
    assert same_bits(mesh.elements, elems)
    assert same_bits(mesh.slab_index, slabs)
    assert labels(mesh) == side
    assert list(labels(mesh)) == sorted(side)
    assert_connectivity_matches_loop(mesh)


@pytest.mark.parametrize("mapping", [
    DeformationMap(0.1),
    DeformationMap(mapping=lambda p: np.stack(
        [p[:, 0] + 0.05 * np.sin(3.0 * p[:, 1]), p[:, 1] ** 3 + p[:, 1]], axis=1)),
])
def test_deformed_mesh_matches_loop(mapping):
    mesh = deform_mesh(build_st_mesh(7, 5, BOX, "all_at_once"), mapping)
    assert_connectivity_matches_loop(mesh)
    validate_mesh(mesh)


def test_every_slab_matches_loop():
    mesh = build_st_mesh(6, 5, BOX, "slab")
    mesh = bisect_refine(mesh, [0, 13, 29, 44])
    for n in range(mesh.n_slabs):
        sub = extract_slab(mesh, n)
        assert_connectivity_matches_loop(sub)
        validate_mesh(sub)


MESH_ARRAYS = ("vertices", "elements", "slab_index", "J", "detJ", "Jinv",
               "element_h", "facets", "facet_lengths", "facet_locals",
               "facet_normals", "facet_elems", "elem_facets", "boundary_sides")


def assert_same_mesh(got, want):
    assert set(vars(got)) == set(vars(want))
    for field in MESH_ARRAYS:
        assert same_bits(getattr(got, field), getattr(want, field)), field
    assert (got.mode, got.box) == (want.mode, want.box)


def slab_parents():
    """Slab-mode parents: uniform, deformed in t, bisected, read back."""
    uniform = build_st_mesh(6, 5, BOX, "slab")
    refined = bisect_refine(bisect_refine(uniform, [0, 13, 29, 44]), [3, 50, 61])
    buf = io.StringIO()
    write_mesh(refined, buf)
    buf.seek(0)
    return {"uniform": uniform,
            "deformed": deform_mesh(uniform, DeformationMap(0.1)),
            "refined": refined, "read_back": read_mesh(buf)}


@pytest.mark.parametrize("name", ["uniform", "deformed", "refined", "read_back"])
def test_every_slab_equals_the_constructors_mesh(name):
    mesh = slab_parents()[name]
    for n in range(mesh.n_slabs):
        assert_same_mesh(extract_slab(mesh, n), extract_slab_rebuilt(mesh, n))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["pulse1d", "layer1d", "polyexact"]),
       deformed=st.booleans(), mode=st.sampled_from(MODES), nx=st.integers(1, 5),
       nt=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 4))
def test_random_bisection_matches_loop_and_stays_conforming(name, deformed, mode, nx,
                                                            nt, seed, rounds):
    case = case_by_name(name, nu=1e-2, deformed=deformed)
    mesh = build_case_mesh(case, nx, nt, mode)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        size = int(rng.integers(1, mesh.n_elements + 1))
        marked = rng.integers(mesh.n_elements, size=size)  # with repeats
        want = bisect_refine_loop(mesh, marked)
        mesh = bisect_refine(mesh, marked)
        assert_same_mesh(mesh, want)
        assert_connectivity_matches_loop(mesh)
        validate_mesh(mesh)


@pytest.mark.parametrize("name, nu", [("pulse1d", 1e-4), ("layer1d", 0.0)])
def test_adaptive_loop_meshes_match_loop(monkeypatch, name, nu):
    refined = []

    def refine(mesh, marked):
        refined.append(bisect_refine(mesh, marked))
        assert_same_mesh(refined[-1], bisect_refine_loop(mesh, marked))
        return refined[-1]

    monkeypatch.setattr(sthdg.amr, "bisect_refine", refine)
    records = amr_loop(case_by_name(name, nu=nu), 1, 6, n0=8, fraction=0.12)
    # layer1d's indicator reaches roundoff after three refinements
    assert len(refined) == len(records) - 1 >= 3


def test_bisection_of_no_all_and_float_marks_matches_loop():
    mesh = build_st_mesh(4, 3, BOX, "slab")
    for marked in ([], range(mesh.n_elements), [2.7, 0.2, 5.9, 5.1]):
        assert_same_mesh(bisect_refine(mesh, marked), bisect_refine_loop(mesh, marked))
    for marked, first in (([1, 24, -3], -3), ([30, 25], 25)):
        with pytest.raises(ValueError, match=rf"^marked element {first} out of range$"):
            bisect_refine(mesh, marked)


def hanging_pairs_loop(vertices, facets, tol, scale):
    """validate_mesh's conformity check, one vertex against every facet."""
    va = vertices[facets[:, 0]]
    vb = vertices[facets[:, 1]]
    d = vb - va
    L2 = np.sum(d * d, axis=1)
    pairs = []
    for i, p in enumerate(vertices):
        tpar = np.sum((p - va) * d, axis=1) / L2
        foot = va + tpar[:, None] * d
        dist = np.hypot(*(p - foot).T)
        on = (dist < tol * scale) & (tpar > tol) & (tpar < 1 - tol)
        on &= (facets[:, 0] != i) & (facets[:, 1] != i)
        pairs += [(i, int(f)) for f in np.nonzero(on)[0]]
    return pairs


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 5), nt=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-12, 1e-6, 1e-3]))
def test_hanging_pairs_match_loop(nx, nt, seed, tol):
    mesh = deform_mesh(build_st_mesh(nx, nt, BOX, "all_at_once"),
                       DeformationMap(0.1))
    rng = np.random.default_rng(seed)
    mesh = bisect_refine(mesh, rng.choice(mesh.n_elements, size=2, replace=False))
    scale = max(abs(v) for v in mesh.box) + 1.0
    # extra vertices on, near and just off random facets, the first one
    # at a midpoint; the offsets straddle the tolerance on either test
    n = 60
    f = rng.integers(len(mesh.facets), size=n)
    a = mesh.vertices[mesh.facets[f, 0]]
    d = mesh.vertices[mesh.facets[f, 1]] - a
    edge = np.array([0.0, 0.5, 0.99, 1.01, 2.0, 3.0]) * tol
    t = np.where(rng.random(n) < 0.5, rng.random(n),
                 rng.choice(np.concatenate([edge, 1.0 - edge]), size=n))
    off = rng.choice(edge, size=n) * scale * rng.choice([-1.0, 1.0], size=n)
    normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / np.hypot(*d.T)[:, None]
    pts = a + t[:, None] * d + off[:, None] * normal
    t[0], pts[0] = 0.5, a[0] + 0.5 * d[0]
    vertices = np.vstack([mesh.vertices, pts])
    want = hanging_pairs_loop(vertices, mesh.facets, tol, scale)
    assert (mesh.n_vertices, f[0]) in want
    vert, fac = _hanging_pairs(vertices, mesh.facets, tol, scale)
    assert list(zip(vert.tolist(), fac.tolist())) == want
    # the meshes themselves conform
    assert not len(_hanging_pairs(mesh.vertices, mesh.facets, tol, scale)[0])


def assert_groups_match_loop(mesh):
    got, want = _facet_side_groups(mesh), facet_side_groups_loop(mesh)
    assert list(got) == list(want)
    for key in want:
        assert all(same_bits(a, b) for a, b in zip(got[key], want[key])), key


def layer_meshes():
    """Uniform, deformed, refined and slab meshes of the nu = 0 layer case.

    Bisection creates facets along the characteristic x = t, whose traces
    nothing couples to (dt = dx), so the refined mesh pins loose facets.
    """
    case = case_by_name("layer1d")
    uniform = build_case_mesh(case, 5, 5, mode="all_at_once")
    refined = bisect_refine(bisect_refine(uniform, [0, 7, 12, 30]), [3, 9, 21])
    slab = build_case_mesh(case, 4, 3, mode="slab")
    return case, [uniform, deform_mesh(uniform, DeformationMap(0.1)), refined,
                  *(extract_slab(slab, n) for n in range(slab.n_slabs))]


def test_facet_side_groups_match_loop():
    _, meshes = layer_meshes()
    for mesh in meshes:
        assert_groups_match_loop(mesh)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_facet_side_groups_match_loop_on_refined_meshes(seed):
    mesh = build_st_mesh(3, 3, BOX, "all_at_once")
    rng = np.random.default_rng(seed)
    for _ in range(3):
        mesh = bisect_refine(mesh, rng.choice(mesh.n_elements, size=4, replace=False))
    assert_groups_match_loop(mesh)


@pytest.mark.parametrize("p", [1, 2])
def test_facet_block_diagonal_keeps_every_block_entry(p):
    case, meshes = layer_meshes()
    bs = assemble_blocks(meshes[2], p, case.prob)
    nM = p + 1
    nb = len(bs.coupled_facets)
    idx = np.arange(nb * nM).reshape(nb, nM)
    blocks = bs.D.toarray()[idx[:, :, None], idx[:, None, :]]
    # loose facets are pinned to identity blocks with untouched traces
    loose = np.all(blocks == np.eye(nM), axis=(1, 2))
    assert loose.any()
    for f in bs.coupled_facets[loose]:
        for k, loc in zip(bs.mesh.facet_elems[f], bs.mesh.facet_locals[f]):
            if k >= 0:
                assert not bs.elem_B[k, loc].any() and not bs.elem_C[k, loc].any()
    # byte-equal to sp.block_diag of the same blocks: zeros stay stored
    want = validate_csr(sp.block_diag(blocks, format="csr"))
    assert bs.D.nnz == nb * nM * nM
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(bs.D, name), getattr(want, name)), name
