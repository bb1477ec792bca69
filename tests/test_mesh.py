import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sthdg
from sthdg.cases import build_case_mesh, case_by_name
from sthdg.mesh import (SIDE_NAMES, DeformationMap, SpaceTimeMesh,
                        bisect_refine, build_st_mesh, deform_mesh,
                        extract_slab, read_mesh, validate_mesh, write_mesh)
from sthdg.solving import solve_problem


def make(nx=4, nt=3, mode="all_at_once"):
    return build_st_mesh(nx, nt, box=(0.0, 1.0, -0.5, 0.5), mode=mode)


def on_side(m, name):
    """Indices of the boundary facets labeled ``name``."""
    return np.nonzero(m.boundary_sides == SIDE_NAMES.index(name))[0]


def test_uniform_mesh_counts_and_validity():
    m = make(4, 3)
    assert m.n_elements == 2 * 4 * 3
    assert len(m.vertices) == 5 * 4
    validate_mesh(m)


def test_no_characteristic_facets_on_uniform_mesh():
    # the anti-diagonal split keeps a_n = n_t + n_x away from zero for a=1
    m = make(6, 6)
    an = m.facet_normals[:, 0, 0] + m.facet_normals[:, 0, 1]
    assert np.abs(an).min() > 0.1


def test_boundary_side_labels():
    m = make(4, 4)
    mids = m.facet_midpoints()
    for name, expect in (("tmin", 0.0), ("tmax", 1.0)):
        f = on_side(m, name)
        assert len(f) == 4
        assert np.allclose(mids[f][:, 0], expect)
    xd = mids[np.concatenate([on_side(m, "xlo"), on_side(m, "xhi")])][:, 1]
    assert np.all(np.isin(np.round(xd, 12), [-0.5, 0.5]))


def test_deformation_fixes_time_boundaries():
    m = make(5, 5)
    d = deform_mesh(m, DeformationMap())
    validate_mesh(d)
    onboundary = np.isin(m.vertices[:, 0], [0.0, 1.0])
    assert np.allclose(d.vertices[onboundary], m.vertices[onboundary])
    assert not np.allclose(d.vertices, m.vertices)
    # side labels survive the deformation
    assert len(on_side(d, "tmin")) == 5


def test_bisect_refine_conforming_and_deterministic():
    m = make(4, 4)
    r1 = bisect_refine(m, [0, 5, 9])
    r2 = bisect_refine(m, np.array([0, 5, 9]))
    validate_mesh(r1)
    assert r1.n_elements > m.n_elements
    assert np.array_equal(r1.elements, r2.elements)
    assert np.allclose(r1.vertices, r2.vertices)
    # refinement preserves the side labels
    assert len(on_side(r1, "tmax")) >= 4


def test_repeated_refinement_stays_valid():
    m = make(3, 3)
    rng = np.random.default_rng(0)
    for _ in range(4):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 6),
                            replace=False)
        m = bisect_refine(m, marked)
        validate_mesh(m)
    areas_total = 0.5 * m.detJ.sum()
    assert np.isclose(areas_total, 1.0, atol=1e-12)


def coords(m, pairs):
    """The vertex coordinates of each row of ``pairs``, as tuples."""
    return list(map(tuple, m.vertices[pairs].reshape(len(pairs), -1).tolist()))


def test_extract_slab_partitions_elements():
    m = make(4, 3, mode="slab")
    assert m.n_slabs == 3
    parent_side = dict(zip(coords(m, m.boundary()[0]), m.boundary()[1]))
    corners = []
    for s in range(3):
        sub = extract_slab(m, s)
        validate_mesh(sub)
        assert sub.n_elements == 2 * 4
        assert np.all(sub.slab_index == s) and sub.n_slabs == s + 1
        # the parent's slab s, element for element and in the parent's order
        corners.append(sub.vertices[sub.elements])
        assert np.array_equal(corners[-1], m.vertices[m.elements[m.slab_index == s]])
        # slab interfaces become inflow-like / final surfaces of the slab
        assert len(on_side(sub, "tmin")) == 4
        assert len(on_side(sub, "tmax")) == 4
        t = sub.vertices[:, 0]
        sides = sub.boundary_sides
        assert np.all(t[sub.facets[sides == SIDE_NAMES.index("tmin")]] == t.min())
        assert np.all(t[sub.facets[sides == SIDE_NAMES.index("tmax")]] == t.max())
        # spatial sides are the parent's labels of the same facets
        spatial = sides >= SIDE_NAMES.index("xlo")
        assert np.count_nonzero(spatial) == 2  # one xlo, one xhi facet
        for key, sd in zip(coords(sub, sub.facets[spatial]), sides[spatial]):
            assert parent_side[key] == sd
    # every parent element lies in exactly one slab
    by_slab = m.elements[np.argsort(m.slab_index, kind="stable")]
    assert np.array_equal(np.concatenate(corners), m.vertices[by_slab])


def test_mesh_io_roundtrip(tmp_path):
    m = make(3, 4, mode="slab")
    m = bisect_refine(m, [1, 2])
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.elements, m.elements)
    assert np.array_equal(back.vertices, m.vertices)  # bitwise via %.17g
    assert back.mode == m.mode and back.n_slabs == m.n_slabs
    assert np.array_equal(back.boundary_sides, m.boundary_sides)


# version 1 files carried a boundary classification line after nslabs
MESH_V1 = """sthdg-mesh 1
mode slab
box 0 1 -0.5 0.5
nslabs 2
classified xlo
vertices 6
0 -0.5
0 0.5
0.5 -0.5
0.5 0.5
1 -0.5
1 0.5
elements 4
0 2 1 0
3 1 2 0
2 4 3 1
5 3 4 1
boundary 6
0 1 tmin
0 2 xlo
1 3 xhi
2 4 xlo
3 5 xhi
4 5 tmax
"""


def test_mesh_io_reads_version_1():
    m = make(1, 2, mode="slab")
    back = read_mesh(io.StringIO(MESH_V1))
    for name in ("vertices", "elements", "slab_index", "boundary_sides"):
        assert getattr(back, name).tobytes() == getattr(m, name).tobytes(), name
    for a, b in zip(back.boundary(), m.boundary()):
        assert a.tobytes() == b.tobytes()
    assert (back.mode, back.box, back.n_slabs) == (m.mode, m.box, m.n_slabs)
    buf = io.StringIO()
    write_mesh(back, buf)
    assert buf.getvalue() == MESH_V1.replace("sthdg-mesh 1", "sthdg-mesh 2") \
        .replace("classified xlo\n", "")


@pytest.mark.parametrize("header", ["sthdg-mesh 3", "sthdg-mesh", "mesh 2"])
def test_mesh_io_rejects_other_headers(header):
    with pytest.raises(ValueError):
        read_mesh(io.StringIO(MESH_V1.replace("sthdg-mesh 1", header)))


@pytest.mark.parametrize("line", ["nslabs 2", "nslabs 9"])
def test_mesh_io_rejects_nslabs_other_than_the_slab_column(line):
    # a march over such a mesh would solve 2 of its 8 slabs
    buf = io.StringIO()
    write_mesh(make(8, 8, mode="slab"), buf)
    assert "\nnslabs 8\n" in buf.getvalue()
    with pytest.raises(ValueError, match=rf"^{line} disagrees"):
        read_mesh(io.StringIO(buf.getvalue().replace("nslabs 8", line)))


@pytest.mark.parametrize("row, vertex", [("9 2 1 0", 9), ("-6 2 1 0", -6),
                                         ("0 2 6 0", 6)])
def test_mesh_io_rejects_an_element_vertex_outside_the_vertex_list(row, vertex):
    # -6 would wrap around to vertex 0 and leave an unlabelled boundary facet
    text = MESH_V1.replace("\n0 2 1 0\n", f"\n{row}\n")
    with pytest.raises(ValueError, match=rf"^element row 0 names vertex {vertex}, "
                                         r"not one of the 6 vertices$"):
        read_mesh(io.StringIO(text))


def test_mesh_io_rejects_an_unknown_mode():
    text = MESH_V1.replace("mode slab", "mode slabs")
    with pytest.raises(ValueError, match="unknown mode 'slabs'"):
        read_mesh(io.StringIO(text))


# -- construction and validation errors ---------------------------------


def unit_square(elements, boundary, mode="all_at_once"):
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    return SpaceTimeMesh(verts, elements, np.zeros(len(elements), dtype=int),
                         boundary, mode, (0.0, 1.0, 0.0, 1.0))


def test_negatively_oriented_element_rejected():
    with pytest.raises(ValueError, match="element 1 is not positively oriented"):
        unit_square([(0, 1, 2), (3, 1, 2)], ([], []))


@pytest.mark.parametrize("mode", ["slabs", "all", None])
def test_unknown_mode_rejected(mode):
    labels = ([(0, 1), (0, 2), (1, 3), (2, 3)], [0, 2, 3, 1])
    assert unit_square([(0, 1, 2), (3, 2, 1)], labels).n_slabs == 1
    with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
        unit_square([(0, 1, 2), (3, 2, 1)], labels, mode)


def test_facet_shared_by_three_elements_rejected():
    # three positively oriented triangles on the edge (0, 1): two above it,
    # one below
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)]
    with pytest.raises(ValueError,
                       match=r"facet \(0, 1\) shared by more than two elements"):
        SpaceTimeMesh(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4)], [0, 0, 0],
                      ([], []), "all_at_once", (0.0, 1.0, -1.0, 2.0))


@pytest.mark.parametrize("alias", [False, True])
def test_unlabeled_boundary_facet_rejected(alias):
    # with alias, the label moves to an out-of-range pair whose key
    # lo * n_vertices + hi equals the facet's
    m = make(3, 2)
    side = dict(zip(map(tuple, m.boundary()[0].tolist()), m.boundary()[1].tolist()))
    key = sorted(side)[4]
    assert key[0] >= 1
    label = side.pop(key)
    if alias:
        side[(key[0] - 1, key[1] + m.n_vertices)] = label
    with pytest.raises(ValueError, match=rf"boundary facet \({key[0]}, {key[1]}\) "
                                         "has no side label"):
        SpaceTimeMesh(m.vertices, m.elements, m.slab_index,
                      (list(side), list(side.values())), m.mode, m.box)


def hanging_mesh():
    """The lower-right half of the unit square bisected at the midpoint (4)
    of the diagonal, the upper-left half not; every boundary facet,
    including both sides of the diagonal, carries a label."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    side = {(0, 1): 0, (2, 3): 1, (0, 2): 2, (1, 3): 3,
            (1, 2): 0, (1, 4): 0, (2, 4): 0}
    return SpaceTimeMesh(verts, [(0, 1, 2), (4, 3, 2), (4, 1, 3)], [0, 0, 0],
                         (list(side), list(side.values())), "all_at_once",
                         (0.0, 1.0, 0.0, 1.0))


def test_labeled_hanging_vertex_rejected_by_validate_mesh():
    with pytest.raises(AssertionError, match="vertex 4 hangs on facet"):
        validate_mesh(hanging_mesh())


def test_mesh_io_rejects_a_hanging_vertex():
    # assembly would treat both sides of the bisected diagonal as boundary
    buf = io.StringIO()
    write_mesh(hanging_mesh(), buf)
    with pytest.raises(ValueError, match=r"^vertex 4 hangs on facet \[1, 2\]$"):
        read_mesh(io.StringIO(buf.getvalue()))


def test_validate_mesh_checks_under_optimize():
    # python -O strips assert statements; validate_mesh must still refuse
    paths = (Path(sthdg.__file__).parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    run = subprocess.run(
        [sys.executable, "-O", "-c",
         "import test_mesh; from sthdg.mesh import validate_mesh; "
         "validate_mesh(test_mesh.hanging_mesh())"],
        env=env, capture_output=True, text=True)
    assert run.returncode != 0
    assert "AssertionError: vertex 4 hangs on facet [" in run.stderr


def test_validate_mesh_rejects_open_element():
    # stretching one interior facet opens both of its elements; the lower
    # element id is reported
    m = make(2, 2)
    f = m.elem_facets[5, 2]
    assert m.facet_elems[f].tolist() == [5, 6]
    m.facet_lengths = m.facet_lengths.copy()
    m.facet_lengths[f] *= 1.5
    with pytest.raises(AssertionError, match="element 5 normals do not close"):
        validate_mesh(m)


# -- exact mesh round-trip ----------------------------------------------


@st.composite
def random_meshes(draw):
    nx, nt = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["all_at_once", "slab"]))
    m = make(nx, nt, mode=mode)
    assert m.n_slabs == m.slab_index.max() + 1 == nt
    if draw(st.booleans()):
        m = deform_mesh(m, DeformationMap(draw(st.floats(0.0, 0.2))))
        assert m.n_slabs == m.slab_index.max() + 1 == nt
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        m = bisect_refine(m, rng.choice(m.n_elements, size=int(
            rng.integers(1, m.n_elements + 1)), replace=False))
        assert m.n_slabs == m.slab_index.max() + 1 == nt
    if draw(st.booleans()):
        n = draw(st.integers(0, m.n_slabs - 1))
        m = extract_slab(m, n)
        assert m.n_slabs == m.slab_index.max() + 1 == n + 1
    return m


@pytest.mark.parametrize("deformed", [False, True], ids=["fixed", "moving"])
def test_slab_mesh_read_back_marches_the_same_slabs(deformed):
    case = case_by_name("pulse1d", nu=1e-2, deformed=deformed)
    mesh = build_case_mesh(case, 8, 8, mode="slab")
    buf = io.StringIO()
    write_mesh(mesh, buf)
    back = read_mesh(io.StringIO(buf.getvalue()))
    a, b = (solve_problem(m, 1, case.prob).slabs for m in (mesh, back))
    assert len(a) == len(b) == 8
    for (_, x), (_, y) in zip(a, b):
        assert x.lam.tobytes() == y.lam.tobytes()


@settings(max_examples=40, deadline=None)
@given(m=random_meshes())
def test_mesh_io_roundtrip_exact(m):
    buf = io.StringIO()
    write_mesh(m, buf)
    buf.seek(0)
    back = read_mesh(buf)
    for name in ("vertices", "elements", "slab_index", "boundary_sides"):
        a, b = getattr(back, name), getattr(m, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for a, b in zip(back.boundary(), m.boundary()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (back.mode, back.box, back.n_slabs) == (m.mode, m.box, m.n_slabs)
