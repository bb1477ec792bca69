import numpy as np
import pytest

from sthdg.mesh import (SIDE_NAMES, DeformationMap, RefinementBudgetError,
                        TAG_DIRICHLET, TAG_FINAL, TAG_NEUMANN, bisect_refine,
                        build_st_mesh,
                        classify_boundary, deform_mesh, extract_slab,
                        read_mesh, validate_mesh, write_mesh)


def make(nx=4, nt=3, mode="all_at_once"):
    return build_st_mesh(nx, nt, box=(0.0, 1.0, -0.5, 0.5), mode=mode)


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


def test_boundary_classification_tags():
    m = classify_boundary(make(4, 4))
    mids = m.facet_midpoints()
    for tag, expect in ((TAG_NEUMANN, 0.0), (TAG_FINAL, 1.0)):
        f = m.boundary_facets(tag)
        assert len(f) == 4
        assert np.allclose(mids[f][:, 0], expect)
    xd = mids[m.boundary_facets(TAG_DIRICHLET)][:, 1]
    assert np.all(np.isin(np.round(xd, 12), [-0.5, 0.5]))


def test_neumann_sides_only_spatial():
    m = make(3, 3)
    classify_boundary(m, neumann_sides=("xlo",))
    with pytest.raises(ValueError):
        classify_boundary(m, neumann_sides=("tmin",))


def test_deformation_fixes_time_boundaries():
    m = classify_boundary(make(5, 5))
    d = deform_mesh(m, DeformationMap())
    validate_mesh(d)
    onboundary = np.isin(m.vertices[:, 0], [0.0, 1.0])
    assert np.allclose(d.vertices[onboundary], m.vertices[onboundary])
    assert not np.allclose(d.vertices, m.vertices)
    # classification survives the deformation
    assert len(d.boundary_facets(TAG_NEUMANN)) == 5


def test_bisect_refine_conforming_and_deterministic():
    m = classify_boundary(make(4, 4))
    r1 = bisect_refine(m, [0, 5, 9])
    r2 = bisect_refine(m, np.array([0, 5, 9]))
    validate_mesh(r1)
    assert r1.n_elements > m.n_elements
    assert np.array_equal(r1.elements, r2.elements)
    assert np.allclose(r1.vertices, r2.vertices)
    # lineage maps every child to a parent element of the input mesh
    assert r1.lineage.shape[0] == r1.n_elements
    assert r1.lineage.max() < m.n_elements
    # refinement preserves the boundary classification
    assert len(r1.boundary_facets(TAG_FINAL)) >= 4


def test_bisect_refine_budget():
    m = classify_boundary(make(4, 4))
    with pytest.raises(RefinementBudgetError):
        bisect_refine(m, range(m.n_elements), max_elements=m.n_elements + 4)


def test_repeated_refinement_stays_valid():
    m = classify_boundary(make(3, 3))
    rng = np.random.default_rng(0)
    for _ in range(4):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 6),
                            replace=False)
        m = bisect_refine(m, marked)
        validate_mesh(m)
    areas_total = m.areas.sum()
    assert np.isclose(areas_total, 1.0, atol=1e-12)


def test_extract_slab_partitions_elements():
    m = classify_boundary(make(4, 3, mode="slab"))
    assert m.n_slabs == 3
    parent_side = dict(zip(map(tuple, m.facets.tolist()), m.boundary_sides))
    seen = []
    for s in range(3):
        sub, elem_ids, vids = extract_slab(m, s)
        validate_mesh(sub)
        assert sub.n_elements == 2 * 4
        seen.extend(elem_ids.tolist())
        # slab interfaces become inflow-like / final surfaces of the slab
        assert len(sub.boundary_facets(TAG_NEUMANN)) == 4
        assert len(sub.boundary_facets(TAG_FINAL)) == 4
        t = sub.vertices[:, 0]
        sides = sub.boundary_sides
        assert np.all(t[sub.facets[sides == SIDE_NAMES.index("tmin")]] == t.min())
        assert np.all(t[sub.facets[sides == SIDE_NAMES.index("tmax")]] == t.max())
        # spatial sides are the parent's labels of the same facets
        spatial = sides >= SIDE_NAMES.index("xlo")
        assert np.count_nonzero(spatial) == 2  # one xlo, one xhi facet
        for (a, b), sd in zip(vids[sub.facets[spatial]].tolist(), sides[spatial]):
            assert parent_side[(a, b)] == sd
    assert sorted(seen) == list(range(m.n_elements))


def test_mesh_io_roundtrip(tmp_path):
    m = classify_boundary(make(3, 4, mode="slab"))
    m = bisect_refine(m, [1, 2])
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.elements, m.elements)
    assert np.array_equal(back.vertices, m.vertices)  # bitwise via %.17g
    assert back.mode == m.mode and back.n_slabs == m.n_slabs
    assert np.array_equal(back.boundary_tags, m.boundary_tags)
