import numpy as np
import pytest

import sthdg.amr
import sthdg.cases
import sthdg.solving
from sthdg.amr import AmrRecord, amr_loop, mark_fixed_fraction, zz_estimate
from sthdg.cases import build_case_mesh, make_layer1d, make_polyexact
from sthdg.mesh import bisect_refine, validate_mesh

from oracles import project


@pytest.fixture(autouse=True)
def validated_meshes(monkeypatch):
    """Every mesh amr_loop builds or refines must pass validate_mesh."""

    def checked(make):
        def make_and_validate(*args, **kwargs):
            m = make(*args, **kwargs)
            validate_mesh(m)
            return m

        return make_and_validate

    monkeypatch.setattr(sthdg.cases, "build_case_mesh",
                        checked(sthdg.cases.build_case_mesh))
    monkeypatch.setattr(sthdg.amr, "bisect_refine",
                        checked(sthdg.amr.bisect_refine))


@pytest.fixture(scope="module")
def mesh():
    case = make_polyexact(1, 0.05, deformed=False)
    m = build_case_mesh(case, 5, 4, mode="all_at_once")
    # refine a few elements so the vertex patches are not all structured
    m = bisect_refine(m, [0, 3, 11])
    validate_mesh(m)
    return m


def test_zz_vanishes_on_globally_linear_fields(mesh):
    lin = lambda pts: 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1]
    eta = zz_estimate(mesh, project(mesh, 2, lin), 2)
    assert eta.max() < 1e-12
    assert np.sqrt(np.sum(eta**2)) < 1e-11


def test_zz_invariant_under_constant_shift(mesh):
    f = lambda pts: np.sin(pts[:, 0]) * pts[:, 1]
    e1 = zz_estimate(mesh, project(mesh, 2, f), 2)
    e2 = zz_estimate(mesh, project(mesh, 2, lambda p: f(p) + 11.0), 2)
    assert np.allclose(e1, e2, atol=1e-11)


def test_zz_flags_jump_layer(mesh):
    step = lambda pts: (pts[:, 1] > 0.05).astype(float)
    eta = zz_estimate(mesh, project(mesh, 1, step), 1)
    worst = np.argmax(eta)
    xs = mesh.vertices[mesh.elements[worst], 1]
    assert xs.min() - 0.2 <= 0.05 <= xs.max() + 0.2
    # elements far from the jump carry much smaller indicators
    far = [k for k in range(mesh.n_elements)
           if np.all(np.abs(mesh.vertices[mesh.elements[k], 1] - 0.05) > 0.3)]
    assert eta[far].max() < 0.2 * eta[worst]


def test_mark_fixed_fraction_rules():
    field = np.array([3.0, 1.0, 2.0])
    assert list(mark_fixed_fraction(field, 1 / 3)) == [0]
    assert list(mark_fixed_fraction(field, 1.0)) == [0, 1, 2]
    ties = np.array([1.0, 2.0, 2.0, 0.5])
    assert list(mark_fixed_fraction(ties, 0.5)) == [1, 2]
    with pytest.raises(ValueError):
        mark_fixed_fraction(field, 0.0)
    # identical fields mark identical sets
    again = np.array([3.0, 1.0, 2.0])
    assert np.array_equal(mark_fixed_fraction(field, 0.67),
                          mark_fixed_fraction(again, 0.67))


def test_mark_fixed_fraction_takes_plain_nonnegative_indicators():
    eta = np.array([0.5, 4.0, 0.0, 3.0, 4.0])
    assert list(mark_fixed_fraction(eta, 0.5)) == [1, 3, 4]
    assert list(mark_fixed_fraction([0.5, 4.0, 0.0, 3.0, 4.0], 0.2)) == [1]
    with pytest.raises(ValueError):
        mark_fixed_fraction(np.array([1.0, -0.5]), 0.5)


def test_amr_loop_zero_cycles_is_single_solve():
    recs = amr_loop(make_layer1d(), 1, 0, n0=4, fraction=0.1)
    assert len(recs) == 1
    assert isinstance(recs[0], AmrRecord)
    assert recs[0].cycle == 0 and recs[0].n_coupled > 0


def test_amr_loop_looks_up_solve_problem_per_call(monkeypatch):
    # amr_loop imports at call time, so a wrapper set on sthdg.solving
    # (as a tracer sets one) sees every solve
    calls = []
    original = sthdg.solving.solve_problem

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sthdg.solving, "solve_problem", counting)
    recs = amr_loop(make_layer1d(), 1, 2, n0=8, fraction=0.2)
    assert len(recs) == 3
    assert len(calls) == 3


def test_amr_loop_grows_and_improves():
    recs = amr_loop(make_layer1d(), 1, 3, n0=8, fraction=0.2)
    ns = [r.n_coupled for r in recs]
    errs = [r.l2_error for r in recs]
    assert all(b > a for a, b in zip(ns, ns[1:]))
    assert errs[-1] < 0.5 * errs[0]
    assert all(r.iterations >= 1 for r in recs)
    elements = [r.mesh.n_elements for r in recs]
    assert all(b > a for a, b in zip(elements, elements[1:]))
    assert all(np.median(r.mesh.element_h) == r.median_h for r in recs)


def test_amr_loop_stops_once_indicator_hits_roundoff():
    # the moving-front solution becomes exactly representable once the
    # refinement lines up facets with the characteristic, so the loop
    # should quit instead of refining on noise
    recs = amr_loop(make_layer1d(), 1, 8, n0=8, fraction=0.3)
    assert len(recs) < 9
    assert recs[-1].l2_error < 1e-12
