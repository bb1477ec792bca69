from dataclasses import replace

import numpy as np
import pytest

from sthdg.cases import build_case_mesh, make_polyexact, make_pulse1d
from sthdg.hdg import (ProblemSpec, assemble_blocks, condense, default_penalty,
                       lambda_dof_positions, line_trace_evaluator, reconstruct,
                       st_l2_error)
from sthdg.mesh import SIDE_NAMES, build_st_mesh, extract_slab
from sthdg.solving import solve_problem
from sthdg.sparsela import DenseLU

from oracles import monolithic, project


def small_system(p=1, nx=3, nt=3, nu=0.05, deformed=False):
    case = make_polyexact(p, nu=nu, deformed=deformed)
    mesh = build_case_mesh(case, nx, nt, mode="all_at_once")
    bs = assemble_blocks(mesh, p, case.prob)
    return case, mesh, bs


def test_default_penalty():
    assert default_penalty(1) == 10
    assert default_penalty(2) == 40
    assert default_penalty(3) == 90


def test_neumann_sides_only_spatial():
    ProblemSpec(nu=0, neumann_sides=("xlo", "xhi"))
    with pytest.raises(ValueError, match="neumann_sides may only name spatial sides"):
        ProblemSpec(nu=0, neumann_sides=("tmin",))


@pytest.mark.parametrize("mode", ["all_at_once", "slab"])
@pytest.mark.parametrize("ns", [(), ("xlo",), ("xlo", "xhi")])
def test_problem_neumann_sides_couple_on_any_mesh(mode, ns):
    """The problem, not the mesh, decides which spatial sides are Neumann:
    each named side couples the traces of its facets, 6 on the 6 x 6 mesh
    and 1 on each of its slabs, at 3 unknowns per facet."""
    case = make_polyexact(2, nu=0.05, deformed=False)
    prob = replace(case.prob, neumann_sides=ns)
    mesh = build_case_mesh(case, 6, 6, mode=mode)
    if mode == "all_at_once":
        assert assemble_blocks(mesh, 2, prob).n_lambda == 324 + 18 * len(ns)
    else:
        slab = extract_slab(mesh, 0)
        assert assemble_blocks(slab, 2, prob).n_lambda == 69 + 3 * len(ns)
    sol = solve_problem(mesh, 2, prob)
    err = (sol.error(2, prob.exact) if mode == "slab"
           else st_l2_error(mesh, 2, sol.U, prob.exact))
    assert err < 1e-10


@pytest.mark.parametrize("deformed", [False, True])
def test_initial_data_reaches_only_tmin_facets(deformed):
    """``initial`` replaces ``neumann`` on the facets labelled tmin and
    nowhere else, also where a deformed Neumann side leans in time."""
    case = make_polyexact(2, nu=0.05, deformed=deformed)
    prob = replace(case.prob, neumann_sides=("xlo", "xhi"))
    mesh = build_case_mesh(case, 6, 6, mode="all_at_once")
    base = assemble_blocks(mesh, 2, prob)
    shifted = assemble_blocks(mesh, 2, replace(
        prob, initial=lambda pts: prob.exact(pts) + 1.0))
    changed = np.abs(shifted.G - base.G).reshape(-1, 3).max(axis=1) > 1e-12
    tmin = mesh.boundary_sides[base.coupled_facets] == SIDE_NAMES.index("tmin")
    assert tmin.sum() == 6 and np.array_equal(changed, tmin)


def _slab_and_all_at_once_errors(case, sides):
    prob = replace(case.prob, neumann_sides=sides)
    slab = solve_problem(build_case_mesh(case, 16, 16, mode="slab"), 2, prob)
    mesh = build_case_mesh(case, 16, 16, mode="all_at_once")
    whole = solve_problem(mesh, 2, prob)
    return (slab.error(2, prob.exact),
            st_l2_error(mesh, 2, whole.U, prob.exact))


@pytest.mark.parametrize("sides", [("xlo",), ("xlo", "xhi")])
def test_slab_inflow_reaches_only_tmin_facets(sides):
    """The deformed mesh's spatial sides lean in time, so some outward
    normals there point backwards in t; the previous slab's trace must
    still reach only the facets labelled tmin, and the polynomial is then
    reproduced slab by slab too."""
    slab, _ = _slab_and_all_at_once_errors(
        make_polyexact(2, nu=0.05, deformed=True), sides)
    assert slab < 1e-10


def test_slab_march_equals_all_at_once_with_a_neumann_side():
    slab, whole = _slab_and_all_at_once_errors(
        make_pulse1d(1e-2, deformed=True), ("xlo",))
    assert abs(slab - whole) <= 1e-10 * whole


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("deformed", [False, True])
def test_polynomial_exactness_dense(p, deformed):
    """A degree-p manufactured solution is reproduced to roundoff."""
    case, mesh, bs = small_system(p, deformed=deformed)
    A, rhs = monolithic(bs)
    sol = DenseLU(A.toarray()).solve(rhs)
    nU = mesh.n_elements * bs.nV
    err = st_l2_error(mesh, p, sol[:nU], case.prob.exact)
    assert err < 1e-10


@pytest.mark.parametrize("p", [1, 2])
def test_schur_matches_monolithic(p):
    """Condensation + reconstruction equals the one-shot dense solve."""
    case, mesh, bs = small_system(p, nx=4, nt=4)
    A, rhs = monolithic(bs)
    mono = DenseLU(A.toarray()).solve(rhs)
    cs = condense(bs)
    lam = DenseLU(cs.S.toarray()).solve(cs.H)
    U = reconstruct(cs, lam)
    nU = mesh.n_elements * bs.nV
    assert np.allclose(U, mono[:nU], atol=1e-10)
    assert np.allclose(lam, mono[nU:], atol=1e-10)


def test_projection_reproduces_polynomials():
    mesh = build_st_mesh(3, 3, box=(0, 1, -0.5, 0.5), mode="all_at_once")
    f = lambda pts: 1.0 + 2.0 * pts[:, 0] - pts[:, 1] + pts[:, 0] * pts[:, 1]
    U = project(mesh, 2, f)
    assert st_l2_error(mesh, 2, U, f) < 1e-13


def test_st_l2_error_of_known_gap():
    # distance between u=1 and u=0 over a unit-area space-time box is 1
    mesh = build_st_mesh(2, 2, box=(0, 1, 0, 1), mode="all_at_once")
    U = project(mesh, 1, lambda pts: np.ones(len(pts)))
    err = st_l2_error(mesh, 1, U, lambda pts: np.zeros(len(pts)))
    assert np.isclose(err, 1.0, atol=1e-12)


def test_line_trace_evaluator_on_final_surface():
    case, mesh, _ = small_system(2, nx=5, nt=4)
    U = project(mesh, 2, case.prob.exact)
    ev = line_trace_evaluator(mesh, 2, U)
    xs = np.linspace(-0.45, 0.45, 11)
    pts = np.column_stack([np.ones_like(xs), xs])
    assert np.allclose(ev(pts), case.prob.exact(pts), atol=1e-11)


def test_lambda_positions_cover_coupled_facets():
    _, mesh, bs = small_system(1)
    pos = lambda_dof_positions(bs)
    assert pos.shape == (bs.n_lambda, 2)
    # block components of one facet share the midpoint
    assert np.allclose(pos[0], pos[1])


def test_upwind_only_horizontal_coupling():
    """Horizontal (constant-t) facets carry pure upwind coupling.

    The diffusion tensor acts in space only, so its facet terms vanish
    where n_x = 0 and the time direction stays strictly one-way: the
    condensed system is block lower triangular when facets are ordered
    by time level.
    """
    case = make_pulse1d(1e-2, deformed=False)
    mesh = build_case_mesh(case, 4, 4, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, 1, case.prob))
    mids = mesh.facet_midpoints()[cs.coupled_facets]
    order = np.argsort(np.round(mids[:, 0], 12), kind="stable")
    bsz = cs.facet_block_size
    rows = np.repeat(order * bsz, bsz) + np.tile(np.arange(bsz), len(order))
    P = cs.S[rows][:, rows].toarray()
    t = np.repeat(np.round(mids[order, 0], 12), bsz)
    above = np.abs(P[t[:, None] < t[None, :]])
    assert above.max() < 1e-12 * np.abs(P).max()


def test_reconstruct_solves_element_systems():
    case, mesh, bs = small_system(2, nx=3, nt=2)
    cs = condense(bs)
    lam = DenseLU(cs.S.toarray()).solve(cs.H)
    U = reconstruct(cs, lam)
    # residual of the element block equations at the reconstructed U
    A, rhs = monolithic(bs)
    nU = mesh.n_elements * bs.nV
    res = (A @ np.concatenate([U, lam]) - rhs)[:nU]
    assert np.abs(res).max() < 1e-10
