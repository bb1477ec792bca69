"""Manufactured-solution consistency checks.

The derivative formulas in the case catalog are verified against
independent numerics: complex-step differentiation of the solution
callables (machine-precision first derivatives, no cancellation), with
a second complex step through the gradient for the diffusion term.
"""

import numpy as np
import pytest

from sthdg.cases import (build_case_mesh, case_by_name, make_layer1d,
                         make_polyexact, make_pulse1d, trace_neumann)
from sthdg.mesh import SIDE_NAMES


def cstep(f, pts, comp, h=1e-30):
    z = pts.astype(complex)
    z[:, comp] += 1j * h
    return np.imag(f(z)) / h


def sample_points(rng, n=100, box=(0.05, 0.95, -0.45, 0.45)):
    t = rng.uniform(box[0], box[1], n)
    x = rng.uniform(box[2], box[3], n)
    return np.column_stack([t, x])


@pytest.mark.parametrize("nu", [1e-1, 1e-2, 1e-6, 0.0])
def test_pulse_gradient_formulas(nu):
    case = make_pulse1d(nu, deformed=False)
    rng = np.random.default_rng(11)
    pts = sample_points(rng)
    grad = case.prob.exact_grad(pts)
    assert np.allclose(grad[:, 0], cstep(case.prob.exact, pts, 0), atol=1e-12)
    assert np.allclose(grad[:, 1], cstep(case.prob.exact, pts, 1), atol=1e-12)


@pytest.mark.parametrize("nu", [1e-1, 1e-2, 1e-6])
def test_pulse_satisfies_pde(nu):
    """u_t + a u_x - nu u_xx = 0 at random points, derivatives by complex step."""
    case = make_pulse1d(nu, deformed=False)
    rng = np.random.default_rng(7)
    pts = sample_points(rng)
    ut = cstep(case.prob.exact, pts, 0)
    ux = cstep(case.prob.exact, pts, 1)
    uxx = cstep(lambda z: case.prob.exact_grad(z)[:, 1], pts, 1)
    residual = ut + ux - nu * uxx
    assert np.abs(residual).max() < 1e-8


def test_pulse_spot_values():
    # initial profile and the diffused peak amplitude
    case = make_pulse1d(0.0, deformed=False)
    pts = np.array([[0.0, 0.0]])
    assert np.isclose(case.prob.exact(pts)[0], np.exp(-0.04 / 0.02))
    case2 = make_pulse1d(1e-2, deformed=False)
    peak = case2.prob.exact(np.array([[1.0, 0.8]]))[0]  # x = x_c + a t
    assert np.isclose(peak, 0.1 / np.sqrt(0.03), atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_polyexact_consistency(p):
    case = make_polyexact(p, 0.05, deformed=False)
    rng = np.random.default_rng(p)
    pts = sample_points(rng)
    ut = cstep(case.prob.exact, pts, 0)
    ux = cstep(case.prob.exact, pts, 1)
    uxx = cstep(lambda z: case.prob.exact_grad(z)[:, 1], pts, 1)
    f = case.prob.source(pts)
    assert np.allclose(f, ut + ux - case.prob.nu * uxx, atol=1e-10)


def test_polyexact_p1_source_is_constant():
    # u = 1 + t + x, so f = u_t + u_x = 2
    case = make_polyexact(1, 0.05, deformed=False)
    rng = np.random.default_rng(0)
    pts = sample_points(rng, 20)
    assert np.allclose(case.prob.source(pts), 2.0, atol=1e-14)


def test_layer_exact_solution():
    case = make_layer1d()
    assert case.prob.nu == 0.0
    u = case.prob.exact
    assert u(np.array([[0.5, 0.25]]))[0] == 1.0
    assert u(np.array([[0.5, 0.75]]))[0] == 0.0
    # inflow data at x=0 is 1, initial data at t=0 is 0
    assert np.all(u(np.column_stack([np.linspace(0.1, 1, 9),
                                     np.zeros(9)])) == 1.0)
    assert np.all(u(np.column_stack([np.zeros(9),
                                     np.linspace(0.1, 1, 9)])) == 0.0)


def test_initial_surface_neumann_data_equals_solution():
    """On the t=0 surface the flux trace reduces to u itself."""
    case = make_pulse1d(1e-2, deformed=False)
    mesh = build_case_mesh(case, 6, 3, mode="all_at_once")
    fids = np.nonzero(mesh.boundary_sides == SIDE_NAMES.index("tmin"))[0]
    mids = mesh.facet_midpoints()[fids]
    normals = mesh.facet_normals[fids, 0]
    gn = case.prob.neumann(mids, normals)
    assert np.allclose(gn, case.prob.exact(mids), atol=1e-13)


def test_trace_neumann_outflow_side():
    # on an x-normal outflow side the trace is the diffusive flux only
    exact = lambda pts: pts[:, 1] ** 2
    grad = lambda pts: np.column_stack([np.zeros(len(pts)), 2 * pts[:, 1]])
    gn = trace_neumann(exact, grad, nu=0.5)
    pts = np.array([[0.3, 2.0]])
    nrm = np.array([[0.0, 1.0]])  # a_n = 1 > 0: no advective part
    assert np.isclose(gn(pts, nrm)[0], 0.5 * 4.0 * 1.0)


def test_case_catalog_lookup():
    assert case_by_name("pulse1d", nu=1e-3).prob.nu == 1e-3
    assert case_by_name("polyexact", p=1, nu=1e-3).prob.nu == 1e-3
    # the step below the characteristic x = t; the degree-2 polynomial
    # 1 + t + x + t x + t^2/2 - 0.3 x^2 at (0, 1)
    assert case_by_name("layer1d").prob.exact([[0.5, 0.25]])[0] == 1.0
    assert np.isclose(case_by_name("polyexact", p=2).prob.exact([[0.0, 1.0]])[0], 1.7)
    with pytest.raises(KeyError):
        case_by_name("nosuch")
