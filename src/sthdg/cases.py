"""Benchmark problems: diffusing pulse, characteristic layer, polynomial.

Each constructor returns a :class:`Case` bundling the problem data with
its space-time box and optional mesh deformation.  Inflow-like Neumann
data is always derived from the exact solution through the trace formula

    g_N = -zeta * u * a_n + nu * u_x * n_x,   zeta = 1 where a_n < 0,

evaluated pointwise, so the initial surface (normal (-1, 0), a_n = -1)
carries g_N = u(0, x) and the final surface carries zero data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hdg import ProblemSpec
from .mesh import DeformationMap, build_st_mesh, deform_mesh

__all__ = ["CASES", "Case", "make_pulse1d", "make_layer1d", "make_polyexact",
           "build_case_mesh", "trace_neumann"]


@dataclass
class Case:
    prob: ProblemSpec
    box: tuple
    deformation: Optional[DeformationMap] = None


def build_case_mesh(case, nx, nt, mode):
    """Uniform (and possibly deformed) mesh for a case."""
    m = build_st_mesh(nx, nt, case.box, mode)
    if case.deformation is not None:
        m = deform_mesh(m, case.deformation)
    return m


def trace_neumann(exact, exact_grad, nu):
    """Inflow-trace Neumann data of an exact solution at unit speed."""

    def g_n(points, normals):
        pts = np.atleast_2d(points)
        nrm = np.atleast_2d(normals)
        an = nrm[:, 0] + nrm[:, 1]  # a_n = n_t + a n_x with a = 1
        zeta = (an < 0.0).astype(float)
        gu = np.asarray(exact_grad(pts))
        return -zeta * np.asarray(exact(pts)) * an + nu * gu[:, 1] * nrm[:, 1]

    return g_n


def make_pulse1d(nu, deformed):
    """Gaussian pulse advected at unit speed while diffusing.

    Exact solution of u_t + u_x - nu u_xx = 0 on [0,1] x [-1/2, 1/2]:

        u = sigma / sqrt(sigma^2 + 2 nu t)
            * exp(-(x - x_c - t)^2 / (2 sigma^2 + 4 nu t))

    with sigma = 0.1 and x_c = -0.2.  Spatial boundaries are Dirichlet
    (traced from the exact solution).  ``deformed=True`` adds the default
    space-periodic mesh deformation of amplitude 0.1.
    """
    sigma, xc = 0.1, -0.2

    def parts(pts):
        pts = np.atleast_2d(pts)
        t, x = pts[:, 0], pts[:, 1]
        s2 = sigma * sigma + 2.0 * nu * t
        xi = x - xc - t
        return s2, xi, sigma / np.sqrt(s2) * np.exp(-xi * xi / (2.0 * s2))

    def exact(pts):
        return parts(pts)[2]

    def exact_grad(pts):
        s2, xi, u = parts(pts)
        ut = u * (-nu / s2 + xi / s2 + nu * xi * xi / (s2 * s2))
        ux = u * (-xi / s2)
        return np.stack([ut, ux], axis=1)

    prob = ProblemSpec(nu=nu, velocity=1.0, source=None, dirichlet=exact,
                       neumann=trace_neumann(exact, exact_grad, nu),
                       exact=exact, exact_grad=exact_grad)
    deform = DeformationMap(0.1) if deformed else None
    return Case(prob=prob, box=(0.0, 1.0, -0.5, 0.5), deformation=deform)


def make_layer1d():
    """Pure advection of a step along the characteristic x = t.

    nu = 0, a = 1 on the unit box; u = 1 below the characteristic
    emanating from the inflow corner, 0 above.  The inflow side x = 0 is
    Dirichlet with value 1, the outflow side x = 1 Dirichlet with value 0
    (vacuous at pure outflow), and the initial surface carries g_N = 0.
    """

    def exact(pts):
        pts = np.atleast_2d(pts)
        return np.where(pts[:, 1] < pts[:, 0], 1.0, 0.0)

    def zero_grad(pts):
        return np.zeros((len(np.atleast_2d(pts)), 2))

    prob = ProblemSpec(nu=0.0, velocity=1.0, source=None, dirichlet=exact,
                       neumann=trace_neumann(exact, zero_grad, 0.0),
                       exact=exact, exact_grad=zero_grad)
    return Case(prob=prob, box=(0.0, 1.0, 0.0, 1.0))


# fixed space-time polynomials with a full monomial footprint per degree
_POLY_COEFFS = {
    1: {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0},
    2: {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0,
        (1, 1): 1.0, (2, 0): 0.5, (0, 2): -0.3},
    3: {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0,
        (1, 1): 1.0, (2, 0): 0.5, (0, 2): -0.3,
        (3, 0): 0.2, (2, 1): -0.4, (1, 2): 0.1, (0, 3): 0.3},
}


def _poly_eval(coeffs, pts):
    pts = np.atleast_2d(pts)
    t, x = pts[:, 0], pts[:, 1]
    out = np.zeros(len(pts), dtype=pts.dtype)
    for (i, j), c in coeffs.items():
        out += c * t**i * x**j
    return out


def _poly_shift(coeffs, dt=0, dx=0):
    out = {}
    for (i, j), c in coeffs.items():
        if i < dt or j < dx:
            continue
        f = 1.0
        for k in range(dt):
            f *= i - k
        for k in range(dx):
            f *= j - k
        out[(i - dt, j - dx)] = c * f
    return out


def make_polyexact(p, nu, deformed):
    """Manufactured polynomial solution reproduced exactly at degree p.

    ``u`` is a fixed full-footprint polynomial of total degree p (for
    p = 1 simply 1 + t + x), the source is u_t + u_x - nu u_xx, and all
    boundary data is traced from u, so the discrete solution at degree p
    matches u up to roundoff on any admissible mesh.
    """
    if p not in _POLY_COEFFS:
        raise ValueError(f"no fixed polynomial of degree {p}")
    c0 = _POLY_COEFFS[p]
    ct = _poly_shift(c0, dt=1)
    cx = _poly_shift(c0, dx=1)
    cxx = _poly_shift(c0, dx=2)

    exact = lambda pts: _poly_eval(c0, pts)

    def exact_grad(pts):
        return np.stack([_poly_eval(ct, pts), _poly_eval(cx, pts)], axis=1)

    def source(pts):
        return _poly_eval(ct, pts) + _poly_eval(cx, pts) - nu * _poly_eval(cxx, pts)

    prob = ProblemSpec(nu=nu, velocity=1.0, source=source, dirichlet=exact,
                       neumann=trace_neumann(exact, exact_grad, nu),
                       exact=exact, exact_grad=exact_grad)
    deform = DeformationMap(0.1) if deformed else None
    return Case(prob=prob, box=(0.0, 1.0, -0.5, 0.5), deformation=deform)


_MAKERS = {
    "pulse1d": lambda p, nu, deformed: make_pulse1d(nu, deformed),
    "layer1d": lambda p, nu, deformed: make_layer1d(),
    "polyexact": make_polyexact,
}
CASES = tuple(_MAKERS)


def case_by_name(name, p=1, nu=1e-6, deformed=False):
    """Look up a catalog case by name, one of ``CASES`` (else KeyError)."""
    return _MAKERS[name](p, nu, deformed)
