"""Space-time HDG solver toolkit for advection-diffusion in one space dimension.

The discretization treats time as an extra coordinate: the (t, x) domain is
meshed with triangles, a hybridizable discontinuous Galerkin method couples
elementwise polynomial unknowns through facet traces, and static condensation
reduces everything to a facet Schur complement.  That system is solved with
BiCGSTAB preconditioned by an approximate-ideal-restriction multigrid
hierarchy, which stays robust down to the pure-advection limit.

The package root holds the quick-start names; everything else is
imported from its module (``sthdg.mesh``, ``sthdg.hdg``, ``sthdg.air``,
``sthdg.solving``, ``sthdg.amr``, ``sthdg.experiments``, ...).
"""

from .cases import build_case_mesh, case_by_name
from .hdg import st_l2_error
from .solving import solve_problem

__version__ = "0.1.0"

__all__ = ["build_case_mesh", "case_by_name", "solve_problem", "st_l2_error"]
