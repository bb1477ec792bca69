from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from sthdg.cases import build_case_mesh, case_by_name
from sthdg.hdg import assemble_blocks, condense
from sthdg.krylov import BreakdownError, SolverFailure, bicgstab
from sthdg.solving import SolverParams, accepted, prepare_operator, solve_condensed


def identity(v):
    return v


def random_system(rng, n=40):
    A = sp.csr_matrix(rng.standard_normal((n, n)) * 0.3 + 4 * np.eye(n))
    b = rng.standard_normal(n)
    return A, b


def test_solves_random_nonsymmetric_system():
    rng = np.random.default_rng(20)
    A, b = random_system(rng)
    x, rep = bicgstab(A, b, identity, tol=1e-12, maxiter=5000)
    assert rep.converged
    assert np.linalg.norm(b - A @ x) < 1e-10 * np.linalg.norm(b)
    assert rep.true_residual < 1e-10


def test_exact_preconditioner_converges_in_one_step():
    rng = np.random.default_rng(21)
    A, b = random_system(rng, 30)
    Ainv = np.linalg.inv(A.toarray())
    x, rep = bicgstab(A, b, M=lambda v: Ainv @ v, tol=1e-12, maxiter=5000)
    assert rep.converged and rep.iterations == 1


def test_zero_rhs_returns_zero():
    rng = np.random.default_rng(22)
    A, _ = random_system(rng, 10)
    x, rep = bicgstab(A, np.zeros(10), identity, tol=1e-12, maxiter=5000)
    assert rep.converged and np.all(x == 0.0) and rep.iterations == 0
    assert rep.true_residual == 0.0 and accepted(rep, 1e-12)


def test_vanishing_preconditioned_rhs_reports_the_true_residual():
    # M b = 0 for a nonzero b: x = 0 leaves all of b, and the solve must
    # not count as accepted
    x, rep = bicgstab(sp.identity(4, format="csr"), np.ones(4), lambda v: 0.0 * v,
                      tol=1e-12, maxiter=10)
    assert np.all(x == 0.0) and rep.true_residual == 1.0
    assert not accepted(rep, 1e-12)


def test_solve_condensed_refuses_a_vanishing_preconditioned_rhs():
    case = case_by_name("pulse1d", p=1, nu=1e-2)
    mesh = build_case_mesh(case, 4, 4, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, 1, case.prob))
    op = prepare_operator(cs, SolverParams(), {})
    op.hierarchy = SimpleNamespace(as_preconditioner=lambda: lambda v: 0.0 * v)
    with pytest.raises(SolverFailure, match="true relative residual 1.000e"):
        solve_condensed(cs, operator=op)


def test_residual_history_structure():
    rng = np.random.default_rng(23)
    A, b = random_system(rng)
    x, rep = bicgstab(A, b, identity, tol=1e-12, maxiter=5000)
    steps = [s for s, _ in rep.residuals]
    assert steps[0] == 0 and rep.residuals[0][1] == 1.0
    assert steps == sorted(steps)
    # half-step entries interleave the full steps
    assert any(s % 1 == 0.5 for s in steps)
    assert rep.final_residual <= 1e-12


def test_callback_sees_full_steps_in_order():
    rng = np.random.default_rng(24)
    A, b = random_system(rng)
    seen = []
    bicgstab(A, b, identity, tol=1e-12, maxiter=5000,
             callback=lambda xk, k: seen.append(k))
    assert seen == list(range(1, len(seen) + 1))


def test_maxiter_reported_as_not_converged():
    rng = np.random.default_rng(25)
    n = 60
    # indefinite-ish system so a couple of steps cannot finish the job
    A = sp.csr_matrix(rng.standard_normal((n, n)) + 0.5 * np.eye(n))
    b = rng.standard_normal(n)
    x, rep = bicgstab(A, b, identity, tol=1e-14, maxiter=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.reason == "maxiter reached"


def test_matvec_callable_interface():
    rng = np.random.default_rng(26)
    A, b = random_system(rng, 20)
    x, rep = bicgstab(lambda v: A @ v, b, identity, tol=1e-12, maxiter=5000)
    assert rep.converged
    assert np.linalg.norm(b - A @ x) < 1e-9 * np.linalg.norm(b)


def test_breakdown_raises_after_restart():
    # rho = <r0, r> vanishes immediately for this skew system from x0 = 0:
    # the restart recomputes the same shadow residual, so it must raise
    A = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    with pytest.raises(BreakdownError):
        bicgstab(A, b, identity, tol=1e-15, maxiter=5000)


def test_half_step_ends_the_iteration_when_t_vanishes():
    # A is a projection and s = r0 - A r0 = (-1, 1) lies in its null
    # space, so t = A s = 0: the half step is the last, unconverged one
    A = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    b = np.array([1.0, 1.0])
    seen = []
    x, rep = bicgstab(A, b, identity, tol=1e-12, maxiter=50,
                      callback=lambda xk, k: seen.append(k))
    assert x.tolist() == [1.0, 1.0] and seen == [1]
    assert rep.residuals == [(0, 1.0), (0.5, 1.0), (1, 1.0)]
    assert rep.iterations == 1 and rep.restarts == 0 and not rep.converged
    assert rep.reason == "t = M A s vanished at iteration 1"


def test_rho_omega_breakdown_restarts_once():
    # the first full step gives r with <b, r> = 0; the restart from the
    # true residual then converges
    A = sp.csr_matrix(np.array([[-1.0, 2.0, -1.0], [-1.0, -2.0, -2.0],
                                [1.0, -1.0, 2.0]]))
    b = np.array([0.0, 2.0, 0.0])
    x, rep = bicgstab(A, b, identity, tol=1e-12, maxiter=50)
    assert rep.restarts == 1 and rep.converged
    assert np.linalg.norm(b - A @ x) < 1e-10


def test_rho_omega_breakdown_raises_after_restart():
    A = sp.csr_matrix(np.array([[1.0, -1.0, 1.0], [-1.0, -2.0, -1.0],
                                [1.0, 1.0, 2.0]]))
    b = np.array([0.0, -2.0, 0.0])
    with pytest.raises(BreakdownError,
                       match="rho/omega breakdown at iteration 2$"):
        bicgstab(A, b, identity, tol=1e-12, maxiter=50)
