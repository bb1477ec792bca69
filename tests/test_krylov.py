import numpy as np
import pytest
import scipy.sparse as sp

from sthdg.krylov import BreakdownError, bicgstab


def random_system(rng, n=40):
    A = sp.csr_matrix(rng.standard_normal((n, n)) * 0.3 + 4 * np.eye(n))
    b = rng.standard_normal(n)
    return A, b


def test_solves_random_nonsymmetric_system():
    rng = np.random.default_rng(20)
    A, b = random_system(rng)
    x, rep = bicgstab(A, b, tol=1e-12, maxiter=5000)
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
    x, rep = bicgstab(A, np.zeros(10), tol=1e-12, maxiter=5000)
    assert rep.converged and np.all(x == 0.0) and rep.iterations == 0


def test_residual_history_structure():
    rng = np.random.default_rng(23)
    A, b = random_system(rng)
    x, rep = bicgstab(A, b, tol=1e-12, maxiter=5000)
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
    bicgstab(A, b, tol=1e-12, maxiter=5000, callback=lambda xk, k: seen.append(k))
    assert seen == list(range(1, len(seen) + 1))


def test_maxiter_reported_as_not_converged():
    rng = np.random.default_rng(25)
    n = 60
    # indefinite-ish system so a couple of steps cannot finish the job
    A = sp.csr_matrix(rng.standard_normal((n, n)) + 0.5 * np.eye(n))
    b = rng.standard_normal(n)
    x, rep = bicgstab(A, b, tol=1e-14, maxiter=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.reason == "maxiter reached"


def test_matvec_callable_interface():
    rng = np.random.default_rng(26)
    A, b = random_system(rng, 20)
    x, rep = bicgstab(lambda v: A @ v, b, tol=1e-12, maxiter=5000)
    assert rep.converged
    assert np.linalg.norm(b - A @ x) < 1e-9 * np.linalg.norm(b)


def test_breakdown_raises_after_restart():
    # rho = <r0, r> vanishes immediately for this skew system from x0 = 0:
    # the restart recomputes the same shadow residual, so it must raise
    A = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    with pytest.raises(BreakdownError):
        bicgstab(A, b, tol=1e-15, maxiter=5000)
