"""Left-preconditioned BiCGSTAB.

Classic van der Vorst iteration on M^{-1} A x = M^{-1} b with a callable
preconditioner (here: one AIR V-cycle).  Convergence is judged on the
preconditioned relative residual; the report also carries the true
(unpreconditioned) relative residual of the returned iterate, the
half-step residual history, and breakdown/restart bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolveReport", "BreakdownError", "bicgstab"]


class SolverFailure(RuntimeError):
    """The linear solver did not reach the requested tolerance."""


class BreakdownError(SolverFailure):
    """rho or omega collapsed twice (restart did not help)."""


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residuals: list  # (step, preconditioned relative norm), half steps at k-0.5
    true_residual: float
    restarts: int = 0
    reason: str = ""

    @property
    def final_residual(self):
        return self.residuals[-1][1] if self.residuals else np.nan


def bicgstab(A, b, M, *, tol, maxiter, callback=None):
    """Solve A x = b from a zero initial guess.

    Parameters
    ----------
    A : sparse matrix or callable
    M : callable applying the left preconditioner to a vector.
    tol : float
        Relative tolerance on the preconditioned residual norm.
    callback : callable(x, k), optional
        Invoked after every full step with the current iterate.

    Returns
    -------
    x : ndarray
    report : SolveReport
    """
    matvec = A if callable(A) else (lambda v: A @ v)
    b = np.asarray(b, dtype=float)
    n = len(b)
    x = np.zeros(n)

    r = M(b)
    bnorm = np.linalg.norm(r)
    if bnorm == 0.0:
        # x = 0 is the answer only for b = 0; otherwise its true
        # residual is the whole of b
        return x, SolveReport(True, 0, [(0, 0.0)], 1.0 if np.any(b) else 0.0,
                              reason="zero preconditioned right-hand side")
    rhat = r.copy()
    p = r.copy()
    rho = float(rhat @ r)
    resids = [(0, 1.0)]
    restarts = 0
    bnorm_true = np.linalg.norm(b)

    def restart(what):
        """Restart from the true residual of ``x``; a second breakdown raises."""
        nonlocal restarts
        if restarts >= 1:
            raise BreakdownError(f"{what} breakdown at iteration {k}")
        restarts += 1
        r = M(b - matvec(x))
        rhat = r.copy()
        return r, rhat, r.copy(), float(rhat @ r)

    k = 0
    stop = "maxiter reached"
    while k < maxiter:
        k += 1
        v = M(matvec(p))
        denom = float(rhat @ v)
        if abs(denom) < 1e-30 * bnorm * bnorm:
            r, rhat, p, rho = restart("rhat'v")
            continue
        alpha = rho / denom
        s = r - alpha * v
        snorm = np.linalg.norm(s) / bnorm
        resids.append((k - 0.5, snorm))
        # the half step ends the iteration when it converged, or when t = 0
        # leaves no omega to take the other half with
        last = snorm <= tol
        if not last:
            t = M(matvec(s))
            tt = float(t @ t)
            last = tt == 0.0
            if last:
                stop = f"t = M A s vanished at iteration {k}"
        if last:
            x = x + alpha * p
            if callback is not None:
                callback(x, k)
            resids.append((k, snorm))
            break
        omega = float(t @ s) / tt
        x = x + alpha * p + omega * s
        r = s - omega * t
        rnorm = np.linalg.norm(r) / bnorm
        resids.append((k, rnorm))
        if callback is not None:
            callback(x, k)
        if rnorm <= tol:
            break
        rho_new = float(rhat @ r)
        if abs(rho_new) < 1e-30 * bnorm * bnorm or abs(omega) < 1e-30:
            r, rhat, p, rho = restart("rho/omega")
            continue
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)

    final = resids[-1][1]
    converged = final <= tol
    true_res = float(np.linalg.norm(b - matvec(x)) /
                     (bnorm_true if bnorm_true > 0 else 1.0))
    return x, SolveReport(converged=converged, iterations=k, residuals=resids,
                          true_residual=true_res, restarts=restarts,
                          reason="" if converged else stop)
