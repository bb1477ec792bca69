"""Sparse/dense linear algebra helpers shared by assembly and solvers.

Thin, contract-enforcing wrappers around numpy/scipy: CSR validation and
entry lookup, block-diagonal CSR construction, block-diagonal scaling,
guarded dense LU, unit lower triangular solves, and a Matrix Market
writer whose 17 significant digits read back to the same doubles.

The triangular solve runs in the ``unit_lower_solve`` kernel of
:mod:`sthdg._compiled`; where none can be built, scipy's
``spsolve_triangular`` runs instead, with bitwise the same result.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _compiled
from .krylov import SolverFailure

__all__ = [
    "SingularBlockError",
    "validate_csr",
    "csr_gatherer",
    "block_diag_csr",
    "BlockDiagonalScaling",
    "DenseLU",
    "unit_lower_solver",
    "write_matrix_market",
]


class SingularBlockError(SolverFailure, ValueError):
    """A diagonal block or dense factorization is numerically singular."""


def validate_csr(A):
    """Return ``A`` as canonical CSR (sorted indices, summed duplicates).

    Raises ValueError for non-2D or non-finite input.
    """
    A = sp.csr_matrix(A)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    A.sum_duplicates()
    A.sort_indices()
    if len(A.data) and not np.all(np.isfinite(A.data)):
        raise ValueError("matrix contains non-finite entries")
    return A


def csr_gatherer(A):
    """The entry lookup of ``A`` as a function ``(rows, cols) -> A[rows, cols]``
    of broadcast index arrays, 0 where an entry is absent.

    Each call is one binary search of the keys ``row * ncols + col`` in the
    row-major entry order of ``A``, which must be canonical (see
    :func:`validate_csr`); the keys are built once, for all calls.
    """
    ncols = A.shape[1]
    rowid = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    # a key past every entry's, holding 0, ends each search inside the arrays
    keys = np.append(rowid * ncols + A.indices, A.shape[0] * ncols)
    data = np.append(A.data, 0.0)

    def gather(rows, cols):
        want = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols)
        pos = np.searchsorted(keys, want)
        return np.where(keys[pos] == want, data[pos], 0.0)

    return gather


def block_diag_csr(blocks):
    """CSR matrix with the square ``blocks`` (nb, b, b) along its diagonal.

    Every block entry is stored, zeros included, in row-major order.
    """
    nb, b = blocks.shape[:2]
    return sp.bsr_matrix((blocks, np.arange(nb), np.arange(nb + 1)),
                         shape=(nb * b, nb * b)).tocsr()


class BlockDiagonalScaling:
    """Left scaling of a block matrix by its inverted diagonal blocks.

    For ``A`` with square blocks of size ``b``, stores ``Dinv`` (the
    block-diagonal inverse) and the scaled matrix ``Dinv @ A``, whose
    diagonal blocks are exact identities.
    """

    def __init__(self, A, b):
        A = validate_csr(A)
        n = A.shape[0]
        if A.shape[1] != n or n % b != 0:
            raise ValueError("matrix must be square with size divisible by b")
        nb = n // b
        idx = np.arange(n).reshape(nb, b)
        dense = csr_gatherer(A)(idx[:, :, None], idx[:, None, :])
        dets = np.abs(np.linalg.det(dense))
        scale = np.maximum(np.abs(dense).reshape(nb, -1).max(axis=1), 1e-300) ** b
        bad = np.nonzero(dets < 1e-14 * scale)[0]
        if len(bad):
            raise SingularBlockError(f"singular diagonal block(s) {bad.tolist()}")
        self.block_inverses = np.linalg.inv(dense)
        self._Dinv = block_diag_csr(self.block_inverses)
        self.matrix = validate_csr(self._Dinv @ A)

    def apply(self, v):
        """Apply the block-diagonal inverse to a vector (scale a RHS)."""
        return self._Dinv @ v


class DenseLU:
    """Guarded dense LU factorization with reusable solves."""

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        with warnings.catch_warnings():
            # the pivot check below raises a clearer error than scipy's warning
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu, self._piv = scipy.linalg.lu_factor(A)
        d = np.abs(np.diag(self._lu))
        scale = max(np.abs(A).max(), 1e-300)
        if d.size and d.min() < 1e-14 * scale:
            raise SingularBlockError(
                f"matrix is numerically singular (pivot {d.min():.3e}, scale {scale:.3e})")

    def solve(self, b):
        return scipy.linalg.lu_solve((self._lu, self._piv), b)


# -- unit lower triangular solve ----------------------------------------


def unit_lower_solver(L):
    """Return ``r -> L^{-1} r`` for a unit lower triangular CSC matrix ``L``.

    ``L`` must be square and canonical (sorted indices, no duplicates), every
    column storing its diagonal first, as a lower triangular matrix with a
    full diagonal does; the diagonal's values are taken to be 1.  Solves
    run in the compiled ``unit_lower_solve``, or by ``spsolve_triangular``
    where the kernel is not available; both give bitwise the same result.
    """
    n = L.shape[0]
    indptr = L.indptr.astype(np.intc, copy=False)
    indices = L.indices.astype(np.intc, copy=False)
    if not (L.shape == (n, n) and L.has_canonical_format
            and np.all(np.diff(indptr) > 0)
            and np.array_equal(indices[indptr[:-1]], np.arange(n))):
        raise ValueError("L must be square canonical CSC with every column's "
                         "diagonal first")
    kernel = _compiled.kernel("unit_lower_solve")
    if kernel is None:
        return lambda r: spla.spsolve_triangular(L, r, lower=True,
                                                 unit_diagonal=True)
    arrays = (indptr, indices, L.data.astype(np.float64, copy=False))
    args = (n, *map(_compiled.address, arrays))

    def solve(r):
        x = np.array(r, dtype=np.float64)  # contiguous: the kernel writes it
        if x.shape != (n,):
            raise ValueError(f"right-hand side must have shape ({n},)")
        kernel(*args, _compiled.address(x))
        return x

    solve.arrays = arrays  # owns the buffers that ``args`` point into
    return solve


# -- Matrix Market output -----------------------------------------------


def write_matrix_market(path, M):
    """Write a sparse matrix (coordinate) or vector/array (array format).

    Values use the %.17g format so that doubles round-trip exactly.
    """
    with open(path, "w", newline="\n") as f:
        if sp.issparse(M):
            A = validate_csr(M).tocoo()
            f.write("%%MatrixMarket matrix coordinate real general\n")
            f.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
            np.savetxt(f, np.column_stack([A.row + 1, A.col + 1, A.data]),
                       fmt="%d %d %.17g")
        else:
            arr = np.atleast_2d(np.asarray(M, dtype=float))
            if arr.shape[0] == 1 and np.asarray(M).ndim == 1:
                arr = arr.T
            f.write("%%MatrixMarket matrix array real general\n")
            f.write(f"{arr.shape[0]} {arr.shape[1]}\n")
            np.savetxt(f, arr.ravel(order="F"), fmt="%.17g")  # column-major
