"""Reference paths the tests check the package against.

None of these runs in the program: each is the plain, slow or dense
version of something the package computes another way, kept here so
that a test can compare the two.

- :func:`monolithic` is the uncondensed ``[[A, B], [C, D]]`` system,
  against which condensation and reconstruction are checked;
- :func:`ideal_restriction_dense` is the exact ideal restriction that
  lAIR approximates;
- :func:`project` is the elementwise L2 projection, which gives a
  discrete field for a known function;
- :func:`read_matrix_market` reads back what
  :func:`sthdg.sparsela.write_matrix_market` writes, keeping the sign of
  ``-0.0`` in array files (scipy's ``mmread`` does not).
"""

import numpy as np
import scipy.sparse as sp

from sthdg.air import C_POINT, F_POINT
from sthdg.basis import triangle_basis
from sthdg.quadrature import triangle_rule
from sthdg.sparsela import validate_csr


def monolithic(bs):
    """Full sparse [[A, B], [C, D]] system of the assembled ``BlockSystem``
    ``bs`` and its right-hand side."""
    ne, nV, nM = len(bs.elem_A), bs.nV, bs.facet_block_size
    nU = ne * nV
    Asp = sp.block_diag([bs.elem_A[e] for e in range(ne)], format="csr")
    rows_b, cols_b, vals_b = [], [], []
    rows_c, cols_c, vals_c = [], [], []
    for e in range(ne):
        for loc in range(3):
            fb = bs.elem_facet_block[e, loc]
            if fb < 0:
                continue
            r = np.repeat(np.arange(nV), nM) + e * nV
            c = np.tile(np.arange(nM), nV) + fb * nM
            rows_b.append(r)
            cols_b.append(c)
            vals_b.append(bs.elem_B[e, loc].ravel())
            rows_c.append(np.repeat(np.arange(nM), nV) + fb * nM)
            cols_c.append(np.tile(np.arange(nV), nM) + e * nV)
            vals_c.append(bs.elem_C[e, loc].ravel())
    nL = bs.n_lambda
    Bsp = sp.coo_matrix(
        (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
        shape=(nU, nL)) if rows_b else sp.csr_matrix((nU, nL))
    Csp = sp.coo_matrix(
        (np.concatenate(vals_c), (np.concatenate(rows_c), np.concatenate(cols_c))),
        shape=(nL, nU)) if rows_c else sp.csr_matrix((nL, nU))
    K = sp.bmat([[Asp, Bsp], [Csp, bs.D]], format="csr")
    return validate_csr(K), np.concatenate([bs.elem_F.ravel(), bs.G])


def ideal_restriction_dense(A, labels):
    """Exact ideal restriction [-A_cf A_ff^{-1}, I] as a dense matrix."""
    A = np.asarray(A, dtype=float)
    cpts = np.nonzero(labels == C_POINT)[0]
    fpts = np.nonzero(labels == F_POINT)[0]
    R = np.zeros((len(cpts), A.shape[0]))
    R[np.arange(len(cpts)), cpts] = 1.0
    if len(fpts):
        Aff = A[np.ix_(fpts, fpts)]
        Acf = A[np.ix_(cpts, fpts)]
        R[:, fpts] = -Acf @ np.linalg.inv(Aff)
    return R


def project(mesh, p, fn):
    """Elementwise L2 projection of a callable onto P_p; returns (ne*nV,)."""
    rq, rw = triangle_rule(2 * p + 4)
    phi = triangle_basis(p).eval(rq)
    X = mesh.element_points(rq)
    fv = np.asarray(fn(X.reshape(-1, 2)), dtype=float).reshape(mesh.n_elements, -1)
    # reference-orthonormal basis: the element mass matrix is detJ * I and
    # the detJ factors cancel against the quadrature weights
    return np.einsum("q,eq,qi->ei", rw, fv, phi).ravel()


def read_matrix_market(path):
    """Read files produced by :func:`sthdg.sparsela.write_matrix_market`.

    Returns a CSR matrix for coordinate files; a 1-D array for single
    column array files, else a 2-D array.
    """
    with open(path, "r") as f:
        header = f.readline().split()
        if header[:3] != ["%%MatrixMarket", "matrix", "coordinate"] and \
           header[:3] != ["%%MatrixMarket", "matrix", "array"]:
            raise ValueError("unsupported MatrixMarket header")
        kind = header[2]
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        dims = [int(d) for d in line.split()]
        nr, nc = dims[:2]
        n, width = (dims[2], 3) if kind == "coordinate" else (nr * nc, 1)
        # loadtxt warns on no rows and returns shape (0, 1)
        data = np.loadtxt(f, max_rows=n, ndmin=2) if n else np.empty((0, width))
    if kind == "coordinate":
        ij = data[:, :2].astype(np.int64) - 1
        return validate_csr(sp.coo_matrix((data[:, 2], (ij[:, 0], ij[:, 1])),
                                          shape=(nr, nc)))
    arr = data.reshape(nc, nr).T
    return arr[:, 0] if nc == 1 else arr
