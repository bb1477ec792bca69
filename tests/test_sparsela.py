import numpy as np
import pytest
import scipy.sparse as sp

from sthdg.sparsela import (DenseLU, SingularBlockError,
                            block_diag_inverse_scale, read_matrix_market,
                            spgemm, validate_csr, write_matrix_market)


def random_csr(rng, m, n, density=0.3):
    A = rng.random((m, n))
    A[rng.random((m, n)) > density] = 0.0
    return sp.csr_matrix(A)


def test_spgemm_matches_dense():
    rng = np.random.default_rng(1)
    A = random_csr(rng, 7, 5)
    B = random_csr(rng, 5, 6)
    C = spgemm(A, B)
    assert np.allclose(C.toarray(), A.toarray() @ B.toarray())


def test_block_scaling_unit_diagonal_blocks():
    rng = np.random.default_rng(3)
    b = 3
    n = 4 * b
    A = sp.csr_matrix(rng.random((n, n)) + n * np.eye(n))
    scaling = block_diag_inverse_scale(A, b)
    M = scaling.matrix.toarray()
    for k in range(4):
        blk = M[k * b:(k + 1) * b, k * b:(k + 1) * b]
        assert np.allclose(blk, np.eye(b), atol=1e-12)
    v = rng.random(n)
    # applying the scaling to a vector matches the scaled operator action
    assert np.allclose(scaling.matrix @ v, scaling.apply(A @ v), atol=1e-12)


def test_block_scaling_rejects_singular_block():
    A = sp.csr_matrix(np.diag([1.0, 0.0, 2.0, 3.0]))
    with pytest.raises(SingularBlockError):
        block_diag_inverse_scale(A, 2)


def test_dense_lu_roundtrip_and_singular():
    rng = np.random.default_rng(4)
    A = rng.random((8, 8)) + 8 * np.eye(8)
    b = rng.random(8)
    assert np.allclose(DenseLU(A).solve(b), np.linalg.solve(A, b))
    with pytest.raises(SingularBlockError):
        DenseLU(np.zeros((3, 3)))


def test_validate_csr_normalizes():
    coo = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 2))
    A = validate_csr(coo)
    assert sp.issparse(A) and A.format == "csr"
    assert A[0, 1] == 3.0  # duplicates summed


def test_matrix_market_roundtrip_sparse(tmp_path):
    rng = np.random.default_rng(5)
    A = random_csr(rng, 9, 9)
    p1 = tmp_path / "a.mtx"
    p2 = tmp_path / "b.mtx"
    write_matrix_market(p1, A)
    back = read_matrix_market(p1)
    assert (back != A).nnz == 0
    write_matrix_market(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_market_roundtrip_vector(tmp_path):
    v = np.array([1.0, -2.5, 3e-17, 0.1])
    path = tmp_path / "v.mtx"
    write_matrix_market(path, v)
    back = read_matrix_market(path)
    assert back.ndim == 1
    assert np.array_equal(back, v)  # %.17g round-trips doubles exactly
