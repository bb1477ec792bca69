import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from sthdg.air import galerkin_coarse
from sthdg.sparsela import (BlockDiagonalScaling, DenseLU, SingularBlockError,
                            validate_csr, write_matrix_market)

from oracles import read_matrix_market


def random_csr(rng, m, n, density=0.3):
    A = rng.random((m, n))
    A[rng.random((m, n)) > density] = 0.0
    return sp.csr_matrix(A)


def test_galerkin_coarse_matches_dense():
    rng = np.random.default_rng(1)
    R = random_csr(rng, 4, 7)
    A = random_csr(rng, 7, 7)
    P = random_csr(rng, 7, 5)
    C = galerkin_coarse(R, A, P)
    assert C.has_canonical_format
    assert np.allclose(C.toarray(), R.toarray() @ A.toarray() @ P.toarray())


def test_block_scaling_unit_diagonal_blocks():
    rng = np.random.default_rng(3)
    b = 3
    n = 4 * b
    A = sp.csr_matrix(rng.random((n, n)) + n * np.eye(n))
    scaling = BlockDiagonalScaling(A, b)
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
        BlockDiagonalScaling(A, 2)


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


def test_matrix_market_text(tmp_path):
    # 1-based coordinates in CSR order; arrays column-major, one value a line
    path = tmp_path / "m.mtx"
    write_matrix_market(path, sp.csr_matrix(np.array([[0.0, 0.1], [-2.0, 1e300]])))
    assert path.read_text() == ("%%MatrixMarket matrix coordinate real general\n"
                                "2 2 3\n1 2 0.10000000000000001\n2 1 -2\n"
                                "2 2 1.0000000000000001e+300\n")
    write_matrix_market(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert path.read_text() == ("%%MatrixMarket matrix array real general\n"
                                "2 2\n1\n3\n2\n4\n")


def test_matrix_market_roundtrip_empty(tmp_path):
    A = sp.csr_matrix((3, 4))
    path = tmp_path / "empty.mtx"
    write_matrix_market(path, A)
    assert path.read_text().splitlines()[1:] == ["3 4 0"]
    back = read_matrix_market(path)
    assert back.shape == (3, 4) and back.nnz == 0


def test_matrix_market_roundtrip_vector(tmp_path):
    v = np.array([1.0, -2.5, 3e-17, 0.1])
    path = tmp_path / "v.mtx"
    write_matrix_market(path, v)
    back = read_matrix_market(path)
    assert back.ndim == 1
    assert np.array_equal(back, v)  # %.17g round-trips doubles exactly


_values = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _values),
                        max_size=20))
@example(shape=(3, 4), entries=[])  # nnz = 0
@example(shape=(3, 3), entries=[(0, 0, -0.0), (2, 1, 5e-324)])  # empty row 1
def test_matrix_market_roundtrip_is_exact(tmp_path_factory, shape, entries):
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    # later duplicates replace earlier ones, so no value is a rounded sum
    cells = {(i, j): v for i, j, v in entries if i < shape[0] and j < shape[1]}
    ij = np.array(list(cells), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(cells.values()), dtype=float)
    A = validate_csr(sp.coo_matrix((vals, (ij[:, 0], ij[:, 1])), shape=shape))
    write_matrix_market(path, A)
    back = read_matrix_market(path)
    assert back.shape == A.shape
    assert np.array_equal(back.indptr, A.indptr)
    assert np.array_equal(back.indices, A.indices)
    assert back.data.tobytes() == A.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(v=st.lists(_values, min_size=1, max_size=12))
@example(v=[-0.0, 0.0, 5e-324])
def test_matrix_market_vector_roundtrip_is_exact(tmp_path_factory, v):
    path = tmp_path_factory.mktemp("mm") / "v.mtx"
    v = np.array(v)
    write_matrix_market(path, v)
    back = read_matrix_market(path)
    assert back.shape == v.shape and back.tobytes() == v.tobytes()
