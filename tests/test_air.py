import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sthdg.air import (MAX_COARSE, AirSetupError, C_POINT, F_POINT,
                       RelaxationPlan, build_hierarchy, galerkin_coarse,
                       lair_restriction, one_point_interpolation, rs_coarsen,
                       strength_graph, topological_block_order, vcycle)
from sthdg.solving import SolverParams

from oracles import ideal_restriction_dense


def splitting(labels):
    return np.asarray(labels, dtype=np.int8)


def default_hierarchy(A):
    """The AIR hierarchy of ``A`` at the default solver settings."""
    d = SolverParams()
    return build_hierarchy(A, d.theta_c, d.theta_r, d.relaxation, 1)


def upwind_chain(n, eps=0.0):
    d = np.ones(n)
    lo = -np.ones(n - 1)
    A = sp.diags([d, lo], [0, -1]).tocsr()
    if eps:
        A = A + sp.diags([eps * np.ones(n - 1)], [1]).tocsr()
    return A.tocsr()


def test_strength_graph_thresholds_by_row_maximum():
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.1],
                                [0.0, 1.0, 0.0],
                                [-0.5, 0.01, 3.0]]))
    S = strength_graph(A, 0.25)[0].toarray()
    assert S[0, 1] != 0 and S[0, 2] == 0  # 0.1 < 0.25 * 1.0
    assert S[1].sum() == 0                # no off-diagonal entries at all
    assert S[2, 0] != 0 and S[2, 1] == 0


def test_rs_coarsen_covers_every_point():
    A = upwind_chain(20)
    labels = rs_coarsen(strength_graph(A, 0.2)[0])
    assert set(np.unique(labels)) <= {C_POINT, F_POINT}
    assert (np.count_nonzero(labels == C_POINT)
            + np.count_nonzero(labels == F_POINT)) == 20
    # every F-point with strong dependencies sees at least one C-point
    S = strength_graph(A, 0.2)[0]
    for i in np.flatnonzero(labels == F_POINT):
        deps = S.indices[S.indptr[i]:S.indptr[i + 1]]
        if len(deps):
            assert np.any(labels[deps] == C_POINT)


def test_rs_coarsen_rejects_a_graph_that_is_not_square():
    # its kernel would read column ids as points past the row count
    with pytest.raises(ValueError, match=r"square, not \(3, 4\)"):
        rs_coarsen(sp.csr_matrix(np.eye(3, 4)))


def test_rs_coarsen_isolated_points_become_f():
    # diagonal matrix: relaxation alone solves it, nothing to coarsen
    A = sp.identity(12, format="csr")
    labels = rs_coarsen(strength_graph(A, 0.2)[0])
    assert np.count_nonzero(labels == C_POINT) == 0


def test_lair_restriction_small_oracle():
    # C = {1}: w solves A_ff^T w = -a_cf^T, here 2 w = -(-1) => w = 0.5
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    labels = splitting([F_POINT, C_POINT])
    R, _ = lair_restriction(A, labels, strength_graph(A, 0.0)[0])
    assert np.allclose(R.toarray(), [[0.5, 1.0]])
    P = sp.csr_matrix(np.array([[0.0], [1.0]]))
    assert np.allclose(galerkin_coarse(R, A, P).toarray(), [[1.5]])


def test_lair_zeroes_strong_f_columns_of_ra():
    rng = np.random.default_rng(8)
    n = 30
    A = sp.csr_matrix(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
                      + 4 * np.eye(n))
    labels = rs_coarsen(strength_graph(A, 0.2)[0])
    gR = strength_graph(A, 0.0)[0]  # theta=0: full F-neighborhoods
    R, _ = lair_restriction(A, labels, gR)
    RA = (R @ A).toarray()
    for r, i in enumerate(np.flatnonzero(labels == C_POINT)):
        nbrs = A.indices[A.indptr[i]:A.indptr[i + 1]]
        f_nbrs = nbrs[labels[nbrs] == F_POINT]
        assert np.abs(RA[r, f_nbrs]).max() < 1e-10 if len(f_nbrs) else True


def test_lair_singular_neighbourhood_falls_back_alone():
    # C-points 6, 7, 8 each see two F-points; only the block of 6 is singular
    A = np.zeros((9, 9))
    A[np.arange(9), np.arange(9)] = [1.0, 1.0, 2.0, 3.0, 3.0, 2.0, 4.0, 4.0, 5.0]
    A[0, 1] = A[1, 0] = 1.0  # [[1, 1], [1, 1]]
    A[2, 3], A[3, 2] = 0.5, 1.0
    A[4, 5], A[5, 4] = -1.0, 0.5
    A[2, 7] = A[5, 8] = -0.2
    nbrs = {6: [0, 1], 7: [2, 3], 8: [4, 5]}
    A[6, nbrs[6]] = [-1.0, -0.5]
    A[7, nbrs[7]] = [-0.7, -1.0]
    A[8, nbrs[8]] = [0.6, -1.2]
    labels = splitting([F_POINT] * 6 + [C_POINT] * 3)
    As = sp.csr_matrix(A)
    R, fallbacks = lair_restriction(As, labels, strength_graph(As, 0.0)[0])
    assert fallbacks == 1
    Rd = R.toarray()
    RA = Rd @ A
    for r, i in ((1, 7), (2, 8)):
        nbr = nbrs[i]
        w = np.linalg.solve(A[np.ix_(nbr, nbr)].T, -A[i, nbr])
        assert np.array_equal(Rd[r, nbr], w)
        assert np.abs(RA[r, nbr]).max() < 1e-14
    assert np.all(np.isfinite(Rd[0])) and Rd[0, 6] == 1.0


@settings(max_examples=40, deadline=None)
@given(is_c=st.lists(st.booleans(), min_size=2, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_lair_with_full_neighbourhoods_is_ideal(is_c, seed):
    # every off-diagonal entry nonzero and theta_r = 0: each C-point's
    # neighbourhood is all of F, so lAIR solves the ideal restriction
    n = len(is_c)
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    np.fill_diagonal(A, np.abs(A).sum(axis=1) + 1.0)
    labels = np.where(is_c, C_POINT, F_POINT).astype(np.int8)
    As = sp.csr_matrix(A)
    R, fallbacks = lair_restriction(As, splitting(labels),
                                    strength_graph(As, 0.0)[0])
    assert fallbacks == 0
    ideal = ideal_restriction_dense(A, labels)
    assert R.shape == ideal.shape
    assert np.abs(R.toarray() - ideal).max(initial=0.0) <= 1e-10


def test_ideal_restriction_zeroes_c_error():
    rng = np.random.default_rng(9)
    n = 24
    A = rng.standard_normal((n, n)) + 6 * np.eye(n)
    labels = np.where(rng.random(n) < 0.4, C_POINT, F_POINT)
    labels[0] = C_POINT
    R = ideal_restriction_dense(A, labels)
    cpts = np.nonzero(labels == C_POINT)[0]
    # R A has zero columns at all F-points: restriction of any residual
    # determines the C-point error exactly
    RA = R @ A
    fpts = np.nonzero(labels == F_POINT)[0]
    assert np.abs(RA[:, fpts]).max() < 1e-11
    assert np.allclose(RA[:, cpts], A[np.ix_(cpts, cpts)]
                       - A[np.ix_(cpts, fpts)] @ np.linalg.solve(
                           A[np.ix_(fpts, fpts)], A[np.ix_(fpts, cpts)]))


def test_one_point_interpolation_strongest_then_lowest_index():
    S = sp.csr_matrix(np.array([[0.0, 3.0, 3.0, 1.0],
                                [3.0, 0.0, 0.0, 0.0],
                                [3.0, 0.0, 0.0, 0.0],
                                [1.0, 0.0, 0.0, 0.0]]))
    g = strength_graph(S, 0.0)[0]
    labels = splitting([F_POINT, C_POINT, C_POINT, C_POINT])
    coarse_index = np.cumsum(labels) - 1  # position among the C-points
    P = one_point_interpolation(labels, g).toarray()
    assert P[0, coarse_index[1]] == 1.0 and P[0].sum() == 1.0
    for i in (1, 2, 3):
        assert P[i, coarse_index[i]] == 1.0


def test_topological_order_recovers_permuted_triangular():
    rng = np.random.default_rng(10)
    n = 15
    L = np.tril(rng.standard_normal((n, n)), -1) * (rng.random((n, n)) < 0.4)
    L += np.diag(rng.random(n) + 1)
    perm = rng.permutation(n)
    A = sp.csr_matrix(L[np.ix_(perm, perm)])
    order = topological_block_order(A, block_size=1)
    assert order.complete and len(order.cycle_blocks) == 0
    B = A.toarray()[np.ix_(order.order, order.order)]
    assert np.abs(np.triu(B, 1)).max() == 0.0


def _reaches(edges, nb):
    """Reflexive transitive closure of a block graph, ``R[j, i]`` when a
    path runs from block j to block i."""
    R = np.eye(nb, dtype=bool) | edges
    for k in range(nb):
        R |= R[:, k:k + 1] & R[k:k + 1, :]
    return R


@settings(max_examples=60, deadline=None)
@given(nb=st.integers(1, 8), b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_topological_order_on_permuted_block_triangular(nb, b, seed):
    rng = np.random.default_rng(seed)
    # edges[j, i]: block i depends on block j, only for j < i before the
    # blocks are permuted
    edges = np.tril(rng.random((nb, nb)) < 0.4, -1).T
    perm = rng.permutation(nb)
    edges = edges[np.ix_(perm, perm)]
    mask = np.kron(edges.T | np.eye(nb, dtype=bool), np.ones((b, b), bool))
    A = sp.csr_matrix(np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0))
    order = topological_block_order(A, block_size=b)
    assert order.complete and len(order.cycle_blocks) == 0
    assert sorted(order.order.tolist()) == list(range(nb))
    idx = (order.order[:, None] * b + np.arange(b)).ravel()
    B = A.toarray()[np.ix_(idx, idx)]
    assert not np.any(B * np.kron(np.triu(np.ones((nb, nb)), 1), np.ones((b, b))))
    # one back edge i -> j closes every path j -> ... -> i into a cycle
    R = _reaches(edges, nb)
    pairs = np.argwhere(R & ~np.eye(nb, dtype=bool))
    if len(pairs):
        j, i = pairs[rng.integers(len(pairs))]
        A = A.tolil()
        A[j * b, i * b] = 1.0
        order = topological_block_order(A.tocsr(), block_size=b)
        assert not order.complete
        assert order.cycle_blocks.tolist() == np.nonzero(R[j] & R[:, i])[0].tolist()


def test_topological_order_reports_cycles():
    A = sp.csr_matrix(np.array([[1.0, 0.5, 0.0],
                                [0.5, 1.0, 0.0],
                                [1.0, 0.0, 1.0]]))
    order = topological_block_order(A, block_size=1)
    assert not order.complete
    assert list(order.cycle_blocks) == [0, 1]


def permuted_block_triangular(rng, nb, b):
    """Block lower triangular matrix (nb blocks of size b), its blocks
    symmetrically permuted."""
    n = nb * b
    dense = np.kron(np.tril(np.ones((nb, nb))), np.ones((b, b)))
    A = dense * rng.standard_normal((n, n))
    A += np.eye(n) * 5
    perm = rng.permutation(nb)
    idx = (perm[:, None] * b + np.arange(b)).ravel()
    return sp.csr_matrix(A[np.ix_(idx, idx)])


def test_ordered_block_gs_exact_on_triangular_blocks():
    rng = np.random.default_rng(12)
    nb, b = 6, 2
    n = nb * b
    A = permuted_block_triangular(rng, nb, b)
    rhs = rng.standard_normal(n)
    plan = RelaxationPlan(A, "ordered_block_gs", block_size=b)
    x = plan.apply(rhs, np.zeros(n))
    assert np.linalg.norm(rhs - A @ x) < 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_ordered_plan_keeps_its_topological_order(b):
    rng = np.random.default_rng(12)
    nb = 6
    n = nb * b
    A = permuted_block_triangular(rng, nb, b)
    plan = RelaxationPlan(A, "ordered_block_gs", block_size=b)
    want = topological_block_order(A, b)
    assert np.array_equal(plan.ordering.order, want.order)
    assert plan.ordering.complete and want.complete
    assert np.array_equal(plan.ordering.cycle_blocks, want.cycle_blocks)
    rhs = rng.standard_normal(n)
    x = plan.apply(rhs, np.zeros(n))
    assert np.linalg.norm(rhs - A @ x) < 1e-12 * np.linalg.norm(rhs)
    assert RelaxationPlan(A, "fgs", block_size=1).ordering is None


def test_f_then_all_sweep_reduces_residual():
    A = upwind_chain(40, eps=0.05)
    labels = rs_coarsen(strength_graph(A, 0.2)[0])
    rng = np.random.default_rng(13)
    b = rng.standard_normal(40)
    plan = RelaxationPlan(A, "f_then_all_fgs", labels=labels, block_size=1)
    x = plan.apply(b, np.zeros(40))
    assert np.linalg.norm(b - A @ x) < 0.5 * np.linalg.norm(b)


def _dense_sweep(A, b, x, scheme, labels, block_size):
    """x + M^{-1} (b - A x) with each scheme's M built densely."""
    x = x.copy()
    if scheme == "jacobi":
        return x + (b - A @ x) / np.diag(A)
    if scheme == "f_then_all_fgs":
        f = np.flatnonzero(labels == F_POINT)
        x[f] += scipy.linalg.solve_triangular(
            np.tril(A[np.ix_(f, f)]), (b - A @ x)[f], lower=True)
    if scheme in ("fgs", "f_then_all_fgs"):
        return x + scipy.linalg.solve_triangular(np.tril(A), b - A @ x,
                                                 lower=True)
    # ordered_block_gs: block lower triangle in topological block order
    order = topological_block_order(sp.csr_matrix(A), block_size).order
    perm = (order[:, None] * block_size + np.arange(block_size)).ravel()
    blk = np.arange(len(b)) // block_size
    M = np.where(blk[:, None] >= blk[None, :], A[np.ix_(perm, perm)], 0.0)
    x[perm] += np.linalg.solve(M, (b - A @ x)[perm])
    return x


@pytest.mark.parametrize("scheme, block_size", [
    ("jacobi", 1), ("fgs", 1), ("f_then_all_fgs", 1),
    ("ordered_block_gs", 1), ("ordered_block_gs", 3)])
def test_relaxation_sweep_matches_dense_oracle(scheme, block_size):
    rng = np.random.default_rng(17)
    n = 36
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.15)
    A += np.diag(rng.random(n) + 2.0)
    labels = rs_coarsen(strength_graph(sp.csr_matrix(A), 0.2)[0])
    b = rng.standard_normal(n)
    x = rng.standard_normal(n)
    plan = RelaxationPlan(sp.csr_matrix(A), scheme, labels=labels,
                          block_size=block_size)
    x0 = x.copy()
    got = plan.apply(b, x)
    assert np.array_equal(x, x0)  # apply returns a new array
    want = _dense_sweep(A, b, x, scheme, labels, block_size)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_relaxation_rejects_zero_diagonal():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    for scheme in ("jacobi", "fgs", "ordered_block_gs"):
        with pytest.raises(ValueError):
            RelaxationPlan(A, scheme, block_size=1)


def test_hierarchy_on_chain_is_exact_for_triangular():
    n = 3000
    A = upwind_chain(n)
    h = default_hierarchy(A)
    assert h.n_levels > 3
    assert h.levels[-1].A.shape[0] <= 4 * MAX_COARSE
    assert 1.0 < h.grid_complexity < 3.0
    assert 1.0 < h.operator_complexity < 4.0
    rng = np.random.default_rng(14)
    b = rng.standard_normal(n)
    x = vcycle(h, b)
    assert np.linalg.norm(b - A @ x) < 1e-12 * np.linalg.norm(b)


def test_hierarchy_stagnation_raises_when_too_big_for_dense():
    A = sp.identity(500, format="csr")  # nothing to coarsen, too big for LU
    assert 500 > 4 * MAX_COARSE
    with pytest.raises(AirSetupError):
        default_hierarchy(A)


def test_hierarchy_small_stagnation_falls_back_to_dense():
    A = sp.identity(100, format="csr")
    assert MAX_COARSE < 100 <= 4 * MAX_COARSE
    h = default_hierarchy(A)
    assert h.n_levels == 1
    b = np.arange(100, dtype=float)
    assert np.allclose(vcycle(h, b), b)


def test_vcycle_preconditioner_callable():
    A = upwind_chain(500, eps=0.1)
    h = default_hierarchy(A)
    M = h.as_preconditioner()
    rng = np.random.default_rng(15)
    b = rng.standard_normal(500)
    y = M(b)
    assert np.linalg.norm(b - A @ y) < np.linalg.norm(b)


def test_jacobi_relaxation_converges_on_diagonally_dominant():
    rng = np.random.default_rng(16)
    n = 25
    A = sp.csr_matrix(rng.random((n, n)) * 0.02 + np.eye(n))
    b = rng.standard_normal(n)
    x = np.zeros(n)
    plan = RelaxationPlan(A, "jacobi", block_size=1)
    for _ in range(60):
        x = plan.apply(b, x)
    assert np.linalg.norm(b - A @ x) < 1e-10 * np.linalg.norm(b)
