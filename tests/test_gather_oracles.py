"""The batched CSR readers and the int-keyed CF splitting against the
loop versions they replaced.

``strength_graph``, ``lair_restriction`` and the diagonal block
extraction of ``BlockDiagonalScaling`` read entries of a CSR matrix
through :func:`sthdg.sparsela.csr_gatherer`, and ``one_point_interpolation``
builds P without a per-row loop.  The row-by-row and block-by-block
versions they replaced are kept here as oracles, and the new code must
reproduce them bitwise: same ``indptr``, ``indices``, ``data`` and lAIR
fallback count.  ``rs_coarsen`` keys its heap with plain ints, in the
compiled ``rs_split`` or, where that cannot be built, in a Python loop;
the numpy-scalar heap loop with ``(-measure, i)`` tuples, a stale-entry
test and a second pass is kept as their oracle, and the label vectors
of both paths must match it bitwise.  ``strength_graph`` builds the
graphs of several thresholds in one pass; each must equal its
single-threshold graph, and a hierarchy built from the oracles, one
graph per call, must equal ``build_hierarchy``'s level by level.
"""

import heapq
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import sthdg._compiled
from sthdg.air import (C_POINT, F_POINT, MAX_COARSE, MAX_LEVELS,
                       build_hierarchy, galerkin_coarse,
                       lair_restriction, one_point_interpolation, rs_coarsen,
                       strength_graph)
from sthdg.cases import build_case_mesh, case_by_name
from sthdg.hdg import assemble_blocks, condense
from sthdg.solving import SolverParams
from sthdg.sparsela import BlockDiagonalScaling, csr_gatherer, validate_csr


# -- oracles: the loop versions -------------------------------------------


def strength_graph_loop(A, theta):
    A = validate_csr(A)
    n = A.shape[0]
    C = A.copy().tolil()
    C.setdiag(0.0)
    C = C.tocsr()
    C.eliminate_zeros()
    dat = np.abs(C.data)
    rowmax = np.zeros(n)
    counts = np.diff(C.indptr)
    nz = counts > 0
    if nz.any():
        rowmax[nz] = np.maximum.reduceat(dat, C.indptr[:-1][nz])
    keep = dat >= theta * np.repeat(rowmax, counts) - 1e-300
    mask = sp.csr_matrix((keep.astype(float), C.indices, C.indptr), shape=(n, n))
    G = validate_csr(abs(C).multiply(mask))
    G.eliminate_zeros()
    return G


def lair_restriction_loop(A, labels, theta=0.3):
    A = validate_csr(A)
    gR = strength_graph_loop(A, theta)
    cpts = np.nonzero(labels == C_POINT)[0]
    ap, ai, ad = A.indptr, A.indices, A.data

    def _row_at(row, cols):
        lo, hi = ap[row], ap[row + 1]
        idx = np.searchsorted(cols, ai[lo:hi])
        out = np.zeros(len(cols))
        ok = idx < len(cols)
        ok[ok] &= cols[idx[ok]] == ai[lo:hi][ok]
        out[idx[ok]] = ad[lo:hi][ok]
        return out

    rows, cols, vals = [], [], []
    fallbacks = 0
    for r, i in enumerate(cpts):
        nbr = gR.indices[gR.indptr[i]:gR.indptr[i + 1]]
        nbr = nbr[labels[nbr] == F_POINT]
        if len(nbr):
            Ann = np.array([_row_at(j, nbr) for j in nbr])
            ain = _row_at(i, nbr)
            try:
                w = np.linalg.solve(Ann.T, -ain)
            except np.linalg.LinAlgError:
                w = np.linalg.lstsq(Ann.T, -ain, rcond=1e-12)[0]
                fallbacks += 1
            rows.extend([r] * len(nbr))
            cols.extend(nbr.tolist())
            vals.extend(w.tolist())
        rows.append(r)
        cols.append(i)
        vals.append(1.0)
    R = sp.csr_matrix((vals, (rows, cols)), shape=(len(cpts), A.shape[0]))
    return validate_csr(R), fallbacks


def _rs_first_pass_loop(S):
    """First pass of the replaced ``rs_coarsen``: the state per point."""
    n = S.shape[0]
    ST = S.tocsc()
    state = np.full(n, -1, dtype=np.int8)  # -1 undecided
    isolated = (np.diff(S.indptr) == 0) & (np.diff(ST.indptr) == 0)
    state[isolated] = F_POINT
    measure = np.diff(ST.indptr).astype(np.int64).copy()  # how many depend on me
    heap = [(-measure[i], i) for i in range(n)]
    heapq.heapify(heap)
    while heap:
        negm, i = heapq.heappop(heap)
        if state[i] != -1 or -negm != measure[i]:
            continue  # stale entry
        state[i] = C_POINT
        # dependents of i become F
        for k in ST.indices[ST.indptr[i]:ST.indptr[i + 1]]:
            if state[k] != -1:
                continue
            state[k] = F_POINT
            # k now leans on its other dependencies: raise their priority
            for j in S.indices[S.indptr[k]:S.indptr[k + 1]]:
                if state[j] == -1:
                    measure[j] += 1
                    heapq.heappush(heap, (-measure[j], j))
    return state


def _rs_coarsen_loop(S):
    n = S.shape[0]
    state = _rs_first_pass_loop(S)
    # second pass: F-points must see at least one C-point
    for i in range(n):
        if state[i] != F_POINT:
            continue
        deps = S.indices[S.indptr[i]:S.indptr[i + 1]]
        if len(deps) and not np.any(state[deps] == C_POINT):
            state[i] = C_POINT
    return (state == C_POINT).astype(np.int8)


def one_point_interpolation_loop(labels, S):
    n = S.shape[0]
    coarse_index = np.full(n, -1, dtype=np.int64)
    cpts = np.nonzero(labels)[0]
    coarse_index[cpts] = np.arange(len(cpts))
    si, sd = S.indices, np.abs(S.data)
    counts = np.diff(S.indptr)
    nonempty = counts > 0
    w = np.where(labels[si] == C_POINT, sd, -1.0)
    rowmax = np.full(n, -1.0)
    if nonempty.any():
        rowmax[nonempty] = np.maximum.reduceat(w, S.indptr[:-1][nonempty])
    win = (w == np.repeat(rowmax, counts)) & (w >= 0.0)
    cand = np.where(win, si, n)
    best = np.full(n, n)
    if nonempty.any():
        best[nonempty] = np.minimum.reduceat(cand, S.indptr[:-1][nonempty])
    rows = []
    cols = []
    for i in range(n):
        if labels[i] == C_POINT:
            rows.append(i)
            cols.append(coarse_index[i])
        elif best[i] < n:
            rows.append(i)
            cols.append(coarse_index[best[i]])
    P = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(n, len(cpts)))
    return validate_csr(P)


def hierarchy_loop(A, theta_c, theta_r):
    """``build_hierarchy``'s levels ``(A, R, P, labels)`` from the oracles,
    with each strength graph built on its own, and the lAIR fallback
    total."""
    A = validate_csr(A)
    levels, fallbacks = [], 0
    while A.shape[0] > MAX_COARSE and len(levels) < MAX_LEVELS - 1:
        g = strength_graph_loop(A, theta_c)
        labels = _rs_coarsen_loop(g)
        if np.count_nonzero(labels) in (0, A.shape[0]):
            break
        R, nfall = lair_restriction_loop(A, labels, theta_r)
        fallbacks += nfall
        P = one_point_interpolation_loop(labels, g)
        levels.append((A, R, P, labels))
        A = galerkin_coarse(R, A, P)
    levels.append((A, None, None, None))
    return levels, fallbacks


def diagonal_blocks_loop(A, b):
    A = validate_csr(A)
    nb = A.shape[0] // b
    dense = np.zeros((nb, b, b))
    for k in range(nb):
        dense[k] = A[k * b:(k + 1) * b, k * b:(k + 1) * b].toarray()
    return dense


# -- inputs ----------------------------------------------------------------


def splitting(labels):
    return np.asarray(labels, dtype=np.int8)


@lru_cache(maxsize=None)
def pulse_system(nu):
    """Unscaled facet system, its block size and every AIR level (p=2, 16x16)."""
    case = case_by_name("pulse1d", p=2, nu=nu)
    mesh = build_case_mesh(case, 16, 16, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, 2, case.prob))
    Ss = BlockDiagonalScaling(cs.S, cs.facet_block_size).matrix
    d = SolverParams()
    h = build_hierarchy(Ss, d.theta_c, d.theta_r, d.relaxation,
                        cs.facet_block_size)
    return cs.S, cs.facet_block_size, h


def random_csr(seed, n, density=0.3, zeros=0.2, empty_rows=2):
    """Random square CSR with explicit (+/-) zeros and some empty rows."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M += np.diag(rng.uniform(1.0, 2.0, n))
    M[rng.choice(n, empty_rows, replace=False)] = 0.0
    A = sp.csr_matrix(M)
    A.data[rng.random(A.nnz) < zeros] = 0.0
    A.data[rng.random(A.nnz) < zeros / 2] = -0.0
    return validate_csr(A)


def singular_neighbourhood():
    """C-point 4 sees F-points {0, 1} whose block [[1, 1], [1, 1]] is singular."""
    M = np.array([
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 3.0, 0.0, 0.0],
        [-1.0, -0.5, 0.0, 0.0, 4.0, 0.0],
        [0.0, 0.0, -0.7, -1.0, 0.0, 4.0],
    ])
    return validate_csr(sp.csr_matrix(M)), splitting([0, 0, 0, 0, 1, 1])


def random_cases():
    cases = []
    for seed in range(6):
        A = random_csr(seed, 30)
        labels = np.random.default_rng(100 + seed).integers(0, 2, 30)
        cases.append((f"random{seed}", A, splitting(labels)))
    zero = validate_csr(sp.csr_matrix((12, 12)))
    cases.append(("all_zero", zero, splitting(np.arange(12) % 2)))
    A, labels = singular_neighbourhood()
    cases.append(("singular", A, labels))
    return cases


def pulse_levels():
    out = []
    for nu in (1e-6, 1e-1):
        h = pulse_system(nu)[2]
        for k, lev in enumerate(h.levels):
            out.append((f"nu{nu:g}-L{k}", lev.A, lev.labels))
    return out


def graph(n, edges):
    """Strength graph on ``n`` points with edge ``i -> j`` (i depends on j)."""
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    G = sp.csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    return validate_csr(G)


@st.composite
def strength_graphs(draw):
    """Random directed graphs: isolated points, sinks, ties, n=1, nnz=0."""
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.random((n, n)) < density
    np.fill_diagonal(M, False)
    cut = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    M[cut] = False
    M[:, cut] = False  # isolated points
    return graph(n, list(zip(*np.nonzero(M))))


def shaped_graphs():
    """Graphs whose measures tie everywhere or vanish at sinks."""
    grid = [(5 * r + c, 5 * r2 + c2) for r in range(5) for c in range(5)
            for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
            if 0 <= r2 < 5 and 0 <= c2 < 5]
    return [
        ("single", graph(1, [])),
        ("no_edges", graph(7, [])),
        ("ring", graph(9, [(i, (i + 1) % 9) for i in range(9)])),
        ("hub_depended_on", graph(8, [(k, 0) for k in range(1, 8)])),
        ("hub_depends_on_all", graph(8, [(0, k) for k in range(1, 8)])),
        ("chain_and_isolated", graph(6, [(0, 1), (1, 2), (2, 3)])),
        ("bipartite", graph(8, [(i, j) for i in range(4) for j in range(4, 8)])),
        ("grid", graph(25, grid)),
        ("empty", graph(0, [])),
        ("star", star_graph(20, 20)),
    ]


def star_graph(leaves, tips):
    """Point 0 is depended on by ``leaves`` points, each of which also
    depends on all ``tips`` points.  Point 0 becomes C first, and its
    dependents then raise every tip once per leaf: the splitting's heap
    holds n - 1 + leaves * tips keys, near its bound n + nnz."""
    leaf = range(1, leaves + 1)
    tip = range(leaves + 1, leaves + tips + 1)
    return graph(1 + leaves + tips,
                 [(k, 0) for k in leaf] + [(k, t) for k in leaf for t in tip])


SHAPED = shaped_graphs()


def assert_csr_bitwise(new, old):
    assert new.shape == old.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_cf_bitwise(new, old):
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def rs_coarsen_both(g):
    """``rs_coarsen``'s labels on ``g`` from the compiled kernel and from
    the Python loop it falls back to; equal bitwise, and returned."""
    cf = rs_coarsen(g)
    with mock.patch.object(sthdg._compiled, "kernel", lambda name: None):
        loop = rs_coarsen(g)
    assert_cf_bitwise(cf, loop)
    return cf


def assert_f_points_see_c(S, labels):
    """Every F-point with a strong dependency has a C-dependency."""
    for i in np.nonzero(labels == F_POINT)[0]:
        deps = S.indices[S.indptr[i]:S.indptr[i + 1]]
        assert len(deps) == 0 or np.any(labels[deps] == C_POINT), i


ALL = random_cases() + pulse_levels()


# -- tests -----------------------------------------------------------------


@pytest.mark.parametrize("name,A,cf", ALL, ids=[c[0] for c in ALL])
@pytest.mark.parametrize("theta", [0.0, 0.2, 0.3])
def test_strength_graph_matches_loop(name, A, cf, theta):
    assert_csr_bitwise(strength_graph(A, theta)[0],
                       strength_graph_loop(A, theta))


@pytest.mark.parametrize("name,A,cf", ALL, ids=[c[0] for c in ALL])
def test_lair_restriction_matches_loop(name, A, cf):
    if cf is None:  # coarsest level: build a splitting as setup would
        cf = rs_coarsen(strength_graph(A, 0.2)[0])
    for theta in (0.0, 0.3):
        gR = strength_graph(A, theta)[0]
        new, new_fallbacks = lair_restriction(A, cf, gR)
        old, old_fallbacks = lair_restriction_loop(A, cf, theta)
        assert_csr_bitwise(new, old)
        assert new_fallbacks == old_fallbacks


@pytest.mark.parametrize("name,A,cf", ALL, ids=[c[0] for c in ALL])
def test_one_point_interpolation_matches_loop(name, A, cf):
    g = strength_graph(A, 0.2)[0]
    if cf is None:
        cf = rs_coarsen(g)
    assert_csr_bitwise(one_point_interpolation(cf, g),
                       one_point_interpolation_loop(cf, g))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       theta=st.floats(0.0, 1.0), order=st.sampled_from(["<", "=", ">"]))
def test_strength_graph_per_threshold_matches_single_calls(seed, n, theta,
                                                           order):
    A = random_csr(seed, n, empty_rows=min(2, n))
    other = {"<": theta / 2, "=": theta, ">": (1.0 + theta) / 2}[order]
    pair = strength_graph(A, theta, other)
    assert len(pair) == 2
    for G, t in zip(pair, (theta, other)):
        assert_csr_bitwise(G, strength_graph(A, t)[0])
        assert_csr_bitwise(G, strength_graph_loop(A, t))


@pytest.mark.parametrize("nu", [1e-6, 1e-1])
@pytest.mark.parametrize("theta_c,theta_r", [(0.2, 0.3), (0.3, 0.2)])
def test_hierarchy_matches_loop_oracles_on_pulse(nu, theta_c, theta_r):
    S, b, h = pulse_system(nu)
    Ss = h.levels[0].A
    new = build_hierarchy(Ss, theta_c, theta_r, SolverParams().relaxation, b)
    old, fallbacks = hierarchy_loop(Ss, theta_c, theta_r)
    assert new.n_levels == len(old) > 2
    assert new.lair_fallbacks == fallbacks
    for lev, (A, R, P, cf) in zip(new.levels, old):
        assert_csr_bitwise(lev.A, A)
        if cf is None:
            assert lev.labels is None
            continue
        assert_csr_bitwise(lev.R, R)
        assert_csr_bitwise(lev.P, P)
        assert_cf_bitwise(lev.labels, cf)


def test_singular_neighbourhood_case_reaches_fallback():
    A, cf = singular_neighbourhood()
    assert lair_restriction_loop(A, cf)[1] == 1


@pytest.mark.parametrize("nu", [1e-6, 1e-1])
def test_diagonal_blocks_match_loop_on_pulse(nu):
    S, b, _ = pulse_system(nu)
    old = diagonal_blocks_loop(S, b)
    scaling = BlockDiagonalScaling(S, b)
    assert scaling.block_inverses.tobytes() == np.linalg.inv(old).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_csr_gather_matches_dense_lookup(seed):
    A = random_csr(seed, 17)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 17, (5, 1))
    cols = rng.integers(0, 17, (1, 7))
    got = csr_gatherer(A)(rows, cols)
    assert got.shape == (5, 7)
    assert np.array_equal(got, A.toarray()[rows, cols])
    # every stored entry is found, explicit (signed) zeros included
    coo = A.tocoo()
    assert csr_gatherer(A)(coo.row, coo.col).tobytes() == coo.data.tobytes()
    assert not csr_gatherer(sp.csr_matrix((3, 4)))([0, 2], [3, 1]).any()


def test_diagonal_blocks_match_loop_with_gaps_and_zeros():
    A = random_csr(7, 24, density=0.4)
    A.setdiag(5.0)  # regular blocks; the explicit (+/-) zeros stay off-diagonal
    A = validate_csr(A)
    for b in (1, 2, 3, 4):
        old = diagonal_blocks_loop(A, b)
        got = BlockDiagonalScaling(A, b).block_inverses
        assert got.tobytes() == np.linalg.inv(old).tobytes()


@pytest.mark.parametrize("nu", [1e-6, 1e-2, 1e-1])
def test_rs_coarsen_matches_loop_on_every_pulse_level(nu):
    h = pulse_system(nu)[2]
    for lev in h.levels:
        g = strength_graph(lev.A, SolverParams().theta_c)[0]
        cf = rs_coarsen_both(g)
        assert_cf_bitwise(cf, _rs_coarsen_loop(g))
        if lev.labels is not None:
            assert_cf_bitwise(lev.labels, cf)


@pytest.mark.parametrize("nu", [1e-6, 1e-1])
def test_every_pulse_level_has_c_identity_in_r_and_one_point_p(nu):
    h = pulse_system(nu)[2]
    assert h.n_levels > 2
    for lev in h.levels[:-1]:
        c = np.nonzero(lev.labels == C_POINT)[0]
        assert abs(lev.R[:, c] - sp.identity(len(c))).max() == 0.0
        assert np.all(np.diff(lev.P.indptr) <= 1)
        assert np.all(lev.P.data == 1.0)


@pytest.mark.parametrize("name,g", SHAPED, ids=[c[0] for c in SHAPED])
def test_rs_coarsen_matches_loop_on_shaped_graphs(name, g):
    cf = rs_coarsen_both(g)
    assert_cf_bitwise(cf, _rs_coarsen_loop(g))
    assert_f_points_see_c(g, cf)


@settings(max_examples=300, deadline=None)
@given(g=strength_graphs())
def test_rs_coarsen_matches_loop_on_random_graphs(g):
    cf = rs_coarsen_both(g)
    assert_cf_bitwise(cf, _rs_coarsen_loop(g))
    assert set(cf.tolist()) <= {C_POINT, F_POINT}
    isolated = (np.diff(g.indptr) == 0) & (np.diff(g.tocsc().indptr) == 0)
    assert np.all(cf[isolated] == F_POINT)
    assert_f_points_see_c(g, cf)
    # the first pass alone already satisfies the invariant, so the
    # oracle's second pass never promotes a point
    assert_f_points_see_c(g, _rs_first_pass_loop(g))


def test_star_graph_fills_the_splitting_heap_near_its_bound(monkeypatch):
    # the oracle's heap holds what the kernel's does: one key per point
    # at the start, one more per measure raise, one fewer per pop
    g = star_graph(20, 20)
    peak = 0
    push = heapq.heappush

    def counting_push(heap, item):
        nonlocal peak
        push(heap, item)
        peak = max(peak, len(heap))

    monkeypatch.setattr(heapq, "heappush", counting_push)
    _rs_first_pass_loop(g)
    assert peak == g.shape[0] - 1 + 20 * 20
    assert peak >= 0.95 * (g.shape[0] + g.nnz)
