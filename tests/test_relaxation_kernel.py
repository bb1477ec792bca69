"""The C triangular-solve kernel against scipy's spsolve_triangular.

Relaxation's pointwise stages solve with
:func:`sthdg.sparsela.unit_lower_solver`, which runs the compiled
``unit_lower_solve`` of :mod:`sthdg._compiled` and falls back to
``spsolve_triangular`` where none can be built.  The fallback is also
the oracle: both must agree bit for bit, stage by stage and through
whole solves.  Every kernel of the module must build wherever ``cc``
runs, and no kernel call may grow memory.
"""

import gc
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import sthdg._compiled
import sthdg.air
import sthdg.sparsela
from sthdg.air import (RELAXATIONS, RelaxationPlan, build_hierarchy, rs_coarsen,
                       strength_graph)
from sthdg.cases import build_case_mesh, case_by_name
from sthdg.hdg import assemble_blocks, condense
from sthdg.solving import SolverParams, solve_problem
from sthdg.sparsela import BlockDiagonalScaling, unit_lower_solver

needs_kernel = pytest.mark.skipif(sthdg._compiled.kernel("unit_lower_solve") is None,
                                  reason="no C compiler to build the kernel")


def test_kernel_builds_wherever_cc_runs():
    # where they are not built, relaxation and the CF splitting quietly
    # run their slower Python paths
    cache = Path(sthdg._compiled.__file__).parent / "__pycache__"
    if shutil.which("cc") is None or not os.access(
            cache if cache.is_dir() else cache.parent, os.W_OK):
        pytest.skip("no cc, or the package's __pycache__ cannot be written")
    unbound = [name for name in sthdg._compiled.SIGNATURES
               if sthdg._compiled.kernel(name) is None]
    assert not unbound, unbound


def test_a_build_removes_the_libraries_of_earlier_sources(tmp_path, monkeypatch):
    # a library serves only its own source and flags, so a stale one would
    # stay in the cache for good
    if shutil.which("cc") is None:
        pytest.skip("no cc to build the kernels")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = [cache / "kernels_0123abcd.so", cache / "unit_lower_4567ef.so"]
    for path in stale:
        path.write_bytes(b"not a library")
    monkeypatch.setattr(sthdg._compiled, "__file__", str(tmp_path / "_compiled.py"))

    def clear():
        sthdg._compiled._library.cache_clear()
        sthdg._compiled.kernel.cache_clear()

    clear()
    try:
        assert sthdg._compiled.kernel("rs_split") is not None
    finally:
        clear()  # the next caller loads the package's own library
    assert not any(path.exists() for path in stale)
    assert [path.name[:8] for path in cache.iterdir()] == ["kernels_"]


def pulse_levels(nu):
    """(A, labels, block size) of every relaxed level of a p=2, 16x16 pulse1d
    hierarchy."""
    case = case_by_name("pulse1d", p=2, nu=nu)
    mesh = build_case_mesh(case, 16, 16, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, 2, case.prob))
    b = cs.facet_block_size
    d = SolverParams()
    h = build_hierarchy(BlockDiagonalScaling(cs.S, b).matrix, d.theta_c,
                        d.theta_r, d.relaxation, b)
    return [(lev.A, lev.labels, b if k == 0 else 1)
            for k, lev in enumerate(h.levels[:-1])]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@needs_kernel
@pytest.mark.parametrize("nu", [1e-6, 1e-1])
def test_every_stage_of_every_level_matches_the_oracle(nu, monkeypatch):
    levels = pulse_levels(nu)
    assert len(levels) >= 3
    rng = np.random.default_rng(0)
    checked = 0
    for A, labels, b in levels:
        for scheme in RELAXATIONS:
            bsize = b if scheme == "ordered_block_gs" else 1
            plan = RelaxationPlan(A, scheme, labels, block_size=bsize)
            with monkeypatch.context() as m:
                m.setattr(sthdg._compiled, "kernel", lambda name: None)
                oracle = RelaxationPlan(A, scheme, labels, block_size=bsize)
            for (idx, solve), (_, solve_ref) in zip(plan.stages, oracle.stages):
                r = rng.standard_normal(A.shape[0])[idx]
                assert same_bits(solve(r), solve_ref(r))
                checked += bsize == 1
    # jacobi, fgs, f_then_all_fgs (two stages), and ordered_block_gs
    # everywhere but on the blocked finest level
    assert checked == 5 * len(levels) - 1


@st.composite
def unit_lower_systems(draw):
    """A canonical CSC lower triangle with explicit (+/-) zeros below an
    arbitrary stored diagonal, and a right-hand side with signed zeros."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rows, cols = np.nonzero(np.tril(rng.random((n, n)) < density, -1))
    vals = rng.standard_normal(len(rows))
    vals[rng.random(len(rows)) < 0.1] = 0.0
    vals[rng.random(len(rows)) < 0.1] = -0.0
    diag = np.arange(n)  # its values are never read: L is unit triangular
    L = sp.csc_matrix((np.concatenate([rng.uniform(0.5, 2.0, n), vals]),
                       (np.concatenate([diag, rows]), np.concatenate([diag, cols]))),
                      shape=(n, n))
    L.sum_duplicates()
    r = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    r[rng.random(n) < 0.1] = 0.0
    r[rng.random(n) < 0.1] = -0.0
    return L, r


@needs_kernel
@settings(max_examples=200, deadline=None, derandomize=True)
@given(unit_lower_systems())
def test_kernel_matches_spsolve_triangular_on_random_matrices(system):
    L, r = system
    x = unit_lower_solver(L)(r)
    assert same_bits(x, spla.spsolve_triangular(L, r, lower=True,
                                                unit_diagonal=True))


def test_solver_checks_its_matrix_and_right_hand_side():
    for M in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [3.0, 0.0]]):
        with pytest.raises(ValueError, match="diagonal first"):
            unit_lower_solver(sp.csc_matrix(np.array(M)))
    # the diagonal of column 0 is stored twice
    dup = sp.csc_matrix(([1.0, 1.0, 1.0], [0, 0, 1], [0, 2, 3]), shape=(2, 2))
    with pytest.raises(ValueError, match="canonical"):
        unit_lower_solver(dup)
    with pytest.raises(ValueError, match="square"):
        unit_lower_solver(sp.csc_matrix(np.eye(3, 2)))
    with pytest.raises(ValueError, match="shape"):
        unit_lower_solver(sp.identity(3, format="csc"))(np.ones(2))


@needs_kernel
@pytest.mark.parametrize("mode", ["all_at_once", "slab"])
@pytest.mark.parametrize("nu, relaxation", [(1e-1, "f_then_all_fgs"),
                                            (1e-6, "f_then_all_fgs"),
                                            (1e-1, "jacobi"),
                                            (1e-2, "ordered_block_gs")])
def test_fallback_solves_are_bitwise_equal(nu, relaxation, mode, monkeypatch):
    case = case_by_name("pulse1d", p=2, nu=nu)
    mesh = build_case_mesh(case, 8, 8, mode=mode)
    params = SolverParams(relaxation=relaxation)
    sol = solve_problem(mesh, 2, case.prob, params)
    monkeypatch.setattr(sthdg._compiled, "kernel", lambda name: None)
    ref = solve_problem(mesh, 2, case.prob, params)
    parts = sol.slabs if mode == "slab" else [(mesh, sol)]
    ref_parts = ref.slabs if mode == "slab" else [(mesh, ref)]
    for (_, s), (_, t) in zip(parts, ref_parts, strict=True):
        assert s.iterations == t.iterations
        assert same_bits(s.lam, t.lam) and same_bits(s.U, t.U)


def smallest_growth(call, files, calls):
    """Bytes retained by ``calls`` calls of ``call`` in allocations made
    within ``files``, the least of three windows, after lazy one-time
    allocations have settled."""
    own = [tracemalloc.Filter(True, f, all_frames=True) for f in files]
    grown = []
    tracemalloc.start(8)
    try:
        for _ in range(calls // 20):
            call()
        for _ in range(3):
            gc.collect()
            before = tracemalloc.take_snapshot().filter_traces(own)
            for _ in range(calls):
                call()
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(own)
            grown.append(sum(s.size_diff for s in after.compare_to(before, "filename")))
    finally:
        tracemalloc.stop()
    return min(grown), grown


@needs_kernel
def test_stage_solves_do_not_grow_memory():
    # scipy's gstrs, behind spsolve_triangular, leaks on every call, so a
    # leak grows every window of calls.  Kernel calls pass raw addresses
    # from __array_interface__: reading ``a.ctypes.data`` instead made a
    # ctypes object per call and left a one-off step of up to 11.6 kB in
    # one window of a full test run.  Only allocations made in the
    # package's own frames count, and the smallest growth of three
    # windows is bounded, for the triangular solve and the CF splitting.
    A, labels, _ = pulse_levels(1e-1)[0]
    idx, solve = RelaxationPlan(A, "fgs", labels, block_size=1).stages[0]
    r = np.random.default_rng(1).standard_normal(A.shape[0])
    files = [sthdg.sparsela.__file__, sthdg._compiled.__file__]
    least, grown = smallest_growth(lambda: solve(r), files, 2000)
    assert least < 10_000, grown
    g = strength_graph(A, SolverParams().theta_c)[0]
    least, grown = smallest_growth(lambda: rs_coarsen(g),
                                   files + [sthdg.air.__file__], 200)
    assert least < 10_000, grown
