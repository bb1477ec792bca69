"""Operator reuse in the slab march.

A march keeps its last prepared operator (block scaling and AIR
hierarchy) and reuses it only for a slab whose condensed ``S`` is the
same matrix entry for entry.  The oracle is the same march with reuse
switched off, which prepares every slab.
"""

from dataclasses import replace

import numpy as np
import pytest

import sthdg.solving
from sthdg.cases import build_case_mesh, case_by_name
from sthdg.hdg import assemble_blocks, condense
from sthdg.solving import PreparedOperator, SolverParams, prepare_operator

NX, NT = 6, 4  # slab heights of 1/4 are exact, so undeformed slabs are alike


def march(monkeypatch, p, deformed, reuse=True, condense_slab=None):
    """Slab-march pulse1d; return the solution and the hierarchy builds."""
    builds = []
    build = sthdg.solving.build_hierarchy

    def counting(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sthdg.solving, "build_hierarchy", counting)
        if not reuse:
            m.setattr(PreparedOperator, "serves", lambda self, cs: False)
        if condense_slab is not None:
            m.setattr(sthdg.solving, "condense", condense_slab)
        case = case_by_name("pulse1d", p=p, nu=1e-2, deformed=deformed)
        mesh = build_case_mesh(case, NX, NT, mode="slab")
        sol = sthdg.solving.solve_problem(mesh, p, case.prob)
    return sol, len(builds)


def assert_bitwise_equal(a, b):
    assert a.iteration_list == b.iteration_list
    for (_, x), (_, y) in zip(a.slabs, b.slabs, strict=True):
        assert x.lam.tobytes() == y.lam.tobytes()
        assert x.U.tobytes() == y.U.tobytes()


@pytest.mark.parametrize("p", [1, 2])
def test_reusing_march_equals_preparing_every_slab(monkeypatch, p):
    sol, builds = march(monkeypatch, p, deformed=False)
    oracle, oracle_builds = march(monkeypatch, p, deformed=False, reuse=False)
    assert_bitwise_equal(sol, oracle)
    assert (builds, oracle_builds) == (1, NT)
    assert len({id(s.hierarchy) for _, s in sol.slabs}) == 1


@pytest.mark.parametrize("p", [1, 2])
def test_deformed_slabs_prepare_one_operator_each(monkeypatch, p):
    sol, builds = march(monkeypatch, p, deformed=True)
    oracle, _ = march(monkeypatch, p, deformed=True, reuse=False)
    assert_bitwise_equal(sol, oracle)
    assert builds == NT
    assert len({id(s.hierarchy) for _, s in sol.slabs}) == NT


def nudged(S, k=0):
    """A copy of ``S`` with entry ``k`` of its data one ulp larger."""
    T = S.copy()
    T.data[k] = np.nextafter(T.data[k], np.inf)
    return T


def test_one_data_entry_apart_is_not_served():
    case = case_by_name("pulse1d", p=1, nu=1e-2)
    mesh = build_case_mesh(case, NX, NT, mode="slab")
    sub, _, _ = sthdg.solving.extract_slab(mesh, 0)
    cs = condense(assemble_blocks(sub, 1, case.prob))
    op = prepare_operator(cs, SolverParams(), {})
    assert op.serves(replace(cs, S=cs.S.copy()))
    assert not op.serves(replace(cs, S=nudged(cs.S)))
    assert not op.serves(replace(cs, S=nudged(cs.S, cs.S.nnz - 1)))
    assert not op.serves(replace(cs, facet_block_size=cs.facet_block_size + 1))


def test_march_prepares_again_after_a_one_entry_change(monkeypatch):
    # slab 2's S is nudged in one entry: slabs 0-1 share an operator,
    # slab 2 needs its own, and slab 3 differs from the one then held
    calls = []

    def condense_slab(blocks):
        cs = condense(blocks)
        calls.append(cs)
        return replace(cs, S=nudged(cs.S)) if len(calls) == 3 else cs

    sol, builds = march(monkeypatch, 1, deformed=False,
                        condense_slab=condense_slab)
    hs = [s.hierarchy for _, s in sol.slabs]
    assert builds == 3
    assert hs[0] is hs[1]
    assert len({id(h) for h in hs}) == 3
