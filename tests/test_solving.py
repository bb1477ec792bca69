"""Operator reuse in the slab march.

A march assembles, condenses and prepares (block scaling and AIR
hierarchy) a slab's operator in full only when the slab's operator key
(:func:`sthdg.hdg.operator_key`, the bytes of every input of the
operator) differs from the last such slab's.  Any other slab forms only
its load (``elem_F``, ``G`` and ``H``) and reuses that slab's condensed
and prepared operator.

Two oracles check this.  Assembly and condensation as they were before
their split into an operator part and a load part are kept here as one
function each, and every system the program builds must equal theirs
byte for byte.  A march that assembles, condenses and prepares every
slab in full with them must give the same loads, operators, solutions
and iteration counts as the march that reuses.  The oracle's einsum
expressions for the load also check :func:`sthdg.hdg.assemble_load`'s
matrix products on every case, degree, geometry and mode, and a
constant velocity must give the key and system of the equal callable.
"""

import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import sthdg.solving
from sthdg.amr import amr_loop
from sthdg.basis import tri_space_dim
from sthdg.cases import build_case_mesh, case_by_name, make_layer1d
from sthdg.hdg import (_facet_side_groups, _tables, assemble_blocks, assemble_load,
                       condense, default_penalty, line_trace_evaluator,
                       operator_key)
from sthdg.mesh import (MODES, SIDE_NAMES, DeformationMap, bisect_refine,
                        deform_mesh, extract_slab)
from sthdg.solving import SolverParams, solve_condensed
from sthdg.sparsela import SingularBlockError, block_diag_csr, validate_csr

NX, NT = 6, 4  # slab heights of 1/4 are exact, so undeformed slabs are alike
_SIDE_ID = {name: i for i, name in enumerate(SIDE_NAMES)}


# -- oracles: assembly and condensation in one piece ----------------------


def _einsum(subscripts, *operands):
    return np.einsum(subscripts, *operands, optimize=True)


def velocity_at(prob, points):
    """The problem's velocity at ``points``, a constant filled in."""
    if callable(prob.velocity):
        return np.asarray(prob.velocity(points), dtype=float)
    return np.full(len(points), float(prob.velocity))


def assemble_blocks_oracle(mesh, p, prob):
    """The four-block system, assembled in one pass over the facet groups."""
    nu = float(prob.nu)
    alpha = default_penalty(p)
    rq, rw, phi, gref, sseg, wf, psi, traces = _tables(p)
    nV = tri_space_dim(p)
    nM = p + 1
    ne = mesh.n_elements
    nf = mesh.n_facets
    X = mesh.element_points(rq)
    flatX = X.reshape(-1, 2)
    avals = velocity_at(prob, flatX).reshape(ne, -1)
    G = np.einsum("qid,edc->eqic", gref, mesh.Jinv)
    conv = G[:, :, :, 0] + avals[:, :, None] * G[:, :, :, 1]
    wdet = rw[None, :] * mesh.detJ[:, None]
    elem_A = -_einsum("eq,eqi,qj->eij", wdet, conv, phi)
    elem_A += nu * _einsum("eq,eqi,eqj->eij", wdet, G[:, :, :, 1],
                           G[:, :, :, 1])
    if prob.source is not None:
        fvals = np.asarray(prob.source(flatX), dtype=float).reshape(ne, -1)
        elem_F = _einsum("eq,eq,qi->ei", wdet, fvals, phi)
    else:
        elem_F = np.zeros((ne, nV))

    elem_B = np.zeros((ne, 3, nV, nM))
    elem_C = np.zeros((ne, 3, nM, nV))
    D_blocks = np.zeros((nf, nM, nM))
    G_blocks = np.zeros((nf, nM))
    on_neumann = np.isin(mesh.boundary_sides, [
        _SIDE_ID[s] for s in ("tmin", "tmax", *prob.neumann_sides)])
    on_dirichlet = (mesh.boundary_sides >= 0) & ~on_neumann

    for (la, lb), (fids, kids, locs, sides) in _facet_side_groups(mesh).items():
        TV, TGref = traces[(la, lb)]
        pa = mesh.vertices[mesh.facets[fids, 0]]
        pb = mesh.vertices[mesh.facets[fids, 1]]
        Xf = pa[:, None, :] + sseg[None, :, None] * (pb - pa)[:, None, :]
        L = mesh.facet_lengths[fids]
        n = mesh.facet_normals[fids, sides]
        af = velocity_at(prob, Xf.reshape(-1, 2)).reshape(len(fids), -1)
        an = n[:, 0:1] + af * n[:, 1:2]
        apl = np.maximum(an, 0.0)
        ami = np.minimum(an, 0.0)
        w2 = wf[None, :] * L[:, None]
        coef = (nu * alpha / mesh.element_h[kids])[:, None] * n[:, 1:2] ** 2
        Gxt = np.einsum("qid,md->mqi", TGref, mesh.Jinv[kids][:, :, 1])
        wpl = w2 * (apl + coef)
        wmi = w2 * (ami - coef)
        wnx = w2 * n[:, 1:2]

        A_f = _einsum("mq,qj,qi->mij", wpl, TV, TV)
        A_f -= nu * _einsum("mq,mqj,qi->mij", wnx, Gxt, TV)
        A_f -= nu * _einsum("mq,qj,mqi->mij", wnx, TV, Gxt)
        np.add.at(elem_A, kids, A_f)

        is_dir = on_dirichlet[fids]
        nd = ~is_dir
        if nd.any():
            B_f = _einsum("mq,qi,qn->min", wmi[nd], TV, psi)
            B_f += nu * _einsum("mq,mqi,qn->min", wnx[nd], Gxt[nd], psi)
            elem_B[kids[nd], locs[nd]] = B_f
            C_f = _einsum("mq,qn,qj->mnj", -wpl[nd], psi, TV)
            C_f += nu * _einsum("mq,qn,mqj->mnj", wnx[nd], psi, Gxt[nd])
            elem_C[kids[nd], locs[nd]] = C_f
            wD = (w2 * (coef - ami))[nd]
            np.add.at(D_blocks, fids[nd],
                      _einsum("mq,qn,qk->mnk", wD, psi, psi))
        if is_dir.any():
            gd = np.asarray(prob.dirichlet(Xf[is_dir].reshape(-1, 2)),
                            dtype=float).reshape(is_dir.sum(), -1)
            lift = _einsum("mq,mq,qi->mi", wmi[is_dir], gd, TV)
            lift += nu * _einsum("mq,mq,mqi->mi", wnx[is_dir], gd, Gxt[is_dir])
            np.add.at(elem_F, kids[is_dir], -lift)
        is_neu = on_neumann[fids]
        if is_neu.any():
            np.add.at(D_blocks, fids[is_neu],
                      _einsum("mq,qn,qk->mnk", (w2 * apl)[is_neu], psi, psi))
            Xn = Xf[is_neu]
            gn = np.zeros(Xn.shape[:2])
            if prob.neumann is not None:
                nn = np.repeat(n[is_neu][:, None, :], len(sseg), axis=1)
                gn[:] = np.reshape(
                    prob.neumann(Xn.reshape(-1, 2), nn.reshape(-1, 2)), gn.shape)
            bottom = mesh.boundary_sides[fids[is_neu]] == _SIDE_ID["tmin"]
            if prob.initial is not None and bottom.any():
                gn[bottom] = np.reshape(prob.initial(Xn[bottom].reshape(-1, 2)),
                                        (bottom.sum(), -1))
            np.add.at(G_blocks, fids[is_neu],
                      _einsum("mq,mq,qn->mn", w2[is_neu], gn, psi))

    coupled = np.nonzero((mesh.facet_elems[:, 1] >= 0) | on_neumann)[0]
    scale = np.abs(D_blocks).max() if nf else 0.0
    loose = coupled[np.abs(D_blocks[coupled]).max(axis=(1, 2)) <= 1e-12 * scale]
    D_blocks[loose] = np.eye(nM)
    G_blocks[loose] = 0.0
    ks, locs = mesh.facet_elems[loose], mesh.facet_locals[loose]
    has = ks >= 0
    elem_B[ks[has], locs[has]] = 0.0
    elem_C[ks[has], locs[has]] = 0.0

    facet_block = np.full(nf, -1, dtype=np.int64)
    facet_block[coupled] = np.arange(len(coupled))
    return SimpleNamespace(
        nV=nV, facet_block_size=nM, elem_A=elem_A, elem_F=elem_F,
        elem_B=elem_B, elem_C=elem_C, elem_facet_block=facet_block[mesh.elem_facets],
        D=validate_csr(block_diag_csr(D_blocks[coupled])),
        G=G_blocks[coupled].ravel(), coupled_facets=coupled, loose_facets=loose)


def condense_oracle(bs):
    """The facet Schur system of ``bs``, ``S`` and ``H`` formed together."""
    ne, nV, nM = len(bs.elem_A), bs.nV, bs.facet_block_size
    Ainv = np.linalg.inv(bs.elem_A)
    resid = np.abs(np.matmul(bs.elem_A, Ainv) - np.eye(nV)).max(axis=(1, 2))
    if resid.max() > 1e-6:
        raise SingularBlockError("singular element matrix")
    Brect = np.transpose(bs.elem_B, (0, 2, 1, 3)).reshape(ne, nV, 3 * nM)
    Crect = bs.elem_C.reshape(ne, 3 * nM, nV)
    AinvB = np.matmul(Ainv, Brect)
    AinvF = np.matmul(Ainv, bs.elem_F[:, :, None])[:, :, 0]
    Sloc = np.matmul(Crect, AinvB)
    Hloc = np.matmul(Crect, AinvF[:, :, None])[:, :, 0]
    gather = np.where(bs.elem_facet_block >= 0,
                      bs.elem_facet_block * nM, -1)[:, :, None] + np.arange(nM)
    gather = np.where(bs.elem_facet_block[:, :, None] >= 0, gather, -1)
    gather = gather.reshape(ne, 3 * nM)
    nL = len(bs.coupled_facets) * nM
    valid = gather >= 0
    pair = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(gather[:, :, None], Sloc.shape)[pair]
    cols = np.broadcast_to(gather[:, None, :], Sloc.shape)[pair]
    S = bs.D + sp.coo_matrix((-Sloc[pair], (rows, cols)), shape=(nL, nL)).tocsr()
    H = bs.G.copy()
    np.subtract.at(H, gather[valid], Hloc[valid])
    return SimpleNamespace(S=validate_csr(S), H=H, facet_block_size=nM,
                           elem_Ainv=Ainv, elem_Brect=Brect, elem_F=bs.elem_F,
                           gather_index=gather, coupled_facets=bs.coupled_facets)


def oracle_march(mesh, p, prob, params):
    """Every slab assembled, condensed and prepared in full by the oracles;
    returns (blocks, condensed, solve) per slab."""
    out, transfer = [], None
    for n in range(mesh.n_slabs):
        sub = extract_slab(mesh, n)
        sprob = prob if transfer is None else replace(prob, initial=transfer)
        bs = assemble_blocks_oracle(sub, p, sprob)
        cs = condense_oracle(bs)
        sol = solve_condensed(cs, params)
        out.append((bs, cs, sol))
        transfer = line_trace_evaluator(sub, p, sol.U)
    return out


# -- comparisons ------------------------------------------------------------


def assert_same(a, b, what):
    if sp.issparse(a):
        assert a.shape == b.shape, what
        for k in ("indptr", "indices", "data"):
            assert_same(getattr(a, k), getattr(b, k), f"{what}.{k}")
        return
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), what
    assert a.tobytes() == b.tobytes(), what


BLOCK_FIELDS = ("nV", "facet_block_size", "elem_A", "elem_F", "elem_B", "elem_C",
                "elem_facet_block", "D", "G", "coupled_facets", "loose_facets")
CONDENSED_FIELDS = ("S", "H", "facet_block_size", "elem_Ainv", "elem_Brect",
                    "elem_F", "gather_index", "coupled_facets")


def assert_systems_match_oracle(mesh, p, prob):
    bs = assemble_blocks(mesh, p, prob)
    cs = condense(bs)
    obs = assemble_blocks_oracle(mesh, p, prob)
    ocs = condense_oracle(obs)
    for f in BLOCK_FIELDS:
        assert_same(getattr(bs, f), getattr(obs, f), f)
    for f in CONDENSED_FIELDS:
        assert_same(getattr(cs, f), getattr(ocs, f), f)
    return bs


def pulse1d(p, deformed, mode):
    case = case_by_name("pulse1d", p=p, nu=1e-2, deformed=deformed)
    return build_case_mesh(case, NX, NT, mode=mode), p, case.prob


def polyexact_xlo(mode):
    case = case_by_name("polyexact", p=2, nu=0.05)
    assert case.prob.source is not None
    prob = replace(case.prob, neumann_sides=("xlo",))
    return build_case_mesh(case, NX, NT, mode=mode), 2, prob


def layer1d_refined(mode):
    """layer1d (nu = 0) on 4 x 4, bisected once everywhere: the new facets
    run along the characteristic x = t, so their traces are loose."""
    case = make_layer1d()
    mesh = build_case_mesh(case, 4, 4, mode=mode)
    return bisect_refine(mesh, np.arange(mesh.n_elements)), 1, case.prob


def pulse1d_loose_neumann_side(mode):
    """pulse1d at nu = 0 in the velocity x + 1/2, which vanishes on the
    Neumann side xlo: the traces of its facets are loose, and the data
    that assembly writes onto them must be zeroed."""
    case = case_by_name("pulse1d", nu=0.0)
    prob = replace(case.prob, velocity=lambda pts: pts[:, 1] + 0.5,
                   neumann_sides=("xlo",))
    return build_case_mesh(case, NX, NT, mode=mode), 1, prob


def time_dependent_velocity(mode):
    mesh, p, prob = pulse1d(1, False, mode)
    return mesh, p, replace(prob, velocity=lambda pts: 1.0 + 0.5 * pts[:, 0])


CASES = {
    # name: (mesh, degree and problem in a mode, operators a march assembles)
    "pulse1d-p1": (lambda mode: pulse1d(1, False, mode), 1),
    "pulse1d-p2": (lambda mode: pulse1d(2, False, mode), 1),
    "pulse1d-p1-deformed": (lambda mode: pulse1d(1, True, mode), NT),
    "pulse1d-p2-deformed": (lambda mode: pulse1d(2, True, mode), NT),
    "polyexact-source-xlo": (polyexact_xlo, 1),
    "layer1d-loose-interior": (layer1d_refined, 1),
    "pulse1d-loose-neumann-side": (pulse1d_loose_neumann_side, 1),
    "time-dependent-velocity": (time_dependent_velocity, NT),
}


def reusing_march(monkeypatch, mesh, p, prob, params, reuse=True):
    """solve_problem's march; returns the solution, each slab's
    (elem_F, G, S, H), the full assemblies and the hierarchy builds."""
    loads, systems, full, builds = [], [], [], []
    solving = sthdg.solving

    def wrap(fn, record):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            record(out)
            return out
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(solving, "assemble_blocks", wrap(
            solving.assemble_blocks,
            lambda bs: (full.append(bs), loads.append((bs.elem_F, bs.G)))))
        m.setattr(solving, "assemble_load",
                  wrap(solving.assemble_load, loads.append))
        m.setattr(solving, "build_hierarchy",
                  wrap(solving.build_hierarchy, builds.append))
        original = solving.solve_condensed

        def recording(cs, *args, **kwargs):
            systems.append(cs)
            return original(cs, *args, **kwargs)

        m.setattr(solving, "solve_condensed", recording)
        if not reuse:
            m.setattr(solving, "operator_key", lambda *args: object())
        sol = solving.solve_problem(mesh, p, prob, params)
    return sol, loads, systems, len(full), len(builds)


def assert_bitwise_equal(a, b):
    assert a.iteration_list == b.iteration_list
    for (_, x), (_, y) in zip(a.slabs, b.slabs, strict=True):
        assert x.lam.tobytes() == y.lam.tobytes()
        assert x.U.tobytes() == y.U.tobytes()


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("name", list(CASES))
def test_reusing_march_equals_the_full_assembly_oracle(monkeypatch, name):
    build, operators = CASES[name]
    mesh, p, prob = build("slab")
    params = SolverParams()
    sol, loads, systems, full, builds = reusing_march(monkeypatch, mesh, p,
                                                      prob, params)
    oracle = oracle_march(mesh, p, prob, params)
    assert (full, builds) == (operators, operators)
    assert len({id(s.hierarchy) for _, s in sol.slabs}) == operators
    for n, ((elem_F, G), cs, (_, s), (obs, ocs, osol)) in enumerate(
            zip(loads, systems, sol.slabs, oracle, strict=True)):
        assert_same(elem_F, obs.elem_F, f"slab {n} elem_F")
        assert_same(G, obs.G, f"slab {n} G")
        assert_same(cs.elem_F, obs.elem_F, f"slab {n} cs.elem_F")
        assert_same(cs.S, ocs.S, f"slab {n} S")
        assert_same(cs.H, ocs.H, f"slab {n} H")
        assert_same(s.lam, osol.lam, f"slab {n} lam")
        assert_same(s.U, osol.U, f"slab {n} U")
        assert s.iterations == osol.iterations
    assert all((len(obs.loose_facets) > 0) == ("loose" in name)
               for obs, _, _ in oracle)


@pytest.mark.parametrize("name", list(CASES))
def test_all_at_once_systems_match_the_oracle(name):
    bs = assert_systems_match_oracle(*CASES[name][0]("all_at_once"))
    assert (len(bs.loose_facets) > 0) == ("loose" in name)


def test_amr_systems_match_the_oracle():
    case = case_by_name("pulse1d", nu=1e-3)
    records = amr_loop(case, 2, 2, n0=4, fraction=0.2)
    assert len(records) == 3
    for rec in records:
        assert_systems_match_oracle(rec.mesh, 2, case.prob)


@pytest.mark.parametrize("p", [1, 2])
def test_reusing_march_equals_preparing_every_slab(monkeypatch, p):
    mesh, p, prob = pulse1d(p, False, "slab")
    sol, _, _, _, builds = reusing_march(monkeypatch, mesh, p, prob,
                                         SolverParams())
    oracle, _, _, full, oracle_builds = reusing_march(
        monkeypatch, mesh, p, prob, SolverParams(), reuse=False)
    assert_bitwise_equal(sol, oracle)
    assert (builds, oracle_builds, full) == (1, NT, NT)
    assert len({id(s.hierarchy) for _, s in sol.slabs}) == 1


@pytest.mark.parametrize("p", [1, 2])
def test_deformed_slabs_prepare_one_operator_each(monkeypatch, p):
    mesh, p, prob = pulse1d(p, True, "slab")
    sol, _, _, _, builds = reusing_march(monkeypatch, mesh, p, prob,
                                         SolverParams())
    oracle, *_ = reusing_march(monkeypatch, mesh, p, prob, SolverParams(),
                               reuse=False)
    assert_bitwise_equal(sol, oracle)
    assert builds == NT
    assert len({id(s.hierarchy) for _, s in sol.slabs}) == NT


def oracle_meshes(name, p, deformed, mode):
    """The case's mesh (deformed by ``DeformationMap(0.1)`` if the case
    has no deformation of its own) and problem; in slab mode its slabs."""
    case = case_by_name(name, p=p, nu=1e-2, deformed=deformed)
    mesh = build_case_mesh(case, NX, NT, mode=mode)
    if deformed and case.deformation is None:
        mesh = deform_mesh(mesh, DeformationMap(0.1))
    if mode == "slab":
        return [extract_slab(mesh, n) for n in range(mesh.n_slabs)], case.prob
    return [mesh], case.prob


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deformed", [False, True], ids=["plain", "deformed"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["pulse1d", "polyexact", "layer1d"])
def test_load_matches_the_einsum_oracle(name, p, deformed, mode):
    # every slab after the first takes tmin data from ``initial``; a slab
    # whose key equals the first's also forms its load with that
    # slab's operator, as a march does
    meshes, prob = oracle_meshes(name, p, deformed, mode)
    first = assemble_blocks(meshes[0], p, prob)
    shared = 0
    for n, mesh in enumerate(meshes):
        sprob = prob if n == 0 else replace(prob, initial=prob.exact)
        bs = assert_systems_match_oracle(mesh, p, sprob)
        if operator_key(mesh, p, sprob) == operator_key(meshes[0], p, prob):
            elem_F, G = assemble_load(first, mesh, sprob)
            assert_same(elem_F, bs.elem_F, f"slab {n} elem_F")
            assert_same(G, bs.G, f"slab {n} G")
            shared += 1
    assert shared == (1 if deformed else len(meshes))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deformed", [False, True], ids=["plain", "deformed"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_constant_velocity_equals_the_constant_callable(p, deformed, mode):
    meshes, prob = oracle_meshes("pulse1d", p, deformed, mode)
    assert prob.velocity == 1.0
    ones = replace(prob, velocity=lambda pts: np.full(len(pts), 1.0))
    for mesh in meshes:
        assert operator_key(mesh, p, prob) == operator_key(mesh, p, ones)
        a, b = assemble_blocks(mesh, p, prob), assemble_blocks(mesh, p, ones)
        for f in BLOCK_FIELDS:
            assert_same(getattr(a, f), getattr(b, f), f)
        for f in ("dirichlet", "neumann"):
            for x, y in zip(getattr(a, f), getattr(b, f), strict=True):
                for u, v in zip(x, y, strict=True):
                    assert_same(u, v, f)


def nudged(values, k=0):
    """A copy of ``values`` with flat entry ``k`` one ulp larger."""
    out = np.array(values, dtype=float)
    out.flat[k] = np.nextafter(out.flat[k], np.inf)
    return out


def nudged_velocity(point):
    """Unit velocity, one ulp faster at ``point`` alone."""
    return lambda pts: np.where(np.all(pts == point, axis=1),
                                np.nextafter(1.0, 2.0), 1.0)


def test_one_data_entry_apart_is_not_served():
    case = case_by_name("pulse1d", p=1, nu=1e-2)
    mesh = build_case_mesh(case, NX, NT, mode="slab")
    sub = extract_slab(mesh, 0)
    key = operator_key(sub, 1, case.prob)
    assert operator_key(copy.copy(sub), 1, case.prob) == key
    assert operator_key(extract_slab(mesh, 1), 1, case.prob) == key
    # the data is no input of the operator
    assert operator_key(sub, 1, replace(case.prob, source=np.sin,
                                        initial=np.cos)) == key
    for k in (0, sub.Jinv.size - 1):
        other = copy.copy(sub)
        other.Jinv = nudged(sub.Jinv, k)
        assert operator_key(other, 1, case.prob) != key
    point = sub.element_points(_tables(1)[0])[0, 0]
    assert operator_key(sub, 1, replace(
        case.prob, velocity=nudged_velocity(point))) != key
    assert operator_key(sub, 2, case.prob) != key
    assert operator_key(sub, 1, replace(case.prob, nu=np.nextafter(1e-2, 1))) != key
    assert operator_key(sub, 1, replace(case.prob, neumann_sides=("xlo",))) != key


def test_march_prepares_again_after_a_one_entry_change(monkeypatch):
    # slab 2 differs from the others in one Jinv entry, then in one
    # velocity value: slabs 0-1 share an operator, slab 2 needs its own,
    # and slab 3 differs from the one then held
    case = case_by_name("pulse1d", p=1, nu=1e-2)
    mesh = build_case_mesh(case, NX, NT, mode="slab")
    extract = sthdg.solving.extract_slab

    def extract_nudged(mesh, n):
        sub = extract(mesh, n)
        if n == 2:
            sub.Jinv = nudged(sub.Jinv)
        return sub

    point = extract_slab(mesh, 2).element_points(_tables(1)[0])[0, 0]
    for change in ("Jinv", "velocity"):
        prob = case.prob
        with monkeypatch.context() as m:
            if change == "Jinv":
                m.setattr(sthdg.solving, "extract_slab", extract_nudged)
            else:
                prob = replace(prob, velocity=nudged_velocity(point))
            sol, _, _, full, builds = reusing_march(monkeypatch, mesh, 1, prob,
                                                    SolverParams())
        hs = [s.hierarchy for _, s in sol.slabs]
        assert (full, builds) == (3, 3), change
        assert hs[0] is hs[1]
        assert len({id(h) for h in hs}) == 3
