"""End-to-end acceptance checks, one test per headline claim.

Each test exercises the toolkit the way the experiment drivers do and
pins the quantitative behavior it is meant to deliver: convergence
rates, viscosity-independent iteration counts, the ideal-restriction
identity, exactness of ordered sweeps in the advective limit, agreement
of the condensed and monolithic solves, early error stagnation,
adaptive-versus-uniform efficiency, the value of block scaling,
polynomial reproduction, and bitwise-reproducible outputs.  These run
the real solver stack (no dense shortcuts unless the claim is about the
dense path) and are slower than the unit tests.
"""

import time
from functools import lru_cache

import numpy as np

from sthdg.air import C_POINT, F_POINT, RelaxationPlan
from sthdg.amr import amr_loop
from sthdg.cases import build_case_mesh, case_by_name, make_layer1d
from sthdg.experiments import ExperimentConfig, run_converge, run_iterations
from sthdg.hdg import assemble_blocks, condense, reconstruct, st_l2_error
from sthdg.solving import SolverParams, solve_condensed, solve_problem
from sthdg.sparsela import DenseLU, block_diag_inverse_scale

from oracles import ideal_restriction_dense, monolithic

LADDER = (8, 16, 32, 64)


def solution_error(sol, mesh, p, exact):
    if hasattr(sol, "slabs"):
        return sol.error(p, exact)
    return st_l2_error(mesh, p, sol.U, exact)


@lru_cache(maxsize=None)
def layer_amr_records(fraction):
    """Adaptive layer1d run; marking fraction picks the regime.

    A small fraction (0.05) marks essentially only the front and shows
    the concentration of refinement; a larger one (0.12) grades the
    mesh deeper, which is where the relaxation ablation bites.
    """
    return tuple(amr_loop(make_layer1d(), 1, 6, n0=8, fraction=fraction))


def test_pulse_convergence_rates_match_p_plus_one():
    t0 = time.perf_counter()
    for p in (1, 2, 3):
        for nu in (1e-2, 1e-6):
            case = case_by_name("pulse1d", nu=nu)
            for mode in ("all_at_once", "slab"):
                errs = []
                for n in LADDER:
                    mesh = build_case_mesh(case, n, n, mode=mode)
                    sol = solve_problem(mesh, p, case.prob)
                    errs.append(solution_error(sol, mesh, p, case.prob.exact))
                rate = -np.polyfit(np.log(LADDER), np.log(errs), 1)[0]
                assert abs(rate - (p + 1)) <= 0.3, \
                    (p, nu, mode, rate, errs)
    assert time.perf_counter() - t0 < 300.0


def test_iteration_counts_stay_flat_at_small_viscosity():
    counts = {}
    for nu in (1e-6, 1e-1):
        case = case_by_name("pulse1d", nu=nu)
        its = []
        for n in LADDER:
            mesh = build_case_mesh(case, n, n, mode="all_at_once")
            sol = solve_problem(mesh, 1, case.prob)
            assert sol.report.converged
            its.append(sol.iterations)
        counts[nu] = its
    flat = counts[1e-6]
    assert max(flat) <= 30, flat
    assert max(flat) <= 2 * min(flat), flat
    # diffusion-dominated counts grow with resolution; keep the record
    grown = counts[1e-1]
    assert grown[-1] > grown[0], counts


def test_ideal_restriction_removes_coarse_point_error():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(8, 65))
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        labels = np.where(rng.random(n) < 0.5, C_POINT, F_POINT)
        labels[0], labels[1] = C_POINT, F_POINT
        cpts = np.nonzero(labels == C_POINT)[0]
        R = ideal_restriction_dense(A, labels)
        P = np.zeros((n, len(cpts)))
        P[cpts, np.arange(len(cpts))] = 1.0
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        corrected = e - P @ np.linalg.solve(R @ A @ P, R @ (A @ e))
        assert np.abs(corrected[cpts]).max() <= 1e-12


def test_pure_advection_admits_complete_order_and_exact_sweep():
    base = make_layer1d()
    mesh = build_case_mesh(base, 16, 16, mode="all_at_once")
    results = {}
    for nu in (0.0, 1e-2):
        from dataclasses import replace
        cs = condense(assemble_blocks(mesh, 1, replace(base.prob, nu=nu)))
        scaling = block_diag_inverse_scale(cs.S, cs.facet_block_size)
        Ss, Hs = scaling.matrix, scaling.apply(cs.H)
        plan = RelaxationPlan(Ss, "ordered_block_gs",
                              block_size=cs.facet_block_size)
        order = plan.ordering
        x = plan.apply(Hs, np.zeros_like(Hs))
        res = np.linalg.norm(Hs - Ss @ x) / np.linalg.norm(Hs)
        results[nu] = (order, res)
    order0, res0 = results[0.0]
    assert order0.complete and len(order0.cycle_blocks) == 0
    assert res0 <= 1e-12, res0
    order_nu, _ = results[1e-2]
    assert not order_nu.complete
    assert len(order_nu.cycle_blocks) > 0


def test_condensed_solve_matches_monolithic():
    for name, p, nx, nt in (("pulse1d", 2, 8, 4), ("layer1d", 1, 4, 4)):
        case = case_by_name(name)
        mesh = build_case_mesh(case, nx, nt, mode="all_at_once")
        assert mesh.n_elements <= 64
        bs = assemble_blocks(mesh, p, case.prob)
        A, rhs = monolithic(bs)
        mono = DenseLU(A.toarray()).solve(rhs)
        cs = condense(bs)
        lam = DenseLU(cs.S.toarray()).solve(cs.H)
        U = reconstruct(cs, lam)
        nU = mesh.n_elements * bs.nV
        assert np.abs(U - mono[:nU]).max() <= 1e-10
        assert np.abs(lam - mono[nU:]).max() <= 1e-10


def test_discretization_error_converges_before_residual():
    case = case_by_name("pulse1d", nu=1e-4)
    mesh = build_case_mesh(case, 32, 32, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, 2, case.prob))
    iterates = []
    sol = solve_condensed(cs, callback=lambda x, k: iterates.append((k, x)))
    resid = dict(sol.report.residuals)
    k_final = sol.report.iterations
    assert k_final >= 2
    errs = {k: st_l2_error(mesh, 2, reconstruct(cs, lam), case.prob.exact)
            for k, lam in iterates}
    # after one full step the error has already settled ...
    assert abs(errs[1] / errs[k_final] - 1.0) <= 0.05
    # ... while the residual still has orders of magnitude to fall
    assert resid[1] / resid[k_final] >= 1e4


def test_adaptive_refinement_beats_uniform_and_tracks_layer():
    records = layer_amr_records(0.05)
    assert len(records) >= 4
    case = make_layer1d()
    uni_n, uni_err = [], []
    for n in LADDER:
        mesh = build_case_mesh(case, n, n, mode="all_at_once")
        sol = solve_problem(mesh, 1, case.prob)
        uni_n.append(len(sol.lam))
        uni_err.append(st_l2_error(mesh, 1, sol.U, case.prob.exact))

    def uniform_err_at(n_coupled):
        ln = np.log(np.clip(n_coupled, uni_n[0], uni_n[-1]))
        return float(np.exp(np.interp(ln, np.log(uni_n), np.log(uni_err))))

    # once the loop has had a few cycles it must beat uniform refinement
    # at matched unknown counts; a loop that stops early because the
    # indicator hit roundoff is judged by its final record
    late = [r for r in records if r.cycle >= 3] or [records[-1]]
    for rec in late:
        assert rec.l2_error < uniform_err_at(rec.n_coupled), \
            (rec.cycle, rec.l2_error, uniform_err_at(rec.n_coupled))

    # refinement concentrates along the characteristic x = t: bisecting
    # a crossing triangle leaves children flush against the front, so an
    # element counts as on the layer when it crosses x = t or lies
    # within its own diameter of it
    checked = 0
    for rec in records:
        mesh = rec.mesh
        v = mesh.vertices[mesh.elements]
        s = (v[:, :, 1] - v[:, :, 0]) / np.sqrt(2.0)
        crossing = (s.min(axis=1) <= 0) & (s.max(axis=1) >= 0)
        near = np.abs(s).min(axis=1) <= mesh.element_h
        small = mesh.element_h < np.median(mesh.element_h)
        if small.any():
            assert (crossing | near)[small].mean() >= 0.8, rec.cycle
            checked += 1
    assert checked >= 2  # the claim must bind on real refined meshes


def test_relaxation_needs_block_scaling_and_ordered_sweep_suffices():
    meshes = [rec.mesh for rec in layer_amr_records(0.12)]
    prob = make_layer1d().prob
    rows = []
    for mesh in meshes:
        cs = condense(assemble_blocks(mesh, 1, prob))
        base = solve_condensed(cs, SolverParams()).iterations
        ordered = solve_condensed(cs, SolverParams(
            relaxation="ordered_block_gs")).iterations
        noscale = solve_condensed(cs, SolverParams(
            scale_blocks=False)).iterations
        rows.append((cs.S.shape[0], base, ordered, noscale))
        assert ordered <= base, rows
    n, base, _, noscale = max(rows)
    assert noscale >= 1.5 * base, rows


def test_polynomial_solutions_reproduced_exactly():
    for p in (1, 2, 3):
        for deformed in (False, True):
            case = case_by_name("polyexact", p=p, deformed=deformed)
            for mode in ("all_at_once", "slab"):
                mesh = build_case_mesh(case, 8, 8, mode=mode)
                sol = solve_problem(mesh, p, case.prob)
                err = solution_error(sol, mesh, p, case.prob.exact)
                assert err <= 1e-10, (p, deformed, mode, err)


def test_repeated_runs_are_byte_identical(tmp_path):
    def run(tag):
        out = tmp_path / tag
        paths = run_converge(ExperimentConfig(
            case="polyexact", p=1, nus=(1e-6,), ladder=((4, 4), (8, 8)),
            outdir=str(out / "conv")))
        paths += run_iterations(ExperimentConfig(
            case="pulse1d", p=1, nus=(1e-6, 1e-2), ladder=((4, 4), (8, 8)),
            outdir=str(out / "its")))
        return paths

    first, second = run("a"), run("b")
    for pa, pb in zip(first, second):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes(), pa.name
