"""The sthdg benchmark: workloads, timed runs, correctness gate, report.

Load model: a closed loop with one caller.  Each run executes one
workload again and again, one solve at a time and with no worker threads,
until ``--seconds`` have passed, and reports medians over those
repetitions.  Import this module only after ``warmup.pin_threads`` and
``warmup.load_sthdg`` (``run.py`` does both).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

import sthdg.amr
import sthdg.cases
import sthdg.hdg
import sthdg.solving
from sthdg.mesh import DeformationMap

import tracing
import warmup

P = 2
TOL = 1e-12
# Measured true relative residuals are 1e-15 to 3e-12 on these workloads;
# a solve whose true residual exceeds this did not really converge.
TRUE_RESIDUAL_BOUND = 1e-10
# Roundoff tolerance for the seed-0 reference error: the BLAS thread count
# alone moves l2_error in about the 14th digit.
L2_REFERENCE_RTOL = 1e-9
# For any seed, the stretched mesh must not be much less accurate than the
# undeformed one (seen: within 1% at the amplitude below, 4% at four times it).
L2_SEED_FACTOR = 1.2
# Largest stretch amplitude a of x -> x + a/(pi k) sin(pi k x) on the unit
# interval.  Iteration counts still move by a few percent between seeds,
# because CF splitting ties flip; errors move by about 1%.
STRETCH_AMPLITUDE = 0.005
SETUP_SAMPLES = 7
AMR_FRACTION = 0.12  # share of elements marked per adaptive cycle
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "krylov_iterations": "count",
    "l2_error": "1",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: pulse1d at degree 2, solved to ``TOL``.

    ``mode`` is "all_at_once", "slab" or "amr"; ``n`` is the cells per side
    of the uniform mesh (for "amr", the starting mesh, refined ``cycles``
    times).  ``reference`` holds the seed-0 (krylov_iterations, l2_error)
    with one BLAS thread, or None for inputs without a recorded reference.
    """

    name: str
    nu: float
    n: int
    mode: str
    cycles: int = 0
    reference: Optional[tuple] = None


WORKLOADS = {w.name: w for w in (
    # setup-dominated: 2 iterations, AIR setup is most of the solve
    Workload("advect_aao", nu=1e-6, n=32, mode="all_at_once",
             reference=(2, 0.00025146592655600887)),
    # Krylov-dominated at the same mesh and matrix size as advect_aao
    Workload("diffuse_aao", nu=1e-1, n=32, mode="all_at_once",
             reference=(78, 0.0001358696471985226)),
    # advect_aao as 32 sequential slab solves with bitwise-equal operators
    Workload("advect_slab", nu=1e-6, n=32, mode="slab",
             reference=(32, 0.000251465926555552)),
    # adaptive loop: a new operator and sparsity pattern on every solve
    Workload("amr_pulse", nu=1e-4, n=8, mode="amr", cycles=7,
             reference=(63, 0.0014006841987352307)),
)}


@dataclass(frozen=True)
class Outcome:
    krylov_iterations: int
    l2_error: float
    reports: tuple


def stretch(seed, box):
    """Seeded time-independent spatial stretch fixing both x endpoints.

    Seed 0 is the undeformed reference problem.  Being independent of t,
    the map leaves every time slab the same shape.
    """
    if seed == 0:
        return None
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    a = float(rng.uniform(-STRETCH_AMPLITUDE, STRETCH_AMPLITUDE))
    xlo, xhi = box[2], box[3]

    def mapping(pts):
        out = pts.copy()
        xi = (pts[:, 1] - xlo) / (xhi - xlo)
        xi = xi + a / (math.pi * k) * np.sin(math.pi * k * xi)
        out[:, 1] = xlo + (xhi - xlo) * xi
        return out

    return DeformationMap(mapping=mapping)


def make_case(w, seed):
    case = sthdg.cases.case_by_name("pulse1d", nu=w.nu)
    return replace(case, deformation=stretch(seed, case.box))


def solve(w, case):
    """The timed part of a workload: from meshing to the solution ``U``.

    Calls go through the module attributes so that a tracer sees them.
    """
    params = sthdg.solving.SolverParams(tol=TOL)
    if w.mode == "amr":
        return sthdg.amr.amr_loop(case, P, w.cycles, params, n0=w.n,
                                  fraction=AMR_FRACTION)
    mesh = sthdg.cases.build_case_mesh(case, w.n, w.n, mode=w.mode)
    return mesh, sthdg.solving.solve_problem(mesh, P, case.prob, params)


@contextmanager
def captured_reports():
    """Collect the Krylov report of every condensed solve made inside.

    ``amr_loop`` keeps none of its solutions, so the gate reads each
    solve's convergence and true residual from here.
    """
    reports = []
    original = sthdg.solving.solve_condensed

    def capturing(*args, **kwargs):
        out = original(*args, **kwargs)
        reports.append(out.report)
        return out

    sthdg.solving.solve_condensed = capturing
    try:
        yield reports
    finally:
        sthdg.solving.solve_condensed = original


def outcome(w, case, raw, reports):
    """Iterations and error of one execution, computed outside the timing."""
    exact = case.prob.exact
    if w.mode == "amr":
        its = sum(r.iterations for r in raw)
        err = raw[-1].l2_error
    elif w.mode == "slab":
        _, sol = raw
        its = sum(sol.iteration_list)
        err = sol.error(P, exact)
    else:
        mesh, sol = raw
        its = sol.iterations
        err = sthdg.hdg.st_l2_error(mesh, P, sol.U, exact)
    return Outcome(int(its), float(err), tuple(reports))


def gate(w, seed, out, first):
    """Problems with one execution's outcome; empty when it is correct.

    ``first`` is the outcome of the run's first execution, which every
    later one must repeat exactly.
    """
    problems = []
    if not out.reports:
        problems.append("no solve was made")
    for k, r in enumerate(out.reports):
        if not r.converged:
            problems.append(f"solve {k} did not converge ({r.reason})")
        if not r.true_residual <= TRUE_RESIDUAL_BOUND:
            problems.append(f"solve {k} true residual {r.true_residual:.3e} "
                            f"> {TRUE_RESIDUAL_BOUND:.0e}")
    if out.krylov_iterations != sum(r.iterations for r in out.reports):
        problems.append("iteration total disagrees with the solve reports")
    if not math.isfinite(out.l2_error):
        problems.append(f"l2_error is {out.l2_error}")
    if w.reference is not None:
        ref_its, ref_l2 = w.reference
        if not out.l2_error <= L2_SEED_FACTOR * ref_l2:
            problems.append(f"l2_error {out.l2_error!r} > {L2_SEED_FACTOR} x "
                            f"reference {ref_l2!r}")
        if seed == 0 and out.krylov_iterations != ref_its:
            problems.append(f"krylov_iterations {out.krylov_iterations} != "
                            f"reference {ref_its}")
        if seed == 0 and not math.isclose(out.l2_error, ref_l2,
                                          rel_tol=L2_REFERENCE_RTOL):
            problems.append(f"l2_error {out.l2_error!r} != reference {ref_l2!r}")
    if first is not None and (out.krylov_iterations, out.l2_error) != (
            first.krylov_iterations, first.l2_error):
        problems.append(f"({out.krylov_iterations}, {out.l2_error!r}) does not "
                        f"repeat ({first.krylov_iterations}, {first.l2_error!r})")
    return problems


@dataclass
class Execution:
    seconds: float
    outcome: Outcome
    layers: Optional[dict] = None  # per-layer metrics of a traced execution


def execute(w, case, traced):
    """Run the workload once; time it, trace it if asked."""
    with captured_reports() as reports:
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                raw = tracer.run(lambda: solve(w, case))
                seconds = time.perf_counter() - t0
            layers = tracer.layer_metrics()
        else:
            t0 = time.perf_counter()
            raw = solve(w, case)
            seconds = time.perf_counter() - t0
            layers = None
    return Execution(seconds, outcome(w, case, raw, reports), layers)


def measure_setup(samples=SETUP_SAMPLES):
    """Seconds for a fresh process to import sthdg and finish the warm-up."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(warmup.__file__).resolve())],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=warmup.ROOT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment():
    """The pinned thread count and the versions the numbers depend on."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": warmup.BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in warmup.THREAD_VARS},
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (warmup.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(warmup.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _pairs(execs):
    """(untraced, traced) executions that ran one right after the other."""
    return [(u, t) for u, t in zip(execs, execs[1:])
            if u.layers is None and t.layers is not None]


def run(w, seed, seconds, trace, setup_samples=SETUP_SAMPLES):
    """Measure one workload for ``seconds``; return the result object.

    Untraced executions give the end-to-end metrics.  With ``trace``,
    traced and untraced executions alternate, and the result holds the
    per-layer metrics instead.
    """
    setup = [] if trace else measure_setup(setup_samples)
    warmup.warm_up()
    case = make_case(w, seed)
    execs, attempted, failed, first = [], 0, 0, None
    t_start = time.perf_counter()
    while True:
        # a result needs an untraced execution, with trace followed by a
        # traced one
        short = not (_pairs(execs) if trace else execs)
        if short and failed > 3:
            break
        if not short and time.perf_counter() - t_start >= seconds:
            break
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            ex = execute(w, case, traced)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        problems = gate(w, seed, ex.outcome, first)
        if problems:
            failed += 1
            print(f"{w.name} seed {seed}: " + "; ".join(problems),
                  file=sys.stderr)
        first = first or ex.outcome
        execs.append(ex)
    if not (_pairs(execs) if trace else execs):
        return None
    untraced = [ex for ex in execs if ex.layers is None]
    traced_ex = [ex for ex in execs if ex.layers is not None]
    solve_s = statistics.median(ex.seconds for ex in untraced)
    if trace:
        # times are medians; counts and ratios repeat, so take a sample
        metrics = {k: (statistics.median if unit == "s" else statistics.median_low)(
                       [ex.layers[k] for ex in traced_ex])
                   for k, unit in tracing.LAYER_UNITS.items()
                   if k != "trace.overhead_s"}
        # each traced execution against the untraced one just before it,
        # so that the machine's drift over the run cancels
        metrics["trace.overhead_s"] = statistics.median(
            t.layers["trace.solve_s"] - u.seconds for u, t in _pairs(execs))
        units = tracing.LAYER_UNITS
    else:
        metrics = {
            "solve_s": solve_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "krylov_iterations": first.krylov_iterations,
            "l2_error": first.l2_error,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
