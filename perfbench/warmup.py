"""Loading sthdg for the benchmark, and the set-up that ``setup_s`` times.

Run as a script, this file pins the BLAS threads, imports sthdg from the
checkout's ``src/``, finishes one tiny warm-up solve and prints the seconds
all of that took.  ``run.py`` starts it several times, each in a fresh
process, and reports the median as ``setup_s``.
"""

import os
import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the load model is a single caller running one
# solve at a time, and the thread count changes roundoff (and on
# diffuse_aao at 64x64 even the iteration count), so it is fixed here.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/sthdg`` to benchmark."""


def pin_threads():
    """Fix the BLAS/OpenMP thread count; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def load_sthdg():
    """Import sthdg from this checkout's ``src/`` and nowhere else."""
    init = SRC / "sthdg" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no sthdg sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sthdg

    if Path(sthdg.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported sthdg from {sthdg.__file__}, "
                             f"not from {init.parent}")
    return sthdg


def warm_up():
    """One tiny slab solve and one tiny adaptive cycle.

    Between them they call every code path the workloads use, so the
    ``lru_cache`` tables (bases, quadrature rules, reference matrices) for
    p=2 are filled before anything is timed.
    """
    from sthdg.amr import amr_loop
    from sthdg.cases import build_case_mesh, case_by_name
    from sthdg.solving import solve_problem

    case = case_by_name("pulse1d", nu=1e-2)
    solve_problem(build_case_mesh(case, 4, 4, mode="slab"), 2, case.prob)
    amr_loop(case, 2, 1, n0=4, fraction=0.2)


def main():
    pin_threads()
    try:
        load_sthdg()
    except MissingProgram as exc:
        print(f"warmup: {exc}", file=sys.stderr)
        return 2
    warm_up()
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
