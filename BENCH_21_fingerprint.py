"""SHA-256 digests of what the benchmark workloads compute, for BENCH_21.json.

Run from a checkout's root; it imports sthdg from that checkout's ``src/``
through perfbench's loader, with one BLAS thread:

    python3 BENCH_21_fingerprint.py            # the compiled kernels
    python3 BENCH_21_fingerprint.py --fallback # every kernel's Python twin

For each workload at seeds 0 and 1 it prints one JSON object holding, per
(workload, seed), the digest of every AIR hierarchy built (each level's
A, R, P and labels, and the lAIR fallback count), of every solve's
``lam`` and ``U``, and the iteration count and ``l2_error``.  Two sides
are bitwise equal when their objects are equal; digests depend on the
machine and the BLAS, so compare sides run on one box.

``--fallback`` turns every kernel off through ``sthdg._compiled.kernel``,
the one loader, and exits non-zero where a checkout has no such loader,
since patching a name that nothing reads would turn off nothing.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perfbench"))
import warmup  # noqa: E402

warmup.pin_threads()
warmup.load_sthdg()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import sthdg.solving  # noqa: E402


def _feed(h, *arrays):
    for a in arrays:
        if a is None:
            h.update(b"none")
        elif hasattr(a, "indptr"):
            _feed(h, np.asarray(a.shape), a.indptr, a.indices, a.data)
        else:
            a = np.ascontiguousarray(a)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())


def fingerprint(w, seed):
    hier, lam, U = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    build, solve = sthdg.solving.build_hierarchy, sthdg.solving.solve_condensed

    def recording_build(*args, **kwargs):
        h = build(*args, **kwargs)
        for lev in h.levels:
            _feed(hier, lev.A, lev.R, lev.P, lev.labels)
        hier.update(str(h.lair_fallbacks).encode())
        return h

    def recording_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        _feed(lam, out.lam)
        _feed(U, out.U)
        return out

    sthdg.solving.build_hierarchy = recording_build
    sthdg.solving.solve_condensed = recording_solve
    try:
        case = harness.make_case(w, seed)
        out = harness.outcome(w, case, harness.solve(w, case), [])
    finally:
        sthdg.solving.build_hierarchy, sthdg.solving.solve_condensed = build, solve
    return {"hierarchies": hier.hexdigest(), "lam": lam.hexdigest(),
            "U": U.hexdigest(), "krylov_iterations": out.krylov_iterations,
            "l2_error": repr(out.l2_error)}


def main(argv):
    if "--fallback" in argv:
        try:
            import sthdg._compiled as compiled
        except ImportError:
            compiled = None
        if not callable(getattr(compiled, "kernel", None)):
            sys.exit("--fallback: no kernel loader sthdg._compiled.kernel to turn off")
        compiled.kernel = lambda name: None
    out = {f"{name}@{seed}": fingerprint(w, seed)
           for name, w in harness.WORKLOADS.items() for seed in (0, 1)}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
