"""The package's C kernels: one source, one shared library, built on first use.

Every kernel is a function of :data:`_SOURCE`.  The library is compiled
once by the system C compiler ``cc`` into this package's ``__pycache__``,
under the SHA-256 of the source and flags, and loaded from there by later
processes; nothing is built at import.  :func:`kernel` returns a kernel
bound to its :data:`SIGNATURES` entry, or None where no compiler runs or
the cache cannot be written; each caller then runs its Python twin,
which gives bitwise the same result.  Arrays are passed as the raw
addresses of :func:`address`.
"""

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

# unit_lower_solve: forward substitution by columns with a unit lower
# triangular CSC matrix whose columns store their diagonal first (it is
# skipped, not read).  This is the update, in the order, that SuperLU's
# dgstrs makes for one-column supernodes, which is how scipy's
# spsolve_triangular hands L to it.
#
# rs_split: air.rs_coarsen's splitting loop on a binary min-heap of the
# keys i - measure[i] * n.  They are unique, so it pops the loop's
# sequence.  state is -1 (undecided) or 0 (F) on entry and 0 (F) or 1 (C)
# on exit; heap has room for n + nnz(S) keys, one per point and one per
# measure raise.
_SOURCE = """\
void unit_lower_solve(int n, const int *indptr, const int *indices,
                      const double *data, double *x) {
    for (int j = 0; j < n; ++j) {
        double xj = x[j];
        for (int p = indptr[j] + 1; p < indptr[j + 1]; ++p)
            x[indices[p]] -= xj * data[p];
    }
}

static void push(long long *h, long long c, long long key) {
    for (; c > 0 && key < h[(c - 1) / 2]; c = (c - 1) / 2)
        h[c] = h[(c - 1) / 2];
    h[c] = key;
}

void rs_split(int n, const int *sptr, const int *sidx, const int *tptr,
              const int *tidx, long long *measure, signed char *state, long long *heap) {
    long long m = 0;
    for (long long i = 0; i < n; ++i)
        push(heap, m++, i - measure[i] * n);
    while (m > 0) {  /* pop point i; the last key sifts down from the top */
        long long i = (heap[0] % n + n) % n, key = heap[--m], at = 0;
        for (long long c = 1; c < m; at = c, c = 2 * at + 1) {
            c += c + 1 < m && heap[c + 1] < heap[c];
            if (key <= heap[c])
                break;
            heap[at] = heap[c];
        }
        heap[at] = key;
        if (state[i] != -1)
            continue;
        state[i] = 1;
        for (int p = tptr[i]; p < tptr[i + 1]; ++p) {
            int k = tidx[p];
            if (state[k] != -1)
                continue;
            state[k] = 0;
            for (int q = sptr[k]; q < sptr[k + 1]; ++q)
                if (state[sidx[q]] == -1)
                    push(heap, m++, sidx[q] - ++measure[sidx[q]] * n);
        }
    }
}
"""
# no FMA contraction: xj * data[p] is rounded before the subtraction, as in dgstrs
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_INT, _PTR = ctypes.c_int, ctypes.c_void_p
SIGNATURES = {"unit_lower_solve": [_INT] + [_PTR] * 4, "rs_split": [_INT] + [_PTR] * 7}


@functools.cache
def _library():
    key = hashlib.sha256("\0".join((_SOURCE,) + _CFLAGS).encode())
    lib = Path(__file__).parent / "__pycache__" / f"kernels_{key.hexdigest()}.so"
    try:
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
                subprocess.run(["cc", *_CFLAGS, "-x", "c", "-", "-o", f"{tmp}/k.so"],
                               input=_SOURCE, text=True, capture_output=True, check=True)
                os.replace(f"{tmp}/k.so", lib)  # atomic: a concurrent build is harmless
        return ctypes.CDLL(str(lib))
    except (OSError, subprocess.SubprocessError):
        return None


@functools.cache
def kernel(name):
    """The kernel ``name`` of :data:`SIGNATURES` as a ctypes function, or
    None where the library cannot be built."""
    fn = getattr(_library(), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = SIGNATURES[name], None
    return fn


def address(a):
    """The raw data address of the array ``a``, for a kernel argument.

    Read from ``__array_interface__``: unlike ``a.ctypes.data`` it makes
    no ctypes object, so a call retains nothing.
    """
    return a.__array_interface__["data"][0]
