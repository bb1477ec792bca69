"""Per-layer trace of an sthdg solve, taken from outside the package.

:class:`Tracer` swaps the module globals that sthdg's own callers look up
(``sthdg.solving.build_hierarchy``, ``sthdg.air.vcycle``, ...) for
wrappers that record a span per call, runs the workload, and restores the
originals.  Spans are kept in memory as ``[name, start, end, parent,
attrs]`` rows; :meth:`Tracer.layer_metrics` folds them into the per-layer
metrics named in ``LAYER_UNITS``.

Times named ``<layer>.<stage>_s`` are inclusive span times, except
``air.lair_s`` and the ``*self_s`` metrics, which are self times (span
time minus the spans nested in it).  ``air.lair_s`` excludes the
restriction strength graph it builds, which is booked in
``air.strength_s`` together with the coarsening one.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import sthdg.air
import sthdg.amr
import sthdg.cases
import sthdg.hdg
import sthdg.solving

ROOT_SPAN = "workload"
# Levels below this are reported one by one; the rest, coarsest included,
# are folded into "air.L<LEVEL_BUCKETS>plus".  Every workload builds a
# hierarchy deeper than this (the 381-row slab systems have four levels),
# so every bucket has rows.  The coarsest level is solved, not relaxed, so
# "air.L3plus.relax_s" is 0 where all hierarchies stop at four levels.
LEVEL_BUCKETS = 3
_LEVEL_KEYS = [f"L{k}" for k in range(LEVEL_BUCKETS)] + [f"L{LEVEL_BUCKETS}plus"]

# (owner, attribute, span name).  The owner is the namespace the caller
# looks the name up in, so a wrapper is seen by every call made through it.
_TARGETS = (
    (sthdg.cases, "build_case_mesh", "mesh.build"),
    (sthdg.solving, "extract_slab", "mesh.extract_slab"),
    (sthdg.amr, "bisect_refine", "mesh.bisect_refine"),
    (sthdg.solving, "assemble_blocks", "hdg.assemble"),
    (sthdg.solving, "condense", "hdg.condense"),
    (sthdg.solving, "reconstruct", "hdg.reconstruct"),
    (sthdg.solving, "line_trace_evaluator", "hdg.trace"),
    (sthdg.hdg, "st_l2_error", "hdg.error"),
    (sthdg.solving, "block_diag_inverse_scale", "sparsela.block_scaling"),
    (sthdg.solving, "build_hierarchy", "air.setup"),
    (sthdg.air, "strength_graph", "air.strength"),
    (sthdg.air, "rs_coarsen", "air.cf_split"),
    (sthdg.air, "lair_restriction", "air.lair"),
    (sthdg.air, "one_point_interpolation", "air.interp"),
    (sthdg.air, "galerkin_coarse", "air.galerkin"),
    (sthdg.air.RelaxationPlan, "__init__", "air.relax_plan"),
    (sthdg.air.RelaxationPlan, "apply", "air.relax"),
    (sthdg.air, "vcycle", "air.vcycle"),
    (sthdg.solving, "bicgstab", "krylov.bicgstab"),
    (sthdg.solving, "solve_problem", "solving.solve_problem"),
    (sthdg.solving, "solve_condensed", "solving.solve_condensed"),
    (sthdg.amr, "zz_estimate", "amr.estimate"),
    (sthdg.amr, "mark_fixed_fraction", "amr.mark"),
)

LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.extract_slab_s": "s",
    "mesh.extract_slab_calls": "count",
    "mesh.bisect_refine_s": "s",
    "hdg.assemble_s": "s",
    "hdg.condense_s": "s",
    "hdg.reconstruct_s": "s",
    "hdg.trace_s": "s",
    "hdg.error_s": "s",
    "hdg.n_lambda": "count",
    "hdg.S_nnz": "count",
    "sparsela.block_scaling_s": "s",
    "sparsela.block_scaling_calls": "count",
    "air.setup_s": "s",
    "air.setup_calls": "count",
    "air.strength_s": "s",
    "air.cf_split_s": "s",
    "air.lair_s": "s",
    "air.interp_s": "s",
    "air.galerkin_s": "s",
    "air.relax_plan_s": "s",
    "air.levels": "count",
    "air.operator_complexity": "1",
    "air.grid_complexity": "1",
    "air.lair_fallbacks": "count",
    "air.vcycle_s": "s",
    "air.vcycle_calls": "count",
    "air.relax_s": "s",
    "air.relax_calls": "count",
    "air.coarse_solve_s": "s",
    **{f"air.{key}.{stat}": unit for key in _LEVEL_KEYS
       for stat, unit in (("n", "count"), ("nnz", "count"),
                          ("vcycle_self_s", "s"), ("relax_s", "s"))},
    "krylov.bicgstab_s": "s",
    "krylov.iterations": "count",
    "krylov.matvecs": "count",
    "krylov.matvec_s": "s",
    "krylov.restarts": "count",
    "krylov.true_residual_max": "1",
    "solving.solves": "count",
    "solving.self_s": "s",
    "solving.hierarchy_builds": "count",
    "amr.estimate_s": "s",
    "amr.mark_s": "s",
    "amr.cycles": "count",
    "amr.final_n_coupled": "count",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class Tracer:
    """Records spans and results of one traced workload execution."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.systems = []  # (n_lambda, S.nnz) per condensed system
        self.hierarchies = []
        self.reports = []

    # -- recording -------------------------------------------------------

    def _open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_vcycle(self, fn):
        @functools.wraps(fn)
        def traced(h, b, x=None, level=0):
            idx = self._open("air.vcycle", (level, level == h.n_levels - 1))
            try:
                return fn(h, b, x, level)
            finally:
                self._close(idx)

        return traced

    def _wrap_bicgstab(self, fn):
        traced_fn = self._wrap(fn, "krylov.bicgstab")

        @functools.wraps(fn)
        def traced(A, b, *args, **kwargs):
            # bicgstab applies a callable A as is, so this is the same
            # product it would form from the matrix, now timed per call
            matvec = self._wrap(A if callable(A) else A.__matmul__,
                                "krylov.matvec")
            x, report = traced_fn(matvec, b, *args, **kwargs)
            self.reports.append(report)
            return x, report

        return traced

    def _wrap_result(self, fn, name, keep):
        traced_fn = self._wrap(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = traced_fn(*args, **kwargs)
            keep(out)
            return out

        return traced

    def _wrapper(self, fn, name):
        if name == "air.vcycle":
            return self._wrap_vcycle(fn)
        if name == "krylov.bicgstab":
            return self._wrap_bicgstab(fn)
        if name == "hdg.condense":
            return self._wrap_result(
                fn, name, lambda cs: self.systems.append((cs.n_lambda, cs.S.nnz)))
        if name == "air.setup":
            return self._wrap_result(fn, name, self.hierarchies.append)
        return self._wrap(fn, name)

    @contextmanager
    def installed(self):
        """Replace every target with its wrapper; restore them on exit."""
        saved = []
        try:
            for owner, attr, name in _TARGETS:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(original, name))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run(self, fn):
        """Call ``fn()`` inside the root span and return its result."""
        idx = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(idx)

    # -- folding -----------------------------------------------------------

    def layer_metrics(self):
        """Every ``LAYER_UNITS`` metric except ``trace.overhead_s``."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        level_self = defaultdict(float)
        level_relax = defaultdict(float)
        coarse_s = 0.0
        top_vcycles = 0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            own = dur - covered[i]
            calls[name] += 1
            self_s[name] += own
            if parent < 0 or spans[parent][0] != name:
                incl[name] += dur  # outermost of a recursion only
            if name == "air.vcycle":
                level, coarsest = attrs
                level_self[_level_key(level)] += own
                coarse_s += own if coarsest else 0.0
                top_vcycles += level == 0
            elif (name == "air.relax" and parent >= 0
                  and spans[parent][0] == "air.vcycle"):
                level_relax[_level_key(spans[parent][4][0])] += dur

        m = {
            "mesh.build_s": incl["mesh.build"],
            "mesh.extract_slab_s": incl["mesh.extract_slab"],
            "mesh.extract_slab_calls": calls["mesh.extract_slab"],
            "mesh.bisect_refine_s": incl["mesh.bisect_refine"],
            "hdg.assemble_s": incl["hdg.assemble"],
            "hdg.condense_s": incl["hdg.condense"],
            "hdg.reconstruct_s": incl["hdg.reconstruct"],
            "hdg.trace_s": incl["hdg.trace"],
            "hdg.error_s": incl["hdg.error"],
            "hdg.n_lambda": sum(n for n, _ in self.systems),
            "hdg.S_nnz": sum(nnz for _, nnz in self.systems),
            "sparsela.block_scaling_s": incl["sparsela.block_scaling"],
            "sparsela.block_scaling_calls": calls["sparsela.block_scaling"],
            "air.setup_s": incl["air.setup"],
            "air.setup_calls": calls["air.setup"],
            "air.strength_s": incl["air.strength"],
            "air.cf_split_s": incl["air.cf_split"],
            "air.lair_s": self_s["air.lair"],
            "air.interp_s": incl["air.interp"],
            "air.galerkin_s": incl["air.galerkin"],
            "air.relax_plan_s": incl["air.relax_plan"],
            "air.vcycle_s": incl["air.vcycle"],
            "air.vcycle_calls": top_vcycles,
            "air.relax_s": incl["air.relax"],
            "air.relax_calls": calls["air.relax"],
            "air.coarse_solve_s": coarse_s,
            "krylov.bicgstab_s": incl["krylov.bicgstab"],
            "krylov.iterations": sum(r.iterations for r in self.reports),
            "krylov.matvecs": calls["krylov.matvec"],
            "krylov.matvec_s": incl["krylov.matvec"],
            "krylov.restarts": sum(r.restarts for r in self.reports),
            "krylov.true_residual_max": max(
                (r.true_residual for r in self.reports), default=0.0),
            "solving.solves": calls["solving.solve_condensed"],
            "solving.self_s": (self_s["solving.solve_problem"]
                               + self_s["solving.solve_condensed"]),
            "solving.hierarchy_builds": calls["air.setup"],
            "amr.estimate_s": incl["amr.estimate"],
            "amr.mark_s": incl["amr.mark"],
            "amr.cycles": calls["amr.mark"],
            "amr.final_n_coupled": (self.systems[-1][0] if calls["amr.mark"]
                                    else 0),
            "trace.solve_s": incl[ROOT_SPAN],
            "trace.unaccounted_s": self_s[ROOT_SPAN],
        }
        m.update(self._hierarchy_metrics())
        for key in _LEVEL_KEYS:
            m[f"air.{key}.vcycle_self_s"] = level_self[key]
            m[f"air.{key}.relax_s"] = level_relax[key]
        return m

    def _hierarchy_metrics(self):
        """Sizes over every hierarchy built, summed level by level."""
        hs = self.hierarchies
        m = {f"air.{key}.{stat}": 0 for key in _LEVEL_KEYS for stat in ("n", "nnz")}
        for h in hs:
            for k, lev in enumerate(h.levels):
                m[f"air.{_level_key(k)}.n"] += lev.A.shape[0]
                m[f"air.{_level_key(k)}.nnz"] += lev.A.nnz
        fine_n = sum(h.levels[0].A.shape[0] for h in hs)
        fine_nnz = sum(h.levels[0].A.nnz for h in hs)
        m["air.levels"] = max((h.n_levels for h in hs), default=0)
        m["air.grid_complexity"] = (
            sum(l.A.shape[0] for h in hs for l in h.levels) / fine_n
            if fine_n else 0.0)
        m["air.operator_complexity"] = (
            sum(l.A.nnz for h in hs for l in h.levels) / fine_nnz
            if fine_nnz else 0.0)
        m["air.lair_fallbacks"] = sum(h.lair_fallbacks for h in hs)
        return m


def _level_key(level):
    return f"L{level}" if level < LEVEL_BUCKETS else f"L{LEVEL_BUCKETS}plus"
