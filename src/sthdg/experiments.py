"""Batch experiment drivers emitting deterministic CSV tables.

Every setting is one field of :class:`ExperimentConfig` or, under
``[solver]``, of :class:`~sthdg.solving.SolverParams`, and the dataclass
defaults are the only default table: :func:`defaults_text` renders them
as the INI file ``sthdg defaults`` prints, and
:meth:`ExperimentConfig.from_ini` overlays an INI file and then explicit
overrides, typing both with one parser, so every bad key or value raises
a :class:`ConfigError` that names it.

Each runner builds its meshes and systems from an
:class:`ExperimentConfig`, solves with the production pipeline, and
writes plain CSV.  A run solves the case exactly as
:meth:`ExperimentConfig.make_case` builds it and is labelled with that
case's ν; the runners that sweep ``nus`` solve each distinct case ν once
(``layer1d`` is defined only at ν = 0, so it gives one 0.0 run whatever
``nus`` says).  Formatting is fixed (``repr`` for floats, ``-`` for
runs that :func:`sthdg.solving.accepted` rejects: not converged, or a
true residual above ``TRUE_RESIDUAL_FACTOR * tol``) and iteration order
is deterministic, so repeated runs of the same configuration produce
byte-identical files.
Wall-clock stage timings go to a separate ``timings.txt`` precisely so
they never perturb the tables.  Its lines are ``<stage> <seconds>``, in
the order the stages first ran, then ``total <seconds>`` for the whole
run.  The ladder runners (``converge``, ``iterations`` and the uniform
ladder of ``amr``) book ``mesh.build``, every stage in the ``timings``
of :func:`sthdg.solving.solve_problem` (``mesh.extract_slab`` and
``hdg.trace`` in slab mode, ``hdg.assemble``, ``hdg.condense``,
``sparsela.block_scaling``, ``air.setup``, ``krylov.bicgstab``,
``hdg.reconstruct``) and ``hdg.error``.  ``stagnation`` books the stages
of its one solve; ``relaxcompare``, ``ordercheck`` and ``export`` write
only the total.  ``stagnation``, ``ordercheck`` and ``export`` study the
all-at-once system of the last ladder entry, and ``export`` writes it as
:func:`~sthdg.solving.prepare_operator` prepares it for a solve, with
the CF splitting of the finest level of that operator's hierarchy.
"""

from __future__ import annotations

import configparser
import io
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .air import RELAXATIONS, RelaxationPlan
from .amr import amr_loop
from .cases import CASES, build_case_mesh, case_by_name
from .hdg import assemble_blocks, condense, lambda_dof_positions, \
    reconstruct, st_l2_error
from .mesh import MODES
from .solving import (SolverParams, _check_field_types, _of_kind, accepted,
                      prepare_operator, solve_condensed, solve_problem, timed)
from .sparsela import BlockDiagonalScaling, write_matrix_market

__all__ = ["ConfigError", "ExperimentConfig", "run_converge",
           "run_iterations", "run_stagnation", "run_amr",
           "run_relaxcompare", "run_ordercheck", "run_export",
           "defaults_text"]

class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or file)."""


def _parse_ladder(text):
    ladder = []
    for tok in text.replace(";", ",").split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "x" in tok:
            a, _, b = tok.partition("x")
            ladder.append((int(a), int(b)))
        else:
            ladder.append((int(tok), int(tok)))
    return ladder


def _parse(key, text, default):
    """Type the INI or override string ``text`` of field ``key`` like its
    ``default``; a value that does not parse is a :class:`ConfigError`
    naming ``key``."""
    text = text.strip()
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if key == "ladder":
            return tuple(_parse_ladder(text))
        if key == "nus":
            return tuple(float(v) for v in text.split(","))
        return type(default)(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"[{_SECTIONS[key]}] {key}: cannot parse {text!r}") \
            from exc


def _ini_text(key, value):
    """Field ``key``'s ``value`` as :func:`_parse` reads it from a file."""
    if isinstance(value, bool):
        return str(value).lower()
    if key == "ladder":
        return ",".join(str(a) if a == b else f"{a}x{b}" for a, b in value)
    if key == "nus":
        return ",".join(map(_fmt, value))
    return _fmt(value)


@dataclass
class ExperimentConfig:
    """Every experiment setting and its default, grouped into INI sections
    by ``_SECTIONS``; construction validates every value.  ``solver``
    holds the [solver] settings, which :class:`SolverParams` checks."""

    case: str = "pulse1d"
    mode: str = "all_at_once"
    p: int = 1
    nus: tuple = (1e-6,)
    ladder: tuple = ((8, 8), (16, 16), (32, 32), (64, 64))
    cycles: int = 6
    n0: int = 8
    fraction: float = 0.12
    deformed: bool = False
    solver: SolverParams = field(default_factory=SolverParams)
    outdir: str = "results"

    def __post_init__(self):
        _check_field_types(self, lambda name, msg: ConfigError(
            f"[{_SECTIONS[name]}] {name}: {msg}"))
        if self.case not in CASES:
            raise ConfigError(f"[experiment] case: unknown case {self.case!r}")
        if self.mode not in MODES:
            raise ConfigError(f"[experiment] mode: must be one of {MODES}")
        if self.p < 1:
            raise ConfigError("[experiment] p: must be >= 1")
        try:  # the case itself knows the degrees it supports
            case_by_name(self.case, p=self.p)
        except ValueError as exc:
            raise ConfigError(f"[experiment] p: {exc}") from exc
        if not (isinstance(self.ladder, (tuple, list)) and all(
                isinstance(e, (tuple, list)) and len(e) == 2
                and all(_of_kind(n, Integral) for n in e) for e in self.ladder)):
            raise ConfigError("[experiment] ladder: must be a sequence of "
                              f"(int, int) pairs, got {self.ladder!r}")
        if not self.ladder:
            raise ConfigError("[experiment] ladder: must be nonempty")
        self.ladder = tuple((int(a), int(b)) for a, b in self.ladder)
        if any(n < 1 for entry in self.ladder for n in entry):
            raise ConfigError("[experiment] ladder: mesh sizes must be >= 1")
        if self.n0 < 1:
            raise ConfigError("[experiment] n0: must be >= 1")
        if self.cycles < 0:
            raise ConfigError("[experiment] cycles: must be >= 0")
        if not (isinstance(self.nus, (tuple, list))
                and all(_of_kind(v, Real) for v in self.nus)):
            raise ConfigError("[experiment] nus: must be a sequence of "
                              f"numbers, got {self.nus!r}")
        self.nus = tuple(float(v) for v in self.nus)
        if not self.nus:
            raise ConfigError("[experiment] nus: must be nonempty")
        if any(nu < 0 for nu in self.nus):
            raise ConfigError("[experiment] nus: viscosities must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError("[experiment] fraction: must lie in (0, 1]")

    @classmethod
    def from_ini(cls, path, overrides):
        """The defaults, overlaid by the INI file ``path`` (none if None),
        then by explicit overrides.

        ``overrides`` maps setting names (``case``, ``tol``, ...) to
        string or already-typed values.  INI values and string overrides
        are typed by the same parser; an unknown section or key, a value
        that does not parse and one that :class:`SolverParams` rejects
        raise :class:`ConfigError` naming it.
        """
        given = {}
        if path is not None:
            cp = configparser.ConfigParser()
            try:
                with open(path) as fh:
                    cp.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            except configparser.Error as exc:
                raise ConfigError(f"malformed config {path}: {exc}") from exc
            for sec in cp.sections():
                if sec not in _SECTIONS.values():
                    raise ConfigError(f"unknown config section [{sec}]")
                for key, text in cp[sec].items():
                    if _SECTIONS.get(key) != sec:
                        raise ConfigError(f"unknown config key [{sec}] {key}")
                    given[key] = text
        for key, val in overrides.items():
            if key not in _SECTIONS:
                raise ConfigError(f"unknown config override {key!r}")
            given[key] = val
        solver, other = {}, {}
        for key, val in given.items():
            if isinstance(val, str):
                val = _parse(key, val, _default(key))
            (solver if _SECTIONS[key] == "solver" else other)[key] = val
        try:
            params = SolverParams(**solver)
        except ValueError as exc:
            raise ConfigError(f"[solver] {exc}") from exc
        return cls(solver=params, **other)

    def make_case(self, nu):
        return case_by_name(self.case, p=self.p, nu=nu, deformed=self.deformed)

    def distinct_cases(self):
        """The case at each of ``nus``, in order, once per distinct case ν."""
        cases = map(self.make_case, self.nus)
        return list({case.prob.nu: case for case in cases}.values())


# INI section of every setting, in the order ``sthdg defaults`` prints
# them, with the dataclasses' own defaults: the ExperimentConfig fields
# but ``solver`` and ``outdir`` under [experiment], the SolverParams
# fields but ``raise_on_failure`` under [solver], and ``outdir`` alone
# under [output]
_SECTIONS = {
    **{f.name: "experiment" for f in fields(ExperimentConfig)
       if f.name not in ("solver", "outdir")},
    **{f.name: "solver" for f in fields(SolverParams)
       if f.name != "raise_on_failure"},
    "outdir": "output",
}


def _default(key):
    """The default value of setting ``key``."""
    cfg = ExperimentConfig()
    return getattr(cfg.solver if _SECTIONS[key] == "solver" else cfg, key)


def defaults_text():
    """The default :class:`ExperimentConfig`, rendered as a config file."""
    sections = {}
    for key, sec in _SECTIONS.items():
        sections.setdefault(sec, {})[key] = _ini_text(key, _default(key))
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return Path(path)


@contextmanager
def _frame(cfg):
    """One runner's output directory and stage ``Counter``.

    After the body, ``timings.txt`` gets one ``name seconds`` line per
    booked stage, then ``total``; a body that raises writes none.
    """
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    stages = Counter()
    t_start = time.perf_counter()
    yield out, stages
    total = time.perf_counter() - t_start
    with open(out / "timings.txt", "w", newline="\n") as fh:
        for name, seconds in stages.items():
            fh.write(f"{name} {seconds:.3f}\n")
        fh.write(f"total {total:.3f}\n")


def _solve_entry(cfg, case, nx, nt, params, stages):
    """Build, solve, and measure one ladder entry; returns a result dict.

    The wall time of each stage is added to the ``stages`` Counter.
    """
    with timed(stages, "mesh.build"):
        mesh = build_case_mesh(case, nx, nt, mode=cfg.mode)
    sol = solve_problem(mesh, cfg.p, case.prob, params)
    stages.update(sol.timings)
    slab = hasattr(sol, "slabs")
    solves = [cz for _, cz in sol.slabs] if slab else [sol]
    with timed(stages, "hdg.error"):
        err = (sol.error(cfg.p, case.prob.exact) if slab
               else st_l2_error(mesh, cfg.p, sol.U, case.prob.exact))
    return {"mesh": mesh, "sol": sol, "error": err,
            "dofs": sum(len(cz.lam) for cz in solves),
            "converged": all(accepted(cz.report, params.tol) for cz in solves),
            "elements": mesh.n_elements}


def _last_entry(cfg, case):
    """The all-at-once mesh of the last ladder entry and its condensed
    system, for the runners that study one system."""
    mesh = build_case_mesh(case, *cfg.ladder[-1], mode="all_at_once")
    return mesh, condense(assemble_blocks(mesh, cfg.p, case.prob))


def run_converge(cfg):
    """Uniform-refinement error table; one row per (nu, ladder entry)."""
    with _frame(cfg) as (out, stages):
        rows = []
        for case in cfg.distinct_cases():
            prev = None
            for nx, nt in cfg.ladder:
                res = _solve_entry(cfg, case, nx, nt, cfg.solver, stages)
                rate = "-" if prev is None else np.log2(prev / res["error"])
                rows.append([cfg.case, cfg.mode, cfg.p, case.prob.nu, nx, nt,
                             res["elements"], res["dofs"], res["error"], rate])
                prev = res["error"]
        return [_write_csv(out / "converge.csv",
                           ["case", "mode", "p", "nu", "nx", "nt", "elements",
                            "dofs", "l2_error", "rate"], rows)]


def run_iterations(cfg):
    """Iteration-count grid: ladder rows against nu columns."""
    with _frame(cfg) as (out, stages):
        cases = cfg.distinct_cases()
        header = ["dofs"] + [f"nu={_fmt(case.prob.nu)}" for case in cases]
        params = replace(cfg.solver, raise_on_failure=False)
        rows = [[None] for _ in cfg.ladder]  # dofs, then one column per case
        for case in cases:
            for row, entry in zip(rows, cfg.ladder):
                res = _solve_entry(cfg, case, *entry, params, stages)
                row[0] = res["dofs"]
                row.append(res["sol"].iterations if res["converged"] else "-")
        return [_write_csv(out / "iterations.csv", header, rows)]


def run_stagnation(cfg):
    """Per-iteration residual and discretization error on one system.

    Uses the final ladder entry.  The interesting pattern: the L2 error
    settles to its converged value within the first full step or two,
    long before the residual reaches the stopping tolerance.
    """
    with _frame(cfg) as (out, stages):
        case = cfg.make_case(cfg.nus[0])
        mesh, cs = _last_entry(cfg, case)
        iterates = []
        operator = prepare_operator(cs, cfg.solver, stages)
        sol = solve_condensed(
            cs, cfg.solver, operator=operator,
            callback=lambda x, k: iterates.append((k, x.copy())))
        stages.update(sol.timings)
        resid = dict(sol.report.residuals)
        Ss, Hs = operator.matrix, operator.scale(cs.H)
        hnorm = np.linalg.norm(Hs)
        rows = []
        for k, lam in [(0, np.zeros(cs.S.shape[0]))] + iterates:
            err = st_l2_error(mesh, cfg.p, reconstruct(cs, lam),
                              case.prob.exact)
            true_res = np.linalg.norm(Hs - Ss @ lam) / hnorm
            rows.append([k, resid.get(k, "-"), true_res, err])
        return [_write_csv(out / "stagnation.csv",
                           ["iteration", "precond_residual", "true_residual",
                            "l2_error"], rows)]


def run_amr(cfg):
    """Adaptive loop records plus a uniform ladder for comparison."""
    with _frame(cfg) as (out, stages):
        case = cfg.make_case(cfg.nus[0])
        records = amr_loop(case, cfg.p, cfg.cycles, params=cfg.solver,
                           n0=cfg.n0, fraction=cfg.fraction)
        rows = [[r.cycle, r.n_coupled, r.l2_error, r.iterations, r.median_h]
                for r in records]
        paths = [_write_csv(out / "amr.csv",
                            ["cycle", "n_coupled", "l2_error", "iterations",
                             "median_h"], rows)]
        urows = []
        for nx, nt in cfg.ladder:
            res = _solve_entry(cfg, case, nx, nt, cfg.solver, stages)
            urows.append([nx, nt, res["dofs"], res["error"],
                          res["sol"].iterations,
                          float(np.median(res["mesh"].element_h))])
        paths.append(_write_csv(out / "amr_uniform.csv",
                                ["nx", "nt", "n_coupled", "l2_error",
                                 "iterations", "median_h"], urows))
        return paths


def run_relaxcompare(cfg):
    """Iterations per relaxation scheme on the adaptively refined meshes.

    Includes the no-block-scaling ablation (``no_block_inv`` column):
    the same default relaxation, but on the unscaled facet system.
    """
    with _frame(cfg) as (out, _):
        case = cfg.make_case(cfg.nus[0])
        records = amr_loop(case, cfg.p, cfg.cycles, params=cfg.solver,
                           n0=cfg.n0, fraction=cfg.fraction)
        quiet = replace(cfg.solver, raise_on_failure=False)
        columns = ([replace(quiet, relaxation=s) for s in RELAXATIONS] +
                   [replace(quiet, scale_blocks=False)])
        rows = []
        for rec in records:
            cs = condense(assemble_blocks(rec.mesh, cfg.p, case.prob))
            row = [rec.n_coupled]
            for params in columns:
                sol = solve_condensed(cs, params)
                row.append(sol.iterations if accepted(sol.report, params.tol)
                           else "-")
            rows.append(row)
        return [_write_csv(out / "relaxcompare.csv",
                           ["n_coupled"] + list(RELAXATIONS) + ["no_block_inv"],
                           rows)]


def run_ordercheck(cfg):
    """Topological block-order diagnostics of the scaled facet system.

    For each distinct case ν: build the case's system, scale it, search
    for a topological block ordering, and apply one ordered block
    Gauss-Seidel sweep.  A complete ordering (acyclic block graph) makes
    that sweep an exact solve; cyclic couplings are reported per block.
    """
    with _frame(cfg) as (out, _):
        rows = []
        for case in cfg.distinct_cases():
            _, cs = _last_entry(cfg, case)
            scaling = BlockDiagonalScaling(cs.S, cs.facet_block_size)
            Ss, Hs = scaling.matrix, scaling.apply(cs.H)
            plan = RelaxationPlan(Ss, "ordered_block_gs",
                                  block_size=cs.facet_block_size)
            order = plan.ordering
            x = plan.apply(Hs, np.zeros_like(Hs))
            res = np.linalg.norm(Hs - Ss @ x) / np.linalg.norm(Hs)
            rows.append([case.prob.nu, Ss.shape[0], cs.facet_block_size,
                         len(order.order), int(order.complete),
                         len(order.cycle_blocks), res])
        return [_write_csv(out / "ordercheck.csv",
                           ["nu", "dofs", "block_size", "n_blocks", "complete",
                            "n_cycle_blocks", "sweep_residual"], rows)]


def run_export(cfg):
    """Write the facet system and its CF splitting for standalone study.

    The last ladder entry's system is prepared as a solve prepares it
    (:func:`~sthdg.solving.prepare_operator`), so the files hold what the
    iteration sees: the Schur complement and right-hand side (block-scaled
    unless ``scale_blocks`` is off) in Matrix Market form, the facet block
    size, and per matrix row, tagged with its facet midpoint, its label in
    the CF splitting of the hierarchy's finest level.  Where that level is
    not coarsened, it goes whole to the dense coarse solve, and every row
    is written as ``C``.  A setup failure raises, as in a solve.
    """
    with _frame(cfg) as (out, _):
        _, cs = _last_entry(cfg, cfg.make_case(cfg.nus[0]))
        op = prepare_operator(cs, cfg.solver, {})
        write_matrix_market(out / "system.mtx", op.matrix)
        write_matrix_market(out / "rhs.mtx", op.scale(cs.H))
        bpath = out / "block_size.txt"
        with open(bpath, "w", newline="\n") as fh:
            fh.write(f"{cs.facet_block_size}\n")
        labels = op.hierarchy.levels[0].labels
        pos = lambda_dof_positions(cs)
        rows = [[i, pos[i, 0], pos[i, 1],
                 "C" if labels is None or labels[i] else "F"]
                for i in range(op.matrix.shape[0])]
        return [out / "system.mtx", out / "rhs.mtx", bpath,
                _write_csv(out / "cf_labels.csv", ["row", "t", "x", "label"],
                           rows)]
