"""Batch experiment drivers emitting deterministic CSV tables.

Each runner builds its meshes and systems from an
:class:`ExperimentConfig`, solves with the production pipeline, and
writes plain CSV.  Formatting is fixed (``repr`` for floats, ``-`` for
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
of its one solve; ``relaxcompare`` and ``ordercheck`` write only the
total, and ``export`` writes no timings.
"""

from __future__ import annotations

import configparser
import io
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .air import AirParams, RelaxationPlan, rs_coarsen, strength_graph, \
    topological_block_order
from .amr import amr_loop
from .cases import build_case_mesh, case_by_name
from .hdg import assemble_blocks, condense, lambda_dof_positions, \
    reconstruct, st_l2_error
from .solving import (SolverParams, accepted, scaled_system, solve_condensed,
                      solve_problem, timed)
from .sparsela import write_matrix_market

__all__ = ["ConfigError", "ExperimentConfig", "run_converge",
           "run_iterations", "run_stagnation", "run_amr",
           "run_relaxcompare", "run_ordercheck", "run_export",
           "defaults_text"]

_MODES = ("all_at_once", "slab")
_CASES = ("pulse1d", "layer1d", "polyexact")
_SCHEMES = ("f_then_all_fgs", "fgs", "jacobi", "ordered_block_gs")

_DEFAULTS = {
    "experiment": {
        "case": "pulse1d",
        "mode": "all_at_once",
        "p": "1",
        "nus": "1e-6",
        "ladder": "8,16,32,64",
        "cycles": "6",
        "n0": "8",
        "fraction": "0.12",
        "deformed": "false",
    },
    "solver": {
        "tol": "1e-12",
        "maxiter": "5000",
        "relaxation": "f_then_all_fgs",
        "theta_c": "0.2",
        "theta_r": "0.3",
        "scale_blocks": "true",
    },
    "output": {
        "outdir": "results",
    },
}


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value, or file)."""


def defaults_text():
    """The built-in defaults, rendered as a config file."""
    cp = configparser.ConfigParser()
    cp.read_dict(_DEFAULTS)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


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


@dataclass
class ExperimentConfig:
    case: str = "pulse1d"
    mode: str = "all_at_once"
    p: int = 1
    nus: tuple = (1e-6,)
    ladder: tuple = ((8, 8), (16, 16), (32, 32), (64, 64))
    cycles: int = 6
    n0: int = 8
    fraction: float = 0.12
    deformed: bool = False
    tol: float = 1e-12
    maxiter: int = 5000
    relaxation: str = "f_then_all_fgs"
    theta_c: float = 0.2
    theta_r: float = 0.3
    scale_blocks: bool = True
    outdir: str = "results"

    def __post_init__(self):
        if self.case not in _CASES:
            raise ConfigError(f"[experiment] case: unknown case {self.case!r}")
        if self.mode == "all":
            self.mode = "all_at_once"
        if self.mode not in _MODES:
            raise ConfigError(f"[experiment] mode: must be one of {_MODES}")
        if self.p < 1:
            raise ConfigError("[experiment] p: must be >= 1")
        if not self.ladder:
            raise ConfigError("[experiment] ladder: must be nonempty")
        self.ladder = tuple((int(a), int(b)) for a, b in self.ladder)
        if any(n < 1 for entry in self.ladder for n in entry):
            raise ConfigError("[experiment] ladder: mesh sizes must be >= 1")
        if self.n0 < 1:
            raise ConfigError("[experiment] n0: must be >= 1")
        if self.cycles < 0:
            raise ConfigError("[experiment] cycles: must be >= 0")
        self.nus = tuple(float(v) for v in self.nus)
        if any(nu < 0 for nu in self.nus):
            raise ConfigError("[experiment] nus: viscosities must be >= 0")
        if self.tol <= 0:
            raise ConfigError("[solver] tol: must be positive")
        if self.maxiter < 1:
            raise ConfigError("[solver] maxiter: must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError("[experiment] fraction: must lie in (0, 1]")
        if self.relaxation not in _SCHEMES:
            raise ConfigError(
                f"[solver] relaxation: must be one of {_SCHEMES}")

    @classmethod
    def from_ini(cls, path=None, overrides=None):
        """Load defaults, then an INI file, then explicit overrides.

        ``overrides`` maps flat field names (``case``, ``p``, ...) to
        string or already-typed values; unknown keys raise
        :class:`ConfigError` naming the offending entry.
        """
        cp = configparser.ConfigParser()
        cp.read_dict(_DEFAULTS)
        if path is not None:
            try:
                with open(path) as fh:
                    cp.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            except configparser.Error as exc:
                raise ConfigError(f"malformed config {path}: {exc}") from exc
            for sec in cp.sections():
                if sec not in _DEFAULTS:
                    raise ConfigError(f"unknown config section [{sec}]")
                for key in cp[sec]:
                    if key not in _DEFAULTS[sec]:
                        raise ConfigError(f"unknown config key [{sec}] {key}")
        kw = {}
        try:
            exp, sol, out = cp["experiment"], cp["solver"], cp["output"]
            kw["case"] = exp["case"].strip()
            kw["mode"] = exp["mode"].strip()
            kw["p"] = exp.getint("p")
            kw["nus"] = tuple(float(v) for v in exp["nus"].split(","))
            kw["ladder"] = tuple(_parse_ladder(exp["ladder"]))
            kw["cycles"] = exp.getint("cycles")
            kw["n0"] = exp.getint("n0")
            kw["fraction"] = exp.getfloat("fraction")
            kw["deformed"] = exp.getboolean("deformed")
            kw["tol"] = sol.getfloat("tol")
            kw["maxiter"] = sol.getint("maxiter")
            kw["relaxation"] = sol["relaxation"].strip()
            kw["theta_c"] = sol.getfloat("theta_c")
            kw["theta_r"] = sol.getfloat("theta_r")
            kw["scale_blocks"] = sol.getboolean("scale_blocks")
            kw["outdir"] = out["outdir"].strip()
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        for key, val in (overrides or {}).items():
            if key not in kw:
                raise ConfigError(f"unknown config override {key!r}")
            if isinstance(val, str) and not isinstance(kw[key], str):
                try:
                    if key == "nus":
                        val = tuple(float(v) for v in val.split(","))
                    elif key == "ladder":
                        val = tuple(_parse_ladder(val))
                    elif isinstance(kw[key], bool):
                        val = cp.BOOLEAN_STATES[val.lower()]
                    else:
                        val = type(kw[key])(val)
                except (KeyError, ValueError) as exc:
                    raise ConfigError(f"bad override {key} = {val!r}") from exc
            kw[key] = val
        return cls(**kw)

    def solver_params(self, raise_on_failure=True):
        return SolverParams(
            tol=self.tol, maxiter=self.maxiter,
            scale_blocks=self.scale_blocks,
            air=AirParams(theta_c=self.theta_c, theta_r=self.theta_r,
                          relaxation=self.relaxation),
            raise_on_failure=raise_on_failure)

    def make_case(self, nu):
        return case_by_name(self.case, p=self.p, nu=nu, deformed=self.deformed)


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


def _write_timings(outdir, stages, total):
    """``timings.txt``: one ``name seconds`` line per stage, then ``total``."""
    path = Path(outdir) / "timings.txt"
    with open(path, "w", newline="\n") as fh:
        for name, seconds in stages.items():
            fh.write(f"{name} {seconds:.3f}\n")
        fh.write(f"total {total:.3f}\n")
    return path


def _outdir(cfg):
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def run_converge(cfg):
    """Uniform-refinement error table; one row per (nu, ladder entry)."""
    out = _outdir(cfg)
    stages = Counter()
    t_start = time.perf_counter()
    rows = []
    for nu in cfg.nus:
        case = cfg.make_case(nu)
        prev = None
        for nx, nt in cfg.ladder:
            res = _solve_entry(cfg, case, nx, nt, cfg.solver_params(), stages)
            rate = "-" if prev is None else np.log2(prev / res["error"])
            rows.append([cfg.case, cfg.mode, cfg.p, nu, nx, nt,
                         res["elements"], res["dofs"], res["error"], rate])
            prev = res["error"]
    path = _write_csv(out / "converge.csv",
                      ["case", "mode", "p", "nu", "nx", "nt", "elements",
                       "dofs", "l2_error", "rate"], rows)
    _write_timings(out, stages, time.perf_counter() - t_start)
    return [path]


def run_iterations(cfg):
    """Iteration-count grid: ladder rows against nu columns."""
    out = _outdir(cfg)
    stages = Counter()
    t_start = time.perf_counter()
    header = ["dofs"] + [f"nu={_fmt(nu)}" for nu in cfg.nus]
    grid = {}
    dofs_by_entry = {}
    params = cfg.solver_params(raise_on_failure=False)
    for nu in cfg.nus:
        case = cfg.make_case(nu)
        for entry in cfg.ladder:
            res = _solve_entry(cfg, case, entry[0], entry[1], params, stages)
            dofs_by_entry[entry] = res["dofs"]
            grid[(entry, nu)] = (res["sol"].iterations if res["converged"]
                                 else "-")
    rows = [[dofs_by_entry[entry]] + [grid[(entry, nu)] for nu in cfg.nus]
            for entry in cfg.ladder]
    path = _write_csv(out / "iterations.csv", header, rows)
    _write_timings(out, stages, time.perf_counter() - t_start)
    return [path]


def run_stagnation(cfg):
    """Per-iteration residual and discretization error on one system.

    Uses the final ladder entry.  The interesting pattern: the L2 error
    settles to its converged value within the first full step or two,
    long before the residual reaches the stopping tolerance.
    """
    out = _outdir(cfg)
    t_start = time.perf_counter()
    nu = cfg.nus[0]
    case = cfg.make_case(nu)
    nx, nt = cfg.ladder[-1]
    mesh = build_case_mesh(case, nx, nt, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, cfg.p, case.prob))
    iterates = []
    sol = solve_condensed(cs, cfg.solver_params(),
                          callback=lambda x, k: iterates.append((k, x.copy())))
    resid = dict(sol.report.residuals)
    Ss, Hs = scaled_system(cs, cfg.scale_blocks)
    hnorm = np.linalg.norm(Hs)

    rows = []
    for k, lam in [(0, np.zeros(cs.S.shape[0]))] + iterates:
        err = st_l2_error(mesh, cfg.p, reconstruct(cs, lam), case.prob.exact)
        true_res = np.linalg.norm(Hs - Ss @ lam) / hnorm
        rows.append([k, resid.get(k, "-"), true_res, err])
    path = _write_csv(out / "stagnation.csv",
                      ["iteration", "precond_residual", "true_residual",
                       "l2_error"], rows)
    _write_timings(out, sol.timings, time.perf_counter() - t_start)
    return [path]


def run_amr(cfg):
    """Adaptive loop records plus a uniform ladder for comparison."""
    out = _outdir(cfg)
    stages = Counter()
    t_start = time.perf_counter()
    nu = cfg.nus[0]
    case = cfg.make_case(nu)
    params = cfg.solver_params()
    records = amr_loop(case, cfg.p, cfg.cycles, params=params, n0=cfg.n0,
                       fraction=cfg.fraction)
    rows = [[r.cycle, r.n_coupled, r.l2_error, r.iterations, r.median_h]
            for r in records]
    paths = [_write_csv(out / "amr.csv",
                        ["cycle", "n_coupled", "l2_error", "iterations",
                         "median_h"], rows)]
    urows = []
    for nx, nt in cfg.ladder:
        res = _solve_entry(cfg, case, nx, nt, params, stages)
        urows.append([nx, nt, res["dofs"], res["error"],
                      res["sol"].iterations,
                      float(np.median(res["mesh"].element_h))])
    paths.append(_write_csv(out / "amr_uniform.csv",
                            ["nx", "nt", "n_coupled", "l2_error",
                             "iterations", "median_h"], urows))
    _write_timings(out, stages, time.perf_counter() - t_start)
    return paths


def run_relaxcompare(cfg):
    """Iterations per relaxation scheme on the adaptively refined meshes.

    Includes the no-block-scaling ablation (``no_block_inv`` column):
    the same default relaxation, but on the unscaled facet system.
    """
    out = _outdir(cfg)
    t_start = time.perf_counter()
    nu = cfg.nus[0]
    case = cfg.make_case(nu)
    records = amr_loop(case, cfg.p, cfg.cycles, params=cfg.solver_params(),
                       n0=cfg.n0, fraction=cfg.fraction, keep_meshes=True)
    rows = []
    for rec in records:
        cs = condense(assemble_blocks(rec.mesh, cfg.p, case.prob))
        row = [rec.n_coupled]
        for scheme in _SCHEMES:
            params = replace(cfg.solver_params(raise_on_failure=False),
                             air=AirParams(theta_c=cfg.theta_c,
                                           theta_r=cfg.theta_r,
                                           relaxation=scheme))
            sol = solve_condensed(cs, params)
            row.append(sol.iterations if accepted(sol.report, params.tol) else "-")
        params = replace(cfg.solver_params(raise_on_failure=False),
                         scale_blocks=False)
        sol = solve_condensed(cs, params)
        row.append(sol.iterations if accepted(sol.report, params.tol) else "-")
        rows.append(row)
    path = _write_csv(out / "relaxcompare.csv",
                      ["n_coupled"] + list(_SCHEMES) + ["no_block_inv"], rows)
    _write_timings(out, {}, time.perf_counter() - t_start)
    return [path]


def run_ordercheck(cfg):
    """Topological block-order diagnostics of the scaled facet system.

    For each nu: build the case's system with that viscosity, scale it,
    search for a topological block ordering, and apply one ordered block
    Gauss-Seidel sweep.  A complete ordering (acyclic block graph) makes
    that sweep an exact solve; cyclic couplings are reported per block.
    """
    out = _outdir(cfg)
    t_start = time.perf_counter()
    nx, nt = cfg.ladder[-1]
    rows = []
    for nu in cfg.nus:
        case = cfg.make_case(nu)
        prob = replace(case.prob, nu=nu)
        mesh = build_case_mesh(case, nx, nt, mode="all_at_once")
        cs = condense(assemble_blocks(mesh, cfg.p, prob))
        Ss, Hs = scaled_system(cs)
        order = topological_block_order(Ss, cs.facet_block_size)
        plan = RelaxationPlan(Ss, "ordered_block_gs",
                              block_size=cs.facet_block_size, ordering=order)
        x = plan.apply(Hs, np.zeros_like(Hs))
        res = np.linalg.norm(Hs - Ss @ x) / np.linalg.norm(Hs)
        rows.append([nu, Ss.shape[0], cs.facet_block_size,
                     len(order.order), int(order.complete),
                     len(order.cycle_blocks), res])
    path = _write_csv(out / "ordercheck.csv",
                      ["nu", "dofs", "block_size", "n_blocks", "complete",
                       "n_cycle_blocks", "sweep_residual"], rows)
    _write_timings(out, {}, time.perf_counter() - t_start)
    return [path]


def run_export(cfg):
    """Write the facet system and its CF splitting for standalone study.

    Emits the (scaled, if configured) Schur complement and right-hand
    side in Matrix Market form, the facet block size, and one CF label
    per matrix row tagged with its facet midpoint.
    """
    out = _outdir(cfg)
    nu = cfg.nus[0]
    case = cfg.make_case(nu)
    nx, nt = cfg.ladder[-1]
    mesh = build_case_mesh(case, nx, nt, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, cfg.p, case.prob))
    Ss, Hs = scaled_system(cs, cfg.scale_blocks)
    write_matrix_market(out / "system.mtx", Ss)
    write_matrix_market(out / "rhs.mtx", Hs)
    paths = [out / "system.mtx", out / "rhs.mtx"]
    bpath = out / "block_size.txt"
    with open(bpath, "w", newline="\n") as fh:
        fh.write(f"{cs.facet_block_size}\n")
    paths.append(bpath)
    cf = rs_coarsen(strength_graph(Ss, cfg.theta_c))
    pos = lambda_dof_positions(cs)
    rows = [[i, pos[i, 0], pos[i, 1], "C" if cf.labels[i] else "F"]
            for i in range(Ss.shape[0])]
    paths.append(_write_csv(out / "cf_labels.csv",
                            ["row", "t", "x", "label"], rows))
    return paths
