import csv
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import sthdg.krylov
import sthdg.solving
from sthdg.air import AirSetupError
from sthdg.cases import build_case_mesh, case_by_name
from sthdg.cli import main
from sthdg.experiments import (ConfigError, ExperimentConfig, defaults_text,
                               run_amr, run_converge, run_export,
                               run_iterations, run_ordercheck,
                               run_relaxcompare, run_stagnation)
from sthdg.hdg import assemble_blocks, condense
from sthdg.krylov import BreakdownError
from sthdg.mesh import MODES
from sthdg.solving import (SolverFailure, SolverParams, prepare_operator,
                           solve_condensed, solve_problem)
from sthdg.sparsela import SingularBlockError

from oracles import read_matrix_market


def cfg(**kw):
    base = dict(case="pulse1d", p=1, nus=(1e-6,), ladder=((4, 4), (8, 8)))
    base.update(kw)
    return ExperimentConfig(**base)


def test_defaults_text_parses_back(tmp_path):
    import configparser
    cp = configparser.ConfigParser()
    cp.read_string(defaults_text())
    assert cp["experiment"]["case"] == "pulse1d"
    assert cp["solver"]["tol"] == "1e-12"
    assert ExperimentConfig.from_ini(None, {}) == ExperimentConfig()
    assert ExperimentConfig().solver == SolverParams()
    ini = tmp_path / "defaults.ini"
    ini.write_text(defaults_text())
    assert ExperimentConfig.from_ini(ini, {}) == ExperimentConfig()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        cfg(case="nope")
    with pytest.raises(ConfigError):
        cfg(p=0)
    with pytest.raises(ConfigError):
        cfg(ladder=())
    with pytest.raises(ConfigError):
        cfg(mode="sideways")
    for key, bad in (("ladder", ((0, 4),)), ("ladder", ((8, 8), (4, -1))),
                     ("n0", 0), ("cycles", -1), ("nus", (1e-2, -1e-6))):
        with pytest.raises(ConfigError, match=key):
            cfg(**{key: bad})


@pytest.mark.parametrize("key, bad", [
    ("deformed", "false"), ("deformed", 1), ("cycles", 1.5), ("n0", 2.5),
    ("p", "2"), ("p", True), ("fraction", "0.5"), ("case", 1),
    ("mode", None), ("outdir", 3)])
def test_config_field_of_wrong_type_is_a_config_error(key, bad):
    # a library caller's value is checked against the field's annotation,
    # as SolverParams checks its own; before, deformed="false" deformed
    section = "output" if key == "outdir" else "experiment"
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be "):
        cfg(**{key: bad})


def test_config_takes_lists_and_integers_where_it_should():
    c = cfg(nus=[1e-6, 1e-2], ladder=[[4, 4]], fraction=1)
    assert c.nus == (1e-6, 1e-2) and c.ladder == ((4, 4),)
    assert c.make_case(1e-6).deformation is None


@pytest.mark.parametrize("key, bad", [
    ("ladder", ((4.7, 4),)), ("ladder", ((4, "x"),)), ("ladder", ((4, 4, 4),)),
    ("ladder", ((True, 4),)), ("ladder", (4, 8)), ("ladder", "4x4"),
    ("nus", (True,)), ("nus", ("a",)), ("nus", (None,)), ("nus", 1e-6),
    ("nus", "1e-6")])
def test_nus_and_ladder_entries_are_checked_not_coerced(key, bad):
    # before, 4.7 became 4 and True became 1.0, and the rest raised a bare
    # ValueError or TypeError
    with pytest.raises(ConfigError, match=rf"^\[experiment\] {key}: must be a sequence"):
        cfg(**{key: bad})
    if not isinstance(bad, str):  # from_ini parses a string override
        with pytest.raises(ConfigError, match=rf"^\[experiment\] {key}: must be "):
            ExperimentConfig.from_ini(None, {key: bad})


def test_nus_and_ladder_normalise_to_python_numbers():
    c = cfg(nus=[np.float64(1e-6), 0], ladder=[(np.int64(4), 8)])
    assert c.nus == (1e-6, 0.0) and type(c.nus[1]) is float
    assert c.ladder == ((4, 8),) and type(c.ladder[0][0]) is int


def test_empty_nus_is_a_config_error():
    # run_stagnation reads nus[0] and run_converge would write only a header
    with pytest.raises(ConfigError, match=r"^\[experiment\] nus: "):
        cfg(nus=())
    with pytest.raises(ConfigError, match=r"^\[experiment\] nus: "):
        ExperimentConfig.from_ini(None, {"nus": ()})


@pytest.mark.parametrize("key, bad", [
    ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")), ("maxiter", 0),
    ("theta_c", 2.0), ("theta_r", -1.0), ("relaxation", "gauss"),
    ("scale_blocks", "false"), ("maxiter", 3.5), ("tol", "1e-3"),
    ("maxiter", True), ("theta_c", None), ("raise_on_failure", 1)])
def test_solver_settings_are_checked_on_construction(key, bad):
    # a library caller is stopped here, before any solve starts
    with pytest.raises(ValueError, match=f"^{key}: "):
        SolverParams(**{key: bad})


def test_defaults_text_pins_the_ini_layout():
    assert defaults_text() == (
        "[experiment]\ncase = pulse1d\nmode = all_at_once\np = 1\n"
        "nus = 1e-06\nladder = 8,16,32,64\ncycles = 6\nn0 = 8\n"
        "fraction = 0.12\ndeformed = false\n\n"
        "[solver]\ntol = 1e-12\nmaxiter = 5000\n"
        "relaxation = f_then_all_fgs\ntheta_c = 0.2\ntheta_r = 0.3\n"
        "scale_blocks = true\n\n"
        "[output]\noutdir = results\n\n")


def test_config_from_ini_and_overrides(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\ncase = layer1d\nladder = 4x2,8\n"
                   "[solver]\ntol = 1e-10\n")
    c = ExperimentConfig.from_ini(ini, {"p": "3"})
    assert c.case == "layer1d" and c.p == 3 and c.solver.tol == 1e-10
    assert c.ladder == ((4, 2), (8, 8))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_ini(ini, {"bogus": 1})


def test_config_bool_overrides_parse_words():
    c = ExperimentConfig.from_ini(None, {"scale_blocks": "false",
                                         "deformed": "no"})
    assert c.solver.scale_blocks is False and c.deformed is False
    c = ExperimentConfig.from_ini(None, {"scale_blocks": "On"})
    assert c.solver.scale_blocks is True
    with pytest.raises(ConfigError):
        ExperimentConfig.from_ini(None, {"scale_blocks": "maybe"})


def test_config_bad_number_overrides_raise_config_error(tmp_path):
    ini = tmp_path / "bad.ini"
    for key, word in (("p", "abc"), ("p", "2.5"), ("tol", "tiny"),
                      ("nus", "1e-3,x"), ("ladder", "4xq"),
                      ("scale_blocks", "maybe")):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_ini(None, {key: word})
        section = "solver" if key in ("tol", "scale_blocks") else "experiment"
        ini.write_text(f"[{section}]\n{key} = {word}\n")
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_ini(ini, {})
    c = ExperimentConfig.from_ini(None, {"p": "3", "tol": "1e-9"})
    assert c.p == 3 and c.solver.tol == 1e-9


def test_config_rejects_unknown_keys(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nfancy = yes\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_ini(ini, {})
    ini.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_ini(ini, {})


def test_converge_csv_shape_and_determinism(tmp_path):
    c = cfg(outdir=str(tmp_path / "a"))
    (path,) = run_converge(c)
    lines = path.read_text().splitlines()
    assert lines[0] == ("case,mode,p,nu,nx,nt,elements,dofs,l2_error,rate")
    assert len(lines) == 3
    assert lines[1].endswith(",-")  # first ladder row has no rate yet
    c2 = cfg(outdir=str(tmp_path / "b"))
    (path2,) = run_converge(c2)
    assert path.read_bytes() == path2.read_bytes()


PREPARE_STAGES = ["sparsela.block_scaling", "air.setup"]
SOLVE_STAGES = [*PREPARE_STAGES, "krylov.bicgstab", "hdg.reconstruct"]


@pytest.mark.parametrize("mode, stages", [
    ("all_at_once", ["hdg.assemble", "hdg.condense", *SOLVE_STAGES]),
    ("slab", ["mesh.extract_slab", "hdg.assemble", "hdg.condense",
              *SOLVE_STAGES, "hdg.trace"]),
], ids=["all_at_once", "slab"])
def test_solve_problem_books_every_stage_once_per_system(monkeypatch, mode,
                                                         stages):
    # a clock that ticks once per reading books 1 per timed call site
    monkeypatch.setattr(sthdg.solving, "time",
                        SimpleNamespace(perf_counter=itertools.count().__next__))
    case = case_by_name("pulse1d", p=1, nu=1e-2)
    mesh = build_case_mesh(case, 4, 4, mode=mode)
    sol = solve_problem(mesh, 1, case.prob)
    systems = 4 if mode == "slab" else 1
    # scaling and setup are booked once per prepared operator; slabs of
    # height 1/4 are exactly alike, so the march prepares one
    if mode == "slab":
        assert len({id(s.hierarchy) for _, s in sol.slabs}) == 1
    expected = {name: 1 if name in PREPARE_STAGES else systems
                for name in stages}
    assert sol.timings == expected
    assert list(sol.timings) == stages
    if mode == "slab":
        assert all(s.timings == {"krylov.bicgstab": 1, "hdg.reconstruct": 1}
                   for _, s in sol.slabs)


def test_converge_timings_are_stages_and_total(tmp_path):
    # every runner writes timings.txt: the stages it books, then the total
    ladder = ["mesh.build", "mesh.extract_slab", "hdg.assemble",
              "hdg.condense", *SOLVE_STAGES, "hdg.trace", "hdg.error"]
    booked = {run_converge: ladder, run_iterations: ladder,
              run_stagnation: SOLVE_STAGES, run_amr: ladder,
              run_relaxcompare: [], run_ordercheck: [], run_export: []}
    for run, stages in booked.items():
        out = tmp_path / run.__name__
        run(cfg(outdir=str(out), mode="slab", cycles=1))
        lines = [line.split() for line in
                 (out / "timings.txt").read_text().splitlines()]
        assert [name for name, _ in lines] == [*stages, "total"], run
        seconds = [float(v) for _, v in lines]
        # disjoint stages inside the total; each value is rounded to the ms
        assert sum(seconds[:-1]) <= seconds[-1] + 5e-4 * len(lines)


def test_iterations_csv_grid(tmp_path):
    c = cfg(outdir=str(tmp_path), nus=(1e-6, 1e-2))
    (path,) = run_iterations(c)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("dofs,nu=")
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) > 0
        assert all(int(v) >= 1 for v in cells[1:])


def test_stagnation_rows_track_iterations(tmp_path):
    c = cfg(outdir=str(tmp_path), p=2, nus=(1e-4,), ladder=((8, 8),))
    (path,) = run_stagnation(c)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,precond_residual,true_residual,l2_error"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[1]) == 1.0
    assert len(lines) >= 3


def test_amr_writes_loop_and_uniform_tables(tmp_path):
    c = ExperimentConfig(case="layer1d", p=1, nus=(0.0,),
                         ladder=((4, 4), (8, 8)), cycles=2, n0=4,
                         fraction=0.3, outdir=str(tmp_path))
    paths = run_amr(c)
    names = sorted(p.name for p in paths)
    assert names == ["amr.csv", "amr_uniform.csv"]
    amr_lines = paths[0].read_text().splitlines()
    assert amr_lines[0] == "cycle,n_coupled,l2_error,iterations,median_h"
    assert len(amr_lines) >= 2


def test_relaxcompare_columns(tmp_path):
    c = ExperimentConfig(case="layer1d", p=1, nus=(0.0,), ladder=((4, 4),),
                         cycles=1, n0=4, fraction=0.3, outdir=str(tmp_path))
    (path,) = run_relaxcompare(c)
    lines = path.read_text().splitlines()
    assert lines[0] == ("n_coupled,f_then_all_fgs,fgs,jacobi,"
                        "ordered_block_gs,no_block_inv")
    assert len(lines) >= 2


def test_ordercheck_table(tmp_path):
    c = ExperimentConfig(case="pulse1d", p=1, nus=(0.0, 1e-2),
                         ladder=((8, 8),), outdir=str(tmp_path))
    (path,) = run_ordercheck(c)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][4] == "1" and rows[0][5] == "0"   # nu=0: acyclic
    assert float(rows[0][6]) < 1e-12
    assert rows[1][4] == "0" and int(rows[1][5]) > 0  # nu>0: cycles reported


def test_layer1d_tables_label_the_nu_solved(tmp_path):
    # layer1d is defined only at nu = 0: both nus give the one system,
    # which each runner solves once and labels 0.0
    c = ExperimentConfig(case="layer1d", p=1, nus=(1e-3, 1e-2),
                         ladder=((4, 4),), outdir=str(tmp_path))
    (path,) = run_iterations(c)
    lines = path.read_text().splitlines()
    assert lines == ["dofs,nu=0.0", "96,1"]
    (path,) = run_converge(c)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["0.0"]
    (path,) = run_ordercheck(c)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.0"]
    assert rows[0][4] == "1" and rows[0][5] == "0"


def test_export_files_consistent(tmp_path):
    c = cfg(outdir=str(tmp_path), ladder=((4, 4),))
    paths = run_export(c)
    by_name = {p.name: p for p in paths}
    S = read_matrix_market(by_name["system.mtx"])
    H = read_matrix_market(by_name["rhs.mtx"])
    bsize = int(by_name["block_size.txt"].read_text())
    labels = by_name["cf_labels.csv"].read_text().splitlines()[1:]
    assert S.shape[0] == len(H) == len(labels)
    assert S.shape[0] % bsize == 0
    assert {line.split(",")[-1] for line in labels} <= {"C", "F"}


def exported_c_points(out):
    """``cf_labels.csv``'s labels in ``out`` as a C_POINT/F_POINT vector."""
    rows = (out / "cf_labels.csv").read_text().splitlines()[1:]
    return np.array([row.endswith(",C") for row in rows], dtype=np.int8)


@pytest.mark.parametrize("scale_blocks", [True, False])
def test_export_writes_the_operator_and_splitting_the_solve_builds(
        tmp_path, scale_blocks):
    # export reads the prepared operator, not a second scaling and splitting
    c = cfg(outdir=str(tmp_path), ladder=((8, 8),),
            solver=SolverParams(scale_blocks=scale_blocks))
    run_export(c)
    case = c.make_case(c.nus[0])
    mesh = build_case_mesh(case, 8, 8, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, c.p, case.prob))
    op = prepare_operator(cs, c.solver, {})
    assert (op.scaling is not None) == scale_blocks
    labels = op.hierarchy.levels[0].labels
    assert labels is not None  # level 0 is coarsened at this size
    assert exported_c_points(tmp_path).tobytes() == labels.tobytes()
    S = read_matrix_market(tmp_path / "system.mtx")
    assert np.array_equal(S.toarray(), op.matrix.toarray())
    H = read_matrix_market(tmp_path / "rhs.mtx")
    assert np.array_equal(H, op.scale(cs.H))


def test_export_of_a_level_too_small_to_coarsen_labels_every_row_c(tmp_path):
    # at 2 x 2, p = 1 the 24 rows go whole to the dense coarse solve, which
    # splits nothing
    run_export(cfg(outdir=str(tmp_path), ladder=((2, 2),)))
    labels = exported_c_points(tmp_path)
    assert len(labels) == 24 and labels.all()


def test_cli_export_setup_failure_exit_3(tmp_path, capsys, monkeypatch):
    # export prepares the operator as a solve does, and fails as one
    error = AirSetupError("coarsening stagnated at n=400 (n_coarse=0)")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(sthdg.solving, "build_hierarchy", fail)
    small = tmp_path / "small.ini"
    small.write_text("[experiment]\nladder = 4\n")
    code = main(["export", "--config", str(small), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"solver failure: {error}\n"
    assert not (tmp_path / "out" / "timings.txt").exists()


def test_cli_runs_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["converge", "--out", str(out), "--case", "polyexact",
                 "--p", "1"])
    assert code == 0
    assert (out / "converge.csv").exists()
    assert "converge.csv" in capsys.readouterr().out

    code = main(["defaults"])
    assert code == 0
    assert "[solver]" in capsys.readouterr().out


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\np = -3\n")
    code = main(["converge", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_relaxation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[solver]\nrelaxation = gauss\n")
    code = main(["converge", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "relaxation" in capsys.readouterr().err


# tol rides along: SolverParams checks its range as it does the thresholds'
@pytest.mark.parametrize("line", ["theta_c = 2", "theta_r = -1", "tol = -1"])
def test_cli_strength_threshold_out_of_range_exit_2(tmp_path, capsys, line):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[solver]\n{line}\n")
    code = main(["converge", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert line.split()[0] in capsys.readouterr().err


def test_degree_the_case_lacks_is_a_config_error(tmp_path, capsys):
    # polyexact has a fixed polynomial for degrees 1 to 3 only
    with pytest.raises(ConfigError, match=r"^\[experiment\] p: "):
        cfg(case="polyexact", p=4)
    ini = tmp_path / "p4.ini"
    ini.write_text("[experiment]\ncase = polyexact\np = 4\n")
    with pytest.raises(ConfigError, match=r"^\[experiment\] p: "):
        ExperimentConfig.from_ini(ini, {})
    with pytest.raises(ConfigError, match=r"^\[experiment\] p: "):
        ExperimentConfig.from_ini(None, {"case": "polyexact", "p": "4"})
    assert cfg(case="pulse1d", p=4).p == 4  # no fixed degree list there
    out = tmp_path / "out"
    code = main(["converge", "--case", "polyexact", "--p", "4", "--out", str(out)])
    assert code == 2
    assert "] p: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("deformed", ["false", "true"], ids=["fixed", "moving"])
def test_cli_slab_and_all_at_once_errors_agree(tmp_path, deformed):
    # on the moving domain every slab has its own operator
    ini = tmp_path / "c.ini"
    ini.write_text(f"[experiment]\nladder = 4,8\ncycles = 1\ndeformed = {deformed}\n")
    errors = []
    for mode in MODES:
        out = tmp_path / mode
        assert main(["converge", "--config", str(ini), "--mode", mode,
                     "--out", str(out)]) == 0
        with open(out / "converge.csv") as fh:
            errors.append([float(row["l2_error"]) for row in csv.DictReader(fh)])
    a, b = errors
    assert len(a) == len(b) == 2
    assert all(abs(x - y) <= 1e-12 * abs(y) for x, y in zip(a, b)), errors


@pytest.mark.parametrize("line", ["ladder = 0x4", "n0 = 0"])
def test_cli_bad_mesh_size_exit_2(tmp_path, capsys, line):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[experiment]\n{line}\n")
    code = main(["converge", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert line.split()[0] in capsys.readouterr().err


def test_cli_solver_failure_exit_3(tmp_path, capsys):
    short = tmp_path / "short.ini"
    short.write_text("[solver]\nmaxiter = 2\n")
    code = main(["converge", "--config", str(short), "--out", str(tmp_path),
                 "--nu", "0.1", "--p", "1"])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_breakdown_exit_3(tmp_path, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise BreakdownError("rho/omega breakdown at iteration 1")

    monkeypatch.setattr(sthdg.solving, "bicgstab", breakdown)
    small = tmp_path / "small.ini"
    small.write_text("[experiment]\nladder = 4\n")
    code = main(["iterations", "--config", str(small),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "timings.txt").exists()


@pytest.mark.parametrize("target, error", [
    ("build_hierarchy", AirSetupError("coarsening stagnated at level 1")),
    ("block_diag_inverse_scale", SingularBlockError("singular diagonal block(s) [0]")),
])
def test_cli_setup_failure_exit_3(tmp_path, capsys, monkeypatch, target, error):
    # AIR setup and block scaling fail as SolverFailure, like the iteration
    assert isinstance(error, SolverFailure)

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(sthdg.solving, target, fail)
    small = tmp_path / "small.ini"
    small.write_text("[experiment]\nladder = 4\n")
    code = main(["converge", "--config", str(small), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"solver failure: {error}\n"


def report_true_residual(monkeypatch, true_residual):
    """Make every BiCGSTAB solve report this true relative residual."""

    def fake(*args, **kwargs):
        x, report = sthdg.krylov.bicgstab(*args, **kwargs)
        return x, replace(report, true_residual=true_residual)

    monkeypatch.setattr(sthdg.solving, "bicgstab", fake)


def test_true_residual_gate(monkeypatch):
    case = case_by_name("pulse1d", p=1, nu=1e-6)
    mesh = build_case_mesh(case, 4, 4, mode="all_at_once")
    cs = condense(assemble_blocks(mesh, 1, case.prob))
    params = SolverParams(tol=1e-10)
    report_true_residual(monkeypatch, 1e-8)  # exactly 100 x tol: accepted
    assert solve_condensed(cs, params).report.converged
    report_true_residual(monkeypatch, 1.01e-8)
    with pytest.raises(SolverFailure, match="true relative residual"):
        solve_condensed(cs, params)
    sol = solve_condensed(cs, replace(params, raise_on_failure=False))
    assert sol.report.converged and sol.report.true_residual == 1.01e-8


@pytest.mark.parametrize("mode", ["all_at_once", "slab"])
def test_iterations_cell_needs_small_true_residual(tmp_path, monkeypatch, mode):
    c = cfg(outdir=str(tmp_path), ladder=((4, 4),), mode=mode)
    (path,) = run_iterations(c)
    count = path.read_text().splitlines()[1].split(",")[1]
    assert int(count) >= 1
    report_true_residual(monkeypatch, 100.0 * c.solver.tol)  # exactly the bound
    (path,) = run_iterations(c)
    assert path.read_text().splitlines()[1].split(",")[1] == count
    report_true_residual(monkeypatch, 101.0 * c.solver.tol)
    (path,) = run_iterations(c)
    assert path.read_text().splitlines()[1].split(",")[1] == "-"


def test_cli_true_residual_failure_exit_3(tmp_path, capsys, monkeypatch):
    report_true_residual(monkeypatch, 1.0)
    small = tmp_path / "small.ini"
    small.write_text("[experiment]\nladder = 4\n")
    code = main(["converge", "--config", str(small), "--out", str(tmp_path)])
    assert code == 3
    assert "true relative residual" in capsys.readouterr().err
