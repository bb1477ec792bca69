"""Tests of the benchmark harness itself, at tiny problem sizes.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import warmup  # noqa: E402

warmup.load_sthdg()

import harness  # noqa: E402
import run as run_cli  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, **changes):
    """The named workload on a 4x4 mesh (one AMR cycle), no reference."""
    w = replace(harness.WORKLOADS[name], n=4, reference=None)
    if w.mode == "amr":
        w = replace(w, cycles=1)
    return replace(w, **changes)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def printed_units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def test_spec_names_the_harness_workloads_and_metrics():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run_cli.WORKLOAD_NAMES) == list(harness.WORKLOADS)
    assert units("end_to_end") == harness.END_TO_END_UNITS
    assert units("per_layer") == tracing.LAYER_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", run_cli.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_prints_every_metric(name, trace):
    result = harness.run(tiny(name), seed=3, seconds=0.01, trace=trace,
                         setup_samples=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    expected = units("per_layer" if trace else "end_to_end")
    assert printed_units(result) == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    json.dumps(result)


def test_correctness_gate_trips_on_a_wrong_reference():
    w = tiny("advect_aao", reference=(10**6, 1e-30))
    result = harness.run(w, seed=0, seconds=0.01, trace=False, setup_samples=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_gate_rejects_unconverged_and_inaccurate_solves():
    w = tiny("diffuse_aao", reference=(5, 1e-3))
    good = SimpleNamespace(converged=True, true_residual=1e-14, iterations=5,
                           reason="")
    ok = harness.Outcome(5, 1e-3, (good,))
    assert harness.gate(w, 0, ok, None) == []
    assert harness.gate(w, 7, replace(ok, krylov_iterations=9,
                                      reports=(replace_ns(good, iterations=9),)),
                        None) == []
    unconverged = replace_ns(good, converged=False, reason="maxiter reached")
    loose = replace_ns(good, true_residual=1e-6)
    for out in (replace(ok, reports=(unconverged,)),
                replace(ok, reports=(loose,)),
                replace(ok, reports=()),
                replace(ok, l2_error=1e-3 * (1 + 1e-6)),
                replace(ok, krylov_iterations=6),
                replace(ok, krylov_iterations=6,
                        reports=(replace_ns(good, iterations=6),))):
        assert harness.gate(w, 0, out, None), out
    # any seed: the error may not grow much; every repeat must be exact
    assert harness.gate(w, 7, replace(ok, l2_error=2e-3), None)
    assert harness.gate(w, 7, ok, replace(ok, l2_error=1e-3 + 1e-18))


def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


def _current():
    return [getattr(owner, attr) for owner, attr, _ in tracing._TARGETS]


def test_tracing_restores_every_wrapped_name():
    before = _current()
    w = tiny("advect_slab")
    ex = harness.execute(w, harness.make_case(w, 0), traced=True)
    assert ex.layers["mesh.extract_slab_calls"] == 4
    assert all(a is b for a, b in zip(_current(), before))
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert not any(a is b for a, b in zip(_current(), before))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(), before))


@pytest.mark.parametrize("name", run_cli.WORKLOAD_NAMES)
def test_traced_run_repeats_the_untraced_answer(name):
    w = tiny(name)
    case = harness.make_case(w, 5)
    plain = harness.execute(w, case, traced=False).outcome
    ex = harness.execute(w, case, traced=True)
    assert (ex.outcome.krylov_iterations, ex.outcome.l2_error) == (
        plain.krylov_iterations, plain.l2_error)
    m = ex.layers
    assert m["krylov.iterations"] == plain.krylov_iterations
    assert m["solving.hierarchy_builds"] == m["air.setup_calls"] == len(plain.reports)
    assert m["trace.unaccounted_s"] <= 0.05 * m["trace.solve_s"]


def test_stretch_is_seeded_monotone_and_fixes_the_endpoints():
    box = (0.0, 1.0, -0.5, 0.5)
    assert harness.stretch(0, box) is None
    t = np.linspace(0.0, 1.0, 7)
    x = np.linspace(-0.5, 0.5, 201)
    pts = np.array([(ti, xi) for ti in t for xi in x])
    a = harness.stretch(11, box)(pts)
    assert np.array_equal(a, harness.stretch(11, box)(pts))
    assert not np.array_equal(a, harness.stretch(12, box)(pts))
    assert np.array_equal(a[:, 0], pts[:, 0])
    xs = a[:, 1].reshape(len(t), len(x))
    assert np.all(np.diff(xs, axis=1) > 0)
    assert np.allclose(xs[:, [0, -1]], [-0.5, 0.5], rtol=0, atol=1e-15)
    assert np.array_equal(xs, np.broadcast_to(xs[0], xs.shape))


def test_cli_prints_one_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "advect_aao",
         "--seed", "0", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert printed_units(result) == units("end_to_end")
    assert result["metrics"]["krylov_iterations"]["value"] == 2


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "advect_aao",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
