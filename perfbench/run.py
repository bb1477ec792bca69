"""Benchmark entry point.

    python3 perfbench/run.py --workload advect_aao --seed 0 --seconds 20 --trace 0

Runs one workload in this process for ``--seconds`` and prints, last, one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
``--workload all`` runs every workload, each in a fresh process, and
prints their metrics prefixed with the workload name.  Exits 2 without a
result when the checkout holds no ``src/sthdg``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import warmup

WORKLOAD_NAMES = ("advect_aao", "diffuse_aao", "advect_slab", "amr_pulse")
CHILD_TIMEOUT_S = 600


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_result(result):
    for name, m in result["metrics"].items():
        print(f"{name:<32} {m['value']!r:>26} {m['unit']}")
    fraction = result["failed"] / result["attempted"]
    print(f"{'failed_fraction':<32} {fraction!r:>26} "
          f"({result['failed']} of {result['attempted']})")


def run_all(args):
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    warmup.pin_threads()
    try:
        warmup.load_sthdg()
    except warmup.MissingProgram as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import harness

    w = harness.WORKLOADS[args.workload]
    print("env " + json.dumps(harness.environment()))
    result = harness.run(w, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print(f"run.py: {w.name} completed no execution", file=sys.stderr)
        return 1
    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    print_result(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
