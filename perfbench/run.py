#!/usr/bin/env python3
"""Benchmark of the RnR reproduction: real paper cells and the 4-core
SPMD run.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cells --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload spmd-4core --trace 1
    python3 perfbench/run.py --steady 10

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` runs the workload once with spans and the profiler on and prints the
per-layer metrics (spans go to ``.perfbench/spans-<workload>.json``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--steady N``
runs every workload N times, alternating them, each in a fresh
interpreter, and prints each end-to-end metric's median and quartiles.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
# The program's defaults, whatever the caller's environment says.
for _name in [n for n in os.environ if n.startswith("RNR_")]:
    del os.environ[_name]

import repro  # noqa: E402,F401  (fails at once where the program is absent)

from harness import Context  # noqa: E402
from layers import Profiler, layer_metrics, top_functions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
STEADY_TIMEOUT_S = 300


def _workloads():
    from cells import paper_cells, spmd_4core

    return {"paper-cells": paper_cells, "spmd-4core": spmd_4core}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    ctx = Context(seed=seed, seconds=seconds, traced=traced, work_dir=work_dir)
    if traced:
        ctx.profiler = Profiler()
    try:
        outcome = _workloads()[name](ctx)
        metrics = dict(outcome.metrics)
        if traced:
            stats = ctx.profiler.stats()
            metrics.update(layer_metrics(stats))
            ctx.spans.write(
                out_dir / f"spans-{name}.json",
                {"workload": name, "seed": seed, "metrics": metrics, "top_functions": top_functions(stats)},
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wanted = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise RuntimeError(f"{name} did not measure {missing}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        # Every check belongs to an operation; a failed one is counted.
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": metrics[m], "unit": UNITS[m]} for m in wanted},
    }


def steady(rounds: int, seconds: float) -> dict:
    """Run each workload ``rounds`` times (alternating, seeds 1..rounds)."""
    names = [w["name"] for w in SPEC["workloads"]]
    values = {name: {} for name in names}
    failed = {name: [] for name in names}
    walls = {name: [] for name in names}
    for seed in range(1, rounds + 1):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=STEADY_TIMEOUT_S)
            walls[name].append(time.perf_counter() - began)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed[name].append((result["failed"], result["attempted"]))
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    print(f"\n{'workload':<12} {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'bound':>6}")
    for name in names:
        summary[name] = {}
        for metric, vals in values[name].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{name:<12} {metric:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>8.3f} {bounds[metric]:>6}")
        print(f"{name:<12} failed/attempted per run: {sorted(set(failed[name]))}")
        print(f"{name:<12} whole-run wall time: median {statistics.median(walls[name]):.1f} s, "
              f"max {max(walls[name]):.1f} s")
    return summary


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 = the paper's named inputs")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="steadiness mode: N runs per workload")
    args = parser.parse_args(argv)
    if args.steady:
        summary = steady(args.steady, args.seconds)
        print(json.dumps(summary))
        return 0
    if not args.workload:
        parser.error("--workload or --steady is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
