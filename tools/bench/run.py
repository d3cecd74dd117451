#!/usr/bin/env python3
"""Run the two-clock benchmark: four fixed workloads, checked outputs.

Usage (from the repository root)::

    python3 tools/bench/run.py [--workload NAME] [--seed N] [--seconds S]
                               [--trace 0|1] [--trace-dir DIR] [-o OUT.json]

For each workload (all four unless ``--workload`` names one) it starts
three worker processes one after another. Each sets up (imports,
seeded inputs, oracle, one discarded warm-up pass) and then times
passes, with the reference loop between them, for a third of
``--seconds``. It prints every end-to-end metric (host times scaled to
the reference speed, see ``reference.py``) by name with its unit, the
unscaled host times, the simulated headline numbers, and how many ops
failed their oracle check; ``--trace 1`` adds one traced process
per workload, writes its Chrome trace under ``--trace-dir`` and prints
the per-layer metrics instead. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``-o`` writes the full report, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bench import ROOT, require_src  # noqa: E402

require_src()

from bench.reference import NOMINAL_S, at_reference_speed  # noqa: E402
from bench.report import (load_benchmark, pass_seconds,  # noqa: E402
                          simulated_unit, summarize)
from bench.workloads import WORKLOADS, latency_summary  # noqa: E402

PROCESSES = 3
# Each worker must finish well inside one invocation's time limit.
WORKER_TIMEOUT_S = 150.0

# Simulated headline numbers printed per workload (all of them are
# also in the report's "simulated" section).
HEADLINES = {
    "single_dpu": ("dms_gbps", "query_cycles_geomean", "perf_per_watt_gain"),
    "scaleout": ("job_cycles_8dpu", "failover_cycles", "cluster.speedup_8dpu"),
    "serve_read": (),
    "serve_mixed": ("max_rate",),
}


def spawn(workload: str, seed: int, args) -> dict:
    """Run one worker; return its report plus ``setup_s``, from process
    start to the worker's ready time (both on the system-wide monotonic
    clock)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed), *args]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    began = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        process = subprocess.run(command, cwd=ROOT, env=env, text=True,
                                 stdout=subprocess.PIPE,
                                 timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {workload} worker timed out") from None
    lines = [line for line in process.stdout.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise SystemExit(
            f"bench: {workload} worker exited with {process.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready_at") - began
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path) -> dict:
    workers = [spawn(name, seed, ["--process", str(k),
                                  "--processes", str(PROCESSES),
                                  "--seconds", repr(seconds / PROCESSES)])
               for k in range(PROCESSES)]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]

    # Same seed, same inputs: every process's warm-up pass and every
    # variant run by several processes must agree to the last bit.
    variants = {}
    for index, worker in enumerate(workers):
        runs = [("0", worker["reference"]), *worker["variants"].items()]
        for variant, record in runs:
            first = variants.setdefault(int(variant), record)
            if (record["sim"], record["digest"]) != (first["sim"],
                                                     first["digest"]):
                failed += worker["attempted"]
                errors.append(f"process {index}: variant {variant} differs "
                              "from another process")
    latencies = [x for v in sorted(variants) for x in variants[v]["latencies"]]
    simulated = dict(variants[0]["sim"])
    simulated.update(latency_summary(latencies))
    simulated["latency_samples"] = float(len(latencies))

    passes = [p for w in workers for p in w["passes"]]
    scaled = [dict(p, seconds=at_reference_speed(p["seconds"], p["reference_s"]))
              for p in passes]
    pass_s = summarize([p["seconds"] for p in scaled])
    pass_s["value"] = pass_seconds(scaled)
    # Set-up is scaled by the speed its own process saw over its passes.
    setups = [w["setup_s"] for w in workers]
    references = [statistics.median(statistics.fmean(p["reference_s"])
                                    for p in w["passes"]) for w in workers]
    result = {
        "seed": seed,
        "processes": PROCESSES,
        "end_to_end": {
            "pass_s": pass_s,
            "setup_s": summarize([s * NOMINAL_S / r
                                  for s, r in zip(setups, references)]),
            "peak_rss_mb": summarize([w["rss_mb"] for w in workers]),
        },
        "unscaled": {
            "wall_s": pass_seconds(passes),
            "setup_s": statistics.median(setups),
            "reference_s": statistics.median(references),
        },
        "simulated": simulated,
    }
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{name}_seed{seed}.json"
        # The traced pass runs variant 0, so its overhead is taken
        # against variant 0's untraced passes.
        untraced = statistics.median(p["seconds"] for p in scaled
                                     if p["variant"] == 0)
        tracer = spawn(name, seed, ["--trace", str(path),
                                    "--untraced-pass-s", repr(untraced)])
        attempted += tracer["attempted"]
        failed += tracer["failed"]
        errors += tracer["errors"]
        result["per_layer"] = tracer["per_layer"]
        result["trace_file"] = str(path)
        result["simulated"].update(tracer.get("ladder", {}))
    result.update(attempted=attempted, failed=failed,
                  fail_ratio=failed / max(1, attempted), errors=errors[:20])
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, result: dict, units: dict) -> None:
    e2e = result["end_to_end"]
    print(f"== {name} (seed {result['seed']}, {result['processes']} "
          f"processes, {e2e['pass_s']['n']} timed passes) ==")
    print("end to end (host clock, times at the reference speed):")
    for metric, summary in e2e.items():
        print(f"  {metric:<24} {_fmt(summary['value']):>12} "
              f"{units[metric]:<6} n={summary['n']}, quartiles "
              f"{_fmt(summary['q1'])} / {_fmt(summary['median'])} / "
              f"{_fmt(summary['q3'])}")
    print("host clock, unscaled:")
    for metric, value in result["unscaled"].items():
        print(f"  {metric:<24} {_fmt(value):>12} s")
    simulated = result["simulated"]
    print("simulated clock (exact for this seed):")
    names = ("p50_cycles", "p99_cycles", "geomean_cycles",
             *HEADLINES[name])
    for metric in names:
        if metric in simulated:
            unit, _better = simulated_unit(metric)
            print(f"  {metric:<24} {_fmt(simulated[metric]):>12} {unit}")
    print(f"  (latency over {int(simulated['latency_samples'])} samples)")
    if "per_layer" in result:
        print("per layer (traced pass):")
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<40} {_fmt(value):>12} {units.get(metric, '')}")
        print(f"  trace: {result['trace_file']}")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed "
          f"(fail_ratio {result['fail_ratio']:.6g})")
    for error in result["errors"]:
        print(f"  FAILED {error}")


def result_line(results: dict, names, units) -> dict:
    """The contract's last line: every listed metric of one workload, or
    ``<workload>.<metric>`` for several."""
    metrics = {}
    for workload, result in results.items():
        values = dict(result.get("per_layer", {}))
        values.update({k: v["value"] for k, v in result["end_to_end"].items()})
        for metric in names:
            key = metric if len(results) == 1 else f"{workload}.{metric}"
            metrics[key] = {"value": values[metric], "unit": units[metric]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced process, report per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", type=Path,
                        default=ROOT / ".bench_out",
                        help="where traced runs write Chrome traces")
    parser.add_argument("-o", "--output", type=Path,
                        help="write the full JSON report here")
    options = parser.parse_args(argv)

    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    names = [m["name"] for m in
             benchmark["per_layer" if options.trace else "end_to_end"]]
    selected = [options.workload] if options.workload else list(WORKLOADS)
    results = {}
    for name in selected:
        results[name] = run_workload(name, options.seed, options.seconds,
                                     bool(options.trace), options.trace_dir)
        print_workload(name, results[name], units)
    if options.output:
        report = {
            "seed": options.seed,
            "seconds": options.seconds,
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "platform": platform.platform(),
                     "cpus": os.cpu_count()},
            "workloads": results,
        }
        options.output.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {options.output}")
    print(json.dumps(result_line(results, names, units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
