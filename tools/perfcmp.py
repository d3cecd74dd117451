#!/usr/bin/env python
"""Host-performance measurement and before/after comparison.

The simulator's *modelled* numbers (cycles, GB/s) are pinned by
``tests/test_equivalence.py``; this tool watches the other axis — how
much host wall-clock the simulation itself burns. Two subcommands:

``measure``
    Run the host-perf workload set and write a JSON report::

        PYTHONPATH=src python tools/perfcmp.py measure -o current.json

    Workloads (seconds unless noted):

    * ``tier1_wall_s``    — the full tier-1 pytest suite, subprocess
    * ``goldens_wall_s``  — the equivalence harness alone, subprocess
    * ``fig16_body_s``    — TPC-H query sweep body, in-process
    * ``fig11_body_s``    — DMS bandwidth sweep body, in-process
    * ``engine_1m_events_s`` — one million timer events through the
      raw event engine, in-process (events/s also recorded)
    * ``dms_descriptors_per_s`` — data descriptors retired per host
      second in the Fig. 11 8-column launch (8,192 descriptors through
      the DMAD walkers and the DMAC), in-process; a rate, higher is
      better
    * ``metrics_sweep_s``  — repeated DMS streaming launches with
      continuous metrics sampling enabled at a fine cadence,
      in-process (records the sampling path's host cost; the
      disabled path is pinned to literally zero by tests)
    * ``cluster_build_s``  — build a 64-DPU cluster and run its
      engine once, in-process (the construction cost every run pays
      before any work)

``compare``
    Diff a baseline report against a current one::

        PYTHONPATH=src python tools/perfcmp.py compare \\
            benchmarks/host_perf_baseline.json current.json -o report.json

    Prints a speedup table (baseline / current; >1 means faster now)
    and exits nonzero when ``tier1_wall_s`` regressed more than
    ``--max-regression`` (default 0.25 = 25%), which is the CI gate.

The committed baseline (``benchmarks/host_perf_baseline.json``)
records the host it was measured on; regenerate it with ``measure``
when that hardware or the measured workload set changes (the tier-1
suite grows with every change), never to absorb a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Workloads measured in-process need src/ and benchmarks/ importable.
for path in (os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)


# -- workloads ---------------------------------------------------------------


def _pytest_wall(args) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    elapsed = time.perf_counter() - began
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise SystemExit(f"workload pytest {' '.join(args)} failed")
    return elapsed


def measure_tier1() -> float:
    return _pytest_wall([])


def measure_goldens() -> float:
    return _pytest_wall(["tests/test_equivalence.py"])


def measure_fig16_body() -> float:
    import test_fig16_tpch

    began = time.perf_counter()
    test_fig16_tpch.run_all_queries()
    return time.perf_counter() - began


def measure_fig11_body() -> float:
    import test_fig11_dms_bandwidth as fig11

    began = time.perf_counter()
    # The figure's three axes: buffer-size sweep, column sweep, R+W.
    for tile_bytes in (2048, 4096, 8192):
        fig11.sweep_point(1, tile_bytes // 4, False)
    for num_columns in (1, 4, 8):
        fig11.sweep_point(num_columns, 2048 // num_columns, False,
                          rows_per_core=8192)
    fig11.sweep_point(1, 2048, True)
    return time.perf_counter() - began


def run_engine_events(num_events: int) -> float:
    """Drive ``num_events`` timer events through the raw engine;
    returns elapsed host seconds."""
    from repro.sim import Engine

    engine = Engine()

    def ticker(count):
        for _ in range(count):
            yield engine.timeout(1.0)

    # A handful of interleaved processes so the heap sees realistic
    # same-timestamp contention rather than a single hot timer.
    processes = 8
    per_process = num_events // processes
    began = time.perf_counter()
    for _ in range(processes):
        engine.process(ticker(per_process))
    engine.run()
    return time.perf_counter() - began


def measure_engine_1m() -> float:
    return run_engine_events(1_000_000)


def measure_dms_descriptor_rate() -> float:
    """Descriptors retired per host second on the Fig. 11 8-column
    point: 32 cores each stream eight 4 B columns of 8,192 rows in
    256-row tiles. Only the launch is timed, not building the DPU or
    storing its columns."""
    import numpy as np
    from repro.apps.streaming import stream_columns
    from repro.core import DPU

    rows, tile_rows, num_columns = 8192, 256, 8
    dpu = DPU()
    columns = {
        core: [dpu.store_array(np.zeros(rows, dtype=np.uint32))
               for _ in range(num_columns)]
        for core in range(32)
    }

    def kernel(ctx):
        refs = [(address, 4) for address in columns[ctx.core_id]]
        yield from stream_columns(ctx, refs, rows, tile_rows, lambda *a: 8)

    began = time.perf_counter()
    dpu.launch(kernel)
    elapsed = time.perf_counter() - began
    return dpu.stats.counters["dmad.completed"] / elapsed


def measure_metrics_sweep() -> float:
    """Repeated DMS streaming launches with the continuous-metrics
    sampler on at a fine cadence: full-registry snapshots every 500
    cycles plus digest feeds, the worst realistic sampling load."""
    import numpy as np
    from repro.apps.streaming import stream_columns
    from repro.core import DPU

    dpu = DPU()
    dpu.enable_metrics(cadence=500.0)
    rows = 2048
    addr = dpu.store_array(np.arange(rows, dtype=np.uint64))

    def kernel(ctx):
        yield from stream_columns(
            ctx, [(addr, 8)], rows, 512, lambda *a: 8, dmem_base=64
        )

    began = time.perf_counter()
    for _ in range(40):
        dpu.launch(kernel, cores=[0, 1])
    return time.perf_counter() - began


def measure_cluster_build() -> float:
    """Build ``Cluster(64)`` and run its engine once. Per-core units
    are built on first use, so this is the host cost of what every
    DPU builds up front."""
    from repro.cluster import Cluster

    began = time.perf_counter()
    cluster = Cluster(64)
    cluster.engine.run()
    return time.perf_counter() - began


WORKLOADS = {
    "tier1_wall_s": measure_tier1,
    "goldens_wall_s": measure_goldens,
    "fig16_body_s": measure_fig16_body,
    "fig11_body_s": measure_fig11_body,
    "engine_1m_events_s": measure_engine_1m,
    "dms_descriptors_per_s": measure_dms_descriptor_rate,
    "metrics_sweep_s": measure_metrics_sweep,
    "cluster_build_s": measure_cluster_build,
}

# The CI regression gate applies to this key.
GATE_KEY = "tier1_wall_s"


# -- commands ----------------------------------------------------------------


def cmd_measure(options) -> int:
    selected = options.only or list(WORKLOADS)
    unknown = [name for name in selected if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    report = {
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    for name in selected:
        print(f"measuring {name} ...", flush=True)
        value = WORKLOADS[name]()
        if name.endswith("_per_s"):
            report["workloads"][name] = round(value)
            print(f"  {name}: {value:,.0f}/s", flush=True)
        else:
            report["workloads"][name] = round(value, 4)
            print(f"  {name}: {value:.3f}s", flush=True)
    if "engine_1m_events_s" in report["workloads"]:
        seconds = report["workloads"]["engine_1m_events_s"]
        report["workloads"]["engine_events_per_s"] = round(1_000_000 / seconds)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(text)
        print(f"wrote {options.output}")
    else:
        print(text)
    return 0


def cmd_compare(options) -> int:
    with open(options.baseline) as handle:
        baseline = json.load(handle)
    with open(options.current) as handle:
        current = json.load(handle)
    base_loads = baseline["workloads"]
    curr_loads = current["workloads"]
    rows = []
    for name in sorted(set(base_loads) | set(curr_loads)):
        base = base_loads.get(name)
        curr = curr_loads.get(name)
        if base is None or curr is None or name.endswith("_per_s"):
            continue
        speedup = base / curr if curr else float("inf")
        rows.append((name, base, curr, speedup))
    width = max(len(name) for name, *_rest in rows) if rows else 10
    print(f"{'workload':<{width}}  {'baseline':>9}  {'current':>9}  speedup")
    for name, base, curr, speedup in rows:
        print(f"{name:<{width}}  {base:>8.3f}s  {curr:>8.3f}s  {speedup:6.2f}x")

    verdict = "ok"
    gate_base = base_loads.get(GATE_KEY)
    gate_curr = curr_loads.get(GATE_KEY)
    exit_code = 0
    if gate_base is not None and gate_curr is not None:
        regression = gate_curr / gate_base - 1.0
        if regression > options.max_regression:
            verdict = (
                f"REGRESSION: {GATE_KEY} {gate_curr:.2f}s is "
                f"{regression:+.0%} vs baseline {gate_base:.2f}s "
                f"(limit {options.max_regression:+.0%})"
            )
            exit_code = 1
        else:
            verdict = (
                f"{GATE_KEY} {gate_curr:.2f}s vs baseline "
                f"{gate_base:.2f}s ({regression:+.1%}, "
                f"limit {options.max_regression:+.0%})"
            )
    print(verdict)

    if options.output:
        merged = {
            "baseline": baseline,
            "current": current,
            "speedups": {name: round(s, 3) for name, _b, _c, s in rows},
            "gate": {
                "key": GATE_KEY,
                "max_regression": options.max_regression,
                "verdict": verdict,
                "passed": exit_code == 0,
            },
        }
        with open(options.output, "w") as handle:
            handle.write(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {options.output}")
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="run workloads, write JSON")
    measure.add_argument("-o", "--output", help="JSON output path")
    measure.add_argument(
        "--only",
        nargs="+",
        metavar="WORKLOAD",
        help=f"subset of workloads ({', '.join(WORKLOADS)})",
    )
    measure.set_defaults(func=cmd_measure)

    compare = commands.add_parser("compare", help="diff two measure reports")
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument("-o", "--output", help="merged JSON report path")
    compare.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional tier-1 wall-clock regression (default 0.25)",
    )
    compare.set_defaults(func=cmd_compare)

    options = parser.parse_args(argv)
    return options.func(options)


if __name__ == "__main__":
    raise SystemExit(main())
