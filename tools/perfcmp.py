#!/usr/bin/env python
"""Host-performance measurement and before/after comparison.

The simulator's *modelled* numbers (cycles, GB/s) are pinned by
``tests/test_equivalence.py``; this tool watches the other axis — how
much host wall-clock the simulation itself burns. Three subcommands:

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
    * ``serve_requests_per_s`` — cached requests served per host
      second by a warmed 4-DPU serving frontend over one seeded
      1,100-request stream, in-process; a rate, higher is better
    * ``low_ndv_launches_per_s`` — compiled Q1 jobs per host second on
      ``Cluster(1)`` over a 3,009-row ``lineitem`` shard, one low-NDV
      group-by launch each, fastest of seven, in-process; a rate,
      higher is better

``compare``
    Diff a baseline report against a current one::

        PYTHONPATH=src python tools/perfcmp.py compare \\
            benchmarks/host_perf_baseline.json current.json -o report.json

    Prints a speedup table (baseline / current; >1 means faster now)
    and exits nonzero when ``tier1_wall_s`` regressed more than
    ``--max-regression`` (default 0.25 = 25%), which is the CI gate.

``ab``
    Measure a parent revision and the current tree alternately on one
    host, and write both sides' median and quartiles per workload::

        PYTHONPATH=src python tools/perfcmp.py ab --parent HEAD --pairs 5 \
            --only dms_descriptors_per_s fig11_body_s -o ab.json

    The parent is checked out into a temporary ``git worktree`` and
    removed afterwards. Each measurement is a fresh ``measure``
    subprocess of this script pointed at one tree with ``--root``, so
    both sides run the same workload code against their own ``src/``,
    ``benchmarks/`` and tests. Pairs alternate which side runs first,
    so a drift in host speed loads both sides alike. The committed
    baseline and the ``compare`` gate are not involved.

The committed baseline (``benchmarks/host_perf_baseline.json``)
records the host it was measured on; regenerate it with ``measure``
when that hardware or the measured workload set changes (the tier-1
suite grows with every change), never to absorb a regression.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
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
    completed = dpu.counter_registry().snapshot()["dpu0.dmad.completed"]
    return completed / elapsed


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


def measure_serve_request_rate(repeats: int = 7) -> float:
    """Cached requests served per host second: a 4-DPU
    ``ServingFrontend`` over TPC-H scale 0.002, its caches warmed with
    one request per query, serves one seeded 1,100-request Poisson
    stream (mean interarrival 4,000 cycles, six tenants over three
    tiers) in which every request hits the result cache: the
    per-request host cost of admission, scheduling, cache lookups and
    latency digests. The stream is served ``repeats`` times in a row,
    each ``run`` timed alone with the garbage collector off (as
    ``timeit`` does), and the fastest run counts: one run takes about
    10 ms, short enough for a collection or a preempted time slice to
    double it."""
    from dataclasses import replace

    from repro.apps.sql import Table, load_query, tpch_catalog
    from repro.cluster import Cluster
    from repro.serve import OpenLoopWorkload, QueryRequest, ServingFrontend
    from repro.workloads.tpch import generate_tpch

    queries = ("q1", "q3", "q5", "q6", "q10", "q12", "q14")
    tenants = {"tenant-a": "gold", "tenant-b": "silver",
               "tenant-c": "silver", "tenant-d": "bronze",
               "tenant-e": "bronze", "tenant-f": "bronze"}
    num_dpus = 4
    catalog = tpch_catalog(generate_tpch(scale=0.002, seed=11))
    lineitem = catalog.tables["lineitem"]
    rows = len(next(iter(lineitem.values())))
    bounds = [rows * i // num_dpus for i in range(num_dpus + 1)]
    shards = [Table(f"lineitem{i}", {name: column[bounds[i]:bounds[i + 1]]
                                     for name, column in lineitem.items()})
              for i in range(num_dpus)]
    frontend = ServingFrontend(
        Cluster(num_dpus), catalog, {name: load_query(name) for name in queries},
        {"lineitem": shards}, tenants=tenants)
    frontend.run([QueryRequest(i, "tenant-a", "gold", name, 0.0)
                  for i, name in enumerate(queries)])
    stream = OpenLoopWorkload(tenants, queries, seed=11).generate(
        1_100, mean_interarrival_cycles=4_000.0)
    best = 0.0
    for _ in range(repeats):
        start = frontend.cluster.engine.now
        shifted = [replace(request, arrival=request.arrival + start)
                   for request in stream]
        gc.collect()
        gc.disable()
        try:
            began = time.perf_counter()
            report = frontend.run(shifted)
            elapsed = time.perf_counter() - began
        finally:
            gc.enable()
        best = max(best, report.counters["cache_hits"] / elapsed)
    return best


def measure_low_ndv_launch_rate(repeats: int = 7) -> float:
    """Compiled Q1 jobs per host second on one DPU: TPC-H scale 0.004
    (seed 11), the first of 8 ``lineitem`` shards (3,009 rows), through
    ``cluster_compiled_query(Cluster(1), ...)``. The job's one launch
    is the paper's low-NDV group-by on 32 cores, one stream tile each,
    so per-core and per-descriptor host costs dominate it. The job
    runs ``repeats`` times, each timed alone (building its cluster and
    storing its shard included) with the garbage collector off, and
    the fastest run counts."""
    from repro.apps.sql import Table, compile_query, load_query, tpch_catalog
    from repro.cluster import Cluster, cluster_compiled_query
    from repro.workloads.tpch import generate_tpch

    data = generate_tpch(scale=0.004, seed=11)
    compiled = compile_query(load_query("q1"), tpch_catalog(data), "q1")
    lineitem = data.tables["lineitem"]
    rows = len(next(iter(lineitem.values()))) // 8
    shard = Table("lineitem_shard0", {name: lineitem[name][:rows]
                                      for name in compiled.needed_columns})
    best = 0.0
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            began = time.perf_counter()
            cluster_compiled_query(Cluster(1), compiled, [shard])
            elapsed = time.perf_counter() - began
        finally:
            gc.enable()
        best = max(best, 1.0 / elapsed)
    return best


WORKLOADS = {
    "tier1_wall_s": measure_tier1,
    "goldens_wall_s": measure_goldens,
    "fig16_body_s": measure_fig16_body,
    "fig11_body_s": measure_fig11_body,
    "engine_1m_events_s": measure_engine_1m,
    "dms_descriptors_per_s": measure_dms_descriptor_rate,
    "metrics_sweep_s": measure_metrics_sweep,
    "cluster_build_s": measure_cluster_build,
    "serve_requests_per_s": measure_serve_request_rate,
    "low_ndv_launches_per_s": measure_low_ndv_launch_rate,
}

# The CI regression gate applies to this key.
GATE_KEY = "tier1_wall_s"


# -- commands ----------------------------------------------------------------


def _host() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _selected(options) -> list:
    selected = options.only or list(WORKLOADS)
    unknown = [name for name in selected if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    return selected


def cmd_measure(options) -> int:
    global REPO_ROOT
    selected = _selected(options)
    if options.root:
        # Measure another checkout: its sources, benchmarks and tests,
        # imported ahead of this one's.
        REPO_ROOT = os.path.abspath(options.root)
        for path in ("benchmarks", "src"):
            sys.path.insert(0, os.path.join(REPO_ROOT, path))
    report = {"host": _host(), "workloads": {}}
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


# -- A/B against a parent revision --------------------------------------------


def run_pairs(measure, sides, workloads, pairs):
    """Measure both ``sides`` ``pairs`` times, alternating which goes
    first (pair 0 in the given order, pair 1 reversed, ...).

    ``measure(side, workloads)`` returns ``{workload: value}``. Returns
    ``(samples, order)``: each side's values per workload in run order,
    and the sides in the order they ran.
    """
    samples = {side: {name: [] for name in workloads} for side in sides}
    order = []
    for pair in range(pairs):
        for side in (sides if pair % 2 == 0 else tuple(reversed(sides))):
            values = measure(side, workloads)
            order.append(side)
            for name in workloads:
                samples[side][name].append(values[name])
    return samples, order


def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count;
    with one value all three are that value."""
    runs = list(values)
    if len(runs) < 2:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(runs), "runs": runs}


def ab_summary(samples) -> dict:
    """Per workload: the ``parent`` and ``current`` summaries and
    ``current / parent`` of their medians (above 1 is faster now for a
    ``_per_s`` rate, slower for a time)."""
    table = {}
    for name in samples["parent"]:
        entry = {side: summarize(samples[side][name])
                 for side in ("parent", "current")}
        parent_median = entry["parent"]["median"]
        entry["ratio"] = (entry["current"]["median"] / parent_median
                          if parent_median else None)
        table[name] = entry
    return table


def _git(*args, cwd=REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ).stdout.strip()


@contextlib.contextmanager
def parent_worktree(revision: str):
    """A temporary detached ``git worktree`` of ``revision``, removed
    (with its administrative files) on exit."""
    path = tempfile.mkdtemp(prefix="perfcmp-ab-")
    try:
        _git("worktree", "add", "--detach", path, revision)
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", path],
                       cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(path, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=REPO_ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def measure_tree(root: str, workloads) -> dict:
    """One fresh ``measure`` subprocess of this script on ``root``."""
    handle, out = tempfile.mkstemp(prefix="perfcmp-ab-", suffix=".json")
    os.close(handle)
    try:
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "measure",
             "--root", root, "--only", *workloads, "-o", out],
            cwd=root, check=True, stdout=subprocess.DEVNULL,
        )
        with open(out) as stream:
            return json.load(stream)["workloads"]
    finally:
        os.remove(out)


def cmd_ab(options) -> int:
    workloads = _selected(options)
    if options.pairs < 1:
        raise SystemExit(f"--pairs must be at least 1: {options.pairs}")
    with parent_worktree(options.parent) as parent_root:
        roots = {"parent": parent_root, "current": REPO_ROOT}

        def measure(side, names):
            print(f"measuring {side} ...", flush=True)
            return measure_tree(roots[side], names)

        samples, order = run_pairs(measure, ("parent", "current"),
                                   workloads, options.pairs)
        commits = {side: _git("rev-parse", "HEAD", cwd=root)
                   for side, root in roots.items()}
    table = ab_summary(samples)
    width = max(len(name) for name in table)
    print(f"{'workload':<{width}}  {'parent median [q1, q3]':>30}  "
          f"{'current median [q1, q3]':>30}  current/parent")
    for name, entry in table.items():
        cells = [f"{entry[side]['median']:,.4g} "
                 f"[{entry[side]['q1']:,.4g}, {entry[side]['q3']:,.4g}]"
                 for side in ("parent", "current")]
        ratio = entry["ratio"]
        print(f"{name:<{width}}  {cells[0]:>30}  {cells[1]:>30}  "
              f"{'n/a' if ratio is None else f'{ratio:.3f}'}")
    report = {
        "host": _host(),
        "parent": {"revision": options.parent, "commit": commits["parent"]},
        "current": {"commit": commits["current"],
                    "note": "working tree, uncommitted changes included"},
        "pairs": options.pairs,
        "order": order,
        "workloads": table,
    }
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {options.output}")
    return 0


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
    measure.add_argument(
        "--root", help="measure this checkout instead of the one holding "
        "this script (imports its code, so run it in a fresh process, "
        "as `ab` does)")
    measure.set_defaults(func=cmd_measure)

    ab = commands.add_parser(
        "ab", help="parent revision vs current tree, alternating, one host")
    ab.add_argument("--parent", default="HEAD",
                    help="revision to check out as the parent (default HEAD)")
    ab.add_argument("--pairs", type=int, default=3,
                    help="parent/current pairs to run (default 3)")
    ab.add_argument("--only", nargs="+", metavar="WORKLOAD",
                    help="subset of workloads (default all)")
    ab.add_argument("-o", "--output", help="JSON output path")
    ab.set_defaults(func=cmd_ab)

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
