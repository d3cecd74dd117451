"""§4: scaling distributed SQL across the rack.

The paper's claim: the A9 network path and system services "allowed
us to scale several of the applications in Section 5 across 500+ DPU
clusters". Two regenerations:

* **Near-linear speedup** — the pre-aggregating job family (TPC-H Q1
  here, HLL in §5.4): each DPU runs the full plan on its shard and
  only tiny partials cross the fabric, so the rack model calibrated
  from 2/4/8-DPU simulations stays near-linear through 512 DPUs.

* **Fabric-bytes model** — the shuffle family (hash group-by): the
  all-to-all moves ``(D-1)/D`` of the table, and the analytic volume
  matches the simulated fabric byte counters at every measured size.

* **Host cost per DPU** — what one more simulated DPU costs the host
  (peak RSS and seconds), the first measured step towards running
  500+ DPUs instead of projecting them.

Network bytes are **per job** (deltas, not cumulative fabric
counters) — the benchmark runs back-to-back jobs on one cluster and
checks the second job reports only its own traffic.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from conftest import run_once

from repro.apps.sql import Table
from repro.apps.sql.aggregate import AggSpec
from repro.cluster import (
    Cluster,
    ShuffleRackModel,
    cluster_groupby,
    cluster_tpch_q1,
)
from repro.workloads.tpch import generate_tpch

SIM_DPUS = (2, 4, 8)
RACK_DPUS = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def _shard(columns, num_shards, name="shard"):
    total = len(next(iter(columns.values())))
    bounds = [round(total * i / num_shards) for i in range(num_shards + 1)]
    return [
        Table(
            f"{name}{i}",
            {n: c[bounds[i]:bounds[i + 1]] for n, c in columns.items()},
        )
        for i in range(num_shards)
    ]


def test_sec4_scaleout_scaling(benchmark, report):
    def run():
        rng = np.random.default_rng(17)
        groupby_rows = 12000
        data = {
            "k": rng.integers(0, 64, groupby_rows, dtype=np.uint32),
            "v": rng.integers(0, 1000, groupby_rows, dtype=np.uint32),
        }
        aggs = [AggSpec("sum", "v"), AggSpec("count")]
        tpch = generate_tpch(scale=0.005, seed=42)
        lineitem = tpch.tables["lineitem"]

        shuffle_sims = {}
        q1_sims = {}
        for num_dpus in SIM_DPUS:
            cluster = Cluster(num_dpus)
            shuffle_sims[num_dpus] = cluster_groupby(
                cluster, _shard(data, num_dpus), "k", aggs
            )
            q1_sims[num_dpus] = cluster_tpch_q1(
                Cluster(num_dpus), _shard(lineitem, num_dpus, "lineitem")
            )

        # Per-job accounting: a second identical job on the same
        # (already-used) cluster must report only its own bytes.
        repeat_cluster = Cluster(4)
        first = cluster_groupby(repeat_cluster, _shard(data, 4), "k", aggs)
        second = cluster_groupby(repeat_cluster, _shard(data, 4), "k", aggs)
        return (groupby_rows, lineitem, shuffle_sims, q1_sims,
                first, second)

    (groupby_rows, lineitem, shuffle_sims, q1_sims,
     first, second) = run_once(benchmark, run)

    # -- satellite regression: per-job network-byte deltas ------------
    assert second.network_bytes == first.network_bytes
    assert second.value == first.value

    # -- distributed == single-DPU results across sim sizes -----------
    reference = q1_sims[2].value
    for num_dpus in SIM_DPUS:
        assert q1_sims[num_dpus].value == reference
        assert (shuffle_sims[num_dpus].value
                == shuffle_sims[2].value)

    # -- fabric-bytes model vs simulated shuffle ----------------------
    record_bytes = 8  # two u32 columns
    volume_rows = []
    for num_dpus in SIM_DPUS:
        sim = shuffle_sims[num_dpus]
        simulated = sim.detail["rows_moved"] * record_bytes
        modeled = (groupby_rows * record_bytes
                   * (num_dpus - 1) / num_dpus)
        error = abs(simulated - modeled) / modeled
        volume_rows.append(
            f"{num_dpus:>4} {simulated:>12.0f} {modeled:>12.0f} "
            f"{100 * error:>6.2f}%"
        )
        assert error < 0.05, (
            f"shuffle volume off by {error:.1%} at {num_dpus} DPUs"
        )

    # -- rack model: pre-aggregate speedup through 512 DPUs -----------
    lineitem_rows = len(lineitem["l_quantity"])
    calibrated = q1_sims[8]
    groups = len(calibrated.value)
    calibrated_model = ShuffleRackModel.from_sim(
        calibrated.detail, 8, lineitem_rows, record_bytes=48,
        result_bytes=56 * groups, all_to_all=False,
    )
    # Weak-scale the input to rack size (paper: "analytics on
    # terabytes"); the per-row costs stay as calibrated from the sim.
    model = replace(calibrated_model, total_rows=lineitem_rows * 1024)
    speedups = [model.speedup(num_dpus) for num_dpus in RACK_DPUS]
    assert all(b > a for a, b in zip(speedups, speedups[1:])), (
        f"speedup not monotone: {speedups}"
    )
    assert speedups[RACK_DPUS.index(8)] > 7.0  # near-linear at 8
    assert speedups[-1] > 300.0  # still scaling at 512

    shuffle_model = ShuffleRackModel.from_sim(
        shuffle_sims[8].detail, 8, groupby_rows, record_bytes,
        result_bytes=24 * 64,
    )

    rack_rows = []
    for num_dpus, speedup in zip(RACK_DPUS, speedups):
        shuffle_mb = shuffle_model.network_bytes(num_dpus) / 1e6
        q1_kb = model.network_bytes(num_dpus) / 1e3
        rack_rows.append(
            f"{num_dpus:>4} {speedup:>8.1f} {q1_kb:>10.1f} "
            f"{shuffle_mb:>12.3f}"
        )

    report(
        "§4: shuffle volume, model vs simulation (12000-row group-by)",
        f"{'DPUs':>4} {'sim bytes':>12} {'model bytes':>12} {'error':>7}",
        volume_rows,
    )
    report(
        "§4: rack model (Q1 weak-scaled x1024; per-job network bytes)",
        f"{'DPUs':>4} {'speedup':>8} {'Q1 net KB':>10} "
        f"{'shuffle net MB':>12}",
        rack_rows,
    )

    benchmark.extra_info["speedup_512"] = speedups[-1]
    benchmark.extra_info["per_job_bytes"] = second.network_bytes
    benchmark.extra_info["sim_cycles_8dpu"] = q1_sims[8].cycles


# One compiled Q1 job on ``Cluster(n)`` in a fresh interpreter: peak
# RSS is per process, so each size needs a process of its own.
_HOST_COST_PROBE = r"""
import json, resource, sys, time
from repro.apps.sql import Table, compile_query, load_query, tpch_catalog
from repro.baseline import XeonModel
from repro.cluster import Cluster, cluster_compiled_query
from repro.workloads.tpch import generate_tpch

num_dpus = int(sys.argv[1])
data = generate_tpch(scale=0.02, seed=11)
compiled = compile_query(load_query("q1"), tpch_catalog(data), "q1")
fact = data.tables[compiled.fact]
rows = len(fact[compiled.needed_columns[0]])
bounds = [rows * i // num_dpus for i in range(num_dpus + 1)]
shards = [Table(f"lineitem{i}", {name: fact[name][bounds[i]:bounds[i + 1]]
                                 for name in compiled.needed_columns})
          for i in range(num_dpus)]
start = time.process_time()
result = cluster_compiled_query(Cluster(num_dpus), compiled, shards)
host_s = time.process_time() - start
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "equal": result.value == compiled.run_xeon(XeonModel(), data).value,
    "cycles": result.cycles, "host_s": host_s, "peak_rss_mib": peak_kib / 1024,
}))
"""

HOST_COST_DPUS = (32, 128)
MAX_RSS_MIB_PER_DPU = 0.9


def _host_cost(num_dpus):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", _HOST_COST_PROBE, str(num_dpus)],
        env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_sec4_host_cost_per_dpu(benchmark, report):
    """Compiled Q1 at TPC-H 0.02 (seed 11) on 32 and on 128 DPUs. The
    slope between the two runs is what each added DPU costs the host;
    set-up (imports, data, compile) is the same in both and cancels."""
    runs = run_once(benchmark, lambda: {
        num_dpus: _host_cost(num_dpus) for num_dpus in HOST_COST_DPUS})
    low, high = HOST_COST_DPUS
    added = high - low
    rss_per_dpu = (runs[high]["peak_rss_mib"]
                   - runs[low]["peak_rss_mib"]) / added
    host_ms_per_dpu = 1e3 * (runs[high]["host_s"] - runs[low]["host_s"]) / added

    report(
        "§4: host cost per simulated DPU (compiled Q1, TPC-H 0.02)",
        f"{'DPUs':>5} {'cycles':>12} {'peak RSS MiB':>13} {'host s':>8}",
        [f"{n:>5} {runs[n]['cycles']:>12.0f} "
         f"{runs[n]['peak_rss_mib']:>13.1f} {runs[n]['host_s']:>8.2f}"
         for n in HOST_COST_DPUS]
        + [f"per added DPU: {rss_per_dpu:.3f} MiB, "
           f"{host_ms_per_dpu:.2f} ms"],
    )
    benchmark.extra_info["rss_mib_per_dpu"] = rss_per_dpu
    benchmark.extra_info["host_ms_per_dpu"] = host_ms_per_dpu
    assert all(run["equal"] for run in runs.values())
    assert rss_per_dpu <= MAX_RSS_MIB_PER_DPU, rss_per_dpu
