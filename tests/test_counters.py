"""Every counter a DPU or cluster reports, pinned across eight runs.

``tests/goldens/counters.json`` records, for each run below, the
registry snapshot (``DPU.counter_registry()`` or
``Cluster.counter_registry()``), every DPU's own counters, gauges and
latency-series summaries (count, mean, min, max), and the sha256 of
each metrics hub's JSONL export. A change to how counters are stored
or harvested must leave every one of these values as it is.
Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/test_counters.py --update-goldens

and review the JSON diff like any other behavioural change.
"""

import hashlib
import json

import numpy as np

from repro.apps.sql import compile_query, load_query, tpch_catalog
from repro.apps.streaming import stream_columns
from repro.cluster import Cluster, cluster_compiled_query
from repro.core import DPU
from repro.faults import ChaosSpec, FaultPlan
from repro.workloads.tpch import generate_tpch
from test_cluster_jobs import _project, _shard
from test_equivalence import GOLDEN_DIR
from test_obs import canonical_launch

GOLDEN = GOLDEN_DIR / "counters.json"


def unit_counters(dpu):
    """One DPU's counters and gauges, and a count/mean/min/max summary
    of each latency digest its units recorded."""
    export = dpu.counters.to_dict()
    return {
        "counters": export["counters"],
        "gauges": export["gauges"],
        "series": {
            name: {field: summary[field]
                   for field in ("count", "mean", "min", "max")}
            for name, summary in export["digests"].items()
        },
    }


def hub_sha256(hub, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    hub.export_jsonl(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dpu_record(dpu):
    return {
        "registry": dpu.counter_registry().snapshot(),
        "units": {dpu.name: unit_counters(dpu)},
    }


def cluster_record(cluster):
    return {
        "registry": cluster.counter_registry().snapshot(),
        "units": {dpu.name: unit_counters(dpu) for dpu in cluster.dpus},
    }


# -- the runs -----------------------------------------------------------------


def run_canonical(tmp_path):
    """The 2,896-cycle kernel: one streamed column plus four ATE
    fetch-adds from two cores."""
    dpu = DPU()
    assert canonical_launch(dpu).cycles == 2896.0
    return dpu_record(dpu)


def run_fig11_eight_columns(tmp_path):
    """Figure 11's 8-column point: 32 cores each stream eight 4 B
    columns of 8,192 rows in 256-row tiles."""
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

    dpu.launch(kernel)
    return dpu_record(dpu)


def run_ate_fan_in(tmp_path):
    """Three requesters, two in core 17's macro and one outside it,
    fetch-add and load one word: local and remote RTTs."""
    dpu = DPU()
    dpu.launch(lambda ctx: (yield from ctx.compute(100)), cores=[0, 1])
    target = dpu.address_map.dmem_address(17, 64)

    def kernel(ctx):
        old = yield from ctx.fetch_add(17, target, ctx.core_id + 1)
        value = yield from ctx.remote_load(17, target)
        return old, value

    dpu.launch(kernel, cores=[3, 4, 20])
    return dpu_record(dpu)


def run_crc_replay(tmp_path):
    """Corrupted descriptors replay and the stream stays exact."""
    rows = 4096
    dpu = DPU(fault_plan=FaultPlan(seed=3, rates={"dms.descriptor": 0.2}))
    addr = dpu.store_array(np.arange(rows, dtype=np.uint64) * 3)

    def kernel(ctx):
        yield from stream_columns(ctx, [(addr, 8)], rows, 512, lambda *a: 8)

    dpu.launch(kernel, cores=[0])
    return dpu_record(dpu)


def _q6(cluster):
    tpch = generate_tpch(scale=0.002, seed=11)
    compiled = compile_query(load_query("q6"), tpch_catalog(tpch), "q6")
    shards = _shard(_project(tpch.tables["lineitem"], compiled.needed_columns),
                    cluster.num_dpus, "lineitem")
    return cluster_compiled_query(cluster, compiled, shards)


def run_q6_four_dpus(tmp_path):
    cluster = Cluster(4)
    _q6(cluster)
    return cluster_record(cluster)


def run_q6_coordinator_kill(tmp_path):
    cluster = Cluster(4, fault_plan=FaultPlan.none().with_chaos(
        ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0)))
    result = _q6(cluster)
    assert result.recovery.declared_dead == (0,)
    return cluster_record(cluster)


def run_metrics_dpu(tmp_path):
    """The canonical kernel twice under a 200-cycle sampler."""
    dpu = DPU()
    hub = dpu.enable_metrics(cadence=200.0)
    canonical_launch(dpu)
    canonical_launch(dpu)
    record = dpu_record(dpu)
    record["hub_sha256"] = hub_sha256(hub, tmp_path, "dpu")
    return record


def run_metrics_cluster(tmp_path):
    cluster = Cluster(4)
    hub = cluster.enable_metrics(cadence=5_000.0)
    _q6(cluster)
    record = cluster_record(cluster)
    record["hub_sha256"] = hub_sha256(hub, tmp_path, "cluster")
    return record


RUNS = {
    "canonical": run_canonical,
    "fig11_eight_columns": run_fig11_eight_columns,
    "ate_fan_in": run_ate_fan_in,
    "crc_replay": run_crc_replay,
    "q6_4dpu": run_q6_four_dpus,
    "q6_4dpu_coordinator_kill": run_q6_coordinator_kill,
    "metrics_dpu": run_metrics_dpu,
    "metrics_cluster": run_metrics_cluster,
}


def test_counters_golden(tmp_path, request):
    observed = {name: run(tmp_path) for name, run in RUNS.items()}
    # Round-trip through JSON so the comparison sees what the file holds.
    observed = json.loads(json.dumps(observed))
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True)
                          + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert {name: sorted(record) for name, record in golden.items()} == {
        name: sorted(record) for name, record in observed.items()}
    diverged = [
        f"{name}: {field} golden {golden[name][field]!r} != "
        f"observed {observed[name][field]!r}"
        for name in sorted(golden) for field in sorted(golden[name])
        if golden[name][field] != observed[name][field]
    ]
    assert not diverged, "\n".join(diverged)
