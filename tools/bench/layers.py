"""Which callables stand for which ``repro`` layer, and the per-layer
metrics read from a traced pass.

Host time per layer comes from the tracer's spans. ``sim`` covers
everything the event engine dispatches (DMS, memory, ATE and core
kernels); splitting those apart needs spans inside the program.
Simulated per-layer numbers are read from public result objects the
wrapped calls returned or built: every DPU's counter registry, launch
results, SQL results, ``ScaleOutResult`` and the serving frontends.
Every metric is emitted for every workload; counts and cycles of a
layer a workload never calls read 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .workloads import serving_breakdown

LAYERS = {
    "sim": [
        "repro.sim.engine:Engine.run",
        "repro.sim.engine:Engine.run_until_complete",
    ],
    "core": [
        "repro.core.dpu:DPU.__init__",
        "repro.core.dpu:DPU.launch",
        "repro.core.dpu:DPU.store_array",
        "repro.core.dpu:DPU.alloc",
    ],
    "apps_sql": [
        "repro.apps.sql.frontend:compile_query",
        "repro.apps.sql.physical:CompiledQuery.run_dpu",
        "repro.apps.sql.physical:CompiledQuery.run_xeon",
        "repro.apps.sql.physical:CompiledQuery.run_local",
        "repro.apps.sql.table:Table.to_dpu",
        "repro.apps.sql.aggregate:dpu_groupby",
        "repro.apps.sql.aggregate:xeon_groupby",
        "repro.apps.sql.aggregate:merge_groups",
        "repro.apps.sql.join:broadcast_array",
    ],
    "baseline": [
        "repro.baseline.dbms:DbmsCostModel.plan_seconds",
    ],
    "cluster": [
        "repro.cluster.rack:Cluster.__init__",
        "repro.cluster.rack:Cluster.run",
        "repro.cluster.scaleout:cluster_compiled_query",
        "repro.cluster.scaleout:cluster_batched_queries",
        "repro.cluster.shuffle:shuffle_exchange",
        "repro.cluster.recovery:RecoveryManager.run_job",
        "repro.cluster.recovery:RecoveryManager.run_exchange",
    ],
    "serve": [
        "repro.serve.frontend:ServingFrontend.run",
        "repro.serve.cache:PlanCache.get",
        "repro.serve.cache:PlanCache.put",
        "repro.serve.cache:ResultCache.get",
        "repro.serve.cache:ResultCache.put",
    ],
    "runtime": [
        "repro.runtime.admission:WeightedFairQueue.push",
        "repro.runtime.admission:WeightedFairQueue.pop",
        "repro.runtime.admission:WeightedFairQueue.peek",
        "repro.runtime.admission:TokenBucket.try_take",
        "repro.runtime.admission:TokenBucket.cycles_until_available",
    ],
    "obs": [
        "repro.obs.metrics:LatencyDigest.add",
    ],
    "workloads": [
        "repro.workloads.tpch:generate_tpch",
        "repro.serve.workload:OpenLoopWorkload.generate",
    ],
}

# Calls whose (args, result) the per-layer metrics read after the pass.
KEEP = (
    "DPU.__init__",
    "DPU.launch",
    "dpu_groupby",
    "cluster_compiled_query",
    "cluster_batched_queries",
    "ServingFrontend.run",
)

# DPU counter-registry paths summed over every DPU a pass built.
_DPU_COUNTERS = {
    "dms.bytes_read": ("dms.bytes_read",),
    "dms.descriptors": ("dms.descriptors",),
    "dms.dmax_bytes": tuple(f"dmax{i}.bytes_served" for i in range(4)),
    "memory.ddr_bytes": ("ddr.bytes_served",),
    "memory.ddr_busy_cycles": ("ddr.busy_cycles",),
    "memory.ddr_row_misses": ("ddr.row_misses",),
    "core.active_cycles": tuple(f"pmu.macro{i}.active_cycles"
                                for i in range(4)),
    "core.mailbox_msgs": ("mbc.sent",),
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _dpu_metrics(dpus: Iterable) -> Dict[str, float]:
    totals = {name: 0.0 for name in _DPU_COUNTERS}
    for dpu in dpus:
        prefix = f"{dpu.name}."
        snapshot = {path[len(prefix):]: value for path, value
                    in dpu.counter_registry().snapshot().items()}
        for name, paths in _DPU_COUNTERS.items():
            totals[name] += sum(snapshot.get(path, 0.0) for path in paths)
    return totals


def _cluster_metrics(jobs: List) -> Dict[str, float]:
    metrics = {
        "cluster.jobs": float(len(jobs)),
        "cluster.job_cycles_mean": _mean([job.cycles for job in jobs]),
        "cluster.network_bytes": float(sum(job.network_bytes
                                           for job in jobs)),
    }
    for phase in ("local", "gather", "partition", "exchange"):
        metrics[f"cluster.{phase}_cycles_mean"] = _mean(
            [(job.detail or {}).get(f"{phase}_cycles", 0.0) for job in jobs])
    recoveries = [job.recovery for job in jobs if job.recovery is not None]
    metrics["recovery.reexecuted_shards"] = float(
        sum(r.reexecuted_shards for r in recoveries))
    metrics["recovery.detection_latency_cycles"] = max(
        [r.detection_latency_cycles or 0.0 for r in recoveries], default=0.0)
    metrics["recovery.leader_election_latency_cycles"] = max(
        [r.leader_election_latency_cycles or 0.0 for r in recoveries],
        default=0.0)
    metrics["recovery.journal_bytes"] = float(
        sum(r.journal_bytes for r in recoveries))
    return metrics


def per_layer_metrics(tracer, before_pass, pass_s: float,
                      untraced_pass_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass. ``before_pass`` is
    ``tracer.totals()`` taken after the traced input generation: the
    ``workloads`` layer runs there and reports its seconds; every other
    layer reports its share of the pass."""
    inputs_ns, inputs_traced_ns = before_pass
    pass_ns = max(1, tracer.traced_ns - inputs_traced_ns)
    self_ns = {layer: tracer.self_ns[layer] - inputs_ns.get(layer, 0)
               for layer in LAYERS if layer != "workloads"}
    metrics: Dict[str, float] = {
        "host.pass_s": pass_s,
        "host.trace_overhead_s": pass_s - untraced_pass_s,
        "host.apps_sql.compile_s": tracer.label_ns["compile_query"] / 1e9,
        "host.core.dpus_built": float(tracer.label_calls["DPU.__init__"]),
        "host.workloads.self_s": tracer.self_ns["workloads"] / 1e9,
    }
    for layer in LAYERS:
        if layer in self_ns:
            metrics[f"host.{layer}.self_pct"] = (100.0 * self_ns[layer]
                                                 / pass_ns)
        metrics[f"host.{layer}.calls"] = float(tracer.calls[layer])
    metrics["host.unattributed.self_pct"] = 100.0 * (
        pass_ns - sum(self_ns.values())) / pass_ns

    kept = tracer.kept
    metrics.update(_dpu_metrics(args[0] for args, _ in kept["DPU.__init__"]))
    launches = [result for _args, result in kept["DPU.launch"]]
    metrics["core.launches"] = float(len(launches))
    metrics["core.launch_cycles"] = float(sum(r.cycles for r in launches))
    # Every compiled plan, on one DPU, per shard or in a shared-scan
    # batch, runs its group-by through dpu_groupby.
    sql_cycles = [result.cycles for _args, result in kept["dpu_groupby"]]
    metrics["sql.runs"] = float(len(sql_cycles))
    metrics["sql.dpu_cycles"] = float(sum(sql_cycles))
    metrics.update(_cluster_metrics(
        [result for _args, result in kept["cluster_compiled_query"]]
        + [result for _args, result in kept["cluster_batched_queries"]]))
    runs = kept["ServingFrontend.run"]
    frontends = list({id(args[0]): args[0] for args, _ in runs}.values())
    metrics.update(serving_breakdown(frontends, [r for _, r in runs]))
    return metrics
