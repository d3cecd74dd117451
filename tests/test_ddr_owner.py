"""Every job frees the DDR it stores (``HeapAllocator.scope``).

A compiled query, an operator's scratch, a cluster job and a serving
segment each own what they allocate in a DPU's DDR: when one returns,
every DPU's ``heap.live_bytes()`` reads what it read before. Freed
regions come back at the same addresses, so a compiled query run again
on the same DPU reads the same cycles. A job that raises keeps what it
stored, because a launch that raises can leave kernels that still
write its regions.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sql import (
    Between,
    Table,
    compile_query,
    dpu_filter,
    dpu_sort,
    load_query,
    tpch_catalog,
)
from repro.cluster import (
    Cluster,
    cluster_batched_queries,
    cluster_compiled_query,
    scaleout,
)
from repro.cluster.recovery import RecoveryConfig
from repro.core import DPU
from repro.serve import OpenLoopWorkload, ServingFrontend
from repro.workloads.tpch import generate_tpch
from test_tpch_conformance import _shard_fact

QUERIES = ("q1", "q3", "q5", "q6")
SERVED = ["q1", "q6", "q12"]
TENANTS = {"acme": "gold", "corp": "bronze"}


@lru_cache(maxsize=None)
def _tpch(scale=0.002):
    data = generate_tpch(scale=scale, seed=11)
    catalog = tpch_catalog(data)
    return data, {name: compile_query(load_query(name), catalog, name)
                  for name in QUERIES}


def _live(dpus):
    return [dpu.heap.live_bytes() for dpu in dpus]


# -- one DPU ------------------------------------------------------------------


def _dpu_op(dpu, dtable, op):
    data, compiled = _tpch()
    if op == "sort":
        return dpu_sort(dpu, dtable, "v")
    if op == "filter":
        return dpu_filter(dpu, dtable, Between("v", 100, 900))
    return compiled[op].run_dpu(dpu, data)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(["q1", "q5", "sort", "filter"]),
                min_size=1, max_size=4))
def test_one_dpu_operations_free_what_they_store(ops):
    """A drawn sequence of compiled queries, sorts and filters on one
    DPU; the sorted and filtered table is the caller's and stays live
    throughout. Before jobs freed their DDR, compiled Q1 left
    312,960 B live per run."""
    dpu = DPU()
    values = np.random.default_rng(len(ops)).integers(0, 1000, 4000)
    dtable = Table("t", {"v": values.astype(np.int32)}).to_dpu(dpu)
    for op in ops:
        before = dpu.heap.live_bytes()
        _dpu_op(dpu, dtable, op)
        assert dpu.heap.live_bytes() == before, op


# -- one cluster --------------------------------------------------------------


class _Served:
    """A long-lived frontend on the cluster, with its own catalog so
    its writes reach no other test."""

    def __init__(self, cluster, data):
        self.catalog = tpch_catalog(data)
        fact = self.catalog.tables["lineitem"]
        total = len(fact["l_quantity"])
        self.bounds = [total * i // cluster.num_dpus
                       for i in range(cluster.num_dpus + 1)]
        self.shards = [
            Table(f"lineitem_shard{i}",
                  {name: column[self.bounds[i]:self.bounds[i + 1]]
                   for name, column in fact.items()})
            for i in range(cluster.num_dpus)]
        self.frontend = ServingFrontend(
            cluster, self.catalog, {name: load_query(name) for name in SERVED},
            {"lineitem": self.shards}, tenants=TENANTS)
        self.writes = 0

    def segment(self):
        start = self.frontend.cluster.engine.now
        requests = OpenLoopWorkload(TENANTS, SERVED, seed=self.writes).generate(
            6, mean_interarrival_cycles=20_000.0)
        report = self.frontend.run(
            [replace(request, arrival=request.arrival + start)
             for request in requests])
        assert len(report.records) == len(requests)

    def write(self):
        self.writes += 1
        quantity = self.catalog.tables["lineitem"]["l_quantity"]
        values = np.random.default_rng(self.writes).permutation(quantity)
        self.catalog.update_column("lineitem", "l_quantity", values)
        for i, shard in enumerate(self.shards):
            shard.columns["l_quantity"] = values[
                self.bounds[i]:self.bounds[i + 1]]


def _cluster_op(cluster, op, state):
    """Run ``op`` on ``cluster``, checking every DPU's live bytes after
    each of its jobs or serving segments."""
    data, compiled = _tpch()
    n = cluster.num_dpus
    before = _live(cluster.dpus)
    if op == "kill" and not state.get("killed"):
        # The coordinator dies mid-job; a survivor takes over and
        # re-executes its shard.
        cluster.fabric.schedule_kill(cluster.leader, cluster.engine.now + 500)
        state["killed"] = True
        result = cluster_compiled_query(
            cluster, compiled["q6"], _shard_fact(compiled["q6"], data, n))
        assert result.recovery.declared_dead
    elif op == "batched":
        cluster_batched_queries(cluster, [compiled["q1"], compiled["q6"]],
                                _shard_fact(compiled["q1"], data, n))
    elif op in ("pre_aggregate", "all_to_all"):
        cluster_compiled_query(cluster, compiled["q3"],
                               _shard_fact(compiled["q3"], data, n),
                               strategy=op)
    elif op == "serve":
        served = state.get("served") or state.setdefault(
            "served", _Served(cluster, data))
        served.segment()
        assert _live(cluster.dpus) == before
        served.write()
        served.segment()
    else:
        cluster_compiled_query(cluster, compiled["q1"],
                               _shard_fact(compiled["q1"], data, n))
    assert _live(cluster.dpus) == before, op


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 4]),
       st.lists(st.sampled_from(["q1", "pre_aggregate", "all_to_all",
                                 "batched", "kill", "serve"]),
                min_size=1, max_size=4))
def test_cluster_jobs_free_what_they_store(num_dpus, ops):
    """A drawn sequence of cluster jobs on one armed cluster: compiled
    queries under both strategies, a shared-scan batch, one
    coordinator kill and serving segments around a column write.
    Before jobs freed their DDR, every job left its shard columns and
    broadcasts live on each DPU."""
    cluster = Cluster(num_dpus, recovery_config=RecoveryConfig())
    state = {}
    for op in ops:
        _cluster_op(cluster, op, state)


# -- the same job, again ------------------------------------------------------


@pytest.mark.parametrize("name", ["q1", "q6"])
def test_compiled_query_repeats_on_one_dpu(name):
    """Three runs on one DPU read the cycles of the first, which ran on
    a fresh DPU, and leave nothing live. Before jobs freed their DDR,
    Q1 read 63,636.2 / 63,611.2 / 63,661.2 cycles and ended with
    1,929,936 B live."""
    data = generate_tpch(scale=0.004, seed=11)
    compiled = compile_query(load_query(name), tpch_catalog(data), name)
    dpu = DPU()
    runs = [compiled.run_dpu(dpu, data) for _ in range(3)]
    assert [abs(run.cycles - runs[0].cycles) < 1e-6 for run in runs] \
        == [True] * 3
    assert len({run.value for run in runs}) == 1
    assert dpu.heap.live_bytes() == 0


# -- a job that raises --------------------------------------------------------


def test_a_job_that_raises_keeps_what_it_stored():
    """No scope frees anything on an exception: each DPU keeps the
    shard it stored before the job raised. The same job returning
    normally frees its own shards, not the ones the failed job left."""
    cluster = Cluster(2)
    shards = np.array_split(np.arange(8192, dtype=np.int64), 2)
    raising = [True]

    def local(index, dpu, cores, inputs):
        table = Table(f"shard{index}", {"v": shards[index]}).to_dpu(dpu)
        result = dpu_filter(dpu, table, Between("v", 100, 500), cores=cores)
        if raising[0]:
            raise RuntimeError("the job fails after its scan")
        return int(result.detail["selected"]), result.cycles

    spec = scaleout._JobSpec(
        "raises", local, lambda total, partial: (total or 0) + partial,
        nbytes_of=lambda partial: 8, finish=lambda total: total)
    with pytest.raises(RuntimeError):
        scaleout._run_job(cluster, spec)
    kept = _live(cluster.dpus)
    assert kept == [32_768, 0]  # DPU 0's shard; DPU 1 never ran
    raising[0] = False
    assert scaleout._run_job(cluster, spec).value == 401
    assert _live(cluster.dpus) == kept
