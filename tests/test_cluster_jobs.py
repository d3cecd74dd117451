"""Every ``cluster_*`` job through the one job driver.

One job table covers the eight public jobs of
:mod:`repro.cluster.scaleout`, with the compiled-query job run as Q1
(``pre_aggregate``) and Q3 (``all_to_all``) and the shared-scan job
as a Q1+Q6+Q12 batch. Over that table:

* ``tests/goldens/cluster_jobs.json`` pins, for every job x {1, 2, 4,
  8} DPUs x {no chaos, worker kill, coordinator kill}: the value
  digest, ``cycles``, ``network_bytes``, ``retransmissions``,
  ``detail`` and the recovery counters. Regenerate deliberately
  with::

      PYTHONPATH=src python -m pytest tests/test_cluster_jobs.py --update-goldens

  and review the JSON diff like any other behavioural change.
* a seeded chaos matrix (job x {2, 4, 8} DPUs x {worker kill,
  coordinator kill, two ``chaos_plan`` draws}) checks byte-equality
  with the one-DPU run, the declared deaths and elected leader, and
  per-job byte accounting;
* the admission gate (shed, degrade, release on failure) holds for
  every job.
"""

import json

import numpy as np
import pytest

from repro.apps.sql import (
    AggSpec,
    Between,
    Table,
    compile_query,
    dpu_filter,
    load_query,
    tpch_catalog,
)
from repro.cluster import (
    Cluster,
    cluster_batched_queries,
    cluster_compiled_query,
    cluster_filter_count,
    cluster_groupby,
    cluster_hll,
    cluster_partitioned_join_count,
    cluster_topk,
    cluster_tpch_q1,
)
from repro.cluster import scaleout
from repro.core.dpu import DPU
from repro.faults import ChaosSpec, FaultPlan, chaos_plan
from repro.runtime.admission import AdmissionController, OverloadError
from repro.workloads.tpch import generate_tpch
from test_equivalence import GOLDEN_DIR, digest

GOLDEN = GOLDEN_DIR / "cluster_jobs.json"
DPU_COUNTS = (1, 2, 4, 8)
CHAOS = ("none", "worker_kill", "coordinator_kill")
# Two chaos_plan draws (one kill over every DPU, coordinator included)
# that between them hit the coordinator and workers at each size.
CHAOS_SEEDS = (3, 5)
AGGS = [AggSpec("sum", "v"), AggSpec("count")]


def _shard(columns, num_shards, name="shard"):
    total = len(next(iter(columns.values())))
    bounds = [total * i // num_shards for i in range(num_shards + 1)]
    return [
        Table(f"{name}{i}",
              {n: c[bounds[i]:bounds[i + 1]] for n, c in columns.items()})
        for i in range(num_shards)
    ]


def _project(table, names):
    return {name: table[name] for name in names}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    tpch = generate_tpch(scale=0.002, seed=11)
    catalog = tpch_catalog(tpch)
    compiled = {name: compile_query(load_query(name), catalog, name)
                for name in ("q1", "q3", "q6", "q12")}
    return {
        "hll": rng.integers(0, 1 << 40, 30_000, dtype=np.uint64),
        "values": rng.integers(0, 1000, 8000, dtype=np.int64),
        "gb": {
            "k": rng.integers(0, 64, 12_000).astype(np.int64),
            "v": rng.integers(0, 1000, 12_000).astype(np.int64),
        },
        "build": {"k": rng.integers(0, 500, 4000).astype(np.uint32)},
        "probe": {"k": rng.integers(0, 500, 6000).astype(np.uint32)},
        "topk": {"x": rng.permutation(16_000).astype(np.uint32)},
        "lineitem": tpch.tables["lineitem"],
        "compiled": compiled,
    }


def _compiled(name, strategy):
    def run(cluster, n, d):
        compiled = d["compiled"][name]
        shards = _shard(_project(d["lineitem"], compiled.needed_columns),
                        n, "lineitem")
        return cluster_compiled_query(cluster, compiled, shards,
                                      strategy=strategy)
    return run


def _batch(cluster, n, d):
    batch = [d["compiled"][name] for name in ("q1", "q6", "q12")]
    return cluster_batched_queries(cluster, batch,
                                   _shard(d["lineitem"], n, "lineitem"))


# name -> run(cluster, num_dpus, data) -> ScaleOutResult
JOBS = {
    "hll": lambda c, n, d: cluster_hll(c, list(np.array_split(d["hll"], n))),
    "filter_count": lambda c, n, d: cluster_filter_count(
        c, list(np.array_split(d["values"], n)), 100, 500),
    "groupby": lambda c, n, d: cluster_groupby(
        c, _shard(d["gb"], n), "k", AGGS),
    "join": lambda c, n, d: cluster_partitioned_join_count(
        c, _shard(d["build"], n, "b"), "k", _shard(d["probe"], n, "p"), "k"),
    "topk": lambda c, n, d: cluster_topk(c, _shard(d["topk"], n), "x", 25),
    "tpch_q1": lambda c, n, d: cluster_tpch_q1(
        c, _shard(d["lineitem"], n, "li")),
    "sql_q1_pre_aggregate": _compiled("q1", "pre_aggregate"),
    "sql_q3_all_to_all": _compiled("q3", "all_to_all"),
    "sql_batch_q1_q6_q12": _batch,
}

# The filter partials are tiny and fast: kill early, before the
# victim's send can beat the fail-stop instant.
KILL_AT = {"filter_count": 500.0}


def _plan(job, num_dpus, chaos):
    """``chaos`` is none, worker_kill, coordinator_kill or seed<N>: a
    drawn kill no later than the fixed kills' instant."""
    kill_at = KILL_AT.get(job, 15_000.0)
    if chaos == "none":
        return None
    if chaos.startswith("seed"):
        return chaos_plan(int(chaos[4:]), num_dpus, kill_at, kills=1,
                          include_coordinator=True)
    victim = 0 if chaos == "coordinator_kill" else 1
    return FaultPlan.none().with_chaos(
        ChaosSpec("dpu.dead", (victim,), at_cycle=kill_at))


@pytest.fixture(scope="module")
def runs(data):
    """``run(job, num_dpus, chaos)``: each case once, on a fresh
    cluster, as (result, leader after the job, fabric bytes sent
    during the call)."""
    cache = {}

    def run(job, num_dpus, chaos):
        key = (job, num_dpus, chaos)
        if key not in cache:
            cluster = Cluster(num_dpus,
                              fault_plan=_plan(job, num_dpus, chaos))
            before = cluster.fabric.bytes_sent
            result = JOBS[job](cluster, num_dpus, data)
            cache[key] = (result, cluster.leader,
                          cluster.fabric.bytes_sent - before)
        return cache[key]

    return run


# -- pin golden ---------------------------------------------------------------


def test_cluster_jobs_golden(runs, request):
    observed = {}
    for job in JOBS:
        for num_dpus in DPU_COUNTS:
            for chaos in CHAOS if num_dpus > 1 else ("none",):
                result = runs(job, num_dpus, chaos)[0]
                observed[f"{job}/{num_dpus}dpu/{chaos}"] = {
                    "digest": digest(result.value),
                    "cycles": float(result.cycles),
                    "network_bytes": int(result.network_bytes),
                    "retransmissions": int(result.retransmissions),
                    "detail": result.detail,
                    "recovery": (result.recovery.counters()
                                 if result.recovery is not None else None),
                }
    # The phase spans are disjoint stretches of the job, on every path.
    overlong = [key for key, entry in observed.items()
                if entry["detail"]["parallel_cycles"] > entry["cycles"]]
    assert not overlong, overlong
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True)
                          + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(observed)
    diverged = [
        f"{key}: {field} golden {golden[key][field]!r} != "
        f"observed {observed[key][field]!r}"
        for key in sorted(golden) for field in sorted(golden[key])
        if golden[key][field] != observed[key][field]
    ]
    assert not diverged, "\n".join(diverged)


# -- seeded chaos matrix ------------------------------------------------------


@pytest.mark.parametrize(
    "chaos", ["worker_kill", "coordinator_kill"]
    + [f"seed{seed}" for seed in CHAOS_SEEDS])
@pytest.mark.parametrize("num_dpus", [2, 4, 8])
@pytest.mark.parametrize("job", list(JOBS))
def test_chaos_matrix(runs, job, num_dpus, chaos):
    result, leader, bytes_sent = runs(job, num_dpus, chaos)
    reference = runs(job, 1, "none")[0]
    assert result.value == reference.value
    assert digest(result.value) == digest(reference.value)
    ((victim,),) = [spec.targets
                    for spec in _plan(job, num_dpus, chaos).chaos]
    stats = result.recovery
    assert stats.declared_dead == (victim,)
    # Deterministic election: the lowest surviving index leads.
    assert stats.leader_changes == (1 if victim == 0 else 0)
    assert leader == (1 if victim == 0 else 0)
    assert result.network_bytes == bytes_sent


@pytest.mark.parametrize("job, name", [("sql_q1_pre_aggregate", "q1"),
                                       ("sql_q3_all_to_all", "q3")])
def test_compiled_query_is_the_one_query_shared_scan(data, runs, job, name):
    # CompiledQuery.run_local is the standalone form of one shard.
    compiled = data["compiled"][name]
    groups, cycles = compiled.run_local(
        DPU(), _project(data["lineitem"], compiled.needed_columns))
    result = runs(job, 1, "none")[0]
    assert result.value == compiled.finish(groups)
    assert result.detail["local_cycles"] == cycles


@pytest.mark.parametrize("chaos", ["none", "coordinator_kill"])
def test_driver_merges_each_index_once_in_order(data, runs, chaos):
    shards = np.array_split(data["values"], 4)
    computed, merged = [], []

    def local(index, dpu, cores, inputs):
        computed.append(index)
        table = Table(f"shard{index}", {"v": shards[index]}).to_dpu(dpu)
        result = dpu_filter(dpu, table, Between("v", 100, 500), cores=cores)
        return (index, int(result.detail["selected"])), result.cycles

    def merge(total, partial):
        merged.append(partial[0])
        return (total or 0) + partial[1]

    spec = scaleout._JobSpec("exactly_once", local, merge,
                             nbytes_of=lambda partial: 16,
                             finish=lambda total: total)
    cluster = Cluster(4, fault_plan=_plan("filter_count", 4, chaos))
    result = scaleout._run_job(cluster, spec)
    assert result.value == runs("filter_count", 1, "none")[0].value
    if chaos == "none":
        # The fault-free gather merges in arrival order.
        assert sorted(merged) == [0, 1, 2, 3]
        assert computed == [0, 1, 2, 3]
    else:
        # The dead coordinator's shard ran again on a survivor, yet
        # merged once, in index order: one result under two leaders.
        assert merged == [0, 1, 2, 3]
        assert len(computed) > 4
        assert result.recovery.leader_changes == 1


# -- admission through the driver ---------------------------------------------


@pytest.fixture
def launches(monkeypatch):
    """Every DPU launch during the test, as (DPU name, core list)."""
    calls = []
    launch = DPU.launch

    def recording(self, kernel, args=(), cores=None, **kwargs):
        cores = None if cores is None else list(cores)
        calls.append((self.name, cores))
        return launch(self, kernel, args, cores, **kwargs)

    monkeypatch.setattr(DPU, "launch", recording)
    return calls


def _saturated(cluster, policy):
    """A one-slot controller whose slot an outside job holds."""
    controller = cluster.set_admission(AdmissionController(
        cluster.engine, max_concurrent=1, policy=policy))
    cluster.admit_job("holder")
    return controller


@pytest.mark.parametrize("job", list(JOBS))
def test_saturated_shed_rejects_before_any_launch(data, launches, job):
    cluster = Cluster(2)
    controller = _saturated(cluster, "shed")
    with pytest.raises(OverloadError):
        JOBS[job](cluster, 2, data)
    assert launches == []
    assert controller.shed == 1
    assert controller.limiter.running == 1  # the holder only
    cluster.release_job()
    assert controller.limiter.running == 0


@pytest.mark.parametrize("job", list(JOBS))
def test_saturated_degrade_runs_at_reduced_fanout(data, runs, launches,
                                                  job):
    cluster = Cluster(2)
    controller = _saturated(cluster, "degrade")
    result = JOBS[job](cluster, 2, data)
    assert result.degraded
    assert digest(result.value) == digest(runs(job, 1, "none")[0].value)
    assert controller.limiter.running == 1
    assert controller.occupancy()["running"] == 1
    if job in ("hll", "filter_count"):
        # The operators that take a core list run on half the cores.
        full = len(cluster.config.core_ids)
        assert {len(cores) for _name, cores in launches} == {full // 2}


@pytest.mark.parametrize("job", list(JOBS))
def test_failing_job_releases_its_slot(data, monkeypatch, job):
    cluster = Cluster(2)
    controller = cluster.set_admission(AdmissionController(
        cluster.engine, max_concurrent=1))

    def broken(*args, **kwargs):
        raise RuntimeError("launch failed")

    # DPU 1's first launch is its local phase (merge-only jobs) or its
    # exchange partition (exchange jobs): inside the driver either way.
    monkeypatch.setattr(cluster.dpus[1], "launch", broken)
    with pytest.raises(RuntimeError, match="launch failed"):
        JOBS[job](cluster, 2, data)
    assert controller.admitted == 1
    assert controller.limiter.running == 0
