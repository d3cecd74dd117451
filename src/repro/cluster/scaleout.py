"""Scale-out algorithms across a DPU cluster (paper §4).

"Such system services allowed us to scale several of the applications
in Section 5 across 500+ DPU clusters." The communication path is the
one the paper describes: dpCores never touch the network — a
designated core mailboxes its partial result (a pointer-sized
message; bulk stays in DRAM) to the local **A9**, which runs the
Infiniband stack and ships it to the coordinator DPU's A9.

Every job is a :class:`_JobSpec` — a per-shard ``local`` phase, a
``merge`` of partials, their wire size, a ``finish`` on the merged
value, and zero or more hash exchanges — and one driver,
:func:`_run_job`, runs every spec. The **merge-only** jobs
(:func:`cluster_hll`, :func:`cluster_filter_count`,
:func:`cluster_topk`, :func:`cluster_tpch_q1`, the ``pre_aggregate``
strategy of :func:`cluster_compiled_query` and
:func:`cluster_batched_queries`) work on each shard in place and ship
only small partials — with NDV ~4, a Q1 group table (a few hundred
bytes) beats shuffling the whole lineitem, the classic
aggregate-pushdown tradeoff. The **exchange-based** jobs
(:func:`cluster_groupby`, :func:`cluster_partitioned_join_count` and
the ``all_to_all`` strategy) first redistribute rows with the
:mod:`~repro.cluster.shuffle` partitioned exchange so each DPU owns a
disjoint key range.

:func:`_run_job` alone picks the path, by two rules:

1. **One DPU:** ``local`` runs for shard 0 on DPU 0 and the lone
   partial is finished; no exchange, no gather, no fabric traffic.
2. **A cluster:** every exchange's tables are stored on their home
   DPUs, then each exchange runs through the one exchange,
   :meth:`~repro.cluster.recovery.RecoveryManager.run_exchange`;
   ``local`` runs for every DPU (or exchange slot) in order inside the
   one gather, :meth:`~repro.cluster.recovery.RecoveryManager.run_job`,
   which ships the partials to the coordinator and merges them once,
   in index order. With no chaos plan armed both take only the
   fault-free steps and the coordinator is DPU 0; under a plan they
   become retry loops that address partials to the *current elected
   leader* — DPU 0 until it dies, the lowest surviving index
   afterwards — and still hand back exactly one
   :class:`ScaleOutResult` per job.

Every job reports **per-job** fabric accounting: ``network_bytes``
and ``retransmissions`` are deltas from the job's start, so
back-to-back jobs on one long-lived cluster don't absorb each other's
traffic. Every job also reports its phase breakdown in ``detail``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..apps.hll import HllSketch, dpu_hll, hll_estimate
from ..apps.sql import Between, Table, dpu_filter
from ..apps.sql.aggregate import _needed_columns, dpu_groupby, merge_groups
from ..apps.sql.join import dpu_partitioned_join_count
from ..apps.sql.topk import dpu_topk
from ..apps.sql.tpch_queries import q1_plan
from .rack import Cluster
from .recovery import RecoveryManager, RecoveryStats

__all__ = [
    "ScaleOutResult",
    "cluster_batched_queries",
    "cluster_compiled_query",
    "cluster_filter_count",
    "cluster_groupby",
    "cluster_hll",
    "cluster_partitioned_join_count",
    "cluster_topk",
    "cluster_tpch_q1",
]


@dataclass
class ScaleOutResult:
    """Outcome of one distributed job."""

    value: Any
    cycles: float
    num_dpus: int
    clock_hz: float
    # Per-job deltas (snapshot at job start minus at completion), NOT
    # cluster-lifetime counters: a second job on the same cluster
    # reports only its own traffic.
    network_bytes: int
    # Admission outcome (see repro.runtime.admission): True when the
    # coordinator admitted this job at reduced per-DPU core fanout.
    # Only cluster_hll's and cluster_filter_count's operators take a
    # core list, so only they run narrower; the other jobs report the
    # flag and run every core.
    degraded: bool = False
    retransmissions: int = 0
    # Phase breakdown of every job (partition_cycles, exchange_cycles,
    # local_cycles, gather_cycles, parallel_cycles, rows_moved; plus
    # batch for a shared scan) — feeds ShuffleRackModel calibration.
    detail: Optional[Dict[str, float]] = None
    # Recovery outcome when the cluster ran this job under an armed
    # plan (declared deaths, re-executed shards, speculative wins...);
    # None with nothing armed.
    recovery: Optional[RecoveryStats] = None

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz


@dataclass
class _JobSpec:
    """One cluster job, as :func:`_run_job` runs it.

    ``local(index, dpu, cores, inputs)`` computes shard (or exchange
    slot) ``index`` on ``dpu`` and returns ``(partial, cycles)``. It
    must be deterministic: recovery may re-run it on a survivor.
    ``cores`` is the admission ticket's core fanout (``None`` without
    an admission controller); ``inputs`` holds, per exchange, the
    slot's columns — the host table's own columns on one DPU. ``merge``
    folds partials one at a time starting from ``None``, in index
    order. ``nbytes_of`` is a partial's wire size, and ``finish`` turns
    the merged value (or the lone partial on one DPU) into the job's
    value. Each exchange is ``(label, one host table per DPU, key,
    column names)``.
    """

    site: str
    local: Callable[[int, Any, Optional[list], list], Tuple[Any, float]]
    merge: Callable[[Any, Any], Any]
    nbytes_of: Callable[[Any], int]
    finish: Callable[[Any], Any]
    exchanges: Sequence[Tuple[str, Sequence[Table], str, Sequence[str]]] = ()


def _run_job(cluster: Cluster, spec: _JobSpec) -> ScaleOutResult:
    """Run one job spec: the only place that picks a path (one DPU or
    a cluster), admits and releases the job, and builds its
    :class:`ScaleOutResult`. Each local phase runs on the shared clock
    in turn; the exchanges and the gather are concurrent.
    """
    engine = cluster.engine
    fabric = cluster.fabric
    start = engine.now
    start_bytes = fabric.bytes_sent
    start_retransmissions = fabric.retransmissions
    # Admission gate (queue time counts toward the job's latency; a
    # shed raises OverloadError before any DPU does work).
    ticket = cluster.admit_job(f"cluster.{spec.site}")
    local_cycles = 0.0
    shuffled = []
    # Per exchange, the columns of every slot (of the host table on
    # one DPU, where nothing is shuffled).
    slots = [[tables[0].columns] for _label, tables, _key, _names
             in spec.exchanges]

    def compute(index, dpu):
        nonlocal local_cycles
        cores = (ticket.fanout(list(dpu.config.core_ids))
                 if ticket is not None else None)
        partial, cycles = spec.local(index, dpu, cores,
                                     [columns[index] for columns in slots])
        local_cycles = max(local_cycles, cycles)
        return partial

    recovery = None
    try:
        if cluster.num_dpus == 1:
            value = compute(0, cluster.dpus[0])
            gather_cycles = 0.0
        else:
            # Every exchange's tables are resident on their home DPUs
            # before the first partition launch.
            stored = [[table.to_dpu(dpu)
                       for table, dpu in zip(tables, cluster.dpus)]
                      for _label, tables, _key, _names in spec.exchanges]
            with RecoveryManager.for_job(cluster, spec.site) as manager:
                shuffled = [
                    manager.run_exchange(label, dtables, key, names)
                    for dtables, (label, _tables, key, names)
                    in zip(stored, spec.exchanges)
                ]
                slots = [result.columns for result in shuffled]
                value, gather_cycles = manager.run_job(
                    spec.site, compute, spec.merge, spec.nbytes_of,
                    owners=(dict(manager.last_slot_owner)
                            if shuffled else None),
                )
            if manager.armed:
                recovery = manager.stats
    finally:
        cluster.release_job()

    network_bytes = fabric.bytes_sent - start_bytes
    partition_cycles = sum(s.partition_cycles for s in shuffled)
    exchange_cycles = sum(s.exchange_cycles for s in shuffled)
    detail = {
        "partition_cycles": float(partition_cycles),
        "exchange_cycles": float(exchange_cycles),
        "local_cycles": float(local_cycles),
        "gather_cycles": float(gather_cycles),
        # Critical-path estimate: the per-DPU phases overlap across
        # DPUs in a real rack (the shared-clock sim runs them in
        # turn), so parallel time is max-per-phase, not the sum of
        # every DPU's launch.
        "parallel_cycles": float(partition_cycles + exchange_cycles
                                 + local_cycles + gather_cycles),
        "rows_moved": float(sum(s.rows_moved for s in shuffled)),
    }
    if fabric.trace.enabled:
        fabric.trace.complete_async(
            f"cluster.{spec.site}", "cluster", start,
            num_dpus=cluster.num_dpus, network_bytes=network_bytes,
        )
    return ScaleOutResult(
        value=spec.finish(value),
        cycles=engine.now - start,
        num_dpus=cluster.num_dpus,
        clock_hz=cluster.config.clock_hz,
        network_bytes=network_bytes,
        retransmissions=fabric.retransmissions - start_retransmissions,
        degraded=bool(ticket.degraded) if ticket is not None else False,
        detail=detail,
        recovery=recovery,
    )


# -- shared merges ------------------------------------------------------------


def _add(accumulator, count):
    return (accumulator or 0) + count


def _union(accumulator, partial):
    merged = accumulator if accumulator is not None else {}
    merged.update(partial)  # disjoint key sets: plain union
    return merged


def _merge_groups(aggs):
    """Pre-aggregated group tables, combined with the paper's merge
    operator (:func:`~repro.apps.sql.aggregate.merge_groups`)."""
    return lambda accumulator, partial: merge_groups(
        [partial] if accumulator is None else [accumulator, partial], aggs)


def _group_bytes(record_bytes):
    return lambda groups: max(record_bytes * len(groups), 8)


def _validate_shards(cluster: Cluster, shards, what="shards") -> None:
    if len(shards) != cluster.num_dpus:
        raise ValueError(
            f"{len(shards)} {what} for {cluster.num_dpus} DPUs"
        )


# -- merge-only jobs ----------------------------------------------------------


def cluster_hll(
    cluster: Cluster,
    shards: Sequence[np.ndarray],
    precision: int = 12,
    hash_fn: str = "crc32",
) -> ScaleOutResult:
    """Distributed HyperLogLog over one u64 shard per DPU."""
    _validate_shards(cluster, shards)

    def local(index, dpu, cores, inputs):
        shard = shards[index]
        result = dpu_hll(dpu, dpu.store_array(shard), len(shard),
                         precision=precision, hash_fn=hash_fn, cores=cores)
        return result.detail["registers"], result.cycles

    def merge(accumulator, registers):
        if accumulator is None:
            return registers.copy()
        np.maximum(accumulator, registers, out=accumulator)
        return accumulator

    return _run_job(cluster, _JobSpec(
        "hll", local, merge,
        nbytes_of=lambda registers: 1 << precision,
        finish=lambda registers: hll_estimate(
            HllSketch(precision, registers)),
    ))


def cluster_filter_count(
    cluster: Cluster,
    shards: Sequence[np.ndarray],
    lo: int,
    hi: int,
) -> ScaleOutResult:
    """Distributed selective count: FILT each shard, ship counts."""
    _validate_shards(cluster, shards)
    predicate = Between("v", lo, hi)

    def local(index, dpu, cores, inputs):
        table = Table(f"shard{index}", {"v": shards[index]})
        result = dpu_filter(dpu, table.to_dpu(dpu), predicate, cores=cores)
        return int(result.detail["selected"]), result.cycles

    return _run_job(cluster, _JobSpec(
        "filter_count", local, _add,
        nbytes_of=lambda count: 8, finish=lambda count: count,
    ))


def cluster_topk(
    cluster: Cluster,
    shards: Sequence[Table],
    column: str,
    k: int,
) -> ScaleOutResult:
    """Distributed top-k: local top-k per shard (row ids offset to the
    global row space), candidates gathered and re-ranked at the
    coordinator — no repartition needed, the two-phase scheme of
    :func:`~repro.apps.sql.topk.dpu_topk` lifted to the cluster.
    Byte-equal to the single-DPU result when values are distinct (with
    duplicates at the k-boundary, which tied rows survive depends on
    the sharding — same caveat as the per-core merge)."""
    _validate_shards(cluster, shards)
    offsets = np.cumsum([0] + [shard.num_rows for shard in shards])

    def local(index, dpu, cores, inputs):
        result = dpu_topk(dpu, shards[index].to_dpu(dpu), column, k)
        base = int(offsets[index])
        return ([(value, row + base) for value, row in result.value],
                result.cycles)

    def merge(accumulator, candidates):
        merged = accumulator if accumulator is not None else []
        merged.extend(candidates)
        return merged

    return _run_job(cluster, _JobSpec(
        "topk", local, merge,
        nbytes_of=lambda candidates: max(16 * len(candidates), 8),
        finish=lambda candidates: sorted(candidates or [],
                                         reverse=True)[:k],
    ))


def cluster_tpch_q1(
    cluster: Cluster,
    lineitem_shards: Sequence[Table],
) -> ScaleOutResult:
    """Distributed TPC-H Q1 over row-sharded lineitem.

    Q1 groups into ~4 buckets, so each DPU runs the full local Q1 plan
    on its shard and only the tiny partial group tables cross the
    fabric, combined with the paper's merge operator
    (:func:`~repro.apps.sql.aggregate.merge_groups`) — shuffling the
    shards would move ~6 columns of lineitem to save a 4-row merge.
    All Q1 aggregates are integer sums/counts, so the distributed
    result is byte-equal to the single-DPU plan."""
    _validate_shards(cluster, lineitem_shards, "lineitem shards")
    key, aggs, row_filter = q1_plan()

    def local(index, dpu, cores, inputs):
        result = dpu_groupby(dpu, lineitem_shards[index].to_dpu(dpu), key,
                             aggs, row_filter=row_filter)
        return result.value, result.cycles

    return _run_job(cluster, _JobSpec(
        "tpch_q1", local, _merge_groups(aggs),
        nbytes_of=_group_bytes(8 + 8 * len(aggs)),
        finish=lambda groups: groups or {},
    ))


# -- exchange-based jobs ------------------------------------------------------


def cluster_groupby(
    cluster: Cluster,
    shards: Sequence[Table],
    key: str,
    aggs,
    row_filter=None,
) -> ScaleOutResult:
    """Distributed group-by: shuffle rows by ``hash(key)`` so each DPU
    owns a disjoint key set, group locally, union the disjoint partial
    tables at the coordinator. Byte-equal to
    :func:`~repro.apps.sql.aggregate.dpu_groupby` over the
    concatenated shards (integer inputs; float sums below 2^53 are
    order-independent)."""
    _validate_shards(cluster, shards)
    if not isinstance(key, str):
        raise ValueError(
            "cluster_groupby shuffles on a single key column; composite "
            "GroupKeys belong in pre-aggregating jobs (see cluster_tpch_q1)"
        )
    names = _needed_columns(key, aggs, row_filter)

    def local(index, dpu, cores, inputs):
        (columns,) = inputs
        if len(columns[key]) == 0:
            return {}, 0.0
        dtable = Table(f"shuffle{index}", columns).to_dpu(dpu)
        result = dpu_groupby(dpu, dtable, key, aggs, row_filter=row_filter)
        return result.value, result.cycles

    return _run_job(cluster, _JobSpec(
        "groupby", local, _union,
        nbytes_of=_group_bytes(8 + 8 * len(aggs)),
        finish=lambda groups: groups or {},
        exchanges=[("groupby", shards, key, names)],
    ))


def cluster_partitioned_join_count(
    cluster: Cluster,
    build_shards: Sequence[Table],
    build_key: str,
    probe_shards: Sequence[Table],
    probe_key: str,
) -> ScaleOutResult:
    """Distributed join cardinality: shuffle both tables on their join
    keys (same hash), join each co-located pair with the 32-way
    intra-DPU partitioned join, sum the match counts."""
    _validate_shards(cluster, build_shards, "build shards")
    _validate_shards(cluster, probe_shards, "probe shards")

    def local(index, dpu, cores, inputs):
        build_columns, probe_columns = inputs
        if (len(build_columns[build_key]) == 0
                or len(probe_columns[probe_key]) == 0):
            return 0, 0.0
        build = Table(f"build{index}", build_columns).to_dpu(dpu)
        probe = Table(f"probe{index}", probe_columns).to_dpu(dpu)
        result = dpu_partitioned_join_count(dpu, build, build_key,
                                            probe, probe_key)
        return int(result.value), result.cycles

    return _run_job(cluster, _JobSpec(
        "join", local, _add,
        nbytes_of=lambda count: 8, finish=lambda count: int(count or 0),
        exchanges=[("join.build", build_shards, build_key, [build_key]),
                   ("join.probe", probe_shards, probe_key, [probe_key])],
    ))


# -- compiled SQL jobs --------------------------------------------------------


def _shared_scan(site: str, batch: Sequence, shards: Sequence[Table],
                 shuffle_key: Optional[str] = None) -> _JobSpec:
    """The shared-scan spec: one union table stored per DPU; each
    query's group-by streams only its own needed columns from the
    resident copy, so per-query results and cycles match the
    standalone plan exactly. Partials are one group table per query,
    merged per query with
    :func:`~repro.apps.sql.aggregate.merge_groups`. A ``shuffle_key``
    first repartitions the needed columns by that key."""
    fact = batch[0].fact
    union_names = list(dict.fromkeys(
        name for compiled in batch for name in compiled.needed_columns
    ))
    merges = [_merge_groups(compiled.aggs) for compiled in batch]
    exchanges = []
    if shuffle_key is not None:
        projected = [Table(shard.name, {name: shard.columns[name]
                                        for name in union_names})
                     for shard in shards]
        exchanges = [(site, projected, shuffle_key, union_names)]

    def local(index, dpu, cores, inputs):
        columns = inputs[0] if inputs else shards[index].columns
        if not columns or len(next(iter(columns.values()))) == 0:
            return [{} for _ in batch], 0.0
        dtable = Table(f"{fact}_shard{index}",
                       {name: columns[name] for name in union_names}
                       ).to_dpu(dpu)
        partials = []
        cycles = 0.0
        for compiled in batch:
            result = dpu_groupby(
                dpu, dtable, compiled.key, compiled.aggs,
                row_filter=compiled.row_filter,
                broadcasts=compiled._dpu_broadcasts(dpu),
            )
            partials.append(result.value)
            cycles += result.cycles
        return partials, cycles

    def merge(accumulator, partials):
        if accumulator is None:
            accumulator = [None] * len(batch)
        return [merge_one(merged, partial) for merge_one, merged, partial
                in zip(merges, accumulator, partials)]

    def nbytes_of(partials):
        return max(8, sum(compiled.record_bytes * len(partial)
                          for compiled, partial in zip(batch, partials)))

    def finish(merged):
        return tuple(compiled.finish(groups or {})
                     for compiled, groups in zip(batch, merged))

    return _JobSpec(site, local, merge, nbytes_of, finish, exchanges)


def cluster_compiled_query(
    cluster: Cluster,
    compiled,
    shards: Sequence[Table],
    strategy: Optional[str] = None,
) -> ScaleOutResult:
    """Run a planner-compiled SQL query
    (:class:`~repro.apps.sql.physical.CompiledQuery`) over row-sharded
    fact tables.

    ``strategy`` defaults to the exchange the cost-based planner chose
    (``compiled.plan["exchange"]["choice"]``):

    - ``pre_aggregate``: each DPU runs the full local plan on its
      shard and only partial group tables cross the fabric, merged
      with :func:`~repro.apps.sql.aggregate.merge_groups` (the only
      legal strategy for computed group keys) — the one-query case of
      :func:`cluster_batched_queries`.
    - ``all_to_all``: shuffle the fact rows by the single-column group
      key so each DPU owns a disjoint key set, group locally, merge
      the disjoint partials.

    The coordinator applies ``compiled.finish`` (decode / gather /
    sort / limit) to the merged groups, so the value is byte-equal to
    ``compiled.run_dpu`` and ``compiled.run_xeon`` over the
    concatenated shards (all aggregates are integer-valued float sums
    below 2^53, hence order-independent)."""
    _validate_shards(cluster, shards, "fact shards")
    if strategy is None:
        strategy = compiled.plan["exchange"]["choice"]
    if strategy not in ("pre_aggregate", "all_to_all"):
        raise ValueError(f"unknown exchange strategy {strategy!r}")
    if strategy == "all_to_all" and compiled.key_column is None:
        raise ValueError(
            f"{compiled.name}: all_to_all shuffles on a single key column; "
            "computed group keys only support pre_aggregate"
        )
    spec = _shared_scan(
        f"sql.{compiled.name}", [compiled], shards,
        compiled.key_column if strategy == "all_to_all" else None,
    )
    return _run_job(cluster, replace(
        spec, finish=lambda merged: spec.finish(merged)[0]))


def cluster_batched_queries(
    cluster: Cluster,
    batch: Sequence,
    shards: Sequence[Table],
) -> ScaleOutResult:
    """Run several compiled queries over **one shared fact scan**.

    The serving layer's batching primitive
    (:mod:`repro.serve`): every
    :class:`~repro.apps.sql.physical.CompiledQuery` in ``batch`` must
    read the same fact table (equal
    :attr:`~repro.apps.sql.physical.CompiledQuery.batch_key`), and no
    two members may have recorded different versions of a column they
    both read (plans lowered on either side of a write to it). Each
    DPU stores the *union* of the batch's needed columns once, then
    runs every query's group-by against that single resident copy —
    the DRAM image, admission ticket, and gather round-trip are paid
    once per batch instead of once per query. Partial group tables for
    the whole batch travel to the coordinator in one message per DPU
    and merge per-query with
    :func:`~repro.apps.sql.aggregate.merge_groups` (the
    ``pre_aggregate`` exchange lifted to a query list).

    ``value`` is a tuple of finished row tuples, aligned with
    ``batch`` order; each element is byte-equal to running that query
    alone through :func:`cluster_compiled_query` over the same shards.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("empty query batch")
    fact = batch[0].fact
    seen: Dict[Tuple[str, str], Tuple[int, str]] = {}
    for compiled in batch:
        if compiled.batch_key != batch[0].batch_key:
            raise ValueError(
                f"{compiled.name} (fact {compiled.fact!r}) cannot share a "
                f"scan with {batch[0].name} (fact {fact!r})")
        for column, version in zip(compiled.reads, compiled.read_versions):
            other_version, other = seen.setdefault(
                column, (version, compiled.name))
            if other_version != version:
                raise ValueError(
                    f"{compiled.name} (read {column[0]}.{column[1]} at "
                    f"v{version}) cannot share a scan with {other} (read "
                    f"it at v{other_version})")
    _validate_shards(cluster, shards, "fact shards")
    site = "sql.batch[" + "+".join(c.name for c in batch) + "]"
    result = _run_job(cluster, _shared_scan(site, batch, shards))
    result.detail["batch"] = float(len(batch))
    return result
