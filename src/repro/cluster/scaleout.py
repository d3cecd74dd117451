"""Scale-out algorithms across a DPU cluster (paper §4).

"Such system services allowed us to scale several of the applications
in Section 5 across 500+ DPU clusters." The communication path is the
one the paper describes: dpCores never touch the network — a
designated core mailboxes its partial result (a pointer-sized
message; bulk stays in DRAM) to the local **A9**, which runs the
Infiniband stack and ships it to the coordinator DPU's A9.

Two job families:

* **merge-only** — :func:`cluster_hll` (lossless register-file merge)
  and :func:`cluster_filter_count` (sum of per-shard counts): each
  DPU works on its shard in place; only tiny partials cross the
  fabric.

* **exchange-based** — :func:`cluster_groupby`,
  :func:`cluster_partitioned_join_count` and :func:`cluster_topk`
  redistribute (or rank) rows with the
  :mod:`~repro.cluster.shuffle` partitioned exchange so each DPU owns
  a disjoint key range; :func:`cluster_tpch_q1` instead pre-aggregates
  per shard and merges 4-group partials — with NDV ~4, shipping the
  group table (a few hundred bytes) beats shuffling the whole
  lineitem, the classic aggregate-pushdown tradeoff.

Every job reports **per-job** fabric accounting: ``network_bytes``
and ``retransmissions`` are deltas from the job's start, so
back-to-back jobs on one long-lived cluster don't absorb each other's
traffic.

On the fault-free path the coordinator is pinned to DPU 0. Under a
chaos plan every job runs through the
:class:`~repro.cluster.recovery.RecoveryManager` retry loops instead,
which address partials to the *current elected leader* — DPU 0 until
it dies, the lowest surviving index afterwards — and still hand back
exactly one :class:`ScaleOutResult` per job (merge happens once, on
the final leader, after every shard arrived).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.hll import HllSketch, dpu_hll, hll_estimate
from ..apps.sql import Between, Table, dpu_filter
from ..apps.sql.aggregate import (
    _as_row_filter,
    _needed_columns,
    dpu_groupby,
    merge_groups,
)
from ..apps.sql.join import dpu_partitioned_join_count
from ..apps.sql.topk import dpu_topk
from ..apps.sql.tpch_queries import q1_plan
from ..core.mailbox import A9_ID
from .rack import Cluster
from .recovery import ClusterError, RecoveryStats
from .shuffle import shuffle_exchange

__all__ = [
    "ScaleOutResult",
    "cluster_batched_queries",
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
    degraded: bool = False
    retransmissions: int = 0
    # Phase breakdown for exchange-based jobs (partition_cycles,
    # exchange_cycles, local_cycles, gather_cycles, parallel_cycles,
    # rows_moved) — feeds ShuffleRackModel calibration.
    detail: Optional[Dict[str, float]] = None
    # Recovery outcome when the cluster ran this job under a chaos
    # plan (declared deaths, re-executed shards, speculative wins...);
    # None on the fault-free path.
    recovery: Optional[RecoveryStats] = None

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz


class _JobAccounting:
    """Snapshot fabric counters at job start; build per-job results."""

    def __init__(self, cluster: Cluster, site: str) -> None:
        self.cluster = cluster
        self.site = site
        self.start = cluster.engine.now
        self.start_bytes = cluster.fabric.bytes_sent
        self.start_retransmissions = cluster.fabric.retransmissions

    def result(self, value, ticket, detail=None,
               recovery=None) -> ScaleOutResult:
        cluster = self.cluster
        fabric = cluster.fabric
        if fabric.trace.enabled:
            fabric.trace.complete_async(
                f"cluster.{self.site}", "cluster", self.start,
                num_dpus=cluster.num_dpus,
                network_bytes=fabric.bytes_sent - self.start_bytes,
            )
        return ScaleOutResult(
            value=value,
            cycles=cluster.engine.now - self.start,
            num_dpus=cluster.num_dpus,
            clock_hz=cluster.config.clock_hz,
            network_bytes=fabric.bytes_sent - self.start_bytes,
            retransmissions=(fabric.retransmissions
                             - self.start_retransmissions),
            degraded=bool(ticket.degraded) if ticket is not None else False,
            detail=detail,
            recovery=recovery,
        )


def _a9_uplink(dpu, fabric, dpu_index, coordinator, nbytes):
    """A9 process: wait for the local result pointer on the A9
    mailbox, then ship the buffer to the coordinator's A9."""

    def process():
        _src, payload = yield from dpu.mailbox.receive(A9_ID)
        yield from fabric.send(dpu_index, coordinator, payload, nbytes)

    return process()


def _a9_collector(cluster, coordinator, expected, merge, site="gather"):
    """Coordinator A9: gather ``expected`` messages and merge.

    Each receive is guarded by the fabric's gather lease
    (:attr:`~repro.cluster.network.FabricConfig.gather_lease_cycles`,
    sized far above any fault-free gather): a missing partial raises a
    structured :class:`~repro.cluster.recovery.ClusterError` — naming
    the job, the sim time, the missing DPUs, and the fabric counter
    snapshot — instead of hanging until the engine watchdog."""

    def process():
        engine = cluster.engine
        fabric = cluster.fabric
        lease = fabric.config.gather_lease_cycles
        merged = None
        received = []
        for _ in range(expected):
            abort = engine.timeout(lease)
            message = yield from fabric.receive(coordinator,
                                               abort_event=abort)
            if message is None:
                reason = (f"gather lease of {lease:.0f} cycles expired "
                          f"with {len(received)}/{expected} partials")
                if fabric.trace.enabled:
                    fabric.trace.instant(
                        "cluster.error", unit="cluster", site=site,
                        epoch=0, leader=coordinator, reason=reason,
                    )
                raise ClusterError(
                    site, engine.now,
                    missing=sorted(set(range(cluster.num_dpus))
                                   - set(received)),
                    fabric=fabric.counters(),
                    reason=reason,
                    # The fault-free gather never changes leadership:
                    # generation 0 under the pinned coordinator.
                    epoch=0, leader=coordinator,
                )
            abort.cancel()
            src, payload = message
            received.append(src)
            merged = merge(merged, payload)
        return merged

    return process()


def _gather_partials(cluster, partials, nbytes_of, merge, site="gather"):
    """Ship one partial result per DPU to coordinator 0 and merge.

    Returns (merged value, gather-phase cycles). Follows the paper's
    path on every DPU including the coordinator (its A9 loops back
    through the fabric model, like the merge-only jobs)."""
    engine = cluster.engine
    coordinator = 0
    began = engine.now
    processes = []
    for index, (dpu, partial) in enumerate(zip(cluster.dpus, partials)):

        def sender(dpu=dpu, partial=partial):
            core = dpu.context(0)
            yield from core.mbox_send(A9_ID, partial)

        processes.append(engine.process(sender()))
        processes.append(
            engine.process(
                _a9_uplink(dpu, cluster.fabric, index, coordinator,
                           nbytes_of(partial))
            )
        )
    collector = engine.process(
        _a9_collector(cluster, coordinator, cluster.num_dpus, merge,
                      site=site)
    )
    processes.append(collector)
    cluster.run(processes)
    return collector.value, engine.now - began


def _exchange_detail(partition_cycles, exchange_cycles, local_cycles,
                     gather_cycles, rows_moved) -> Dict[str, float]:
    return {
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
        "rows_moved": float(rows_moved),
    }


def cluster_hll(
    cluster: Cluster,
    shards: Sequence[np.ndarray],
    precision: int = 12,
    hash_fn: str = "crc32",
) -> ScaleOutResult:
    """Distributed HyperLogLog over one u64 shard per DPU."""
    if len(shards) != cluster.num_dpus:
        raise ValueError(
            f"{len(shards)} shards for {cluster.num_dpus} DPUs"
        )
    engine = cluster.engine
    accounting = _JobAccounting(cluster, "hll")
    # Admission gate (queue time counts toward the job's latency; a
    # shed raises OverloadError before any DPU does work).
    ticket = cluster.admit_job("cluster.hll")
    coordinator = 0
    register_bytes = (1 << precision)

    try:
        if cluster.recovery is not None and cluster.num_dpus > 1:
            manager = cluster.recovery
            manager.begin_job("hll")
            try:
                def compute(shard_index, dpu, dpu_index):
                    cores = (ticket.fanout(list(dpu.config.core_ids))
                             if ticket is not None else None)
                    shard = shards[shard_index]
                    address = dpu.store_array(shard)
                    local = dpu_hll(
                        dpu, address, len(shard), precision=precision,
                        hash_fn=hash_fn, cores=cores,
                    )
                    return local.detail["registers"]

                def merge_registers(accumulator, registers):
                    if accumulator is None:
                        return registers.copy()
                    np.maximum(accumulator, registers, out=accumulator)
                    return accumulator

                merged, _cycles = manager.run_job(
                    "hll", compute, merge_registers,
                    nbytes_of=lambda registers: register_bytes,
                )
            finally:
                manager.end_job()
            sketch = HllSketch(precision, merged)
            return accounting.result(hll_estimate(sketch), ticket,
                                     recovery=manager.stats)

        processes = []
        for index, (dpu, shard) in enumerate(zip(cluster.dpus, shards)):
            cores = (ticket.fanout(list(dpu.config.core_ids))
                     if ticket is not None else None)
            address = dpu.store_array(shard)
            # The sketch phase is embarrassingly parallel; running each
            # DPU's launch on the shared clock in turn only costs
            # fidelity on overlap the phase does not have. The exchange
            # phase below (mailbox -> A9 -> fabric -> coordinator) is
            # fully concurrent.
            local_result = dpu_hll(
                dpu, address, len(shard), precision=precision,
                hash_fn=hash_fn, cores=cores,
            )
            registers = local_result.detail["registers"]

            def sender(dpu=dpu, index=index, registers=registers):
                core = dpu.context(0)
                yield from core.mbox_send(A9_ID, registers)

            processes.append(engine.process(sender()))
            processes.append(
                engine.process(
                    _a9_uplink(dpu, cluster.fabric, index, coordinator,
                               register_bytes)
                )
            )

        def merge(accumulator, registers):
            if accumulator is None:
                return registers.copy()
            np.maximum(accumulator, registers, out=accumulator)
            return accumulator

        collector = engine.process(
            _a9_collector(cluster, coordinator, cluster.num_dpus, merge,
                          site="hll")
        )
        processes.append(collector)
        cluster.run(processes)
    finally:
        cluster.release_job()
    merged = collector.value
    sketch = HllSketch(precision, merged)
    return accounting.result(hll_estimate(sketch), ticket)


def cluster_filter_count(
    cluster: Cluster,
    shards: Sequence[np.ndarray],
    lo: int,
    hi: int,
) -> ScaleOutResult:
    """Distributed selective count: FILT each shard, ship counts."""
    if len(shards) != cluster.num_dpus:
        raise ValueError(
            f"{len(shards)} shards for {cluster.num_dpus} DPUs"
        )
    engine = cluster.engine
    accounting = _JobAccounting(cluster, "filter_count")
    ticket = cluster.admit_job("cluster.filter_count")
    coordinator = 0
    predicate = Between("v", lo, hi)

    try:
        if cluster.recovery is not None and cluster.num_dpus > 1:
            manager = cluster.recovery
            manager.begin_job("filter_count")
            try:
                def compute(shard_index, dpu, dpu_index):
                    cores = (ticket.fanout(list(dpu.config.core_ids))
                             if ticket is not None else None)
                    table = Table(f"shard{shard_index}",
                                  {"v": shards[shard_index]})
                    result = dpu_filter(dpu, table.to_dpu(dpu), predicate,
                                        cores=cores)
                    return int(result.detail["selected"])

                value, _cycles = manager.run_job(
                    "filter_count", compute,
                    merge=lambda acc, count: (acc or 0) + count,
                    nbytes_of=lambda partial: 8,
                )
            finally:
                manager.end_job()
            return accounting.result(value, ticket,
                                     recovery=manager.stats)

        processes = []
        for index, (dpu, shard) in enumerate(zip(cluster.dpus, shards)):
            cores = (ticket.fanout(list(dpu.config.core_ids))
                     if ticket is not None else None)
            table = Table(f"shard{index}", {"v": shard})
            result = dpu_filter(dpu, table.to_dpu(dpu), predicate,
                                cores=cores)
            count = int(result.detail["selected"])

            def sender(dpu=dpu, count=count):
                core = dpu.context(0)
                yield from core.mbox_send(A9_ID, count)

            processes.append(engine.process(sender()))
            processes.append(
                engine.process(
                    _a9_uplink(dpu, cluster.fabric, index, coordinator, 8)
                )
            )

        collector = engine.process(
            _a9_collector(
                cluster, coordinator, cluster.num_dpus,
                lambda acc, count: (acc or 0) + count,
                site="filter_count",
            )
        )
        processes.append(collector)
        cluster.run(processes)
    finally:
        cluster.release_job()
    return accounting.result(collector.value, ticket)


# -- exchange-based SQL jobs --------------------------------------------------


def _validate_shards(cluster: Cluster, shards, what="shards") -> None:
    if len(shards) != cluster.num_dpus:
        raise ValueError(
            f"{len(shards)} {what} for {cluster.num_dpus} DPUs"
        )


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
    accounting = _JobAccounting(cluster, "groupby")
    ticket = cluster.admit_job("cluster.groupby")
    engine = cluster.engine
    try:
        if cluster.num_dpus == 1:
            dpu = cluster.dpus[0]
            local = dpu_groupby(dpu, shards[0].to_dpu(dpu), key, aggs,
                                row_filter=row_filter)
            detail = _exchange_detail(0.0, 0.0, local.cycles, 0.0, 0)
            return accounting.result(local.value, ticket, detail)

        names = _needed_columns(key, aggs, _as_row_filter(row_filter))
        record_bytes = 8 + 8 * len(aggs)

        if cluster.recovery is not None:
            manager = cluster.recovery
            manager.begin_job("groupby")
            try:
                shuffled = manager.run_exchange("groupby", shards, key,
                                                names)
                owners = dict(manager.last_slot_owner)
                local_cycles = 0.0

                def compute(slot, dpu, dpu_index):
                    nonlocal local_cycles
                    columns = shuffled.columns[slot]
                    if len(columns[key]) == 0:
                        return {}
                    local_table = Table(f"shuffle{slot}",
                                        columns).to_dpu(dpu)
                    local = dpu_groupby(dpu, local_table, key, aggs,
                                        row_filter=row_filter)
                    local_cycles = max(local_cycles, local.cycles)
                    return local.value

                def merge(accumulator, partial):
                    merged = accumulator if accumulator is not None else {}
                    merged.update(partial)  # disjoint key sets
                    return merged

                value, gather_cycles = manager.run_job(
                    "groupby", compute, merge,
                    nbytes_of=lambda partial: max(
                        record_bytes * len(partial), 8),
                    owners=owners,
                )
            finally:
                manager.end_job()
            detail = _exchange_detail(
                shuffled.partition_cycles, shuffled.exchange_cycles,
                local_cycles, gather_cycles, shuffled.rows_moved,
            )
            return accounting.result(value or {}, ticket, detail,
                                     recovery=manager.stats)

        dtables = [shard.to_dpu(dpu)
                   for shard, dpu in zip(shards, cluster.dpus)]
        shuffled = shuffle_exchange(cluster, dtables, key, names)

        partials: List[Dict] = []
        local_cycles = 0.0
        for index, (dpu, columns) in enumerate(
            zip(cluster.dpus, shuffled.columns)
        ):
            if len(columns[key]) == 0:
                partials.append({})
                continue
            local_table = Table(f"shuffle{index}", columns).to_dpu(dpu)
            local = dpu_groupby(dpu, local_table, key, aggs,
                                row_filter=row_filter)
            local_cycles = max(local_cycles, local.cycles)
            partials.append(local.value)

        def merge(accumulator, partial):
            merged = accumulator if accumulator is not None else {}
            merged.update(partial)  # disjoint key sets: plain union
            return merged

        value, gather_cycles = _gather_partials(
            cluster, partials,
            nbytes_of=lambda partial: max(record_bytes * len(partial), 8),
            merge=merge, site="groupby",
        )
        detail = _exchange_detail(
            shuffled.partition_cycles, shuffled.exchange_cycles,
            local_cycles, gather_cycles, shuffled.rows_moved,
        )
        return accounting.result(value or {}, ticket, detail)
    finally:
        cluster.release_job()


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
    accounting = _JobAccounting(cluster, "join")
    ticket = cluster.admit_job("cluster.join")
    try:
        if cluster.num_dpus == 1:
            dpu = cluster.dpus[0]
            local = dpu_partitioned_join_count(
                dpu, build_shards[0].to_dpu(dpu), build_key,
                probe_shards[0].to_dpu(dpu), probe_key,
            )
            detail = _exchange_detail(0.0, 0.0, local.cycles, 0.0, 0)
            return accounting.result(int(local.value), ticket, detail)

        if cluster.recovery is not None:
            manager = cluster.recovery
            manager.begin_job("join")
            try:
                build_shuffled = manager.run_exchange(
                    "join.build", build_shards, build_key, [build_key]
                )
                probe_shuffled = manager.run_exchange(
                    "join.probe", probe_shards, probe_key, [probe_key]
                )
                owners = dict(manager.last_slot_owner)
                local_cycles = 0.0

                def compute(slot, dpu, dpu_index):
                    nonlocal local_cycles
                    build_columns = build_shuffled.columns[slot]
                    probe_columns = probe_shuffled.columns[slot]
                    if (len(build_columns[build_key]) == 0
                            or len(probe_columns[probe_key]) == 0):
                        return 0
                    build_local = Table(f"build{slot}",
                                        build_columns).to_dpu(dpu)
                    probe_local = Table(f"probe{slot}",
                                        probe_columns).to_dpu(dpu)
                    local = dpu_partitioned_join_count(
                        dpu, build_local, build_key,
                        probe_local, probe_key,
                    )
                    local_cycles = max(local_cycles, local.cycles)
                    return int(local.value)

                value, gather_cycles = manager.run_job(
                    "join", compute,
                    merge=lambda acc, count: (acc or 0) + count,
                    nbytes_of=lambda partial: 8,
                    owners=owners,
                )
            finally:
                manager.end_job()
            detail = _exchange_detail(
                build_shuffled.partition_cycles
                + probe_shuffled.partition_cycles,
                build_shuffled.exchange_cycles
                + probe_shuffled.exchange_cycles,
                local_cycles, gather_cycles,
                build_shuffled.rows_moved + probe_shuffled.rows_moved,
            )
            return accounting.result(int(value or 0), ticket, detail,
                                     recovery=manager.stats)

        build_tables = [shard.to_dpu(dpu)
                        for shard, dpu in zip(build_shards, cluster.dpus)]
        probe_tables = [shard.to_dpu(dpu)
                        for shard, dpu in zip(probe_shards, cluster.dpus)]
        build_shuffled = shuffle_exchange(
            cluster, build_tables, build_key, [build_key]
        )
        probe_shuffled = shuffle_exchange(
            cluster, probe_tables, probe_key, [probe_key]
        )

        partials: List[int] = []
        local_cycles = 0.0
        for index, dpu in enumerate(cluster.dpus):
            build_columns = build_shuffled.columns[index]
            probe_columns = probe_shuffled.columns[index]
            if (len(build_columns[build_key]) == 0
                    or len(probe_columns[probe_key]) == 0):
                partials.append(0)
                continue
            build_local = Table(f"build{index}", build_columns).to_dpu(dpu)
            probe_local = Table(f"probe{index}", probe_columns).to_dpu(dpu)
            local = dpu_partitioned_join_count(
                dpu, build_local, build_key, probe_local, probe_key,
            )
            local_cycles = max(local_cycles, local.cycles)
            partials.append(int(local.value))

        value, gather_cycles = _gather_partials(
            cluster, partials,
            nbytes_of=lambda partial: 8,
            merge=lambda acc, count: (acc or 0) + count,
            site="join",
        )
        detail = _exchange_detail(
            build_shuffled.partition_cycles + probe_shuffled.partition_cycles,
            build_shuffled.exchange_cycles + probe_shuffled.exchange_cycles,
            local_cycles, gather_cycles,
            build_shuffled.rows_moved + probe_shuffled.rows_moved,
        )
        return accounting.result(int(value or 0), ticket, detail)
    finally:
        cluster.release_job()


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
    accounting = _JobAccounting(cluster, "topk")
    ticket = cluster.admit_job("cluster.topk")
    try:
        offsets = np.cumsum([0] + [shard.num_rows for shard in shards])

        def merge(accumulator, candidates):
            merged = accumulator if accumulator is not None else []
            merged.extend(candidates)
            return merged

        if cluster.recovery is not None and cluster.num_dpus > 1:
            manager = cluster.recovery
            manager.begin_job("topk")
            try:
                local_cycles = 0.0

                def compute(shard_index, dpu, dpu_index):
                    nonlocal local_cycles
                    local = dpu_topk(
                        dpu, shards[shard_index].to_dpu(dpu), column, k
                    )
                    local_cycles = max(local_cycles, local.cycles)
                    base = int(offsets[shard_index])
                    return [(value, row + base)
                            for value, row in local.value]

                candidates, gather_cycles = manager.run_job(
                    "topk", compute, merge,
                    nbytes_of=lambda partial: max(16 * len(partial), 8),
                )
            finally:
                manager.end_job()
            merged = list(candidates or [])
            merged.sort(reverse=True)
            detail = _exchange_detail(0.0, 0.0, local_cycles,
                                      gather_cycles, 0)
            return accounting.result(merged[:k], ticket, detail,
                                     recovery=manager.stats)

        partials: List[List] = []
        local_cycles = 0.0
        for index, (dpu, shard) in enumerate(zip(cluster.dpus, shards)):
            local = dpu_topk(dpu, shard.to_dpu(dpu), column, k)
            local_cycles = max(local_cycles, local.cycles)
            base = int(offsets[index])
            partials.append(
                [(value, row + base) for value, row in local.value]
            )

        candidates, gather_cycles = _gather_partials(
            cluster, partials,
            nbytes_of=lambda partial: max(16 * len(partial), 8),
            merge=merge, site="topk",
        )
        merged = list(candidates or [])
        merged.sort(reverse=True)
        detail = _exchange_detail(0.0, 0.0, local_cycles, gather_cycles, 0)
        return accounting.result(merged[:k], ticket, detail)
    finally:
        cluster.release_job()


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
    accounting = _JobAccounting(cluster, "tpch_q1")
    ticket = cluster.admit_job("cluster.tpch_q1")
    key, aggs, row_filter = q1_plan()
    record_bytes = 8 + 8 * len(aggs)

    def merge(accumulator, partial):
        if accumulator is None:
            return merge_groups([partial], aggs)
        return merge_groups([accumulator, partial], aggs)

    try:
        if cluster.recovery is not None and cluster.num_dpus > 1:
            manager = cluster.recovery
            manager.begin_job("tpch_q1")
            try:
                local_cycles = 0.0

                def compute(shard_index, dpu, dpu_index):
                    nonlocal local_cycles
                    local = dpu_groupby(
                        dpu, lineitem_shards[shard_index].to_dpu(dpu),
                        key, aggs, row_filter=row_filter,
                    )
                    local_cycles = max(local_cycles, local.cycles)
                    return local.value

                value, gather_cycles = manager.run_job(
                    "tpch_q1", compute, merge,
                    nbytes_of=lambda partial: max(
                        record_bytes * len(partial), 8),
                )
            finally:
                manager.end_job()
            detail = _exchange_detail(0.0, 0.0, local_cycles,
                                      gather_cycles, 0)
            return accounting.result(value or {}, ticket, detail,
                                     recovery=manager.stats)

        partials: List[Dict] = []
        local_cycles = 0.0
        for index, (dpu, shard) in enumerate(
            zip(cluster.dpus, lineitem_shards)
        ):
            local = dpu_groupby(dpu, shard.to_dpu(dpu), key, aggs,
                                row_filter=row_filter)
            local_cycles = max(local_cycles, local.cycles)
            partials.append(local.value)

        value, gather_cycles = _gather_partials(
            cluster, partials,
            nbytes_of=lambda partial: max(record_bytes * len(partial), 8),
            merge=merge, site="tpch_q1",
        )
        detail = _exchange_detail(0.0, 0.0, local_cycles, gather_cycles, 0)
        return accounting.result(value or {}, ticket, detail)
    finally:
        cluster.release_job()


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
      legal strategy for computed group keys).
    - ``all_to_all``: shuffle the fact rows by the single-column group
      key so each DPU owns a disjoint key set, group locally, union
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
    site = f"sql.{compiled.name}"
    accounting = _JobAccounting(cluster, site)
    ticket = cluster.admit_job(f"cluster.{site}")
    record_bytes = compiled.record_bytes

    def merge_partials(accumulator, partial):
        if accumulator is None:
            return merge_groups([partial], compiled.aggs)
        return merge_groups([accumulator, partial], compiled.aggs)

    def merge_disjoint(accumulator, partial):
        merged = accumulator if accumulator is not None else {}
        merged.update(partial)  # disjoint key sets: plain union
        return merged

    nbytes_of = lambda partial: max(record_bytes * len(partial), 8)  # noqa: E731

    try:
        if cluster.num_dpus == 1:
            groups, cycles = compiled.run_local(
                cluster.dpus[0], shards[0].columns, "shard0")
            detail = _exchange_detail(0.0, 0.0, cycles, 0.0, 0)
            return accounting.result(compiled.finish(groups), ticket, detail)

        if cluster.recovery is not None:
            manager = cluster.recovery
            manager.begin_job(site)
            try:
                local_cycles = 0.0
                if strategy == "all_to_all":
                    shuffled = manager.run_exchange(
                        site, shards, compiled.key_column,
                        compiled.needed_columns,
                    )
                    owners = dict(manager.last_slot_owner)

                    def compute(slot, dpu, dpu_index):
                        nonlocal local_cycles
                        groups, cycles = compiled.run_local(
                            dpu, shuffled.columns[slot], f"slot{slot}")
                        local_cycles = max(local_cycles, cycles)
                        return groups

                    value, gather_cycles = manager.run_job(
                        site, compute, merge_disjoint,
                        nbytes_of=nbytes_of, owners=owners,
                    )
                    detail = _exchange_detail(
                        shuffled.partition_cycles,
                        shuffled.exchange_cycles,
                        local_cycles, gather_cycles, shuffled.rows_moved,
                    )
                else:
                    def compute(shard_index, dpu, dpu_index):
                        nonlocal local_cycles
                        groups, cycles = compiled.run_local(
                            dpu, shards[shard_index].columns,
                            f"shard{shard_index}")
                        local_cycles = max(local_cycles, cycles)
                        return groups

                    value, gather_cycles = manager.run_job(
                        site, compute, merge_partials,
                        nbytes_of=nbytes_of,
                    )
                    detail = _exchange_detail(0.0, 0.0, local_cycles,
                                              gather_cycles, 0)
            finally:
                manager.end_job()
            return accounting.result(compiled.finish(value or {}), ticket,
                                     detail, recovery=manager.stats)

        partials: List[Dict] = []
        local_cycles = 0.0
        if strategy == "all_to_all":
            dtables = [
                Table(shard.name, {
                    name: shard.columns[name]
                    for name in compiled.needed_columns
                }).to_dpu(dpu)
                for shard, dpu in zip(shards, cluster.dpus)
            ]
            shuffled = shuffle_exchange(
                cluster, dtables, compiled.key_column,
                compiled.needed_columns,
            )
            for index, (dpu, columns) in enumerate(
                zip(cluster.dpus, shuffled.columns)
            ):
                groups, cycles = compiled.run_local(dpu, columns,
                                                    f"slot{index}")
                local_cycles = max(local_cycles, cycles)
                partials.append(groups)
            merge = merge_disjoint
            exchange = (shuffled.partition_cycles, shuffled.exchange_cycles,
                        shuffled.rows_moved)
        else:
            for index, (dpu, shard) in enumerate(
                zip(cluster.dpus, shards)
            ):
                groups, cycles = compiled.run_local(dpu, shard.columns,
                                                    f"shard{index}")
                local_cycles = max(local_cycles, cycles)
                partials.append(groups)
            merge = merge_partials
            exchange = (0.0, 0.0, 0)

        value, gather_cycles = _gather_partials(
            cluster, partials, nbytes_of=nbytes_of, merge=merge, site=site,
        )
        detail = _exchange_detail(exchange[0], exchange[1], local_cycles,
                                  gather_cycles, exchange[2])
        return accounting.result(compiled.finish(value or {}), ticket, detail)
    finally:
        cluster.release_job()


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
    union_names = list(dict.fromkeys(
        name for compiled in batch for name in compiled.needed_columns
    ))
    site = "sql.batch[" + "+".join(c.name for c in batch) + "]"
    accounting = _JobAccounting(cluster, site)
    ticket = cluster.admit_job(f"cluster.{site}")

    def shard_partials(dpu, columns, label):
        """The shared scan: one union table stored per DPU; each
        query's group-by streams only its own needed columns from the
        resident copy, so per-query results and cycles match the
        standalone plan exactly."""
        if not columns or len(next(iter(columns.values()))) == 0:
            return [{} for _ in batch], 0.0
        table = Table(f"{fact}_{label}",
                      {name: columns[name] for name in union_names})
        dtable = table.to_dpu(dpu)
        partials = []
        cycles = 0.0
        for compiled in batch:
            local = dpu_groupby(
                dpu, dtable, compiled.key, compiled.aggs,
                row_filter=compiled.row_filter,
                broadcasts=compiled._dpu_broadcasts(dpu),
            )
            partials.append(local.value)
            cycles += local.cycles
        return partials, cycles

    def merge(accumulator, partials):
        if accumulator is None:
            return [merge_groups([partial], compiled.aggs)
                    for partial, compiled in zip(partials, batch)]
        return [merge_groups([merged, partial], compiled.aggs)
                for merged, partial, compiled
                in zip(accumulator, partials, batch)]

    def nbytes_of(partials):
        return max(8, sum(compiled.record_bytes * len(partial)
                          for compiled, partial in zip(batch, partials)))

    def finish(merged):
        if merged is None:
            merged = [{} for _ in batch]
        return tuple(compiled.finish(groups or {})
                     for compiled, groups in zip(batch, merged))

    try:
        if cluster.num_dpus == 1:
            partials, cycles = shard_partials(
                cluster.dpus[0], shards[0].columns, "shard0")
            detail = _exchange_detail(0.0, 0.0, cycles, 0.0, 0)
            detail["batch"] = float(len(batch))
            return accounting.result(
                tuple(compiled.finish(partial or {})
                      for compiled, partial in zip(batch, partials)),
                ticket, detail)

        if cluster.recovery is not None:
            manager = cluster.recovery
            manager.begin_job(site)
            try:
                local_cycles = 0.0

                def compute(shard_index, dpu, dpu_index):
                    nonlocal local_cycles
                    partials, cycles = shard_partials(
                        dpu, shards[shard_index].columns,
                        f"shard{shard_index}")
                    local_cycles = max(local_cycles, cycles)
                    return partials

                value, gather_cycles = manager.run_job(
                    site, compute, merge, nbytes_of=nbytes_of,
                )
            finally:
                manager.end_job()
            detail = _exchange_detail(0.0, 0.0, local_cycles,
                                      gather_cycles, 0)
            detail["batch"] = float(len(batch))
            return accounting.result(finish(value), ticket, detail,
                                     recovery=manager.stats)

        per_dpu: List[List[Dict]] = []
        local_cycles = 0.0
        for index, (dpu, shard) in enumerate(zip(cluster.dpus, shards)):
            partials, cycles = shard_partials(dpu, shard.columns,
                                              f"shard{index}")
            local_cycles = max(local_cycles, cycles)
            per_dpu.append(partials)

        value, gather_cycles = _gather_partials(
            cluster, per_dpu, nbytes_of=nbytes_of, merge=merge, site=site,
        )
        detail = _exchange_detail(0.0, 0.0, local_cycles, gather_cycles, 0)
        detail["batch"] = float(len(batch))
        return accounting.result(finish(value), ticket, detail)
    finally:
        cluster.release_job()
