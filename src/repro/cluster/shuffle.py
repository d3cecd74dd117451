"""Partitioned exchange (shuffle) across a DPU cluster (paper §4).

The paper's system services scaled the §5 applications "across 500+
DPU clusters". Operators that redistribute data (group-by, join,
top-k) need an exchange: every DPU splits its shard by a hash of the
key so that all rows with the same key land on the same destination
DPU, then the shards cross the fabric all-to-all.

The exchange reuses the hardware the paper provides for exactly this
(§3.1's hash/range partitioning engine, Fig. 13):

1. **Partition (per source DPU, DMS hardware).** The shared partition
   loop (:func:`~repro.apps.streaming.partition_columns`, the one the
   §5.3 operators use) runs with a ``PartitionSpec`` whose fanout is
   the DPU count and whose ``radix_shift`` inspects *high* CRC bits —
   the intra-DPU 32-way operators keep using the low bits, so the two
   partitioning levels nest without correlation. The launch runs on
   the DPU's cores and its first D cores take one destination each:
   each drains its record buffer to its destination's DRAM region
   between waves (DMEM->DDR), exactly the chained-output-buffer scheme
   of §5.3.

2. **Exchange (concurrent, A9s).** Core 0 mailboxes the region
   pointers to the local A9; the A9s run the all-to-all over the
   :class:`~repro.cluster.network.IBFabric` in a rotated schedule.
   The bulk bytes stay "in DRAM" — only simulated sizes cross the
   fabric model, which charges verbs overheads, link serialization,
   switch latency, receive credits and (under ``net.drop`` faults)
   retransmissions.

3. **Reassembly (host-side).** Each destination concatenates the
   row-major records it received (in source order, so results are
   deterministic) and splits them back into columns.

Every exchange — :func:`shuffle_exchange` and the exchange-based
cluster jobs alike — runs through the one
:meth:`~repro.cluster.recovery.RecoveryManager.run_exchange`. With no
chaos plan armed it takes exactly the steps above; under one, the
same partition kernel and slot space become epoch-tagged and
restartable, surviving worker deaths, fabric partitions *and* the
death of the coordinating leader itself (the slot space never
changes — a dead slot owner's shard is re-partitioned on a survivor
from the durable host table).

:class:`ShuffleRackModel` extends the measured small-cluster numbers
to rack scale (2 -> 512 DPUs) analytically, the same way
:class:`~repro.cluster.rack.RackSpec` extends single-DPU bandwidth —
512 full DPU simulations would add no fidelity to the fabric math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps.streaming import (
    partition_chunk_rows, partition_columns, partition_wave_rows,
    record_width, store,
)
from ..dms.descriptor import PartitionMode, PartitionSpec
from ..dms.partition import compute_cids
from .network import FabricConfig
from .rack import Cluster
from .recovery import RecoveryManager

__all__ = [
    "SHUFFLE_RADIX_SHIFT",
    "ShuffleResult",
    "ShuffleRackModel",
    "partition_source",
    "shuffle_spec",
    "shuffle_cids",
    "shuffle_exchange",
]

# The inter-DPU split inspects CRC bits 16.. while the intra-DPU
# operators (32-way group-by/join) inspect bits 0..4 and the software
# round bits 5..9 — disjoint windows of one hash, so nothing starves.
SHUFFLE_RADIX_SHIFT = 16

_DRAIN_EVENT = 13  # per-core DMEM->DDR completion event
# Each destination core's (DMEM base, capacity, count word).
_BUFFER = (0, 18 * 1024, 31 * 1024)


def shuffle_spec(num_dpus: int) -> PartitionSpec:
    """The partition spec of an inter-DPU exchange (power-of-two
    fanout, high CRC bits)."""
    if num_dpus < 2 or num_dpus & (num_dpus - 1):
        raise ValueError(
            f"shuffle fanout must be a power of two >= 2: {num_dpus} "
            "(the hash engine indexes partitions by radix bits)"
        )
    return PartitionSpec(
        mode=PartitionMode.HASH,
        radix_bits=num_dpus.bit_length() - 1,
        radix_shift=SHUFFLE_RADIX_SHIFT,
    )


def shuffle_cids(keys: np.ndarray, num_dpus: int) -> np.ndarray:
    """Destination DPU per key — the same math the DMS engine applies
    (used host-side to size destination regions exactly)."""
    return compute_cids(keys, shuffle_spec(num_dpus))


@dataclass
class ShuffleResult:
    """One completed all-to-all exchange."""

    # Per destination DPU: the reassembled columns ({name: array}).
    columns: List[Dict[str, np.ndarray]]
    # Max per-DPU partition-kernel cycles (the phase is embarrassingly
    # parallel; the shared engine runs the launches in turn, so the
    # max — not the serial sum — models rack wall-clock).
    partition_cycles: float
    # Span of the concurrent A9 all-to-all on the shared clock, summed
    # over recovery rounds; no partition launch falls inside it.
    exchange_cycles: float
    rows_moved: int  # rows that crossed the fabric (self-partition excluded)
    bytes_moved: int


def partition_source(dpu, dtable, key: str, names: Sequence[str],
                     num_dests: int):
    """Partition one DPU-resident table into ``num_dests`` raw record
    blobs with the DMS hash engine (§3.1), draining each destination's
    records to its own DRAM region.

    This is the per-source unit of the exchange, exposed separately so
    the recovery layer can re-partition a dead DPU's shard on a
    survivor — the kernel is deterministic, so the survivor produces
    byte-identical blobs. The launch runs on the DPU's cores (half of
    them under a ``degrade`` admission ticket) and its first
    ``num_dests`` cores drain one destination each; a launch of fewer
    cores raises ValueError. Returns ``(raws, cycles, record_width,
    dtypes)`` where ``raws[dst]`` is the row-major record bytes bound
    for destination slot ``dst``.
    """
    spec = shuffle_spec(num_dests)
    names = [key] + [name for name in names if name != key]
    dtypes = [dtable.table.column(name).dtype for name in names]
    width = record_width(dtypes)
    # Waves fill the per-destination buffers half way on uniform keys,
    # in whole CMEM-bank chunks.
    chunk_rows = partition_chunk_rows(width, dpu.config.cmem_bank_bytes)
    wave_rows = partition_wave_rows(num_dests, _BUFFER[1], width, chunk_rows)
    rows = dtable.num_rows
    keys_host = dtable.table.column(key)
    cids = compute_cids(keys_host, spec)
    counts = np.bincount(cids, minlength=num_dests)
    region_addrs = [
        dpu.alloc(max(int(counts[dst]) * width, 8))
        for dst in range(num_dests)
    ]
    cycles = 0.0
    try:
        if rows:
            refs = [dtable.column_ref(name) for name in names]

            def kernel(ctx):
                slot = ctx.cores.index(ctx.core_id)  # a target's destination
                cursor = 0

                def drain(count):
                    # This core's records go to its destination's DRAM
                    # region as raw bytes (col_width=1).
                    nonlocal cursor
                    nbytes = count * width
                    if nbytes:
                        yield from store(ctx, 0, region_addrs[slot] + cursor,
                                         nbytes, 1, event=_DRAIN_EVENT,
                                         channel=0)
                        cursor += nbytes

                yield from partition_columns(ctx, refs, rows, spec, _BUFFER,
                                             chunk_rows, wave_rows, drain)
                return cursor

            launch = dpu.launch(kernel)
            cycles = launch.cycles
            written = launch.values  # bytes per launch core, targets first
            for slot, count in enumerate(counts):
                expected = int(count) * width
                if written[slot] != expected:
                    raise RuntimeError(
                        f"partition drain mismatch on {dpu.name} slot "
                        f"{slot}: {written[slot]} != {expected} bytes")
        raws = [
            dpu.load_array(address, int(count) * width, np.uint8).copy()
            for address, count in zip(region_addrs, counts)
        ]
    finally:
        for address in region_addrs:
            dpu.free(address)
    return raws, cycles, width, dtypes


def shuffle_exchange(
    cluster: Cluster,
    dtables: Sequence,
    key: str,
    names: Optional[Sequence[str]] = None,
) -> ShuffleResult:
    """Repartition one :class:`~repro.apps.sql.table.DpuTable` per DPU
    by ``hash(key)`` so equal keys co-locate; returns the reassembled
    columns per destination DPU. This is the cluster's one exchange,
    :meth:`~repro.cluster.recovery.RecoveryManager.run_exchange`, run
    as a job of its own.
    """
    if len(dtables) != cluster.num_dpus:
        raise ValueError(
            f"{len(dtables)} tables for {cluster.num_dpus} DPUs")
    if names is None:
        names = list(dtables[0].table.column_names)
    with RecoveryManager.for_job(cluster, "shuffle") as manager:
        return manager.run_exchange("shuffle", dtables, key, names)


# -- rack-scale analytic model ------------------------------------------------


@dataclass(frozen=True)
class ShuffleRackModel:
    """§4 scaling arithmetic for a shuffle job at rack scale.

    Per-row compute constants are calibrated from a measured
    small-cluster run (:meth:`from_sim`); the fabric terms come
    straight from :class:`FabricConfig`, so the model and the
    simulator price a message identically. The gather uses a binary
    reduction tree (log2 D rounds), the standard coordinator-relief
    scheme at 500+ endpoints.

    ``all_to_all=False`` models the pre-aggregating job family
    (cluster_hll, cluster_tpch_q1): no repartition phase, only the
    tiny partials cross the fabric. Those are the jobs the paper
    scaled "across 500+ DPU clusters" — their speedup stays
    near-linear because network volume is independent of the input
    size, while a full shuffle eventually pays the all-to-all.
    """

    total_rows: int
    record_bytes: int
    partition_cycles_per_row: float = 6.0
    local_cycles_per_row: float = 10.0
    result_bytes: int = 4096
    all_to_all: bool = True
    # default_factory, NOT FabricConfig(): a class-level call default
    # is evaluated once, so every model instance would share (and, were
    # the config mutable, cross-contaminate) one object.
    fabric: FabricConfig = field(default_factory=FabricConfig)

    @classmethod
    def from_sim(cls, detail: Dict[str, float], num_dpus: int,
                 total_rows: int, record_bytes: int,
                 result_bytes: int = 4096,
                 all_to_all: bool = True,
                 fabric: Optional[FabricConfig] = None) -> "ShuffleRackModel":
        """Calibrate the per-row constants from a measured cluster
        job's ``ScaleOutResult.detail`` phase breakdown."""
        if fabric is None:
            fabric = FabricConfig()
        rows_local = max(1.0, total_rows / num_dpus)
        return cls(
            total_rows=total_rows,
            record_bytes=record_bytes,
            partition_cycles_per_row=detail["partition_cycles"] / rows_local,
            local_cycles_per_row=detail["local_cycles"] / rows_local,
            result_bytes=result_bytes,
            all_to_all=all_to_all,
            fabric=fabric,
        )

    def phase_cycles(self, num_dpus: int) -> Dict[str, float]:
        if num_dpus < 1:
            raise ValueError(f"need >= 1 DPU: {num_dpus}")
        rows_local = self.total_rows / num_dpus
        cfg = self.fabric
        partition = (rows_local * self.partition_cycles_per_row
                     if num_dpus > 1 and self.all_to_all else 0.0)
        local = rows_local * self.local_cycles_per_row
        exchange = 0.0
        gather = 0.0
        if num_dpus > 1:
            if self.all_to_all:
                # Each A9 posts D-1 sends and D-1 receives serially
                # and serializes ~(D-1)/D of its shard out (and the
                # same volume back in) at link rate.
                peers = num_dpus - 1
                bytes_out = (rows_local * self.record_bytes
                             * peers / num_dpus)
                exchange = (
                    peers * (cfg.a9_send_overhead_cycles
                             + cfg.a9_receive_overhead_cycles)
                    + 2 * bytes_out / cfg.link_bytes_per_cycle
                    + cfg.fabric_latency_cycles
                )
            rounds = math.ceil(math.log2(num_dpus))
            per_hop = (cfg.a9_send_overhead_cycles
                       + cfg.a9_receive_overhead_cycles
                       + cfg.fabric_latency_cycles
                       + max(self.result_bytes, 64) / cfg.link_bytes_per_cycle)
            gather = rounds * per_hop
        return {
            "partition": partition,
            "exchange": exchange,
            "local": local,
            "gather": gather,
        }

    def job_cycles(self, num_dpus: int) -> float:
        return sum(self.phase_cycles(num_dpus).values())

    def network_bytes(self, num_dpus: int) -> int:
        """Per-job fabric bytes: uniform-hash all-to-all volume plus
        the reduction tree's partial results."""
        if num_dpus < 2:
            return 0
        shuffle = ((self.total_rows * self.record_bytes
                    * (num_dpus - 1) / num_dpus)
                   if self.all_to_all else 0.0)
        gather = (num_dpus - 1) * self.result_bytes
        return int(shuffle + gather)

    def speedup(self, num_dpus: int) -> float:
        return self.job_cycles(1) / self.job_cycles(num_dpus)
