"""Join operators (paper §5.3: "other SQL operations like Join ...
using partitioning techniques similar to those described above").

TPC-H's joins are foreign-key joins on dense integer keys, which the
DPU engine executes as *broadcast lookups*: the build side reduces to
a bitmap (semijoin) or a dense key-indexed value array that fits each
core's DMEM, is DMS-broadcast once, and is probed at DMEM latency
while the probe side streams. The probe fuses into the group-by
(filter/lookup hooks of :mod:`repro.apps.sql.aggregate`), so a
filtered join + aggregation is still a single pass at DMS bandwidth.

For build sides too large for DMEM, :func:`dpu_partitioned_join_count`
partitions *both* tables over the launch's cores (32 ways on a whole
DPU) with the DMS hardware partitioner so matching keys land on the
same core, then builds and probes per core — the paper's general
strategy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.dpu import DPU
from ...obs import traced_op
from ...runtime.admission import spill_segments
from ..streaming import (
    hash_spec, partition_columns, partition_wave_rows, ref_dtype,
)
from .costs import JOIN_BUILD_CYCLES_PER_ROW, JOIN_PROBE_CYCLES_PER_ROW
from .engine import DpuOpResult, XeonOpResult
from .aggregate import Broadcast
from .expr import RowFilter

__all__ = [
    "key_bitmap",
    "bitmap_filter",
    "lookup_filter",
    "broadcast_array",
    "dpu_partitioned_join_count",
    "xeon_join_count",
    "BITMAP_PROBE_CYCLES_PER_ROW",
    "LOOKUP_CYCLES_PER_ROW",
]

# DMEM bitmap probe: load word + shift + mask + combine (dual-issued).
BITMAP_PROBE_CYCLES_PER_ROW = 3.0
# Dense array lookup: address arithmetic + DMEM load.
LOOKUP_CYCLES_PER_ROW = 2.0
_XEON_PROBE_OPS_PER_ROW = 4.0  # scalar hash/bitmap probe


def key_bitmap(selected_keys: np.ndarray, domain: int) -> np.ndarray:
    """Pack selected dense keys in ``[0, domain)`` into a bitmap of
    u64 words — the semijoin build side."""
    bits = np.zeros(domain, dtype=bool)
    bits[np.asarray(selected_keys, dtype=np.int64)] = True
    padded = np.zeros(-(-domain // 64) * 64, dtype=bool)
    padded[:domain] = bits
    return np.packbits(padded, bitorder="little").view(np.uint64)


def broadcast_array(dpu: DPU, name: str, values: np.ndarray) -> Tuple[
    Broadcast, np.ndarray
]:
    """Store a build-side array in DDR and describe its broadcast.

    Returns the :class:`Broadcast` (for DMEM load accounting) and the
    host view used by lookup closures.
    """
    address = dpu.store_array(values)
    return Broadcast(name=name, addr=address, nbytes=values.nbytes), values


def bitmap_filter(
    column: str,
    bitmap_words: np.ndarray,
    extra: Optional[RowFilter] = None,
) -> RowFilter:
    """RowFilter testing ``column``'s value against a DMEM bitmap,
    optionally ANDed with another filter."""
    bits = np.unpackbits(bitmap_words.view(np.uint8), bitorder="little")

    def mask_fn(columns):
        keys = columns[column].astype(np.int64)
        mask = bits[keys].astype(bool)
        if extra is not None:
            mask &= extra.mask_fn(columns)
        return mask

    extra_columns = extra.columns if extra else ()
    return RowFilter(
        mask_fn=mask_fn,
        columns=tuple(dict.fromkeys((column, *extra_columns))),
        dpu_cycles_per_row=BITMAP_PROBE_CYCLES_PER_ROW
        + (extra.dpu_cycles_per_row if extra else 0.0),
        xeon_ops_per_row=_XEON_PROBE_OPS_PER_ROW
        + (extra.xeon_ops_per_row if extra else 0.0),
    )


def lookup_filter(
    column: str,
    table: np.ndarray,
    predicate_on_value,
) -> RowFilter:
    """RowFilter applying ``predicate_on_value`` to a dense-array
    lookup ``table[column]`` (e.g. "the part this row references is a
    PROMO part")."""

    def mask_fn(columns):
        keys = columns[column].astype(np.int64)
        return np.asarray(predicate_on_value(table[keys]), dtype=bool)

    return RowFilter(
        mask_fn=mask_fn,
        columns=(column,),
        dpu_cycles_per_row=LOOKUP_CYCLES_PER_ROW + 1.0,
        xeon_ops_per_row=_XEON_PROBE_OPS_PER_ROW,
    )


# -- general partitioned hash join -----------------------------------------


@traced_op("sql.join")
def dpu_partitioned_join_count(
    dpu: DPU,
    build_dtable,
    build_key: str,
    probe_dtable,
    probe_key: str,
    governor=None,
) -> DpuOpResult:
    """Count matching pairs with a hardware-partitioned join, 32-way
    on a whole DPU.

    Both tables are DMS hash-partitioned on the join key over the
    launch's cores, so matching keys land in the same core's DMEM.
    Each core builds a hash table from its build partition and probes
    its probe partition. Matches are counted (the common kernel under
    semijoin/aggregate plans); rows move for real through the
    partition pipeline.

    With a :class:`~repro.runtime.admission.MemoryGovernor`, the build
    hash-table footprint (key + count per build row) is acquired as an
    up-front grant. A denied grant degrades to a segmented join: the
    build side is split into segments that fit the granted budget and
    the probe side is re-streamed once per segment — match counts are
    additive across disjoint build segments, so the result is exact;
    only cycles (and bytes streamed) grow. Without a governor the code
    path and its timing are exactly the single-pass plan.
    """
    count_offset = 31 * 1024
    build_capacity = 10 * 1024
    probe_capacity = 18 * 1024
    build_buffer = (0, build_capacity, count_offset)
    probe_buffer = (build_capacity, probe_capacity, count_offset + 4)

    build_ref = build_dtable.column_ref(build_key)
    probe_ref = probe_dtable.column_ref(probe_key)
    build_rows = build_dtable.num_rows
    probe_rows = probe_dtable.num_rows
    build_dtype = ref_dtype(build_ref[1])
    probe_dtype = ref_dtype(probe_ref[1])
    build_width, probe_width = build_dtype.itemsize, probe_dtype.itemsize

    # Waves fill the per-core buffers half way on uniform keys; chunks
    # fit a CMEM bank.
    build_chunk_rows = min(2048, dpu.config.cmem_bank_bytes // build_width)
    probe_chunk_rows = min(2048, dpu.config.cmem_bank_bytes // probe_width)

    def make_kernel(b0, seg_build_rows):
        def kernel(ctx):
            spec = hash_spec(len(ctx.cores))
            targets = ctx.cores[:spec.fanout]
            matches = 0
            build_table = {}

            def phase_done():
                # End-of-phase mailbox round: redundant after the loop's
                # last release, kept because dropping it moves the cycles
                # of every join.
                if ctx.core_id == targets[0]:
                    for core in targets[1:]:
                        yield from ctx.mbox_send(core, ("phase-done",))
                elif ctx.core_id in targets:
                    yield from ctx.mbox_receive()

            def build(count):
                keys = ctx.dmem.view(0, count * build_width, build_dtype)
                for key in keys.tolist():
                    build_table[key] = build_table.get(key, 0) + 1
                yield from ctx.compute(count * JOIN_BUILD_CYCLES_PER_ROW)

            def probe(count):
                nonlocal matches
                keys = ctx.dmem.view(build_capacity, count * probe_width,
                                     probe_dtype)
                for key in keys.tolist():
                    matches += build_table.get(key, 0)
                yield from ctx.compute(count * JOIN_PROBE_CYCLES_PER_ROW)

            yield from partition_columns(
                ctx, [(build_ref[0] + b0 * build_width, build_ref[1])],
                seg_build_rows, spec, build_buffer, build_chunk_rows,
                partition_wave_rows(spec.fanout, build_capacity,
                                    build_width, build_chunk_rows),
                build,
            )
            yield from phase_done()
            yield from partition_columns(
                ctx, [probe_ref], probe_rows, spec, probe_buffer,
                probe_chunk_rows,
                partition_wave_rows(spec.fanout, probe_capacity,
                                    probe_width, probe_chunk_rows),
                probe,
            )
            yield from phase_done()
            return matches

        return kernel

    # Memory grant: each build row costs a key plus a count slot in
    # the per-core hash tables. Under pressure, shrink to build
    # segments that fit the grant (probe side re-streamed per segment).
    build_row_cost = build_width + 8
    need = max(build_rows, 1) * build_row_cost
    floor = min(need, max(1, build_chunk_rows) * build_row_cost)
    with spill_segments(governor, need, floor, "sql.join.build") as segments:
        # One launch per build segment (one for an empty build side).
        seg_rows = -(-build_rows // segments)
        launches = [
            dpu.launch(make_kernel(b0, min(seg_rows, build_rows - b0)))
            for b0 in range(0, max(build_rows, 1), max(seg_rows, 1))
        ]
    total_cycles = 0.0
    for launch in launches:
        total_cycles += launch.cycles
    nbytes = (build_rows * build_width
              + len(launches) * probe_rows * probe_width)
    return DpuOpResult(
        value=sum(sum(launch.values) for launch in launches),
        cycles=total_cycles,
        config=dpu.config,
        bytes_streamed=nbytes,
        detail={"build_rows": build_rows, "probe_rows": probe_rows,
                "build_segments": len(launches)},
    )


def xeon_join_count(
    model: XeonModel,
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
) -> XeonOpResult:
    """Baseline hash-join match count (functional + roofline)."""
    unique, counts = np.unique(build_keys, return_counts=True)
    table = dict(zip(unique.tolist(), counts.tolist()))
    matches = sum(table.get(key, 0) for key in probe_keys.tolist())
    nbytes = build_keys.nbytes + probe_keys.nbytes
    instructions = (
        len(build_keys) * JOIN_BUILD_CYCLES_PER_ROW
        + len(probe_keys) * _XEON_PROBE_OPS_PER_ROW
    )
    seconds = model.roofline_seconds(
        instructions=instructions, nbytes=nbytes, memory_passes=1.5
    )
    return XeonOpResult(value=matches, seconds=seconds, bytes_streamed=nbytes)
