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
partitions *both* tables 32 ways with the DMS hardware partitioner so
matching keys land on the same core, then builds and probes per core —
the paper's general strategy.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.dpu import DPU
from ...dms.descriptor import PartitionMode, PartitionSpec
from ...dms.partition import PartitionLayout
from ...obs import traced_op
from ..streaming import partition_columns, ref_dtype
from .costs import JOIN_BUILD_CYCLES_PER_ROW, JOIN_PROBE_CYCLES_PER_ROW
from .engine import DpuOpResult, XeonOpResult
from .expr import Predicate
from .aggregate import Broadcast, RowFilter, _as_row_filter

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
    extra: Union[None, Predicate, RowFilter] = None,
) -> RowFilter:
    """RowFilter testing ``column``'s value against a DMEM bitmap,
    optionally ANDed with another filter."""
    bits = np.unpackbits(bitmap_words.view(np.uint8), bitorder="little")
    extra_filter = _as_row_filter(extra)

    def mask_fn(columns):
        keys = columns[column].astype(np.int64)
        mask = bits[keys].astype(bool)
        if extra_filter is not None:
            mask &= extra_filter.mask_fn(columns)
        return mask

    extra_columns = extra_filter.columns if extra_filter else ()
    return RowFilter(
        mask_fn=mask_fn,
        columns=tuple(dict.fromkeys((column, *extra_columns))),
        dpu_cycles_per_row=BITMAP_PROBE_CYCLES_PER_ROW
        + (extra_filter.dpu_cycles_per_row if extra_filter else 0.0),
        xeon_ops_per_row=_XEON_PROBE_OPS_PER_ROW
        + (extra_filter.xeon_ops_per_row if extra_filter else 0.0),
    )


def lookup_filter(
    column: str,
    table: np.ndarray,
    predicate_on_value,
    extra: Union[None, Predicate, RowFilter] = None,
) -> RowFilter:
    """RowFilter applying ``predicate_on_value`` to a dense-array
    lookup ``table[column]`` (e.g. "the part this row references is a
    PROMO part")."""
    extra_filter = _as_row_filter(extra)

    def mask_fn(columns):
        keys = columns[column].astype(np.int64)
        mask = np.asarray(predicate_on_value(table[keys]), dtype=bool)
        if extra_filter is not None:
            mask &= extra_filter.mask_fn(columns)
        return mask

    extra_columns = extra_filter.columns if extra_filter else ()
    return RowFilter(
        mask_fn=mask_fn,
        columns=tuple(dict.fromkeys((column, *extra_columns))),
        dpu_cycles_per_row=LOOKUP_CYCLES_PER_ROW + 1.0
        + (extra_filter.dpu_cycles_per_row if extra_filter else 0.0),
        xeon_ops_per_row=_XEON_PROBE_OPS_PER_ROW
        + (extra_filter.xeon_ops_per_row if extra_filter else 0.0),
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
    """Count matching pairs with a 32-way hardware-partitioned join.

    Both tables are DMS hash-partitioned on the join key, so matching
    keys land in the same core's DMEM. Each core builds a hash table
    from its build partition and probes its probe partition. Matches
    are counted (the common kernel under semijoin/aggregate plans);
    rows move for real through the partition pipeline.

    With a :class:`~repro.runtime.admission.MemoryGovernor`, the build
    hash-table footprint (key + count per build row) is acquired as an
    up-front grant. A denied grant degrades to a segmented join: the
    build side is split into segments that fit the granted budget and
    the probe side is re-streamed once per segment — match counts are
    additive across disjoint build segments, so the result is exact;
    only cycles (and bytes streamed) grow. Without a governor the code
    path and its timing are exactly the single-pass plan.
    """
    cores = list(dpu.config.core_ids)
    spec = PartitionSpec(mode=PartitionMode.HASH, radix_bits=5)
    count_offset = 31 * 1024
    build_capacity = 10 * 1024
    probe_capacity = 18 * 1024
    driver = cores[0]

    build_ref = build_dtable.column_ref(build_key)
    probe_ref = probe_dtable.column_ref(probe_key)
    build_rows = build_dtable.num_rows
    probe_rows = probe_dtable.num_rows
    build_dtype = ref_dtype(build_ref[1])
    probe_dtype = ref_dtype(probe_ref[1])
    build_width, probe_width = build_dtype.itemsize, probe_dtype.itemsize

    build_layout = PartitionLayout(
        target_cores=tuple(cores),
        dmem_base=0,
        capacity=build_capacity,
        count_offset=count_offset,
    )
    probe_layout = PartitionLayout(
        target_cores=tuple(cores),
        dmem_base=build_capacity,
        capacity=probe_capacity,
        count_offset=count_offset + 4,
    )
    # Waves fill the per-core buffers half way on uniform keys; chunks
    # fit a CMEM bank.
    build_chunk_rows = min(2048, dpu.config.cmem_bank_bytes // build_width)
    probe_chunk_rows = min(2048, dpu.config.cmem_bank_bytes // probe_width)
    build_wave_rows = int(len(cores) * (build_capacity / build_width) / 2)
    probe_wave_rows = int(len(cores) * (probe_capacity / probe_width) / 2)

    # Memory grant: each build row costs a key plus a count slot in
    # the per-core hash tables. Under pressure, shrink to build
    # segments that fit the grant (probe side re-streamed per segment).
    build_row_cost = build_width + 8
    segments = 1
    granted = 0
    if governor is not None:
        need = max(build_rows, 1) * build_row_cost
        chunk = max(1, min(2048, dpu.config.cmem_bank_bytes // build_width))
        floor = min(need, chunk * build_row_cost)
        granted = governor.grant_or_largest(need, floor=floor,
                                            site="sql.join.build")
        segments = max(1, -(-need // granted))

    def make_kernel(seg_ref, seg_build_rows):
        def kernel(ctx):
            matches = 0
            build_table = {}

            def phase_done():
                # End-of-phase mailbox round: redundant after the loop's
                # last release, kept because dropping it moves the cycles
                # of every join.
                if ctx.core_id == driver:
                    for core in cores:
                        if core != driver:
                            yield from ctx.mbox_send(core, ("phase-done",))
                else:
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
                ctx, [seg_ref], seg_build_rows, spec, build_layout,
                build_chunk_rows, build_wave_rows, build,
            )
            yield from phase_done()
            yield from partition_columns(
                ctx, [probe_ref], probe_rows, spec, probe_layout,
                probe_chunk_rows, probe_wave_rows, probe,
            )
            yield from phase_done()
            return matches

        return kernel

    seg_rows_max = -(-build_rows // segments) if build_rows else 0
    total_matches = 0
    total_cycles = 0.0
    ran_segments = 0
    for seg in range(segments):
        b0 = seg * seg_rows_max
        seg_build_rows = min(seg_rows_max, build_rows - b0)
        if segments > 1 and seg_build_rows <= 0:
            break
        seg_ref = (build_ref[0] + b0 * build_width, build_ref[1])
        launch = dpu.launch(
            make_kernel(seg_ref, seg_build_rows), cores=cores
        )
        total_matches += sum(launch.values)
        total_cycles += launch.cycles
        ran_segments += 1
    if governor is not None and granted:
        governor.release_grant(granted)
    nbytes = (build_rows * build_width
              + ran_segments * probe_rows * probe_width)
    return DpuOpResult(
        value=total_matches,
        cycles=total_cycles,
        config=dpu.config,
        bytes_streamed=nbytes,
        detail={"build_rows": build_rows, "probe_rows": probe_rows,
                "build_segments": ran_segments},
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
