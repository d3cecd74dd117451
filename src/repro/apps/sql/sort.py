"""ORDER BY: range-partitioned sort (paper §5.3, §3.1).

The DMS's *range* partitioning mode exists for exactly this operator
(and its cousins in the comparison-sort literature the paper cites):

1. sample the key column to pick 32 balanced range bounds;
2. hardware range-partition the rows so core *i* receives only keys
   in range *i* — the partitions are already globally ordered
   core-to-core;
3. each core sorts its partition locally in DMEM (spilling to its
   DDR scratch between waves) and writes its run to the output slot
   determined by the per-core counts;
4. concatenation of the runs is the sorted column: no merge needed.

Functional output is checked against ``numpy.sort`` in the tests; the
x86 baseline models a radix sort at memory bandwidth (Polychroniou &
Ross), the comparison the paper's partitioning discussion builds on.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.dpu import DPU
from ...dms.descriptor import PartitionMode, PartitionSpec
from ...dms.partition import PartitionLayout
from ...obs import traced_op
from ..streaming import partition_columns, ref_dtype, store
from .engine import DpuOpResult, XeonOpResult
from .table import DpuTable, Table

__all__ = ["dpu_sort", "xeon_sort"]

# Local sort: an in-DMEM merge sort at ~4 cycles per element per
# level (load/compare/store, dual-issued), the standard scalar rate.
_SORT_CYCLES_PER_ELEMENT_LEVEL = 4.0
_SAMPLE_CYCLES_PER_VALUE = 3.0
_XEON_RADIX_PASSES = 3.0  # LSB radix over 32-bit keys, read+write each


def _sample_bounds(values: np.ndarray, fanout: int, rng_seed: int = 0):
    """Range bounds plus the sample's worst partition share.

    The driver scans a 1K-row sample to program the range engine; the
    observed skew sizes the partition waves (the paper: "if the size
    of a partition is larger than estimated, the execution engine can
    re-partition" — we instead provision waves for the estimate).
    """
    rng = np.random.default_rng(rng_seed)
    sample_size = min(len(values), 1024)
    sample = rng.choice(values, size=sample_size, replace=False)
    quantiles = np.quantile(
        sample.astype(np.float64), np.linspace(1 / fanout, 1.0, fanout)
    )
    bounds = np.unique(quantiles.astype(np.int64))
    # Bounds must be strictly ascending; pad if the sample collapsed.
    while len(bounds) < fanout:
        bounds = np.append(bounds, bounds[-1] + 1 + len(bounds))
    bounds = bounds[:fanout]
    cids = np.minimum(
        np.searchsorted(bounds, sample.astype(np.int64), side="left"),
        fanout - 1,
    )
    max_share = np.bincount(cids, minlength=fanout).max() / sample_size
    return tuple(int(b) for b in bounds), sample_size, float(max_share)


@traced_op("sql.sort")
def dpu_sort(
    dpu: DPU,
    dtable: DpuTable,
    column: str,
    descending: bool = False,
    governor=None,
) -> DpuOpResult:
    """Sort one integer column; returns the sorted array (read back
    from simulated DDR) plus timing.

    With a :class:`~repro.runtime.admission.MemoryGovernor`, the
    per-core spill scratch (32x the column size in the eager plan) is
    acquired as an up-front grant. A denied grant degrades to an
    external sort: the column is split into segments that fit the
    granted budget, each segment is range-partition sorted, and the
    sorted segments are merged at modelled DMS streaming cost — the
    result stays byte-exact, only cycles grow. Without a governor the
    code path (and its timing) is exactly the eager plan.
    """
    ref = dtable.column_ref(column)
    dtype = ref_dtype(ref[1])
    width = dtype.itemsize
    rows = dtable.num_rows
    cores = list(dpu.config.core_ids)
    if rows == 0:
        return DpuOpResult(value=np.empty(0, dtype=dtype), cycles=0.0,
                           config=dpu.config, bytes_streamed=0,
                           detail={"bounds": 0, "rows": 0,
                                   "spill_segments": 0})
    host_values = dtable.table.column(column)
    if host_values.min() < 0:
        raise ValueError(
            "range partitioning compares keys in their stored (unsigned) "
            "representation; bias negative keys before sorting"
        )

    bounds, sample_size, max_share = _sample_bounds(host_values, len(cores))
    spec = PartitionSpec(mode=PartitionMode.RANGE, bounds=bounds,
                         radix_bits=5)
    buffer_capacity = 20 * 1024
    count_offset = 31 * 1024
    layout = PartitionLayout(
        target_cores=tuple(cores), dmem_base=0, capacity=buffer_capacity,
        count_offset=count_offset,
    )
    out_addr = dpu.alloc(max(rows * width, 8))
    driver = cores[0]
    chunk_rows = min(2040, dpu.config.cmem_bank_bytes // width)
    # Wave sizing against the most loaded core, from the sample's
    # observed skew (2x safety margin; the partition loop ends a wave
    # early where the sample underestimated a range).
    per_core_rows = buffer_capacity // width
    wave_rows = int(per_core_rows / max(2.0 * max_share, 2.0 / len(cores)))
    wave_rows = max(1, wave_rows // chunk_rows) * chunk_rows

    # Memory grant: the eager plan reserves a full column-size spill
    # per core. Under pressure, shrink to segments that fit the grant.
    spill_need = len(cores) * max(rows * width, 8)
    segments = 1
    granted = 0
    if governor is not None:
        floor = len(cores) * max(chunk_rows * width, 8)
        granted = governor.grant_or_largest(
            spill_need, floor=floor, site="sql.sort.spill"
        )
        segments = max(1, -(-spill_need // granted))

    def run_segment(seg_row0: int, seg_rows: int, spill_addr, seg_descending):
        """Partition-sort rows [seg_row0, seg_row0+seg_rows)."""
        column = [(ref[0] + seg_row0 * width, dtype)]

        def kernel(ctx):
            collected: List[np.ndarray] = []
            spilled = 0

            def spill(count):
                # Spill this wave's partition rows to DDR scratch.
                nonlocal spilled
                if count:
                    values = ctx.dmem.view(0, count * width, dtype)
                    collected.append(values.copy())
                    yield from store(
                        ctx, 0, spill_addr[ctx.core_id] + spilled * width,
                        count, width, event=6, channel=1,
                    )
                    spilled += count

            if ctx.core_id == driver:
                # Sampling pass to program the range engine.
                yield from ctx.compute(sample_size * _SAMPLE_CYCLES_PER_VALUE)
            yield from partition_columns(ctx, column, seg_rows, spec, layout,
                                         chunk_rows, wave_rows, spill)
            # Local sort: stream the spill back through DMEM in runs and
            # merge (charged as n log2 n element-levels + the re-read).
            mine = (np.concatenate(collected) if collected
                    else np.empty(0, dtype=dtype))
            if len(mine):
                levels = max(1, int(np.ceil(np.log2(max(2, len(mine))))))
                yield from ctx.compute(
                    len(mine) * levels * _SORT_CYCLES_PER_ELEMENT_LEVEL
                    + len(mine) * width / 16.0  # spill re-read stream
                )
                mine = np.sort(mine)
                if seg_descending:
                    mine = mine[::-1]
            return mine

        return dpu.launch(kernel, cores=cores)

    if segments == 1:
        # Eager plan: full per-core spill scratch, one partition pass.
        spill_addr = {core: dpu.alloc(max(rows * width, 8)) for core in cores}
        launch = run_segment(0, rows, spill_addr, descending)
        runs = launch.values if not descending else launch.values[::-1]
        # Write the runs to the output region in partition order and
        # charge the final sequential write.
        offset = 0
        total_cycles = launch.cycles
        for run in runs:
            if run is None or len(run) == 0:
                continue
            dpu.ddr.write(out_addr + offset, np.ascontiguousarray(run))
            offset += len(run) * width
        total_cycles += rows * width / 16.0  # output write at line rate
    else:
        # External sort under memory pressure: each segment's spill
        # fits the grant; sorted segments are then merged at DMS
        # streaming cost (one read+write pass per merge level).
        seg_rows_max = -(-rows // segments)
        total_cycles = 0.0
        seg_arrays: List[np.ndarray] = []
        for seg in range(segments):
            seg_row0 = seg * seg_rows_max
            seg_rows = min(seg_rows_max, rows - seg_row0)
            if seg_rows <= 0:
                break
            spill_addr = {
                core: dpu.alloc(max(seg_rows * width, 8)) for core in cores
            }
            launch = run_segment(seg_row0, seg_rows, spill_addr, False)
            total_cycles += launch.cycles
            parts = [run for run in launch.values
                     if run is not None and len(run)]
            seg_arrays.append(
                np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
            )
            for address in spill_addr.values():
                dpu.free(address)
        merged = (np.sort(np.concatenate(seg_arrays)) if seg_arrays
                  else np.empty(0, dtype=dtype))
        if descending:
            merged = merged[::-1]
        merge_passes = max(1, int(np.ceil(np.log2(max(2, segments)))))
        total_cycles += merge_passes * 2 * rows * width / 16.0
        dpu.ddr.write(out_addr, np.ascontiguousarray(merged))
        total_cycles += rows * width / 16.0  # output write at line rate
    if governor is not None and granted:
        governor.release_grant(granted)
    sorted_values = dpu.load_array(out_addr, rows, dtype)
    return DpuOpResult(
        value=sorted_values,
        cycles=total_cycles,
        config=dpu.config,
        bytes_streamed=rows * width * 3,  # partition read + spill + out
        detail={"bounds": len(bounds), "rows": rows,
                "spill_segments": segments},
    )


def xeon_sort(model: XeonModel, table: Table, column: str,
              descending: bool = False) -> XeonOpResult:
    """Radix sort at memory bandwidth (Polychroniou & Ross)."""
    values = np.sort(table.column(column))
    if descending:
        values = values[::-1]
    nbytes = table.column(column).nbytes
    seconds = model.roofline_seconds(
        instructions=len(values) * 4.0 * _XEON_RADIX_PASSES,
        nbytes=nbytes,
        memory_passes=2 * _XEON_RADIX_PASSES,
    )
    return XeonOpResult(value=values, seconds=seconds,
                        bytes_streamed=int(nbytes * 2 * _XEON_RADIX_PASSES))
