"""ORDER BY: range-partitioned sort (paper §5.3, §3.1).

The DMS's *range* partitioning mode exists for exactly this operator
(and its cousins in the comparison-sort literature the paper cites):

1. sample the key column to pick one balanced range bound per core
   of the launch (32 on a whole DPU);
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
from ...obs import traced_op
from ...runtime.admission import spill_segments
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
    per-core spill scratch (a column's size per core of the DPU in the
    eager plan) is acquired as an up-front grant. A denied grant
    degrades to an external sort: the column is split into segments
    that fit the granted budget, each segment is range-partition
    sorted, and the sorted segments are merged at modelled DMS
    streaming cost — the result stays byte-exact, only cycles grow.
    Without a governor the code path (and its timing) is exactly the
    eager plan.
    """
    ref = dtable.column_ref(column)
    dtype = ref_dtype(ref[1])
    width = dtype.itemsize
    rows = dtable.num_rows
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

    buffer_capacity = 20 * 1024
    buffer = (0, buffer_capacity, 31 * 1024)
    # One owner for the output region and every spill region: all are
    # freed once the sorted column is read back.
    with dpu.heap.scope():
        out_addr = dpu.alloc(max(rows * width, 8))
        chunk_rows = min(2040, dpu.config.cmem_bank_bytes // width)
        per_core_rows = buffer_capacity // width

        def run_segment(seg_row0: int, seg_rows: int, seg_descending):
            """Partition-sort rows [seg_row0, seg_row0+seg_rows)."""
            column = [(ref[0] + seg_row0 * width, dtype)]
            plan = None

            def kernel(ctx):
                nonlocal plan
                cores = ctx.cores
                if plan is None:
                    # The launch's first step: a range per core, sampled from
                    # the column; waves sized against the most loaded core,
                    # from the sample's observed skew (2x safety margin; the
                    # partition loop ends a wave early where the sample
                    # underestimated a range); a spill region per core.
                    sampled, sample_size, max_share = _sample_bounds(
                        host_values, len(cores))
                    wave_rows = int(per_core_rows
                                    / max(2.0 * max_share, 2.0 / len(cores)))
                    plan = (PartitionSpec(mode=PartitionMode.RANGE,
                                          bounds=sampled, radix_bits=5),
                            sample_size,
                            max(1, wave_rows // chunk_rows) * chunk_rows,
                            {core: dpu.alloc(max(seg_rows * width, 8))
                             for core in cores})
                spec, sample_size, wave_rows, spill_addr = plan
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

                if ctx.core_id == cores[0]:
                    # Sampling pass to program the range engine.
                    yield from ctx.compute(sample_size * _SAMPLE_CYCLES_PER_VALUE)
                yield from partition_columns(ctx, column, seg_rows, spec, buffer,
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

            launch = dpu.launch(kernel)
            if segments > 1:
                for address in plan[3].values():
                    dpu.free(address)  # the next segment reuses the space
            return launch

        # Memory grant: the eager plan reserves a full column-size spill
        # for every core of the DPU (the launch may run on fewer). Under
        # pressure, shrink to segments that fit the grant, each spilling
        # only its own rows.
        num_cores = dpu.config.num_cores
        with spill_segments(governor, num_cores * max(rows * width, 8),
                            num_cores * max(chunk_rows * width, 8),
                            "sql.sort.spill") as segments:
            seg_rows = -(-rows // segments)
            launches = [
                run_segment(row0, min(seg_rows, rows - row0),
                            descending and segments == 1)
                for row0 in range(0, rows, seg_rows)
            ]
        total_cycles = 0.0
        for launch in launches:  # not sum(): it compensates on Python 3.12+
            total_cycles += launch.cycles
        if segments == 1:
            # Eager plan: one partition pass; write the runs to the output
            # region in partition order.
            runs = launches[0].values
            offset = 0
            for run in (runs[::-1] if descending else runs):
                if run is None or len(run) == 0:
                    continue
                dpu.ddr.write(out_addr + offset, np.ascontiguousarray(run))
                offset += len(run) * width
        else:
            # External sort under memory pressure: the sorted segments are
            # merged at DMS streaming cost (one read+write pass per merge
            # level).
            parts = [run for launch in launches for run in launch.values
                     if run is not None and len(run)]
            merged = np.sort(np.concatenate(parts)) if parts else np.empty(
                0, dtype=dtype)
            if descending:
                merged = merged[::-1]
            merge_passes = max(1, int(np.ceil(np.log2(max(2, segments)))))
            total_cycles += merge_passes * 2 * rows * width / 16.0
            dpu.ddr.write(out_addr, np.ascontiguousarray(merged))
        total_cycles += rows * width / 16.0  # output write at line rate
        sorted_values = dpu.load_array(out_addr, rows, dtype)
    return DpuOpResult(
        value=sorted_values,
        cycles=total_cycles,
        config=dpu.config,
        bytes_streamed=rows * width * 3,  # partition read + spill + out
        # One range per core of the (last) launch.
        detail={"bounds": len(launches[-1].values), "rows": rows,
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
