"""Top-k selection (paper §5.3 mentions Top-k among the implemented
partition-based operators).

DPU strategy: each core streams its static share of the value column,
keeping a k-element min-heap in DMEM (scan cost ~2 cycles/row
compare, a heap sift only on the rare replacement), then ships its
candidates to core 0 whose final merge selects the global top k —
the standard two-phase scheme.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.dpu import DPU
from ...runtime.task import static_partition
from ...obs import traced_op
from ..streaming import ref_width, stream_columns
from .costs import TOPK_CYCLES_PER_HIT, TOPK_CYCLES_PER_ROW
from .engine import DpuOpResult, XeonOpResult
from .table import DpuTable, Table

__all__ = ["dpu_topk", "xeon_topk"]

_XEON_SCAN_OPS_PER_ROW = 1.0 / 4.0  # SIMD max-threshold prefilter


@traced_op("sql.topk")
def dpu_topk(
    dpu: DPU,
    dtable: DpuTable,
    column: str,
    k: int,
    tile_rows: int = 4096,
) -> DpuOpResult:
    """Global top-k values (descending) with row ids."""
    if k <= 0:
        raise ValueError(f"k must be positive: {k}")
    rows = dtable.num_rows
    ref = dtable.column_ref(column)

    def kernel(ctx):
        cores = ctx.cores
        lo, hi = static_partition(rows, len(cores), cores.index(ctx.core_id))
        heap: List[Tuple[float, int]] = []  # (value, row_id) min-heap
        if lo < hi:
            width = ref_width(ref[1])
            safe_tile = max(64, (24 * 1024 // (2 * width)) // 64 * 64)
            shifted = [(ref[0] + lo * width, ref[1])]

            def process(tile, tlo, thi, arrays):
                values = arrays[0]
                base_row = lo + tlo
                hits = 0
                if len(heap) < k:
                    seed = min(k - len(heap), len(values))
                    for offset in range(seed):
                        heapq.heappush(
                            heap, (float(values[offset]), base_row + offset)
                        )
                    hits += seed
                    remaining = values[seed:]
                    remaining_base = base_row + seed
                else:
                    remaining = values
                    remaining_base = base_row
                if len(remaining) and heap:
                    threshold = heap[0][0]
                    over = np.nonzero(remaining > threshold)[0]
                    for offset in over.tolist():
                        value = float(remaining[offset])
                        if value > heap[0][0]:
                            heapq.heapreplace(
                                heap, (value, remaining_base + offset)
                            )
                            hits += 1
                return (thi - tlo) * TOPK_CYCLES_PER_ROW + hits * (
                    TOPK_CYCLES_PER_HIT * np.log2(max(2, k))
                )

            yield from stream_columns(
                ctx, shifted, hi - lo, min(tile_rows, safe_tile), process,
                dmem_base=0,
            )
        if ctx.core_id != cores[0]:
            yield from ctx.mbox_send(cores[0], heap)
            return None
        merged = list(heap)
        for _ in range(len(cores) - 1):
            _src, candidates = yield from ctx.mbox_receive()
            merged.extend(candidates)
            yield from ctx.compute(len(candidates) * TOPK_CYCLES_PER_HIT)
        merged.sort(reverse=True)
        return merged[:k]

    launch = dpu.launch(kernel)
    top = launch.values[0]
    return DpuOpResult(
        value=top,
        cycles=launch.cycles,
        config=dpu.config,
        bytes_streamed=dtable.nbytes([column]),
        detail={"rows": rows, "k": k},
    )


def xeon_topk(
    model: XeonModel, table: Table, column: str, k: int
) -> XeonOpResult:
    """Baseline top-k: SIMD scan + heap, memory-bound."""
    values = table.column(column)
    order = np.argpartition(values, -min(k, len(values)))[-k:]
    ranked = order[np.argsort(values[order])[::-1]]
    top = [(float(values[row]), int(row)) for row in ranked]
    seconds = model.roofline_seconds(
        instructions=len(values) * _XEON_SCAN_OPS_PER_ROW,
        nbytes=values.nbytes,
    )
    return XeonOpResult(value=top, seconds=seconds, bytes_streamed=values.nbytes)
