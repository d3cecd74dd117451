"""Stereo disparity maps (paper §5.6).

Block-matching disparity: for every candidate shift X in [0,
max_shift], compute the window-SAD between the left image and the
right image shifted by X, and keep the argmin shift per pixel. The
three access patterns of Figure 17 (row, column, pixelated) all
appear in the SAD + box-filter pipeline.

Two parallelizations, as the paper compares:

* **fine-grained** — the image is split into row tiles, one per
  dpCore; all cores compute every shift over their tile in lockstep
  with a system-wide :class:`~repro.runtime.parallel.AteBarrier`
  between vision kernels. Tiles (plus halo rows) are DMEM-resident,
  so each image byte crosses the memory bus once. This is the
  paper's winning variant (8.6x perf/watt over OpenMP x86).
* **coarse-grained** — each dpCore owns one shift and streams the
  whole image pair, then a merge pass reduces the per-shift SAD maps.
  Far less synchronization, but the image pair is fetched once *per
  shift* and the SAD maps round-trip through DRAM — it cannot use
  the available bandwidth efficiently, exactly as §5.6 observes.

Both produce bit-identical disparity maps, validated against the
generator's ground truth.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..baseline.xeon import XeonModel
from ..core.dpu import DPU
from ..runtime.parallel import AteBarrier
from ..runtime.task import static_partition
from ..workloads.stereo import StereoPair
from .sql.engine import DpuOpResult, XeonOpResult
from .streaming import load, store

__all__ = [
    "compute_disparity_reference",
    "dpu_disparity",
    "xeon_disparity",
    "disparity_accuracy",
]

_WINDOW = 5  # SAD window (odd)
# Per pixel per shift: abs-diff (2 loads + sub/abs, dual-issued) +
# two-pass running box sums + best-shift compare/update.
_SAD_CYCLES_PER_PIXEL = 8.0
_MERGE_CYCLES_PER_PIXEL = 2.0  # coarse variant's argmin pass
_XEON_OPS_PER_PIXEL_SHIFT = 1.5  # AVX2 uint8 SAD + update
_XEON_MEMORY_PASSES = 2.5  # images + spilled SAD intermediates


def _box_filter(values: np.ndarray, window: int) -> np.ndarray:
    """Window-sum via separable running sums (same as the kernel)."""
    half = window // 2
    padded = np.pad(values.astype(np.int64), half, mode="edge")
    csum_rows = np.cumsum(padded, axis=0)
    rows = csum_rows[window - 1 :, :] - np.vstack(
        [np.zeros((1, padded.shape[1]), dtype=np.int64), csum_rows[:-window, :]]
    )
    csum_cols = np.cumsum(rows, axis=1)
    out = csum_cols[:, window - 1 :] - np.hstack(
        [np.zeros((rows.shape[0], 1), dtype=np.int64), csum_cols[:, :-window]]
    )
    return out


def compute_disparity_reference(
    pair: StereoPair, window: int = _WINDOW
) -> np.ndarray:
    """Host reference disparity map (int16)."""
    rows, cols = pair.left.shape
    best_sad = np.full((rows, cols), np.iinfo(np.int64).max, dtype=np.int64)
    best_shift = np.zeros((rows, cols), dtype=np.int16)
    left = pair.left.astype(np.int64)
    right = pair.right.astype(np.int64)
    for shift in range(pair.max_shift + 1):
        shifted = np.empty_like(right)
        if shift:
            shifted[:, shift:] = right[:, : cols - shift]
            shifted[:, :shift] = right[:, :1]
        else:
            shifted[:] = right
        sad = _box_filter(np.abs(left - shifted), window)
        better = sad < best_sad
        best_sad[better] = sad[better]
        best_shift[better] = shift
    return best_shift


def disparity_accuracy(
    computed: np.ndarray, truth: np.ndarray, tolerance: int = 1,
    margin: int = 8,
) -> float:
    """Fraction of interior pixels within ``tolerance`` of truth."""
    interior_c = computed[margin:-margin, margin:-margin]
    interior_t = truth[margin:-margin, margin:-margin]
    return float(np.mean(np.abs(interior_c - interior_t) <= tolerance))


def dpu_disparity(
    dpu: DPU,
    pair: StereoPair,
    images_addr: Tuple[int, int],
    variant: str = "fine",
    window: int = _WINDOW,
) -> DpuOpResult:
    """Compute the disparity map on the DPU.

    ``images_addr`` are the DDR addresses of the left and right images
    (row-major uint8, stored with :meth:`DPU.store_array`).
    """
    if variant not in ("fine", "coarse"):
        raise ValueError(f"unknown variant {variant!r}")
    rows, cols = pair.left.shape
    shifts = pair.max_shift + 1
    left_addr, right_addr = images_addr
    out_addr = dpu.alloc(rows * cols * 2)
    cores = list(dpu.config.core_ids)
    half = window // 2

    if variant == "fine":
        barrier = AteBarrier(dpu, cores, counter_offset=31 * 1024,
                             flag_offset=31 * 1024 + 16)

        def kernel(ctx):
            index = cores.index(ctx.core_id)
            r_lo, r_hi = static_partition(rows, len(cores), index)
            halo_lo = max(0, r_lo - half)
            halo_hi = min(rows, r_hi + half)
            tile_rows = halo_hi - halo_lo
            tile_bytes = tile_rows * cols
            if r_lo < r_hi:
                # Load left and right row tiles (with halo) into DMEM.
                for which, addr in ((0, left_addr), (1, right_addr)):
                    yield from load(ctx, addr + halo_lo * cols,
                                    which * tile_bytes, tile_bytes, 1, 0)
                left_tile = (
                    ctx.dmem.view(0, tile_bytes).reshape(tile_rows, cols)
                    .astype(np.int64)
                )
                right_tile = (
                    ctx.dmem.view(tile_bytes, tile_bytes)
                    .reshape(tile_rows, cols).astype(np.int64)
                )
                best_sad = np.full(
                    (r_hi - r_lo, cols), np.iinfo(np.int64).max, dtype=np.int64
                )
                best_shift = np.zeros((r_hi - r_lo, cols), dtype=np.int16)
            for shift in range(shifts):
                if r_lo < r_hi:
                    shifted = np.empty_like(right_tile)
                    if shift:
                        shifted[:, shift:] = right_tile[:, : cols - shift]
                        shifted[:, :shift] = right_tile[:, :1]
                    else:
                        shifted[:] = right_tile
                    sad_full = _box_filter(
                        np.abs(left_tile - shifted), window
                    )
                    sad = sad_full[r_lo - halo_lo : r_hi - halo_lo]
                    better = sad < best_sad
                    best_sad[better] = sad[better]
                    best_shift[better] = shift
                    yield from ctx.compute(
                        (r_hi - r_lo) * cols * _SAD_CYCLES_PER_PIXEL
                    )
                # Lockstep between vision kernels (the fine-grained
                # cost the ATE makes affordable).
                yield from barrier.wait(ctx)
            if r_lo < r_hi:
                # Write the tile's disparity rows back via the DMS.
                ctx.dmem.write(2 * tile_bytes, best_shift.astype("<i2"))
                yield from store(ctx, 2 * tile_bytes,
                                 out_addr + r_lo * cols * 2,
                                 (r_hi - r_lo) * cols, 2, event=1, channel=1)
            return None

        launch = dpu.launch(kernel, cores=cores)
        bytes_streamed = 2 * rows * cols + rows * cols * 2
    else:
        # Coarse: core s computes the full-image SAD map for shift s,
        # writes it to DDR; core 0 then merges argmin over all maps.
        sad_maps_addr = dpu.alloc(shifts * rows * cols * 4)
        active = cores[: min(shifts, len(cores))]

        def kernel(ctx):
            index = cores.index(ctx.core_id)
            if index < shifts:
                shift = index
                # Stream the full image pair through DMEM in row
                # blocks (whole image does not fit DMEM).
                block_rows = max(window, (10 * 1024 // cols) // 2)
                position = 0
                sad_rows = []
                while position < rows:
                    r_lo = max(0, position - half)
                    r_hi = min(rows, position + block_rows + half)
                    nbytes = (r_hi - r_lo) * cols
                    for which, addr in ((0, left_addr), (1, right_addr)):
                        yield from load(ctx, addr + r_lo * cols,
                                        which * 12 * 1024, nbytes, 1, 0)
                    left_block = ctx.dmem.view(0, nbytes).reshape(
                        r_hi - r_lo, cols
                    ).astype(np.int64)
                    right_block = ctx.dmem.view(12 * 1024, nbytes).reshape(
                        r_hi - r_lo, cols
                    ).astype(np.int64)
                    shifted = np.empty_like(right_block)
                    if shift:
                        shifted[:, shift:] = right_block[:, : cols - shift]
                        shifted[:, :shift] = right_block[:, :1]
                    else:
                        shifted[:] = right_block
                    sad_full = _box_filter(
                        np.abs(left_block - shifted), window
                    )
                    lo_off = position - r_lo
                    hi_off = lo_off + min(block_rows, rows - position)
                    sad_rows.append(sad_full[lo_off:hi_off])
                    yield from ctx.compute(
                        (hi_off - lo_off) * cols * _SAD_CYCLES_PER_PIXEL
                    )
                    position += block_rows
                sad_map = np.vstack(sad_rows).astype(np.int32)
                # Write the SAD map to DDR (a full extra round trip —
                # the coarse variant's bandwidth tax).
                map_addr = sad_maps_addr + shift * rows * cols * 4
                raw = sad_map.astype("<i4").view(np.uint8).ravel()
                for start in range(0, len(raw), 8 * 1024):
                    piece = raw[start : start + 8 * 1024]
                    ctx.dmem.write(24 * 1024, piece)
                    yield from store(ctx, 24 * 1024, map_addr + start,
                                     len(piece), 1, event=1, channel=1)
                yield from ctx.mbox_send(cores[0], ("done", shift))
            if ctx.core_id == cores[0]:
                for _ in range(len(active)):
                    yield from ctx.mbox_receive()
                # Merge pass: argmin across the shift maps.
                maps = dpu.load_array(
                    sad_maps_addr, shifts * rows * cols, np.int32
                ).reshape(shifts, rows, cols)
                best = np.argmin(maps, axis=0).astype(np.int16)
                yield from ctx.compute(
                    shifts * rows * cols * _MERGE_CYCLES_PER_PIXEL
                    + shifts * rows * cols * 4 / 16.0  # map re-read stream
                )
                dpu.ddr.write(out_addr, best.astype("<i2"))
                return None
            return None

        launch = dpu.launch(kernel, cores=cores)
        bytes_streamed = (
            2 * rows * cols * shifts  # image pair per shift
            + 2 * shifts * rows * cols * 4  # SAD maps out and back
            + rows * cols * 2
        )

    disparity = dpu.load_array(out_addr, rows * cols, np.int16).reshape(
        rows, cols
    )
    return DpuOpResult(
        value=disparity,
        cycles=launch.cycles,
        config=dpu.config,
        bytes_streamed=bytes_streamed,
        detail={"variant": variant, "shifts": shifts},
    )


def xeon_disparity(
    model: XeonModel, pair: StereoPair, window: int = _WINDOW
) -> XeonOpResult:
    """OpenMP block-matching baseline (functional + roofline).

    SIMD SAD is cheap; the cost is the intermediate difference/SAD
    maps spilling past the caches — modelled as extra memory passes.
    """
    disparity = compute_disparity_reference(pair, window)
    rows, cols = pair.left.shape
    shifts = pair.max_shift + 1
    seconds = model.roofline_seconds(
        instructions=rows * cols * shifts * _XEON_OPS_PER_PIXEL_SHIFT,
        nbytes=2 * rows * cols * shifts,
        memory_passes=_XEON_MEMORY_PASSES,
    )
    return XeonOpResult(
        value=disparity,
        seconds=seconds,
        bytes_streamed=2 * rows * cols * shifts,
        detail={"shifts": shifts},
    )
