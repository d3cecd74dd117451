"""Similarity search on text (paper §5.2).

Cosine similarity of query vectors against a tf-idf document index,
formulated as sparse matrix-matrix multiplication (SpMM): accumulate
the inverted-index rows of each query's terms into a score
accumulator, then take the top-k documents per query.

Following the CPU/GPU algorithms the paper builds on, the index is
**range-partitioned into document tiles** so each tile's score
accumulator fits in DMEM. Tiles are variable-sized (they end where
the data says they end), which is the crux of the DMS story:

* **naive** — fetch a fixed-size buffer per posting segment because
  "we cannot know when a tile ends without actually reading the
  tile"; almost all fetched bytes are discarded. The paper measured
  0.26 GB/s of effective bandwidth.
* **dynamic tiles** — fetch buffers containing *multiple* tiles and
  track segment ends in software, consuming every byte in DMEM:
  5.24 GB/s effective, a 3.9x perf/watt win over the tuned x86 SpMM
  (which itself runs at 34.5 GB/s effective across 36 cores).

Scores are computed in Q10.22 fixed point on the DPU path (the
dpCore has no FPU); top-1 results are validated against the known
query-source documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..baseline.xeon import XeonModel
from ..core.dpu import DPU
from ..fixedpoint import FXP_ONE, to_fixed
from ..runtime.task import static_partition
from ..workloads.corpus import CsrMatrix, SimilarityWorkload
from .sql.engine import DpuOpResult, XeonOpResult
from .streaming import load, stream_columns

__all__ = ["TiledIndex", "build_tiled_index", "dpu_simsearch", "xeon_simsearch"]

# Posting accumulate: load (doc, weight), fixed multiply on the
# iterative multiplier (Q10.22 weights are small: ~6 cycles), DMEM
# accumulator read-modify-write — ~12 cycles, matching the agg loop
# measurements in repro.apps.sql.costs.
_ACCUM_CYCLES_PER_POSTING = 12.0
# Post-accumulation top-k scan of the tile's accumulator slots.
_SCAN_CYCLES_PER_SLOT = 2.0
_NAIVE_FETCH_BYTES = 8192  # fixed DMS buffer of the naive variant
_POSTING_BYTES = 8  # u32 doc id + u32 fixed-point weight


@dataclass
class TiledIndex:
    """Inverted index segmented by document tile.

    ``postings`` is the flat (doc u32, weight-fixed u32) stream
    ordered by (tile, term); ``segment`` maps (tile, term) to its
    [start, end) posting range; ``tile_starts`` gives each tile's
    first posting (dynamic kernels parse tile ends from these).
    """

    num_docs: int
    num_terms: int
    tile_docs: int
    postings: np.ndarray  # shape (nnz, 2) uint32
    segments: Dict[Tuple[int, int], Tuple[int, int]]
    tile_starts: List[int]

    @property
    def num_tiles(self) -> int:
        return len(self.tile_starts) - 1

    def nbytes(self) -> int:
        return self.postings.nbytes


def build_tiled_index(index: CsrMatrix, tile_docs: int = 256) -> TiledIndex:
    """Invert a docs-x-terms CSR matrix into tiled postings."""
    if tile_docs <= 0:
        raise ValueError(f"tile_docs must be positive: {tile_docs}")
    num_docs = index.num_rows
    num_tiles = -(-num_docs // tile_docs)
    # Expand CSR to COO once (docs are CSR rows).
    docs = np.repeat(
        np.arange(num_docs, dtype=np.int64), np.diff(index.indptr)
    )
    terms = index.indices.astype(np.int64)
    weights = to_fixed(index.values.astype(np.float64))
    tiles = docs // tile_docs
    # Sort by (tile, term, doc): the storage order of the posting file.
    order = np.lexsort((docs, terms, tiles))
    docs, terms, weights, tiles = (
        docs[order], terms[order], weights[order], tiles[order],
    )
    postings = np.stack(
        [docs.astype(np.uint32), weights.astype(np.int64).astype(np.uint32)],
        axis=1,
    )
    segments: Dict[Tuple[int, int], Tuple[int, int]] = {}
    boundaries = np.nonzero(
        (np.diff(tiles) != 0) | (np.diff(terms) != 0)
    )[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(tiles)]])
    for start, end in zip(starts.tolist(), ends.tolist()):
        segments[(int(tiles[start]), int(terms[start]))] = (start, end)
    tile_starts = np.searchsorted(tiles, np.arange(num_tiles + 1)).tolist()
    return TiledIndex(
        num_docs=num_docs,
        num_terms=index.num_cols,
        tile_docs=tile_docs,
        postings=postings,
        segments=segments,
        tile_starts=tile_starts,
    )


def _topk_merge(
    best: List[Tuple[float, int]], scores: np.ndarray, base_doc: int, k: int
) -> List[Tuple[float, int]]:
    """Merge a tile's accumulator into a query's running top-k."""
    hot = np.nonzero(scores)[0]
    if len(hot):
        candidates = best + [
            (float(scores[slot]) / FXP_ONE, base_doc + int(slot))
            for slot in hot
        ]
        candidates.sort(key=lambda item: (-item[0], item[1]))
        return candidates[:k]
    return best


def dpu_simsearch(
    dpu: DPU,
    workload: SimilarityWorkload,
    tiled: TiledIndex,
    postings_addr: int,
    variant: str = "dynamic",
    k: int = 5,
) -> DpuOpResult:
    """Run similarity search on the DPU; returns top-k per query.

    ``postings_addr`` is the posting stream's DDR address (store
    ``tiled.postings`` with :meth:`DPU.store_array` first).
    """
    if variant not in ("dynamic", "naive"):
        raise ValueError(f"unknown variant {variant!r}")
    queries = workload.queries
    cores = list(dpu.config.core_ids)
    num_queries = queries.num_rows
    fixed_qvals = to_fixed(queries.values.astype(np.float64))

    def query_terms(query: int) -> Tuple[np.ndarray, np.ndarray]:
        start, stop = queries.indptr[query], queries.indptr[query + 1]
        return queries.indices[start:stop], fixed_qvals[start:stop]

    useful_bytes_total = 0
    streamed_bytes_total = 0

    def kernel(ctx):
        nonlocal useful_bytes_total, streamed_bytes_total
        # Document tiles are range-partitioned across cores (each
        # core's DMEM holds its tiles' score accumulators); every
        # query visits every core. Per-query top-k fragments from all
        # cores merge on the host side of the launch.
        t_lo, t_hi = static_partition(
            tiled.num_tiles, len(cores), cores.index(ctx.core_id)
        )
        results: Dict[int, List[Tuple[float, int]]] = {
            query: [] for query in range(num_queries)
        }
        if t_lo >= t_hi:
            return results
        all_queries = list(range(num_queries))

        # A tile may straddle DMEM buffers: its per-query accumulators
        # persist until the tile's last posting has arrived, then the
        # top-k scan runs once (this is the "track state corresponding
        # to the end of each tile" software of §5.2).
        open_tiles: Dict[int, Dict[int, np.ndarray]] = {}

        def do_tile(tile: int, raw: np.ndarray, raw_base: int,
                    raw_end: int) -> float:
            """Accumulate one tile's postings present in the buffer;
            finalize when the tile is complete."""
            base_doc = tile * tiled.tile_docs
            cycles = 0.0
            accumulators = open_tiles.setdefault(tile, {})
            for query in all_queries:
                terms, q_weights = query_terms(query)
                for term, q_weight in zip(terms.tolist(), q_weights.tolist()):
                    segment = tiled.segments.get((tile, int(term)))
                    if segment is None:
                        continue
                    s_lo = max(segment[0], raw_base)
                    s_hi = min(segment[1], raw_end)
                    if s_lo >= s_hi:
                        continue
                    block = raw[s_lo - raw_base : s_hi - raw_base]
                    docs = block[:, 0].astype(np.int64) - base_doc
                    w = block[:, 1].astype(np.int64)
                    contrib = (q_weight * w) >> 22
                    accumulator = accumulators.get(query)
                    if accumulator is None:
                        accumulator = np.zeros(tiled.tile_docs, dtype=np.int64)
                        accumulators[query] = accumulator
                    np.add.at(accumulator, docs, contrib)
                    cycles += len(block) * _ACCUM_CYCLES_PER_POSTING
            if tiled.tile_starts[tile + 1] <= raw_end:
                for query, accumulator in accumulators.items():
                    results[query] = _topk_merge(
                        results[query], accumulator, base_doc, k
                    )
                    cycles += tiled.tile_docs * _SCAN_CYCLES_PER_SLOT
                open_tiles.pop(tile, None)
            return cycles

        p_lo = tiled.tile_starts[t_lo]
        p_hi = tiled.tile_starts[t_hi]
        if variant == "dynamic":
            # Stream this core's posting range once; segment/tile ends
            # are tracked in software so every fetched byte is used.
            def process(buffer_index, lo, hi, arrays):
                raw = arrays[0].view(np.uint32).reshape(-1, 2)
                raw_base, raw_end = p_lo + lo, p_lo + hi
                first_tile = int(
                    np.searchsorted(
                        tiled.tile_starts, raw_base, side="right"
                    ) - 1
                )
                cycles = 0.0
                for tile in range(first_tile, t_hi):
                    if tiled.tile_starts[tile] >= raw_end:
                        break
                    cycles += do_tile(tile, raw, raw_base, raw_end)
                return cycles

            yield from stream_columns(
                ctx,
                [(postings_addr + p_lo * 8, 8)],
                p_hi - p_lo,
                1024,  # 8 KB posting buffers, double buffered
                process,
            )
            useful_bytes_total += (p_hi - p_lo) * _POSTING_BYTES
            streamed_bytes_total += (p_hi - p_lo) * _POSTING_BYTES
        else:
            # Naive: one fixed-size DMS fetch per (query, term, tile)
            # posting segment; the remainder of each buffer is waste.
            for tile in range(t_lo, t_hi):
                base_doc = tile * tiled.tile_docs
                for query in all_queries:
                    terms, q_weights = query_terms(query)
                    accumulator = np.zeros(tiled.tile_docs, dtype=np.int64)
                    any_hit = False
                    for term, q_weight in zip(
                        terms.tolist(), q_weights.tolist()
                    ):
                        segment = tiled.segments.get((tile, int(term)))
                        if segment is None:
                            continue
                        any_hit = True
                        s_lo, s_hi = segment
                        fetch_rows = min(
                            _NAIVE_FETCH_BYTES // _POSTING_BYTES,
                            len(tiled.postings) - s_lo,
                        )
                        yield from load(ctx, postings_addr + s_lo * 8, 0,
                                        fetch_rows, 8, 0)
                        raw = ctx.dmem.view(0, fetch_rows * 8, np.uint32)
                        block = raw.reshape(-1, 2)[: s_hi - s_lo]
                        docs = block[:, 0].astype(np.int64) - base_doc
                        w = block[:, 1].astype(np.int64)
                        contrib = (q_weight * w) >> 22
                        np.add.at(accumulator, docs, contrib)
                        yield from ctx.compute(
                            len(block) * _ACCUM_CYCLES_PER_POSTING
                        )
                        useful_bytes_total += (s_hi - s_lo) * _POSTING_BYTES
                        streamed_bytes_total += fetch_rows * _POSTING_BYTES
                    if any_hit:
                        results[query] = _topk_merge(
                            results[query], accumulator, base_doc, k
                        )
                        yield from ctx.compute(
                            tiled.tile_docs * _SCAN_CYCLES_PER_SLOT
                        )
        return results

    launch = dpu.launch(kernel, cores=cores)
    merged: Dict[int, List[Tuple[float, int]]] = {
        query: [] for query in range(num_queries)
    }
    for value in launch.values:
        for query, fragment in (value or {}).items():
            if fragment:
                combined = merged[query] + fragment
                combined.sort(key=lambda item: (-item[0], item[1]))
                merged[query] = combined[:k]
    useful = useful_bytes_total
    effective_gbps = useful / (launch.cycles / dpu.config.clock_hz) / 1e9
    return DpuOpResult(
        value=merged,
        cycles=launch.cycles,
        config=dpu.config,
        bytes_streamed=useful,
        detail={
            "variant": variant,
            "effective_gbps": effective_gbps,
            "streamed_bytes": streamed_bytes_total,
            "utilization": useful / max(streamed_bytes_total, 1),
        },
    )


def xeon_simsearch(
    model: XeonModel,
    workload: SimilarityWorkload,
    tiled: TiledIndex,
    k: int = 5,
) -> XeonOpResult:
    """Tuned x86 SpMM: the paper measured 34.5 GB/s effective.

    Functionally identical float-precision scoring (the x86 version
    keeps floats), timed at the measured effective bandwidth over the
    same per-worker posting traffic.
    """
    queries = workload.queries
    index = workload.index
    num_docs = index.num_rows
    results: Dict[int, List[Tuple[float, int]]] = {}
    inverted = _invert(index)
    for query in range(queries.num_rows):
        q_cols, q_vals = queries.row(query)
        scores = np.zeros(num_docs, dtype=np.float64)
        for term, q_weight in zip(q_cols.tolist(), q_vals.tolist()):
            docs, weights = inverted.get(int(term), (None, None))
            if docs is None:
                continue
            scores[docs] += q_weight * weights
        order = np.argsort(-scores)[:k]
        results[query] = [
            (float(scores[doc]), int(doc)) for doc in order if scores[doc] > 0
        ]
    # Same doc-partitioned accounting as the DPU kernel: the index is
    # streamed once per query batch, at the measured 34.5 GB/s
    # effective bandwidth across 36 cores.
    consumed_bytes = tiled.nbytes()
    seconds = consumed_bytes / (model.config.effective_bandwidth_gbps * 1e9)
    return XeonOpResult(
        value=results,
        seconds=seconds,
        bytes_streamed=consumed_bytes,
        detail={
            "effective_gbps": model.config.effective_bandwidth_gbps,
        },
    )


def _invert(index: CsrMatrix) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """term -> (doc ids, weights) inversion of a docs-x-terms CSR."""
    docs = np.repeat(
        np.arange(index.num_rows, dtype=np.int64), np.diff(index.indptr)
    )
    terms = index.indices.astype(np.int64)
    order = np.argsort(terms, kind="stable")
    docs, terms = docs[order], terms[order]
    weights = index.values[order]
    inverted: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    boundaries = np.concatenate(
        [[0], np.nonzero(np.diff(terms))[0] + 1, [len(terms)]]
    )
    for lo, hi in zip(boundaries[:-1].tolist(), boundaries[1:].tolist()):
        inverted[int(terms[lo])] = (docs[lo:hi], weights[lo:hi])
    return inverted
