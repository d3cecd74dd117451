"""Tests for workload generators and the DMS streaming helper."""

import re

import numpy as np
import pytest

from repro.apps.streaming import stream_columns
from repro.core import DPU
from repro.workloads import (
    generate_corpus,
    generate_higgs_like,
    generate_lineitem_json,
    generate_stereo_pair,
)


class TestHiggs:
    def test_shapes_and_normalization(self):
        data = generate_higgs_like(num_samples=256)
        assert data.features.shape == (256, 28)
        assert np.abs(data.features).max() <= 1.0
        assert set(np.unique(data.labels)) == {-1.0, 1.0}

    def test_classes_roughly_balanced(self):
        data = generate_higgs_like(num_samples=1000)
        positives = int((data.labels > 0).sum())
        assert 400 <= positives <= 600

    def test_separation_controls_difficulty(self):
        easy = generate_higgs_like(num_samples=500, separation=4.0)
        hard = generate_higgs_like(num_samples=500, separation=0.2)
        # Linear probe: project onto the class-mean difference.
        def probe_accuracy(data):
            direction = (
                data.features[data.labels > 0].mean(axis=0)
                - data.features[data.labels < 0].mean(axis=0)
            )
            scores = data.features @ direction
            return np.mean(np.sign(scores) == data.labels)
        assert probe_accuracy(easy) > probe_accuracy(hard)

    def test_deterministic(self):
        a = generate_higgs_like(num_samples=64, seed=3)
        b = generate_higgs_like(num_samples=64, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_higgs_like(num_samples=1)


class TestCorpus:
    def test_csr_well_formed(self):
        workload = generate_corpus(num_docs=200, vocab=1000, num_queries=16)
        index = workload.index
        assert index.indptr[0] == 0
        assert index.indptr[-1] == index.nnz
        assert np.all(np.diff(index.indptr) >= 0)
        assert index.indices.max() < index.num_cols

    def test_rows_l2_normalized(self):
        workload = generate_corpus(num_docs=100, vocab=500, num_queries=8)
        for doc in range(20):
            _cols, values = workload.index.row(doc)
            assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-5)

    def test_queries_reference_their_source_doc_terms(self):
        workload = generate_corpus(num_docs=150, vocab=600, num_queries=10)
        for query, doc in enumerate(workload.query_truth):
            q_cols, _ = workload.queries.row(query)
            d_cols, _ = workload.index.row(int(doc))
            assert set(q_cols.tolist()) <= set(d_cols.tolist())


class TestJsonData:
    def test_records_have_lineitem_keys(self):
        import json
        data = generate_lineitem_json(5)
        records = json.loads("[" + data.decode().replace("}{", "},{") + "]")
        assert len(records) == 5
        assert "l_shipdate" in records[0] and "l_comment" in records[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_lineitem_json(0)


class TestStereo:
    def test_shapes_and_truth_range(self):
        pair = generate_stereo_pair(rows=64, cols=96, max_shift=6)
        assert pair.left.shape == pair.right.shape == (64, 96)
        assert pair.true_disparity.min() >= 1
        assert pair.true_disparity.max() < 6

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_stereo_pair(cols=32, max_shift=20)


class TestStreamColumns:
    def test_multi_column_tiles_deliver_all_rows(self):
        dpu = DPU()
        n = 5000  # not a multiple of the tile size: partial last tile
        a = np.arange(n, dtype=np.uint32)
        b = np.arange(n, dtype=np.uint64) * 3
        addr_a, addr_b = dpu.store_array(a), dpu.store_array(b)
        seen = {"a": [], "b": []}

        def kernel(ctx):
            def process(tile, lo, hi, arrays):
                seen["a"].append(arrays[0].copy())
                seen["b"].append(arrays[1].copy())
                return 10

            yield from stream_columns(
                ctx, [(addr_a, np.uint32), (addr_b, np.uint64)], n, 512,
                process,
            )

        dpu.launch(kernel, cores=[0])
        assert np.array_equal(np.concatenate(seen["a"]), a)
        assert np.array_equal(np.concatenate(seen["b"]), b)

    def test_signed_dtypes_preserved(self):
        dpu = DPU()
        values = np.array([-5, -1, 0, 3], dtype=np.int32)
        address = dpu.store_array(values)

        def kernel(ctx):
            out = []

            def process(tile, lo, hi, arrays):
                out.extend(arrays[0].tolist())
                return 0

            yield from stream_columns(ctx, [(address, np.int32)], 4, 4, process)
            return out

        assert dpu.launch(kernel, cores=[0]).values[0] == [-5, -1, 0, 3]

    def test_writeback_roundtrip(self):
        dpu = DPU()
        n = 2048
        values = np.arange(n, dtype=np.uint32)
        src = dpu.store_array(values)
        dst = dpu.alloc(n * 4)

        def kernel(ctx):
            def process(tile, lo, hi, arrays):
                arrays[0][:] = arrays[0] * 2  # mutate in DMEM
                return 5

            yield from stream_columns(
                ctx, [(src, np.uint32)], n, 256, process,
                writeback=(dst, np.uint32),
            )

        dpu.launch(kernel, cores=[0])
        assert np.array_equal(
            dpu.load_array(dst, n, np.uint32), values * 2
        )

    def test_dmem_overflow_rejected(self):
        dpu = DPU()
        address = dpu.store_array(np.zeros(10000, dtype=np.uint64))

        def kernel(ctx):
            yield from stream_columns(
                ctx, [(address, np.uint64)], 10000, 4096,
                lambda *a: 0,
            )

        with pytest.raises(ValueError, match="DMEM"):
            dpu.launch(kernel, cores=[0])

    # 94 rows of three columns of mixed widths (4, 2 and 1 bytes): what
    # one core of a short shard streams.
    SHORT_DTYPES = (np.int32, np.uint16, np.uint8)
    SHORT_ROWS = 94

    def _short_stream(self, tile_rows, dmem_base=0):
        dpu = DPU()
        rng = np.random.default_rng(9)
        columns = [rng.integers(0, 200, self.SHORT_ROWS).astype(dtype)
                   for dtype in self.SHORT_DTYPES]
        refs = [(dpu.store_array(column), column.dtype) for column in columns]
        seen = {}

        def kernel(ctx):
            base = ctx.dmem.data.ctypes.data

            def process(tile, lo, hi, arrays):
                seen["offsets"] = [array.ctypes.data - base for array in arrays]
                seen["values"] = [array.copy() for array in arrays]
                return 10

            yield from stream_columns(ctx, refs, self.SHORT_ROWS, tile_rows,
                                      process, dmem_base=dmem_base)

        launch = dpu.launch(kernel, cores=[0])
        return dpu, columns, seen, launch.cycles

    @pytest.mark.parametrize("dmem_base", [0, 4096])
    def test_single_tile_lays_columns_out_by_its_rows(self, dmem_base):
        """One tile's columns sit back to back in 128-row slots (its 94
        rows rounded up to 64), not at the planned 2,048-row stride."""
        dpu, columns, seen, _cycles = self._short_stream(2048, dmem_base)
        starts = [dmem_base, dmem_base + 128 * 4, dmem_base + 128 * (4 + 2)]
        assert seen["offsets"] == starts
        dmem = dpu.scratchpads[0].data
        for start, column, values in zip(starts, columns, seen["values"]):
            assert np.array_equal(values, column)
            landed = dmem[start:start + column.nbytes].view(column.dtype)
            assert np.array_equal(landed, column)
        # Nothing lands past the stream's one buffer set.
        assert not dmem[starts[-1] + 128:].any()

    def test_single_tile_is_timed_as_its_planned_tile(self):
        short = self._short_stream(2048)
        exact = self._short_stream(128)
        assert short[3] == exact[3]
        for got, want in zip(short[2]["values"], exact[2]["values"]):
            assert np.array_equal(got, want)
        assert (short[0].counter_registry().snapshot()
                == exact[0].counter_registry().snapshot())

    def test_planned_tile_too_large_still_rejected(self):
        # 94 rows fit one page, but two 4,096-row tiles of 7 B rows do
        # not fit DMEM: the check counts the planned tile.
        with pytest.raises(ValueError, match=re.escape(
                "streaming needs 57344 B of DMEM at 0, have 32768")):
            self._short_stream(4096)

    def test_zero_rows_is_noop(self):
        dpu = DPU()

        def kernel(ctx):
            yield from stream_columns(ctx, [(4096, 4)], 0, 64, lambda *a: 0)
            return "done"

        assert dpu.launch(kernel, cores=[0]).values[0] == "done"
