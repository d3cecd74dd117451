"""Tests for the range-partitioned sort operator."""

import numpy as np
import pytest

from repro.apps.sql import Table, dpu_sort, efficiency_gain, xeon_sort
from repro.baseline import XeonModel
from repro.core import DPU


def make_table(values):
    return Table("t", {"v": values})


class TestDpuSort:
    def test_sorted_output_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**31, 64 * 1024).astype(np.uint32)
        dpu = DPU()
        result = dpu_sort(dpu, make_table(values).to_dpu(dpu), "v")
        assert np.array_equal(result.value, np.sort(values))

    def test_descending(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 10**6, 8192).astype(np.uint32)
        dpu = DPU()
        result = dpu_sort(dpu, make_table(values).to_dpu(dpu), "v",
                          descending=True)
        assert np.array_equal(result.value, np.sort(values)[::-1])

    def test_skewed_keys(self):
        rng = np.random.default_rng(2)
        values = (rng.zipf(1.3, 32 * 1024) % 100000).astype(np.uint32)
        dpu = DPU()
        result = dpu_sort(dpu, make_table(values).to_dpu(dpu), "v")
        assert np.array_equal(result.value, np.sort(values))

    def test_duplicate_heavy_keys(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 8, 16384).astype(np.uint32)
        dpu = DPU()
        result = dpu_sort(dpu, make_table(values).to_dpu(dpu), "v")
        assert np.array_equal(result.value, np.sort(values))

    def test_negative_keys_rejected(self):
        values = np.array([-1, 2, 3], dtype=np.int32)
        dpu = DPU()
        with pytest.raises(ValueError, match="unsigned"):
            dpu_sort(dpu, make_table(values).to_dpu(dpu), "v")

    def test_empty_table(self):
        dpu = DPU()
        empty = make_table(np.empty(0, dtype=np.uint32)).to_dpu(dpu)
        result = dpu_sort(dpu, empty, "v")
        assert result.value.dtype == np.uint32 and len(result.value) == 0
        assert result.cycles == 0.0
        assert dpu.engine.now == 0  # nothing was launched

    def test_wider_keys(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 2**60, 8192).astype(np.uint64)
        dpu = DPU()
        result = dpu_sort(dpu, make_table(values).to_dpu(dpu), "v")
        assert np.array_equal(result.value, np.sort(values))


class TestXeonSortAndGain:
    def test_xeon_sort_functional(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 10**6, 20000).astype(np.uint32)
        result = xeon_sort(XeonModel(), make_table(values), "v")
        assert np.array_equal(result.value, np.sort(values))

    def test_sort_gain_positive(self):
        """Sort is partition-dominated on both platforms; the DPU's
        free hardware partition round keeps it ahead per watt."""
        rng = np.random.default_rng(6)
        values = rng.integers(0, 2**31, 128 * 1024).astype(np.uint32)
        table = make_table(values)
        dpu = DPU()
        dpu_result = dpu_sort(dpu, table.to_dpu(dpu), "v")
        xeon_result = xeon_sort(XeonModel(), table, "v")
        gain = efficiency_gain(dpu_result, xeon_result)
        assert gain > 2.0
