"""The low-NDV group-by's bulk pass against the per-tile kernel it
replaced.

``_per_tile_low_ndv`` is the kernel as it was before the bulk pass:
every core aggregates each delivered tile with ``_tile_update`` and
mails its partial table to core 0, which folds them with
``merge_groups`` as they arrive. ``dpu_groupby`` must return the same
table (key order, slot types and every bit of every slot), the same
cycles and the same counters.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.sql import AggSpec, Between, GroupKey, RowFilter, Table
from repro.apps.sql import dpu_groupby
from repro.apps.sql.aggregate import (
    DeliveryMismatchError,
    _agg_cycles,
    _broadcast_bytes,
    _fold,
    _needed_columns,
    _tile_update,
    fit_broadcasts,
    merge_groups,
)
from repro.apps.sql.costs import MERGE_CYCLES_PER_GROUP
from repro.apps.sql.join import bitmap_filter, broadcast_array, key_bitmap
from repro.apps.streaming import BROADCAST_EVENT, load, ref_width, stream_columns
from repro.core import DPU
from repro.memory.dmem import Scratchpad
from repro.runtime.task import static_partition


def _load_broadcasts(ctx, broadcasts, dmem_offset):
    """Each core building its own broadcast loads, as the per-tile
    kernel did."""
    for broadcast in broadcasts:
        for start in range(0, broadcast.nbytes, 8192):
            piece = min(8192, broadcast.nbytes - start)
            yield from load(ctx, broadcast.addr + start, dmem_offset + start,
                            piece, 1, BROADCAST_EVENT)
        dmem_offset += broadcast.nbytes


def _per_tile_low_ndv(dpu, dtable, key, aggs, row_filter, tile_rows,
                      broadcasts=()):
    """The per-tile low-NDV kernel, kept as the reference."""
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    rows = dtable.num_rows
    cores = list(dpu.config.core_ids)
    filter_cycles = row_filter.dpu_cycles_per_row if row_filter else 0.0
    key_cycles = key.cycles_per_row if isinstance(key, GroupKey) else 0.0
    agg_cycles = _agg_cycles(aggs) + key_cycles
    top = dpu.config.dmem_size - _broadcast_bytes(broadcasts)

    def kernel(ctx):
        lo, hi = static_partition(rows, len(cores), ctx.core_id)
        groups = {}
        if lo < hi:
            if broadcasts:
                yield from _load_broadcasts(ctx, broadcasts, top)
            shifted = [
                (addr + lo * ref_width(spec), spec) for addr, spec in refs
            ]

            def process(tile, tlo, thi, arrays):
                columns = dict(zip(names, arrays))
                selected = _tile_update(groups, columns, key, aggs, row_filter)
                return (thi - tlo) * filter_cycles + selected * agg_cycles

            yield from stream_columns(
                ctx, shifted, hi - lo, tile_rows, process, dmem_base=0
            )
        if ctx.core_id != cores[0]:
            yield from ctx.mbox_send(cores[0], groups)
            return None
        merged = groups
        for _ in range(len(cores) - 1):
            _src, payload_groups = yield from ctx.mbox_receive()
            merged = merge_groups([merged, payload_groups], aggs)
            yield from ctx.compute(MERGE_CYCLES_PER_GROUP * len(payload_groups))
        return merged

    launch = dpu.launch(kernel, cores=cores)
    return launch.values[0], launch.cycles


def _exact(table):
    """A group table with key order, slot types and float bits."""
    return [
        (type(key), key,
         [(type(slot), slot.hex() if isinstance(slot, float) else slot)
          for slot in slots])
        for key, slots in table.items()
    ]


_SPECIAL = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 0.1, -2.5, 1e300])


def _columns(seed, rows, key_dtype, special_share):
    rng = np.random.default_rng(seed)
    info = np.iinfo(key_dtype)
    # A few distinct keys spread over the dtype's range.
    pool = np.unique(rng.integers(info.min, info.max, 6, dtype=key_dtype,
                                  endpoint=True))
    special = rng.random(rows) < special_share
    floats = rng.normal(0.0, 1e3, rows)
    floats[special] = rng.choice(_SPECIAL, int(special.sum()))
    return {
        "g": rng.choice(pool, rows),
        "h": rng.integers(0, 3, rows).astype(np.int8),
        "i": rng.integers(-1000, 1000, rows).astype(np.int32),
        # Finite non-integers, whose sums round differently in any
        # other order, and the same with special values mixed in.
        "x": rng.normal(0.0, 1e3, rows),
        "y": floats,
        "f": rng.integers(0, 100, rows).astype(np.int16),
        "k": rng.integers(0, 4096, rows).astype(np.int32),
    }


_AGGS = {
    "sum_i": AggSpec("sum", "i"),
    "sum_x": AggSpec("sum", "x"),
    "sum_y": AggSpec("sum", "y"),
    "count": AggSpec("count"),
    "count_y": AggSpec("count", "y"),
    "min_y": AggSpec("min", "y"),
    "max_y": AggSpec("max", "y"),
    "min_i": AggSpec("min", "i"),
    "max_i": AggSpec("max", "i"),
    "sum_expr": AggSpec("sum", expr=lambda c: c["x"] * 0.5 + c["i"],
                        expr_columns=("x", "i"), expr_cycles_per_row=2.0),
}

_COMPOSITE = GroupKey(fn=lambda c: c["h"].astype(np.int64) * 5 + c["f"] % 5,
                      columns=("h", "f"), cycles_per_row=1.0, name="hf")


def _row_filter(kind, words):
    if kind == "predicate":
        return Between("f", 10, 69)
    if kind == "nothing":
        return RowFilter(mask_fn=lambda c: np.zeros(len(c["f"]), dtype=bool),
                         columns=("f",), dpu_cycles_per_row=1.0,
                         xeon_ops_per_row=1.0)
    if kind == "bitmap":
        return bitmap_filter("k", words)
    return None


def _run_both(columns, key, aggs, kind, tile_rows):
    """(value, cycles, counters) of the bulk pass and of the reference,
    each on a fresh DPU that stored the same data."""
    words = key_bitmap(np.arange(0, 4096, 3), 4096)
    runs = []
    for run in ("bulk", "reference"):
        dpu = DPU()
        dtable = Table("t", columns).to_dpu(dpu)
        broadcasts = ()
        if kind == "bitmap":
            broadcasts = (broadcast_array(dpu, "bits", words)[0],)
        row_filter = _row_filter(kind, words)
        if run == "bulk":
            result = dpu_groupby(dpu, dtable, key, aggs,
                                 row_filter=row_filter, ndv_hint=1,
                                 tile_rows=tile_rows, broadcasts=broadcasts)
            assert result.detail["partitions_needed"] == 1
            value, cycles = result.value, result.cycles
        else:
            refs = dtable.column_refs(_needed_columns(key, aggs, row_filter))
            fitted = fit_broadcasts(
                1, sum(ref_width(spec) for _addr, spec in refs),
                _broadcast_bytes(broadcasts), tile_rows,
            )
            value, cycles = _per_tile_low_ndv(dpu, dtable, key, aggs,
                                              row_filter, fitted, broadcasts)
        runs.append((_exact(value), cycles,
                     dpu.counter_registry().snapshot()))
    return runs


class TestLowNdvDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from([0, 1, 17, 31, 100, 1000, 3000]),
        key=st.sampled_from(["int8", "uint16", "uint32", "int64", "composite"]),
        agg_names=st.lists(st.sampled_from(sorted(_AGGS)), min_size=1,
                           max_size=4),
        kind=st.sampled_from([None, "predicate", "nothing", "bitmap"]),
        tile_rows=st.sampled_from([64, 2048]),
        special_share=st.sampled_from([0.0, 0.05, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_per_tile_kernel(self, seed, rows, key, agg_names, kind,
                                    tile_rows, special_share):
        key_dtype = np.int8 if key == "composite" else np.dtype(key).type
        columns = _columns(seed, rows, key_dtype, special_share)
        group_key = _COMPOSITE if key == "composite" else "g"
        aggs = [_AGGS[name] for name in agg_names]
        bulk, reference = _run_both(columns, group_key, aggs, kind, tile_rows)
        assert bulk[0] == reference[0]
        assert bulk[1] == reference[1]
        assert bulk[2] == reference[2]

    @pytest.mark.parametrize("rows", [300, 3000])
    def test_several_tiles_per_core_with_special_floats(self, rows):
        """Fixed cases for every fold: 64-row tiles (two per core at
        3,000 rows), a filter that makes the partials arrive out of
        core order (and, at 300 rows, leaves some groups out of core
        0's partial), float sums of non-integers, and NaN, zeros of
        both signs and infinities under min and max."""
        columns = _columns(7, rows, np.int8, 0.05)
        aggs = [_AGGS[name] for name in
                ("sum_x", "min_y", "max_y", "count", "sum_expr", "sum_y")]
        bulk, reference = _run_both(columns, "g", aggs, "predicate", 64)
        assert bulk == reference


class TestDeliveryCheck:
    def test_flipped_landed_byte_raises(self, monkeypatch):
        """A byte the DMS lands wrong in one tile is caught and named:
        the key column's first tile on core 5."""
        columns = _columns(3, 2000, np.int64, 0.0)
        dpu = DPU()
        dtable = Table("t", columns).to_dpu(dpu)
        target = dpu.scratchpads[5]
        land = Scratchpad.land
        flipped = []

        def flip_once(self, offset, payload):
            if self is target and offset == 0 and not flipped:
                payload = payload.copy()
                payload[0] ^= 0xFF
                flipped.append(offset)
            land(self, offset, payload)

        monkeypatch.setattr(Scratchpad, "land", flip_once)
        with pytest.raises(DeliveryMismatchError) as caught:
            dpu_groupby(dpu, dtable, "g", [AggSpec("sum", "i")], ndv_hint=1)
        error = caught.value
        row = static_partition(2000, 32, 5)[0]
        assert (error.column, error.core, error.row) == ("g", 5, row)
        assert error.stored == columns["g"][row:row + 1].tobytes()
        assert error.delivered != error.stored


def _loop_fold(parts, op):
    """The fold as one ``acc = acc op part`` per part, from the op's
    empty cell, kept as the reference for ``_fold``."""
    empty = {"sum": 0.0, "min": np.inf, "max": -np.inf}[op]
    acc = np.full(parts.shape[1:], empty)
    with np.errstate(invalid="ignore", over="ignore"):
        for part in parts:
            if op == "min":
                acc = np.where(part < acc, part, acc)
            elif op == "max":
                acc = np.where(part > acc, part, acc)
            else:
                acc = acc + part
    return acc


# Special values, finite non-integers (whose sums round differently in
# any other order) and any float at all.
_FOLD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     2.225073858507201e-308, 1.5, -1e308, 1e308]),
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


class TestFold:
    @settings(max_examples=200, deadline=None)
    @given(parts=arrays(np.float64,
                        st.tuples(st.sampled_from([0, 1, 2, 5, 33]),
                                  st.integers(1, 4)),
                        elements=_FOLD_VALUES),
           op=st.sampled_from(["sum", "min", "max"]))
    @example(parts=np.array([[-0.0]]), op="sum")
    @example(parts=np.array([[-0.0], [-0.0]]), op="sum")
    @example(parts=np.zeros((0, 2)), op="sum")
    @example(parts=np.random.default_rng(1).normal(0.0, 1e3, (33, 1)),
             op="sum")
    def test_bits_equal_the_loop(self, parts, op):
        """Every bit of every cell, -0.0, NaN payloads, infinities and
        subnormals included, over 0, 1 and many parts. Folding from the
        first part keeps a lone -0.0; summing in any other order (numpy's
        pairwise ``np.add.reduce`` over one column) rounds differently."""
        folded = _fold(parts, op)
        reference = _loop_fold(parts, op)
        assert folded.shape == reference.shape
        assert folded.dtype == reference.dtype
        assert np.array_equal(folded.view(np.uint64),
                              reference.view(np.uint64))
