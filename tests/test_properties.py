"""Cross-cutting property-based tests on core invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sql import (
    AggSpec,
    Between,
    Table,
    dpu_filter,
    dpu_groupby,
    dpu_sort,
    dpu_topk,
    xeon_filter,
    xeon_groupby,
    xeon_topk,
)
from repro.apps.streaming import stream_columns
from repro.baseline import XeonModel
from repro.core import DPU
from repro.dms import PartitionMode, PartitionSpec, compute_cids
from repro.dms.descriptor import DescriptorError
from repro.runtime.task import static_partition
from repro.sim import Engine


class TestEngineDeterminism:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_same_program_same_trace(self, delays):
        """Two runs of the same process structure produce identical
        event orders — the property every simulation result rests on."""

        def trace(run_engine):
            order = []

            def worker(tag, delay):
                yield run_engine.timeout(delay)
                order.append((tag, run_engine.now))

            for tag, delay in enumerate(delays):
                run_engine.process(worker(tag, delay))
            run_engine.run()
            return order

        assert trace(Engine()) == trace(Engine())


class TestPartitionProperties:
    @given(
        keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=200),
        radix_bits=st.integers(1, 6),
        mode=st.sampled_from([PartitionMode.HASH, PartitionMode.RADIX]),
    )
    @settings(max_examples=100, deadline=None)
    def test_cids_within_fanout_and_deterministic(self, keys, radix_bits,
                                                  mode):
        column = np.asarray(keys, dtype=np.uint32)
        spec = PartitionSpec(mode=mode, radix_bits=radix_bits)
        cids = compute_cids(column, spec)
        assert cids.min() >= 0
        assert cids.max() < spec.fanout
        assert np.array_equal(cids, compute_cids(column, spec))

    @given(
        keys=st.lists(st.integers(-1000, 1000), min_size=1, max_size=100),
        bounds=st.lists(st.integers(-900, 900), min_size=1, max_size=32,
                        unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_cids_are_monotone_in_key(self, keys, bounds):
        column = np.asarray(sorted(keys), dtype=np.int64)
        spec = PartitionSpec(
            mode=PartitionMode.RANGE, bounds=tuple(sorted(bounds)),
            radix_bits=5,
        )
        cids = compute_cids(column, spec)
        assert np.all(np.diff(cids.astype(np.int64)) >= 0)  # monotone

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_equal_keys_get_equal_cids(self, keys):
        column = np.asarray(keys * 2, dtype=np.uint32)  # every key twice
        spec = PartitionSpec(mode=PartitionMode.HASH, radix_bits=5)
        cids = compute_cids(column, spec)
        half = len(keys)
        assert np.array_equal(cids[:half], cids[half:])


class TestStaticPartitionProperties:
    @given(st.integers(0, 10000), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_partition_is_exact_cover(self, total, parts):
        ranges = [static_partition(total, parts, p) for p in range(parts)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        for (lo1, hi1), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi1 == lo2
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestStreamingRoundtrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_shapes_deliver_exact_bytes(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6000))
        tile = int(rng.integers(64, 1024))
        dtype = rng.choice([np.uint8, np.uint16, np.uint32, np.int32])
        dpu = DPU()
        info = np.iinfo(dtype)
        values = rng.integers(
            info.min, int(info.max), rows
        ).astype(dtype)
        address = dpu.store_array(values)
        chunks = []

        def kernel(ctx):
            def process(t, lo, hi, arrays):
                chunks.append(arrays[0].copy())
                return 1

            yield from stream_columns(
                ctx, [(address, dtype)], rows, tile, process
            )

        dpu.launch(kernel, cores=[0])
        assert np.array_equal(np.concatenate(chunks), values)


class TestSeededDifferential:
    """Seeded differential properties: the simulated DPU data plane
    versus the x86 baseline model and plain numpy, on randomly shaped
    inputs.

    Unlike the hypothesis suites above, case generation here uses only
    the stdlib ``random`` module: the parametrized seed IS the whole
    test case, so a failure replays exactly from the test id with no
    shrinking database. Three invariants per operator:

    * the DPU's *functional* result is byte-equal to numpy's answer
      (the data plane really moved the bytes it claims to), and
    * the Xeon baseline computes the same values, so modelled gains
      compare like with like, and
    * timing is sane — positive, and monotone in the row count.
    """

    SEEDS = [11, 23, 47]

    @staticmethod
    def _random_table(seed, max_rows=16384, ndv=None, value_hi=10_000):
        gen = random.Random(seed)
        rows = gen.randrange(1024, max_rows)
        ndv = ndv if ndv is not None else gen.choice([4, 50, 400])
        rng = np.random.default_rng(seed)
        table = Table("t", {
            "g": rng.integers(0, ndv, rows).astype(np.int32),
            "v": rng.integers(0, value_hi, rows).astype(np.int32),
        })
        return table, gen

    @staticmethod
    def _host_groupby(table):
        keys = table.column("g")
        values = table.column("v").astype(np.int64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, values)
        counts = np.bincount(inverse, minlength=len(uniq))
        return {
            int(k): (int(s), int(c)) for k, s, c in zip(uniq, sums, counts)
        }

    @pytest.mark.parametrize("seed", SEEDS)
    def test_filter_differential(self, seed):
        table, gen = self._random_table(seed)
        lo = gen.randrange(0, 5000)
        hi = lo + gen.randrange(1, 5000)
        predicate = Between("v", lo, hi)
        expected = predicate.mask_fn(table.columns)

        dpu = DPU()
        dpu_result = dpu_filter(dpu, table.to_dpu(dpu), predicate)
        assert dpu_result.value.tobytes() == expected.tobytes()

        xeon_result = xeon_filter(XeonModel(), table, predicate)
        assert np.array_equal(np.asarray(xeon_result.value, dtype=bool),
                              expected)
        assert dpu_result.cycles > 0 and xeon_result.seconds > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_groupby_differential(self, seed):
        table, _gen = self._random_table(seed)
        expected = self._host_groupby(table)
        aggs = [AggSpec("sum", "v"), AggSpec("count")]

        dpu = DPU()
        dpu_result = dpu_groupby(dpu, table.to_dpu(dpu), "g", aggs)
        xeon_result = xeon_groupby(XeonModel(), table, "g", aggs)
        for result in (dpu_result, xeon_result):
            assert set(result.value) == set(expected)
            for key, (total, count) in expected.items():
                assert int(result.value[key][0]) == total
                assert int(result.value[key][1]) == count
        assert dpu_result.cycles > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sort_differential(self, seed):
        gen = random.Random(seed ^ 0x5A17)
        rows = gen.randrange(2048, 12288)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << 20, rows).astype(np.int32)
        table = Table("t", {"v": values})
        dpu = DPU()
        result = dpu_sort(dpu, table.to_dpu(dpu), "v")
        assert result.value.tobytes() == np.sort(values).tobytes()
        assert result.cycles > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_differential(self, seed):
        gen = random.Random(seed ^ 0x70F)
        rows = gen.randrange(2048, 12288)
        k = gen.randrange(1, 64)
        rng = np.random.default_rng(seed)
        # Unique values so the (value, row) ranking is tie-free and the
        # DPU and baseline answers must agree exactly, rows included.
        values = rng.permutation(rows).astype(np.int32)
        table = Table("t", {"v": values})
        dpu = DPU()
        dpu_result = dpu_topk(dpu, table.to_dpu(dpu), "v", k)
        xeon_result = xeon_topk(XeonModel(), table, "v", k)
        assert [(int(v), r) for v, r in dpu_result.value] == \
            [(int(v), r) for v, r in xeon_result.value]
        order = np.argsort(values)[::-1][:k]
        assert [r for _v, r in dpu_result.value] == [int(i) for i in order]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_filter_cycles_monotone_in_rows(self, seed):
        """Same distribution, growing prefixes: modelled cycles must
        not decrease as the scan covers more rows."""
        table, gen = self._random_table(seed, max_rows=12288)
        full = table.column("v")
        predicate = Between("v", 1000, 8000)
        sizes = sorted({len(full) // 4, len(full) // 2, len(full)})
        previous = 0.0
        for rows in sizes:
            prefix = Table("t", {"v": full[:rows].copy()})
            dpu = DPU()
            result = dpu_filter(dpu, prefix.to_dpu(dpu), predicate)
            assert result.cycles >= previous
            previous = result.cycles
        assert previous > 0


class TestDescriptorFuzz:
    @given(
        rows=st.integers(-5, 1 << 17),
        width=st.integers(0, 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_geometry_never_constructs(self, rows, width):
        from repro.dms import Descriptor, DescriptorType
        valid_rows = 1 <= rows < (1 << 16)
        valid_width = width in (1, 2, 4, 8)
        try:
            Descriptor(dtype=DescriptorType.DDR_TO_DMEM, rows=rows,
                       col_width=width)
            constructed = True
        except DescriptorError:
            constructed = False
        assert constructed == (valid_rows and valid_width)


class TestCompiledQueryDifferential:
    """Differential conformance for the SQL-text frontend: seeded
    random SELECT / WHERE / GROUP BY queries must agree exactly across
    the compiled DPU plan, the compiled Xeon plan, and a direct numpy
    evaluation of the same semantics (all aggregates are
    integer-valued sums below 2^53, so equality is byte-equality)."""

    SEEDS = list(range(32))

    _AGGS = {
        "sum(v1)": lambda c, m: float(c["v1"][m].sum()),
        "count(*)": lambda c, m: float(m.sum()),
        "sum(v1 + v2)": lambda c, m: float((c["v1"][m] + c["v2"][m]).sum()),
        "sum(v1 * 2)": lambda c, m: float((c["v1"][m] * 2).sum()),
        "avg(v1)": lambda c, m: (
            float(c["v1"][m].sum()) / float(m.sum()) if m.any() else 0.0),
        "sum(case when g2 = 1 then v1 else 0 end)": lambda c, m: float(
            np.where(c["g2"][m] == 1, c["v1"][m], 0).sum()),
    }

    @staticmethod
    def _dataset(seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(200, 3000))
        return {
            "g1": rng.integers(0, 5, rows).astype(np.int64),
            "g2": rng.integers(0, 3, rows).astype(np.int64),
            "v1": rng.integers(0, 1000, rows).astype(np.int64),
            "v2": rng.integers(1, 50, rows).astype(np.int64),
        }

    _OPS = {"=": np.equal, "<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal}

    @classmethod
    def _term(cls, gen):
        """One plain fact term, as SQL text and a numpy mask: a
        comparison with a literal (every operator), a BETWEEN or an
        IN list."""
        kind = gen.choice(sorted(cls._OPS) + ["between", "in"])
        if kind == "between":
            lo = gen.randrange(0, 600)
            hi = lo + gen.randrange(50, 400)
            return (f"v1 between {lo} and {hi}",
                    lambda c, lo=lo, hi=hi: (c["v1"] >= lo) & (c["v1"] <= hi))
        if kind == "in":
            members = tuple(sorted(gen.sample(range(3), gen.randrange(1, 3))))
            return (f"g2 in ({', '.join(map(str, members))})",
                    lambda c, members=members: np.isin(c["g2"], members))
        column, value = (("g1", gen.randrange(5)) if kind == "="
                         else ("v1", gen.randrange(100, 900)))
        return (f"{column} {kind} {value}",
                lambda c, op=cls._OPS[kind], column=column, value=value:
                op(c[column], value))

    @classmethod
    def _predicates(cls, gen):
        """WHERE conjuncts over every shape the plain-term reader
        covers: single terms, a literal written first, two terms fused
        on one column, and ORs of plain terms."""
        chosen = []
        for _ in range(gen.randrange(4)):
            kind = gen.randrange(4)
            if kind == 0:
                chosen.append(cls._term(gen))
            elif kind == 1:
                op, cut = gen.choice(sorted(cls._OPS)), gen.randrange(100, 900)
                chosen.append((f"{cut} {op} v1",
                               lambda c, op=cls._OPS[op], cut=cut:
                               op(cut, c["v1"])))
            elif kind == 2:
                lo = gen.randrange(0, 400)
                hi = lo + gen.randrange(100, 500)
                low, high = gen.choice([">", ">="]), gen.choice(["<", "<="])
                chosen.append((f"v1 {low} {lo} and v1 {high} {hi}",
                               lambda c, low=cls._OPS[low], lo=lo,
                               high=cls._OPS[high], hi=hi:
                               low(c["v1"], lo) & high(c["v1"], hi)))
            else:
                arms = [cls._term(gen) for _ in range(gen.randrange(2, 4))]
                chosen.append((
                    "(" + " or ".join(text for text, _fn in arms) + ")",
                    lambda c, arms=arms: np.logical_or.reduce(
                        [fn(c) for _text, fn in arms])))
        return chosen

    @classmethod
    def _hand_eval(cls, columns, group_cols, preds, agg_names):
        rows = len(columns["g1"])
        mask = np.ones(rows, dtype=bool)
        for _text, fn in preds:
            mask &= fn(columns)
        if not group_cols:
            if not mask.any():
                return ()
            row = tuple(cls._AGGS[name](columns, mask)
                        for name in agg_names)
            return (row,)
        keys = list(zip(*(columns[g][mask] for g in group_cols)))
        out = []
        for cell in sorted(set(keys)):
            cell_mask = mask.copy()
            for g, v in zip(group_cols, cell):
                cell_mask &= columns[g] == v
            out.append(tuple(int(v) for v in cell)
                       + tuple(cls._AGGS[name](columns, cell_mask)
                               for name in agg_names))
        return tuple(sorted(out))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compiled_targets_match_hand_eval(self, seed):
        from repro.apps.sql import compile_query
        from repro.apps.sql.ir import Catalog

        gen = random.Random(seed)
        columns = self._dataset(seed)
        group_cols = gen.choice([[], ["g1"], ["g2"], ["g1", "g2"]])
        preds = self._predicates(gen)
        agg_names = ["sum(v1)"] + gen.sample(
            sorted(set(self._AGGS) - {"sum(v1)"}), gen.randrange(1, 4))

        select = ", ".join(group_cols + agg_names)
        sql = f"select {select} from t"
        if preds:
            sql += " where " + " and ".join(text for text, _fn in preds)
        if group_cols:
            sql += " group by " + ", ".join(group_cols)

        compiled = compile_query(sql, Catalog({"t": columns}),
                                 f"prop{seed}")
        data = {"t": columns}
        dpu_rows = compiled.run_dpu(DPU(), data).value
        xeon_rows = compiled.run_xeon(XeonModel(), data).value
        assert dpu_rows == xeon_rows
        assert dpu_rows == self._hand_eval(columns, group_cols, preds,
                                           agg_names)
