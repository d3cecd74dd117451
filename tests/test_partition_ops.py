"""The DMS partition passes of group-by, join, sort and the shuffle,
pinned on shapes no other golden covers.

Each run below drives one operator through the hash/range
partitioning engine (paper §3.1-3.2, Fig. 13): multi-wave builds and
probes, segmented and empty joins, multi-wave group-bys with and
without broadcast tables, the software-round group-by, an empty table
on the hardware path, skewed and governed sorts, and the cluster
exchange at 2, 4 and 8 DPUs. ``tests/goldens/partition_ops.json``
records, per run, the modelled cycles, a digest of the result and the
``mbc.*``, ``dms.*`` and ``ddr.*`` counters of every DPU it used.
Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/test_partition_ops.py --update-goldens

and review the JSON diff like any other behavioural change.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sql import (
    AggSpec,
    Table,
    dpu_groupby,
    dpu_partitioned_join_count,
    dpu_sort,
)
from repro.apps.sql.join import bitmap_filter, broadcast_array, key_bitmap
from repro.apps.sql.planner import DmemBudget
from repro.apps.streaming import (
    _wave_plan, partition_columns, partition_wave_rows,
)
from repro.cluster import Cluster, cluster_groupby, shuffle_exchange
from repro.cluster.shuffle import partition_source
from repro.core import DPU
from repro.dms import PartitionLayout, PartitionMode, PartitionSpec, compute_cids
from repro.runtime.admission import AdmissionController, MemoryGovernor
from test_equivalence import GOLDEN_DIR, digest

GOLDEN = GOLDEN_DIR / "partition_ops.json"
_PINNED_UNITS = (".mbc.", ".dms.", ".ddr.")


def _counters(registry) -> dict:
    return {
        path: value
        for path, value in sorted(registry.snapshot().items())
        if any(unit in path for unit in _PINNED_UNITS)
    }


def _record(owner, cycles, value) -> dict:
    return {
        "cycles": float(cycles),
        "digest": digest(value),
        "counters": _counters(owner.counter_registry()),
    }


def _keys(seed, rows, domain, dtype=np.int32):
    return np.random.default_rng(seed).integers(0, domain, rows).astype(dtype)


def _join(build_keys, probe_keys, governor=None):
    dpu = DPU()
    build = Table("b", {"k": build_keys}).to_dpu(dpu)
    probe = Table("p", {"k": probe_keys}).to_dpu(dpu)
    result = dpu_partitioned_join_count(dpu, build, "k", probe, "k",
                                        governor=governor)
    return _record(dpu, result.cycles, (result.value, result.detail))


def run_join_two_waves():
    # One wave holds 40,960 build keys and 73,728 probe keys.
    return _join(_keys(1, 45_000, 60_000), _keys(2, 80_000, 60_000))


def run_join_governed():
    return _join(_keys(3, 8000, 5000), _keys(4, 16000, 5000),
                 governor=MemoryGovernor(30_000))


def run_join_empty_build():
    return _join(np.empty(0, dtype=np.int32), _keys(5, 4000, 1000))


def run_join_empty_probe():
    return _join(_keys(6, 4000, 1000), np.empty(0, dtype=np.int32))


def _groupby(columns, aggs, governor=None, **kwargs):
    dpu = DPU()
    dtable = Table("t", columns).to_dpu(dpu)
    result = dpu_groupby(dpu, dtable, "g", aggs, governor=governor, **kwargs)
    return _record(dpu, result.cycles, (result.value, result.detail))


def _group_columns(seed, rows, ndv):
    rng = np.random.default_rng(seed)
    return {
        "g": rng.integers(0, ndv, rows).astype(np.int32),
        "v": rng.integers(0, 100, rows).astype(np.int32),
    }


def run_groupby_two_waves():
    # One wave of two 4-byte columns holds 36,864 rows.
    return _groupby(_group_columns(7, 50_000, 8000),
                    [AggSpec("sum", "v"), AggSpec("count")])


def run_groupby_two_waves_broadcast():
    dpu = DPU()
    columns = _group_columns(8, 50_000, 8000)
    words = key_bitmap(np.arange(0, 8000, 3), 8000)
    broadcast, _host = broadcast_array(dpu, "bits", words)
    dtable = Table("t", columns).to_dpu(dpu)
    result = dpu_groupby(
        dpu, dtable, "g", [AggSpec("sum", "v")],
        row_filter=bitmap_filter("g", words), ndv_hint=8000,
        broadcasts=(broadcast,),
    )
    return _record(dpu, result.cycles, (result.value, result.detail))


_SW_BUDGET = DmemBudget(total=32 * 1024, io_buffers=28 * 1024, metadata=1024)


def run_groupby_sw_round():
    return _groupby(_group_columns(9, 24 * 1024, 9000),
                    [AggSpec("sum", "v"), AggSpec("count")],
                    budget=_SW_BUDGET)


def run_groupby_sw_round_governed():
    # The grant covers half the bucket regions: two row-chunked rounds.
    return _groupby(_group_columns(12, 12 * 1024, 9000),
                    [AggSpec("sum", "v"), AggSpec("count")],
                    governor=MemoryGovernor(60_000), budget=_SW_BUDGET)


def run_groupby_empty_hw():
    # One sum needs the hardware path once ndv_hint passes 1,536.
    return _groupby({"g": np.empty(0, dtype=np.int32),
                     "v": np.empty(0, dtype=np.int32)},
                    [AggSpec("sum", "v")], ndv_hint=4000)


def _sort(values, governor=None):
    dpu = DPU()
    dtable = Table("t", {"k": values}).to_dpu(dpu)
    result = dpu_sort(dpu, dtable, "k", governor=governor)
    return _record(dpu, result.cycles, (result.value, result.detail))


def run_sort_skewed():
    rng = np.random.default_rng(10)
    values = np.concatenate([
        rng.integers(0, 1_000_000, 30_000),
        np.full(10_000, 123_456),
        rng.integers(500_000, 520_000, 10_000),
    ]).astype(np.uint32)
    return _sort(rng.permutation(values))


def run_sort_governed():
    return _sort(_keys(11, 6000, 1_000_000, np.int64),
                 governor=MemoryGovernor(40_000))


def _shuffle(num_dpus):
    cluster = Cluster(num_dpus)
    rng = np.random.default_rng(20 + num_dpus)
    dtables = [
        Table(f"s{index}", {
            "k": rng.integers(0, 5000, 6000).astype(np.int64),
            "v": rng.integers(0, 1000, 6000).astype(np.int64),
        }).to_dpu(cluster.dpus[index])
        for index in range(num_dpus)
    ]
    result = shuffle_exchange(cluster, dtables, "k", ["k", "v"])
    value = (result.columns, result.rows_moved, result.bytes_moved,
             result.exchange_cycles)
    return _record(cluster, result.partition_cycles, value)


RUNS = {
    "join_two_waves": run_join_two_waves,
    "join_governed": run_join_governed,
    "join_empty_build": run_join_empty_build,
    "join_empty_probe": run_join_empty_probe,
    "groupby_two_waves": run_groupby_two_waves,
    "groupby_two_waves_broadcast": run_groupby_two_waves_broadcast,
    "groupby_sw_round": run_groupby_sw_round,
    "groupby_sw_round_governed": run_groupby_sw_round_governed,
    "groupby_empty_hw": run_groupby_empty_hw,
    "sort_skewed": run_sort_skewed,
    "sort_governed": run_sort_governed,
    "shuffle_2dpu": lambda: _shuffle(2),
    "shuffle_4dpu": lambda: _shuffle(4),
    "shuffle_8dpu": lambda: _shuffle(8),
}


def test_partition_ops_golden(request):
    observed = {name: run() for name, run in RUNS.items()}
    # Round-trip through JSON so the comparison sees what the file holds.
    observed = json.loads(json.dumps(observed))
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True)
                          + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(observed)
    diverged = [
        f"{name}: {field} golden {golden[name][field]!r} != "
        f"observed {observed[name][field]!r}"
        for name in sorted(golden) for field in sorted(golden[name])
        if golden[name][field] != observed[name][field]
    ]
    assert not diverged, "\n".join(diverged)


# -- skewed keys ---------------------------------------------------------------


def _hot(rng, rows, domain, share, hot_key=7):
    """``rows`` keys over ``domain``, ``share`` of them equal to one key."""
    keys = rng.integers(0, domain, rows)
    keys[: int(rows * share)] = hot_key
    return rng.permutation(keys)


def _numpy_groups(keys, values):
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values.astype(np.float64))
    counts = np.bincount(inverse)
    return {int(key): [float(total), int(count)]
            for key, total, count in zip(unique, sums, counts)}


class TestSkewedKeys:
    """A hot key fills one target's buffer faster than the waves'
    uniform sizing assumes; the wave plan must end such a wave early
    instead of overflowing the buffer."""

    def test_groupby_hot_key(self):
        rng = np.random.default_rng(1)
        keys = _hot(rng, 100_000, 5000, 0.05).astype(np.int32)
        values = rng.integers(0, 100, 100_000).astype(np.int32)
        dpu = DPU()
        dtable = Table("t", {"g": keys, "v": values}).to_dpu(dpu)
        result = dpu_groupby(dpu, dtable, "g",
                             [AggSpec("sum", "v"), AggSpec("count")])
        assert 1 < result.detail["partitions_needed"] <= 32
        assert result.value == _numpy_groups(keys, values)

    def test_join_hot_build_key(self):
        rng = np.random.default_rng(2)
        build = _hot(rng, 30_000, 20_000, 0.10).astype(np.int32)
        probe = rng.integers(0, 20_000, 20_000).astype(np.int32)
        dpu = DPU()
        result = dpu_partitioned_join_count(
            dpu, Table("b", {"k": build}).to_dpu(dpu), "k",
            Table("p", {"k": probe}).to_dpu(dpu), "k",
        )
        unique, counts = np.unique(build, return_counts=True)
        slot = np.minimum(np.searchsorted(unique, probe), len(unique) - 1)
        assert result.value == int(
            np.where(unique[slot] == probe, counts[slot], 0).sum())

    def test_cluster_groupby_hot_key(self):
        rng = np.random.default_rng(3)
        shards = [
            Table(f"s{index}", {
                "k": _hot(rng, 20_000, 5000, 0.30).astype(np.int64),
                "v": rng.integers(0, 100, 20_000).astype(np.int64),
            })
            for index in range(8)
        ]
        result = cluster_groupby(Cluster(8), shards, "k",
                                 [AggSpec("sum", "v"), AggSpec("count")])
        keys = np.concatenate([shard.column("k") for shard in shards])
        values = np.concatenate([shard.column("v") for shard in shards])
        assert result.value == _numpy_groups(keys, values)


class TestWavePlan:
    """The engine stores a target's rows while they fit its buffer
    exactly, so the plan cuts a wave only when a buffer would overflow,
    and then at the last chunk boundary that still fits."""

    SPEC = PartitionSpec(mode=PartitionMode.HASH, radix_bits=5)
    LAYOUT = PartitionLayout(target_cores=tuple(range(32)), dmem_base=0,
                             capacity=400, count_offset=1024)

    def _keys(self, hot_rows):
        candidates = np.arange(20_000, dtype=np.uint32)
        cids = compute_cids(candidates, self.SPEC)
        keys = np.concatenate([candidates[cids == 3][:hot_rows],
                               candidates[cids != 3][:200]])
        return np.random.default_rng(0).permutation(keys)

    def test_full_buffer_is_not_cut(self):
        keys = self._keys(100)  # exactly 400 B of 4-byte records on core 3
        assert _wave_plan(keys, self.SPEC, self.LAYOUT, 4, 25, 300) == [(0, 300)]

    def test_overflow_cuts_at_last_fitting_chunk(self):
        keys = self._keys(101)
        hot = compute_cids(keys, self.SPEC) == 3
        waves = _wave_plan(keys, self.SPEC, self.LAYOUT, 4, 25, 301)
        assert waves[0][0] == 0 and waves[-1][1] == len(keys)
        assert all(a[1] == b[0] for a, b in zip(waves, waves[1:]))
        end = waves[0][1]
        assert end % 25 == 0 and hot[:end].sum() <= 100 < hot[:end + 25].sum()


# -- the launch's cores --------------------------------------------------------


def _partition_pass(cores, keys, spec):
    """One ``partition_columns`` pass of u32 ``keys`` on a launch of
    ``cores`` (a 4 KB buffer per target, 256-row chunks); returns, per
    launch core, the keys its ``consume`` saw, wave by wave."""
    dpu = DPU()
    address = dpu.store_array(keys)
    wave_rows = partition_wave_rows(spec.fanout, 4096, 4, 256)

    def kernel(ctx):
        seen = []

        def consume(count):
            seen.append(ctx.dmem.view(0, count * 4, np.uint32).copy())
            yield from ctx.compute(count)

        yield from partition_columns(ctx, [(address, np.uint32)], len(keys),
                                     spec, (0, 4096, 31 * 1024), 256,
                                     wave_rows, consume)
        return seen

    return dpu.launch(kernel, cores=cores).values


class TestLaunchCores:
    """A partition pass targets the first ``spec.fanout`` cores of its
    launch, in launch order, whichever cores those are."""

    @pytest.mark.parametrize("size", [32, 16, 8, 4, 24])
    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(32)), seed=st.integers(0, 2**32 - 1),
           rows=st.sampled_from([0, 1, 700, 3000]), data=st.data())
    def test_targets_consume_their_rows_in_order(self, size, order, seed,
                                                 rows, data):
        cores = order[:size]
        keys = np.random.default_rng(seed).integers(
            0, 2**32, rows, dtype=np.uint32)
        fanout_bits = size.bit_length() - 1
        if data.draw(st.booleans(), label="range"):
            bounds = np.sort(np.random.default_rng(seed).integers(
                0, 2**32, data.draw(st.integers(1, size), label="ranges")))
            spec = PartitionSpec(mode=PartitionMode.RANGE,
                                 bounds=tuple(int(b) for b in bounds))
        else:
            spec = PartitionSpec(
                mode=PartitionMode.HASH,
                radix_bits=data.draw(st.integers(1, fanout_bits),
                                     label="radix_bits"),
                radix_shift=data.draw(st.sampled_from([0, 5, 16]),
                                      label="radix_shift"))
        seen = _partition_pass(cores, keys, spec)
        cids = compute_cids(keys, spec)
        for index, waves in enumerate(seen):
            if index >= spec.fanout:
                assert waves == []  # past the targets: nothing consumed
                continue
            got = (np.concatenate(waves) if waves
                   else np.empty(0, dtype=np.uint32))
            assert np.array_equal(got, keys[cids == index])

    @pytest.mark.parametrize("size", [32, 16, 8, 4, 24])
    def test_spec_wider_than_the_launch_raises(self, size):
        bits = size.bit_length()  # one more than the launch can take
        spec = PartitionSpec(mode=PartitionMode.HASH, radix_bits=bits)
        keys = np.arange(100, dtype=np.uint32)
        with pytest.raises(ValueError, match=f"{1 << bits}-way .* {size}-core"):
            _partition_pass(list(range(31, 31 - size, -1)), keys, spec)

    @staticmethod
    def _exchange_source():
        rng = np.random.default_rng(4)
        return Table("s", {
            "k": rng.integers(0, 5000, 6000).astype(np.int64),
            "v": rng.integers(0, 1000, 6000).astype(np.int64),
        })

    def test_degraded_exchange_partition_equals_ungated(self):
        table = self._exchange_source()
        ungated = DPU()
        expected, _cycles, width, _dtypes = partition_source(
            ungated, table.to_dpu(ungated), "k", ["k", "v"], 8)
        dpu = DPU()
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         rate_per_kcycle=0.001,
                                         policy="degrade")
        dpu.set_admission(controller)
        dtable = table.to_dpu(dpu)
        partition_source(dpu, dtable, "k", ["k", "v"], 8)  # takes the token
        raws, _cycles, _width, _dtypes = partition_source(
            dpu, dtable, "k", ["k", "v"], 8)  # runs on 16 cores
        assert controller.counters.get("degraded") == 1
        assert sum(len(raw) for raw in expected) == 6000 * width
        assert all(np.array_equal(raw, want)
                   for raw, want in zip(raws, expected))
        # 32 destinations need 32 drain cores: refused, and the
        # destination regions are freed.
        live = dpu.heap.live_bytes()
        with pytest.raises(ValueError, match="32-way .* 16-core"):
            partition_source(dpu, dtable, "k", ["k", "v"], 32)
        assert dpu.heap.live_bytes() == live

