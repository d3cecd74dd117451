"""DMS descriptors as heap callbacks: freed and diagnosed as before.

The DMAD walks its channels with callbacks and the DMAC runs each data
descriptor as a chain of heap callbacks on one ``SimEvent``
(``DescriptorRun``). Nothing is left parked once the work is done, so
a DPU nobody references is freed by reference counting. When every
channel walker was a parked daemon process, the walker, its generator
frame and the DMAD formed a cycle that held the DPU's DDR array until
a full collection: every case below kept all of its DDR arrays alive.
The deadlock message and the trace spans are pinned to what the
process implementation produced.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.apps.sql import Table, compile_query, load_query, tpch_catalog
from repro.cluster import Cluster, cluster_compiled_query
from repro.core import DPU, DPU_40NM
from repro.core.bitvector import pack_bits
from repro.dms import (
    Descriptor,
    DescriptorError,
    DescriptorType,
    PartitionLayout,
    PartitionMode,
    PartitionSpec,
    ddr_to_dmem,
)
from repro.dms.dmad import DescriptorRun
from repro.serve import OpenLoopWorkload, ServingFrontend
from repro.sim import DeadlockError
from repro.workloads.tpch import generate_tpch


@pytest.fixture
def no_gc():
    """Reference counting only: whatever a cycle holds stays alive."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _alive(refs):
    return sum(ref() is not None for ref in refs)


@pytest.fixture(scope="module")
def tpch():
    data = generate_tpch(scale=0.002, seed=11)
    return data, tpch_catalog(data)


def _shards(table, count, name="lineitem"):
    total = len(next(iter(table.values())))
    return [
        Table(f"{name}_shard{i}",
              {column: values[total * i // count:total * (i + 1) // count]
               for column, values in table.items()})
        for i in range(count)
    ]


class TestDroppedDpusAreFreedByRefcount:
    def test_plain_two_core_launch(self, no_gc):
        dpu = DPU()
        address = dpu.store_array(np.arange(4096, dtype=np.uint32))

        def kernel(ctx):
            ctx.push(ddr_to_dmem(1024, 4, address, 0, notify_event=0))
            yield from ctx.wfe(0)

        dpu.launch(kernel, cores=[0, 1])
        refs = [weakref.ref(dpu.ddr)]
        del dpu
        assert _alive(refs) == 0

    @pytest.mark.parametrize("name, strategy", [
        ("q1", "pre_aggregate"), ("q3", "all_to_all")])
    def test_cluster_compiled_query(self, no_gc, tpch, name, strategy):
        data, catalog = tpch
        compiled = compile_query(load_query(name), catalog, name)
        cluster = Cluster(4)
        result = cluster_compiled_query(
            cluster, compiled,
            _shards(data.tables[compiled.fact], 4, compiled.fact),
            strategy=strategy)
        assert result.value == compiled.run_dpu(DPU(), data).value
        refs = [weakref.ref(dpu.ddr) for dpu in cluster.dpus]
        del cluster, result
        assert _alive(refs) == 0

    def test_serving_frontend(self, no_gc, tpch):
        data, catalog = tpch
        names = ["q1", "q6", "q12", "q14"]
        tenants = {"acme": "gold", "beta": "silver", "corp": "bronze"}
        requests = OpenLoopWorkload(tenants, names, seed=7).generate(
            30, mean_interarrival_cycles=5_000.0)
        frontend = ServingFrontend(
            Cluster(4), catalog, {name: load_query(name) for name in names},
            {"lineitem": _shards(data.tables["lineitem"], 4)},
            tenants=tenants)
        report = frontend.run(requests)
        assert len(report.records) == 30
        refs = [weakref.ref(dpu.ddr) for dpu in frontend.cluster.dpus]
        del frontend, report
        assert _alive(refs) == 0

    def test_a_finished_run_holds_no_unit(self):
        dpu = DPU()
        address = dpu.store_array(np.arange(64, dtype=np.uint32))

        def kernel(ctx):
            ctx.push(ddr_to_dmem(64, 4, address, 0, notify_event=0))
            yield from ctx.wfe(0)

        dpu.launch(kernel, cores=[3])
        run = dpu.dmads[3]._notify_tail[0]
        assert isinstance(run, DescriptorRun) and run.triggered
        assert run.name == "dmad3.desc"
        assert [run.dmad, run.dmac, run.descriptor, run.prep] == [None] * 4
        assert dpu.engine._queue == []

    def test_a_finished_run_is_referenced_by_nothing_of_its_own(self):
        """Stages push the run's bound ``_resume`` onto the heap; the
        heap lets go of it when it pops, and the run never keeps one,
        so only the engine's process registry (and, for the last one,
        the DMAD's notify tail) still names a finished run. Ten
        descriptors on four slots also take the queued-slot path."""
        dpu = DPU()
        address = dpu.store_array(np.arange(640, dtype=np.uint32))

        def kernel(ctx):
            for index in range(10):
                ctx.push(ddr_to_dmem(64, 4, address + 256 * index,
                                     256 * index,
                                     notify_event=0 if index == 9 else None))
            yield from ctx.wfe(0)

        dpu.launch(kernel, cores=[1])
        registry = dpu.engine._processes
        tails = dpu.dmads[1]._notify_tail
        runs = [p for p in registry if isinstance(p, DescriptorRun)]
        assert len(runs) == 10 and all(run.triggered for run in runs)
        assert tails == {0: runs[-1]}
        slots = {name for cls in type(runs[0]).__mro__
                 for name in getattr(cls, "__slots__", ())}
        for run in runs:
            for name in slots:
                value = getattr(run, name, None)
                assert getattr(value, "__self__", None) is not run, name
            holders = [r for r in gc.get_referrers(run)
                       if r is not runs and r is not registry]
            assert holders == ([tails] if run is runs[-1] else [])


class TestDiagnosis:
    def test_deadlock_names_the_stuck_descriptor(self):
        """A partition store with a layout but no hash stage waits for a
        hash that never comes."""
        dpu = DPU()
        key = dpu.store_array(np.arange(256, dtype=np.uint32))
        layout = PartitionLayout(target_cores=(0,), dmem_base=0,
                                 capacity=4096, count_offset=8192)

        def kernel(ctx):
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=256,
                                col_width=4, ddr_addr=key,
                                is_key_column=True))
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMEM,
                                partition_layout=layout))
            yield from ctx.wfe(0)

        with pytest.raises(DeadlockError) as caught:
            dpu.launch(kernel, cores=[0])
        assert str(caught.value) == (
            "deadlock: <AllOf pending at t=118.0> never completed and no "
            "events remain [blocked: core0 waiting on <SimEvent pending at "
            "t=118.0>; dmad0.desc waiting on <SimEvent pending at t=118.0>]"
        )
        assert [p.name for p in caught.value.blocked] == ["core0",
                                                          "dmad0.desc"]
        assert not any(p.daemon for p in dpu.engine._processes)

    def test_a_failed_gather_gives_back_what_it_held(self):
        """A gather with no bit-vector loaded fails in its first DMAC
        stage, after it counted itself in flight: the failure releases
        that count and the outstanding slot, as the process's
        ``finally`` blocks did."""
        dpu = DPU()
        table = dpu.store_array(np.arange(64, dtype=np.uint64))

        def kernel(ctx):
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM, rows=64,
                                col_width=8, ddr_addr=table, dmem_addr=0,
                                gather_src=True, notify_event=0))
            yield from ctx.wfe(0)

        with pytest.raises(DescriptorError, match="without loading a bit"):
            dpu.launch(kernel, cores=[0])
        assert dpu.engine.now == 8
        assert dpu.dmac._active_gathers == 0
        assert dpu.dmads[0].outstanding.in_use == 0
        assert dpu.dmads[0].idle()

    @pytest.mark.parametrize("program, message, now", [
        ("hash_without_spec", "hash descriptor without a partition spec", 16),
        ("chunk_without_key", "partition chunk has no key column", 58),
        ("store_without_layout", "partition store without an output layout",
         24),
        ("crc_drain_in_radix_mode", "chunk has no CRC column", 74),
        ("drain_from_cmem", "drains crc or cid memory, not cmem", 74),
        ("rle_write_back", "RLE encode is not modelled", 8),
    ])
    def test_a_stage_error_surfaces_as_before(self, program, message, now):
        """An error a DMAC stage raises fails the descriptor and, with
        no one waiting on it, leaves the run loop at the instant the
        process implementation raised it."""
        dpu = DPU()
        key = dpu.store_array(np.arange(64, dtype=np.uint32))
        radix = PartitionSpec(mode=PartitionMode.RADIX, radix_bits=1)
        layout = PartitionLayout(target_cores=(0, 1), dmem_base=0,
                                 capacity=4096, count_offset=8192)
        load = Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=64,
                          col_width=4, ddr_addr=key, is_key_column=True)
        hashed = [load, Descriptor(dtype=DescriptorType.DMS_TO_DMS,
                                   partition=radix)]
        programs = {
            "hash_without_spec": [
                load, Descriptor(dtype=DescriptorType.DMS_TO_DMS)],
            "chunk_without_key": [
                Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=64,
                           col_width=4, ddr_addr=key),
                Descriptor(dtype=DescriptorType.DMS_TO_DMS, partition=radix)],
            "store_without_layout": hashed + [
                Descriptor(dtype=DescriptorType.DMS_TO_DMEM)],
            "crc_drain_in_radix_mode": hashed + [
                Descriptor(dtype=DescriptorType.DMS_TO_DDR, ddr_addr=key,
                           internal_mem="crc")],
            "drain_from_cmem": hashed + [
                Descriptor(dtype=DescriptorType.DMS_TO_DDR, ddr_addr=key)],
            "rle_write_back": [
                Descriptor(dtype=DescriptorType.DMEM_TO_DDR, rows=8,
                           col_width=4, ddr_addr=key, rle=True)],
        }
        if program == "store_without_layout":
            dpu.dmac.partition_layout = None
        else:
            dpu.dmac.partition_layout = layout

        def kernel(ctx):
            for descriptor in programs[program]:
                ctx.push(descriptor)
            yield from ctx.wfe(0)

        with pytest.raises(DescriptorError, match=message):
            dpu.launch(kernel, cores=[0])
        assert dpu.engine.now == now
        assert dpu.dmads[0].outstanding.in_use == dpu.dmads[0]._inflight

    def test_trace_spans_match_the_process_implementation(self):
        """A stream, a gather and a write-back on two cores emit the
        span names and counts the process implementation emitted."""
        dpu = DPU(DPU_40NM.with_updates(rtl_gather_bug=False))
        rows = 512
        column = dpu.store_array(np.arange(4 * rows, dtype=np.uint32))
        table = dpu.store_array(np.arange(rows, dtype=np.uint64))
        out = dpu.alloc(2 * rows * 4)
        mask = np.zeros(rows, dtype=bool)
        mask[::5] = True
        tracer = dpu.enable_tracing()

        def kernel(ctx):
            for tile in range(4):
                ctx.push(ddr_to_dmem(rows, 4, column + tile * rows * 4,
                                     (tile % 2) * 2048, notify_event=tile % 2))
                yield from ctx.wfe(tile % 2)
                ctx.clear_event(tile % 2)
            ctx.dmem.write(8192, pack_bits(mask))
            ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                                rows=len(pack_bits(mask)) // 8, col_width=8,
                                dmem_addr=8192, internal_mem="bv"), 1)
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM, rows=rows,
                                col_width=8, ddr_addr=table, dmem_addr=12288,
                                gather_src=True, notify_event=2), 1)
            yield from ctx.wfe(2)
            ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DDR, rows=rows,
                                col_width=4, dmem_addr=0,
                                ddr_addr=out + ctx.core_id * rows * 4,
                                notify_event=3))
            yield from ctx.wfe(3)

        result = dpu.launch(kernel, cores=[0, 9])
        assert result.cycles == 1847.0
        spans = Counter(event["name"] for event in tracer.events
                        if event["ph"] == "b")
        assert {name: count for name, count in spans.items()
                if "dm" in name} == {
            "dmad.descriptor": 14,
            "dms.ddr_to_dmem": 10,
            "dms.dmem_to_dms": 2,
            "dms.dmem_to_ddr": 2,
            "dms.gather": 2,
            "proc.dmad0.desc": 7,
            "proc.dmad9.desc": 7,
        }
