"""Per-core DPU units are built on first use, and exactly.

A DPU models 32 dpCores, each with 32 DMS binary events, a DMAD with
two descriptor channels, an ATE receive engine and a mailbox (plus the
A9 and M0 mailboxes). A run touches a few of them, so each unit is
built the first time it is used: an event id when it is set, cleared
or waited on, a DMAD channel at its first push, an ATE engine at the
first request to its core, a mailbox at its first send or receive.
Service loops started that late (``Engine.start_daemon``) take the
heap position a loop started with the DPU would have, so every
dispatch lands where it did when all of them were built with the DPU.
The differential tests below pin values measured when every unit was
built eagerly.
"""

import gc
from collections import deque

import numpy as np
import pytest

from repro.apps.streaming import stream_columns
from repro.cluster import Cluster
from repro.core import A9_ID, DPU, M0_ID
from repro.dms import ddr_to_dmem, loop
from repro.memory import CacheConfig, MacroCacheHierarchy
from repro.sim import DeadlockError, Engine, Resource, SimulationError, Store


@pytest.fixture
def dpu():
    return DPU()


def _daemons(engine):
    return sorted(p.name for p in engine._processes if p.daemon)


class TestNothingBuiltAtConstruction:
    def test_dpu_schedules_and_registers_nothing(self, dpu):
        assert dpu.engine._queue == []
        assert dpu.engine._processes == []
        assert all(ef.events == {} for ef in dpu.event_files.values())
        assert all(d.channels == [None, None] for d in dpu.dmads.values())
        assert dpu.ate._inboxes == {}
        assert dpu.mailbox.mailboxes == {}

    def test_cluster_schedules_and_registers_nothing(self):
        cluster = Cluster(8)
        assert cluster.engine._queue == []
        assert cluster.engine._processes == []
        assert cluster.engine.run() == 0
        assert all(dpu._caches is None for dpu in cluster.dpus)

    def test_cluster_resources_hold_no_waiter_queue(self):
        """A DPU's 34 resources (DMAD outstanding slots, CMEM and CRC
        banks) build their waiter FIFO when the first acquirer queues."""
        cluster = Cluster(8)
        resources = [obj for obj in gc.get_objects()
                     if isinstance(obj, Resource)
                     and obj.engine is cluster.engine]
        assert len(resources) == 8 * 34
        assert not any(isinstance(resource._waiters, deque)
                       for resource in resources)

    def test_scratchpads_are_views_of_one_zeroed_mapping(self, dpu):
        mappings = {id(pad.data.base) for pad in dpu.scratchpads.values()}
        assert len(mappings) == 1
        mapping = dpu.scratchpads[0].data.base
        assert mapping.size == dpu.config.num_cores * dpu.config.dmem_size
        assert not mapping.any()
        assert dpu._caches is None

    def test_cluster_footprint_per_dpu(self):
        """Eager construction left ~5,200 GC-tracked objects per DPU
        (1,024 binary events, 96 daemons, 34 mailboxes...)."""
        gc.collect()
        before = len(gc.get_objects())
        cluster = Cluster(64)
        cluster.engine.run()
        per_dpu = (len(gc.get_objects()) - before) / 64
        assert per_dpu < 2000, per_dpu


class TestFirstUseBuildsExactlyThatUnit:
    def test_event_ids(self, dpu):
        events = dpu.event_files[3]
        events.set(5)
        events.wait(7)
        events.clear(9)
        assert events.is_set(11) is False
        assert sorted(events.events) == [5, 7, 9, 11]
        assert events.is_set(5) is True
        assert all(other.events == {} for core, other
                   in dpu.event_files.items() if core != 3)

    @pytest.mark.parametrize("event_id", [-1, 32])
    def test_event_ids_outside_range_rejected(self, dpu, event_id):
        events = dpu.event_files[0]
        for operation in (events.set, events.clear, events.wait,
                          events.is_set, events.event):
            with pytest.raises(ValueError, match="outside 0..31"):
                operation(event_id)
        assert events.events == {}

    def test_dmad_channel(self, dpu):
        address = dpu.store_array(np.arange(64, dtype=np.uint32))

        def kernel(ctx):
            ctx.push(ddr_to_dmem(64, 4, address, 0, notify_event=4),
                     channel=1)
            yield from ctx.wfe(4)

        dpu.launch(kernel, cores=[2])
        channels = dpu.dmads[2].channels
        assert channels[0] is None and channels[1] is not None
        assert dpu.dmads[2].occupancy(0) == 0
        assert dpu.dmads[2].idle()
        assert _daemons(dpu.engine) == []
        assert sorted(dpu.event_files[2].events) == [4]
        assert all(d.channels == [None, None] for core, d
                   in dpu.dmads.items() if core != 2)

    def test_ate_destination(self, dpu):
        target = dpu.address_map.dmem_address(17, 0)

        def kernel(ctx):
            return (yield from ctx.fetch_add(17, target, 5))

        dpu.launch(kernel, cores=[3])
        assert list(dpu.ate._inboxes) == [17]
        assert list(dpu.ate._issue_slots) == [3]
        assert _daemons(dpu.engine) == ["ate[17]"]

    def test_mailbox(self, dpu):
        def kernel(ctx):
            if ctx.core_id == 0:
                yield from ctx.mbox_send(1, "ptr")
                return None
            return (yield from ctx.mbox_receive())

        result = dpu.launch(kernel, cores=[0, 1])
        assert result.values[1] == (0, "ptr")
        assert list(dpu.mailbox.mailboxes) == [1]
        assert dpu.mailbox.try_receive(A9_ID) == (False, None)
        assert list(dpu.mailbox.mailboxes) == [1, A9_ID]
        assert _daemons(dpu.engine) == []

    def test_dmem_writes_stay_in_their_core(self, dpu):
        address = dpu.store_array(np.full(1024, 0xFFFFFFFF, dtype=np.uint32))

        def kernel(ctx):
            ctx.push(ddr_to_dmem(1024, 4, address, 0, notify_event=0))
            yield from ctx.wfe(0)

        dpu.launch(kernel, cores=[5])
        pads = dpu.scratchpads
        assert (pads[5].data[:4096] == 0xFF).all()
        assert not pads[5].data[4096:].any()
        assert not pads[4].data.any() and not pads[6].data.any()

    @pytest.mark.parametrize("first", ["cached_access", "cache_flush",
                                       "cache_invalidate"])
    def test_cache_hierarchy(self, dpu, first):
        """The hierarchy is built by the first cached operation and
        charges what a hierarchy built with the DPU would."""
        config = dpu.config
        fresh = MacroCacheHierarchy(
            core_ids=range(8, 16),
            l1d_config=CacheConfig(size=config.l1d_size),
            l2_config=CacheConfig(size=config.l2_size, associativity=8,
                                  hit_cycles=12),
            ddr_latency_cycles=config.ddr_latency_cycles,
            l1i_config=CacheConfig(size=config.l1i_size, associativity=2))
        first_arg = {"cached_access": False, "cache_flush": 64,
                     "cache_invalidate": 64}[first]
        steps = [(first, 4096, first_arg), ("cached_access", 4096, True),
                 ("cached_access", 4096, False), ("cached_access", 8192, False),
                 ("cache_flush", 4096, 128), ("cache_invalidate", 4096, 64),
                 ("cached_access", 4096, False)]

        def kernel(ctx):
            charged = []
            for name, address, arg in steps:
                start = ctx.engine.now
                yield from getattr(ctx, name)(address, arg)
                charged.append(ctx.engine.now - start)
            return charged

        assert dpu._caches is None
        charged = dpu.launch(kernel, cores=[9]).values[0]
        expected = [
            {"cached_access": fresh.access, "cache_flush": fresh.flush,
             "cache_invalidate": fresh.invalidate}[name](9, address, arg)
            for name, address, arg in steps]
        assert charged == expected
        assert len(dpu._caches) == config.num_macros
        assert dpu.caches[1].l1d[9].stats == fresh.l1d[9].stats
        assert all(not cache._sets for index, macro in enumerate(dpu.caches)
                   if index != 1 for cache in macro.l1d.values())

    @pytest.mark.parametrize("endpoint", [-1, M0_ID + 1])
    def test_mailbox_ids_outside_range_rejected(self, dpu, endpoint):
        with pytest.raises(ValueError, match="outside 0..33"):
            dpu.mailbox._check(endpoint)
        with pytest.raises(ValueError, match="outside 0..33"):
            dpu.mailbox.try_receive(endpoint)
        with pytest.raises(ValueError, match="outside 0..33"):
            next(dpu.mailbox.receive(endpoint))
        with pytest.raises(ValueError, match="outside 0..33"):
            next(dpu.mailbox.send(0, endpoint, None))
        assert dpu.mailbox.mailboxes == {}


class TestStartDaemon:
    @staticmethod
    def _service(store, seen):
        while True:
            seen.append((yield store.get()))

    def test_after_a_run_it_parks_without_a_heap_entry(self):
        engine = Engine()
        mark = engine.mark()
        engine.run()
        store, seen = Store(engine), []
        process = engine.start_daemon(self._service(store, seen), "svc", mark)
        assert process.daemon and engine._queue == []
        assert process._waiting_on is not None
        store.put("a")
        engine.run()
        assert seen == ["a"]

    def test_before_a_run_it_is_queued_at_the_mark(self):
        """Ranks order loops sharing a mark, and all of them start
        before anything scheduled after the mark was taken."""
        engine = Engine()
        mark = engine.mark()
        order = []
        engine.timeout(0).add_callback(lambda _event: order.append("later"))
        first, second = Store(engine), Store(engine)
        engine.start_daemon(self._service(second, order), "svc1", mark, 0.5)
        engine.start_daemon(self._service(first, order), "svc0", mark, 0.0)
        assert sorted(entry[:2] for entry in engine._queue) == [
            (0, mark[1]), (0, mark[1] + 0.5), (0, mark[1] + 1)]
        first.put("x")
        second.put("y")
        engine.run()
        assert order == ["x", "y", "later"]

    def test_rejects_a_loop_that_does_not_park(self):
        engine = Engine()
        mark = engine.mark()
        engine.run()

        def finishes():
            return
            yield  # pragma: no cover

        with pytest.raises(SimulationError, match="did not park"):
            engine.start_daemon(finishes(), "svc", mark)


class TestDifferentialAgainstEagerConstruction:
    """Values measured with every unit built at DPU construction."""

    def test_host_pushed_descriptors_before_first_run(self, dpu):
        """Host code pushes descriptor chains on cores 0 and 1 before
        the engine first runs, spawning a DDR-contending kernel and a
        sleeper in between; the walkers start exactly as before."""
        engine = dpu.engine
        a0 = dpu.store_array(np.arange(4096, dtype=np.uint32))
        a1 = dpu.store_array(np.arange(4096, dtype=np.uint32) * 3)
        a2 = dpu.store_array(np.arange(2048, dtype=np.uint32) + 7)
        iterations = 4096 * 4 // 2048
        log = []

        def chain(address):
            return [
                ddr_to_dmem(256, 4, address, 0, notify_event=0,
                            src_addr_inc=True),
                ddr_to_dmem(256, 4, address, 1024, notify_event=1,
                            src_addr_inc=True),
                loop(2, iterations - 1),
            ]

        def consumer(ctx):
            total = 0
            buf = 0
            for _ in range(2 * iterations):
                yield from ctx.wfe(buf)
                total += int(ctx.dmem.view(buf * 1024, 1024, np.uint32).sum())
                log.append((ctx.core_id, buf, engine.now))
                ctx.clear_event(buf)
                yield from ctx.compute(40)
                buf = 1 - buf
            return total

        def streamer(ctx):
            ctx.push(ddr_to_dmem(512, 4, a2, 0, notify_event=3))
            ctx.push(ddr_to_dmem(512, 4, a2 + 2048, 2048, notify_event=4))
            yield from ctx.wfe(3)
            yield from ctx.wfe(4)
            return int(ctx.dmem.view(0, 4096, np.uint32).sum()), engine.now

        def sleeper():
            yield engine.timeout(dpu.config.dms_descriptor_setup_cycles)
            log.append(("sleeper", engine.now))

        for descriptor in chain(a0):
            dpu.dmads[0].push(descriptor)
        processes = dpu.spawn_kernels(streamer, cores=[2])
        processes.append(engine.process(sleeper()))
        for descriptor in chain(a1):
            dpu.dmads[1].push(descriptor)
        processes += dpu.spawn_kernels(consumer, cores=[0, 1])
        values = engine.run_until_complete(engine.all_of(processes))

        assert values == [(530944, 773.0), None, 8386560, 25159680]
        assert engine.now == 3343.0
        assert log[0] == ("sleeper", 8)
        assert [t for _core, _buf, t in log[1:]] == [
            138.0, 248.0, 523.0, 608.0, 858.0, 943.0, 1028.0, 1113.0,
            1223.0, 1333.0, 1418.0, 1503.0, 1588.0, 1673.0, 1758.0,
            1843.0, 1953.0, 2063.0, 2148.0, 2233.0, 2318.0, 2403.0,
            2488.0, 2573.0, 2683.0, 2793.0, 2878.0, 2963.0, 3048.0,
            3133.0, 3218.0, 3303.0,
        ]
        assert [core for core, _buf, _t in log[1:]] == [0, 1] * 16
        assert dpu.counters.counters() == {
            "dmad.completed": 34.0,
            "dms.bytes_read": 36864.0,
            "dms.descriptors": 34.0,
        }

    @pytest.mark.parametrize("order, expected", [
        ("c01", [(0, 378.0), (1, 728.0), ("contender", 1053.0)]),
        ("0c1", [(0, 378.0), (1, 728.0), ("contender", 1053.0)]),
        ("01c", [(0, 378.0), (1, 728.0), ("contender", 1053.0)]),
    ])
    def test_host_pushes_around_a_ddr_contender(self, dpu, order, expected):
        """A process spawned before a host push reaches the DDR channel
        in the same cycle as that push's descriptor. Its walker must
        start where one built with the DMAD did, ahead of the process;
        starting it at the push instead hands the process the channel
        (contender 703 or 353 cycles)."""
        engine = dpu.engine
        arrays = [dpu.store_array(np.arange(1024, dtype=np.uint32))
                  for _ in range(2)]
        log = []

        def contender():
            yield engine.timeout(dpu.config.dms_descriptor_setup_cycles)
            yield engine.timeout(0)
            yield dpu.ddr_channel.request(arrays[0] + 65536, 4096)
            log.append(("contender", engine.now))

        def consumer(ctx):
            yield from ctx.wfe(0)
            log.append((ctx.core_id, engine.now))

        processes = []
        for step in order:
            if step == "c":
                processes.append(engine.process(contender()))
            else:
                core = int(step)
                dpu.dmads[core].push(
                    ddr_to_dmem(1024, 4, arrays[core], 0, notify_event=0))
        processes += dpu.spawn_kernels(consumer, cores=[0, 1])
        engine.run_until_complete(engine.all_of(processes))
        assert sorted(log, key=str) == sorted(expected, key=str)

    def test_one_ate_rpc_to_a_core_never_requested(self, dpu):
        """The engine built by the request is parked on its inbox, so
        the request is handed straight to it: nothing ever queues. An
        engine not yet parked at that put would read a peak of 1."""
        dpu.launch(lambda ctx: (yield from ctx.compute(100)), cores=[0, 1])
        target = dpu.address_map.dmem_address(17, 64)

        def kernel(ctx):
            old = yield from ctx.fetch_add(17, target, 5)
            return old, ctx.engine.now

        result = dpu.launch(kernel, cores=[3])
        assert result.values == [(0, 202)]
        assert result.cycles == 102
        assert dpu.counters.gauges() == {
            "ate.inbox_occupancy_peak": 0.0}

    def test_ate_rpc_to_a_core_never_requested(self, dpu):
        """Three requesters fan in on core 17, whose engine is built by
        the first request."""
        dpu.launch(lambda ctx: (yield from ctx.compute(100)), cores=[0, 1])
        target = dpu.address_map.dmem_address(17, 64)

        def kernel(ctx):
            old = yield from ctx.fetch_add(17, target, ctx.core_id + 1)
            value = yield from ctx.remote_load(17, target)
            return old, value, ctx.engine.now

        result = dpu.launch(kernel, cores=[3, 4, 20])
        assert result.values == [(21, 30, 300), (25, 30, 310), (0, 30, 184)]
        assert result.cycles == 210
        stats = dpu.counters.to_dict()
        assert stats["counters"] == {"ate.messages": 6.0}
        assert stats["gauges"] == {"ate.inbox_occupancy_peak": 2.0}
        assert {key: (s["count"], s["mean"])
                for key, s in stats["digests"].items()} == {
            "ate.rtt.faa.local": (1.0, 34.0),
            "ate.rtt.faa.remote": (2.0, 107.0),
            "ate.rtt.load.local": (1.0, 50.0),
            "ate.rtt.load.remote": (2.0, 98.0),
        }

    def test_ate_rpc_in_the_first_launch(self, dpu):
        target = dpu.address_map.dmem_address(9, 0)

        def kernel(ctx):
            old = yield from ctx.fetch_add(9, target, 1)
            return old, ctx.engine.now

        result = dpu.launch(kernel, cores=[0, 1, 2, 3])
        assert result.values == [(0, 102), (1, 112), (2, 122), (3, 132)]
        assert dpu.counters.gauges() == {
            "ate.inbox_occupancy_peak": 3.0}

    def test_deadlock_names_the_kernel_and_no_daemon(self, dpu):
        address = dpu.store_array(np.arange(16, dtype=np.uint32))

        def kernel(ctx):
            if ctx.core_id == 5:
                yield from ctx.wfe(7)  # never set
            else:
                ctx.push(ddr_to_dmem(16, 4, address, 0, notify_event=2))
                yield from ctx.wfe(2)

        with pytest.raises(DeadlockError) as caught:
            dpu.launch(kernel, cores=[4, 5])
        assert [p.name for p in caught.value.blocked] == ["core5"]
        assert str(caught.value) == (
            "deadlock: <AllOf pending at t=54.0> never completed and no "
            "events remain [blocked: core5 waiting on <SimEvent pending "
            "at t=54.0>]"
        )
        assert _daemons(dpu.engine) == []


class TestLaunchCoreIds:
    """A core named twice in one launch would run two kernels on one
    DMAD and event file: each copy of a 4,096-row checksum returned
    4,192,256 instead of 8,386,560."""

    @staticmethod
    def _checksum(ctx, address):
        total = 0

        def process(_tile, lo, hi, arrays):
            nonlocal total
            total += int(arrays[0][: hi - lo].sum())
            return 8

        yield from stream_columns(ctx, [(address, 4)], 4096, 512, process)
        return total

    def test_distinct_cores_stream_the_whole_column(self, dpu):
        address = dpu.store_array(np.arange(4096, dtype=np.uint32))
        result = dpu.launch(self._checksum, args=(address,), cores=[0, 1])
        assert result.values == [8386560, 8386560]

    def test_launch_rejects_a_repeated_core(self, dpu):
        address = dpu.store_array(np.arange(4096, dtype=np.uint32))
        with pytest.raises(SimulationError, match="core 0 named more than"):
            dpu.launch(self._checksum, args=(address,), cores=[0, 0])
        assert dpu.engine._queue == []

    def test_spawn_paths_reject_a_repeated_core(self, dpu):
        with pytest.raises(SimulationError, match="core 7 named more than"):
            dpu.spawn_kernels(self._checksum, args=(0,), cores=[7, 3, 7])
        engine = dpu.engine
        with pytest.raises(SimulationError, match="core 2 named more than"):
            engine.run_until_complete(engine.process(
                dpu.launch_steps(self._checksum, args=(0,), cores=[2, 2])))
        assert engine._queue == []
        assert engine.blocked_processes() == []

    def test_out_of_range_core_still_raises(self, dpu):
        with pytest.raises(SimulationError, match="no such core 32"):
            dpu.launch(self._checksum, args=(0,), cores=[32])
