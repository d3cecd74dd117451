"""Tests for the Atomic Transaction Engine (hardware & software RPCs)."""

import numpy as np
import pytest

from repro.ate import AteError, CrossbarTopology, RpcKind
from repro.core import DPU, DPU_40NM


@pytest.fixture
def dpu():
    return DPU()


class TestHardwareRpcs:
    def test_remote_load_store_on_dmem(self, dpu):
        target_addr = dpu.address_map.dmem_address(5, 128)

        def kernel(ctx):
            yield from ctx.remote_store(5, target_addr, 0xABCD)
            value = yield from ctx.remote_load(5, target_addr)
            return value

        assert dpu.launch(kernel, cores=[0]).values[0] == 0xABCD
        assert dpu.scratchpads[5].read_u64(128) == 0xABCD

    def test_remote_ops_on_ddr(self, dpu):
        address = dpu.alloc(8)

        def kernel(ctx):
            yield from ctx.remote_store(9, address, 77)
            value = yield from ctx.remote_load(9, address)
            return value

        assert dpu.launch(kernel, cores=[1]).values[0] == 77
        assert dpu.ddr.read_u64(address) == 77

    def test_fetch_add_returns_old_value(self, dpu):
        address = dpu.address_map.dmem_address(2, 0)
        dpu.scratchpads[2].write_u64(0, 10)

        def kernel(ctx):
            old = yield from ctx.fetch_add(2, address, 5)
            return old

        assert dpu.launch(kernel, cores=[0]).values[0] == 10
        assert dpu.scratchpads[2].read_u64(0) == 15

    def test_fetch_add_is_atomic_under_contention(self, dpu):
        address = dpu.address_map.dmem_address(0, 0)

        def kernel(ctx):
            for _ in range(10):
                yield from ctx.fetch_add(0, address, 1)

        dpu.launch(kernel)  # all 32 cores
        assert dpu.scratchpads[0].read_u64(0) == 320

    def test_compare_and_swap(self, dpu):
        address = dpu.address_map.dmem_address(3, 8)
        dpu.scratchpads[3].write_u64(8, 100)

        def kernel(ctx):
            seen = yield from ctx.compare_swap(3, address, 100, 200)
            failed = yield from ctx.compare_swap(3, address, 100, 300)
            return seen, failed

        seen, failed = dpu.launch(kernel, cores=[7]).values[0]
        assert seen == 100
        assert failed == 200  # CAS failed, returned current
        assert dpu.scratchpads[3].read_u64(8) == 200

    def test_cas_mutual_exclusion(self, dpu):
        """Exactly one core wins a contended CAS from zero."""
        address = dpu.address_map.dmem_address(0, 64)

        def kernel(ctx):
            observed = yield from ctx.compare_swap(
                0, address, 0, ctx.core_id + 1
            )
            return observed == 0

        winners = sum(dpu.launch(kernel).values)
        assert winners == 1

    def test_bad_address_fails_cleanly(self, dpu):
        def kernel(ctx):
            try:
                yield from ctx.remote_load(1, 1 << 50)
            except AteError:
                return "rejected"

        assert dpu.launch(kernel, cores=[0]).values[0] == "rejected"


class TestSoftwareRpcs:
    def test_handler_runs_on_owner_and_returns(self, dpu):
        log = []

        def handler(args):
            log.append(args)
            return args * 2

        dpu.ate.install_handler(4, "double", handler)

        def kernel(ctx):
            value = yield from ctx.software_rpc(4, "double", 21)
            return value

        assert dpu.launch(kernel, cores=[0]).values[0] == 42
        assert log == [21]

    def test_generator_handler_charges_time(self, dpu):
        engine = dpu.engine

        def handler(args):
            yield engine.timeout(500)
            return "slow"

        dpu.ate.install_handler(2, "slow", handler)

        def kernel(ctx):
            value = yield from ctx.software_rpc(2, "slow")
            return value

        result = dpu.launch(kernel, cores=[0])
        assert result.values[0] == "slow"
        assert result.cycles >= 500

    def test_missing_handler_raises_in_caller(self, dpu):
        def kernel(ctx):
            try:
                yield from ctx.software_rpc(1, "nonexistent")
            except AteError as error:
                return "handler" in str(error)

        assert dpu.launch(kernel, cores=[0]).values[0]

    def test_interrupt_debt_charged_to_owner_compute(self, dpu):
        dpu.ate.install_handler(6, "noop", lambda args: None)

        def caller(ctx):
            yield from ctx.software_rpc(6, "noop")
            return None

        def owner(ctx):
            # Wait until the RPC has landed, then measure one compute.
            while dpu.ate.interrupt_debt[6] == 0:
                yield dpu.engine.timeout(50)
            debt = dpu.ate.interrupt_debt[6]
            before = dpu.engine.now
            yield from ctx.compute(10)
            return dpu.engine.now - before, debt

        def kernel(ctx):
            if ctx.core_id == 0:
                return caller(ctx)
            return owner(ctx)

        result = dpu.launch(
            lambda ctx: (yield from kernel(ctx)), cores=[0, 6]
        )
        elapsed, debt = result.values[1]
        assert debt > 0
        assert elapsed == 10 + debt  # handler stall folded into compute
        assert dpu.ate.interrupt_debt[6] == 0


class TestLatencyModel:
    def test_intra_macro_faster_than_inter_macro(self, dpu):
        topo = CrossbarTopology(dpu.config)
        assert topo.one_way_cycles(0, 7) < topo.one_way_cycles(0, 8)
        assert topo.hops(0, 7) == 1 and topo.hops(0, 31) == 3

    def test_figure2_orderings(self, dpu):
        """Fig. 2 shape: hw load < atomic < software RPC; local < remote."""
        dpu.ate.install_handler(1, "nop", lambda args: None)
        dpu.ate.install_handler(9, "nop", lambda args: None)

        def kernel(ctx):
            timings = {}
            for name, owner, action in (
                ("load_local", 1, "load"),
                ("load_remote", 9, "load"),
                ("faa_local", 1, "faa"),
                ("sw_local", 1, "sw"),
            ):
                start = dpu.engine.now
                address = dpu.address_map.dmem_address(owner, 256)
                if action == "load":
                    yield from ctx.remote_load(owner, address)
                elif action == "faa":
                    yield from ctx.fetch_add(owner, address, 1)
                else:
                    yield from ctx.software_rpc(owner, "nop")
                timings[name] = dpu.engine.now - start
            return timings

        timings = dpu.launch(kernel, cores=[0]).values[0]
        assert timings["load_local"] < timings["load_remote"]
        assert timings["load_local"] < timings["faa_local"]
        assert timings["faa_local"] < timings["sw_local"]

    def test_rtt_samples_recorded(self, dpu):
        def kernel(ctx):
            address = dpu.address_map.dmem_address(1, 0)
            yield from ctx.remote_load(1, address)

        dpu.launch(kernel, cores=[0])
        digest = dpu.counters.digest("ate.rtt.load.local")
        assert digest.count == 1
        assert digest.mean > 0

    def test_one_outstanding_request_serializes(self, dpu):
        """The paper: one outstanding ATE request per core."""
        address = dpu.address_map.dmem_address(1, 0)

        def kernel(ctx):
            start = dpu.engine.now
            first = yield from ctx.ate.issue(
                ctx.core_id, 1, RpcKind.LOAD, address=address
            )
            # Second issue blocks on the slot until `first` replies.
            second = yield from ctx.ate.issue(
                ctx.core_id, 1, RpcKind.LOAD, address=address
            )
            yield second
            return dpu.engine.now - start

        elapsed = dpu.launch(kernel, cores=[0]).values[0]
        single_rtt = 2 * dpu.config.ate_local_crossbar_cycles
        assert elapsed > 1.5 * single_rtt


def test_point_to_point_fifo_ordering():
    """Messages from one source to one owner apply in issue order."""
    dpu = DPU()
    address = dpu.address_map.dmem_address(2, 0)

    def kernel(ctx):
        for value in range(1, 6):
            yield from ctx.remote_store(2, address, value)

    dpu.launch(kernel, cores=[0])
    assert dpu.scratchpads[2].read_u64(0) == 5


class TestPostedStores:
    def test_posted_store_lands(self, dpu):
        address = dpu.address_map.dmem_address(4, 64)

        def kernel(ctx):
            yield from ctx.posted_store(4, address, 99)
            # Give the message time to land, then confirm via a load.
            value = yield from ctx.remote_load(4, address)
            return value

        assert dpu.launch(kernel, cores=[0]).values[0] == 99

    def test_posted_store_faster_than_blocking(self, dpu):
        address = dpu.address_map.dmem_address(9, 0)  # cross-macro

        def blocking(ctx):
            start = dpu.engine.now
            for value in range(8):
                yield from ctx.remote_store(9, address, value)
            return dpu.engine.now - start

        def posted(ctx):
            start = dpu.engine.now
            for value in range(8):
                yield from ctx.posted_store(9, address, value)
            return dpu.engine.now - start

        blocking_cycles = dpu.launch(blocking, cores=[0]).values[0]
        posted_cycles = dpu.launch(posted, cores=[1]).values[0]
        assert posted_cycles < blocking_cycles
