"""Tests for the address map, DDR model and DMEM scratchpads."""

import numpy as np
import pytest

from repro.memory import (
    AddressMap,
    AddressRangeError,
    DDRChannel,
    DDRMemory,
    DMEM_SIZE,
    Scratchpad,
)
from repro.sim import Engine


def make_map(capacity=1 << 20, cores=32):
    return AddressMap(ddr_capacity=capacity, num_cores=cores)


class TestAddressMap:
    def test_ddr_classification(self):
        amap = make_map()
        assert amap.is_ddr(0)
        assert amap.is_ddr((1 << 20) - 1)
        assert not amap.is_ddr(1 << 20)

    def test_dmem_windows_distinct_per_core(self):
        amap = make_map()
        windows = [amap.dmem_window(core) for core in range(32)]
        for i, window in enumerate(windows):
            assert len(window) == DMEM_SIZE
            for other in windows[i + 1 :]:
                assert window.stop <= other.start or other.stop <= window.start

    def test_dmem_address_roundtrip(self):
        amap = make_map()
        address = amap.dmem_address(7, 1234)
        assert amap.is_dmem(address)
        assert amap.split_dmem(address) == (7, 1234)

    def test_dmem_offset_bounds(self):
        amap = make_map()
        with pytest.raises(AddressRangeError):
            amap.dmem_address(0, DMEM_SIZE)
        with pytest.raises(AddressRangeError):
            amap.dmem_address(32, 0)

    def test_check_ddr_range(self):
        amap = make_map()
        amap.check_ddr_range(0, 1 << 20)
        with pytest.raises(AddressRangeError):
            amap.check_ddr_range(10, 1 << 20)
        with pytest.raises(AddressRangeError):
            amap.check_ddr_range(0, -1)

    def test_overlapping_dmem_base_rejected(self):
        with pytest.raises(ValueError):
            AddressMap(ddr_capacity=1 << 41, num_cores=1)


class TestDDRMemory:
    def test_read_write_roundtrip(self):
        ddr = DDRMemory(make_map())
        payload = np.arange(256, dtype=np.uint32)
        ddr.write(4096, payload)
        assert np.array_equal(ddr.read(4096, 1024).view(np.uint32), payload)

    def test_view_is_zero_copy(self):
        ddr = DDRMemory(make_map())
        view = ddr.view(0, 8, np.uint64)
        view[0] = 0xDEADBEEF
        assert ddr.read_u64(0) == 0xDEADBEEF

    def test_u64_i64_accessors(self):
        ddr = DDRMemory(make_map())
        ddr.write_i64(64, -123456789)
        assert ddr.read_i64(64) == -123456789
        ddr.write_u64(72, 2**63 + 1)
        assert ddr.read_u64(72) == 2**63 + 1

    def test_out_of_range_rejected(self):
        ddr = DDRMemory(make_map())
        with pytest.raises(AddressRangeError):
            ddr.read((1 << 20) - 4, 8)


    def test_backing_is_a_zeroed_private_mmap(self):
        """DDR contents lie over an anonymous mmap (4 KB pages, no
        huge-page advice): they read as zeros and keep what is
        written."""
        import mmap

        ddr = DDRMemory(make_map())
        assert isinstance(ddr.data.base, memoryview)
        assert isinstance(ddr.data.base.obj, mmap.mmap)
        assert ddr.data.flags.writeable
        assert ddr.data.size == ddr.capacity
        assert not ddr.read(ddr.capacity - 4096, 4096).any()
        ddr.write(12345, np.arange(8, dtype=np.uint8))
        assert list(ddr.read(12345, 8)) == list(range(8))
        assert ddr.read_u64(ddr.capacity - 8) == 0


class TestScratchpad:
    def test_size_is_32k(self):
        assert Scratchpad(0).size == 32 * 1024

    def test_read_write(self):
        dmem = Scratchpad(3)
        dmem.write(100, np.arange(16, dtype=np.uint8))
        assert list(dmem.read(100, 16)) == list(range(16))

    def test_bounds_checked(self):
        dmem = Scratchpad(0)
        with pytest.raises(IndexError):
            dmem.read(DMEM_SIZE - 4, 8)
        with pytest.raises(IndexError):
            dmem.write(-1, np.zeros(4, dtype=np.uint8))

    def test_fill(self):
        dmem = Scratchpad(0)
        dmem.write(0, np.arange(64, dtype=np.uint8))
        dmem.fill(0)
        assert dmem.data.sum() == 0

    def test_backing_is_a_zeroed_private_mmap(self):
        import mmap

        dmem = Scratchpad(0)
        assert isinstance(dmem.data.base, memoryview)
        assert isinstance(dmem.data.base.obj, mmap.mmap)
        assert dmem.data.size == DMEM_SIZE and not dmem.data.any()

    def test_size_must_be_positive(self):
        for build in (lambda: Scratchpad(0, 0),
                      lambda: Scratchpad.bank(range(4), 0)):
            with pytest.raises(ValueError, match="must be positive"):
                build()


class TestScratchpadBank:
    """A DPU's scratchpads are views of one mapping, one per core."""

    @pytest.fixture
    def pads(self):
        return Scratchpad.bank(range(32), DMEM_SIZE)

    def test_zeroed_non_overlapping_views_of_one_mapping(self, pads):
        mapping = pads[0].data.base
        assert mapping.size == 32 * DMEM_SIZE and not mapping.any()
        start = mapping.__array_interface__["data"][0]
        for core, pad in pads.items():
            assert pad.core_id == core and pad.size == DMEM_SIZE
            assert pad.data.base is mapping
            assert pad.data.__array_interface__["data"][0] \
                == start + core * DMEM_SIZE
        pads[5].write(0, np.full(DMEM_SIZE, 0xAB, dtype=np.uint8))
        assert (pads[5].data == 0xAB).all()
        assert not pads[4].data.any() and not pads[6].data.any()
        assert int(mapping.sum()) == 0xAB * DMEM_SIZE

    def test_access_past_its_view_raises_as_a_standalone_pad(self, pads):
        alone = Scratchpad(5)
        for pad in (pads[5], alone):
            with pytest.raises(IndexError) as error:
                pad.read(DMEM_SIZE - 4, 8)
            assert str(error.value) == (
                f"DMEM access [{DMEM_SIZE - 4:#x}, {DMEM_SIZE + 4:#x}) "
                f"outside 0..{DMEM_SIZE:#x} on core 5")
            with pytest.raises(IndexError):
                pad.write(DMEM_SIZE, np.zeros(1, dtype=np.uint8))
            with pytest.raises(IndexError):
                pad.view(-8, 8)
            with pytest.raises(IndexError):
                pad.read_u64(DMEM_SIZE - 4)
        assert not pads[4].data.any() and not pads[6].data.any()

    def test_fill_and_watermarks_stay_per_core(self, pads):
        fired = []
        pads[5].add_watermark(0.5, lambda pad: fired.append(pad.core_id))
        pads[5].write(0, np.ones(DMEM_SIZE // 2, dtype=np.uint8))
        assert fired == [5]
        assert pads[5].stats() == {
            "core_id": 5, "size": DMEM_SIZE,
            "peak_offset": DMEM_SIZE // 2, "bytes_written": DMEM_SIZE // 2}
        pads[6].write(0, np.ones(DMEM_SIZE, dtype=np.uint8))
        assert fired == [5]  # core 6's writes are its own
        pads[5].fill(7)
        assert (pads[5].data == 7).all() and pads[5].peak_offset == 0
        assert not pads[4].data.any() and (pads[6].data == 1).all()
        pads[5].write(DMEM_SIZE // 2 - 8, np.ones(8, dtype=np.uint8))
        assert fired == [5, 5]  # fill re-armed the mark


class TestDDRChannel:
    def run_request(self, channel, engine, address, nbytes, **kwargs):
        def worker():
            yield channel.request(address, nbytes, **kwargs)

        engine.run_until_complete(engine.process(worker()))

    def test_peak_rate(self):
        engine = Engine()
        channel = DDRChannel(
            engine, peak_bytes_per_cycle=16, transaction_overhead_cycles=0,
            row_miss_cycles=0,
        )
        self.run_request(channel, engine, 0, 1600)
        assert engine.now == 100

    def test_axi_transaction_overhead(self):
        engine = Engine()
        channel = DDRChannel(
            engine, peak_bytes_per_cycle=16, transaction_overhead_cycles=4,
            row_miss_cycles=0,
        )
        # 1024 B = 4 AXI transactions of <=256 B -> 16 overhead cycles.
        self.run_request(channel, engine, 0, 1024)
        assert engine.now == 64 + 16

    def test_row_miss_charged_once_per_new_row(self):
        engine = Engine()
        channel = DDRChannel(
            engine, peak_bytes_per_cycle=16, transaction_overhead_cycles=0,
            row_miss_cycles=20, row_size=4096,
        )
        self.run_request(channel, engine, 0, 256)  # opens row 0
        misses_after_first = channel.row_misses
        self.run_request(channel, engine, 256, 256)  # same row: hit
        assert channel.row_misses == misses_after_first == 1

    def test_interleaved_streams_keep_rows_open_per_bank(self):
        engine = Engine()
        channel = DDRChannel(
            engine, peak_bytes_per_cycle=16, transaction_overhead_cycles=0,
            row_miss_cycles=20, row_size=4096, num_banks=8,
        )
        # Two streams in different rows: after warm-up, both hit.
        self.run_request(channel, engine, 0, 256)
        self.run_request(channel, engine, 12 * 4096, 256)
        warm = channel.row_misses
        self.run_request(channel, engine, 256, 256)
        self.run_request(channel, engine, 12 * 4096 + 256, 256)
        assert channel.row_misses == warm

    def test_write_row_miss_discounted(self):
        engine = Engine()
        channel = DDRChannel(
            engine, peak_bytes_per_cycle=16, transaction_overhead_cycles=0,
            row_miss_cycles=40, row_size=4096,
        )
        self.run_request(channel, engine, 0, 16, is_write=True)
        write_time = engine.now
        engine2 = Engine()
        channel2 = DDRChannel(
            engine2, peak_bytes_per_cycle=16, transaction_overhead_cycles=0,
            row_miss_cycles=40, row_size=4096,
        )
        def worker():
            yield channel2.request(0, 16)
        engine2.run_until_complete(engine2.process(worker()))
        assert write_time < engine2.now  # write buffering hides activates

    def test_zero_bytes_is_free(self):
        engine = Engine()
        channel = DDRChannel(engine)
        self.run_request(channel, engine, 0, 0)
        assert engine.now == 0
