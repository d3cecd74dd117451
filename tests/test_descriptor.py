"""Tests for DMS descriptors: Table 2 bit layout, Table 1 rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dms import (
    DESCRIPTOR_CAPABILITIES,
    DESCRIPTOR_SIZE,
    Descriptor,
    DescriptorError,
    DescriptorType,
    PartitionMode,
    PartitionSpec,
    ddr_to_dmem,
    dmem_to_ddr,
    loop,
)


class TestTable2Encoding:
    def test_descriptor_is_16_bytes(self):
        descriptor = ddr_to_dmem(256, 4, 0x1000, 0x200, notify_event=3)
        assert len(descriptor.encode()) == DESCRIPTOR_SIZE == 16

    def test_roundtrip_all_fields(self):
        descriptor = Descriptor(
            dtype=DescriptorType.DDR_TO_DMEM,
            rows=4096,
            col_width=8,
            ddr_addr=0x3_1234_5670,
            dmem_addr=0x1F00,
            gather_src=True,
            scatter_dst=False,
            rle=True,
            src_addr_inc=True,
            dst_addr_inc=False,
            wait_event=5,
            notify_event=17,
            link_addr=0xBEEF,
        )
        decoded = Descriptor.decode(descriptor.encode())
        for field in (
            "dtype", "rows", "col_width", "ddr_addr", "dmem_addr",
            "gather_src", "scatter_dst", "rle", "src_addr_inc",
            "dst_addr_inc", "wait_event", "notify_event", "link_addr",
        ):
            assert getattr(decoded, field) == getattr(descriptor, field), field

    def test_type_field_in_top_nibble_of_word0(self):
        raw = ddr_to_dmem(1, 4, 0, 0).encode()
        word0 = int.from_bytes(raw[0:4], "little")
        assert (word0 >> 28) == DescriptorType.DDR_TO_DMEM.value

    def test_rows_and_dmem_addr_in_word2(self):
        raw = ddr_to_dmem(0x1234, 4, 0, 0x5678).encode()
        word2 = int.from_bytes(raw[8:12], "little")
        assert (word2 >> 16) == 0x1234
        assert (word2 & 0xFFFF) == 0x5678

    def test_ddr_addr_split_36_bits(self):
        address = 0xA_BCDE_F01C  # 36-bit with low nibble 0xC
        raw = ddr_to_dmem(1, 4, address, 0).encode()
        word1 = int.from_bytes(raw[4:8], "little")
        word3 = int.from_bytes(raw[12:16], "little")
        assert (word1 & 0xF) == 0xC
        assert word3 == address >> 4

    def test_none_events_encode_as_slot_31(self):
        raw = ddr_to_dmem(1, 4, 0, 0).encode()
        word0 = int.from_bytes(raw[0:4], "little")
        assert (word0 >> 21) & 0x1F == 31  # notify
        assert (word0 >> 16) & 0x1F == 31  # wait
        assert Descriptor.decode(raw).notify_event is None

    @given(
        rows=st.integers(1, 0xFFFF),
        width=st.sampled_from([1, 2, 4, 8]),
        ddr=st.integers(0, (1 << 36) - 1),
        dmem=st.integers(0, 0xFFFF),
        notify=st.one_of(st.none(), st.integers(0, 30)),
        wait=st.one_of(st.none(), st.integers(0, 30)),
        flags=st.tuples(*([st.booleans()] * 4)),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, rows, width, ddr, dmem, notify, wait,
                                flags):
        gather, scatter, src_inc, dst_inc = flags
        descriptor = Descriptor(
            dtype=DescriptorType.DDR_TO_DMEM,
            rows=rows, col_width=width, ddr_addr=ddr, dmem_addr=dmem,
            gather_src=gather, scatter_dst=scatter,
            src_addr_inc=src_inc, dst_addr_inc=dst_inc,
            wait_event=wait, notify_event=notify,
        )
        assert Descriptor.decode(descriptor.encode()) == descriptor

    def test_only_ddr_dmem_forms_have_table2_encoding(self):
        descriptor = Descriptor(
            dtype=DescriptorType.DDR_TO_DMS, rows=4, col_width=4
        )
        with pytest.raises(DescriptorError):
            descriptor.encode()


class TestTable1Capabilities:
    def test_all_seven_data_directions_present(self):
        data_types = [t for t in DescriptorType if t.is_data]
        assert len(data_types) == 7
        assert set(DESCRIPTOR_CAPABILITIES) == set(data_types)

    def test_gather_only_on_ddr_dmem(self):
        with pytest.raises(DescriptorError):
            Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=1, col_width=4,
                       gather_src=True)

    def test_partition_only_on_dms_paths(self):
        spec = PartitionSpec(mode=PartitionMode.HASH)
        with pytest.raises(DescriptorError):
            Descriptor(dtype=DescriptorType.DDR_TO_DMEM, rows=1, col_width=4,
                       partition=spec)

    def test_key_column_only_on_ddr_to_dms(self):
        with pytest.raises(DescriptorError):
            Descriptor(dtype=DescriptorType.DDR_TO_DMEM, rows=1, col_width=4,
                       is_key_column=True)
        Descriptor(dtype=DescriptorType.DDR_TO_DMS, rows=1, col_width=4,
                   is_key_column=True)


class TestValidation:
    def test_bad_column_width(self):
        with pytest.raises(DescriptorError):
            ddr_to_dmem(1, 3, 0, 0)

    def test_rows_field_is_16_bits(self):
        with pytest.raises(DescriptorError):
            ddr_to_dmem(1 << 16, 4, 0, 0)

    def test_ddr_addr_is_36_bits(self):
        with pytest.raises(DescriptorError):
            ddr_to_dmem(1, 4, 1 << 36, 0)

    def test_event_range(self):
        with pytest.raises(DescriptorError):
            ddr_to_dmem(1, 4, 0, 0, notify_event=31)

    def test_loop_validation(self):
        loop(2, 100)
        with pytest.raises(DescriptorError):
            loop(0, 100)
        with pytest.raises(DescriptorError):
            loop(1, -1)

    def test_internal_mem_names(self):
        with pytest.raises(DescriptorError):
            Descriptor(dtype=DescriptorType.DMEM_TO_DMS, rows=1, col_width=4,
                       internal_mem="nonsense")

    @pytest.mark.parametrize("dtype", list(DescriptorType), ids=lambda t: t.name)
    def test_every_capability_error_message(self, dtype):
        """Each Table 1 check names the type and the refused operation,
        and control descriptors take none of those checks."""
        spec = PartitionSpec(mode=PartitionMode.HASH)
        fields = {"ddr_stride": ("stride", 8), "gather_src": ("gather", True),
                  "scatter_dst": ("scatter", True),
                  "partition": ("partition", spec),
                  "is_key_column": ("key", True)}
        messages = {"stride": "does not support stride",
                    "gather": "does not support gather",
                    "scatter": "does not support scatter",
                    "partition": "does not support partitioning",
                    "key": "has no key column role"}
        for name, (operation, value) in fields.items():
            kwargs = {"dtype": dtype, "rows": 1, "col_width": 4, name: value}
            if dtype.is_control:
                if dtype is DescriptorType.LOOP:
                    kwargs.update(loop_back=1)
                assert Descriptor(**kwargs).transfer_bytes == 0
            elif operation in DESCRIPTOR_CAPABILITIES[dtype]:
                assert Descriptor(**kwargs).transfer_bytes == 4
            else:
                with pytest.raises(DescriptorError) as caught:
                    Descriptor(**kwargs)
                assert str(caught.value) == (
                    f"{dtype.name} {messages[operation]}")

    def test_descriptor_path_hashes_no_enum(self, monkeypatch):
        """Validation, sizing and a streamed launch never run the
        Python-level ``Enum.__hash__`` (four calls per descriptor
        when the checks used a frozenset and a dict keyed by type)."""
        import numpy as np

        from repro.core import DPU

        calls = []

        def counting_hash(member):
            calls.append(member)
            return hash(member._name_)

        dpu = DPU()
        address = dpu.store_array(np.arange(4096, dtype=np.uint32))

        def kernel(ctx):
            ctx.push(ddr_to_dmem(512, 4, address, 0, notify_event=0,
                                 src_addr_inc=True))
            ctx.push(loop(1, 7))
            for _ in range(8):
                yield from ctx.wfe(0)
                ctx.clear_event(0)

        monkeypatch.setattr(DescriptorType, "__hash__", counting_hash)
        descriptor = dmem_to_ddr(64, 8, 0x40, 0x80, scatter_dst=True)
        assert descriptor.transfer_bytes == 512
        dpu.launch(kernel, cores=[0, 5])
        assert dpu.counters.get("dms.descriptors") == 16
        assert calls == []

    def test_free_outstanding_slots_need_no_acquire_event(self, monkeypatch):
        """A DMAD takes a free outstanding slot with
        ``acquire_or_queue``: a streamed launch that never fills its
        slots builds no ``Resource.acquire`` event."""
        import numpy as np

        from repro.apps.streaming import stream_columns
        from repro.core import DPU
        from repro.sim import Resource

        dpu = DPU()
        rows = 4096
        address = dpu.store_array(np.arange(rows, dtype=np.uint32))
        seen = []

        def kernel(ctx):
            def check(tile, lo, hi, arrays):
                seen.append(bool((arrays[0] == np.arange(lo, hi)).all()))
                return 8

            yield from stream_columns(ctx, [(address, 4)], rows, 512, check)

        acquired = []
        original = Resource.acquire

        def counting_acquire(resource):
            acquired.append(resource)
            return original(resource)

        monkeypatch.setattr(Resource, "acquire", counting_acquire)
        # Two buffers per core: at most two slots are ever held.
        assert dpu.config.dms_max_outstanding >= 2
        dpu.launch(kernel, cores=[0, 3])
        assert seen == [True] * 16
        assert dpu.counters.get("dmad.completed") == 16
        assert acquired == []

    def test_acquire_or_queue_never_jumps_the_queue(self):
        """``acquire_or_queue`` queues whenever an acquirer is queued,
        even with a slot free, and a queued callback runs when a
        release hands it the slot, after the acquirers ahead of it."""
        from repro.sim import Engine, Resource, SimEvent

        engine = Engine()
        slots = Resource(engine, 2)
        granted = []
        assert slots.acquire_or_queue(granted.append, "a") is True
        assert slots.acquire_or_queue(granted.append, "b") is True
        waiter = slots.acquire()
        assert not waiter.triggered and slots.queue_depth == 1
        assert slots.acquire_or_queue(granted.append, "c") is False
        assert slots.queue_depth == 2
        slots.release()  # the slot goes to the queued acquirer
        assert waiter.triggered and slots.in_use == 2
        slots.release()  # then to the queued callback, through the heap
        engine.run()
        assert granted == ["c"]
        assert slots.in_use == 2 and slots.queue_depth == 0
        # A queued acquirer with a slot free: still queued behind it.
        slots.release()
        slots._waiters.append(SimEvent(engine))
        assert slots.in_use == 1
        assert slots.acquire_or_queue(granted.append, "d") is False
        assert slots.in_use == 1 and slots.queue_depth == 2


_DATA_TYPES = [t for t in DescriptorType if t.is_data]
_CONTROL_TYPES = [t for t in DescriptorType if t.is_control]


class TestTransferBytes:
    """A descriptor is sized once, at construction."""

    @pytest.mark.parametrize("dtype", _DATA_TYPES, ids=lambda t: t.name)
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_data_descriptor_moves_rows_times_width(self, dtype, width):
        for rows in (1, 7, 256, 0xFFFF):
            descriptor = Descriptor(dtype=dtype, rows=rows, col_width=width)
            assert descriptor.transfer_bytes == rows * width
            resized = descriptor.with_updates(rows=rows // 2 + 1)
            assert resized.transfer_bytes == (rows // 2 + 1) * width
            widened = descriptor.with_updates(col_width=1)
            assert widened.transfer_bytes == rows

    @pytest.mark.parametrize("dtype", _CONTROL_TYPES, ids=lambda t: t.name)
    def test_control_descriptor_moves_nothing(self, dtype):
        extra = {"loop_back": 1} if dtype is DescriptorType.LOOP else {}
        descriptor = Descriptor(dtype=dtype, rows=9, col_width=8, **extra)
        assert descriptor.transfer_bytes == 0
        assert descriptor.with_updates(rows=100).transfer_bytes == 0

    @given(
        dtype=st.sampled_from([DescriptorType.DDR_TO_DMEM,
                               DescriptorType.DMEM_TO_DDR]),
        rows=st.integers(1, 0xFFFF),
        width=st.sampled_from([1, 2, 4, 8]),
        ddr=st.integers(0, (1 << 36) - 1),
        dmem=st.integers(0, 0xFFFF),
    )
    @settings(max_examples=100, deadline=None)
    def test_size_survives_table2_roundtrip(self, dtype, rows, width, ddr,
                                            dmem):
        descriptor = Descriptor(dtype=dtype, rows=rows, col_width=width,
                                ddr_addr=ddr, dmem_addr=dmem)
        decoded = Descriptor.decode(descriptor.encode())
        assert decoded == descriptor
        assert decoded.transfer_bytes == descriptor.transfer_bytes == rows * width

    def test_size_is_derived_not_settable(self):
        descriptor = ddr_to_dmem(4, 4, 0, 0)
        with pytest.raises(TypeError):
            Descriptor(dtype=DescriptorType.DDR_TO_DMEM, rows=4,
                       transfer_bytes=16)
        with pytest.raises(ValueError):
            descriptor.with_updates(transfer_bytes=99)
        assert "transfer_bytes" not in repr(descriptor)


class TestBoundaryErrors:
    """Field ranges at their edges: the last legal value passes, the
    first illegal one raises the same text as the original checks."""

    @pytest.mark.parametrize("rows, message", [
        (0, "data descriptor needs rows > 0: 0"),
        (0xFFFF, None),
        (0x10000, "rows field is 16 bits: 65536"),
    ])
    def test_rows(self, rows, message):
        self._check(message, rows=rows)

    @pytest.mark.parametrize("dmem_addr, message", [
        (0xFFFF, None),
        (0x10000, "DMEM address field is 16 bits: 0x10000"),
    ])
    def test_dmem_addr(self, dmem_addr, message):
        self._check(message, dmem_addr=dmem_addr)

    @pytest.mark.parametrize("ddr_addr, message", [
        ((1 << 36) - 1, None),
        (1 << 36, "DDR address field is 36 bits: 0x1000000000"),
    ])
    def test_ddr_addr(self, ddr_addr, message):
        self._check(message, ddr_addr=ddr_addr)

    def test_width(self):
        self._check("column width must be 1/2/4/8 bytes: 3", col_width=3)

    @pytest.mark.parametrize("field", ["wait_event", "notify_event"])
    def test_event_fields(self, field):
        self._check(None, **{field: 30})
        self._check("event id must be 0..30: 31", **{field: 31})

    @pytest.mark.parametrize("field",
                             ["set_events", "clear_events", "wait_events"])
    def test_event_lists(self, field):
        Descriptor(dtype=DescriptorType.EVENT, **{field: (0, 30)})
        with pytest.raises(DescriptorError) as caught:
            Descriptor(dtype=DescriptorType.EVENT, **{field: (0, 31)})
        assert str(caught.value) == "event id must be 0..30: 31"

    def test_gather_on_dms_to_dmem(self):
        with pytest.raises(DescriptorError) as caught:
            Descriptor(dtype=DescriptorType.DMS_TO_DMEM, rows=1,
                       gather_src=True)
        assert str(caught.value) == "DMS_TO_DMEM does not support gather"

    def test_first_broken_rule_wins(self):
        """Checks run in a fixed order: a capability error before rows,
        rows before width, width before the 16-bit fields."""
        with pytest.raises(DescriptorError) as caught:
            Descriptor(dtype=DescriptorType.DMS_TO_DMEM, rows=0x10000,
                       col_width=3, gather_src=True)
        assert str(caught.value) == "DMS_TO_DMEM does not support gather"
        with pytest.raises(DescriptorError) as caught:
            ddr_to_dmem(0, 3, 1 << 36, 0x10000)
        assert str(caught.value) == "data descriptor needs rows > 0: 0"
        with pytest.raises(DescriptorError) as caught:
            ddr_to_dmem(0x10000, 3, 1 << 36, 0x10000)
        assert str(caught.value) == "column width must be 1/2/4/8 bytes: 3"
        with pytest.raises(DescriptorError) as caught:
            ddr_to_dmem(0x10000, 4, 1 << 36, 0x10000, notify_event=31)
        assert str(caught.value) == "rows field is 16 bits: 65536"

    @staticmethod
    def _check(message, **fields):
        kwargs = {"rows": 1, "col_width": 4, "ddr_addr": 0, "dmem_addr": 0}
        kwargs.update(fields)
        if message is None:
            ddr_to_dmem(**kwargs)
            return
        with pytest.raises(DescriptorError) as caught:
            ddr_to_dmem(**kwargs)
        assert str(caught.value) == message


class TestPartitionSpec:
    def test_hash_fanout(self):
        assert PartitionSpec(mode=PartitionMode.HASH, radix_bits=5).fanout == 32

    def test_range_bounds_must_ascend(self):
        with pytest.raises(DescriptorError):
            PartitionSpec(mode=PartitionMode.RANGE, bounds=(5, 3))

    def test_range_bounds_limit_32(self):
        PartitionSpec(mode=PartitionMode.RANGE, bounds=tuple(range(32)))
        with pytest.raises(DescriptorError):
            PartitionSpec(mode=PartitionMode.RANGE, bounds=tuple(range(33)))

    def test_radix_bits_bounds(self):
        with pytest.raises(DescriptorError):
            PartitionSpec(mode=PartitionMode.RADIX, radix_bits=0)

    def test_dmem_to_ddr_constructor(self):
        descriptor = dmem_to_ddr(8, 8, 0x100, 0x40, notify_event=2)
        assert descriptor.dtype is DescriptorType.DMEM_TO_DDR
        assert descriptor.transfer_bytes == 64
