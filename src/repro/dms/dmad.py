"""DMAD: the per-dpCore descriptor list manager.

Each dpCore has a private DMAD unit (paper §3.1). Software builds a
descriptor in DMEM and issues a ``push`` naming one of two channels
(conventionally segregating reads and writes); the DMAD chains pushed
descriptors into an active list per channel and walks it without any
further dpCore involvement:

* **data descriptors** are dispatched to the DMAC (at most
  ``dms_max_outstanding`` in flight), honouring wait events and the
  buffer flow-control rule — a descriptor whose notify event is still
  *set* (its previous buffer not yet consumed) blocks until software
  clears it, which is how "back pressure" reaches the DDR stream;
* **loop descriptors** rewind the list a fixed number of iterations,
  with source/destination auto-increment registers so a two-buffer
  chain can stream megabytes (Listing 1 / Figure 7);
* **event descriptors** set/clear/wait events locally;
* **config descriptors** program the DMAC's hash/range engine.

**Resilience.** Descriptors live in DMEM and cross an SRAM/bus path
the real hardware guards with its CRC32 units. When the fault plan
enables the ``dms.descriptor`` site, each data descriptor is
CRC-validated at dispatch: a corrupted fetch is detected (a single
bit flip always perturbs CRC32) and the DMAD re-fetches and replays
the descriptor, up to ``config.dms_crc_retries`` times, before
failing the transfer with :class:`~repro.dms.dmac.DmsHardwareError`.
The data path runs only on a clean fetch, so results stay byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import DPUConfig
from ..core.crc32 import crc32_bytes
from ..faults import FaultInjector
from ..obs import NULL_TRACER
from ..sim import Engine, Resource, StatsRecorder, Store, Timeout
from .descriptor import Descriptor, DescriptorError, DescriptorType
from .dmac import Dmac, DmsHardwareError
from .events import EventFile

__all__ = ["Dmad", "DmadChannel"]


@dataclass
class DmadChannel:
    """One active list: a growing program plus a program counter."""

    index: int
    # Woken by every push; the walker blocks on it when drained.
    wakeup: Store
    program: List[Descriptor] = field(default_factory=list)
    pc: int = 0
    loop_remaining: Dict[int, int] = field(default_factory=dict)
    ddr_auto: Optional[int] = None
    dmem_auto: Optional[int] = None


class Dmad:
    """Descriptor front-end for one dpCore."""

    NUM_CHANNELS = 2

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        dmac: Dmac,
        event_file: EventFile,
        config: DPUConfig,
        stats: Optional[StatsRecorder] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.dmac = dmac
        self.event_file = event_file
        self.config = config
        self.stats = stats if stats is not None else StatsRecorder()
        self.faults = faults if faults is not None else FaultInjector()
        # Observability hook; DPU.enable_tracing swaps in a live tracer.
        self.trace = NULL_TRACER
        self._unit = f"dmad{core_id}"
        self._desc_name = f"dmad{core_id}.desc"
        # The injector's plan is frozen; whether descriptor CRC checks
        # run is fixed for the DMAD's lifetime.
        self._crc_faulty = self.faults.active("dms.descriptor")
        # A channel's active list and walker are built at its first
        # push (most kernels use channel 0 only); None until then.
        self.channels: List[Optional[DmadChannel]] = [None] * self.NUM_CHANNELS
        self.outstanding = Resource(engine, config.dms_max_outstanding)
        self._drained = engine.event()
        self._inflight = 0
        # Credit-based backpressure: cycles of stall the issuing dpCore
        # owes for pushes beyond the channel ring's occupancy limit.
        # The core's next compute/wfe boundary drains this debt, the
        # same mechanism ATE interrupts use (see CoreContext.compute).
        self.push_stall_debt = 0.0
        # Completion of the most recent in-flight descriptor notifying
        # each event (the buffer-refill flow-control chain).
        self._notify_tail: Dict[int, object] = {}
        # Where the channel walkers would have started had they been
        # built with the DMAD (see Engine.start_daemon).
        self._mark = engine.mark()

    # -- software interface ----------------------------------------------

    def push(self, descriptor: Descriptor, channel: int = 0) -> None:
        """The dpCore ``push`` instruction: append to an active list.

        The active list lives in a fixed DMEM ring
        (``config.dmad_queue_depth`` slots). A push beyond the ring's
        occupancy charges the issuing core stall cycles — the hardware
        holds the push until the DMAD retires an entry — accumulated
        as ``push_stall_debt`` and paid at the core's next
        compute/wfe boundary."""
        if not 0 <= channel < self.NUM_CHANNELS:
            raise DescriptorError(f"DMS channel must be 0 or 1: {channel}")
        chan = self.channels[channel]
        if chan is None:
            chan = self._open_channel(channel)
        elif chan.program and chan.pc >= len(chan.program) and not chan.loop_remaining:
            # The ring is fully drained: retired slots are reusable, so
            # recycle them (keeps the modelled list bounded; safe only
            # with no pending LOOP, which could rewind over them).
            chan.program.clear()
            chan.pc = 0
        chan.program.append(descriptor)
        pending = len(chan.program) - chan.pc
        self.stats.peak("dmad.occupancy_peak", pending)
        depth = self.config.dmad_queue_depth
        if depth and pending > depth:
            # The push blocks until the DMAD retires one entry and a
            # ring slot frees: one descriptor-retire time of stall.
            # (The walker drains concurrently, so a burst of N pushes
            # into a full ring costs ~(N - depth) retire times total,
            # not a quadratic pile-up.)
            stall = self.config.dms_descriptor_setup_cycles
            self.push_stall_debt += stall
            self.stats.count("dmad.push_stall_cycles", stall)
            self.stats.count("dmad.push_stalls", 1)
            if self.trace.enabled:
                self.trace.instant("dmad.push_stall", unit=self._unit,
                                   pending=pending, stall_cycles=stall)
        if self.trace.enabled:
            self.trace.instant("dmad.push", unit=self._unit,
                               dtype=descriptor.dtype.name, channel=channel)
            self.trace.counter(f"{self._unit}.ring", unit=self._unit,
                               occupancy=pending)
        chan.wakeup.put(object())

    def occupancy(self, channel: int = 0) -> int:
        """Entries in the channel ring not yet walked past."""
        chan = self.channels[channel]
        return 0 if chan is None else len(chan.program) - chan.pc

    def idle(self) -> bool:
        """True when all channels have drained and nothing is in flight."""
        return self._inflight == 0 and all(
            channel is None or channel.pc >= len(channel.program)
            for channel in self.channels
        )

    # -- channel engine ------------------------------------------------------

    def _open_channel(self, index: int) -> DmadChannel:
        """Build a channel and start its walker at its first push,
        before the push wakes it (see ``Engine.start_daemon``)."""
        channel = self.channels[index] = DmadChannel(index, Store(self.engine))
        self.engine.start_daemon(
            self._channel_loop(channel), f"dmad{self.core_id}.ch{index}",
            self._mark, index / self.NUM_CHANNELS,
        )
        return channel

    def _channel_loop(self, channel: DmadChannel):
        wakeup = channel.wakeup
        engine = self.engine
        event_file = self.event_file
        dmac = self.dmac
        outstanding = self.outstanding
        notify_tail = self._notify_tail
        setup_cycles = self.config.dms_descriptor_setup_cycles
        loop_type = DescriptorType.LOOP
        event_type = DescriptorType.EVENT
        hash_config = DescriptorType.HASH_CONFIG
        range_config = DescriptorType.RANGE_CONFIG
        while True:
            while channel.pc >= len(channel.program):
                yield wakeup.get()
            descriptor = channel.program[channel.pc]
            dtype = descriptor.dtype
            if dtype is loop_type:
                self._handle_loop(channel, descriptor)
                continue
            if dtype is event_type:
                yield from self._handle_event(descriptor)
                channel.pc += 1
                continue
            if dtype is hash_config or dtype is range_config:
                dmac.configure_partition(descriptor)
                channel.pc += 1
                continue
            # -- data descriptor ------------------------------------------
            if descriptor.wait_event is not None:
                yield event_file.wait(descriptor.wait_event)
            notify_event = descriptor.notify_event
            if notify_event is not None:
                # Flow control: do not refill a buffer whose previous
                # fill has not completed and been consumed (event must
                # have been set by the prior notifier, then cleared).
                tail = notify_tail.get(notify_event)
                if tail is not None and tail.callbacks is not None:
                    yield tail
                yield event_file.event(notify_event).wait_clear()
            yield Timeout(engine, setup_cycles)
            effective = self._resolve_addresses(channel, descriptor)
            prep = dmac.prepare(effective, self.core_id)
            yield outstanding.acquire()
            self._inflight += 1
            runner = engine.process(
                self._run_descriptor(effective, prep),
                name=self._desc_name,
            )
            if notify_event is not None:
                notify_tail[notify_event] = runner
            channel.pc += 1

    def _run_descriptor(self, descriptor: Descriptor, prep):
        began = self.engine.now
        try:
            if self._crc_faulty:
                yield from self._validate_descriptor(descriptor)
            yield from self.dmac.execute(descriptor, self.core_id, prep)
        finally:
            self.outstanding.release()
            self._inflight -= 1
            if self.trace.enabled:
                self.trace.complete_async(
                    "dmad.descriptor", self._unit, began,
                    dtype=descriptor.dtype.name,
                )
                self.trace.counter(f"{self._unit}.ring", unit=self._unit,
                                   occupancy=max(
                                       self.occupancy(c)
                                       for c in range(self.NUM_CHANNELS)
                                   ))
        if descriptor.notify_event is not None:
            self.event_file.set(descriptor.notify_event)
        self.stats.count("dmad.completed", 1)

    def _validate_descriptor(self, descriptor: Descriptor):
        """CRC-check the descriptor fetch; replay corrupted fetches.

        A hit at the ``dms.descriptor`` site corrupts one fetch. For
        Table-2-encodable descriptors the detection is modelled for
        real: a bit of the 16-byte image is flipped and the CRC32
        mismatch asserted. Each replay charges another descriptor
        setup plus a CRC SRAM lookup; after ``dms_crc_retries``
        consecutive corrupted fetches the transfer fails.
        """
        label = f"core {self.core_id} {descriptor.dtype.name}"
        replays = 0
        while self.faults.roll("dms.descriptor", detail=label):
            try:
                image = descriptor.encode()
            except DescriptorError:
                image = None
            if image is not None:
                bit = int(self.faults.choose("dms.descriptor", len(image) * 8, 1)[0])
                corrupted = bytearray(image)
                corrupted[bit // 8] ^= 1 << (bit % 8)
                assert crc32_bytes(bytes(corrupted)) != crc32_bytes(image)
            replays += 1
            self.stats.count("dmad.crc_replays", 1)
            if replays > self.config.dms_crc_retries:
                raise DmsHardwareError(
                    f"descriptor CRC mismatch persisted through "
                    f"{self.config.dms_crc_retries} replays ({label}); "
                    f"failing the completion event",
                    site=f"dmad[{self.core_id}].crc",
                    sim_time=self.engine.now,
                    retry_count=replays,
                    occupancy={
                        "inflight": self._inflight,
                        "channel_pending": [
                            self.occupancy(c) for c in range(self.NUM_CHANNELS)
                        ],
                    },
                )
            yield self.engine.timeout(
                self.config.dms_descriptor_setup_cycles
                + self.config.dms_crc_check_cycles
            )

    def _handle_loop(self, channel: DmadChannel, descriptor: Descriptor) -> None:
        position = channel.pc
        if descriptor.loop_back > position:
            raise DescriptorError(
                f"loop jumps back {descriptor.loop_back} over only "
                f"{position} descriptors"
            )
        remaining = channel.loop_remaining.get(position)
        if remaining is None:
            remaining = descriptor.loop_count
        if remaining > 0:
            channel.loop_remaining[position] = remaining - 1
            channel.pc = position - descriptor.loop_back
        else:
            channel.loop_remaining.pop(position, None)
            channel.pc = position + 1

    def _handle_event(self, descriptor: Descriptor):
        for event_id in descriptor.wait_events:
            yield self.event_file.wait(event_id)
        for event_id in descriptor.set_events:
            self.event_file.set(event_id)
        for event_id in descriptor.clear_events:
            self.event_file.clear(event_id)

    def _resolve_addresses(
        self, channel: DmadChannel, descriptor: Descriptor
    ) -> Descriptor:
        """Apply the channel's auto-increment registers (Listing 1).

        The "source"/"destination" increment flags map onto the DDR or
        DMEM side according to the descriptor's direction; after each
        transfer the register advances by the payload size so loop
        iterations walk forward through memory.
        """
        dtype = descriptor.dtype
        ddr_is_source = dtype in (
            DescriptorType.DDR_TO_DMEM,
            DescriptorType.DDR_TO_DMS,
        )
        ddr_flag = (
            descriptor.src_addr_inc if ddr_is_source else descriptor.dst_addr_inc
        )
        dmem_flag = (
            descriptor.dst_addr_inc if ddr_is_source else descriptor.src_addr_inc
        )
        changes = {}
        nbytes = descriptor.transfer_bytes
        if ddr_flag:
            if channel.ddr_auto is None:
                channel.ddr_auto = descriptor.ddr_addr
            changes["ddr_addr"] = channel.ddr_auto
            channel.ddr_auto += nbytes
        if dmem_flag:
            if channel.dmem_auto is None:
                channel.dmem_auto = descriptor.dmem_addr
            changes["dmem_addr"] = channel.dmem_auto
            channel.dmem_auto += nbytes
        if not changes:
            return descriptor
        return descriptor.with_updates(**changes)
