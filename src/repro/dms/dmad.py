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

**No processes.** A channel's walker is a callback state machine, not
a service process: it runs from heap callbacks until a wait blocks it
(it then registers its continuation on the awaited event) or the list
drains (it then *parks*: nothing references it, and the next push
queues its wake on the heap). Each dispatched data descriptor is a
:class:`DescriptorRun`, a ``SimEvent`` whose stages the DMAC schedules
as heap callbacks at the keys the transfers' timeouts would take, so
flow-control tails can still wait on it and deadlock reports still
name a stuck one ``dmad<core>.desc``. A finished run lets go of every
unit, so a DPU nobody references is freed by reference counting.

**Plain descriptors.** A data descriptor with neither a wait nor a
notify event has nothing to check before its setup delay, so the
walker pushes the setup step itself, at the key ``_admit`` would use;
the step takes a free outstanding slot in place, under
``Resource.acquire_or_queue``'s rule (never ahead of a queued walker),
and dispatches the run. Only a walker that found no free slot holds
its descriptor in ``DmadChannel.held`` until a slot is granted.

**Same-instant hand-offs.** A walker waiting for an outstanding slot
queues a plain ``(callback, channel)`` on the slot resource, not an
event. Two hand-offs at the current instant skip the heap when
:meth:`~repro.sim.Engine.runs_next` proves they are the next entry
anyway: a run's start, after the setup delay or a slot grant, runs at
the end of the walker callback that issued it, and the grant a
retiring descriptor hands to a waiting walker runs at the end of
:meth:`DescriptorRun.done`.

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

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

from ..core.config import DPUConfig
from ..core.crc32 import crc32_bytes
from ..faults import FaultInjector
from ..obs import NULL_TRACER, CounterRegistry
from ..sim import Engine, Resource, SimEvent
from .descriptor import Descriptor, DescriptorError, DescriptorType
from .dmac import Dmac, DmsHardwareError
from .events import EventFile

__all__ = ["DescriptorRun", "Dmad", "DmadChannel"]

_LOOP = DescriptorType.LOOP
_EVENT = DescriptorType.EVENT
_HASH_CONFIG = DescriptorType.HASH_CONFIG
_RANGE_CONFIG = DescriptorType.RANGE_CONFIG
_DDR_TO_DMEM = DescriptorType.DDR_TO_DMEM
_DMEM_TO_DDR = DescriptorType.DMEM_TO_DDR
# What Dmac.prepare returns for a DDR <-> DMEM descriptor, which joins
# no partition chunk and loads no bit-vector register.
_NO_PREP = (None, None, None)

_heappush = heapq.heappush

# Where a blocked walker resumes (``DmadChannel.stage``). A data
# descriptor passes its wait event, its notify tail and its notify
# event's clear in that order, then the setup delay; a walker waiting
# for an outstanding slot resumes in ``Dmad._issue`` instead.
_WAIT = 0
_TAIL = 1
_CLEAR = 2
_SETUP = 3
_EVENT_WAITS = 4  # an EVENT descriptor's waits, from ``DmadChannel.held``


@dataclass
class DmadChannel:
    """One active list: a growing program, a program counter and the
    state of the walker that walks it."""

    index: int
    program: List[Descriptor] = field(default_factory=list)
    pc: int = 0
    loop_remaining: Dict[int, int] = field(default_factory=dict)
    ddr_auto: Optional[int] = None
    dmem_auto: Optional[int] = None
    # True once the walker has drained the list: the next push wakes
    # it. A push to a walker that is running or blocked does nothing.
    parked: bool = False
    # Where a blocked walker resumes, and what it carries there: the
    # (descriptor, prep) awaiting a slot, or an EVENT descriptor's
    # next wait index.
    stage: int = _WAIT
    held: Any = None


class Dmad:
    """Descriptor front-end for one dpCore."""

    NUM_CHANNELS = 2

    # The owning DPU's counter store, handed over when it wires its units.
    counters: CounterRegistry

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        dmac: Dmac,
        event_file: EventFile,
        config: DPUConfig,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.dmac = dmac
        self.event_file = event_file
        self.config = config
        self.faults = faults if faults is not None else FaultInjector()
        # Observability hook; DPU.enable_tracing swaps in a live tracer.
        self.trace = NULL_TRACER
        self._unit = f"dmad{core_id}"
        self._desc_name = f"dmad{core_id}.desc"
        # The injector's plan is frozen; whether descriptor CRC checks
        # run is fixed for the DMAD's lifetime.
        self._crc_faulty = self.faults.active("dms.descriptor")
        self._setup_cycles = config.dms_descriptor_setup_cycles
        # A channel's active list is built at its first push (most
        # kernels use channel 0 only); None until then.
        self.channels: List[Optional[DmadChannel]] = [None] * self.NUM_CHANNELS
        self.outstanding = Resource(engine, config.dms_max_outstanding)
        self._inflight = 0
        # Credit-based backpressure: cycles of stall the issuing dpCore
        # owes for pushes beyond the channel ring's occupancy limit.
        # The core's next compute/wfe boundary drains this debt, the
        # same mechanism ATE interrupts use (see CoreContext.compute).
        self.push_stall_debt = 0.0
        # Completion of the most recent in-flight descriptor notifying
        # each event (the buffer-refill flow-control chain).
        self._notify_tail: Dict[int, DescriptorRun] = {}
        # The heap key a walker started with the DMAD would have taken
        # (see Engine.mark).
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
        program = chan.program
        pending = len(program) - chan.pc
        if program and pending <= 0 and not chan.loop_remaining:
            # The ring is fully drained: retired slots are reusable, so
            # recycle them (keeps the modelled list bounded; safe only
            # with no pending LOOP, which could rewind over them).
            program.clear()
            chan.pc = pending = 0
        program.append(descriptor)
        pending += 1
        # CounterRegistry.peak, in place.
        values = self.counters.values
        peak = values.get("dmad.occupancy_peak")
        if peak is None or pending > peak:
            values["dmad.occupancy_peak"] = float(pending)
        depth = self.config.dmad_queue_depth
        if depth and pending > depth:
            # The push blocks until the DMAD retires one entry and a
            # ring slot frees: one descriptor-retire time of stall.
            # (The walker drains concurrently, so a burst of N pushes
            # into a full ring costs ~(N - depth) retire times total,
            # not a quadratic pile-up.)
            stall = self.config.dms_descriptor_setup_cycles
            self.push_stall_debt += stall
            counters = self.counters
            counters.add("dmad.push_stall_cycles", stall)
            counters.add("dmad.push_stalls")
            if self.trace.enabled:
                self.trace.instant("dmad.push_stall", unit=self._unit,
                                   pending=pending, stall_cycles=stall)
        if self.trace.enabled:
            self.trace.instant("dmad.push", unit=self._unit,
                               dtype=descriptor.dtype.name, channel=channel)
            self.trace.counter(f"{self._unit}.ring", unit=self._unit,
                               occupancy=pending)
        if chan.parked:
            chan.parked = False
            self.engine._schedule(0, self._walk, chan)

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

    # -- channel walker ------------------------------------------------------

    def _open_channel(self, index: int) -> DmadChannel:
        """Build a channel at its first push, with its walker where one
        started with the DMAD would be: if the engine has not run since
        the DMAD was built, its first walk is queued at the DMAD's
        reserved heap key (channels ranked by index); otherwise it has
        long since drained the empty list and is parked."""
        channel = self.channels[index] = DmadChannel(index)
        engine = self.engine
        when, seq, runs = self._mark
        if engine.now == when and engine._runs == runs:
            heapq.heappush(engine._queue, (
                when, seq + index / self.NUM_CHANNELS, self._walk, channel))
        else:
            channel.parked = True
        return channel

    def _walk(self, chan: DmadChannel) -> None:
        """Walk ``chan`` from its pc until a wait blocks it or it drains."""
        program = chan.program
        while chan.pc < len(program):
            descriptor = program[chan.pc]
            dtype = descriptor.dtype
            if dtype is _LOOP:
                self._handle_loop(chan, descriptor)
            elif dtype is _EVENT:
                if not self._handle_event(chan, descriptor, 0):
                    return
            elif dtype is _HASH_CONFIG or dtype is _RANGE_CONFIG:
                self.dmac.configure_partition(descriptor)
                chan.pc += 1
            elif (descriptor.wait_event is None
                  and descriptor.notify_event is None):
                # Nothing to wait for: the setup delay starts now, at
                # the key ``_admit`` would push it at.
                engine = self.engine
                _heappush(engine._queue, (
                    engine.now + self._setup_cycles, engine._next_seq(),
                    self._setup_done, chan))
                return
            else:
                self._admit(chan, descriptor, _WAIT)
                return
        chan.parked = True

    def _block(self, chan: DmadChannel, event: SimEvent, stage: int) -> None:
        """Park the walker on a pending ``event``; it resumes at ``stage``."""
        chan.stage = stage
        event.callbacks.append(partial(self._wake, chan))

    def _wake(self, chan: DmadChannel, event: SimEvent) -> None:
        if event.exception is not None:
            # The notify tail it waited on failed: the walker stops.
            raise event.exception
        if chan.stage == _EVENT_WAITS:
            if self._handle_event(chan, chan.program[chan.pc], chan.held):
                self._walk(chan)
        else:
            self._admit(chan, chan.program[chan.pc], chan.stage)

    def _admit(self, chan: DmadChannel, descriptor: Descriptor,
               stage: int) -> None:
        """Take a data descriptor from ``stage`` to its setup delay."""
        if stage == _WAIT and descriptor.wait_event is not None:
            flag = self.event_file.event(descriptor.wait_event)
            if not flag.is_set:
                self._block(chan, flag.wait(), _TAIL)
                return
        notify_event = descriptor.notify_event
        if notify_event is not None and stage <= _CLEAR:
            # Flow control: do not refill a buffer whose previous fill
            # has not completed and been consumed (event must have been
            # set by the prior notifier, then cleared).
            if stage <= _TAIL:
                tail = self._notify_tail.get(notify_event)
                if tail is not None and tail.callbacks is not None:
                    self._block(chan, tail, _CLEAR)
                    return
            flag = self.event_file.event(notify_event)
            if flag.is_set:
                self._block(chan, flag.wait_clear(), _SETUP)
                return
        engine = self.engine
        _heappush(engine._queue, (engine.now + self._setup_cycles,
                                  engine._next_seq(), self._setup_done, chan))

    def _setup_done(self, chan: DmadChannel) -> None:
        """The setup delay is over: dispatch the descriptor if an
        outstanding slot is free, else hold it and queue for one.

        The slot is taken in place under ``acquire_or_queue``'s rule:
        free only with no walker queued ahead."""
        descriptor = chan.program[chan.pc]
        if descriptor.src_addr_inc or descriptor.dst_addr_inc:
            descriptor = self._resolve_addresses(chan, descriptor)
        dtype = descriptor.dtype
        if dtype is _DDR_TO_DMEM or dtype is _DMEM_TO_DDR:
            prep = _NO_PREP
        else:
            prep = self.dmac.prepare(descriptor, self.core_id)
        outstanding = self.outstanding
        if outstanding.in_use < outstanding.capacity and not outstanding._waiters:
            outstanding.in_use += 1
            self._dispatch(chan, descriptor, prep)
        else:
            chan.held = (descriptor, prep)
            outstanding._enqueue((self._issue, chan))

    def _issue(self, chan: DmadChannel) -> None:
        """A retiring descriptor handed ``chan``'s walker its
        outstanding slot: dispatch the descriptor it holds."""
        descriptor, prep = chan.held
        chan.held = None
        self._dispatch(chan, descriptor, prep)

    def _dispatch(self, chan: DmadChannel, descriptor: Descriptor,
                  prep) -> None:
        """Dispatch ``descriptor``, which holds an outstanding slot, as
        a run starting now, and walk on.

        The run's start goes on the heap, unless it is the next entry
        anyway (``Engine.runs_next``): then it runs here, after the
        walk."""
        self._inflight += 1
        run = DescriptorRun(self, descriptor, prep)
        if descriptor.notify_event is not None:
            self._notify_tail[descriptor.notify_event] = run
        chan.pc += 1
        if self._crc_faulty:
            start, argument = run._resume, None
        else:
            start = self.dmac.first_stage[descriptor.dtype._value_]
            argument = run
        engine = self.engine
        if not engine.runs_next():
            _heappush(engine._queue, (engine.now, engine._next_seq(), start,
                                      argument))
            start = None
        self._walk(chan)
        if start is not None:
            start(argument)

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

    def _handle_event(self, chan: DmadChannel, descriptor: Descriptor,
                      start: int) -> bool:
        """Wait on an EVENT descriptor's events from index ``start``,
        then set and clear its events. False if a wait blocked."""
        waits = descriptor.wait_events
        for index in range(start, len(waits)):
            flag = self.event_file.event(waits[index])
            if not flag.is_set:
                chan.held = index + 1
                self._block(chan, flag.wait(), _EVENT_WAITS)
                return False
        for event_id in descriptor.set_events:
            self.event_file.set(event_id)
        for event_id in descriptor.clear_events:
            self.event_file.clear(event_id)
        chan.pc += 1
        return True

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


class DescriptorRun(SimEvent):
    """One dispatched data descriptor: its CRC-checked fetch and the
    DMAC's execution of it, as a chain of heap callbacks.

    The event triggers when the descriptor retires (after its notify
    event is set), or fails with the error that stopped it. A stage is
    a callable taking the run; it ends by scheduling the next one with
    :meth:`at` (the completion time of a transfer it booked),
    :meth:`after` (a fixed delay) or :meth:`wait` (an event), or by
    calling :meth:`done`. :meth:`at` and :meth:`after` push the next
    stage straight onto the heap at exactly the key a ``Timeout`` for
    that delay would take, so a run interleaves with processes as a
    process waiting on those timeouts would. Those stages run under
    :meth:`_resume`, which fails the run on an error. The DMAC's first
    stages and its DDR <-> DMEM stages instead take the run as the heap
    argument and fail it themselves (see ``Dmac.first_stage``).

    The DMAD issues a run and starts it (:meth:`Dmad._dispatch`); the
    DMAC starts executing at once, unless the fault plan checks
    descriptor CRCs, when :meth:`_fetch` runs first.

    Like a process, a run registers with the engine under
    ``dmad<core>.desc`` and keeps ``_waiting_on``, so deadlock reports
    name a stuck one, and it emits the ``proc.dmad<core>.desc`` trace
    span. Once finished it holds no unit.
    """

    __slots__ = (
        "name", "_waiting_on", "dmad", "dmac", "descriptor", "core", "prep",
        "dmem", "data", "rows", "spec", "gather_began", "gathering",
        "_stage", "_began", "_exec_began", "_exec_trace", "_replays",
    )

    daemon = False

    def __init__(self, dmad: Dmad, descriptor: Descriptor, prep) -> None:
        engine = dmad.engine
        self.engine = engine
        self.callbacks = []
        self.value = None
        self.exception = None
        self.name = dmad._desc_name
        self._waiting_on: Optional[SimEvent] = None
        self.dmad = dmad
        self.dmac = dmad.dmac
        self.descriptor = descriptor
        self.core = dmad.core_id
        self.prep = prep
        # Per-kind working state of the DMAC's stages.
        self.dmem = self.data = self.rows = self.spec = None
        self.gather_began = 0.0
        self.gathering = False
        now = self._began = engine.now
        if dmad._crc_faulty:
            self._stage = DescriptorRun._fetch
            self._exec_trace = None
        else:
            # The DMAC starts executing now, in the run's first stage.
            self._stage = None
            self._exec_trace = dmad.dmac.trace
            self._exec_began = now
        self._replays = 0
        # Engine._register_process, in place.
        engine._processes.append(self)
        engine._process_room -= 1
        if not engine._process_room:
            engine._prune_processes()
        if engine.tracer is not None:
            engine.tracer.process_started(self)

    # -- scheduling the next stage ----------------------------------------

    def after(self, delay: float, stage) -> None:
        """Run ``stage`` ``delay`` cycles from now."""
        self._stage = stage
        engine = self.engine
        _heappush(engine._queue, (engine.now + delay, engine._next_seq(),
                                  self._resume, None))

    def at(self, finish: float, stage) -> None:
        """Run ``stage`` when a transfer booked to end at ``finish``
        completes, at the key ``Timeout(finish - now)`` takes:
        ``now + (finish - now)``, which in floating point need not
        equal ``finish``."""
        self._stage = stage
        engine = self.engine
        now = engine.now
        _heappush(engine._queue, (now + (finish - now), engine._next_seq(),
                                  self._resume, None))

    def wait(self, event: SimEvent, stage) -> None:
        """Run ``stage`` once ``event`` has triggered: at once if it
        already has, else as its callback."""
        callbacks = event.callbacks
        if callbacks is not None:
            self._stage = stage
            self._waiting_on = event
            callbacks.append(self._resume)
            return
        if event.exception is not None:
            self.engine._forget_unobserved_failure(event)
            raise event.exception
        stage(self)

    def _resume(self, event: Optional[SimEvent]) -> None:
        self._waiting_on = None
        try:
            if event is not None and event.exception is not None:
                raise event.exception
            self._stage(self)
        except BaseException as error:
            self._abort(error)

    # -- lifecycle ------------------------------------------------------------

    def _fetch(self) -> None:
        """CRC-check one fetch of the descriptor; replay a corrupted one.

        A hit at the ``dms.descriptor`` site corrupts one fetch. For
        Table-2-encodable descriptors the detection is modelled for
        real: a bit of the 16-byte image is flipped and the CRC32
        mismatch asserted. Each replay charges another descriptor
        setup plus a CRC SRAM lookup; after ``dms_crc_retries``
        consecutive corrupted fetches the transfer fails.
        """
        dmad = self.dmad
        descriptor = self.descriptor
        label = f"core {self.core} {descriptor.dtype.name}"
        if not dmad.faults.roll("dms.descriptor", detail=label):
            dmac = self.dmac
            self._exec_trace = dmac.trace
            self._exec_began = self.engine.now
            dmac.first_stage[descriptor.dtype._value_](self)
            return
        try:
            image = descriptor.encode()
        except DescriptorError:
            image = None
        if image is not None:
            bit = int(dmad.faults.choose("dms.descriptor", len(image) * 8, 1)[0])
            corrupted = bytearray(image)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            assert crc32_bytes(bytes(corrupted)) != crc32_bytes(image)
        self._replays += 1
        dmad.counters.add("dmad.crc_replays")
        config = dmad.config
        if self._replays > config.dms_crc_retries:
            raise DmsHardwareError(
                f"descriptor CRC mismatch persisted through "
                f"{config.dms_crc_retries} replays ({label}); "
                f"failing the completion event",
                site=f"dmad[{self.core}].crc",
                sim_time=self.engine.now,
                retry_count=self._replays,
                occupancy={
                    "inflight": dmad._inflight,
                    "channel_pending": [
                        dmad.occupancy(c) for c in range(dmad.NUM_CHANNELS)
                    ],
                },
            )
        self.after(
            config.dms_descriptor_setup_cycles + config.dms_crc_check_cycles,
            DescriptorRun._fetch,
        )

    def done(self) -> None:
        """The DMAC finished the transfer: retire the descriptor.

        Frees the outstanding slot, sets the notify event, lets go of
        the hardware and triggers the run, in that order. Untraced,
        all of it runs here. The run is marked triggered first, which
        nothing before the end of this method reads, so
        ``Engine.runs_next`` sees a loop waiting on it stop; if the
        slot goes to a waiting walker and the grant is the next entry
        anyway, the grant runs last, in place.
        """
        descriptor = self.descriptor
        dmad = self.dmad
        engine = self.engine
        callbacks = self.callbacks
        self.callbacks = None
        grant = None
        if self._exec_trace.enabled or dmad.trace.enabled:
            self._retire(None)
        else:
            dmad._inflight -= 1
            outstanding = dmad.outstanding
            waiters = outstanding._waiters
            if not waiters:
                outstanding.in_use -= 1
            elif type(waiters[0]) is tuple and engine.runs_next():
                grant = waiters.popleft()
            else:
                outstanding.release()
        if descriptor.notify_event is not None:
            dmad.event_file.set(descriptor.notify_event)
        dmad.counters.values["dmad.completed"] += 1
        self.dmad = self.dmac = self.descriptor = self.prep = None
        self.dmem = self.data = self.rows = self.spec = None
        self._stage = self._exec_trace = None
        if callbacks:
            queue = engine._queue
            now = engine.now
            next_seq = engine._next_seq
            for callback in callbacks:
                _heappush(queue, (now, next_seq(), callback, self))
        if engine.tracer is not None:
            engine.tracer.process_finished(self)
        if grant is not None:
            grant[0](grant[1])

    def _abort(self, error: BaseException) -> None:
        """Release the gather, the slot and the spans, then fail (or
        raise, with nobody waiting) as a failing ``Process`` does.

        A run that has retired only re-raises: the error came from work
        its retirement ran in place (a slot grant to a walker), and
        leaves the loop as it would from that work's own heap entry."""
        if self.callbacks is None:
            raise error
        if self.gathering:
            self.gathering = False
            self.dmac._active_gathers -= 1
        self._retire(error)
        self._drop()
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            raise error
        has_waiters = bool(self.callbacks)
        self.fail(error)
        engine = self.engine
        if engine.tracer is not None:
            engine.tracer.process_finished(self)
        if not has_waiters:
            # Surfacing immediately: no need to re-report at run() end.
            engine._forget_unobserved_failure(self)
            raise error

    def _retire(self, error: Optional[BaseException]) -> None:
        """Close the DMAC's span (if the DMAC started), free the
        outstanding slot and close the descriptor's span."""
        descriptor = self.descriptor
        trace = self._exec_trace
        if trace is not None and trace.enabled:
            outcome = ({"bytes": int(descriptor.transfer_bytes)}
                       if error is None else {"error": type(error).__name__})
            trace.complete_async(
                f"dms.{descriptor.dtype.name.lower()}", "dmac",
                self._exec_began, core=self.core, **outcome)
        dmad = self.dmad
        dmad.outstanding.release()
        dmad._inflight -= 1
        trace = dmad.trace
        if trace.enabled:
            trace.complete_async(
                "dmad.descriptor", dmad._unit, self._began,
                dtype=descriptor.dtype.name,
            )
            trace.counter(f"{dmad._unit}.ring", unit=dmad._unit,
                          occupancy=max(
                              dmad.occupancy(c)
                              for c in range(dmad.NUM_CHANNELS)
                          ))

    def _drop(self) -> None:
        """Let go of the hardware: a finished run keeps no unit alive."""
        self.dmad = self.dmac = self.descriptor = self.prep = None
        self.dmem = self.data = self.rows = self.spec = None
        self._stage = self._exec_trace = None
