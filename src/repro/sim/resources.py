"""Shared-resource primitives layered on the event kernel.

These model the contention points of the DPU SoC:

* :class:`Resource` — an N-slot mutex (DMAC descriptor slots, AXI
  request credits, locks).
* :class:`Store` — an unbounded or bounded FIFO of items (mailboxes,
  DMAD active lists, work queues).
* :class:`BandwidthServer` — a serially-served channel where a transfer
  of ``nbytes`` occupies the channel for ``nbytes / bytes_per_cycle``
  plus a fixed per-transaction overhead; queueing under contention
  falls out naturally. Used for DDR channels, the AXI bus and the
  DMAX/ATE crossbars.
* :class:`BinaryEvent` — a set/clear flag with waiters, matching the
  DMS's 32 per-core binary events and the ``wfe`` instruction.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, Union

from .engine import Engine, SimEvent, SimulationError, Timeout

__all__ = ["Resource", "Store", "BandwidthServer", "BinaryEvent"]


class Resource:
    """A FIFO resource with ``capacity`` slots.

    ``acquire()`` returns an event that succeeds when a slot is free;
    the holder must call ``release()`` exactly once.
    ``acquire_or_queue(callback, argument)`` takes a free slot without
    building that event, or queues a plain callback instead of one.
    Both kinds of waiter share one FIFO.
    """

    __slots__ = ("engine", "capacity", "in_use", "_waiters")

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        # Waiting acquirers: acquire() events and acquire_or_queue()
        # (callback, argument) pairs, oldest first. A resource nobody
        # has waited for holds the empty tuple, not a deque (_enqueue).
        self._waiters: Union[Deque[Union[SimEvent, tuple]], tuple] = ()

    def _enqueue(self, waiter: Union[SimEvent, tuple]) -> None:
        """Queue ``waiter`` last, building the FIFO for the first one."""
        if type(self._waiters) is tuple:
            self._waiters = deque()
        self._waiters.append(waiter)

    @property
    def queue_depth(self) -> int:
        """Acquirers currently waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> SimEvent:
        event = SimEvent(self.engine)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._enqueue(event)
        return event

    def acquire_or_queue(self, callback: Callable[[Any], None],
                         argument: Any) -> bool:
        """Take a free slot at once (True), or queue ``callback(argument)``
        for the slot a later ``release`` hands over (False).

        A slot counts as free only with nobody queued ahead, so a caller
        never jumps the FIFO. The holder must ``release()`` as after
        ``acquire()``. The release schedules a queued callback at the
        heap key the callback of an ``acquire()`` event's waiter would
        take, the current instant and the next sequence number, without
        building the event; the callback then holds the slot.
        """
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            return True
        self._enqueue((callback, argument))
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        waiters = self._waiters
        if not waiters:
            self.in_use -= 1
            return
        waiter = waiters.popleft()
        if type(waiter) is tuple:
            engine = self.engine
            callback, argument = waiter
            heapq.heappush(engine._queue, (engine.now, engine._next_seq(),
                                           callback, argument))
        else:
            waiter.succeed()

    def held(self) -> Generator:
        """Process helper: ``yield from resource.held()`` is acquire;
        the caller must still release. Provided for symmetry/clarity."""
        yield self.acquire()


class Store:
    """A FIFO of items with blocking ``get`` and optional capacity.

    ``put`` returns an event succeeding once the item is accepted
    (immediately unless the store is full); ``get`` returns an event
    succeeding with the oldest item.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple] = deque()
        # Occupancy telemetry (O(1), never schedules events): the
        # high-water mark of queued items and how many puts blocked on
        # a full store — the signals overload diagnosis needs.
        self.peak_occupancy = 0
        self.blocked_puts = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def blocked_putters(self) -> int:
        """Producers currently stalled on a full store."""
        return len(self._putters)

    def put(self, item: Any) -> SimEvent:
        event = SimEvent(self.engine)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            if len(self.items) > self.peak_occupancy:
                self.peak_occupancy = len(self.items)
            event.succeed()
        else:
            self._putters.append((event, item))
            self.blocked_puts += 1
        return event

    def get(self) -> SimEvent:
        event = SimEvent(self.engine)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: SimEvent) -> bool:
        """Withdraw a pending ``get``.

        A getter that abandons its wait (e.g. a lease expired while it
        raced a timeout under ``any_of``) must deregister, or the next
        ``put`` would hand its item to an event nobody reads — silently
        swallowing a message. Returns ``True`` if the event was still
        queued; ``False`` if it already fired (the caller then owns the
        delivered item and must handle it).
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    def try_get(self) -> tuple:
        """Non-blocking get: returns ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            event, item = self._putters.popleft()
            self.items.append(item)
            event.succeed()


class BandwidthServer:
    """A channel that serves transfers serially at a fixed byte rate.

    Transfer duration is ``overhead_cycles + ceil(nbytes /
    bytes_per_cycle)``. Requests queue FIFO, so sustained throughput
    under contention approaches ``bytes_per_cycle`` minus the overhead
    tax — exactly the behaviour that makes small DMS buffers slower
    than large ones in the paper's Figure 11.
    """

    def __init__(
        self,
        engine: Engine,
        bytes_per_cycle: float,
        overhead_cycles: float = 0.0,
        name: str = "channel",
    ) -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError("bytes_per_cycle must be positive")
        self.engine = engine
        self.bytes_per_cycle = bytes_per_cycle
        self.overhead_cycles = overhead_cycles
        self.name = name
        self._free_at: float = 0.0
        self.busy_cycles: float = 0.0
        self.bytes_served: int = 0
        self.transfers_served: int = 0

    def transfer_cycles(self, nbytes: int) -> float:
        """Service time for a transfer of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        return self.overhead_cycles + math.ceil(nbytes / self.bytes_per_cycle)

    def transfer(self, nbytes: int) -> SimEvent:
        """Request a transfer; the event succeeds when it completes."""
        now = self.engine.now
        return Timeout(self.engine, self.book(nbytes) - now, nbytes)

    def book(self, nbytes: int) -> float:
        """Book a transfer and return the time it completes.

        Because the server is work-conserving and FIFO, completion time
        is ``max(now, free_at) + service``.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        service = self.overhead_cycles + math.ceil(nbytes / self.bytes_per_cycle)
        now = self.engine.now
        free_at = self._free_at
        start = now if now > free_at else free_at
        finish = start + service
        self._free_at = finish
        self.busy_cycles += service
        self.bytes_served += nbytes
        self.transfers_served += 1
        return finish

    def utilization(self) -> float:
        """Fraction of elapsed time the channel spent serving."""
        if self.engine.now <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / self.engine.now)


class BinaryEvent:
    """A DMS-style binary event: set/clear flag plus waiters.

    ``wait()`` returns an event that succeeds immediately if the flag
    is set, else when it is next set. This backs the dpCore ``wfe``
    instruction and descriptor wait/notify fields.
    """

    def __init__(self, engine: Engine, event_id: int = 0) -> None:
        self.engine = engine
        self.event_id = event_id
        self.is_set = False
        self._waiters: Deque[SimEvent] = deque()
        self._clear_waiters: Deque[SimEvent] = deque()

    def set(self) -> None:
        self.is_set = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def clear(self) -> None:
        self.is_set = False
        while self._clear_waiters:
            self._clear_waiters.popleft().succeed()

    def wait(self) -> SimEvent:
        event = SimEvent(self.engine)
        if self.is_set:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def wait_clear(self) -> SimEvent:
        """Event succeeding when the flag is (or becomes) clear.

        The DMS uses this for buffer flow control: a descriptor whose
        notify event is still set (buffer unconsumed) must not refill
        the buffer — the hardware applies back pressure instead.
        """
        event = SimEvent(self.engine)
        if not self.is_set:
            event.succeed()
        else:
            self._clear_waiters.append(event)
        return event
