"""Per-dpCore DMS event files.

The DMS associates 32 binary events with each dpCore (paper §3.1).
Descriptors name events to wait on (precondition) and to set or clear
on completion (notification); software blocks on an event with the
``wfe`` instruction and clears it after consuming the buffer it
guards. This is the entire flow-control vocabulary between a dpCore
and the data movement hardware.
"""

from __future__ import annotations

from typing import Dict

from ..sim import BinaryEvent, Engine, SimEvent

__all__ = ["EventFile", "EVENTS_PER_CORE"]

EVENTS_PER_CORE = 32


class EventFile:
    """The 32 binary events belonging to one dpCore.

    A kernel names a handful of them, so each :class:`BinaryEvent` is
    built the first time its id is used.
    """

    def __init__(self, engine: Engine, core_id: int) -> None:
        self.engine = engine
        self.core_id = core_id
        self.events: Dict[int, BinaryEvent] = {}

    def _check(self, event_id: int) -> None:
        if not 0 <= event_id < EVENTS_PER_CORE:
            raise ValueError(
                f"event id {event_id} outside 0..{EVENTS_PER_CORE - 1}"
            )

    def event(self, event_id: int) -> BinaryEvent:
        """The binary event ``event_id``, built on its first use."""
        event = self.events.get(event_id)
        if event is None:
            self._check(event_id)
            event = self.events[event_id] = BinaryEvent(self.engine, event_id)
        return event

    # set, clear and wait run once per DMS buffer: they look the event
    # up themselves and call ``event`` only to build it.

    def set(self, event_id: int) -> None:
        event = self.events.get(event_id)
        if event is None:
            event = self.event(event_id)
        event.set()

    def clear(self, event_id: int) -> None:
        event = self.events.get(event_id)
        if event is None:
            event = self.event(event_id)
        event.clear()

    def is_set(self, event_id: int) -> bool:
        return self.event(event_id).is_set

    def wait(self, event_id: int) -> SimEvent:
        """Event that succeeds when ``event_id`` is (or becomes) set.

        This is the hardware side of the ``wfe`` instruction.
        """
        event = self.events.get(event_id)
        if event is None:
            event = self.event(event_id)
        return event.wait()
