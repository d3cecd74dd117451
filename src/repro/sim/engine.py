"""Discrete-event simulation kernel.

dpCores, the ATE crossbar and software tasks are *processes*: Python
generators driven by an :class:`Engine`. Processes yield events
(:class:`SimEvent`, timeouts, or other processes) and are resumed when
those events trigger. The DMS pipeline pushes plain callbacks on the
same heap instead (see the host-speed notes). One simulated time unit
is one dpCore clock cycle (800 MHz on the 40 nm DPU).

The kernel is deliberately small (events, processes, a binary heap) so
that its behaviour is easy to audit; richer constructs (FIFO resources,
bandwidth servers, mailbox stores) are layered on top in
:mod:`repro.sim.resources`.

Host-speed notes
----------------
This module is the hot path of every benchmark, so it trades a little
verbosity for constant-factor wins that are invisible to the modelled
system (pinned bit-exact by ``tests/test_equivalence.py``):

* every event class uses ``__slots__`` and inlines its base
  initialiser, so event churn does not touch instance ``__dict__``s;
* trigger paths push ``(time, seq, callback, argument)`` entries on the
  heap directly in a batch instead of calling :meth:`Engine._schedule`
  once per waiter — the *order* of entries is identical, only the
  per-entry Python overhead goes away;
* processes cache the bound ``send``/``throw``/resume callables once at
  spawn instead of re-binding them on every yield;
* the run loops hoist the queue, ``heappop`` and the watchdog into
  locals and test ``event.callbacks is None`` directly rather than via
  the ``triggered`` property;
* cancelled timers (:meth:`Timeout.cancel`) use lazy deletion: the heap
  entry stays (so simulated time still advances through it exactly as
  before) but fires as a no-op instead of scheduling stale callbacks;
* per-core service loops (ATE engines) are started at their first use
  (:meth:`Engine.start_daemon`), so a DPU costs host memory and time
  only for the units a run touches. A loop started late is *parked*:
  stepped inline, with no heap entry, to its first blocking ``get`` on
  a still-empty store, so the item that follows resumes it through the
  heap exactly where it would have resumed a loop started with its
  unit. Before the engine has run since the unit was built, the first
  step is queued at the heap key the unit reserved
  (:meth:`Engine.mark`) instead;
* the DMS, the source of most heap entries in a DMS-bound run, uses
  no processes: DMAD channel walkers and in-flight data descriptors
  (:mod:`repro.dms.dmad`) push plain callbacks at the heap keys the
  generator code's timeouts, wakes and starts took, so a dispatch
  costs a call instead of resuming a generator frame, and a finished
  descriptor references no unit;
* :meth:`Engine.advance` moves the clock without a sleeper process
  when nothing is queued at or before the target instant, where the
  sleeper would have popped only its own two entries;
* a DMS callback that schedules an entry for the current instant
  while nothing else is due at it runs the entry itself, at its own
  end, instead of pushing and popping it (:meth:`Engine.runs_next`
  holds the rule and its proof).

Dispatch *order* is sacred: callbacks of a triggered event are always
scheduled through the heap at the current instant, never invoked
inline, because an inline call would run ahead of earlier same-time
entries and change modelled interleavings. The one exception is the
entry :meth:`Engine.runs_next` proves is popped next anyway.
"""

from __future__ import annotations

import heapq
import math
import time
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Engine",
    "SimEvent",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "DeadlockError",
    "Watchdog",
]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class DeadlockError(SimulationError):
    """The modelled system can make no progress.

    Raised when the event queue drains while processes still wait
    (deadlock), or when a :class:`Watchdog` budget is exceeded
    (livelock). ``blocked`` names the stuck processes so the failure
    is diagnosable rather than a silent hang.
    """

    def __init__(self, message: str, blocked: Iterable["Process"] = ()) -> None:
        self.blocked = list(blocked)
        if self.blocked:
            detail = "; ".join(
                f"{process.name} waiting on {process._waiting_on!r}"
                for process in self.blocked
            )
            message = f"{message} [blocked: {detail}]"
        super().__init__(message)


class Watchdog:
    """Livelock guard: bounds on events processed and host wall time.

    Attach with ``engine.watchdog = Watchdog(...)`` *before* calling
    ``run``/``run_until_complete`` (the run loops sample the watchdog
    once at entry); the engine calls :meth:`check` once per dispatched
    event. Exceeding either budget raises :class:`DeadlockError`
    naming the still-pending processes. The wall clock (host
    ``time.monotonic``) never influences simulated behaviour — it can
    only abort a runaway simulation.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
        wall_check_interval: int = 4096,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise SimulationError(f"max_events must be positive: {max_events}")
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise SimulationError(
                f"max_wall_seconds must be positive: {max_wall_seconds}"
            )
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        self.wall_check_interval = wall_check_interval
        self.events_dispatched = 0
        self._started_at: Optional[float] = None

    def check(self, engine: "Engine") -> None:
        self.events_dispatched += 1
        if self.max_events is not None and self.events_dispatched > self.max_events:
            raise DeadlockError(
                f"livelock: watchdog event budget of {self.max_events} "
                f"exceeded at t={engine.now}",
                blocked=engine.blocked_processes(),
            )
        if self.max_wall_seconds is None:
            return
        if self._started_at is None:
            self._started_at = time.monotonic()
        if self.events_dispatched % self.wall_check_interval == 0:
            elapsed = time.monotonic() - self._started_at
            if elapsed > self.max_wall_seconds:
                raise DeadlockError(
                    f"livelock: watchdog wall-clock budget of "
                    f"{self.max_wall_seconds} s exceeded at t={engine.now}",
                    blocked=engine.blocked_processes(),
                )


# Sentinel stored in ``Timeout.exception`` by :meth:`Timeout.cancel` so
# the pending heap entry can recognise a lazily-deleted timer.
_CANCELLED = SimulationError("timeout cancelled")


class SimEvent:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, then is either *succeeded* (with an
    optional value delivered to waiters) or *failed* (with an exception
    raised inside waiting processes). Triggering is irreversible.

    ``callbacks is None`` is the canonical "already triggered" test on
    hot paths; the :attr:`triggered` property is the readable spelling.
    """

    __slots__ = ("engine", "callbacks", "value", "exception")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["SimEvent"], None]]] = []
        self.value: Any = None
        self.exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        return self.callbacks is None and self.exception is None

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully, delivering ``value``."""
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError(f"{self!r} has already been triggered")
        self.value = value
        self.callbacks = None
        if callbacks:
            engine = self.engine
            queue = engine._queue
            now = engine.now
            next_seq = engine._next_seq
            for callback in callbacks:
                _heappush(queue, (now, next_seq(), callback, self))
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an exception for waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._trigger(None, exception)
        return self

    def _trigger(self, value: Any, exception: Optional[BaseException]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError(f"{self!r} has already been triggered")
        self.value = value
        self.exception = exception
        self.callbacks = None
        if exception is not None and not callbacks:
            # A failure nobody is waiting on yet: remember it so it
            # surfaces at engine.run() end instead of vanishing.
            self.engine._note_unobserved_failure(self)
        engine = self.engine
        queue = engine._queue
        now = engine.now
        next_seq = engine._next_seq
        for callback in callbacks:
            _heappush(queue, (now, next_seq(), callback, self))

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered, the callback is scheduled for
        the current instant (it still runs through the event queue so
        ordering stays deterministic).
        """
        callbacks = self.callbacks
        if callbacks is not None:
            callbacks.append(callback)
        else:
            if self.exception is not None:
                self.engine._forget_unobserved_failure(self)
            self.engine._schedule(0, callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self.ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.engine.now}>"


class Timeout(SimEvent):
    """An event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.engine = engine
        self.callbacks = []
        self.value = None
        self.exception = None
        self.delay = delay
        _heappush(
            engine._queue,
            (engine.now + delay, engine._next_seq(), self._fire, value),
        )

    def cancel(self) -> None:
        """Lazily cancel a still-pending timer.

        The heap entry is *not* removed — simulated time still advances
        through the timer's expiry exactly as before — but the expiry
        fires as a no-op instead of scheduling the (stale) waiter
        callbacks. Only cancel timers whose waiters have already moved
        on (e.g. the losing branch of an :class:`AnyOf` race); any
        remaining waiters would never be resumed.
        """
        if self.callbacks is not None:
            self.callbacks = None
            self.exception = _CANCELLED

    def _fire(self, value: Any) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            if self.exception is _CANCELLED:
                return
            raise SimulationError(f"{self!r} has already been triggered")
        self.value = value
        self.callbacks = None
        if not callbacks:
            return
        if len(callbacks) == 1:
            # Single waiter (the overwhelmingly common case: a process
            # sleeping on its own timeout): dispatch inline. The engine
            # just popped this timer's heap entry, so the waiter runs at
            # the same instant it would otherwise be re-queued for.
            callbacks[0](self)
            return
        engine = self.engine
        queue = engine._queue
        now = engine.now
        next_seq = engine._next_seq
        for callback in callbacks:
            _heappush(queue, (now, next_seq(), callback, self))


class Process(SimEvent):
    """A generator being driven by the engine.

    The process event itself triggers when the generator returns; its
    value is the generator's return value. Yield targets may be:

    * a :class:`SimEvent` (wait for it; resumed with its value, or the
      event's exception is raised inside the generator),
    * an ``int``/``float`` (shorthand for a timeout of that many cycles),
    * another generator (run as a sub-process and waited on).
    """

    __slots__ = (
        "generator",
        "name",
        "daemon",
        "_waiting_on",
        "_send",
        "_throw",
        "_resume",
    )

    def __init__(
        self,
        engine: "Engine",
        generator: Generator,
        name: str = "",
        daemon: bool = False,
        deferred: bool = False,
    ) -> None:
        self.engine = engine
        self.callbacks = []
        self.value = None
        self.exception = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Daemon processes are service loops (ATE engines, DMAD
        # walkers) expected to wait forever; deadlock diagnosis
        # excludes them from the "blocked" report.
        self.daemon = daemon
        self._waiting_on: Optional[SimEvent] = None
        self._send = generator.send
        self._throw = generator.throw
        self._resume = self._on_event
        engine._register_process(self)
        if engine.tracer is not None:
            engine.tracer.process_started(self)
        if not deferred:  # else Engine.start_daemon schedules the start
            _heappush(
                engine._queue, (engine.now, engine._next_seq(), self._start, None)
            )

    def _start(self, _ignored: Any) -> None:
        self._step(None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        engine = self.engine
        send = self._send
        throw = self._throw
        while True:
            try:
                if exc is None:
                    target = send(value)
                else:
                    target = throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                if engine.tracer is not None:
                    engine.tracer.process_finished(self)
                return
            except BaseException as error:
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise
                # A failure nobody is waiting on must not vanish silently.
                has_waiters = bool(self.callbacks)
                self.fail(error)
                if engine.tracer is not None:
                    engine.tracer.process_finished(self)
                if not has_waiters:
                    # Surfacing immediately: no need to re-report at run() end.
                    engine._forget_unobserved_failure(self)
                    raise
                return
            if isinstance(target, SimEvent):
                event = target
            elif isinstance(target, (int, float)):
                event = Timeout(engine, target)
            elif hasattr(target, "send") and hasattr(target, "throw"):
                event = Process(engine, target)
            else:
                raise SimulationError(f"cannot wait on {target!r}")
            callbacks = event.callbacks
            if callbacks is not None:
                self._waiting_on = event
                callbacks.append(self._resume)
                return
            # Fast resume: the yielded event has already triggered
            # (a store put/get satisfied immediately, a free resource
            # slot, an event-file flag already in the right state), so
            # loop straight back into the generator instead of taking a
            # heap round-trip at the current instant. Time does not
            # advance; only host work is saved.
            exception = event.exception
            if exception is not None:
                engine._forget_unobserved_failure(event)
                value, exc = None, exception
            else:
                value, exc = event.value, None

    def _on_event(self, event: SimEvent) -> None:
        self._waiting_on = None
        exception = event.exception
        if exception is not None:
            self._step(None, exception)
        else:
            self._step(event.value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at t={self.engine.now}>"


class AllOf(SimEvent):
    """Succeeds when every child event has succeeded.

    The value is the list of child values in the order given. Fails as
    soon as any child fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[SimEvent]) -> None:
        self.engine = engine
        self.callbacks = []
        self.value = None
        self.exception = None
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
        on_child = self._on_child
        for event in self.events:
            event.add_callback(on_child)

    def _on_child(self, event: SimEvent) -> None:
        if self.callbacks is None:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(SimEvent):
    """Succeeds (or fails) when the first child event triggers.

    The value is ``(index, value)`` of the first child to trigger.
    """

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Iterable[SimEvent]) -> None:
        self.engine = engine
        self.callbacks = []
        self.value = None
        self.exception = None
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self.events):
            event.add_callback(lambda ev, i=index: self._on_child(i, ev))

    def _on_child(self, index: int, event: SimEvent) -> None:
        if self.callbacks is None:
            return
        if event.exception is not None:
            self.fail(event.exception)
        else:
            self.succeed((index, event.value))


class Engine:
    """The event loop: a time-ordered queue of callbacks.

    Ties are broken by insertion order (a monotone sequence number per
    heap entry), so simulations are fully deterministic for a fixed
    program. The loop is a plain binary heap drain: popping the next
    entry *is* the skip-ahead to the next populated instant — idle
    cycles between timer expiries cost nothing on the host.
    """

    def __init__(self) -> None:
        self.now: float = 0
        self._queue: List[tuple] = []
        self._next_seq = count().__next__
        self.watchdog: Optional[Watchdog] = None
        # Optional observability hook (repro.obs.Tracer). None keeps the
        # process start/finish paths to a single attribute test.
        self.tracer: Optional[Any] = None
        # Pending metrics-sampler ticks (repro.obs.metrics.MetricsHub).
        # Sampler ticks re-arm only while the queue holds *other* work;
        # this count lets several hubs sharing one engine (per-DPU hubs
        # in a cluster) distinguish each other's dormant-going ticks
        # from real events, so they never keep one another alive.
        self._metric_ticks = 0
        # Run-loop entries so far: tells start_daemon whether the
        # engine has run since a mark was taken.
        self._runs = 0
        self._processes: List["Process"] = []
        # Registrations left before the list is next pruned of finished
        # processes (at 256 entries, then at twice the survivors).
        self._process_room = 256
        self._unobserved_failures: List[SimEvent] = []
        # The run loop in progress, for runs_next: the event it runs
        # until (None: until the queue drains) and the last instant it
        # pops at. Outside a run loop the horizon is -inf.
        self._awaited: Optional[SimEvent] = None
        self._horizon: float = -math.inf

    # -- scheduling ---------------------------------------------------

    def _schedule(self, delay: float, callback: Callable, argument: Any) -> None:
        _heappush(
            self._queue, (self.now + delay, self._next_seq(), callback, argument)
        )

    def runs_next(self) -> bool:
        """Whether an entry scheduled now, for the current instant, is
        the next entry the run loop pops.

        True when nothing in the heap is due at the current instant
        and the run loop in progress pops again: the event it runs
        until has not triggered, the clock is within its horizon
        (``until`` or ``limit``) and no watchdog is attached. Outside a
        run loop it is False.

        Proof: every entry already in the heap is due later, so it
        sorts after the new entry ``(now, seq)``; every entry scheduled
        after it takes a larger sequence number, so it sorts after it
        too. (A key reserved with :meth:`mark` is smaller, but it is
        used only while no run loop has started since the mark, so
        inside a run only by a unit built during that run, which the
        simulator never does.) The loop pops the smallest entry as soon
        as the running callback returns, and runs nothing in between. So
        the caller may skip the heap and run the entry itself, at the end
        of the callback that scheduled it: the same code runs at the
        same instant, after the same callbacks and before the same
        ones. The caller must run it after everything else the callback
        does, and must trigger no event between this test and that run
        except by scheduling it, or the loop might stop instead of
        popping the entry.

        A watchdog counts every dispatched entry, so with one attached
        everything goes through the heap. The DMS runs descriptor
        starts and outstanding-slot grants in place
        (:mod:`repro.dms.dmad`).
        """
        queue = self._queue
        now = self.now
        if queue and queue[0][0] <= now:
            return False
        awaited = self._awaited
        return (now <= self._horizon and self.watchdog is None
                and (awaited is None or awaited.callbacks is not None))

    # -- bookkeeping for diagnosis --------------------------------------

    def _register_process(self, process: "Process") -> None:
        self._processes.append(process)
        self._process_room -= 1
        if not self._process_room:
            self._prune_processes()

    def _prune_processes(self) -> None:
        """Drop finished processes once the list has used up its room."""
        alive = self._processes = [
            p for p in self._processes if p.callbacks is not None
        ]
        self._process_room = max(256, 2 * len(alive)) - len(alive)

    def blocked_processes(self) -> List["Process"]:
        """Pending non-daemon processes (for deadlock diagnosis)."""
        return [
            process
            for process in self._processes
            if process.callbacks is not None and not process.daemon
        ]

    def _note_unobserved_failure(self, event: SimEvent) -> None:
        self._unobserved_failures.append(event)

    def _forget_unobserved_failure(self, event: SimEvent) -> None:
        # list.remove is fine here: the list only holds failures not
        # yet observed by any waiter, which is empty in healthy runs
        # and a handful of entries under fault injection.
        try:
            self._unobserved_failures.remove(event)
        except ValueError:
            pass

    def _raise_unobserved_failures(self) -> None:
        if not self._unobserved_failures:
            return
        failures, self._unobserved_failures = self._unobserved_failures, []
        detail = "; ".join(
            f"{event!r}: {event.exception!r}" for event in failures
        )
        raise SimulationError(
            f"{len(failures)} failed event(s) were never observed by any "
            f"waiter: {detail}"
        )

    def _as_event(self, target: Any) -> SimEvent:
        if isinstance(target, SimEvent):
            return target
        if isinstance(target, (int, float)):
            return Timeout(self, target)
        if hasattr(target, "send") and hasattr(target, "throw"):
            return Process(self, target)
        raise SimulationError(f"cannot wait on {target!r}")

    # -- public API ---------------------------------------------------

    def event(self) -> SimEvent:
        """Create a new pending event."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event succeeding ``delay`` cycles from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator, name: str = "", daemon: bool = False
    ) -> Process:
        """Start driving ``generator`` as a process."""
        return Process(self, generator, name, daemon=daemon)

    def mark(self) -> Tuple[float, int, int]:
        """This point in dispatch order, for :meth:`start_daemon`.

        A unit that starts its service loops on first use takes a mark
        when it is built. The mark reserves a sequence number of its
        own, so the heap keys between it and the next one are free for
        those loops' first steps.
        """
        return (self.now, self._next_seq(), self._runs)

    def start_daemon(
        self, generator: Generator, name: str, mark: Tuple[float, int, int],
        rank: float = 0.0,
    ) -> Process:
        """Start a daemon service loop at its first use, exactly as if
        it had been started at ``mark`` (loops sharing a mark are
        ordered by ``rank``, ``0 <= rank < 1``).

        If the engine has not run since ``mark``, the loop's first step
        is queued at the mark's reserved heap key, where the step of a
        loop started then would still wait. Otherwise such a loop would
        by now be parked on its first blocking wait, a ``get`` on a
        store that must still be empty, so the loop is *parked*:
        stepped inline, with no heap entry, to that ``get``. The item
        the caller puts next then resumes it through the heap exactly
        where it would have resumed the loop started at ``mark``.

        "Run since" means a run loop was entered after the mark, or
        the clock moved past it. A unit built by a process while a run
        is in progress is therefore exact only if it is first used in
        that same instant before the run dispatches past its mark, or
        at a later instant; the simulator builds every unit before its
        engine runs.
        """
        when, seq, runs = mark
        process = Process(self, generator, name, daemon=True, deferred=True)
        if self.now == when and self._runs == runs:
            _heappush(self._queue, (when, seq + rank, process._start, None))
            return process
        process._step(None, None)
        if process._waiting_on is None:
            raise SimulationError(
                f"{process.name} did not park on a pending event at its start"
            )
        return process

    def advance(self, cycles: float) -> None:
        """Let ``cycles`` of simulated time pass, running whatever is due.

        Equivalent to running a process that sleeps ``cycles`` until it
        finishes. When the queue is empty, or its head lies strictly
        after the target, that sleeper would pop only its own two
        entries, so the clock is set directly. A watchdog counts those
        two entries against its event budget, so with one attached the
        sleeper always runs.
        """
        if cycles <= 0:
            return
        target = self.now + cycles
        queue = self._queue
        if self.watchdog is None and (not queue or queue[0][0] > target):
            self.now = target
            return

        def sleeper():
            yield Timeout(self, cycles)

        self.run_until_complete(Process(self, sleeper()))

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` cycles have elapsed.

        Returns the simulation time at which the run stopped. Raises
        :class:`SimulationError` if ``until`` lies before the clock,
        which cannot run backwards.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until!r}) is before the clock at t={self.now!r}"
            )
        self._runs += 1
        queue = self._queue
        pop = _heappop
        watchdog = self.watchdog
        outer = self._awaited, self._horizon
        self._awaited = None
        self._horizon = math.inf if until is None else until
        try:
            if until is None and watchdog is None:
                while queue:
                    when, _seq, callback, argument = pop(queue)
                    self.now = when
                    callback(argument)
            else:
                while queue:
                    when = queue[0][0]
                    if until is not None and when > until:
                        self.now = until
                        return until
                    _when, _seq, callback, argument = pop(queue)
                    self.now = when
                    callback(argument)
                    if watchdog is not None:
                        watchdog.check(self)
        finally:
            self._awaited, self._horizon = outer
        self._raise_unobserved_failures()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def _stalled(self, process: SimEvent, limit: float) -> None:
        """Raise the error for a run that cannot reach ``process``."""
        if not self._queue:
            raise DeadlockError(
                f"deadlock: {process!r} never completed and no events "
                f"remain",
                blocked=self.blocked_processes(),
            )
        raise DeadlockError(
            f"livelock: simulation exceeded limit of {limit} cycles",
            blocked=self.blocked_processes(),
        )

    def run_until_complete(self, process: Process, limit: float = 10**15) -> Any:
        """Run until ``process`` finishes; return its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the queue drained without the
        process completing (a deadlock in the modelled system).
        """
        self._runs += 1
        queue = self._queue
        pop = _heappop
        watchdog = self.watchdog
        outer = self._awaited, self._horizon
        self._awaited, self._horizon = process, limit
        try:
            if watchdog is None:
                while process.callbacks is not None:
                    if not queue or self.now > limit:
                        self._stalled(process, limit)
                    when, _seq, callback, argument = pop(queue)
                    self.now = when
                    callback(argument)
            else:
                while process.callbacks is not None:
                    if not queue or self.now > limit:
                        self._stalled(process, limit)
                    when, _seq, callback, argument = pop(queue)
                    self.now = when
                    callback(argument)
                    watchdog.check(self)
        finally:
            self._awaited, self._horizon = outer
        if process.exception is not None:
            raise process.exception
        return process.value
