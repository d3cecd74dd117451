"""ATE remote procedure calls (paper §2.3).

The ATE interprets messages as RPCs executed by hardware on the
receiving dpCore:

* **hardware RPCs** — load, store, atomic fetch-and-add and atomic
  compare-and-swap on any DDR or DMEM address owned by the remote
  core. The receiving ATE engine injects the operation into the
  remote pipeline (a few stall cycles there, no interrupt) and the
  requesting core stalls until the value returns.
* **software RPCs** — the receiving ATE interrupts the remote core
  and jumps to a pre-installed handler which runs to completion.

The requester may have **one outstanding ATE request** at a time; it
can issue, run independent instructions, and block for the reply
later (:meth:`Ate.issue` / waiting the returned event) — the paper's
recommended throughput trick under Figure 2.

**Resilience.** When the fault plan enables the ``ate.drop`` or
``ate.delay`` sites, every request carries a per-source sequence
number and the requester arms a timeout: a lost or late message is
retransmitted with exponential backoff, and the receiving engine
deduplicates by sequence number — it replays the cached reply instead
of re-executing, so load/store/FAA/CAS stay exactly-once (idempotent
under retry) and results remain byte-correct. The one-outstanding-
request rule is preserved: the issue slot is held across retries.
Retry exhaustion fails the completion event with :class:`AteError`.

Atomicity is by ownership: every operation on addresses owned by core
*C* executes serially in *C*'s ATE engine, so fetch-and-add and CAS
are linearizable per owner, exactly the guarantee the hardware gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..core.config import DPUConfig
from ..faults import FaultInjector
from ..memory.address import AddressMap
from ..memory.ddr import DDRMemory
from ..memory.dmem import Scratchpad
from ..obs import NULL_TRACER
from ..sim import Engine, Resource, SimEvent, StatsRecorder, Store, Timeout
from .crossbar import CrossbarTopology

__all__ = ["Ate", "RpcKind", "AteError"]


class AteError(Exception):
    """Protocol misuse or failure (unknown handler, bad address,
    retry exhaustion under fault injection).

    Carries structured context — the failing ``site``, simulation
    ``sim_time``, ``retry_count`` already burned, and an ``occupancy``
    snapshot of the relevant queues — so recovery code can branch on
    fields instead of message text.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str = "",
        sim_time: Optional[float] = None,
        retry_count: int = 0,
        occupancy: Optional[Dict] = None,
    ) -> None:
        self.site = site
        self.sim_time = sim_time
        self.retry_count = retry_count
        self.occupancy = dict(occupancy) if occupancy else {}
        detail = []
        if site:
            detail.append(f"site={site}")
        if sim_time is not None:
            detail.append(f"t={sim_time:.0f}")
        if retry_count:
            detail.append(f"retries={retry_count}")
        if detail:
            message = f"{message} [{' '.join(detail)}]"
        super().__init__(message)


class RpcKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    FETCH_ADD = "faa"
    COMPARE_SWAP = "cas"
    SOFTWARE = "sw"

    @property
    def is_atomic(self) -> bool:
        return self in (RpcKind.FETCH_ADD, RpcKind.COMPARE_SWAP)


@dataclass(slots=True)
class _Message:
    kind: RpcKind
    src: int
    dst: int
    address: int = 0
    operand: int = 0
    operand2: int = 0
    handler: Optional[str] = None
    args: Any = None
    reply: SimEvent = None  # type: ignore[assignment]
    issued_at: float = 0.0
    seq: int = 0
    # Span id of the requester's in-flight trace span; the receiving
    # engine stamps it on its execution span so cross-core RPCs nest.
    trace_id: int = 0


class Ate:
    """The Atomic Transaction Engine across all dpCores."""

    def __init__(
        self,
        engine: Engine,
        config: DPUConfig,
        address_map: AddressMap,
        ddr_memory: DDRMemory,
        scratchpads: Dict[int, Scratchpad],
        stats: Optional[StatsRecorder] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.address_map = address_map
        self.ddr_memory = ddr_memory
        self.scratchpads = scratchpads
        self.stats = stats if stats is not None else StatsRecorder()
        self.faults = faults if faults is not None else FaultInjector()
        # The injector's plan is frozen, so whether the retry protocol
        # is needed at all can be decided once instead of per issue.
        self._faulty = (
            self.faults.active("ate.drop") or self.faults.active("ate.delay")
        )
        # Observability hook; DPU.enable_tracing swaps in a live tracer.
        self.trace = NULL_TRACER
        self.topology = CrossbarTopology(config)
        # Receiving request FIFOs, bounded to the hardware SRAM depth:
        # a put into a full inbox blocks in the crossbar until the
        # engine drains an entry, backpressuring fan-in senders. A
        # core's inbox and engine are built at the first request to it
        # (see _inbox), its issue slot at its first request out.
        self._inboxes: Dict[int, Store] = {}
        self._issue_slots: Dict[int, Resource] = {}
        # SW RPC handlers installed per core: name -> callable(args).
        # A handler may be a plain function or a generator (to charge
        # additional cycles); its return value travels back.
        self._handlers: Dict[int, Dict[str, Callable]] = {
            core: {} for core in config.core_ids
        }
        # Cycles of interrupt work each core owes (drained by the
        # runtime into that core's next compute charge).
        self.interrupt_debt: Dict[int, float] = {
            core: 0.0 for core in config.core_ids
        }
        # Retry protocol state (consulted only under fault injection):
        # per-source sequence counter, and per-destination cache of the
        # last executed (seq, value) per source for dedup on resend.
        self._seq: Dict[int, int] = {core: 0 for core in config.core_ids}
        self._reply_cache: Dict[int, Dict[int, tuple]] = {
            core: {} for core in config.core_ids
        }
        # Where the engines would have started had they been built
        # with the ATE (see Engine.start_daemon).
        self._mark = engine.mark()

    # -- software interface -------------------------------------------------

    def install_handler(self, core_id: int, name: str, handler: Callable) -> None:
        """Pre-install a software RPC handler on ``core_id``."""
        self._handlers[core_id][name] = handler

    def _issue_slot(self, src: int) -> Resource:
        """``src``'s one outstanding-request slot, built on first use."""
        slot = self._issue_slots.get(src)
        if slot is None:
            slot = self._issue_slots[src] = Resource(self.engine, 1)
        return slot

    def _inbox(self, dst: int) -> Store:
        """``dst``'s request FIFO; the first request to ``dst`` builds
        it and starts ``dst``'s engine on it (``Engine.start_daemon``)."""
        inbox = self._inboxes.get(dst)
        if inbox is None:
            inbox = self._inboxes[dst] = Store(
                self.engine, capacity=self.config.ate_inbox_depth or None
            )
            self.engine.start_daemon(
                self._engine_loop(dst, inbox), f"ate[{dst}]",
                self._mark, dst / self.config.num_cores,
            )
        return inbox

    def issue(
        self,
        src: int,
        dst: int,
        kind: RpcKind,
        address: int = 0,
        operand: int = 0,
        operand2: int = 0,
        handler: Optional[str] = None,
        args: Any = None,
        trace_id: int = 0,
    ):
        """Issue one request; generator returns a reply event.

        ``yield from ate.issue(...)`` gives back a :class:`SimEvent`
        that succeeds (with the RPC's return value) when the response
        arrives; the caller may compute before yielding it. The
        one-outstanding-request rule is enforced per source core.
        """
        engine = self.engine
        slot = self._issue_slot(src)
        yield slot.acquire()
        reply = SimEvent(engine)
        seq = self._seq[src] + 1
        self._seq[src] = seq
        message = _Message(
            kind=kind,
            src=src,
            dst=dst,
            address=address,
            operand=operand,
            operand2=operand2,
            handler=handler,
            args=args,
            reply=reply,
            issued_at=engine.now,
            seq=seq,
            trace_id=trace_id,
        )
        yield Timeout(engine, self.topology.one_way_cycles(src, dst))
        completion = SimEvent(engine)
        if self._faulty:
            yield from self._transmit(message, "request")
            self.engine.process(
                self._await_with_retry(slot, message, completion),
                name=f"ate.retry[{src}->{dst}]",
            )
        else:
            yield from self._inbox_put(dst, message)
            reply.add_callback(lambda ev: self._finish(slot, completion, ev))
        return completion

    def _inbox_put(self, dst: int, message: _Message):
        """Deliver into a bounded inbox, accounting backpressure.

        Stall counters are emitted only when the sender actually
        blocked, so the uncontended stats snapshot is unchanged."""
        inbox = self._inbox(dst)
        if inbox.capacity is not None and len(inbox.items) >= inbox.capacity:
            began = self.engine.now
            yield inbox.put(message)
            waited = self.engine.now - began
            if waited > 0:
                self.stats.count("ate.inbox_stall_cycles", waited)
                self.stats.count("ate.inbox_stalls", 1)
        else:
            yield inbox.put(message)
        self.stats.peak("ate.inbox_occupancy_peak", inbox.peak_occupancy)

    def inbox_occupancy(self) -> Dict[int, int]:
        """Cores with queued requests -> queue depth (diagnostics)."""
        return {
            core: len(store) for core, store in self._inboxes.items() if len(store)
        }

    def _finish(self, slot: Resource, completion: SimEvent, reply: SimEvent) -> None:
        slot.release()
        if reply.exception is not None:
            completion.fail(reply.exception)
        else:
            completion.succeed(reply.value)

    # -- retry protocol (active only when faults target the ATE) -----------

    def _fault_mode(self) -> bool:
        return self._faulty

    def _transmit(self, message: _Message, leg: str):
        """One crossbar traversal that may be delayed or lost."""
        label = (
            f"{leg} {message.kind.value} {message.src}->{message.dst} "
            f"seq={message.seq}"
        )
        if self.faults.roll("ate.delay", detail=label):
            yield self.engine.timeout(self.faults.delay_cycles("ate.delay"))
        if self.faults.roll("ate.drop", detail=label):
            self.stats.count("ate.dropped", 1)
            return
        yield from self._inbox_put(message.dst, message)

    def _await_with_retry(self, slot: Resource, message: _Message,
                          completion: SimEvent):
        """Requester-side driver: timeout, exponential backoff, resend.

        Holds the issue slot for the whole exchange so the paper's
        one-outstanding-request rule survives retransmission.
        """
        reply = message.reply
        timeout_cycles = self.config.ate_rpc_timeout_cycles
        attempt = 0
        try:
            while True:
                deadline = self.engine.timeout(timeout_cycles << attempt)
                index, value = yield self.engine.any_of([reply, deadline])
                if index == 0:
                    slot.release()
                    completion.succeed(value)
                    return
                attempt += 1
                if attempt > self.config.ate_rpc_max_retries:
                    slot.release()
                    inbox = self._inbox(message.dst)
                    completion.fail(
                        AteError(
                            f"ATE {message.kind.value} {message.src}->"
                            f"{message.dst} seq={message.seq} gave up after "
                            f"{attempt - 1} retries",
                            site=f"ate.issue[{message.src}->{message.dst}]",
                            sim_time=self.engine.now,
                            retry_count=attempt - 1,
                            occupancy={
                                "dst_inbox": len(inbox),
                                "dst_blocked_putters": inbox.blocked_putters,
                            },
                        )
                    )
                    return
                self.stats.count("ate.retries", 1)
                yield from self._transmit(message, "retry")
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:
            # A failed reply (e.g. AteError from the remote handler)
            # propagates through the AnyOf; forward it to the caller.
            slot.release()
            completion.fail(error)

    def call(self, src: int, dst: int, kind: RpcKind, **kwargs):
        """Blocking request: issue and stall for the value."""
        trace = self.trace
        if not trace.enabled:
            completion = yield from self.issue(src, dst, kind, **kwargs)
            value = yield completion
            return value
        with trace.span(f"ate.{kind.value}", unit=f"core{src}",
                        src=src, dst=dst) as span:
            trace.flow_start(span.id, f"ate.{kind.value}", f"core{src}")
            completion = yield from self.issue(
                src, dst, kind, trace_id=span.id, **kwargs
            )
            value = yield completion
        return value

    def posted_store(self, src: int, dst: int, address: int, value: int):
        """Fire-and-forget remote store.

        The paper stalls the requester only for RPCs "which expect
        return values (such as fetch-and-add)"; a plain store needs no
        reply, so the issue slot frees as soon as the message is in
        the interconnect — the fast path for barrier release fan-out.
        """
        slot = self._issue_slot(src)
        yield slot.acquire()
        message = _Message(
            kind=RpcKind.STORE,
            src=src,
            dst=dst,
            address=address,
            operand=value,
            reply=None,
            issued_at=self.engine.now,
        )
        yield self.engine.timeout(self.topology.one_way_cycles(src, dst))
        yield from self._inbox_put(dst, message)
        slot.release()
        if self.trace.enabled:
            self.trace.instant("ate.posted_store", unit=f"core{src}",
                               dst=dst, address=address)

    # Convenience wrappers used throughout the runtime and apps.

    def remote_load(self, src: int, dst: int, address: int):
        return self.call(src, dst, RpcKind.LOAD, address=address)

    def remote_store(self, src: int, dst: int, address: int, value: int):
        return self.call(src, dst, RpcKind.STORE, address=address, operand=value)

    def fetch_add(self, src: int, dst: int, address: int, delta: int):
        return self.call(src, dst, RpcKind.FETCH_ADD, address=address, operand=delta)

    def compare_swap(
        self, src: int, dst: int, address: int, expected: int, desired: int
    ):
        return self.call(
            src,
            dst,
            RpcKind.COMPARE_SWAP,
            address=address,
            operand=expected,
            operand2=desired,
        )

    def software_rpc(self, src: int, dst: int, handler: str, args: Any = None):
        return self.call(src, dst, RpcKind.SOFTWARE, handler=handler, args=args)

    # -- receiving engine -------------------------------------------------------

    def _engine_loop(self, core_id: int, inbox: Store):
        engine = self.engine
        cache = self._reply_cache[core_id]
        stats = self.stats
        hw_execute = self.config.ate_hw_execute_cycles
        amo_extra = self.config.ate_amo_extra_cycles
        sw_overhead = self.config.ate_sw_handler_overhead_cycles
        software = RpcKind.SOFTWARE
        faa = RpcKind.FETCH_ADD
        cas = RpcKind.COMPARE_SWAP
        while True:
            message: _Message = yield inbox.get()
            if message.seq and cache.get(message.src, (0,))[0] == message.seq:
                # Duplicate of an already-executed request (its reply
                # was lost or late): replay the cached reply without
                # re-executing, keeping atomics exactly-once.
                yield Timeout(engine, hw_execute)
                stats.count("ate.duplicates", 1)
                if message.reply is not None:
                    self._send_reply(message, value=cache[message.src][1])
                continue
            began = engine.now
            kind = message.kind
            if kind is software:
                execute = sw_overhead
            elif kind is faa or kind is cas:
                execute = hw_execute + amo_extra
            else:
                execute = hw_execute
            yield Timeout(engine, execute)
            try:
                if kind is software:
                    value = yield from self._run_handler(core_id, message)
                else:
                    value = self._perform(core_id, message)
            except AteError as error:
                if self.trace.enabled:
                    self.trace.complete(
                        f"ate.exec.{message.kind.value}", f"ate{core_id}",
                        began, self.engine.now - began, src=message.src,
                        parent=message.trace_id, error=type(error).__name__,
                    )
                if message.reply is not None:
                    self._send_reply(message, error=error)
                continue
            if message.seq:
                cache[message.src] = (message.seq, value)
            if self.trace.enabled:
                self.trace.complete(
                    f"ate.exec.{message.kind.value}", f"ate{core_id}",
                    began, self.engine.now - began,
                    src=message.src, parent=message.trace_id,
                )
                if message.trace_id:
                    # Arrow head anchored at the execution slice start;
                    # the tail sits in the requester's ate.* span.
                    self.trace.flow_end(
                        message.trace_id, f"ate.{message.kind.value}",
                        f"ate{core_id}", ts=began,
                    )
            # The injected operation appears as stalls in the remote
            # instruction stream; account it as interrupt debt.
            self.interrupt_debt[core_id] += execute
            if message.reply is not None:
                self._send_reply(message, value=value)
                rtt_key = (
                    f"ate.rtt.{message.kind.value}."
                    + ("local" if self.topology.same_macro(message.src, core_id)
                       else "remote")
                )
                return_latency = self.topology.one_way_cycles(
                    core_id, message.src
                )
                stats.sample(
                    rtt_key,
                    engine.now - message.issued_at + return_latency,
                )
            stats.count("ate.messages", 1)

    def _send_reply(self, message: _Message, value: Any = None, error=None) -> None:
        latency = self.topology.one_way_cycles(message.dst, message.src)
        if error is None and self._fault_mode():
            # The reply leg is also lossy; a dropped reply triggers the
            # requester's timeout and a (deduplicated) resend.
            def reply_leg():
                yield self.engine.timeout(latency)
                yield from self._transmit_reply(message, value)

            self.engine.process(reply_leg(), name="ate.reply")
            return

        def deliver(_event) -> None:
            if message.reply.triggered:
                return  # a duplicate already satisfied the requester
            if error is not None:
                message.reply.fail(error)
            else:
                message.reply.succeed(value)

        self.engine.timeout(latency).add_callback(deliver)

    def _transmit_reply(self, message: _Message, value: Any):
        label = (
            f"reply {message.kind.value} {message.dst}->{message.src} "
            f"seq={message.seq}"
        )
        if self.faults.roll("ate.delay", detail=label):
            yield self.engine.timeout(self.faults.delay_cycles("ate.delay"))
        if self.faults.roll("ate.drop", detail=label):
            self.stats.count("ate.dropped", 1)
            return
        if not message.reply.triggered:
            message.reply.succeed(value)

    def _run_handler(self, core_id: int, message: _Message):
        handlers = self._handlers[core_id]
        handler = handlers.get(message.handler or "")
        if handler is None:
            raise AteError(
                f"core {core_id} has no software RPC handler "
                f"{message.handler!r} installed",
                site=f"ate.handler[{core_id}]",
                sim_time=self.engine.now,
            )
        result = handler(message.args)
        if hasattr(result, "send") and hasattr(result, "throw"):
            value = yield from result
            return value
        yield self.engine.timeout(0)
        return result

    # -- hardware operation semantics ---------------------------------------------

    def _perform(self, owner: int, message: _Message) -> int:
        address = message.address
        if message.kind is RpcKind.LOAD:
            return self._read64(owner, address)
        if message.kind is RpcKind.STORE:
            self._write64(owner, address, message.operand)
            return 0
        if message.kind is RpcKind.FETCH_ADD:
            old = self._read64(owner, address)
            self._write64(owner, address, (old + message.operand) & (2**64 - 1))
            return old
        if message.kind is RpcKind.COMPARE_SWAP:
            current = self._read64(owner, address)
            if current == message.operand & (2**64 - 1):
                self._write64(owner, address, message.operand2)
            return current
        raise AteError(f"cannot perform {message.kind}")  # pragma: no cover

    def _read64(self, owner: int, address: int) -> int:
        if self.address_map.is_dmem(address):
            core, offset = self.address_map.split_dmem(address)
            return self.scratchpads[core].read_u64(offset)
        if self.address_map.is_ddr(address):
            return self.ddr_memory.read_u64(address)
        raise AteError(
            f"ATE address {address:#x} is neither DDR nor DMEM",
            site=f"ate.read[{owner}]",
            sim_time=self.engine.now,
        )

    def _write64(self, owner: int, address: int, value: int) -> None:
        if self.address_map.is_dmem(address):
            core, offset = self.address_map.split_dmem(address)
            self.scratchpads[core].write_u64(offset, value)
            return
        if self.address_map.is_ddr(address):
            self.ddr_memory.write_u64(address, value)
            return
        raise AteError(
            f"ATE address {address:#x} is neither DDR nor DMEM",
            site=f"ate.write[{owner}]",
            sim_time=self.engine.now,
        )
