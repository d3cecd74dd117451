"""Admission control and load shedding for DPU job launch.

The paper's hardware applies flow control at every queue — DMAD
notify-event backpressure (§3.1), the ATE's one-outstanding-request
rule (§3.3) — but nothing stops *software* from oversubscribing the
chip: a coordinator that launches more concurrent jobs than DMEM and
the heap can hold turns a throughput plateau into a collapse. This
module is the software end of the backpressure chain:

* :class:`TokenBucket` — a deterministic, simulation-time token
  bucket bounding the job *arrival rate*;
* :class:`ConcurrencyLimiter` — a FIFO slot pool bounding jobs *in
  flight*;
* :class:`AdmissionController` — combines both behind one of three
  policies: ``queue`` (wait, with a bounded queue), ``shed`` (fail
  fast with a typed :class:`OverloadError` carrying occupancy
  context), or ``degrade`` (admit at reduced fanout so the job runs
  smaller rather than not at all);
* :class:`MemoryGovernor` — up-front memory grants for SQL operators,
  so an operator discovers pressure *before* allocating and can spill
  to DDR instead of dying mid-query.

Everything is driven by the simulation clock, so admission decisions
are bit-reproducible. A ``DPU`` or cluster coordinator with no
controller attached takes exactly the pre-existing code path.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import NULL_HUB, NULL_TRACER, CounterRegistry
from ..sim import Engine, Resource

__all__ = [
    "AdmissionController",
    "Admission",
    "ConcurrencyLimiter",
    "MemoryGovernor",
    "OverloadError",
    "TokenBucket",
    "WeightedFairQueue",
]


class OverloadError(RuntimeError):
    """A job was shed because the system is saturated.

    Typed and structured: carries the shedding ``site``, simulation
    ``sim_time``, the ``limit`` that was hit, the ``queue_depth`` at
    decision time, and an ``occupancy`` snapshot, so coordinators can
    implement retry/degrade policies without parsing messages.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str = "",
        sim_time: Optional[float] = None,
        limit: int = 0,
        queue_depth: int = 0,
        retry_count: int = 0,
        occupancy: Optional[Dict] = None,
    ) -> None:
        self.site = site
        self.sim_time = sim_time
        self.limit = limit
        self.queue_depth = queue_depth
        self.retry_count = retry_count
        self.occupancy = dict(occupancy) if occupancy else {}
        detail = []
        if site:
            detail.append(f"site={site}")
        if sim_time is not None:
            detail.append(f"t={sim_time:.0f}")
        if limit:
            detail.append(f"limit={limit}")
        if queue_depth:
            detail.append(f"queued={queue_depth}")
        if detail:
            message = f"{message} [{' '.join(detail)}]"
        super().__init__(message)


class TokenBucket:
    """Deterministic token bucket on the simulation clock.

    Refills continuously at ``rate_per_kcycle`` tokens per thousand
    cycles up to ``burst``. All arithmetic is in simulation time, so
    two identical runs make identical admission decisions.

    The level is always computed as one multiply from a fixed anchor
    (the last consumption or cap instant), never by accumulating many
    small ``elapsed * rate`` increments: a long run of tiny refills
    would otherwise drift away from one large refill in float and
    admit a different number of jobs depending on how often the
    bucket was *looked at*.
    """

    def __init__(self, rate_per_kcycle: float, burst: float = 1.0) -> None:
        if rate_per_kcycle < 0:
            raise ValueError(f"negative refill rate {rate_per_kcycle}")
        if burst <= 0:
            raise ValueError(f"burst must be positive: {burst}")
        self.rate = rate_per_kcycle / 1000.0  # tokens per cycle
        self.burst = float(burst)
        self.tokens = float(burst)
        # Level anchor: tokens held at sim time _anchor. Moves only on
        # consumption and on hitting the burst cap, so reads between
        # those events are pure functions of (anchor, now).
        self._anchor_tokens = float(burst)
        self._anchor = 0.0

    def _refill(self, now: float) -> None:
        if now > self._anchor:
            level = self._anchor_tokens + (now - self._anchor) * self.rate
            if level >= self.burst:
                # Cap reached: re-anchoring here is exact (the level
                # is a constant, not an accumulated float).
                self._anchor_tokens = self.burst
                self._anchor = now
                level = self.burst
            self.tokens = level

    def try_take(self, now: float, cost: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            self._anchor_tokens = self.tokens
            self._anchor = max(self._anchor, now)
            return True
        return False

    def cycles_until_available(self, now: float, cost: float = 1.0) -> float:
        """Cycles from ``now`` until ``cost`` tokens will exist
        (``inf`` if the bucket cannot ever hold that many)."""
        self._refill(now)
        deficit = cost - self.tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0 or cost > self.burst:
            return float("inf")
        return deficit / self.rate


class ConcurrencyLimiter:
    """FIFO pool of job slots bounding work in flight."""

    def __init__(self, engine: Engine, max_concurrent: int) -> None:
        self.slots = Resource(engine, max_concurrent)

    @property
    def running(self) -> int:
        return self.slots.in_use

    @property
    def queued(self) -> int:
        return self.slots.queue_depth

    @property
    def limit(self) -> int:
        return self.slots.capacity

    def acquire(self):
        return self.slots.acquire()

    def release(self) -> None:
        self.slots.release()


class WeightedFairQueue:
    """Start-time fair queueing across weighted flows (SFQ).

    The serving layer's replacement for a single global FIFO: each
    flow (tenant) owns a FIFO of queued items, and the next item to
    run is the head of the flow with the smallest virtual *finish
    tag*. A flow of weight ``w`` accumulates virtual time at ``1/w``
    per dequeued slot, so over any busy interval flows receive service
    slots in proportion to their weights — a gold tenant at weight 8
    gets ~8x the slots of a bronze tenant at weight 1 — while an idle
    flow builds up no credit it could later burst with (its next tag
    starts at the current virtual time, the SFQ start-time rule).

    Everything is driven by explicit ``pop`` calls from a
    deterministic scheduler loop, so two identical runs dequeue in
    identical order; ties break on (finish tag, flow name). The
    backlogged flows' heads are kept sorted in that order, so ``pop``
    can test eligibility lazily, head by head.
    """

    def __init__(self) -> None:
        self._weights: Dict[str, float] = {}
        self._queues: Dict[str, list] = {}
        self._finish: Dict[str, float] = {}
        # (head finish tag, flow) of every backlogged flow, sorted.
        self._heads: List[Tuple[float, str]] = []
        self._vtime = 0.0
        self._size = 0

    def register(self, flow: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"flow weight must be positive: {weight}")
        self._weights[flow] = float(weight)
        self._queues.setdefault(flow, [])
        self._finish.setdefault(flow, 0.0)

    def push(self, flow: str, item) -> None:
        if flow not in self._weights:
            self.register(flow)
        # SFQ tag assignment happens at enqueue: start at the current
        # virtual time (or the flow's last finish if it is backlogged)
        # and finish one weighted slot later. The tag sticks to the
        # item, so a backlogged low-weight flow's claim on service
        # ages rather than being recomputed — no starvation.
        start = max(self._vtime, self._finish[flow])
        finish = start + 1.0 / self._weights[flow]
        self._finish[flow] = finish
        queue = self._queues[flow]
        if not queue:
            insort(self._heads, (finish, flow))
        queue.append((start, finish, item))
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def depth(self, flow: str) -> int:
        return len(self._queues.get(flow, ()))

    def flows(self):
        return [flow for flow, queue in self._queues.items() if queue]

    def peek(self, flow: str):
        return self._queues[flow][0][2]

    def pop(self, eligible: Optional[Callable[[str], bool]] = None):
        """Dequeue ``(flow, item)`` from the eligible backlogged flow
        with the smallest virtual finish tag (ties by flow name), or
        return ``None`` when no eligible flow has queued work.

        ``eligible(flow)`` excludes flows whose head cannot run yet
        (e.g. an empty per-tenant token bucket); ``None`` considers
        every flow. It is asked lazily, in (finish tag, flow name)
        order, only up to the first flow it accepts."""
        heads = self._heads
        for position, (_finish, flow) in enumerate(heads):
            if eligible is None or eligible(flow):
                break
        else:
            return None
        del heads[position]
        queue = self._queues[flow]
        start, _finish, item = queue.pop(0)
        if queue:
            insort(heads, (queue[0][1], flow))
        self._vtime = max(self._vtime, start)
        self._size -= 1
        return flow, item


@dataclass
class Admission:
    """An admitted job's ticket: how it was admitted and at what cost.

    ``fanout_scale`` is 1.0 for a full-strength admission; under the
    ``degrade`` policy a saturated controller admits with a scale in
    (0, 1) and the job should shrink its core fanout accordingly.
    """

    site: str
    waited_cycles: float = 0.0
    degraded: bool = False
    fanout_scale: float = 1.0

    def fanout(self, cores):
        """Apply the scale to a core list (at least one core kept)."""
        cores = list(cores)
        if not self.degraded or self.fanout_scale >= 1.0:
            return cores
        keep = max(1, int(len(cores) * self.fanout_scale))
        return cores[:keep]


class AdmissionController:
    """Gate for ``DPU.launch`` / cluster jobs: queue, shed, or degrade.

    Policies:

    * ``queue`` — wait (in simulation time) for a token and a slot;
      the wait queue itself is bounded by ``max_queue_depth``, beyond
      which even the queue policy sheds (unbounded queues are how
      overload turns into collapse);
    * ``shed`` — if a token or slot is not immediately available,
      raise :class:`OverloadError`;
    * ``degrade`` — admit immediately, but when the controller is
      saturated return a ticket asking the job to halve its fanout
      (a smaller job finishes and frees capacity sooner).
    """

    POLICIES = ("queue", "shed", "degrade")

    def __init__(
        self,
        engine: Engine,
        max_concurrent: int = 4,
        rate_per_kcycle: float = 0.0,
        burst: float = 1.0,
        policy: str = "queue",
        max_queue_depth: int = 64,
        degrade_scale: float = 0.5,
        name: str = "admission",
    ) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}: {policy}")
        self.engine = engine
        self.policy = policy
        self.max_queue_depth = max_queue_depth
        self.degrade_scale = degrade_scale
        self.name = name
        self.limiter = ConcurrencyLimiter(engine, max_concurrent)
        self.bucket = (
            TokenBucket(rate_per_kcycle, burst) if rate_per_kcycle > 0 else None
        )
        # Each decision is counted once, here. A DPU files these
        # counters under ``<dpu>.<name>.*``, a cluster under
        # ``<name>.*``; the three decision counters read 0 from the
        # first sample on.
        self.counters = CounterRegistry()
        for decision in ("admitted", "shed", "degraded"):
            self.counters.register(decision)
        # Observability hooks; DPU.enable_tracing swaps in a live
        # tracer, DPU.enable_metrics a live hub (wait-latency digest).
        self.trace = NULL_TRACER
        self.metrics = NULL_HUB
        # Jobs the degrade policy admitted past the slot limit (they
        # run at reduced fanout instead of waiting for a slot).
        self._over_admitted = 0

    # -- introspection -----------------------------------------------------

    @property
    def admitted(self) -> int:
        return int(self.counters.get("admitted"))

    @property
    def shed(self) -> int:
        return int(self.counters.get("shed"))

    @property
    def degraded(self) -> int:
        return int(self.counters.get("degraded"))

    def occupancy(self) -> Dict:
        """Snapshot attached to every shed decision."""
        snap = {
            "running": self.limiter.running + self._over_admitted,
            "queued": self.limiter.queued,
            "limit": self.limiter.limit,
        }
        if self._over_admitted:
            snap["over_admitted"] = self._over_admitted
        if self.bucket is not None:
            snap["tokens"] = self.bucket.tokens
        return snap

    @property
    def saturated(self) -> bool:
        return self.limiter.running >= self.limiter.limit

    def _trace_decision(self, decision: str, site: str) -> None:
        if self.trace.enabled:
            self.trace.instant(f"{self.name}.{decision}", unit=self.name,
                               site=site, **self.occupancy())

    # -- admission (process world) -----------------------------------------

    def acquire(self, site: str = "job"):
        """Process generator: admit one job, returning its ticket.

        The caller owns a slot on success and must call
        :meth:`release` exactly once when the job retires.
        """
        began = self.engine.now
        degraded = False
        if self.policy == "shed":
            if self.saturated:
                self.counters.add("shed")
                self._trace_decision("shed", site)
                raise OverloadError(
                    f"{site} shed: all {self.limiter.limit} job slots busy",
                    site=site,
                    sim_time=self.engine.now,
                    limit=self.limiter.limit,
                    queue_depth=self.limiter.queued,
                    occupancy=self.occupancy(),
                )
            if self.bucket is not None and not self.bucket.try_take(began):
                self.counters.add("shed")
                self._trace_decision("shed", site)
                raise OverloadError(
                    f"{site} shed: arrival rate above admission budget",
                    site=site,
                    sim_time=self.engine.now,
                    limit=self.limiter.limit,
                    occupancy=self.occupancy(),
                )
        elif self.policy == "queue":
            if self.limiter.queued >= self.max_queue_depth:
                self.counters.add("shed")
                self._trace_decision("shed", site)
                raise OverloadError(
                    f"{site} shed: admission queue full "
                    f"({self.limiter.queued} waiting)",
                    site=site,
                    sim_time=self.engine.now,
                    limit=self.limiter.limit,
                    queue_depth=self.limiter.queued,
                    occupancy=self.occupancy(),
                )
            if self.bucket is not None:
                wait = self.bucket.cycles_until_available(began)
                if wait == float("inf"):
                    raise OverloadError(
                        f"{site} shed: request exceeds token burst",
                        site=site,
                        sim_time=self.engine.now,
                        occupancy=self.occupancy(),
                    )
                if wait > 0:
                    yield self.engine.timeout(wait)
                self.bucket.try_take(self.engine.now)
        over_commit = False
        if self.policy == "degrade":
            slotless = self.saturated
            token_less = (
                self.bucket is not None and not self.bucket.try_take(began)
            )
            degraded = slotless or token_less
            # A saturated degrade admission over-commits: the job runs
            # now at reduced fanout rather than waiting for a slot.
            over_commit = slotless
            if degraded:
                self.counters.add("degraded")
                self._trace_decision("degrade", site)
        self.counters.peak("queue_peak", self.limiter.queued + 1)
        if over_commit:
            self._over_admitted += 1
        else:
            yield self.limiter.acquire()
        waited = self.engine.now - began
        if waited > 0:
            self.counters.add("wait_cycles", waited)
        if self.metrics.enabled:
            self.metrics.observe(f"{self.name}.wait_cycles", waited)
        self.counters.add("admitted")
        self.counters.peak(
            "running_peak", self.limiter.running + self._over_admitted
        )
        if self.trace.enabled:
            if waited > 0:
                self.trace.complete_async(f"{self.name}.queue_wait",
                                          self.name, began, site=site)
            self.trace.counter(f"{self.name}.jobs", unit=self.name,
                               running=self.limiter.running
                               + self._over_admitted,
                               queued=self.limiter.queued)
        return Admission(
            site=site,
            waited_cycles=waited,
            degraded=degraded,
            fanout_scale=self.degrade_scale if degraded else 1.0,
        )

    def release(self) -> None:
        if self._over_admitted > 0:
            self._over_admitted -= 1
        else:
            self.limiter.release()


class MemoryGovernor:
    """Up-front memory grants so operators spill instead of dying.

    An operator declares its working-set need *before* allocating; a
    denied grant tells it to run with a smaller footprint (more waves
    / spilled partitions at modelled DMS cost) while producing
    byte-identical results. The governor bounds *reserved* bytes, a
    budget independent of (and typically below) physical capacity, so
    concurrent operators cannot jointly exhaust the heap.
    """

    def __init__(self, limit_bytes: int, name: str = "memgov") -> None:
        if limit_bytes <= 0:
            raise ValueError(f"grant budget must be positive: {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self.granted_bytes = 0
        # Denials and granted bytes, each counted once, here.
        self.counters = CounterRegistry()
        self.name = name

    @property
    def denials(self) -> int:
        return int(self.counters.get("denied"))

    def try_grant(self, nbytes: int, site: str = "") -> bool:
        """Reserve ``nbytes``; False means run degraded (spill)."""
        if nbytes <= 0:
            raise ValueError(f"grant must be positive: {nbytes}")
        if self.granted_bytes + nbytes > self.limit_bytes:
            self.counters.add("denied")
            return False
        self.granted_bytes += nbytes
        self.counters.add("granted_bytes", nbytes)
        self.counters.peak("granted_peak", self.granted_bytes)
        return True

    def grant_or_largest(self, nbytes: int, floor: int, site: str = "") -> int:
        """Grant ``nbytes`` if possible, else the largest multiple of
        ``floor`` that fits (at least ``floor``). Returns the granted
        size; operators size their wave/partition buffers from it."""
        if self.try_grant(nbytes, site):
            return nbytes
        available = self.limit_bytes - self.granted_bytes
        scaled = max(floor, (available // floor) * floor)
        self.granted_bytes += scaled
        self.counters.add("granted_bytes", scaled)
        self.counters.peak("granted_peak", self.granted_bytes)
        return scaled

    def release_grant(self, nbytes: int) -> None:
        if nbytes > self.granted_bytes:
            raise ValueError(
                f"releasing {nbytes} B but only {self.granted_bytes} B granted"
            )
        self.granted_bytes -= nbytes

    def stats_snapshot(self) -> Dict:
        return {
            "limit_bytes": self.limit_bytes,
            "granted_bytes": self.granted_bytes,
            "denials": self.denials,
        }
