"""Rack-level fault tolerance for distributed ``cluster_*`` jobs.

The paper scaled applications "across 500+ DPU clusters"; at that
scale whole-node failure is routine, not exceptional — and the
coordinator is just another node inside some failure domain. This
module adds the distributed-systems half of resilience on top of the
single-DPU machinery in :mod:`repro.faults`:

* **Failure detection** — an A9 control-plane detector generalized to
  all-to-all leases: every live DPU's A9 heartbeats every other live
  A9 over the :class:`~repro.cluster.network.IBFabric`. Receipt of a
  heartbeat renews the sender's lease in a table shared by every
  observer (a gossip-merged view: one peer hearing from a node keeps
  it alive for all, so a minority partition can never depose a leader
  the majority still hears). Lease >> heartbeat interval (validated
  in :class:`RecoveryConfig`), and leases are re-granted at every
  collect-phase start, so a fault-free run can never false-positive.

* **Leader election** — the coordinator role is leased, not pinned.
  When the current leader's lease expires at the surviving endpoints,
  the lowest live DPU index becomes the new leader (deterministic, no
  ballots needed: membership is totally ordered and every survivor
  shares the lease table). The election is recorded in
  ``RecoveryStats.leader_changes`` / ``elections``.

* **Replicated job journal** — before acting on a received shard, the
  leader's A9 streams an acknowledgement record (carrying the shard
  partial) to ``RecoveryConfig.standby_count`` standby A9s over the
  fabric. On takeover the new leader replays its journal replica:
  shards whose ack reached it are merged as-is; shards the old leader
  accepted but failed to replicate are simply re-requested — correct
  because every kernel is deterministic and the merge is idempotent.
  Replication traffic is surfaced as ``journal_bytes`` /
  ``journal_records``.

* **Deterministic recovery** — job inputs are DDR-resident on their
  home DPU *and* durable (row-sharded from host tables), so a lost
  shard is re-executed on a surviving DPU and yields the exact same
  partial. The merge is idempotent (per-shard dedup, merge in shard
  order), so retried, speculative and duplicate partials cannot
  change the result — the recovered answer is byte-equal to the
  fault-free reference even when the job ran under two leaders.

* **Epoch-tagged exchanges** — every message carries
  ``(job_tag, epoch)``. A death (worker or leader) bumps the epoch
  and invalidates the affected shards' assignments; packets from a
  dead epoch are discarded on arrival (``stale_discards``), so a
  restarted shuffle cannot consume bytes addressed under a stale
  ownership map — including uplinks still addressed to a dead leader.

* **Straggler mitigation** — a worker inside a seeded ``dpu.slow``
  window has its A9 job-side sends dilated by the spec's factor.
  When a shard stalls past the patience threshold while its owner's
  lease is current, the leader launches a speculative copy on a
  second DPU; first result wins through the same dedup.

The simulator constraint that shapes the control flow: ``dpu.launch``
drives the shared engine, so kernels cannot be launched from inside a
simulation process. Recovery therefore alternates *host-side* compute
(launches on current shard owners) with *bounded simulation phases*
(heartbeats + epoch-tagged sends + a lease-guarded collector at the
current leader and at every other live endpoint), looping until every
shard has arrived — the classic coordinator retry loop, with the
event clock advancing through every phase. A phase ends when its last
expected message lands; it always terminates: the leader's collector
bounds itself by the stall patience, and every other collector exits
when the phase ends, on its own endpoint's death, or by reporting the
leader's lease expiry.

:meth:`RecoveryManager.run_exchange` and :meth:`RecoveryManager.run_job`
are the cluster's only exchange and only gather. A manager is *armed*
when the cluster's :class:`~repro.faults.FaultPlan` carries chaos
specs or a :class:`RecoveryConfig` is given; a cluster without either
runs each job through a fresh unarmed manager, which takes only the
fault-free steps — no heartbeats, journal records, lease checks or
speculation; its collectors are bounded only by the fabric's gather
lease — so ``FaultPlan.none()`` stays bit-identical to the
equivalence goldens with zero journal-replication bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.mailbox import A9_ID
from ..faults import FaultError
from ..sim import DeadlockError, Watchdog

__all__ = [
    "ClusterError",
    "RecoveryConfig",
    "RecoveryManager",
    "RecoveryStats",
]

HEARTBEAT_BYTES = 16  # one verbs inline send: seq + source id
JOURNAL_HEADER_BYTES = 32  # job tag + epoch + shard key + owner framing


class ClusterError(RuntimeError):
    """A distributed job failed fast instead of hanging.

    Carries the diagnosis a rack operator needs: which job, at what
    sim time, which DPUs were missing, which coordinator generation
    (``epoch``) under which ``leader`` was in charge, and the fabric
    counter snapshot at the moment of failure.
    """

    def __init__(
        self,
        site: str,
        cycle: float,
        missing: Sequence[int] = (),
        fabric: Optional[Dict[str, float]] = None,
        reason: str = "gather lease expired",
        epoch: Optional[int] = None,
        leader: Optional[int] = None,
    ) -> None:
        self.site = site
        self.cycle = float(cycle)
        self.missing = tuple(sorted(set(missing)))
        self.fabric = dict(fabric or {})
        self.reason = reason
        self.epoch = epoch
        self.leader = leader
        generation = ""
        if epoch is not None or leader is not None:
            generation = (f"epoch {epoch} under leader "
                          f"{leader}; ")
        super().__init__(
            f"cluster job {site!r} failed at cycle {self.cycle:.0f}: "
            f"{reason}; missing DPUs {list(self.missing)}; "
            f"{generation}fabric counters {self.fabric}"
        )


@dataclass(frozen=True)
class RecoveryConfig:
    """Detector and retry tuning (cycles at the DPU clock)."""

    # Peer A9 -> peer A9 heartbeat period (all-to-all). Also the
    # granule at which a waiting collector wakes to re-evaluate leases.
    heartbeat_interval_cycles: float = 50_000.0
    # Liveness lease: a peer with no heartbeat for this long is
    # declared dead. Must dominate several heartbeat round trips
    # (interval + verbs overheads + switch latency) so a live,
    # unpartitioned peer can never be declared dead.
    lease_cycles: float = 250_000.0
    # A shard whose owner is still leased-alive but whose partial has
    # not arrived for this long is considered stuck (partition in
    # flight or straggler) and triggers a resend, then a speculative
    # re-execution on a second DPU.
    stall_patience_cycles: float = 300_000.0
    # Host-side retry budget: rounds of (compute, send, collect) per
    # job phase before giving up with ClusterError.
    max_rounds: int = 12
    # Per-phase event budget (livelock guard on the shared engine).
    watchdog_events: int = 50_000_000
    # Standby A9s the leader replicates its job journal to, so a
    # takeover can replay received-shard acknowledgements instead of
    # re-running the whole job. 0 disables replication (a leader kill
    # then re-runs every shard not yet merged).
    standby_count: int = 1

    def __post_init__(self) -> None:
        if self.heartbeat_interval_cycles <= 0:
            raise FaultError(
                f"heartbeat interval must be positive: "
                f"{self.heartbeat_interval_cycles}"
            )
        if self.lease_cycles < 4 * self.heartbeat_interval_cycles:
            raise FaultError(
                f"lease {self.lease_cycles} must cover >= 4 heartbeat "
                f"intervals of {self.heartbeat_interval_cycles} — a "
                "tighter lease can declare a live worker dead"
            )
        if self.stall_patience_cycles < self.lease_cycles:
            raise FaultError(
                f"stall patience {self.stall_patience_cycles} must be >= "
                f"the lease {self.lease_cycles}: a dead owner should be "
                "declared before its shard is treated as merely stuck"
            )
        if self.max_rounds < 1:
            raise FaultError(f"max_rounds must be >= 1: {self.max_rounds}")
        if self.standby_count < 0:
            raise FaultError(
                f"standby_count must be >= 0: {self.standby_count}"
            )


@dataclass
class RecoveryStats:
    """Per-job recovery outcome (reset at every job start)."""

    site: str = ""
    rounds: int = 0
    epochs: int = 0
    heartbeats_sent: int = 0
    reexecuted_shards: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    stale_discards: int = 0
    duplicates: int = 0
    resends: int = 0
    # (dpu index, declared-at cycle, detection latency in cycles from
    # the injected failure instant — None if no spec matches).
    detections: List[Tuple[int, float, Optional[float]]] = field(
        default_factory=list
    )
    declared_dead: Tuple[int, ...] = ()
    # Coordinator failover: one entry per takeover as
    # (old leader, new leader, elected-at cycle, election latency in
    # cycles from the injected failure instant — None if no spec
    # matches).
    leader_changes: int = 0
    elections: List[Tuple[int, int, float, Optional[float]]] = field(
        default_factory=list
    )
    # Journal replication cost (leader -> standby acknowledgement
    # stream); zero without chaos, zero with standby_count=0.
    journal_records: int = 0
    journal_bytes: int = 0

    @property
    def detection_latency_cycles(self) -> Optional[float]:
        """Latency of the first declaration this job made."""
        for _dpu, _cycle, latency in self.detections:
            if latency is not None:
                return latency
        return None

    @property
    def leader_election_latency_cycles(self) -> Optional[float]:
        """Kill-instant-to-takeover latency of the first election."""
        for _old, _new, _cycle, latency in self.elections:
            if latency is not None:
                return latency
        return None

    def counters(self) -> Dict[str, float]:
        """Scalar view for the cluster counter registry."""
        latency = self.detection_latency_cycles
        election = self.leader_election_latency_cycles
        return {
            "rounds": self.rounds,
            "epochs": self.epochs,
            "heartbeats_sent": self.heartbeats_sent,
            "reexecuted_shards": self.reexecuted_shards,
            "speculative_launches": self.speculative_launches,
            "speculative_wins": self.speculative_wins,
            "stale_discards": self.stale_discards,
            "duplicates": self.duplicates,
            "resends": self.resends,
            "detections": len(self.detections),
            "detection_latency_cycles": (
                latency if latency is not None else 0.0
            ),
            "leader_changes": self.leader_changes,
            "leader_election_latency_cycles": (
                election if election is not None else 0.0
            ),
            "journal_records": self.journal_records,
            "journal_bytes": self.journal_bytes,
        }


class RecoveryManager:
    """Leader-side fault tolerance for one :class:`Cluster`.

    Owns the failure detector state (leases, declared-dead set), the
    current leader and its standby set, the replicated job journal,
    the global epoch counter, and the retry loops that run every
    ``cluster_*`` job's exchanges and gather to completion — under
    the cluster's chaos plan when armed, in one fault-free round when
    not. Any DPU — including the initial coordinator, DPU 0 — may be a
    chaos target: a killed leader is detected by the surviving
    endpoints' lease checks and the lowest live index takes over.
    """

    def __init__(self, cluster, config: Optional[RecoveryConfig] = None) -> None:
        self.cluster = cluster
        self.config = config if config is not None else RecoveryConfig()
        self.plan = cluster.faults.plan
        # Armed by a chaos plan or an explicit config; unarmed, every
        # phase takes only the fault-free steps.
        self.armed = bool(self.plan.chaos) or config is not None
        self.stats = RecoveryStats()
        self.declared_dead: Set[int] = set()
        # Gossip-merged lease table: peer index -> last cycle any live
        # endpoint drained one of its heartbeats.
        self.last_seen: Dict[int, float] = {}
        self.epoch = 0
        self.leader = 0
        self._job_tag = 0
        self._hb_generation = 0
        self._slow = self.plan.chaos_for("dpu.slow")
        self._installed = False
        # Standby replicas of the leader's ack journal:
        # endpoint -> {shard key -> (value, owner)}; reset per job.
        self._journal: Dict[int, Dict[Any, Tuple[Any, int]]] = {}
        # Final slot -> owner map of the most recent run_exchange, so
        # the caller can run post-shuffle local compute (and the gather
        # that follows) on the DPUs that actually own each slot.
        self.last_slot_owner: Dict[int, int] = {}

    # -- chaos installation -------------------------------------------------

    def install(self) -> None:
        """Register the plan's scheduled kills and partition windows
        with the fabric. Any DPU — including the initial coordinator,
        DPU 0 — may be targeted; the only invariant is that at least
        one DPU survives to finish the job. Idempotent; called at
        cluster construction."""
        if self._installed:
            return
        self._installed = True
        fabric = self.cluster.fabric
        doomed: Set[int] = set()
        for spec in self.plan.chaos_for("dpu.dead"):
            for target in spec.targets:
                if target < self.cluster.num_dpus:
                    doomed.add(target)
                    fabric.schedule_kill(target, spec.at_cycle)
        if len(doomed) >= self.cluster.num_dpus:
            raise FaultError(
                f"chaos plan kills all {self.cluster.num_dpus} DPUs — "
                "at least one must survive to complete the job"
            )
        for spec in self.plan.chaos_for("fabric.partition"):
            targets = [t for t in spec.targets if t < self.cluster.num_dpus]
            if targets:
                fabric.sever(targets, spec.at_cycle, spec.end_cycle)

    def slow_delay(self, dpu_index: int) -> float:
        """Extra A9-side cycles for a job send beginning now on a
        straggling DPU: work inside a ``dpu.slow`` window runs at
        ``1/factor`` speed, so the window's remainder stretches by
        ``(factor - 1) x``."""
        if not self._slow:
            return 0.0
        now = self.cluster.engine.now
        extra = 0.0
        for spec in self._slow:
            if dpu_index in spec.targets and spec.at_cycle <= now < spec.end_cycle:
                extra += (spec.end_cycle - now) * (spec.factor - 1.0)
        return extra

    # -- membership ---------------------------------------------------------

    def alive(self) -> List[int]:
        """DPUs the detector currently believes are alive."""
        return [i for i in range(self.cluster.num_dpus)
                if i not in self.declared_dead]

    def standbys(self) -> List[int]:
        """The journal replica set: the ``standby_count`` lowest live
        indices after the current leader (recomputed per phase, so a
        dead standby is replaced at the next round); none unarmed."""
        if not self.armed or self.config.standby_count <= 0:
            return []
        live = [i for i in self.alive() if i != self.leader]
        return live[:self.config.standby_count]

    def _survivor_for(self, key: Any, exclude: Tuple[int, ...] = ()) -> int:
        """Deterministic survivor choice for a lost/stuck shard."""
        candidates = [i for i in self.alive() if i not in exclude]
        if not candidates:
            raise self._error(
                self.stats.site, sorted(self.declared_dead),
                "no surviving DPUs to re-execute on",
            )
        return candidates[hash(key) % len(candidates)]

    def _error(self, site: str, missing: Sequence[int],
               reason: str) -> ClusterError:
        """Build a ClusterError carrying the current coordinator
        generation, emitting the post-mortem trace instant."""
        fabric = self.cluster.fabric
        if fabric.trace.enabled:
            fabric.trace.instant(
                "cluster.error", unit="cluster", site=site,
                epoch=self.epoch, leader=self.leader, reason=reason,
            )
        return ClusterError(
            site, self.cluster.engine.now, missing=missing,
            fabric=fabric.counters(), reason=reason,
            epoch=self.epoch, leader=self.leader,
        )

    def _declare(self, victims: Sequence[int]) -> None:
        """Process lease expiries: mark dead, free fabric credits owed
        by the corpse, record detection latency against the injected
        failure instant."""
        engine = self.cluster.engine
        fabric = self.cluster.fabric
        now = engine.now
        for victim in sorted(victims):
            if victim in self.declared_dead:
                continue
            self.declared_dead.add(victim)
            fabric.declare_dead(victim)
            injected = [
                spec.at_cycle for spec in self.plan.chaos
                if victim in spec.targets and spec.at_cycle <= now
            ]
            latency = now - max(injected) if injected else None
            self.stats.detections.append((victim, now, latency))
            if fabric.trace.enabled:
                fabric.trace.instant(
                    "recover.declare_dead", unit="cluster",
                    dpu=victim, latency=latency,
                )
            metrics = self.cluster.metrics
            if metrics.enabled:
                metrics.annotate("recover.declare_dead", dpu=victim,
                                 latency=latency)
        self.stats.declared_dead = tuple(sorted(self.declared_dead))

    def _takeover(self, old_leader: int) -> int:
        """Depose ``old_leader`` and elect the lowest live index.

        Called when the surviving endpoints report the leader's lease
        expired. Declares the old leader dead, bumps the epoch (stale
        uplinks addressed to the corpse are discarded on arrival), and
        records the election with its kill-to-takeover latency."""
        engine = self.cluster.engine
        fabric = self.cluster.fabric
        now = engine.now
        self._declare([old_leader])
        alive = self.alive()
        if not alive:
            raise self._error(
                self.stats.site, sorted(self.declared_dead),
                "no surviving DPUs to elect a leader from",
            )
        new_leader = min(alive)
        self.leader = new_leader
        self.epoch += 1
        self.stats.epochs += 1
        self.stats.leader_changes += 1
        injected = [
            spec.at_cycle for spec in self.plan.chaos
            if old_leader in spec.targets and spec.at_cycle <= now
        ]
        latency = now - max(injected) if injected else None
        self.stats.elections.append((old_leader, new_leader, now, latency))
        if fabric.trace.enabled:
            fabric.trace.instant(
                "recover.leader_elected", unit="cluster",
                old_leader=old_leader, new_leader=new_leader,
                epoch=self.epoch, latency=latency,
            )
        metrics = self.cluster.metrics
        if metrics.enabled:
            metrics.annotate("recover.leader_elected",
                             old_leader=old_leader, new_leader=new_leader,
                             epoch=self.epoch)
        return new_leader

    def _grant_leases(self) -> None:
        """Re-grant every live peer a full lease. Called at each
        collect-phase start so silence accrued while the host ran
        local compute (when nobody was draining heartbeats) can never
        be mistaken for death."""
        now = self.cluster.engine.now
        for index in self.alive():
            current = self.last_seen.get(index, now)
            self.last_seen[index] = max(current, now)

    # -- job lifecycle ------------------------------------------------------

    @classmethod
    @contextmanager
    def for_job(cls, cluster, site: str):
        """The manager that runs one job's exchanges and gather: the
        cluster's own when armed, else a fresh unarmed one that holds
        nothing once the job ends. The job begins on entry and ends on
        exit."""
        manager = cluster.recovery or cls(cluster)
        manager.begin_job(site)
        try:
            yield manager
        finally:
            manager.end_job()

    def begin_job(self, site: str) -> None:
        """Reset per-job stats and journal, bump the job tag (stale
        cross-job packets are discarded on arrival), start heartbeat
        daemons when armed."""
        self._job_tag += 1
        self.stats = RecoveryStats(site=site)
        self._journal = {}
        if self.leader in self.declared_dead:
            # A takeover in an earlier job already counted the change;
            # this only re-derives the invariant leader = min(alive).
            self.leader = min(self.alive())
        if self.armed:
            self._grant_leases()
            self._start_heartbeats()

    def end_job(self) -> None:
        """Retire this job's heartbeat daemons (each exits at its next
        wakeup; the generation check makes leftovers inert)."""
        self._hb_generation += 1

    def _start_heartbeats(self) -> None:
        engine = self.cluster.engine
        fabric = self.cluster.fabric
        interval = self.config.heartbeat_interval_cycles
        self._hb_generation += 1
        generation = self._hb_generation

        for index in self.alive():

            def daemon(index=index):
                sequence = 0
                while generation == self._hb_generation:
                    if fabric.endpoint_dead(index):
                        return
                    # Fire-and-forget per-peer sends: one slow or dead
                    # peer's backpressure must not delay the beats the
                    # other peers use to keep this node leased.
                    for peer in self.alive():
                        if peer == index:
                            continue
                        engine.process(
                            fabric.send(index, peer,
                                        ("hb", index, sequence),
                                        HEARTBEAT_BYTES),
                            name=f"recover.hb[{index}->{peer}]",
                            daemon=True,
                        )
                        self.stats.heartbeats_sent += 1
                    sequence += 1
                    yield engine.timeout(interval)

            engine.process(daemon(), name=f"recover.hb[{index}]", daemon=True)

    # -- bounded simulation phases ------------------------------------------

    def _post(self, owner: int, kind: str,
              messages: Sequence[Tuple[int, Any, Any, int]]) -> None:
        """The paper's send path: core 0 of ``owner`` mailboxes one list
        of ``(dst, key, value, nbytes)`` to its A9, which posts each
        entry to the fabric as an epoch-tagged ``kind`` message, one
        after another, dilated when the post starts inside a
        ``dpu.slow`` window. The list rides the mailbox, so two posts
        in flight on one DPU can never cross-deliver."""
        engine = self.cluster.engine
        fabric = self.cluster.fabric
        dpu = self.cluster.dpus[owner]
        tag, epoch = self._job_tag, self.epoch

        def core_side():
            yield from dpu.context(0).mbox_send(A9_ID, messages)

        def a9_side():
            _src, posts = yield from dpu.mailbox.receive(A9_ID)
            for dst, key, value, nbytes in posts:
                delay = self.slow_delay(owner)
                if delay:
                    yield engine.timeout(delay)
                yield from fabric.send(
                    owner, dst, (kind, tag, epoch, key, owner, value, nbytes),
                    nbytes,
                )

        engine.process(core_side(), name=f"a9.post[{owner}]")
        engine.process(a9_side(), name=f"a9.uplink[{owner}]")

    def _collector(self, endpoint: int, kind: str, needed: Set[Any],
                   arrivals: Dict[Any, Tuple[Any, int, int]],
                   min_epoch: Dict[Any, int], phase_end,
                   local: Optional[Set[Any]],
                   watch: Optional[Callable[[], Dict[Any, int]]],
                   journal: bool):
        """Build the collect process of ``endpoint`` for one phase.

        Drains epoch-tagged ``kind`` messages into ``arrivals`` as
        ``key -> (value, sender endpoint, receiver endpoint)`` (dedup
        by key, first result wins), and returns ``("halted", [])`` once
        its own endpoint is past its fail-stop instant.

        Unarmed, that is all: it returns ``("done", [])`` once its
        ``local`` keys (``None``: all of ``needed``) have arrived, each
        wait bounded by the fabric's gather lease; an expired lease
        ends the phase with ``("expired", keys still missing here)``.

        Armed, it also drains heartbeats into the lease table and
        journal records into the local replica, and runs until the
        phase ends, which the last needed key's arrival does. The
        leader's collector replicates each accepted acknowledgement to
        the standbys *before* recording the arrival (when ``journal``
        is set), evaluates worker leases via ``watch``, and bounds the
        phase by the stall patience; every other collector reports
        ``("leader_dead", [leader])`` if the leader's lease expires
        first. A phase can therefore never hang until the global
        watchdog.
        """
        engine = self.cluster.engine
        fabric = self.cluster.fabric
        config = self.config
        armed = self.armed
        leader = self.leader
        is_leader = endpoint == leader
        mine = needed if local is None else local
        standbys = self.standbys() if is_leader and journal else []
        wait = (config.heartbeat_interval_cycles if armed
                else fabric.config.gather_lease_cycles)

        def end(status, found=()):
            if not phase_end.triggered:
                phase_end.succeed()
            return (status, list(found))

        def process():
            last_progress = engine.now
            while True:
                if fabric.endpoint_dead(endpoint):
                    return ("halted", [])
                if phase_end.triggered or not (armed or mine & needed):
                    return ("done", [])
                timer = engine.timeout(wait)
                message = yield from fabric.receive(
                    endpoint, abort_event=engine.any_of([timer, phase_end]))
                timer.cancel()
                if message is None:
                    if not (armed or phase_end.triggered):
                        return end("expired", sorted(mine & needed))
                else:
                    if fabric.endpoint_dead(endpoint):
                        # Killed while the frame was in its inbox: a
                        # corpse must not ack or journal anything.
                        return ("halted", [])
                    src, payload = message
                    label = payload[0]
                    if label == "hb":
                        if payload[1] not in self.declared_dead:
                            self.last_seen[payload[1]] = engine.now
                    elif label == "jrn":
                        (_label, msg_tag, _epoch, jkey, jowner, jvalue,
                         _nbytes) = payload
                        if msg_tag == self._job_tag:
                            self._journal.setdefault(
                                endpoint, {})[jkey] = (jvalue, jowner)
                    elif label == kind:
                        (_label, msg_tag, epoch, key, owner, value,
                         nbytes) = payload
                        if msg_tag != self._job_tag or key not in min_epoch:
                            self.stats.stale_discards += 1
                        elif epoch < min_epoch[key]:
                            self.stats.stale_discards += 1
                        elif key not in needed:
                            self.stats.duplicates += 1
                        else:
                            if standbys:
                                # Replicate-before-ack: the record is
                                # on the wire to every standby before
                                # the leader treats the shard as
                                # received.
                                record = ("jrn", msg_tag, epoch, key,
                                          owner, value, nbytes)
                                for standby in standbys:
                                    self.stats.journal_records += 1
                                    self.stats.journal_bytes += (
                                        nbytes + JOURNAL_HEADER_BYTES)
                                    yield from fabric.send(
                                        endpoint, standby, record,
                                        nbytes + JOURNAL_HEADER_BYTES,
                                    )
                                if fabric.trace.enabled:
                                    fabric.trace.instant(
                                        "recover.journal", unit="cluster",
                                        key=repr(key),
                                        standbys=len(standbys),
                                        bytes=nbytes + JOURNAL_HEADER_BYTES,
                                    )
                            if key in needed:
                                needed.discard(key)
                                arrivals[key] = (value, src, endpoint)
                            else:
                                self.stats.duplicates += 1
                            last_progress = engine.now
                            if armed and not needed:
                                return end("done")
                    else:
                        # A different phase's payload family (e.g. an
                        # exchange pair landing during a gather): from
                        # an invalidated schedule, so it is stale.
                        self.stats.stale_discards += 1
                if not armed:
                    continue
                now = engine.now
                if is_leader and watch is not None:
                    owners = watch()
                    # The leader is the detector itself: it sends no
                    # heartbeats to itself, so it is never a suspect.
                    victims = sorted({
                        owner for owner in owners.values()
                        if owner != leader
                        and owner not in self.declared_dead
                        and now - self.last_seen.get(owner, now)
                        > config.lease_cycles
                    })
                    if victims:
                        return end("dead", victims)
                if (not is_leader and leader not in self.declared_dead
                        and now - self.last_seen.get(leader, now)
                        > config.lease_cycles):
                    return end("leader_dead", [leader])
                if (is_leader and now - last_progress
                        > config.stall_patience_cycles):
                    return end("stalled")

        return engine.process(process(), name=f"a9.collect[{endpoint}]")

    def _collect(self, site: str, kind: str,
                 collect: Dict[int, Optional[Set[Any]]], needed: Set[Any],
                 arrivals: Dict[Any, Tuple[Any, int, int]],
                 min_epoch: Dict[Any, int],
                 source_of: Callable[[Any], int],
                 watch: Optional[Callable[[], Dict[Any, int]]] = None,
                 journal: bool = False) -> Tuple[List[Tuple[str, list]], float]:
        """Run one bounded collect phase; returns each collector's
        ``(status, found)`` and the phase's span in cycles.

        ``collect`` maps each receiving endpoint to the keys addressed
        to it (``None``: all of ``needed``). Armed, the leader and
        every other live endpoint run a collector too, so heartbeats
        and journal records keep draining and a dead leader is
        detected. Unarmed, a message that never lands raises a
        structured :class:`ClusterError` naming its source DPUs (and
        any collecting endpoint that halted). Engine deadlock or
        livelock also becomes a ClusterError."""
        engine = self.cluster.engine
        endpoints = sorted(collect)
        if self.armed:
            endpoints += [endpoint for endpoint
                          in dict.fromkeys([self.leader] + self.alive())
                          if endpoint not in collect]
            self._grant_leases()
        phase_end = engine.event()
        participants = [
            self._collector(endpoint, kind, needed, arrivals, min_epoch,
                            phase_end, collect.get(endpoint, set()), watch,
                            journal)
            for endpoint in endpoints
        ]
        missing = sorted({source_of(key) for key in needed})
        began = engine.now
        previous = engine.watchdog
        engine.watchdog = Watchdog(max_events=self.config.watchdog_events)
        metrics = self.cluster.metrics
        if metrics.enabled:
            metrics.touch()
        try:
            engine.run_until_complete(engine.all_of(participants),
                                      limit=10**13)
        except DeadlockError as error:
            raise self._error(site, missing, str(error)) from error
        finally:
            engine.watchdog = previous
            if metrics.enabled:
                metrics.flush()
        results = [participant.value for participant in participants]
        if not self.armed and needed:
            expired = [key for status, found in results
                       if status == "expired" for key in found]
            halted = {endpoint for endpoint, (status, _found)
                      in zip(endpoints, results) if status == "halted"}
            got = f"{len(arrivals)}/{len(arrivals) + len(needed)} {kind}s"
            lease = self.cluster.fabric.config.gather_lease_cycles
            reason = (f"lease of {lease:.0f} cycles expired" if expired
                      else f"collecting endpoints {sorted(halted)} halted")
            raise self._error(
                site, sorted({source_of(key) for key in expired} | halted),
                f"{reason} with {got}",
            )
        return results, engine.now - began

    # -- the merge-family retry loop ----------------------------------------

    def run_job(
        self,
        site: str,
        compute: Callable[[int, Any], Any],
        merge: Callable[[Any, Any], Any],
        nbytes_of: Callable[[Any], int],
        owners: Optional[Dict[int, int]] = None,
    ) -> Tuple[Any, float]:
        """The gather: one partial per DPU, or per exchange slot when
        ``owners`` maps the slots of a preceding :meth:`run_exchange`
        to their owners, shipped to the leader and merged — in one
        fault-free round unarmed, to completion under faults armed.

        ``compute(index, dpu)`` is host-side (it may call
        ``dpu.launch``) and must be deterministic — re-execution on a
        survivor must reproduce the lost partial exactly. Partials are
        merged in index order after per-index dedup, so duplicates and
        speculative copies cannot perturb the result, and the merge
        happens exactly once, on the final leader, after every partial
        has arrived — one result per job even when the job internally
        ran under two leaders. Returns ``(merged value, gather
        cycles)``: the summed span of the collect phases, which
        excludes every launch.
        """
        cluster = self.cluster
        config = self.config
        count = cluster.num_dpus
        shard_owner: Dict[int, int] = (
            dict(owners) if owners else {k: k for k in range(count)}
        )
        rerouted: Set[int] = set()
        for key in sorted(shard_owner):
            if shard_owner[key] in self.declared_dead:
                shard_owner[key] = self._survivor_for(key)
                rerouted.add(key)
        needed: Set[int] = set(range(count))
        arrivals: Dict[int, Tuple[Any, int, int]] = {}
        min_epoch = {key: self.epoch for key in needed}
        values: Dict[int, Any] = {}
        value_owner: Dict[int, int] = {}
        stall_strikes: Dict[int, int] = {key: 0 for key in needed}
        backups: Dict[int, int] = {}
        span = 0.0

        for round_index in range(config.max_rounds):
            self.stats.rounds += 1
            leader = self.leader
            # Host phase: (re-)execute missing shards on their current
            # owners from the durable inputs.
            for key in sorted(needed):
                owner = shard_owner[key]
                if value_owner.get(key) != owner:
                    recompute = key in value_owner or key in rerouted
                    values[key] = compute(key, cluster.dpus[owner])
                    value_owner[key] = owner
                    if recompute:
                        self.stats.reexecuted_shards += 1
            # Simulation phase: every owner posts its partial to the
            # current leader's collector.
            for key in sorted(needed):
                if round_index > 0:
                    self.stats.resends += 1
                self._post(shard_owner[key], "partial", [
                    (leader, key, values[key], nbytes_of(values[key]))])
            results, cycles = self._collect(
                site, "partial", {leader: None}, needed, arrivals,
                min_epoch, shard_owner.__getitem__,
                watch=lambda: {k: shard_owner[k] for k in needed},
                journal=True,
            )
            span += cycles
            dethroned = any(status == "leader_dead" for status, _ in results)
            status, victims = results[0]
            if dethroned:
                self._takeover(leader)
                # Journal replay: the new leader knows exactly the
                # acknowledgements that reached its replica; anything
                # the old leader accepted but failed to replicate is
                # simply re-requested under the new epoch.
                replica = self._journal.get(self.leader, {})
                metrics = self.cluster.metrics
                if metrics.enabled:
                    metrics.annotate("recover.journal_replay",
                                     leader=self.leader,
                                     records=len(replica))
                arrivals.clear()
                for key, (value, owner) in replica.items():
                    if key in min_epoch:
                        arrivals[key] = (value, owner, self.leader)
                needed.clear()
                needed.update(k for k in range(count)
                              if k not in arrivals)
                for key in sorted(needed):
                    min_epoch[key] = self.epoch
                    if shard_owner[key] in self.declared_dead:
                        shard_owner[key] = self._survivor_for(key)
                        rerouted.add(key)
                if not needed:
                    break
            elif status == "done":
                break
            elif status == "dead":
                self._declare(victims)
                self.epoch += 1
                self.stats.epochs += 1
                for key in sorted(needed):
                    if shard_owner[key] in self.declared_dead:
                        shard_owner[key] = self._survivor_for(key)
                        min_epoch[key] = self.epoch
            else:  # stalled: resend, then speculate on a second DPU
                for key in sorted(needed):
                    stall_strikes[key] += 1
                    if stall_strikes[key] >= 2 and key not in backups:
                        owner = shard_owner[key]
                        backup = self._survivor_for(key, exclude=(owner,))
                        backups[key] = backup
                        self.stats.speculative_launches += 1
                        if self.cluster.metrics.enabled:
                            self.cluster.metrics.annotate(
                                "recover.speculative_launch",
                                shard=key, backup=backup,
                            )
                        backup_value = compute(key, cluster.dpus[backup])
                        self._post(backup, "partial", [
                            (self.leader, key, backup_value,
                             nbytes_of(backup_value))])
        if needed:
            raise self._error(
                site, sorted({shard_owner[k] for k in needed}),
                f"recovery budget of {config.max_rounds} rounds "
                f"exhausted with shards {sorted(needed)} missing",
            )
        self.stats.speculative_wins += sum(
            1 for key, backup in backups.items()
            if key in arrivals and arrivals[key][1] == backup
        )
        merged = None
        for key in range(count):
            merged = merge(merged, arrivals[key][0])
        return merged, span

    # -- the restartable exchange -------------------------------------------

    def run_exchange(self, site: str, dtables: Sequence, key: str,
                     names: Sequence[str]):
        """The all-to-all exchange: repartition ``dtables`` — one
        :class:`~repro.apps.sql.table.DpuTable` per logical slot,
        resident on the DPU of the same index — by ``hash(key)`` so
        equal keys co-locate. Each slot's owner partitions it with the
        DMS hash engine; then every owner's A9 posts its pairs in a
        rotated order (owner s to s+1, s+2, ...) and each destination
        collects its own. Returns a
        :class:`~repro.cluster.shuffle.ShuffleResult` whose
        ``exchange_cycles`` is the summed span of the collect phases,
        after the partition launches.

        Armed, the exchange is epoch-tagged and restartable: the slot
        space stays the original power-of-two fanout (the hash
        engine's radix does not change when a node dies); a dead slot
        owner's shard — the leader's included — is stored and
        re-partitioned on a survivor from the durable host table and
        its pairs re-sent under a new epoch. The leader replicates the
        round's epoch and slot-owner map to its standbys so a takeover
        resumes the exchange instead of restarting it.
        """
        from ..apps.sql.aggregate import _parse_records
        from .shuffle import ShuffleResult, partition_source

        cluster = self.cluster
        config = self.config
        # Key column first — the layout partition_source serialises.
        names = [key] + [n for n in names if n != key]
        num_slots = cluster.num_dpus
        slots = range(num_slots)
        slot_owner: Dict[int, int] = {}
        for slot in slots:
            slot_owner[slot] = (slot if slot not in self.declared_dead
                                else self._survivor_for(slot))

        partitions: Dict[int, List[np.ndarray]] = {}
        partition_owner: Dict[int, int] = {}
        partition_cycles = 0.0
        record_width = 0
        dtypes = None
        span = 0.0
        arrivals: Dict[Tuple[int, int], Tuple[np.ndarray, int, int]] = {}
        min_epoch: Dict[Tuple[int, int], int] = {
            (s, d): self.epoch for s in slots for d in slots if s != d
        }
        stall_strikes: Dict[Tuple[int, int], int] = {}
        backups: Dict[Tuple[int, int], int] = {}

        def pending_pairs() -> List[Tuple[int, int]]:
            return [
                (s, d) for s in slots for d in slots
                if slot_owner[s] != slot_owner[d] and (s, d) not in arrivals
            ]

        for round_index in range(config.max_rounds):
            self.stats.rounds += 1
            leader = self.leader
            standbys = self.standbys()
            # Host phase: partition every slot's shard on its current
            # owner (the DMS hash-engine kernel; deterministic bytes).
            for slot in slots:
                owner = slot_owner[slot]
                if partition_owner.get(slot) == owner:
                    continue
                dpu = cluster.dpus[owner]
                dtable = dtables[slot]
                if dtable.dpu is not dpu:
                    dtable = dtable.table.to_dpu(dpu)
                raws, cycles, record_width, dtypes = partition_source(
                    dpu, dtable, key, names, num_slots
                )
                partitions[slot] = raws
                partition_owner[slot] = owner
                partition_cycles = max(partition_cycles, cycles)
                if round_index > 0:
                    self.stats.reexecuted_shards += 1
            pending = pending_pairs()
            if not pending:
                break
            needed: Set[Tuple[int, int]] = set(pending)
            # Leader -> standby journal of this round's coordination
            # state (epoch + slot-owner map), so a takeover resumes
            # under a known map instead of a restart from scratch.
            if standbys:
                self._replicate_exchange_state(leader, standbys,
                                               slot_owner, round_index)
            # Rotated posts (src owner s ships to s+1, s+2, ... to
            # avoid synchronized bursts): one mailbox message per
            # owner, one epoch-tagged message per (src, dst) slot pair.
            by_owner: Dict[int, List[Tuple[int, int]]] = {}
            for pair in pending:
                by_owner.setdefault(slot_owner[pair[0]], []).append(pair)
            for owner, pairs in sorted(by_owner.items()):
                pairs.sort(key=lambda pair: (
                    (slot_owner[pair[1]] - owner) % num_slots, pair
                ))
                if round_index > 0:
                    self.stats.resends += len(pairs)
                self._post(owner, "pair", [
                    (slot_owner[dst], (src, dst), partitions[src][dst],
                     int(partitions[src][dst].nbytes))
                    for src, dst in pairs
                ])
            watched = {
                pair: slot_owner[pair[0]] for pair in pending
            }
            watched.update({
                (pair, "dst"): slot_owner[pair[1]] for pair in pending
            })
            collect: Dict[int, Set[Tuple[int, int]]] = {}
            for pair in pending:
                collect.setdefault(slot_owner[pair[1]], set()).add(pair)
            results, cycles = self._collect(
                site, "pair", collect, needed, arrivals, min_epoch,
                lambda pair: slot_owner[pair[0]], watch=lambda: watched,
            )
            span += cycles
            dethroned = any(status == "leader_dead" for status, _ in results)
            victims = [victim for status, found in results
                       if status == "dead" for victim in found]
            if dethroned:
                self._takeover(leader)
            elif victims:
                self._declare(victims)
                self.epoch += 1
                self.stats.epochs += 1
            if dethroned or victims:
                for slot in slots:
                    if slot_owner[slot] in self.declared_dead:
                        slot_owner[slot] = self._survivor_for(slot)
                # Pairs received *at* a now-dead owner (the old leader
                # included) died with its DRAM; pairs *from* a dead
                # owner were sent under an invalidated map. Both
                # restart under the new epoch.
                for pair in list(arrivals):
                    if arrivals[pair][2] in self.declared_dead:
                        del arrivals[pair]
                for pair in min_epoch:
                    if pair not in arrivals:
                        min_epoch[pair] = self.epoch
            else:
                for pair in pending_pairs():
                    stall_strikes[pair] = stall_strikes.get(pair, 0) + 1
                    if stall_strikes[pair] >= 2 and pair not in backups:
                        owner = slot_owner[pair[0]]
                        backup = self._survivor_for(pair, exclude=(owner,))
                        backups[pair] = backup
                        self.stats.speculative_launches += 1
                        if self.cluster.metrics.enabled:
                            self.cluster.metrics.annotate(
                                "recover.speculative_launch",
                                pair=str(pair), backup=backup,
                            )
                        raw = partitions[pair[0]][pair[1]]
                        self._post(backup, "pair", [
                            (slot_owner[pair[1]], pair, raw,
                             int(raw.nbytes))])
        remaining = pending_pairs()
        if remaining:
            raise self._error(
                site, sorted({slot_owner[s] for s, _d in remaining}),
                f"exchange budget of {config.max_rounds} rounds "
                f"exhausted with pairs {sorted(remaining)} missing",
            )
        self.stats.speculative_wins += sum(
            1 for pair, backup in backups.items()
            if pair in arrivals and arrivals[pair][1] == backup
        )
        self.last_slot_owner = dict(slot_owner)
        if cluster.metrics.enabled:
            cluster.metrics.observe("shuffle.partition.cycles",
                                    partition_cycles)
            cluster.metrics.observe("shuffle.exchange.cycles", span)

        # Reassembly in source-slot order (deterministic regardless of
        # arrival order).
        columns: List[Dict[str, np.ndarray]] = []
        rows_moved = 0
        bytes_moved = 0
        for dst in slots:
            parts = []
            for src in slots:
                if src == dst or slot_owner[src] == slot_owner[dst]:
                    raw = partitions[src][dst]
                else:
                    raw = arrivals[(src, dst)][0]
                if src != dst:
                    rows_moved += (raw.nbytes // record_width
                                   if record_width else 0)
                    bytes_moved += int(raw.nbytes)
                if raw.nbytes:
                    parts.append(raw)
            raw_all = (np.concatenate(parts) if parts
                       else np.empty(0, dtype=np.uint8))
            arrays = _parse_records(raw_all, dtypes)
            columns.append(dict(zip(names, arrays)))
        return ShuffleResult(
            columns=columns,
            partition_cycles=partition_cycles,
            exchange_cycles=span,
            rows_moved=rows_moved,
            bytes_moved=bytes_moved,
        )

    def _replicate_exchange_state(self, leader: int,
                                  standbys: Sequence[int],
                                  slot_owner: Dict[int, int],
                                  round_index: int) -> None:
        """Stream the round's coordination record (epoch + slot-owner
        map) from the leader's A9 to each standby, before any pair of
        the round is acted on (the sends are spawned ahead of the
        collect phase)."""
        engine = self.cluster.engine
        fabric = self.cluster.fabric
        tag, epoch = self._job_tag, self.epoch
        owner_map = tuple(sorted(slot_owner.items()))
        nbytes = JOURNAL_HEADER_BYTES + 8 * len(owner_map)
        record = ("jrn", tag, epoch, ("xctl", round_index), leader,
                  owner_map, nbytes)
        for standby in standbys:
            self.stats.journal_records += 1
            self.stats.journal_bytes += nbytes
            engine.process(
                fabric.send(leader, standby, record, nbytes),
                name=f"recover.jctl[{leader}->{standby}]",
                daemon=True,
            )
