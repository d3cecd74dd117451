"""Multi-tenant serving front end over a DPU cluster.

One host-driven discrete-event loop ties the pieces together: an
open-loop request stream (:mod:`repro.serve.workload`) lands in a
per-tenant :class:`~repro.runtime.admission.WeightedFairQueue`
weighted by QoS tier (:mod:`repro.serve.qos`); each tenant's private
:class:`~repro.runtime.admission.TokenBucket` gates *eligibility*
(a flow whose bucket is empty keeps its place in virtual time but
cannot be dequeued; the queue reads buckets lazily, in dequeue order,
up to the first tenant with a token); dequeued queries go through a
compiled-plan cache and a result cache keyed on each query's data
version — the newest catalog version among the columns it reads
(:mod:`repro.serve.cache`); result-cache misses that share a fact
table batch into one shared scan
(:func:`~repro.cluster.scaleout.cluster_batched_queries`) instead of
N separate jobs. With caching on, each (query, data version) is
executed at most once while its result stays cached: every
result-cache miss is one execution, and a queued request whose answer
is cached is served from the cache, batch window or not.

Because cluster jobs are synchronous coordinator-side calls that
drive the shared simulation engine internally, the front end is a
sequential dispatcher: it advances sim time explicitly (idle waits,
cache-hit service) or implicitly (running a job), never by wall
clock, so a serving run is bit-reproducible and — the contract the
tests enforce — every response is **byte-equal** to running that
query alone through
:func:`~repro.cluster.scaleout.cluster_compiled_query`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps.sql import Table, compile_query
from ..cluster import cluster_batched_queries, cluster_compiled_query
from ..obs import NULL_HUB, LatencyDigest
from ..runtime.admission import TokenBucket, WeightedFairQueue
from .cache import PlanCache, ResultCache
from .qos import DEFAULT_TIERS, TierSpec
from .workload import QueryRequest

__all__ = ["CompletedRequest", "ServingFrontend", "ServingReport"]


@dataclass(frozen=True)
class CompletedRequest:
    """One served request: when it finished, how, and how long it took."""

    request: QueryRequest
    completion: float
    latency: float
    source: str  # "cache" | "direct" | "batch"
    batch_size: int = 1


@dataclass
class ServingReport:
    """Everything a serving run produced, ready for assertions.

    ``results`` holds the latest response rows per query name — the
    byte-equality oracle hook — and the digests are
    :class:`~repro.obs.metrics.LatencyDigest` objects (p50/p99/p999
    via ``quantile``), built from ``records`` when the run ends, the
    tenant and tier digests keyed in first-appearance order.
    """

    records: List[CompletedRequest] = field(default_factory=list)
    overall: LatencyDigest = field(
        default_factory=lambda: LatencyDigest("serve.latency"))
    tenant_digests: Dict[str, LatencyDigest] = field(default_factory=dict)
    tier_digests: Dict[str, LatencyDigest] = field(default_factory=dict)
    results: Dict[str, Tuple] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def quantiles(self, digest: Optional[LatencyDigest] = None
                  ) -> Dict[str, float]:
        digest = digest if digest is not None else self.overall
        return {
            "p50": digest.quantile(0.50),
            "p99": digest.quantile(0.99),
            "p999": digest.quantile(0.999),
        }


class ServingFrontend:
    """Sequential QoS-aware dispatcher over one cluster.

    ``queries`` maps query name -> SQL text; ``shards`` maps fact
    table name -> the row-sharded :class:`~repro.apps.sql.Table` list
    (one shard per DPU, carrying at least the union of the query
    mix's needed columns); ``tenants`` maps tenant name -> tier name.
    """

    def __init__(
        self,
        cluster,
        catalog,
        queries: Dict[str, str],
        shards: Dict[str, Sequence[Table]],
        tenants: Dict[str, str],
        tiers: Optional[Dict[str, TierSpec]] = None,
        plan_cache: Optional[PlanCache] = None,
        result_cache: Optional[ResultCache] = None,
        batching: bool = True,
        caching: bool = True,
        max_batch: int = 8,
        cache_hit_cycles: float = 500.0,
        plan_compile_cycles: float = 2000.0,
        hub=NULL_HUB,
    ) -> None:
        self.cluster = cluster
        self.catalog = catalog
        self.queries = dict(queries)
        self.shards = {fact: list(tables) for fact, tables in shards.items()}
        self.tiers = dict(tiers) if tiers is not None else dict(DEFAULT_TIERS)
        self.tenants = dict(tenants)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.result_cache = (result_cache if result_cache is not None
                             else ResultCache())
        self.batching = bool(batching)
        self.caching = bool(caching)
        self.max_batch = int(max_batch)
        self.cache_hit_cycles = float(cache_hit_cycles)
        self.plan_compile_cycles = float(plan_compile_cycles)
        self.hub = hub
        self.queue = WeightedFairQueue()
        self.buckets: Dict[str, TokenBucket] = {}
        # Each planned query's reads, and its data version memoized for
        # one Catalog.version, so a cache hit stays one dict lookup.
        self._reads: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        self._versions: Dict[str, int] = {}
        self._versions_at = catalog.version
        for tenant, tier_name in self.tenants.items():
            tier = self.tiers[tier_name]
            self.queue.register(tenant, tier.weight)
            self.buckets[tenant] = TokenBucket(
                tier.rate_per_kcycle, tier.burst)

    # -- engine plumbing ------------------------------------------------
    def _advance(self, cycles: float) -> None:
        self.cluster.engine.advance(cycles)

    def _take_token(self, tenant: str, now: float) -> None:
        """Consume one submission token; every dequeue path first
        proved eligibility (``cycles_until_available == 0``), so a
        failed take means the eligibility map and the bucket state
        disagree — a rate-limit bypass that must not pass silently."""
        if not self.buckets[tenant].try_take(now):
            raise RuntimeError(
                f"tenant {tenant!r} dequeued without an available token "
                f"at cycle {now}: eligibility map out of sync with its "
                "bucket")

    # -- plan / result plumbing -----------------------------------------
    def _data_version(self, name: str) -> Optional[int]:
        """The data version ``name``'s plan and result are cached at;
        ``None`` until the query is first planned, since its reads are
        known only from a plan."""
        catalog = self.catalog
        if self._versions_at != catalog.version:
            self._versions.clear()
            self._versions_at = catalog.version
        version = self._versions.get(name)
        if version is None and name in self._reads:
            version = catalog.data_version(self._reads[name])
            self._versions[name] = version
        return version

    def _compiled(self, name: str):
        """Plan-cache lookup at the query's data version; a miss runs
        the cost-based planner and charges ``plan_compile_cycles`` of
        frontend time. Either way ``self._versions[name]`` then holds
        that data version, the result cache's key too."""
        compiled = self.plan_cache.get(name, self._data_version(name))
        if compiled is None:
            compiled = compile_query(self.queries[name], self.catalog, name)
            self._reads[name] = compiled.reads
            self._versions[name] = compiled.data_version
            self.plan_cache.put(name, compiled.data_version, compiled)
            self._advance(self.plan_compile_cycles)
        return compiled

    def _record(self, request: QueryRequest, source: str,
                batch_size: int, report: ServingReport) -> None:
        """Append the request's record and mirror its latency into a
        live hub; the report's digests are built when the run ends."""
        completion = self.cluster.engine.now
        latency = completion - request.arrival
        report.records.append(CompletedRequest(
            request=request, completion=completion, latency=latency,
            source=source, batch_size=batch_size))
        if self.hub.enabled:
            self.hub.observe(f"serve.tenant.{request.tenant}.latency",
                             latency)
            self.hub.observe(f"serve.tier.{request.tier}.latency", latency)

    def _serve_cached(self, request: QueryRequest, rows: Tuple,
                      report: ServingReport) -> None:
        self._advance(self.cache_hit_cycles)
        report.results[request.query] = rows
        report.counters["cache_hits"] = report.counters.get(
            "cache_hits", 0) + 1
        self._record(request, "cache", 1, report)

    @staticmethod
    def _build_digests(report: ServingReport) -> None:
        """Fill the overall, tenant and tier digests from the records,
        each in one bulk ``extend`` in record order."""
        records = report.records
        latencies = [record.latency for record in records]
        report.overall.extend(latencies)
        for group, digests, keys in (
                ("tenant", report.tenant_digests,
                 [record.request.tenant for record in records]),
                ("tier", report.tier_digests,
                 [record.request.tier for record in records])):
            for key in dict.fromkeys(keys):
                digest = digests[key] = LatencyDigest(
                    f"serve.{group}.{key}.latency")
                digest.extend([latency for latency, of in
                               zip(latencies, keys) if of == key])

    # -- the serving loop -----------------------------------------------
    def run(self, requests: Sequence[QueryRequest]) -> ServingReport:
        buckets = self.buckets
        for request in requests:
            if request.tenant not in buckets:
                raise ValueError(
                    f"request {request.index} is from tenant "
                    f"{request.tenant!r}, which this frontend does not "
                    f"serve (tenants: {sorted(buckets)})")
        pending = sorted(requests, key=attrgetter("arrival", "index"))
        total = len(pending)
        report = ServingReport()
        report.counters["requests"] = total
        plan_before = self.plan_cache.stats()
        result_before = self.result_cache.stats()
        engine = self.cluster.engine
        queue = self.queue
        backlog = len(queue)
        cursor = 0
        now = engine.now
        waits: List[float] = []

        def has_token(flow: str) -> bool:
            # The main dequeue's eligibility test, asked lazily by
            # WeightedFairQueue.pop; the waits of the tenants it turns
            # down are what the idle sleep needs if it turns all down.
            # An infinite wait (a bucket that can never refill to a
            # full token) must not reach the clock, so it is dropped.
            wait = buckets[flow].cycles_until_available(now)
            if wait == 0.0:
                return True
            if wait != math.inf:
                waits.append(wait)
            return False

        while cursor < total or backlog:
            while cursor < total and pending[cursor].arrival <= engine.now:
                request = pending[cursor]
                queue.push(request.tenant, request)
                cursor += 1
                backlog += 1
            now = engine.now
            waits = []
            popped = queue.pop(has_token) if backlog else None
            if popped is None:
                # Nothing runnable: sleep until the next arrival or
                # the earliest backlogged tenant's bucket refills.
                if cursor < total:
                    waits.append(pending[cursor].arrival - now)
                if not waits:
                    raise RuntimeError(
                        "serving loop stalled: backlogged tenants whose "
                        "token buckets can never refill and no pending "
                        "arrivals")
                self._advance(max(min(waits), 1.0))
                continue

            tenant, request = popped
            backlog -= 1
            self._take_token(tenant, now)
            compiled = self._compiled(request.query)
            if self.caching:
                rows = self.result_cache.get(request.query,
                                             self._versions[request.query])
                if rows is not None:
                    self._serve_cached(request, rows, report)
                    continue

            # Result-cache miss: pull compatible eligible heads into a
            # shared-scan batch. A repeat of a query already in the
            # batch joins its slot; a head whose result is cached at
            # its data version is served from the cache on the spot
            # instead of being recomputed in the batch; every other
            # distinct query is a result-cache miss and takes one slot.
            # Eligibility is read eagerly here: _compiled on a head may
            # compile a plan and advance the clock.
            members: List[Tuple[QueryRequest, int]] = [(request, 0)]
            uniques = [compiled]
            slot_of = {request.query: 0}
            while self.batching and len(members) < self.max_batch:
                now = engine.now
                batchable = {}
                for flow in queue.flows():
                    # Every backlogged flow gets a verdict, so a
                    # token-starved tenant's head can never ride in
                    # the batch unchecked.
                    if buckets[flow].cycles_until_available(now) > 0:
                        batchable[flow] = False
                        continue
                    head = queue.peek(flow)
                    candidate = self._compiled(head.query)
                    batchable[flow] = (
                        candidate.batch_key == compiled.batch_key)
                next_popped = queue.pop(batchable.__getitem__)
                if next_popped is None:
                    break
                co_tenant, co_request = next_popped
                backlog -= 1
                self._take_token(co_tenant, now)
                if co_request.query in slot_of:
                    members.append((co_request, slot_of[co_request.query]))
                    continue
                if self.caching:
                    rows = self.result_cache.get(
                        co_request.query,
                        self._data_version(co_request.query))
                    if rows is not None:
                        self._serve_cached(co_request, rows, report)
                        continue
                slot_of[co_request.query] = len(uniques)
                uniques.append(self._compiled(co_request.query))
                members.append((co_request, slot_of[co_request.query]))

            shards = self.shards[compiled.fact]
            if len(uniques) == 1:
                result = cluster_compiled_query(
                    self.cluster, uniques[0], self._project(uniques, shards))
                rows_by_slot = [result.value]
                source = "direct"
                report.counters["direct"] = report.counters.get(
                    "direct", 0) + 1
            else:
                result = cluster_batched_queries(
                    self.cluster, uniques, self._project(uniques, shards))
                rows_by_slot = list(result.value)
                source = "batch"
                report.counters["batches"] = report.counters.get(
                    "batches", 0) + 1
                report.counters["batched_queries"] = report.counters.get(
                    "batched_queries", 0) + len(uniques)

            for slot, (unique, rows) in enumerate(
                    zip(uniques, rows_by_slot)):
                report.results[unique.name] = rows
                if self.caching:
                    self.result_cache.put(
                        unique.name, unique.data_version, rows)
            for member, slot in members:
                self._record(member, source, len(members), report)

        self._build_digests(report)
        # Per-run deltas, like every other counter in the report.
        report.counters["plan_cache"] = self.plan_cache.stats_since(
            plan_before)
        report.counters["result_cache"] = self.result_cache.stats_since(
            result_before)
        return report

    def _project(self, uniques, shards: Sequence[Table]) -> List[Table]:
        """Project each full-column shard down to the batch's union of
        needed columns — the exact byte layout a standalone
        ``cluster_compiled_query`` run would ship."""
        union = list(dict.fromkeys(
            name for compiled in uniques for name in compiled.needed_columns))
        return [
            Table(shard.name,
                  {name: shard.columns[name] for name in union})
            for shard in shards
        ]
