"""Multi-tenant serving front end over a DPU cluster.

One host-driven discrete-event loop ties the pieces together: an
open-loop request stream (:mod:`repro.serve.workload`) lands in a
per-tenant :class:`~repro.runtime.admission.WeightedFairQueue`
weighted by QoS tier (:mod:`repro.serve.qos`); each tenant's private
:class:`~repro.runtime.admission.TokenBucket` gates *eligibility*
(a flow whose bucket is empty keeps its place in virtual time but
cannot be dequeued); dequeued queries go through a compiled-plan
cache and a result cache keyed on each query's data version — the
newest catalog version among the columns it reads
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

from dataclasses import dataclass, field
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
    via ``quantile``).
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
        frontend time."""
        compiled = self.plan_cache.get(name, self._data_version(name))
        if compiled is None:
            compiled = compile_query(self.queries[name], self.catalog, name)
            self._reads[name] = compiled.reads
            self._versions[name] = compiled.data_version
            self.plan_cache.put(name, compiled.data_version, compiled)
            self._advance(self.plan_compile_cycles)
        return compiled

    def _cached_rows(self, name: str) -> Optional[Tuple]:
        return self.result_cache.get(name, self._data_version(name))

    def _record(self, request: QueryRequest, source: str,
                batch_size: int, report: ServingReport) -> None:
        completion = self.cluster.engine.now
        latency = completion - request.arrival
        report.records.append(CompletedRequest(
            request=request, completion=completion, latency=latency,
            source=source, batch_size=batch_size))
        report.overall.add(latency)
        # Each digest is built on its first sample, and the hub's
        # metric names are formatted only for a live hub.
        tenant, tier = request.tenant, request.tier
        digest = report.tenant_digests.get(tenant)
        if digest is None:
            digest = report.tenant_digests[tenant] = LatencyDigest(
                f"serve.tenant.{tenant}.latency")
        digest.add(latency)
        digest = report.tier_digests.get(tier)
        if digest is None:
            digest = report.tier_digests[tier] = LatencyDigest(
                f"serve.tier.{tier}.latency")
        digest.add(latency)
        if self.hub.enabled:
            self.hub.observe(f"serve.tenant.{tenant}.latency", latency)
            self.hub.observe(f"serve.tier.{tier}.latency", latency)

    def _serve_cached(self, request: QueryRequest, rows: Tuple,
                      report: ServingReport) -> None:
        self._advance(self.cache_hit_cycles)
        report.results[request.query] = rows
        report.counters["cache_hits"] = report.counters.get(
            "cache_hits", 0) + 1
        self._record(request, "cache", 1, report)

    # -- the serving loop -----------------------------------------------
    def run(self, requests: Sequence[QueryRequest]) -> ServingReport:
        pending = sorted(requests, key=lambda r: (r.arrival, r.index))
        report = ServingReport()
        report.counters["requests"] = len(pending)
        plan_before = self.plan_cache.stats()
        result_before = self.result_cache.stats()
        engine = self.cluster.engine
        cursor = 0

        def admit_arrivals() -> int:
            nonlocal cursor
            while (cursor < len(pending)
                   and pending[cursor].arrival <= engine.now):
                request = pending[cursor]
                self.queue.push(request.tenant, request)
                cursor += 1
            return cursor

        while cursor < len(pending) or len(self.queue):
            admit_arrivals()
            now = engine.now
            eligible = {
                flow: self.buckets[flow].cycles_until_available(now) == 0.0
                for flow in self.queue.flows()
            }
            popped = self.queue.pop(eligible)
            if popped is None:
                # Nothing runnable: sleep until the next arrival or
                # the earliest backlogged tenant's bucket refills.
                waits = []
                if cursor < len(pending):
                    waits.append(pending[cursor].arrival - now)
                for flow in self.queue.flows():
                    waits.append(
                        self.buckets[flow].cycles_until_available(now))
                # An infinite wait (a bucket that can never refill to
                # a full token) must not reach _advance: filter it,
                # and if nothing finite remains the loop is stalled.
                waits = [w for w in waits if w != float("inf")]
                if not waits:
                    raise RuntimeError(
                        "serving loop stalled: backlogged tenants whose "
                        "token buckets can never refill and no pending "
                        "arrivals")
                self._advance(max(min(waits), 1.0))
                continue

            tenant, request = popped
            self._take_token(tenant, now)
            compiled = self._compiled(request.query)
            if self.caching:
                rows = self._cached_rows(request.query)
                if rows is not None:
                    self._serve_cached(request, rows, report)
                    continue

            # Result-cache miss: pull compatible eligible heads into a
            # shared-scan batch. A repeat of a query already in the
            # batch joins its slot; a head whose result is cached at
            # its data version is served from the cache on the spot
            # instead of being recomputed in the batch; every other
            # distinct query is a result-cache miss and takes one slot.
            members: List[Tuple[QueryRequest, int]] = [(request, 0)]
            uniques = [compiled]
            slot_of = {request.query: 0}
            while self.batching and len(members) < self.max_batch:
                now = engine.now
                batchable = {}
                for flow in self.queue.flows():
                    # An empty bucket must be an *explicit* False:
                    # WeightedFairQueue.pop treats flows missing from
                    # the eligibility map as eligible, so skipping the
                    # flow here would let a token-starved tenant's
                    # head into the batch unchecked.
                    if self.buckets[flow].cycles_until_available(now) > 0:
                        batchable[flow] = False
                        continue
                    head = self.queue.peek(flow)
                    candidate = self._compiled(head.query)
                    batchable[flow] = (
                        candidate.batch_key == compiled.batch_key)
                next_popped = self.queue.pop(batchable)
                if next_popped is None:
                    break
                co_tenant, co_request = next_popped
                self._take_token(co_tenant, now)
                if co_request.query in slot_of:
                    members.append((co_request, slot_of[co_request.query]))
                    continue
                if self.caching:
                    rows = self._cached_rows(co_request.query)
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
