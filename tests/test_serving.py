"""Multi-tenant serving layer (docs/SERVING.md).

Covers the serving surface end to end: the shared-default-config
bugfix sweep (no two construction sites may alias one
``FabricConfig``), the anchor-based
:class:`~repro.runtime.admission.TokenBucket` (a long run of tiny
refills admits exactly what one large refill admits), start-time fair
queueing, plan/result caches keyed on each query's data version (the
newest version among the catalog columns its plan reads), complete
read sets, shared-scan batching, exactly-once serving, the QoS front
end — and the byte-equality contract that makes all of it safe: every
cached, batched, or chaos-recovered response equals the rows of a
standalone :func:`~repro.cluster.scaleout.cluster_compiled_query` run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.frontend as frontend_module
from repro.apps.sql import Table, compile_query, load_query, tpch_catalog
from repro.apps.sql.ir import PlanError
from repro.baseline import XeonModel
from repro.cluster import (
    Cluster,
    FabricConfig,
    IBFabric,
    ShuffleRackModel,
    cluster_batched_queries,
    cluster_compiled_query,
)
from repro.faults import ChaosSpec, FaultPlan
from repro.runtime.admission import TokenBucket, WeightedFairQueue
from repro.serve import (
    DEFAULT_TIERS,
    OpenLoopWorkload,
    PlanCache,
    QueryRequest,
    ResultCache,
    ServingFrontend,
    TierSpec,
)
from repro.sim import Engine
from repro.workloads.tpch import generate_tpch

QUERIES = ["q1", "q6", "q12", "q14"]
ALL_QUERIES = ["q1", "q3", "q5", "q6", "q10", "q12", "q14"]


@pytest.fixture(scope="module")
def data():
    return generate_tpch(scale=0.002, seed=11)


@pytest.fixture(scope="module")
def catalog(data):
    return tpch_catalog(data)


@pytest.fixture(scope="module")
def query_texts():
    return {name: load_query(name) for name in QUERIES}


def _full_shards(data, num_shards, fact="lineitem"):
    """Row-shard the fact table keeping every column (the serving
    front end projects per batch)."""
    table = data.tables[fact]
    columns = list(table)
    total = len(table[columns[0]])
    bounds = [total * i // num_shards for i in range(num_shards + 1)]
    return [
        Table(
            f"{fact}_shard{i}",
            {n: table[n][bounds[i]:bounds[i + 1]] for n in columns},
        )
        for i in range(num_shards)
    ]


def _reference_rows(query_texts, catalog, data, name, num_dpus=4,
                    shards=None):
    """Standalone cluster run of one query: the byte-equality oracle."""
    compiled = compile_query(query_texts[name], catalog, name)
    if shards is None:
        shards = _full_shards(data, num_dpus)
    projected = [
        Table(s.name, {n: s.columns[n] for n in compiled.needed_columns})
        for s in shards
    ]
    return cluster_compiled_query(Cluster(len(shards)), compiled,
                                  projected).value


# -- request streams ---------------------------------------------------------


def _generate_with_choice(workload, num_requests, mean_interarrival):
    """The request loop as first written, drawing each tenant with
    ``rng.choice(n, p=probs)``: the reference the CDF draw must match."""
    rng = np.random.default_rng(workload.seed)
    names = list(workload.tenants)
    requests = []
    arrival = 0.0
    for index in range(num_requests):
        arrival += float(rng.exponential(mean_interarrival))
        tenant = names[int(rng.choice(len(names),
                                      p=workload._tenant_probs))]
        query = workload.query_mix[int(rng.integers(len(workload.query_mix)))]
        requests.append(QueryRequest(index, tenant, workload.tenants[tenant],
                                     query, arrival))
    return requests


class TestRequestStreams:
    @pytest.mark.parametrize("zipf_s", [0.0, 0.6, 1.1, 2.5])
    @pytest.mark.parametrize("num_tenants", [1, 2, 3, 5, 8])
    def test_cdf_draw_equals_choice(self, num_tenants, zipf_s):
        """Placing one ``rng.random()`` in the tenant CDF reproduces
        ``rng.choice(n, p=probs)`` draw for draw, over seeds and
        stream lengths."""
        tenants = {f"t{i}": ("gold", "silver", "bronze")[i % 3]
                   for i in range(num_tenants)}
        for seed in range(6):
            workload = OpenLoopWorkload(tenants, QUERIES, seed=seed,
                                        zipf_s=zipf_s)
            for count in (0, 1, 37, 400):
                assert workload.generate(count, 3_000.0) == \
                    _generate_with_choice(workload, count, 3_000.0)


# -- shared-default-config bugfix sweep (B006/B008) ------------------------


class TestNoSharedConfigDefaults:
    """Each construction site must build its own FabricConfig.

    The config dataclass is frozen, so a shared instance cannot be
    mutated today — but any future mutable field (or an ``object.__
    setattr__`` escape hatch) would silently couple every fabric in
    the process. The fix is ``None``-sentinel defaults and
    ``default_factory``; these tests pin the resulting identity
    semantics at all four former ``f(cfg=FabricConfig())`` sites.
    """

    def test_ibfabric_defaults_are_distinct_instances(self):
        engine = Engine()
        a = IBFabric(engine, num_endpoints=2)
        b = IBFabric(engine, num_endpoints=2)
        assert a.config is not b.config
        assert a.config == b.config  # same values, different objects

    def test_cluster_defaults_are_distinct_instances(self):
        a = Cluster(2)
        b = Cluster(2)
        assert a.fabric.config is not b.fabric.config

    def test_shuffle_model_field_uses_default_factory(self):
        a = ShuffleRackModel(total_rows=1000, record_bytes=8,
                             result_bytes=64)
        b = ShuffleRackModel(total_rows=1000, record_bytes=8,
                             result_bytes=64)
        assert a.fabric is not b.fabric

    def test_explicit_config_is_used_verbatim(self):
        config = FabricConfig(fabric_latency_cycles=7)
        cluster = Cluster(2, fabric_config=config)
        assert cluster.fabric.config is config
        detail = {"partition_cycles": 100.0, "local_cycles": 200.0}
        model = ShuffleRackModel.from_sim(
            detail, num_dpus=2, total_rows=1000, record_bytes=8,
            fabric=config)
        assert model.fabric is config


# -- token bucket drift ----------------------------------------------------


class TestTokenBucketDrift:
    """The level must be a pure function of (anchor, now): observing
    the bucket many times between consumptions cannot change what it
    admits."""

    @given(
        steps=st.lists(st.floats(min_value=0.01, max_value=50.0),
                       min_size=1, max_size=300),
        rate=st.floats(min_value=0.01, max_value=10.0),
        burst=st.floats(min_value=1.0, max_value=16.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_many_small_refills_equal_one_large_refill(
            self, steps, rate, burst):
        watched = TokenBucket(rate_per_kcycle=rate, burst=burst)
        ignored = TokenBucket(rate_per_kcycle=rate, burst=burst)
        now = 0.0
        for step in steps:
            now += step
            watched.cycles_until_available(now)  # read-only observation
        ignored.cycles_until_available(now)  # one large refill
        assert watched.tokens == ignored.tokens
        # Both buckets now admit the identical prefix of takes.
        admitted_watched = admitted_ignored = 0
        while watched.try_take(now):
            admitted_watched += 1
        while ignored.try_take(now):
            admitted_ignored += 1
        assert admitted_watched == admitted_ignored

    def test_long_observed_run_admits_like_single_jump(self):
        # Regression for the accumulate-per-refill implementation: 1e5
        # observations of a 0.1-cycle step used to drift the level away
        # from one 1e4-cycle jump.
        observed = TokenBucket(rate_per_kcycle=1.0, burst=8.0)
        jumped = TokenBucket(rate_per_kcycle=1.0, burst=8.0)
        assert observed.try_take(0.0) and jumped.try_take(0.0)
        now = 0.0
        for _ in range(100_000):
            now += 0.1
            observed.cycles_until_available(now)
        assert now == pytest.approx(10_000.0)
        count_observed = count_jumped = 0
        while observed.try_take(10_000.0):
            count_observed += 1
        while jumped.try_take(10_000.0):
            count_jumped += 1
        assert count_observed == count_jumped
        assert observed.tokens == jumped.tokens

    def test_cap_is_exact_after_idle(self):
        bucket = TokenBucket(rate_per_kcycle=0.3, burst=5.0)
        assert bucket.try_take(0.0, cost=5.0)
        bucket.cycles_until_available(1e9)
        assert bucket.tokens == 5.0


# -- weighted fair queue ---------------------------------------------------


class TestWeightedFairQueue:
    def test_service_in_weight_ratio(self):
        queue = WeightedFairQueue()
        queue.register("gold", 8.0)
        queue.register("bronze", 1.0)
        for i in range(90):
            queue.push("gold", f"g{i}")
            queue.push("bronze", f"b{i}")
        served = [queue.pop()[0] for _ in range(90)]
        gold = served.count("gold")
        bronze = served.count("bronze")
        assert gold / max(bronze, 1) == pytest.approx(8.0, rel=0.3)

    def test_fifo_within_flow(self):
        queue = WeightedFairQueue()
        queue.register("t", 2.0)
        for i in range(10):
            queue.push("t", i)
        assert [queue.pop()[1] for i in range(10)] == list(range(10))

    def test_no_starvation(self):
        # A backlogged weight-1 flow's head tag ages; it must be
        # served long before the weight-8 flow drains.
        queue = WeightedFairQueue()
        queue.register("gold", 8.0)
        queue.register("bronze", 1.0)
        queue.push("bronze", "b0")
        for i in range(64):
            queue.push("gold", f"g{i}")
        served = [queue.pop()[0] for _ in range(16)]
        assert "bronze" in served

    def test_eligibility_filter_skips_flows(self):
        queue = WeightedFairQueue()
        queue.register("a", 1.0)
        queue.register("b", 1.0)
        queue.push("a", 1)
        queue.push("b", 2)
        flow, item = queue.pop({"a": False, "b": True}.get)
        assert (flow, item) == ("b", 2)
        assert queue.pop({"a": False, "b": False}.get) is None
        assert len(queue) == 1

    def test_idle_flow_gains_no_credit(self):
        # An idle flow re-enters at the current virtual time: it may
        # win the next slot but cannot burst through the backlog.
        queue = WeightedFairQueue()
        queue.register("busy", 1.0)
        queue.register("idle", 1.0)
        for i in range(20):
            queue.push("busy", i)
        for _ in range(10):
            queue.pop()
        queue.push("idle", "late")
        served = [queue.pop()[0] for _ in range(3)]
        assert served.count("idle") == 1

    def test_deterministic_order(self):
        def run():
            queue = WeightedFairQueue()
            queue.register("x", 3.0)
            queue.register("y", 1.0)
            for i in range(30):
                queue.push("x", i)
                queue.push("y", i)
            return [queue.pop() for _ in range(60)]

        assert run() == run()

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            WeightedFairQueue().register("t", 0.0)


# -- caches ----------------------------------------------------------------


class TestCaches:
    def test_result_cache_hit_and_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.get("q1", 0) is None
        cache.put("q1", 0, ((1, 2),))
        assert cache.get("q1", 0) == ((1, 2),)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.get("a", 0)  # refresh a
        cache.put("c", 0, 3)  # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.stats()["evictions"] == 1

    def test_version_change_misses_and_invalidates(self):
        cache = ResultCache(capacity=4)
        cache.put("q1", 0, "old")
        assert cache.get("q1", 1) is None  # stale key never matches
        cache.put("q1", 1, "new")  # eagerly drops version-0 entry
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 1

    def test_stale_put_does_not_evict_newer_version(self):
        # A put carrying an older data version (a plan compiled
        # before an interleaved catalog write) must not invalidate the
        # newer-version entry: eager invalidation is strictly older-only.
        cache = ResultCache(capacity=4)
        cache.put("q1", 1, "new")
        cache.put("q1", 0, "stale")
        assert cache.get("q1", 1) == "new"
        assert cache.stats()["invalidations"] == 0

    def test_catalog_update_bumps_version_and_invalidates(
            self, data, query_texts):
        catalog = tpch_catalog(data)
        cache = PlanCache()
        version = catalog.version
        compiled = compile_query(query_texts["q6"], catalog, "q6")
        assert compiled.data_version == version
        cache.put("q6", compiled.data_version, compiled)
        assert cache.get("q6", catalog.data_version(compiled.reads)) \
            is compiled
        # A write to a column q6 does not read keeps its plan valid.
        shipmode = catalog.tables["lineitem"]["l_shipmode"]
        assert catalog.update_column(
            "lineitem", "l_shipmode", shipmode.copy()) == version + 1
        assert cache.get("q6", catalog.data_version(compiled.reads)) \
            is compiled
        # A write to one it reads invalidates it.
        quantity = catalog.tables["lineitem"]["l_quantity"]
        assert catalog.update_column(
            "lineitem", "l_quantity", quantity.copy()) == version + 2
        assert cache.get("q6", catalog.data_version(compiled.reads)) is None
        recompiled = compile_query(query_texts["q6"], catalog, "q6")
        assert recompiled.data_version == version + 2
        assert recompiled.read_versions != compiled.read_versions
        # Both stream lineitem, so they share a batch key, but a batch
        # refuses them: they read l_quantity at different versions.
        assert recompiled.batch_key == compiled.batch_key == "lineitem"
        with pytest.raises(ValueError, match="cannot share a scan"):
            cluster_batched_queries(Cluster(2), [compiled, recompiled],
                                    _full_shards(data, 2))

    def test_catalog_update_rejects_bad_shapes(self, data):
        catalog = tpch_catalog(data)
        with pytest.raises(PlanError):
            catalog.update_column("lineitem", "nope", np.zeros(4))
        with pytest.raises(PlanError):
            catalog.update_column("lineitem", "l_quantity", np.zeros(4))


# -- read sets -------------------------------------------------------------


def _broadcast_bytes(compiled):
    return [(name, arr.dtype.str, arr.tobytes())
            for name, arr in compiled.broadcasts]


class TestReadSets:
    """A plan's reads must name every column its lowering looks at:
    writing any column outside them leaves the plan, its broadcasts
    and its rows unchanged, so serving its cached answer is safe."""

    def test_writes_outside_the_reads_change_nothing(self, data, catalog):
        model = XeonModel()
        base = {name: compile_query(load_query(name), catalog, name)
                for name in ALL_QUERIES}
        for compiled in base.values():
            assert {(compiled.fact, column)
                    for column in compiled.needed_columns} \
                <= set(compiled.reads), compiled.name
        outside = inside = 0
        for index, (table, column) in enumerate(
                (table, column) for table in catalog.tables
                for column in catalog.tables[table]):
            written = tpch_catalog(data)
            values = written.tables[table][column]
            written.update_column(
                table, column,
                np.random.default_rng([5, index]).permutation(values))
            for name, compiled in base.items():
                version = written.data_version(compiled.reads)
                if (table, column) in compiled.reads:
                    inside += 1
                    assert version > compiled.data_version, (name, column)
                    continue
                outside += 1
                assert version == compiled.data_version, (name, column)
                again = compile_query(load_query(name), written, name)
                assert again.data_version == compiled.data_version
                assert again.plan == compiled.plan, (name, column)
                assert _broadcast_bytes(again) == \
                    _broadcast_bytes(compiled), (name, column)
                assert again.run_xeon(model, written.tables).value == \
                    compiled.run_xeon(model, catalog.tables).value
        assert inside and outside
        assert inside + outside == len(ALL_QUERIES) * sum(
            len(columns) for columns in catalog.tables.values())

    def test_bump_version_invalidates_every_plan(self, data):
        written = tpch_catalog(data)
        base = {name: compile_query(load_query(name), written, name)
                for name in ALL_QUERIES}
        written.bump_version()
        for name, compiled in base.items():
            assert written.data_version(compiled.reads) \
                > compiled.data_version, name


# -- shared-scan batching --------------------------------------------------


class TestBatchedQueries:
    @pytest.mark.parametrize("num_dpus", [1, 2, 4])
    def test_batch_byte_equal_to_standalone(self, data, catalog,
                                            query_texts, num_dpus):
        batch = [compile_query(query_texts[n], catalog, n)
                 for n in QUERIES]
        shards = _full_shards(data, num_dpus)
        union = list(dict.fromkeys(
            n for c in batch for n in c.needed_columns))
        projected = [Table(s.name, {n: s.columns[n] for n in union})
                     for s in shards]
        result = cluster_batched_queries(Cluster(num_dpus), batch,
                                         projected)
        assert result.detail["batch"] == len(batch)
        for compiled, rows in zip(batch, result.value):
            assert rows == _reference_rows(query_texts, catalog, data,
                                           compiled.name, num_dpus)

    def test_rejects_empty_batch(self, data):
        with pytest.raises(ValueError):
            cluster_batched_queries(Cluster(2), [],
                                    _full_shards(data, 2))

    def test_rejects_mixed_catalog_versions(self, data, catalog,
                                            query_texts):
        # Members may not have recorded different versions of a column
        # they both read: bump_version() advances every column, and
        # l_extendedprice is read by q6 and q14 alike.
        shards = _full_shards(data, 2)
        for write in ("bump", "l_extendedprice"):
            mutable = tpch_catalog(data)
            q6 = compile_query(query_texts["q6"], mutable, "q6")
            if write == "bump":
                mutable.bump_version()
            else:
                mutable.update_column("lineitem", write,
                                      mutable.tables["lineitem"][write].copy())
            q14 = compile_query(query_texts["q14"], mutable, "q14")
            with pytest.raises(ValueError, match="cannot share a scan"):
                cluster_batched_queries(Cluster(2), [q6, q14], shards)
        # A write to a column only one member reads (q6's l_quantity)
        # leaves them batchable, and byte-equal to standalone runs.
        mutable = tpch_catalog(data)
        q6 = compile_query(query_texts["q6"], mutable, "q6")
        mutable.update_column("lineitem", "l_quantity",
                              mutable.tables["lineitem"]["l_quantity"].copy())
        q14 = compile_query(query_texts["q14"], mutable, "q14")
        assert mutable.data_version(q6.reads) > q6.data_version
        result = cluster_batched_queries(Cluster(2), [q6, q14], shards)
        for compiled, rows in zip((q6, q14), result.value):
            assert rows == _reference_rows(query_texts, catalog, data,
                                           compiled.name, 2)

    def test_batch_cheaper_than_separate_jobs(self, data, catalog,
                                              query_texts):
        # The batch pays one admission, one fabric message per DPU,
        # and one gather for the whole query list; payload bytes are
        # identical (the same partial group tables cross the fabric).
        batch = [compile_query(query_texts[n], catalog, n)
                 for n in QUERIES]
        shards = _full_shards(data, 4)
        batched = cluster_batched_queries(Cluster(4), batch, shards)
        separate_cycles = 0.0
        separate_bytes = 0
        for name in QUERIES:
            compiled = compile_query(query_texts[name], catalog, name)
            projected = [
                Table(s.name,
                      {n: s.columns[n] for n in compiled.needed_columns})
                for s in shards
            ]
            result = cluster_compiled_query(
                Cluster(4), compiled, projected,
                strategy="pre_aggregate")
            separate_cycles += result.cycles
            separate_bytes += result.network_bytes
        assert batched.network_bytes == separate_bytes
        assert batched.cycles < separate_cycles


# -- serving front end -----------------------------------------------------


TENANTS = {"acme": "gold", "beta": "silver", "corp": "bronze",
           "dyn": "bronze"}


def _frontend(data, catalog, query_texts, num_dpus=4, fault_plan=None,
              tenants=None, **kwargs):
    cluster = (Cluster(num_dpus, fault_plan=fault_plan)
               if fault_plan is not None else Cluster(num_dpus))
    return ServingFrontend(
        cluster, catalog, query_texts,
        {"lineitem": _full_shards(data, num_dpus)},
        tenants=tenants if tenants is not None else dict(TENANTS),
        **kwargs,
    )


class TestServingFrontend:
    def test_all_requests_served_byte_equal(self, data, catalog,
                                            query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=7)
        requests = workload.generate(40, mean_interarrival_cycles=20_000.0)
        # A burst of distinct cold queries, one per tenant, at cycle 0:
        # every one is a result-cache miss, so they share one scan.
        requests += [
            QueryRequest(len(requests) + i, tenant, tier, name, 0.0)
            for i, ((tenant, tier), name) in enumerate(
                zip(TENANTS.items(), QUERIES))
        ]
        frontend = _frontend(data, catalog, query_texts)
        report = frontend.run(requests)
        assert len(report.records) == len(requests)
        assert report.counters["cache_hits"] > 0
        assert report.counters.get("batches", 0) > 0
        for name in QUERIES:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_uncached_unbatched_byte_equal(self, data, catalog,
                                           query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=3)
        requests = workload.generate(12, mean_interarrival_cycles=40_000.0)
        frontend = _frontend(data, catalog, query_texts,
                             batching=False, caching=False)
        report = frontend.run(requests)
        assert len(report.records) == len(requests)
        assert all(r.source == "direct" for r in report.records)
        for name in {r.query for r in requests}:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_deterministic_replay(self, data, catalog, query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=5)
        requests = workload.generate(24, mean_interarrival_cycles=15_000.0)

        def run():
            report = _frontend(data, catalog, query_texts).run(requests)
            return [(r.request.index, r.completion, r.latency, r.source)
                    for r in report.records]

        assert run() == run()

    def test_workload_is_deterministic_and_zipfian(self):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=9)
        first = workload.generate(200, mean_interarrival_cycles=1000.0)
        second = OpenLoopWorkload(TENANTS, QUERIES, seed=9).generate(
            200, mean_interarrival_cycles=1000.0)
        assert first == second
        counts = {t: sum(1 for r in first if r.tenant == t)
                  for t in TENANTS}
        assert counts["acme"] > counts["corp"]  # rank-1 beats rank-3

    def test_gold_latency_beats_bronze_under_overload(self, data, catalog,
                                                      query_texts):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=13)
        requests = workload.generate(60, mean_interarrival_cycles=4_000.0)
        report = _frontend(data, catalog, query_texts).run(requests)
        gold = report.tier_digests["gold"]
        bronze = report.tier_digests["bronze"]
        assert gold.quantile(0.99) < bronze.quantile(0.99)

    def test_record_builds_each_digest_once(self, data, catalog,
                                            query_texts, monkeypatch):
        """A tenant or tier digest is built at its first sample, not
        once per request, and the disabled hub formats no metric name;
        a live hub gets every sample under the same names."""
        from repro.obs import MetricsHub
        from repro.obs.metrics import NullMetricsHub

        built = []

        class CountingDigest(frontend_module.LatencyDigest):
            __slots__ = ()

            def __init__(self, name=""):
                built.append(name)
                super().__init__(name)

        observed = []
        monkeypatch.setattr(frontend_module, "LatencyDigest", CountingDigest)
        monkeypatch.setattr(NullMetricsHub, "observe",
                            lambda hub, name, value: observed.append(name))
        requests = OpenLoopWorkload(TENANTS, QUERIES, seed=5).generate(
            24, mean_interarrival_cycles=15_000.0)
        report = _frontend(data, catalog, query_texts).run(requests)
        tenants = sorted({r.tenant for r in requests})
        tiers = sorted({r.tier for r in requests})
        assert sorted(built) == sorted(
            ["serve.latency"]
            + [f"serve.tenant.{t}.latency" for t in tenants]
            + [f"serve.tier.{t}.latency" for t in tiers])
        assert observed == []
        for tenant in tenants:
            assert report.tenant_digests[tenant].count == sum(
                r.tenant == tenant for r in requests)

        frontend = _frontend(data, catalog, query_texts)
        frontend.hub = hub = MetricsHub(frontend.cluster.engine)
        live = frontend.run(requests)
        assert [(r.request.index, r.latency) for r in live.records] == [
            (r.request.index, r.latency) for r in report.records]
        for group, digests in (("tenant", live.tenant_digests),
                               ("tier", live.tier_digests)):
            for name, digest in digests.items():
                fed = hub.digests[f"serve.{group}.{name}.latency"]
                assert (fed.count, fed.total) == (digest.count, digest.total)

    def test_result_cache_serves_repeats(self, data, catalog, query_texts):
        workload = OpenLoopWorkload({"solo": "gold"}, ["q6"], seed=1)
        requests = workload.generate(8, mean_interarrival_cycles=50_000.0)
        frontend = _frontend(data, catalog, query_texts,
                             tenants={"solo": "gold"})
        report = frontend.run(requests)
        sources = [r.source for r in sorted(report.records,
                                            key=lambda r: r.request.index)]
        assert sources[0] == "direct"
        assert sources.count("cache") == 7


# -- exactly-once serving --------------------------------------------------


class TestExactlyOnceServing:
    """Each (query, data version) is executed at most once: a write
    recomputes only the queries that read the written column, and a
    queued request whose answer is cached never rides in a batch."""

    @staticmethod
    def _count_executions(monkeypatch):
        executed = []
        direct = frontend_module.cluster_compiled_query
        batched = frontend_module.cluster_batched_queries

        def run_direct(cluster, compiled, shards, **kwargs):
            executed.append((compiled.name, compiled.data_version))
            return direct(cluster, compiled, shards, **kwargs)

        def run_batch(cluster, batch, shards):
            executed.extend((c.name, c.data_version) for c in batch)
            return batched(cluster, batch, shards)

        monkeypatch.setattr(frontend_module, "cluster_compiled_query",
                            run_direct)
        monkeypatch.setattr(frontend_module, "cluster_batched_queries",
                            run_batch)
        return executed

    @staticmethod
    def _misses_are_executions(report):
        counters = report.counters
        assert (counters.get("direct", 0)
                + counters.get("batched_queries", 0)
                == counters["result_cache"]["misses"])

    def test_write_recomputes_only_its_readers(self, data, monkeypatch):
        executed = self._count_executions(monkeypatch)
        texts = {name: load_query(name) for name in ALL_QUERIES}
        catalog = tpch_catalog(data)
        shards = _full_shards(data, 4)
        tenants = {f"t{i}": "gold" for i in range(len(ALL_QUERIES))}
        frontend = ServingFrontend(Cluster(4), catalog, texts,
                                   {"lineitem": shards}, tenants=tenants)

        def segment(start, repeats):
            return [
                QueryRequest(k, f"t{k % len(tenants)}", "gold",
                             ALL_QUERIES[k % len(ALL_QUERIES)],
                             start + 1000.0 * k)
                for k in range(repeats * len(ALL_QUERIES))
            ]

        first = frontend.run(segment(0.0, 2))
        self._misses_are_executions(first)
        assert sorted(executed) == sorted((n, 0) for n in ALL_QUERIES)

        # Write l_quantity (read only by q1 and q6) between segments.
        quantity = catalog.tables["lineitem"]["l_quantity"]
        values = np.random.default_rng(3).permutation(quantity)
        catalog.update_column("lineitem", "l_quantity", values)
        bounds = np.cumsum([0] + [shard.num_rows for shard in shards])
        for i, shard in enumerate(shards):
            shard.columns["l_quantity"] = values[bounds[i]:bounds[i + 1]]
        before = len(executed)
        second = frontend.run(segment(frontend.cluster.engine.now, 2))
        self._misses_are_executions(second)

        recomputed = sorted(name for name, _v in executed[before:])
        assert recomputed == ["q1", "q6"]
        assert len(executed) == len(set(executed))
        for record in second.records:
            if record.request.query not in ("q1", "q6"):
                assert record.source == "cache"
        for name in ALL_QUERIES:
            assert second.results[name] == _reference_rows(
                texts, catalog, data, name, shards=shards), name

    def test_run_counters_are_per_run(self, data, catalog, query_texts):
        frontend = _frontend(data, catalog, query_texts)
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=7)
        requests = workload.generate(40, mean_interarrival_cycles=20_000.0)
        half = len(requests) // 2
        reports = [frontend.run(requests[:half]),
                   frontend.run(requests[half:])]
        for cache in ("plan_cache", "result_cache"):
            totals = getattr(frontend, cache).stats()
            for key in ("hits", "misses", "evictions", "invalidations"):
                assert sum(report.counters[cache][key]
                           for report in reports) == totals[key], (cache, key)
        # The second run starts with the first run's results cached, so
        # it misses less; lifetime counters could never shrink.
        assert reports[1].counters["result_cache"]["misses"] \
            < reports[0].counters["result_cache"]["misses"]
        for report in reports:
            self._misses_are_executions(report)


# -- rate-limit integrity --------------------------------------------------


class TestRateLimitIntegrity:
    """The token bucket must gate *every* dequeue path, including the
    shared-scan batch window, and failures must be loud."""

    def test_token_starved_tenant_not_batched(self, data, catalog,
                                              query_texts):
        # A tenant whose bucket is empty must stay queued even while a
        # co-tenant's batch window is open: the batch-collection loop
        # used to omit starved flows from the eligibility map, which
        # WeightedFairQueue.pop treats as eligible — a silent
        # rate-limit bypass.
        tiers = dict(DEFAULT_TIERS)
        tiers["trickle"] = TierSpec("trickle", weight=1.0,
                                    rate_per_kcycle=0.001, burst=1.0)
        refill_cycles = 1000.0 / 0.001  # one token per 1e6 cycles
        tenants = {"fast": "gold", "slow": "trickle"}
        requests = [
            QueryRequest(0, "slow", "trickle", "q6", 0.0),
            QueryRequest(1, "slow", "trickle", "q1", 1.0),
            QueryRequest(2, "fast", "gold", "q12", 2.0),
            QueryRequest(3, "fast", "gold", "q14", 3.0),
        ]
        frontend = _frontend(data, catalog, query_texts, tenants=tenants,
                             tiers=tiers, caching=False)
        report = frontend.run(requests)
        assert len(report.records) == len(requests)
        second = next(r for r in report.records if r.request.index == 1)
        # The slow tenant spent its only token on request 0 near cycle
        # 0; request 1 cannot be served before the bucket refills.
        assert second.completion >= refill_cycles
        for name in {r.query for r in requests}:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_failed_token_take_raises(self, data, catalog, query_texts):
        # If the eligibility map and a bucket ever disagree, the take
        # must fail loudly instead of serving an unmetered request.
        frontend = _frontend(data, catalog, query_texts)
        assert frontend.buckets["corp"].try_take(0.0)  # drain bronze
        with pytest.raises(RuntimeError, match="without an available"):
            frontend._take_token("corp", 0.0)

    def test_tier_rejects_sub_token_burst(self):
        # burst < 1 makes cycles_until_available return inf forever,
        # which used to hang the serving loop's idle branch.
        with pytest.raises(ValueError, match="burst"):
            TierSpec("bad", weight=1.0, rate_per_kcycle=1.0, burst=0.5)

    def test_unfillable_bucket_stalls_loudly(self, data, catalog,
                                             query_texts):
        # Defense in depth behind the TierSpec check: a bucket that can
        # never hold a full token must raise, not _advance(inf).
        frontend = _frontend(data, catalog, query_texts,
                             tenants={"solo": "gold"})
        frontend.buckets["solo"] = TokenBucket(rate_per_kcycle=1.0,
                                               burst=0.5)
        with pytest.raises(RuntimeError, match="stalled"):
            frontend.run([QueryRequest(0, "solo", "gold", "q6", 0.0)])


# -- chaos serving ---------------------------------------------------------


class TestChaosServing:
    """Kill DPU 0 mid-run: every response stays byte-equal and the
    gold tenant's tail degrades less than bronze's."""

    def _run(self, data, catalog, query_texts, fault_plan,
             mean_interarrival_cycles=6_000.0, **kwargs):
        workload = OpenLoopWorkload(TENANTS, QUERIES, seed=21)
        requests = workload.generate(
            48, mean_interarrival_cycles=mean_interarrival_cycles)
        frontend = _frontend(data, catalog, query_texts,
                             fault_plan=fault_plan, **kwargs)
        report = frontend.run(requests)
        return frontend, report

    def test_dpu0_killed_mid_run_byte_equal(self, data, catalog,
                                            query_texts):
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=30_000.0))
        frontend, report = self._run(data, catalog, query_texts, plan)
        assert len(report.records) == 48
        assert 0 in frontend.cluster.recovery.declared_dead
        assert frontend.cluster.leader == 1
        for name in QUERIES:
            assert report.results[name] == _reference_rows(
                query_texts, catalog, data, name)

    def test_gold_tail_degrades_less_than_bronze(self, data, catalog,
                                                 query_texts):
        # Run uncached and unbatched at moderate load: every request
        # is a real cluster job, so the post-recovery backlog drains
        # in weighted-fair order and the tier weights — not a shared
        # warmup backlog or batch membership — set the tails. (With
        # caching on, only the four unique queries ever reach the
        # cluster and every tier's p99 sits in the same warmup queue,
        # where the kill stall shifts gold and bronze identically.)
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=200_000.0))
        direct = dict(mean_interarrival_cycles=80_000.0,
                      caching=False, batching=False)
        _, healthy = self._run(data, catalog, query_texts, None, **direct)
        _, chaotic = self._run(data, catalog, query_texts, plan, **direct)
        gold_delta = (chaotic.tier_digests["gold"].quantile(0.99)
                      - healthy.tier_digests["gold"].quantile(0.99))
        bronze_delta = (chaotic.tier_digests["bronze"].quantile(0.99)
                        - healthy.tier_digests["bronze"].quantile(0.99))
        assert gold_delta < bronze_delta
