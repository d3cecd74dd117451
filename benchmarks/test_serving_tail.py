"""Serving tail latency under 1x-16x open-loop oversubscription.

The PR-10 headline experiment (docs/SERVING.md): a Zipfian
multi-tenant TPC-H mix is offered to the QoS serving front end at
multiples of the cluster's measured service rate. Reported per
offered-load factor: overall p50/p99/p999 (sim cycles), cache hit
share, and batch count — then the per-tier isolation curve at the
highest factor, where start-time fair queueing plus per-tenant token
buckets must hold the gold tail below the bronze tail.

Invariants asserted, not just printed:

* every request completes (open-loop queue drains);
* every response is byte-equal to a standalone
  ``cluster_compiled_query`` run of the same query — caching and
  shared-scan batching are pure latency optimizations;
* at 16x the gold tenant's p99 stays below the bronze tenant's;
* a long-lived front end whose writes keep its caches missing holds no
  live DDR on any DPU after a segment.
"""

import mmap
import time
from dataclasses import replace

import numpy as np
from conftest import run_once

from repro.apps.sql import Table, compile_query, load_query, tpch_catalog
from repro.baseline import XeonModel
from repro.cluster import Cluster, cluster_compiled_query
from repro.memory.ddr import zeroed_pages
from repro.serve import OpenLoopWorkload, ServingFrontend
from repro.workloads.tpch import generate_tpch

QUERIES = ["q1", "q6", "q12", "q14"]
TENANTS = {
    "tenant-a": "gold",
    "tenant-b": "silver",
    "tenant-c": "silver",
    "tenant-d": "bronze",
    "tenant-e": "bronze",
    "tenant-f": "bronze",
}
NUM_DPUS = 4
FACTORS = [1, 2, 4, 8, 16]
REQUESTS_PER_FACTOR = 64
SEED = 42


def _dataset():
    data = generate_tpch(scale=0.002, seed=11)
    catalog = tpch_catalog(data)
    queries = {name: load_query(name) for name in QUERIES}
    fact = data.tables["lineitem"]
    columns = list(fact)
    total = len(fact[columns[0]])
    bounds = [total * i // NUM_DPUS for i in range(NUM_DPUS + 1)]
    shards = [
        Table(f"lineitem_shard{i}",
              {n: fact[n][bounds[i]:bounds[i + 1]] for n in columns})
        for i in range(NUM_DPUS)
    ]
    return data, catalog, queries, shards


def _reference_rows(queries, catalog, shards):
    rows = {}
    for name in QUERIES:
        compiled = compile_query(queries[name], catalog, name)
        projected = [
            Table(s.name,
                  {n: s.columns[n] for n in compiled.needed_columns})
            for s in shards
        ]
        rows[name] = cluster_compiled_query(
            Cluster(NUM_DPUS), compiled, projected).value
    return rows


def _mean_service_cycles(queries, catalog, shards):
    """One standalone pass over the mix: the service rate the sweep's
    offered load is a multiple of."""
    total = 0.0
    for name in QUERIES:
        compiled = compile_query(queries[name], catalog, name)
        projected = [
            Table(s.name,
                  {n: s.columns[n] for n in compiled.needed_columns})
            for s in shards
        ]
        total += cluster_compiled_query(
            Cluster(NUM_DPUS), compiled, projected).cycles
    return total / len(QUERIES)


def _serve(queries, catalog, shards, mean_interarrival, **kwargs):
    frontend = ServingFrontend(
        Cluster(NUM_DPUS), catalog, queries, {"lineitem": shards},
        tenants=TENANTS, **kwargs)
    workload = OpenLoopWorkload(TENANTS, QUERIES, seed=SEED)
    requests = workload.generate(REQUESTS_PER_FACTOR, mean_interarrival)
    return frontend.run(requests)


def test_tail_latency_vs_offered_load(benchmark, report):
    data, catalog, queries, shards = _dataset()
    reference = _reference_rows(queries, catalog, shards)
    service = _mean_service_cycles(queries, catalog, shards)

    def sweep():
        results = []
        for factor in FACTORS:
            serving = _serve(queries, catalog, shards, service / factor)
            results.append((factor, serving))
        return results

    results = run_once(benchmark, sweep)

    rows = []
    for factor, serving in results:
        assert len(serving.records) == REQUESTS_PER_FACTOR
        for name in QUERIES:
            assert serving.results[name] == reference[name]
        q = serving.quantiles()
        hits = serving.counters.get("cache_hits", 0)
        rows.append(
            f"{factor:3d}x  {q['p50']:>12.0f}  {q['p99']:>12.0f}  "
            f"{q['p999']:>12.0f}  {100.0 * hits / REQUESTS_PER_FACTOR:>5.1f}%"
            f"  {serving.counters.get('batches', 0):>7d}"
        )
    report(
        "Serving tail latency vs offered load "
        f"({NUM_DPUS} DPUs, {len(TENANTS)} tenants, cycles)",
        "load       p50           p99          p999   cache  batches",
        rows,
    )

    factor, worst = results[-1]
    assert factor == 16
    tier_rows = []
    for tier in ("gold", "silver", "bronze"):
        digest = worst.tier_digests[tier]
        q = worst.quantiles(digest)
        tier_rows.append(
            f"{tier:>6}  {digest.count:>4d}  {q['p50']:>12.0f}  "
            f"{q['p99']:>12.0f}  {q['p999']:>12.0f}"
        )
    report(
        "Per-tier isolation at 16x oversubscription (cycles)",
        "  tier     n           p50           p99          p999",
        tier_rows,
    )
    gold = worst.tier_digests["gold"]
    bronze = worst.tier_digests["bronze"]
    assert gold.quantile(0.99) < bronze.quantile(0.99)

    benchmark.extra_info["service_cycles"] = service
    benchmark.extra_info["p99_16x"] = results[-1][1].quantiles()["p99"]


def test_caching_and_batching_ablation(benchmark, report):
    """The optimizations must pay for themselves: serving the same 8x
    stream with caches and batching disabled takes strictly longer in
    sim time and runs every query as its own cluster job."""
    data, catalog, queries, shards = _dataset()
    reference = _reference_rows(queries, catalog, shards)
    service = _mean_service_cycles(queries, catalog, shards)
    interarrival = service / 8

    def sweep():
        full = _serve(queries, catalog, shards, interarrival)
        bare = _serve(queries, catalog, shards, interarrival,
                      caching=False, batching=False)
        return full, bare

    full, bare = run_once(benchmark, sweep)
    for serving in (full, bare):
        assert len(serving.records) == REQUESTS_PER_FACTOR
        for name in QUERIES:
            assert serving.results[name] == reference[name]
    assert bare.counters.get("direct", 0) == REQUESTS_PER_FACTOR
    full_done = max(r.completion for r in full.records)
    bare_done = max(r.completion for r in bare.records)
    assert full_done < bare_done
    rows = [
        f"serving layer on   {full.quantiles()['p99']:>12.0f}  "
        f"{full_done:>14.0f}",
        f"serving layer off  {bare.quantiles()['p99']:>12.0f}  "
        f"{bare_done:>14.0f}",
    ]
    report(
        "Caching + batching ablation at 8x oversubscription (cycles)",
        "configuration               p99        makespan",
        rows,
    )
    benchmark.extra_info["speedup"] = bare_done / full_done


# The long-lived front end: serve_mixed's seven-query mix, one write to
# lineitem.l_quantity opening every 4M-cycle period after the first.
MIXED_QUERIES = ["q1", "q3", "q5", "q6", "q10", "q12", "q14"]
PERIODS = 10
WRITE_PERIOD_CYCLES = 4_000_000.0
MIXED_INTERARRIVAL = 20_000.0


def _resident_ddr_pages(dpus):
    """Resident 4 KB pages of each DPU's DDR, from this process's page
    map (bit 63 of a page's entry), as tests/test_dmem_footprint.py
    reads DMEM; None where pages are not 4 KB or the map cannot be read
    or does not show which pages of a fresh mapping were written."""
    if mmap.PAGESIZE != 4096:
        return None

    def resident(array):
        address = array.__array_interface__["data"][0]
        with open("/proc/self/pagemap", "rb") as pagemap:
            pagemap.seek(address // mmap.PAGESIZE * 8)
            raw = pagemap.read(array.nbytes // mmap.PAGESIZE * 8)
        return (np.frombuffer(raw, dtype="<u8") >> 63).astype(bool)

    probe = zeroed_pages(2 * mmap.PAGESIZE)
    probe[0] = 1
    try:
        if resident(probe).tolist() != [True, False]:
            return None
        return [int(resident(dpu.ddr.data).sum()) for dpu in dpus]
    except OSError:
        return None


def test_long_lived_frontend_holds_no_ddr(benchmark, report):
    """One front end on one cluster over ten write periods of
    serve_mixed-style traffic (Poisson arrivals of the seven-query mix,
    a seeded permutation of l_quantity written through the catalog and
    mirrored into the shards every period). Every job frees the DDR it
    stores, so after each segment every DPU holds 0 live bytes and the
    resident DDR pages stop growing once the first jobs have touched
    them. Host seconds are reported, not asserted."""
    data = generate_tpch(scale=0.002, seed=11)
    catalog = tpch_catalog(data)
    sql = {name: load_query(name) for name in MIXED_QUERIES}
    fact = catalog.tables["lineitem"]
    total = len(fact["l_quantity"])
    bounds = [total * i // NUM_DPUS for i in range(NUM_DPUS + 1)]
    shards = [
        Table(f"lineitem_shard{i}",
              {n: c[bounds[i]:bounds[i + 1]] for n, c in fact.items()})
        for i in range(NUM_DPUS)
    ]
    frontend = ServingFrontend(Cluster(NUM_DPUS), catalog, sql,
                               {"lineitem": shards}, tenants=TENANTS)
    dpus = frontend.cluster.dpus
    requests = int(WRITE_PERIOD_CYCLES // MIXED_INTERARRIVAL)

    def periods():
        observed = []
        for period in range(PERIODS):
            if period:
                values = np.random.default_rng([SEED, period]).permutation(
                    catalog.tables["lineitem"]["l_quantity"])
                catalog.update_column("lineitem", "l_quantity", values)
                for i, shard in enumerate(shards):
                    shard.columns["l_quantity"] = values[bounds[i]:
                                                         bounds[i + 1]]
            start = frontend.cluster.engine.now
            stream = OpenLoopWorkload(TENANTS, MIXED_QUERIES,
                                      seed=SEED + period).generate(
                requests, MIXED_INTERARRIVAL)
            began = time.perf_counter()
            serving = frontend.run([replace(r, arrival=r.arrival + start)
                                    for r in stream])
            host_s = time.perf_counter() - began
            oracle = {
                name: compile_query(sql[name], catalog, name).run_xeon(
                    XeonModel(), catalog.tables).value
                for name in serving.results}
            observed.append((serving, oracle, host_s,
                             [dpu.heap.live_bytes() for dpu in dpus],
                             _resident_ddr_pages(dpus)))
        return observed

    observed = run_once(benchmark, periods)
    rows = []
    for period, (serving, oracle, host_s, live, pages) in enumerate(observed):
        assert len(serving.records) == requests
        assert serving.results == oracle
        assert live == [0] * NUM_DPUS, period
        misses = serving.counters["result_cache"]["misses"]
        resident = "n/a" if pages is None else f"{max(pages):>8d}"
        rows.append(f"{period:6d}  {requests:8d}  {misses:6d}  "
                    f"{max(live):>9d}  {resident:>8}  {host_s:>7.3f}")
    report(
        f"Long-lived front end over {PERIODS} write periods "
        f"({NUM_DPUS} DPUs, TPC-H 0.002)",
        "period  requests  misses  live DDR B  DDR pages  host s",
        rows,
    )
    benchmark.extra_info["resident_ddr_pages"] = [
        pages for *_rest, pages in observed]
