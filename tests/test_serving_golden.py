"""Serving runs pinned bit for bit (``tests/goldens/serving.json``).

Five small seeded runs of :class:`~repro.serve.ServingFrontend` at TPC-H
scale 0.002 cover every dequeue and recording path of the serving loop:

* ``warm_starved`` — warm caches, then a dense stream that leaves every
  tier's token bucket empty for long stretches (idle sleeps on bucket
  refills, many backlogged flows per turn);
* ``overload_batching`` — cold caches, a burst of distinct queries and
  an overloaded stream: result-cache misses batch into shared scans;
* ``uncached_unbatched`` — caching and batching off, one cluster job
  per request;
* ``write`` — two runs on one frontend around a
  ``Catalog.update_column`` write to ``lineitem.l_quantity``;
* ``live_hub`` — a live :class:`~repro.obs.MetricsHub` mirrors every
  latency.

For each run the golden stores a sha256 over every record (index,
tenant, tier, query, arrival, completion, latency, source, batch
size), every digest's full state (name, sorted buckets, count, the
``repr`` of its total, min, max, zeros) with the tenant and tier
digests in key order, the run's counters, the caches' stats and a
digest of the result rows. Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/test_serving_golden.py --update-goldens
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.sql import load_query, tpch_catalog
from repro.obs import MetricsHub
from repro.serve import OpenLoopWorkload, QueryRequest
from test_equivalence import GOLDEN_DIR, digest
from test_serving import (  # noqa: F401  (module fixtures)
    QUERIES, TENANTS, _frontend, catalog, data)

GOLDEN = GOLDEN_DIR / "serving.json"


def _records_sha256(records):
    hasher = hashlib.sha256()
    for record in records:
        request = record.request
        hasher.update(repr((
            request.index, request.tenant, request.tier, request.query,
            request.arrival, record.completion, record.latency,
            record.source, record.batch_size)).encode())
    return hasher.hexdigest()


def _digest_state(digest_):
    return {
        "name": digest_.name,
        "buckets": sorted([index, count]
                          for index, count in digest_.buckets.items()),
        "count": digest_.count,
        "total": repr(digest_.total),
        "min": repr(digest_.minimum),
        "max": repr(digest_.maximum),
        "zeros": digest_.zeros,
    }


def _observe(frontend, report):
    return {
        "records": len(report.records),
        "records_sha256": _records_sha256(report.records),
        "overall": _digest_state(report.overall),
        "tenant_digests": [_digest_state(d)
                           for d in report.tenant_digests.values()],
        "tier_digests": [_digest_state(d)
                         for d in report.tier_digests.values()],
        "counters": report.counters,
        "plan_cache": frontend.plan_cache.stats(),
        "result_cache": frontend.result_cache.stats(),
        "results": digest(report.results),
        "clock": repr(frontend.cluster.engine.now),
    }


def _shifted(frontend, requests):
    start = frontend.cluster.engine.now
    return [replace(r, arrival=r.arrival + start) for r in requests]


def _warm():
    return [QueryRequest(i, "acme", "gold", name, 0.0)
            for i, name in enumerate(QUERIES)]


def _warm_starved(data, catalog, texts):
    frontend = _frontend(data, catalog, texts)
    runs = [frontend.run(_warm())]
    stream = OpenLoopWorkload(TENANTS, QUERIES, seed=17).generate(
        150, mean_interarrival_cycles=1_500.0)
    runs.append(frontend.run(_shifted(frontend, stream)))
    return [_observe(frontend, report) for report in runs]


def _overload_batching(data, catalog, texts):
    frontend = _frontend(data, catalog, texts)
    requests = OpenLoopWorkload(TENANTS, QUERIES, seed=13).generate(
        40, mean_interarrival_cycles=3_000.0)
    # A burst of distinct cold queries, one per tenant, at cycle 0.
    requests += [
        QueryRequest(len(requests) + i, tenant, tier, name, 0.0)
        for i, ((tenant, tier), name) in enumerate(
            zip(TENANTS.items(), QUERIES))
    ]
    return [_observe(frontend, frontend.run(requests))]


def _uncached_unbatched(data, catalog, texts):
    frontend = _frontend(data, catalog, texts, batching=False,
                         caching=False)
    requests = OpenLoopWorkload(TENANTS, QUERIES, seed=3).generate(
        6, mean_interarrival_cycles=40_000.0)
    return [_observe(frontend, frontend.run(requests))]


def _write(data, catalog, texts):
    catalog = tpch_catalog(data)
    frontend = _frontend(data, catalog, texts)
    shards = frontend.shards["lineitem"]
    workload = OpenLoopWorkload(TENANTS, QUERIES, seed=29)
    runs = [frontend.run(workload.generate(
        16, mean_interarrival_cycles=6_000.0))]
    quantity = catalog.tables["lineitem"]["l_quantity"]
    values = np.random.default_rng(3).permutation(quantity)
    catalog.update_column("lineitem", "l_quantity", values)
    bounds = np.cumsum([0] + [shard.num_rows for shard in shards])
    for i, shard in enumerate(shards):
        shard.columns["l_quantity"] = values[bounds[i]:bounds[i + 1]]
    stream = OpenLoopWorkload(TENANTS, QUERIES, seed=31).generate(
        16, mean_interarrival_cycles=6_000.0)
    runs.append(frontend.run(_shifted(frontend, stream)))
    return [_observe(frontend, report) for report in runs]


def _live_hub(data, catalog, texts):
    frontend = _frontend(data, catalog, texts)
    frontend.hub = hub = MetricsHub(frontend.cluster.engine)
    requests = OpenLoopWorkload(TENANTS, QUERIES, seed=5).generate(
        30, mean_interarrival_cycles=5_000.0)
    observed = _observe(frontend, frontend.run(requests))
    observed["hub_digests"] = [_digest_state(d)
                               for name, d in hub.digests.items()
                               if name.startswith("serve.")]
    return [observed]


CASES = {
    "warm_starved": _warm_starved,
    "overload_batching": _overload_batching,
    "uncached_unbatched": _uncached_unbatched,
    "write": _write,
    "live_hub": _live_hub,
}


@pytest.fixture(scope="module")
def texts():
    return {name: load_query(name) for name in QUERIES}


def test_serving_golden(data, catalog, texts, request):
    observed = {name: case(data, catalog, texts)
                for name, case in CASES.items()}
    # The pinned runs exercise what they are named for.
    starved = observed["warm_starved"][1]
    assert starved["counters"]["cache_hits"] == starved["records"]
    assert observed["overload_batching"][0]["counters"]["batches"] > 0
    write = observed["write"][1]["result_cache"]
    assert write["invalidations"] > 0
    text = json.dumps(observed, indent=2, sort_keys=True) + "\n"
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(text)
        return
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(observed)
    for name in sorted(golden):
        assert golden[name] == json.loads(json.dumps(observed[name])), name
    assert GOLDEN.read_text() == text
