"""The four fixed workloads: seeded inputs, one timed pass, oracle checks.

Each workload is built in three steps so a traced run can tell input
generation apart from the rest of set-up:

* ``Workload(seed, variants)`` generates the inputs, and only the
  inputs, from the seed (TPC-H tables, Fig. 11 columns, write
  permutations, and one request stream per variant);
* ``prepare()`` computes the oracle rows and the fixed derived inputs
  (catalog, shards);
* ``run_pass(variant)`` runs one pass on freshly built DPUs, clusters
  and frontends, so its simulated numbers repeat exactly, and returns a
  :class:`PassResult`.

``serve_mixed`` has nine variants, request streams seeded from
``(seed, variant)``, which a run spreads over its processes; the other
workloads have one. ``serve_read`` serves nine such streams, one after
another, in every pass.

The oracle for every SQL result is the Xeon functional path
(``CompiledQuery.run_xeon``, numpy group-by) run in ``prepare()``; the
DPU, cluster and serving paths must match it byte for byte. The Fig.
11 kernel checksums what it streams, and the read+write point checks
the written-back column, against numpy over the same inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.sql import Table, compile_query, efficiency_gain, load_query, tpch_catalog
from repro.apps.streaming import stream_columns
from repro.baseline import XeonModel
from repro.cluster import Cluster, cluster_compiled_query
from repro.core import DPU
from repro.faults import ChaosSpec, FaultPlan
from repro.serve import OpenLoopWorkload, QueryRequest, ServingFrontend
from repro.workloads.tpch import generate_tpch

# The largest TPC-H scale at which the Q5/Q10 broadcasts still fit DMEM.
SCALE = 0.004
QUERIES = ("q1", "q3", "q5", "q6", "q10", "q12", "q14")
# Zipf rank follows this order: tenant-a (gold) is the most popular.
TENANTS = {
    "tenant-a": "gold",
    "tenant-b": "silver",
    "tenant-c": "silver",
    "tenant-d": "bronze",
    "tenant-e": "bronze",
    "tenant-f": "bronze",
}
SERVE_DPUS = 4
WRITE_PERIOD_CYCLES = 4_000_000.0
WRITE_COLUMN = ("lineitem", "l_quantity")

# (label, columns, tile rows, write back, rows per core): the three
# axes of Fig. 11 -- buffer size, column count, and read+write.
FIG11_POINTS = (
    ("r2k", 1, 512, False, 16384),
    ("r4k", 1, 1024, False, 16384),
    ("r8k", 1, 2048, False, 16384),
    ("c1", 1, 2048, False, 8192),
    ("c4", 4, 512, False, 8192),
    ("c8", 8, 256, False, 8192),
    ("rw8k", 1, 2048, True, 16384),
)
FIG11_CORES = 32

# (op name, query, DPUs, exchange strategy, kill the coordinator)
SCALEOUT_JOBS = tuple(
    [(f"{q}.{n}dpu", q, n, "pre_aggregate", False)
     for q in ("q1", "q6", "q12") for n in (1, 2, 4, 8)]
    + [(f"q3_a2a.{n}dpu", "q3", n, "all_to_all", False) for n in (2, 4, 8)]
    + [("q6_failover.4dpu", "q6", 4, None, True)]
)
FAILOVER_AT_CYCLE = 15_000.0

# max_rate ladder: mean interarrival per rung, slowest first.
LADDER_INTERARRIVALS = (80_000, 56_000, 40_000, 28_000, 20_000, 14_000,
                        10_000, 7_000)
LADDER_REQUESTS = 1000
# A rung passes when p99 and drain both stay within this many cycles.
# Placed so that no rung's p99 or drain at the default seed (11) lies
# within 10% of it; rung p99s there run 1.26M..2.33M, not monotone in
# load, because each rung is a single 1,000-request stream.
LADDER_LIMIT_CYCLES = 1_775_000.0


@dataclass
class PassResult:
    """What one pass did: ops attempted and failed, and every simulated
    number it produced (``latencies`` is the sample the end-to-end
    percentiles read; ``sim`` the named breakdown)."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    sim: Dict[str, float] = field(default_factory=dict)

    def attempt(self, name: str, op: Callable[[], bool], count: int = 1) -> None:
        """Run one op (or ``count`` ops sharing one check); an exception
        or a False result counts every one of them as failed."""
        self.attempted += count
        try:
            ok = op()
        except Exception as error:  # one failing op must not end the run
            ok, why = False, f"{type(error).__name__}: {error}"
        else:
            why = "output differs from the oracle"
        if not ok:
            self.failed += count
            self._note(name, why)

    def fail(self, name: str, count: int, why: str) -> None:
        """Count ``count`` ops that could not complete: attempted, failed."""
        self.attempted += count
        self.failed += count
        self._note(name, why)

    def _note(self, name: str, why: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def signature(self) -> Tuple[Dict[str, float], str]:
        """Every simulated number of the pass, for the bit-identity
        check between passes and processes."""
        digest = hashlib.sha256(
            np.asarray(self.latencies, dtype=np.float64).tobytes()).hexdigest()
        return dict(self.sim), digest


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "p50_cycles": percentile(latencies, 0.50),
        "p99_cycles": percentile(latencies, 0.99),
        "geomean_cycles": geomean(latencies),
    }


def xeon_oracle(sql: Dict[str, str], catalog, tables,
                names: Sequence[str] = QUERIES) -> Dict[str, Tuple]:
    """Reference rows: each query's Xeon functional path."""
    model = XeonModel()
    return {
        name: compile_query(sql[name], catalog, name).run_xeon(
            model, tables).value
        for name in names
    }


def shard_columns(columns: Dict[str, np.ndarray], num_shards: int,
                  prefix: str) -> List[Table]:
    """Contiguous, near-equal row ranges, one shard per DPU."""
    total = len(next(iter(columns.values())))
    bounds = [total * i // num_shards for i in range(num_shards + 1)]
    return [
        Table(f"{prefix}_shard{i}",
              {name: values[bounds[i]:bounds[i + 1]]
               for name, values in columns.items()})
        for i in range(num_shards)
    ]


# -- single_dpu ----------------------------------------------------------------


def _stream_kernel(ctx, refs, rows, tile_rows, writeback):
    """The Fig. 11 32-core streaming kernel: consume each tile cheaply
    (8 cycles), checksum it on the host side for the oracle, and on the
    read+write point add one to the first column before write-back."""
    total = 0

    def process(tile, lo, hi, arrays):
        nonlocal total
        for values in arrays:
            total += int(values.sum(dtype=np.uint64))
        if writeback is not None:
            arrays[0] += np.uint32(1)
        return 8

    yield from stream_columns(ctx, refs, rows, tile_rows, process,
                              writeback=writeback)
    return total


class SingleDpu:
    """Closed loop on one DPU: the Fig. 11 sweep, then the seven
    compiled TPC-H queries on a fresh DPU each and on the Xeon model."""

    name = "single_dpu"
    variants = 1

    def __init__(self, seed: int, variants: Sequence[int] = (0,)) -> None:
        self.data = generate_tpch(scale=SCALE, seed=seed)
        rows = max(point[4] for point in FIG11_POINTS)
        columns = max(point[1] for point in FIG11_POINTS)
        self.columns = np.random.default_rng(seed).integers(
            0, 2**32, size=(FIG11_CORES, columns, rows), dtype=np.uint32)

    def prepare(self) -> None:
        self.sql = {name: load_query(name) for name in QUERIES}
        self.catalog = tpch_catalog(self.data)
        self.oracle = xeon_oracle(self.sql, self.catalog, self.data)

    def _fig11_point(self, result: PassResult, label, num_columns, tile_rows,
                     write_back, rows) -> bool:
        dpu = DPU()
        addresses = {
            core: [dpu.store_array(self.columns[core, column, :rows])
                   for column in range(num_columns)]
            for core in range(FIG11_CORES)
        }
        out = dpu.alloc(rows * 4 * FIG11_CORES) if write_back else None

        def kernel(ctx):
            refs = [(address, 4) for address in addresses[ctx.core_id]]
            writeback = ((out + ctx.core_id * rows * 4, 4)
                         if write_back else None)
            return (yield from _stream_kernel(ctx, refs, rows, tile_rows,
                                              writeback))

        launch = dpu.launch(kernel)
        read_bytes = FIG11_CORES * rows * 4 * num_columns
        written = FIG11_CORES * rows * 4 if write_back else 0
        result.sim[f"dms.gbps.{label}"] = launch.gbps(read_bytes + written)
        result.sim[f"dms.{label}.cycles"] = launch.cycles
        result.latencies.append(launch.cycles)
        expected = self.columns[:, :num_columns, :rows].sum(
            axis=(1, 2), dtype=np.uint64)
        ok = [int(v) for v in launch.values] == [int(v) for v in expected]
        if write_back:
            for core in range(FIG11_CORES):
                written_back = dpu.load_array(out + core * rows * 4, rows,
                                              np.uint32)
                ok = ok and np.array_equal(
                    written_back, self.columns[core, 0, :rows] + np.uint32(1))
        return ok

    def _query(self, result: PassResult, name: str, model: XeonModel) -> bool:
        compiled = compile_query(self.sql[name], self.catalog, name)
        on_dpu = compiled.run_dpu(DPU(), self.data)
        on_xeon = compiled.run_xeon(model, self.data)
        result.sim[f"sql.{name}.dpu_cycles"] = on_dpu.cycles
        result.sim[f"sql.{name}.bytes_streamed"] = float(on_dpu.bytes_streamed)
        result.sim[f"sql.{name}.perf_per_watt_gain"] = efficiency_gain(
            on_dpu, on_xeon)
        result.latencies.append(on_dpu.cycles)
        return on_dpu.value == self.oracle[name] == on_xeon.value

    def run_pass(self, variant: int = 0) -> PassResult:
        result = PassResult()
        for label, *point in FIG11_POINTS:
            result.attempt(f"fig11.{label}",
                           lambda: self._fig11_point(result, label, *point))
        model = XeonModel()
        for name in QUERIES:
            result.attempt(f"sql.{name}",
                           lambda: self._query(result, name, model))
        sim = result.sim
        if not result.failed:
            sim["dms_gbps"] = sim["dms.gbps.r8k"]
            sim["query_cycles_geomean"] = geomean(
                [sim[f"sql.{q}.dpu_cycles"] for q in QUERIES])
            sim["perf_per_watt_gain"] = geomean(
                [sim[f"sql.{q}.perf_per_watt_gain"] for q in QUERIES])
        sim.update(latency_summary(result.latencies))
        return result


# -- scaleout ------------------------------------------------------------------


class ScaleOut:
    """Closed loop over cluster jobs: Q1/Q6/Q12 pre-aggregated on 1, 2,
    4 and 8 DPUs, Q3 shuffled all-to-all on 2, 4 and 8 DPUs, and Q6 on 4
    DPUs with the coordinator killed mid-job."""

    name = "scaleout"
    variants = 1

    def __init__(self, seed: int, variants: Sequence[int] = (0,)) -> None:
        self.data = generate_tpch(scale=SCALE, seed=seed)

    def prepare(self) -> None:
        queries = sorted({job[1] for job in SCALEOUT_JOBS})
        self.sql = {name: load_query(name) for name in queries}
        self.catalog = tpch_catalog(self.data)
        self.oracle = xeon_oracle(self.sql, self.catalog, self.data, queries)
        fact = self.data.tables["lineitem"]
        self.shards = {}
        for name in queries:
            needed = compile_query(self.sql[name], self.catalog,
                                   name).needed_columns
            columns = {column: fact[column] for column in needed}
            for num_dpus in sorted({job[2] for job in SCALEOUT_JOBS}):
                self.shards[name, num_dpus] = shard_columns(
                    columns, num_dpus, "lineitem")

    def _job(self, result: PassResult, compiled, label, name, num_dpus,
             strategy, kill) -> bool:
        plan = None
        if kill:
            plan = FaultPlan.none().with_chaos(
                ChaosSpec("dpu.dead", (0,), at_cycle=FAILOVER_AT_CYCLE))
        job = cluster_compiled_query(
            Cluster(num_dpus, fault_plan=plan), compiled[name],
            self.shards[name, num_dpus], strategy=strategy)
        sim = result.sim
        sim[f"cluster.{label}.cycles"] = job.cycles
        sim["cluster.network_bytes"] = (sim.get("cluster.network_bytes", 0.0)
                                        + job.network_bytes)
        if num_dpus == 8:
            for phase in ("local", "gather"):
                sim[f"cluster.{label}.{phase}_cycles"] = job.detail[
                    f"{phase}_cycles"]
            if strategy == "all_to_all":
                for phase in ("partition", "exchange"):
                    sim[f"cluster.{label}.{phase}_cycles"] = job.detail[
                        f"{phase}_cycles"]
        if kill:
            stats = job.recovery
            sim["recovery.detection_latency_cycles"] = float(
                stats.detection_latency_cycles or 0.0)
            sim["recovery.reexecuted_shards"] = float(stats.reexecuted_shards)
            sim["recovery.leader_election_latency_cycles"] = float(
                stats.leader_election_latency_cycles or 0.0)
            sim["recovery.journal_bytes"] = float(stats.journal_bytes)
        result.latencies.append(job.cycles)
        return job.value == self.oracle[name]

    def run_pass(self, variant: int = 0) -> PassResult:
        result = PassResult()
        compiled = {name: compile_query(text, self.catalog, name)
                    for name, text in self.sql.items()}
        for label, name, num_dpus, strategy, kill in SCALEOUT_JOBS:
            result.attempt(
                f"cluster.{label}",
                lambda: self._job(result, compiled, label, name, num_dpus,
                                  strategy, kill))
        sim = result.sim
        if not result.failed:
            at8 = [sim[f"cluster.{q}.8dpu.cycles"]
                   for q in ("q1", "q6", "q12", "q3_a2a")]
            sim["job_cycles_8dpu"] = geomean(at8)
            sim["failover_cycles"] = sim["cluster.q6_failover.4dpu.cycles"]
            # Base: the same pre-aggregated job on one DPU.
            sim["cluster.speedup_8dpu"] = geomean([
                sim[f"cluster.{q}.1dpu.cycles"] / sim[f"cluster.{q}.8dpu.cycles"]
                for q in ("q1", "q6", "q12")])
        sim.update(latency_summary(result.latencies))
        return result


# -- serving -------------------------------------------------------------------


def request_stream(seed: int, variant: int, requests: int,
                   interarrival: float) -> List[QueryRequest]:
    """One seeded Poisson stream. A pass or run pools several streams
    because one stream's tail is too few samples to repeat across
    seeds."""
    stream_seed = int(np.random.SeedSequence([seed, variant])
                      .generate_state(1)[0])
    return OpenLoopWorkload(TENANTS, QUERIES, seed=stream_seed).generate(
        requests, interarrival)


def _serve_segment(frontend: ServingFrontend, requests: Sequence[QueryRequest],
                   oracle: Dict[str, Tuple], result: PassResult, label: str):
    """Serve one batch of requests; each query's rows must equal the
    oracle, and every request must complete."""
    try:
        report = frontend.run(requests)
    except Exception as error:  # one failing segment must not end the run
        result.fail(label, len(requests), f"{type(error).__name__}: {error}")
        return None
    missing = len(requests) - len(report.records)
    if missing:
        result.fail(label, missing, "requests never completed")
    per_query: Dict[str, int] = {}
    for record in report.records:
        name = record.request.query
        per_query[name] = per_query.get(name, 0) + 1
    for name, count in sorted(per_query.items()):
        result.attempt(f"{label}.{name}",
                       lambda: report.results.get(name) == oracle[name],
                       count=count)
    return report


def serving_breakdown(frontends: Sequence[ServingFrontend],
                      reports: Sequence) -> Dict[str, float]:
    """Serving numbers read from frontends and their reports, in run
    order: latency percentiles, cache hits and misses, batching, and the
    drain after the last arrival of the last run."""
    records = [record for report in reports for record in report.records]
    latencies = [record.latency for record in records]
    metrics = {
        "serve.requests": float(len(records)),
        "serve.p50_cycles": percentile(latencies, 0.50),
        "serve.p99_cycles": percentile(latencies, 0.99),
    }
    for tier in ("gold", "bronze"):
        metrics[f"serve.tier.{tier}.p99_cycles"] = percentile(
            [r.latency for r in records if r.request.tier == tier], 0.99)
    for cache in ("plan_cache", "result_cache"):
        for key in ("hits", "misses"):
            metrics[f"serve.{cache}.{key}"] = float(sum(
                getattr(frontend, cache).stats()[key]
                for frontend in frontends))
    metrics["serve.result_cache.invalidations"] = float(sum(
        frontend.result_cache.stats()["invalidations"]
        for frontend in frontends))
    batches = sum(report.counters.get("batches", 0) for report in reports)
    metrics["serve.batches"] = float(batches)
    metrics["serve.batch.mean_size"] = (
        sum(report.counters.get("batched_queries", 0) for report in reports)
        / batches if batches else 0.0)
    last = reports[-1].records if reports else []
    metrics["serve.drain_cycles"] = (
        max(r.completion for r in last) - max(r.request.arrival for r in last)
        if last else 0.0)
    return metrics


def _frontend(catalog, sql, shards) -> ServingFrontend:
    return ServingFrontend(Cluster(SERVE_DPUS), catalog, sql,
                           {"lineitem": shards}, tenants=TENANTS)


class ServeRead:
    """Open loop, read only: after one request per query warms the
    caches, nine seeded streams of 1,100 Poisson arrivals each (mean
    interarrival 4,000 cycles) follow one another on the same frontend,
    and every request hits the result cache."""

    name = "serve_read"
    variants = 1
    streams_per_pass = 9
    requests = 1_100
    interarrival = 4_000.0

    def __init__(self, seed: int, variants: Sequence[int] = (0,)) -> None:
        self.data = generate_tpch(scale=SCALE, seed=seed)
        self.streams = [request_stream(seed, k, self.requests,
                                       self.interarrival)
                        for k in range(self.streams_per_pass)]

    def prepare(self) -> None:
        self.sql = {name: load_query(name) for name in QUERIES}
        self.catalog = tpch_catalog(self.data)
        self.oracle = xeon_oracle(self.sql, self.catalog, self.data)
        self.shards = shard_columns(self.catalog.tables["lineitem"],
                                    SERVE_DPUS, "lineitem")

    def run_pass(self, variant: int = 0) -> PassResult:
        result = PassResult()
        frontend = _frontend(self.catalog, self.sql, self.shards)
        warm = [QueryRequest(index=i, tenant="tenant-a", tier="gold",
                             query=name, arrival=0.0)
                for i, name in enumerate(QUERIES)]
        warm_report = _serve_segment(frontend, warm, self.oracle, result,
                                     "warm")
        reports = []
        for k, stream in enumerate(self.streams):
            # Each stream starts once the previous one has drained.
            start = frontend.cluster.engine.now
            shifted = [replace(r, arrival=r.arrival + start) for r in stream]
            report = _serve_segment(frontend, shifted, self.oracle, result,
                                    f"s{k}")
            if report is not None:
                reports.append(report)
        if warm_report is not None and len(reports) == len(self.streams):
            result.latencies = [record.latency for report in reports
                                for record in report.records]
            result.sim.update(serving_breakdown([frontend],
                                                [warm_report, *reports]))
        result.sim.update(latency_summary(result.latencies))
        return result


class ServeMixed:
    """Open loop with writes: cold caches, 500 Poisson arrivals (mean
    interarrival 20,000 cycles), and every 4,000,000 cycles a seeded
    permutation of ``lineitem.l_quantity`` written through the catalog
    and mirrored into the shards. Writes are barriers between
    ``ServingFrontend.run`` segments."""

    name = "serve_mixed"
    variants = 9
    requests = 500
    interarrival = 20_000.0

    def __init__(self, seed: int, variants: Sequence[int] = (0,)) -> None:
        self.seed = seed
        self.data = generate_tpch(scale=SCALE, seed=seed)
        self.streams = {v: request_stream(seed, v, self.requests,
                                          self.interarrival)
                        for v in variants}
        self.versions: List[np.ndarray] = []
        self._make_versions(self._writes(self.requests, self.interarrival))

    @staticmethod
    def _writes(requests: int, interarrival: float) -> int:
        """Writes land every period within the stream's nominal span
        (requests x mean interarrival), so their count does not depend
        on where the random last arrival falls."""
        span = requests * interarrival
        return max(0, math.ceil(span / WRITE_PERIOD_CYCLES) - 1)

    def _make_versions(self, writes: int) -> None:
        """Column contents after each of the first ``writes`` writes."""
        table, column = WRITE_COLUMN
        original = self.data.tables[table][column]
        while len(self.versions) <= writes:
            version = len(self.versions)
            self.versions.append(original if version == 0 else (
                np.random.default_rng([self.seed, version])
                .permutation(original)))

    def prepare(self) -> None:
        self.sql = {name: load_query(name) for name in QUERIES}
        self.oracles: List[Dict[str, Tuple]] = []
        base = tpch_catalog(self.data)
        self._base_oracle = xeon_oracle(self.sql, base, base.tables)
        # Only queries that read the written column change with it.
        self._reads_column = [
            name for name in QUERIES
            if WRITE_COLUMN[1] in compile_query(
                self.sql[name], base, name).needed_columns]
        self._fill_oracles()

    def _fill_oracles(self) -> None:
        table, column = WRITE_COLUMN
        for values in self.versions[len(self.oracles):]:
            catalog = tpch_catalog(self.data)
            catalog.tables[table][column] = values
            oracle = dict(self._base_oracle)
            oracle.update(xeon_oracle(self.sql, catalog, catalog.tables,
                                      self._reads_column))
            self.oracles.append(oracle)

    def _serve(self, stream: Sequence[QueryRequest], writes: int,
               result: PassResult):
        """One serving run on a fresh catalog, shards and frontend, with
        ``writes`` writes one period apart; returns the frontend and its
        reports."""
        table, column = WRITE_COLUMN
        catalog = tpch_catalog(self.data)
        shards = shard_columns(catalog.tables[table], SERVE_DPUS, table)
        bounds = np.cumsum([0] + [shard.num_rows for shard in shards])
        frontend = _frontend(catalog, self.sql, shards)
        segments: List[List[QueryRequest]] = [[] for _ in range(writes + 1)]
        for request in stream:
            segments[min(writes, int(request.arrival
                                     // WRITE_PERIOD_CYCLES))].append(request)
        reports = []
        for version, segment in enumerate(segments):
            if version:
                values = self.versions[version]
                catalog.update_column(table, column, values)
                for i, shard in enumerate(shards):
                    shard.columns[column] = values[bounds[i]:bounds[i + 1]]
            if not segment:
                continue
            report = _serve_segment(frontend, segment, self.oracles[version],
                                    result, f"v{version}")
            if report is not None:
                reports.append(report)
        return frontend, reports

    def run_pass(self, variant: int = 0) -> PassResult:
        result = PassResult()
        stream = self.streams[variant]
        frontend, reports = self._serve(
            stream, self._writes(self.requests, self.interarrival), result)
        result.latencies = [r.latency for report in reports
                            for r in report.records]
        result.sim.update(serving_breakdown([frontend], reports))
        result.sim.update(latency_summary(result.latencies))
        return result

    def ladder(self) -> Dict[str, float]:
        """Climb the interarrival ladder until a rung misses the p99 or
        drain limit or returns a wrong row; ``max_rate`` is the highest
        rung passed, in requests per million cycles."""
        rungs: Dict[str, float] = {}
        max_rate = 0.0
        for interarrival in LADDER_INTERARRIVALS:
            stream = request_stream(self.seed, interarrival,
                                    LADDER_REQUESTS, float(interarrival))
            writes = self._writes(LADDER_REQUESTS, interarrival)
            self._make_versions(writes)
            self._fill_oracles()
            result = PassResult()
            frontend, reports = self._serve(stream, writes, result)
            latencies = [r.latency for report in reports
                         for r in report.records]
            p99 = percentile(latencies, 0.99)
            drain = frontend.cluster.engine.now - stream[-1].arrival
            rungs[f"serve.ladder.{interarrival}.p99_cycles"] = p99
            rungs[f"serve.ladder.{interarrival}.drain_cycles"] = drain
            if (result.failed or p99 > LADDER_LIMIT_CYCLES
                    or drain > LADDER_LIMIT_CYCLES):
                break
            max_rate = 1e6 / interarrival
        rungs["max_rate"] = max_rate
        return rungs


WORKLOADS = {cls.name: cls for cls in (SingleDpu, ScaleOut, ServeRead,
                                       ServeMixed)}


def build(name: str, seed: int, variants: Sequence[int] = (0,)):
    """Generate a workload's inputs for the given variants, then its
    oracle."""
    workload = WORKLOADS[name](seed, variants)
    workload.prepare()
    return workload
