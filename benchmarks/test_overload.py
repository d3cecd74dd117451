"""Overload: throughput under 1x-8x job oversubscription.

Not a paper figure — the paper models the happy path — but the
experiment behind every admission-control knob this repo grew: offer
the coordinator more concurrent jobs than the DPU has execution slots
and check that (a) every admitted job's result stays byte-exact,
(b) throughput *plateaus* at the slot limit instead of collapsing as
oversubscription climbs to 8x, and (c) every queue in the chain stays
bounded (admission queue, DMAD rings, ATE inboxes).

Two policies are swept:

* ``queue`` — all offered jobs eventually run; the plateau shows up
  as flat goodput with queue wait absorbing the excess;
* ``shed`` — excess jobs fail fast with a typed ``OverloadError``;
  goodput stays at the plateau while the shed count grows.
"""

import numpy as np
from conftest import run_once

from repro.apps.streaming import stream_columns
from repro.core import DPU
from repro.runtime.admission import AdmissionController, OverloadError
from repro.sim import Store

SLOTS = 8          # coordinator's concurrency limit
ROWS_PER_JOB = 2048
FACTORS = [1, 2, 4, 8]


def _job_kernel(ctx, addr):
    total = [0]

    def process(tile, tlo, thi, arrays):
        total[0] += int(arrays[0].sum())
        return 8

    yield from stream_columns(
        ctx, [(addr, 8)], ROWS_PER_JOB, 512, process, dmem_base=64
    )
    return total[0]


def _offered_load(num_jobs, seed=9):
    rng = np.random.default_rng(seed)
    shards = [
        rng.integers(0, 1 << 20, ROWS_PER_JOB).astype(np.uint64)
        for _ in range(num_jobs)
    ]
    return shards, [int(shard.sum()) for shard in shards]


def _run_oversubscribed(factor, policy):
    """Offer ``factor * SLOTS`` concurrent jobs through the gate."""
    dpu = DPU()
    engine = dpu.engine
    controller = AdmissionController(
        engine, max_concurrent=SLOTS, policy=policy, max_queue_depth=256
    )
    num_jobs = factor * SLOTS
    shards, expected = _offered_load(num_jobs)
    addresses = [dpu.store_array(shard) for shard in shards]

    # The coordinator hands each admitted job a free core from a pool
    # sized to the slot limit, so admission control is exactly what
    # keeps per-core state (DMEM tiles, events) from being trampled.
    pool = Store(engine)
    for core in list(dpu.config.core_ids)[:SLOTS]:
        pool.put(core)

    results = {}
    shed = []

    def job(index):
        try:
            yield from controller.acquire(f"job{index}")
        except OverloadError as error:
            shed.append((index, error))
            return None
        try:
            core = yield pool.get()
            processes = dpu.spawn_kernels(
                _job_kernel, args=(addresses[index],), cores=[core]
            )
            values = yield engine.all_of(processes)
            pool.put(core)
            results[index] = values[0]
        finally:
            controller.release()
        return None

    jobs = [engine.process(job(index)) for index in range(num_jobs)]
    engine.run_until_complete(engine.all_of(jobs))

    for index, value in results.items():
        assert value == expected[index], f"job {index} result corrupted"
    for _index, error in shed:
        assert error.occupancy["limit"] == SLOTS  # typed, with context

    done_bytes = len(results) * ROWS_PER_JOB * 8
    cycles = engine.now
    return {
        "factor": factor,
        "offered": num_jobs,
        "completed": len(results),
        "shed": len(shed),
        "cycles": cycles,
        "gbps": dpu.gbps(done_bytes, cycles),
        "queue_peak": controller.counters.get("queue_peak"),
        "running_peak": controller.counters.get("running_peak"),
        "dmad_peak": dpu.counters.get("dmad.occupancy_peak"),
        "wait_cycles": controller.counters.get("wait_cycles"),
    }


def test_queue_policy_throughput_plateaus(benchmark, report):
    def sweep():
        return [_run_oversubscribed(factor, "queue") for factor in FACTORS]

    rows = run_once(benchmark, sweep)
    report(
        "Overload sweep (queue policy, 8 job slots)",
        f"{'offered':>8} {'done':>6} {'GB/s':>7} {'queue_pk':>9} "
        f"{'wait_cyc':>10}",
        [
            f"{r['offered']:>8} {r['completed']:>6} {r['gbps']:>7.2f} "
            f"{r['queue_peak']:>9.0f} {r['wait_cycles']:>10.0f}"
            for r in rows
        ],
    )
    base = rows[0]
    assert base["completed"] == base["offered"]  # 1x: nothing queued long
    for r in rows:
        # Every offered job completes (queue policy), byte-exact
        # (asserted inside the run), with bounded structures.
        assert r["completed"] == r["offered"] and r["shed"] == 0
        assert r["running_peak"] <= SLOTS
        assert r["queue_peak"] <= 256
        # Plateau, not collapse: goodput at 2x-8x stays within 30% of
        # the un-oversubscribed rate.
        assert r["gbps"] >= 0.7 * base["gbps"]
    # Backpressure is visible where it should be: queue wait grows
    # with oversubscription while throughput stays flat.
    assert rows[-1]["wait_cycles"] > rows[0]["wait_cycles"]


def test_shed_policy_keeps_goodput_and_sheds_excess(benchmark, report):
    def sweep():
        return [_run_oversubscribed(factor, "shed") for factor in FACTORS]

    rows = run_once(benchmark, sweep)
    report(
        "Overload sweep (shed policy, 8 job slots)",
        f"{'offered':>8} {'done':>6} {'shed':>6} {'GB/s':>7}",
        [
            f"{r['offered']:>8} {r['completed']:>6} {r['shed']:>6} "
            f"{r['gbps']:>7.2f}"
            for r in rows
        ],
    )
    base = rows[0]
    assert base["shed"] == 0
    for r in rows[1:]:
        # Excess arrivals shed fast with typed errors; admitted work
        # still finishes at the plateau rate.
        assert r["completed"] + r["shed"] == r["offered"]
        assert r["shed"] > 0
        assert r["completed"] >= SLOTS
        assert r["gbps"] >= 0.5 * base["gbps"]
