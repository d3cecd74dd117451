"""Resilience: throughput vs. fault rate, with byte-exact results.

Not a paper figure — the paper models the happy path — but the
experiment any hardware team runs before tape-out: inject faults at
increasing rates and check that (a) results stay bit-identical, since
every recovery mechanism (ECC scrub, descriptor replay, ATE
retransmission, link-level retry, core failover) repairs rather than
approximates, and (b) throughput degrades smoothly rather than
collapsing.

The swept axis is a fault intensity ``lam`` in {0, 1e-6, 1e-5, 1e-4}.
Sites see ``lam`` scaled by their event exposure, so one knob moves
every layer by a comparable amount:

=================  ============  ====================================
site               rate          why
=================  ============  ====================================
``ddr.bitflip``    ``lam / 10``  fires per *bit*: millions of trials
``dms.descriptor``  ``lam * 1e3``  fires per descriptor: dozens
``ate.drop``       ``lam * 1e3``  fires per message leg: hundreds
``ate.delay``      ``lam * 1e3``  fires per message leg
``net.drop``       ``lam * 1e3``  fires per fabric message: dozens
``core.dead``      ``lam * 1e3``  fires per core: a handful
=================  ============  ====================================

The ``lam == 0`` column doubles as the zero-overhead-off regression:
it must reproduce the no-plan seed timings exactly.
"""

import numpy as np
from conftest import run_once

from repro.apps.hll import dpu_hll
from repro.apps.streaming import stream_columns
from repro.cluster import Cluster, cluster_hll
from repro.core import DPU
from repro.faults import FaultPlan
from repro.runtime import surviving_cores

LAMBDAS = [0.0, 1e-6, 1e-5, 1e-4]


def plan_for(lam, seed=20, sites=("ddr.bitflip", "dms.descriptor",
                                  "ate.drop", "ate.delay", "net.drop",
                                  "core.dead")):
    if lam == 0.0:
        return FaultPlan.none()
    scale = {
        "ddr.bitflip": lam / 10.0,
        "dms.descriptor": lam * 1e3,
        "ate.drop": lam * 1e3,
        "ate.delay": lam * 1e3,
        "net.drop": lam * 1e3,
        "core.dead": lam * 1e3,
    }
    return FaultPlan(seed=seed, rates={s: scale[s] for s in sites})


# -- DMS streaming ------------------------------------------------------------


def dms_streaming_curve():
    rows = 32768
    data = np.arange(rows, dtype=np.uint64) ^ 0x5A5A
    points = []
    for lam in LAMBDAS:
        dpu = DPU(fault_plan=plan_for(
            lam, sites=("ddr.bitflip", "dms.descriptor")))
        addr = dpu.store_array(data)
        seen = []

        def kernel(ctx):
            yield from stream_columns(
                ctx, [(addr, 8)], rows, 1024,
                lambda tile, lo, hi, arrays: seen.append(arrays[0].copy())
                or 8,
            )

        launch = dpu.launch(kernel, cores=[0])
        assert np.array_equal(np.concatenate(seen), data), lam
        gbps = launch.gbps(rows * 8)
        points.append((lam, launch.cycles, gbps, dpu))
    return points


def test_resilience_dms_streaming(benchmark, report):
    points = run_once(benchmark, dms_streaming_curve)
    baseline = points[0][1]
    rows = []
    for lam, cycles, gbps, dpu in points:
        scrubs = dpu.ddr_channel.ecc.corrected
        replays = dpu.counters.get("dmad.crc_replays")
        rows.append(f"{lam:8.0e}  {gbps:6.2f} GB/s  {cycles:10.0f} cyc"
                    f"  scrubs={scrubs:<4} replays={replays:.0f}")
        benchmark.extra_info[f"gbps@{lam:g}"] = gbps
    report("Resilience: DMS streaming vs fault intensity",
           "  lambda  throughput       cycles  recovery", rows)
    # Zero-overhead off: explicit none() equals the implicit default.
    seed_dpu = DPU()
    seed_addr = seed_dpu.store_array(np.arange(1024, dtype=np.uint64))

    def seed_kernel(ctx):
        yield from stream_columns(ctx, [(seed_addr, 8)], 1024, 512,
                                  lambda *a: 8)

    off_dpu = DPU(fault_plan=FaultPlan.none())
    off_addr = off_dpu.store_array(np.arange(1024, dtype=np.uint64))

    def off_kernel(ctx):
        yield from stream_columns(ctx, [(off_addr, 8)], 1024, 512,
                                  lambda *a: 8)

    assert (seed_dpu.launch(seed_kernel, cores=[0]).cycles
            == off_dpu.launch(off_kernel, cores=[0]).cycles)
    # Faults cost cycles, monotonically in intensity for this seed.
    assert points[-1][1] > baseline
    assert all(cycles >= baseline for _lam, cycles, _g, _d in points)
    # At the top intensity both recovery paths actually fired.
    assert points[-1][3].ddr_channel.ecc.corrected > 0
    assert points[-1][3].counters.get("dmad.crc_replays") > 0


# -- ATE RPC ping -------------------------------------------------------------


def ate_ping_curve():
    pings = 256
    points = []
    for lam in LAMBDAS:
        dpu = DPU(fault_plan=plan_for(lam, sites=("ate.drop", "ate.delay")))
        address = dpu.address_map.dmem_address(9, 0)

        def kernel(ctx):
            for _ in range(pings):
                yield from ctx.fetch_add(9, address, 1)

        launch = dpu.launch(kernel, cores=[0])
        assert dpu.scratchpads[9].read_u64(0) == pings, lam
        points.append((lam, launch.cycles / pings, dpu))
    return points


def test_resilience_ate_rpc_ping(benchmark, report):
    points = run_once(benchmark, ate_ping_curve)
    baseline = points[0][1]
    rows = []
    for lam, cyc_per_rpc, dpu in points:
        dropped = dpu.counters.get("ate.dropped")
        retries = dpu.counters.get("ate.retries")
        rows.append(f"{lam:8.0e}  {cyc_per_rpc:8.1f} cyc/rpc"
                    f"  dropped={dropped:.0f} retries={retries:.0f}")
        benchmark.extra_info[f"cycles_per_rpc@{lam:g}"] = cyc_per_rpc
    report("Resilience: ATE fetch-add ping vs fault intensity",
           "  lambda  latency          recovery", rows)
    assert points[0][1] == baseline
    assert points[-1][1] > baseline  # retries cost real cycles
    assert points[-1][2].counters.get("ate.retries") > 0
    # Exactly-once held at every intensity (asserted inside the curve).


# -- Scale-out HLL ------------------------------------------------------------


def scaleout_hll_curve():
    rng = np.random.default_rng(17)
    shards = [rng.integers(0, 2**63, 16384, dtype=np.uint64).view(np.uint64)
              for _ in range(2)]
    points = []
    for lam in LAMBDAS:
        cluster = Cluster(2, fault_plan=plan_for(
            lam, sites=("net.drop", "ddr.bitflip")))
        result = cluster_hll(cluster, shards, precision=10)
        points.append((lam, result, cluster))
    return points


def test_resilience_scaleout_hll(benchmark, report):
    points = run_once(benchmark, scaleout_hll_curve)
    baseline = points[0][1]
    rows = []
    for lam, result, cluster in points:
        rows.append(
            f"{lam:8.0e}  {result.cycles:12.0f} cyc  est={result.value:9.1f}"
            f"  retx={cluster.fabric.retransmissions}"
        )
        benchmark.extra_info[f"cycles@{lam:g}"] = result.cycles
    report("Resilience: scale-out HLL (2 DPUs) vs fault intensity",
           "  lambda        cycles  estimate     recovery", rows)
    # Bit-identical estimate at every fault intensity: recovery
    # repairs, it never approximates.
    for _lam, result, _cluster in points[1:]:
        assert result.value == baseline.value
    assert points[-1][1].cycles >= baseline.cycles


# -- Core failover ------------------------------------------------------------


def failover_hll_curve():
    # Murmur64 is compute-bound on the iterative multiplier (the CRC32
    # variant saturates DMS bandwidth long before 32 cores, which
    # would hide the cost of dead cores entirely), and small chunks
    # give the survivors enough work items to redistribute.
    rng = np.random.default_rng(23)
    values = rng.integers(0, 2**63, 65536, dtype=np.uint64).view(np.uint64)
    points = []
    for lam in LAMBDAS:
        dpu = DPU(fault_plan=plan_for(lam, seed=31, sites=("core.dead",)))
        addr = dpu.store_array(values)
        cores = surviving_cores(dpu.faults, dpu.config.core_ids)
        result = dpu_hll(dpu, addr, len(values), precision=10,
                         hash_fn="murmur64", chunk_values=512, cores=cores)
        points.append((lam, result, len(cores)))
    return points


def test_resilience_hll_core_failover(benchmark, report):
    points = run_once(benchmark, failover_hll_curve)
    baseline = points[0][1]
    rows = []
    for lam, result, ncores in points:
        rows.append(f"{lam:8.0e}  {result.cycles:10.0f} cyc"
                    f"  cores={ncores:<3} est={result.value:9.1f}")
        benchmark.extra_info[f"cores@{lam:g}"] = ncores
    report("Resilience: HLL under core failures (work stealing)",
           "  lambda      cycles  survivors", rows)
    # The fetch-add work queue redistributes dead cores' chunks: the
    # sketch (and so the estimate) is identical at any core count.
    for _lam, result, _ncores in points[1:]:
        assert result.value == baseline.value
        assert np.array_equal(result.detail["registers"],
                              baseline.detail["registers"])
    assert points[-1][2] < points[0][2]  # cores actually died at 1e-4
    assert points[-1][1].cycles > baseline.cycles  # fewer cores: slower
