"""Seeded differential matrix for the DMS descriptor path.

Each program drives two or three dpCores through a seeded mix of
descriptor work: a two-buffer LOOP stream with auto-increment on one
channel, whose notify events throttle refills through the flow-control
tail, and a random selection of strided, gather, scatter, write-back
and EVENT-descriptor transfers on the other channel. Some programs add
a partition round (hash config, key and payload loads, hash, store,
CRC and CID drains), some saturate ``dms_max_outstanding``, and some
run a host process issuing DDR requests every few cycles, so
descriptor transfers tie with it at the same instant. Programs run
fault-free, under ``dms.descriptor`` CRC faults and under DDR ECC bit
flips, untraced and traced.

The pins in ``goldens/dms_programs.json`` were recorded when the DMAD
walkers and every data descriptor ran as generator processes: launch
cycles, kernel results with the instant each awaited event arrived,
``stats`` counters and gauges, digests of the touched DMEM and DDR,
ECC corrections, the type of any exception raised and, for traced
runs, a digest of the trace. Regenerate them only for an intentional
model change, with::

    PYTHONPATH=src python tests/test_dms_programs.py > tests/goldens/dms_programs.json
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.core import DPU, DPU_40NM
from repro.core.bitvector import pack_bits
from repro.dms import (
    Descriptor,
    DescriptorType,
    PartitionLayout,
    PartitionMode,
    PartitionSpec,
    ddr_to_dmem,
    dmem_to_ddr,
    loop,
)
from repro.faults import FaultPlan

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens",
                      "dms_programs.json")

SEEDS = range(10)
FAULTS = ("none", "crc", "ecc")
# Per-seed fault rates: low rates retry or scrub and finish, high rates
# exhaust the CRC replays or machine-check.
CRC_RATES = (0.05, 0.3, 0.6)
ECC_RATES = (1e-6, 3e-5, 3e-4)

# DMEM map (bytes) shared by every core's program.
STREAM = 0          # two tile buffers, up to 2 KB each
STRIDED = 4096
GATHERED = 5120
SCATTER_SRC = 7168
WRITEBACK_SRC = 9216
EVENTS_DST = 11264
GATHER_BV = 12288
SCATTER_BV = 12352
PARTITION_BASE = 16384
PARTITION_CAPACITY = 8192
PARTITION_COUNT = 31 * 1024
PARTITION_CHUNK = 96

# Event ids: 0/1 stream buffers, 4.. misc transfers, 10-12 the EVENT
# descriptor block, 13 and 15 the CID and CRC drains, 14 set on the
# partition's target cores by each store.
MISC_EVENT = 4


def _plan(seed, fault):
    rng = np.random.default_rng([seed, FAULTS.index(fault)])
    cores = sorted(int(c) for c in rng.choice(32, int(rng.integers(2, 4)),
                                              replace=False))
    config = DPU_40NM.with_updates(
        dms_max_outstanding=int(rng.choice([1, 2, 4])),
        rtl_gather_bug=bool(rng.random() < 0.25),
        # One CMEM bank or CRC/CID buffer makes partition chunks wait
        # for the previous chunk's store to free it.
        cmem_banks=int(rng.choice([1, 3])),
        crc_banks=int(rng.choice([1, 2])),
    )
    rates = {}
    if fault == "crc":
        rates["dms.descriptor"] = CRC_RATES[seed % 3]
    elif fault == "ecc":
        rates["ddr.bitflip"] = ECC_RATES[seed % 3]
    per_core = {}
    for core in cores:
        width = int(rng.choice([4, 8]))
        blocks = [name for name in ("strided", "gather", "scatter",
                                    "writeback", "events")
                  if rng.random() < 0.6]
        rng.shuffle(blocks)
        per_core[core] = {
            "channel": int(rng.integers(0, 2)),
            "width": width,
            "tile_rows": int(rng.choice([64, 128, 2048 // width])),
            "iterations": int(rng.integers(2, 6)),
            "compute": [int(c) for c in rng.integers(0, 300, 12)],
            "blocks": blocks,
            "rows": int(rng.choice([64, 128, 256])),
            "mask": rng.random(256) < rng.choice([0.1, 0.5, 0.9]),
            "set_at": int(rng.integers(0, 4)),
        }
    partition = cores[0] if rng.random() < 0.5 else None
    contender = int(rng.choice([0, 9, 13, 17]))
    return cores, config, rates, per_core, partition, contender, rng


def _run(seed, fault, traced):
    cores, config, rates, per_core, partition, contender, rng = _plan(
        seed, fault)
    plan = FaultPlan(seed=seed, rates=rates) if rates else FaultPlan.none()
    dpu = DPU(config, fault_plan=plan)
    regions = []

    def store(array):
        address = dpu.store_array(array)
        regions.append((address, array.nbytes))
        return address

    def alloc(nbytes):
        address = dpu.alloc(nbytes)
        regions.append((address, nbytes))
        return address

    for core, p in per_core.items():
        dtype = np.uint32 if p["width"] == 4 else np.uint64
        total = p["tile_rows"] * 2 * p["iterations"]
        p["column"] = store(rng.integers(0, 2**31, total).astype(dtype))
        p["matrix"] = store(rng.integers(0, 2**31, 256 * 4).astype(np.uint32))
        p["table"] = store(rng.integers(0, 2**62, 256).astype(np.uint64))
        p["scatter_out"] = alloc(256 * 8)
        p["writeback_out"] = alloc(p["rows"] * p["width"])
        p["events_src"] = store(np.arange(128, dtype=np.uint64) + core)
    if partition is not None:
        rows = 384
        key = rng.integers(0, 2**32, rows, dtype=np.uint32)
        payload = np.arange(rows, dtype=np.uint32)
        part = {
            "rows": rows,
            "key": store(key),
            "payload": store(payload),
            "cids": alloc(PARTITION_CHUNK),
            "crcs": alloc(PARTITION_CHUNK * 4),
            "spec": PartitionSpec(mode=PartitionMode.HASH, radix_bits=1),
            "layout": PartitionLayout(
                target_cores=tuple(cores[:2]),
                dmem_base=PARTITION_BASE, capacity=PARTITION_CAPACITY,
                count_offset=PARTITION_COUNT, target_notify_event=14),
        }

    def push_block(ctx, p, name, channel, event):
        rows, width = p["rows"], p["width"]
        if name == "strided":
            ctx.push(Descriptor(
                dtype=DescriptorType.DDR_TO_DMEM, rows=min(rows, 128),
                col_width=4, ddr_addr=p["matrix"] + 8, dmem_addr=STRIDED,
                ddr_stride=16, notify_event=event), channel)
        elif name == "gather":
            ctx.dmem.write(GATHER_BV, pack_bits(p["mask"]))
            ctx.push(Descriptor(
                dtype=DescriptorType.DMEM_TO_DMS, rows=4, col_width=8,
                dmem_addr=GATHER_BV, internal_mem="bv"), channel)
            ctx.push(Descriptor(
                dtype=DescriptorType.DDR_TO_DMEM, rows=256, col_width=8,
                ddr_addr=p["table"], dmem_addr=GATHERED, gather_src=True,
                notify_event=event), channel)
        elif name == "scatter":
            mask = p["mask"][::-1]
            ctx.dmem.write(SCATTER_BV, pack_bits(mask))
            ctx.dmem.write(SCATTER_SRC, np.arange(
                int(mask.sum()), dtype=np.uint64) * 3 + ctx.core_id)
            ctx.push(Descriptor(
                dtype=DescriptorType.DMEM_TO_DMS, rows=4, col_width=8,
                dmem_addr=SCATTER_BV, internal_mem="bv"), channel)
            ctx.push(Descriptor(
                dtype=DescriptorType.DMEM_TO_DDR, rows=256, col_width=8,
                ddr_addr=p["scatter_out"], dmem_addr=SCATTER_SRC,
                scatter_dst=True, notify_event=event), channel)
        elif name == "writeback":
            ctx.dmem.write(WRITEBACK_SRC, np.arange(
                rows * width, dtype=np.uint8) ^ np.uint8(ctx.core_id))
            ctx.push(dmem_to_ddr(rows, width, p["writeback_out"],
                                 WRITEBACK_SRC, notify_event=event), channel)
        elif name == "events":
            # Event 12 starts set: only the EVENT descriptor's clear
            # lets the transfer behind it pass its flow-control check.
            ctx.set_event(12)
            ctx.push(Descriptor(dtype=DescriptorType.EVENT,
                                wait_events=(10,), set_events=(11,),
                                clear_events=(12,)), channel)
            ctx.push(ddr_to_dmem(128, 8, p["events_src"], EVENTS_DST,
                                 wait_event=11, notify_event=12), channel)

    def push_partition(ctx, channel):
        rows = part["rows"]
        ctx.push(Descriptor(dtype=DescriptorType.HASH_CONFIG,
                            partition=part["spec"],
                            partition_layout=part["layout"]), channel)
        for start in range(0, rows, PARTITION_CHUNK):
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMS,
                                rows=PARTITION_CHUNK, col_width=4,
                                ddr_addr=part["key"] + start * 4,
                                is_key_column=True), channel)
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMS,
                                rows=PARTITION_CHUNK, col_width=4,
                                ddr_addr=part["payload"] + start * 4), channel)
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMS,
                                partition=part["spec"]), channel)
            if start == 0:
                ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DDR,
                                    ddr_addr=part["cids"], internal_mem="cid",
                                    notify_event=13), channel)
            elif start == PARTITION_CHUNK:
                ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DDR,
                                    ddr_addr=part["crcs"], internal_mem="crc",
                                    notify_event=15), channel)
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMEM,
                                partition=part["spec"]), channel)

    def kernel(ctx):
        p = per_core[ctx.core_id]
        stream, misc = p["channel"], 1 - p["channel"]
        width, tile_rows = p["width"], p["tile_rows"]
        tile = tile_rows * width
        dtype = np.uint32 if width == 4 else np.uint64
        ctx.push(ddr_to_dmem(tile_rows, width, p["column"], STREAM,
                             notify_event=0, src_addr_inc=True), stream)
        ctx.push(ddr_to_dmem(tile_rows, width, p["column"], STREAM + tile,
                             notify_event=1, src_addr_inc=True), stream)
        ctx.push(loop(2, p["iterations"] - 1), stream)
        for index, name in enumerate(p["blocks"]):
            push_block(ctx, p, name, misc, MISC_EVENT + index)
        if ctx.core_id == partition:
            push_partition(ctx, misc)
        total, times = 0, []
        for step in range(2 * p["iterations"]):
            buf = step % 2
            yield from ctx.wfe(buf)
            times.append(ctx.engine.now)
            total += int(ctx.dmem.view(STREAM + buf * tile, tile, dtype).sum())
            ctx.clear_event(buf)
            if step == p["set_at"]:
                ctx.set_event(10)
            yield from ctx.compute(p["compute"][step % 12])
        for index, name in enumerate(p["blocks"]):
            yield from ctx.wfe(12 if name == "events" else MISC_EVENT + index)
            times.append(ctx.engine.now)
        if ctx.core_id == partition:
            for event_id in (13, 15):
                yield from ctx.wfe(event_id)
                times.append(ctx.engine.now)
        while not ctx.dmad.idle():
            yield from ctx.compute(50)
        return [total, times]

    def ddr_contender(address):
        """A DDR request at every multiple of ``contender`` cycles from
        a process ticking each cycle, so its heap entry for an instant
        lies between those a descriptor took at that instant."""
        engine = dpu.engine
        while True:
            yield engine.timeout(1)
            if engine.now % contender == 0:
                dpu.ddr_channel.request(address, 16)

    if contender:
        dpu.engine.process(ddr_contender(store(np.zeros(4, np.uint32))))
    tracer = dpu.enable_tracing() if traced else None
    error = values = cycles = None
    try:
        result = dpu.launch(kernel, cores=cores, limit_cycles=200_000)
        values, cycles = result.values, result.cycles
    except Exception as caught:  # pinned by type below
        error = type(caught).__name__
    stats = dpu.counters.to_dict()
    dmem = hashlib.sha256()
    for core in sorted(set(cores)):
        dmem.update(dpu.scratchpads[core].view(0, config.dmem_size).tobytes())
    ddr = hashlib.sha256()
    for address, nbytes in regions:
        ddr.update(dpu.ddr.view(address, nbytes).tobytes())
    observed = {
        "cores": cores,
        "error": error,
        "cycles": cycles,
        "now": dpu.engine.now,
        "values": values,
        "counters": stats["counters"],
        "gauges": stats["gauges"],
        "ecc": [dpu.ddr_channel.ecc.corrected,
                dpu.ddr_channel.ecc.uncorrectable],
        "dmem": dmem.hexdigest(),
        "ddr": ddr.hexdigest(),
    }
    if tracer is not None:
        observed["trace"] = _trace_digest(tracer)
    return observed


def _trace_digest(tracer):
    """Digest of the trace in emission order, ids left out. A DMAD
    channel walker was a process, whose span appeared only when it
    died with a failed descriptor; it is left out too."""
    names = {}
    for meta in tracer.to_chrome()["traceEvents"]:
        if meta["ph"] == "M" and meta["name"] == "thread_name":
            names[(meta["pid"], meta["tid"])] = meta["args"]["name"]
    events = []
    for event in tracer.events:
        name = event["name"]
        if name.startswith("proc.dmad") and ".ch" in name:
            continue
        events.append([name, event["ph"], event["ts"],
                       names[(event["pid"], event["tid"])],
                       event.get("args")])
    return hashlib.sha256(json.dumps(events, sort_keys=True).encode()
                          ).hexdigest()


def _cases():
    return [(seed, fault) for fault in FAULTS for seed in SEEDS]


def _key(seed, fault):
    return f"{fault}/{seed}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_matrix_covers_every_feature(golden):
    """The pinned programs exercise every feature the matrix is for
    and both ways a run ends."""
    blocks, outstanding, partitions, contenders = set(), set(), 0, 0
    for seed, fault in _cases():
        cores, config, _rates, per_core, partition, contender, _rng = _plan(
            seed, fault)
        outstanding.add(config.dms_max_outstanding)
        partitions += partition is not None
        contenders += contender > 0
        channels = {p["channel"] for p in per_core.values()}
        for p in per_core.values():
            blocks.update(p["blocks"])
        assert channels
    assert len(_cases()) >= 24
    assert blocks == {"strided", "gather", "scatter", "writeback", "events"}
    assert 1 in outstanding and partitions >= 3 and contenders >= 3
    assert any("dmac.cmem.stalls" in entry["counters"]
               and "dmac.crc.stalls" in entry["counters"]
               for entry in golden.values())
    errors = {entry["error"] for entry in golden.values()}
    assert None in errors and errors - {None}
    for fault in FAULTS:
        assert any(golden[_key(s, fault)]["error"] is None for s in SEEDS)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("seed, fault", _cases(),
                         ids=[_key(s, f) for s, f in _cases()])
def test_program_matches_the_process_pins(golden, seed, fault, traced):
    expected = dict(golden[_key(seed, fault)])
    trace = expected.pop("trace")
    observed = _run(seed, fault, traced)
    observed_trace = observed.pop("trace", None)
    assert observed == expected
    if traced:
        assert observed_trace == trace


if __name__ == "__main__":
    pins = {}
    for seed, fault in _cases():
        observed = _run(seed, fault, True)
        untraced = _run(seed, fault, False)
        trace = observed.pop("trace")
        if observed != untraced:
            sys.exit(f"{_key(seed, fault)}: tracing changed the run")
        observed["trace"] = trace
        pins[_key(seed, fault)] = observed
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
