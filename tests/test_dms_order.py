"""The order in which DDR<->DMEM descriptors retire, pinned per core.

The DMS path runs descriptors as heap callbacks, and several of them
may be due at one instant: the setups of identical programs on
different cores, a retiring descriptor's slot grant next to the wake
of the core it notifies. Every such tie is broken by heap order, and
that order decides which transfer books the DDR channel and a DMAX
first. ``tests/goldens/dms_order.json`` records, per scenario below,
the instant each core receives each stream tile (``engine.now`` in
the ``process`` callback), the launch's cycles and the final state of
the DDR channel and of every DMAX, so a change that runs a callback
out of turn shows up as a moved instant. Regenerate deliberately
with::

    PYTHONPATH=src python -m pytest tests/test_dms_order.py --update-goldens

Scenarios:

* ``saturated`` — 32 cores stream 8 columns in 256-row tiles, so each
  DMAD queues 16 descriptors behind its 4 outstanding slots;
* ``identical`` — every core runs the same program on the same
  columns, so the cores' descriptor setups fall on the same instants;
* ``read_write`` — streams that write each tile back on channel 1,
  two or four columns per core, so the read and write walkers of one
  DMAD wait for slots together;
* ``broadcast_then_stream`` — a table loaded with ``load`` in 8 KB
  pieces, then a stream beside it in DMEM;
* ``staged_writes`` — ``StagedWrites`` wrapping a stream, each tile's
  output written back through two staging slots;
* ``same_instant_start`` and ``same_instant_grant`` — descriptors
  timed so that a run's start, or the slot grant a retiring run hands
  a waiting walker, falls on an instant where another core's entry is
  already due: a store's DDR write booking, or a walker woken by a
  push.
"""

import json

import numpy as np

from repro.apps.streaming import StagedWrites, load, stream_columns
from repro.core import DPU
from repro.dms.descriptor import Descriptor, DescriptorType
from test_equivalence import GOLDEN_DIR

GOLDEN = GOLDEN_DIR / "dms_order.json"


def _server(server) -> dict:
    return {
        "busy_cycles": server.busy_cycles,
        "bytes_served": server.bytes_served,
        "transfers_served": server.transfers_served,
        "free_at": server._free_at,
    }


def _record(dpu, launch, arrivals) -> dict:
    ddr = _server(dpu.ddr_channel.server)
    ddr["row_misses"] = dpu.ddr_channel.row_misses
    return {
        "arrivals": {str(core): times for core, times in sorted(arrivals.items())},
        "launch": [launch.start_cycle, launch.end_cycle],
        "ddr": ddr,
        "dmax": [_server(dmax.server) for dmax in dpu.dmaxes],
    }


def _columns(dpu, count, rows, seed):
    rng = np.random.default_rng(seed)
    return [dpu.store_array(rng.integers(0, 2**32, rows, dtype=np.uint32))
            for _ in range(count)]


def run_saturated():
    dpu = DPU()
    rows, tile_rows = 768, 256
    columns = {core: _columns(dpu, 8, rows, core) for core in range(32)}
    arrivals = {core: [] for core in columns}

    def kernel(ctx):
        def work(tile, lo, hi, arrays):
            arrivals[ctx.core_id].append(ctx.engine.now)
            return 8

        refs = [(address, 4) for address in columns[ctx.core_id]]
        yield from stream_columns(ctx, refs, rows, tile_rows, work)

    launch = dpu.launch(kernel)
    return _record(dpu, launch, arrivals)


def run_identical():
    dpu = DPU()
    rows, tile_rows = 1024, 256
    refs = [(address, 4) for address in _columns(dpu, 2, rows, 1)]
    cores = list(range(0, 32, 3))
    arrivals = {core: [] for core in cores}

    def kernel(ctx):
        def work(tile, lo, hi, arrays):
            arrivals[ctx.core_id].append(ctx.engine.now)
            return 40

        yield from stream_columns(ctx, refs, rows, tile_rows, work)

    launch = dpu.launch(kernel, cores=cores)
    return _record(dpu, launch, arrivals)


def run_read_write():
    dpu = DPU()
    rows, tile_rows = 768, 64
    widths = {0: 2, 1: 4, 8: 2, 9: 4}  # columns per core
    columns = {core: _columns(dpu, count, rows, 40 + core)
               for core, count in widths.items()}
    targets = {core: dpu.alloc(rows * 4) for core in widths}
    arrivals = {core: [] for core in widths}

    def kernel(ctx):
        def work(tile, lo, hi, arrays):
            arrivals[ctx.core_id].append(ctx.engine.now)
            arrays[0] += np.uint32(1)
            return 8

        refs = [(address, 4) for address in columns[ctx.core_id]]
        yield from stream_columns(ctx, refs, rows, tile_rows, work,
                                  writeback=(targets[ctx.core_id], 4))

    launch = dpu.launch(kernel, cores=list(widths))
    for core in widths:
        source = dpu.load_array(columns[core][0], rows, np.uint32)
        assert np.array_equal(dpu.load_array(targets[core], rows, np.uint32),
                              source + np.uint32(1))
    return _record(dpu, launch, arrivals)


def run_broadcast_then_stream():
    dpu = DPU()
    table_rows, piece_rows = 4096, 2048  # two 8 KB pieces of uint32
    table = dpu.store_array(np.arange(table_rows, dtype=np.uint32))
    rows, tile_rows = 1024, 256
    column = _columns(dpu, 1, rows, 7)[0]
    cores = [1, 2, 17, 26]
    arrivals = {core: [] for core in cores}

    def kernel(ctx):
        for lo in range(0, table_rows, piece_rows):
            yield from load(ctx, table + lo * 4, lo * 4, piece_rows, 4, 12)
        arrivals[ctx.core_id].append(ctx.engine.now)

        def work(tile, lo, hi, arrays):
            arrivals[ctx.core_id].append(ctx.engine.now)
            return 16

        yield from stream_columns(ctx, [(column, 4)], rows, tile_rows, work,
                                  dmem_base=table_rows * 4)

    launch = dpu.launch(kernel, cores=cores)
    return _record(dpu, launch, arrivals)


def run_staged_writes():
    dpu = DPU()
    rows, tile_rows = 1024, 256
    cores = [3, 4, 11, 20]
    columns = {core: _columns(dpu, 1, rows, 20 + core)[0] for core in cores}
    targets = {core: dpu.alloc(rows * 4) for core in cores}
    arrivals = {core: [] for core in cores}

    def kernel(ctx):
        out = StagedWrites(ctx, slots=(8192, 8192 + tile_rows * 4),
                           events=(4, 5))
        target = targets[ctx.core_id]

        def work(tile, lo, hi, arrays):
            arrivals[ctx.core_id].append(ctx.engine.now)
            out.put(arrays[0] ^ np.uint32(0xFFFF), target + lo * 4)
            return 30

        yield from out.wrap(stream_columns(
            ctx, [(columns[ctx.core_id], 4)], rows, tile_rows, work))
        yield from out.close()

    launch = dpu.launch(kernel, cores=cores)
    for core in cores:
        source = dpu.load_array(columns[core], rows, np.uint32)
        assert np.array_equal(dpu.load_array(targets[core], rows, np.uint32),
                              source ^ np.uint32(0xFFFF))
    return _record(dpu, launch, arrivals)


def _copy(dtype, address, dmem_addr, notify):
    return Descriptor(dtype=dtype, rows=16, col_width=4, ddr_addr=address,
                      dmem_addr=dmem_addr, notify_event=notify)


def run_same_instant_start():
    """Core 0 pushes two 64 B loads and core 8 one 64 B store at once.
    Their setups end together, core 0's first, so core 0's second load
    is set up on the instant the store, 8 crossbar cycles later, books
    its DDR write, which is due first."""
    dpu = DPU()
    source = dpu.store_array(np.arange(64, dtype=np.uint32))
    target = dpu.alloc(64)
    arrivals = {0: [], 8: []}

    def kernel(ctx):
        if ctx.core_id == 0:
            for index in range(2):
                ctx.push(_copy(DescriptorType.DDR_TO_DMEM,
                               source + 64 * index, 64 * index,
                               1 if index else None))
            yield from ctx.wfe(1)
        else:
            ctx.push(_copy(DescriptorType.DMEM_TO_DDR, target, 0, 3),
                     channel=1)
            yield from ctx.wfe(3)
        arrivals[ctx.core_id].append(ctx.engine.now)

    launch = dpu.launch(kernel, cores=[0, 8])
    return _record(dpu, launch, arrivals)


def run_same_instant_grant():
    """Core 8 pushes six 64 B loads, so two wait for its four slots;
    core 16 pushes a load 46 cycles in, waking its walker on the
    instant core 8's first load retires and hands its slot over."""
    dpu = DPU()
    source = dpu.store_array(np.arange(1024, dtype=np.uint32))
    arrivals = {8: [], 16: []}

    def kernel(ctx):
        if ctx.core_id == 8:
            for index in range(6):
                ctx.push(_copy(DescriptorType.DDR_TO_DMEM,
                               source + 64 * index, 64 * index,
                               0 if index == 5 else None))
            yield from ctx.wfe(0)
        else:
            yield from ctx.compute(46)
            yield from load(ctx, source + 1024, 0, 64, 4, 1)
        arrivals[ctx.core_id].append(ctx.engine.now)

    launch = dpu.launch(kernel, cores=[8, 16])
    return _record(dpu, launch, arrivals)


RUNS = {
    "saturated": run_saturated,
    "identical": run_identical,
    "read_write": run_read_write,
    "broadcast_then_stream": run_broadcast_then_stream,
    "staged_writes": run_staged_writes,
    "same_instant_start": run_same_instant_start,
    "same_instant_grant": run_same_instant_grant,
}


def test_dms_order_golden(request):
    observed = {name: run() for name, run in RUNS.items()}
    # Round-trip through JSON so the comparison sees what the file holds.
    observed = json.loads(json.dumps(observed))
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True)
                          + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(observed)
    diverged = [
        f"{name}: {field} golden {golden[name][field]!r} != "
        f"observed {observed[name][field]!r}"
        for name in sorted(golden) for field in sorted(golden[name])
        if golden[name][field] != observed[name][field]
    ]
    assert not diverged, "\n".join(diverged)


def test_saturated_scenario_queues_behind_the_slots():
    """The saturated scenario keeps every slot busy: when the first
    tile arrives, four of the next tile's eight descriptors are in
    flight and the rest wait behind them."""
    dpu = DPU()
    columns = _columns(dpu, 8, 768, 0)
    seen = []

    def kernel(ctx):
        def work(tile, lo, hi, arrays):
            seen.append((ctx.dmad._inflight, ctx.dmad.occupancy(0)))
            return 8

        yield from stream_columns(ctx, [(a, 4) for a in columns], 768, 256,
                                  work)

    dpu.launch(kernel, cores=[0])
    assert dpu.config.dms_max_outstanding == 4
    assert dpu.counters.values["dmad.occupancy_peak"] == 16
    inflight, pending = seen[0]
    assert inflight == 4 and pending > 0
