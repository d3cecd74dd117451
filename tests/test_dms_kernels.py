"""The kernels that move data with single DMS copies and staged
write-backs, pinned on shapes no other golden covers.

Each run below drives one kernel whose DDR<->DMEM transfers are plain
blocking copies or write-backs staged through DMEM slots (paper §3,
Listing 1): disparity (fine and coarse), the SVM's DMEM-resident
slice, the naive similarity search, the scan filter and scan-project
with a broadcast table (also in small tiles, so each core stages
several write-backs), a low-NDV group-by whose broadcast spans three
8 KB pieces, a hardware-path group-by with a broadcast, and the
group-by's software partition round in small tiles.
``tests/goldens/dms_kernels.json`` records, per run, the modelled
cycles, a digest of the result and the ``dms.*``, ``ddr.*``,
``dmad.*`` and ``dmac.*`` counters of the DPU. Regenerate deliberately
with::

    PYTHONPATH=src python -m pytest tests/test_dms_kernels.py --update-goldens

and review the JSON diff like any other behavioural change.
"""

import json

import numpy as np

from repro.apps.disparity import dpu_disparity
from repro.apps.simsearch import build_tiled_index, dpu_simsearch
from repro.apps.sql import AggSpec, DmemBudget, Table, dpu_filter, dpu_groupby
from repro.apps.sql.filter import dpu_scan_project
from repro.apps.sql.join import bitmap_filter, broadcast_array, key_bitmap
from repro.apps.streaming import StagedWrites, load, store
from repro.apps.svm import dpu_svm_train
from repro.core import DPU
from repro.workloads.corpus import generate_corpus
from repro.workloads.higgs import generate_higgs_like
from repro.workloads.stereo import generate_stereo_pair
from test_equivalence import GOLDEN_DIR, digest

GOLDEN = GOLDEN_DIR / "dms_kernels.json"
_PINNED_UNITS = (".dms.", ".ddr.", ".dmad.", ".dmac.")


def _record(dpu, cycles, value) -> dict:
    return {
        "cycles": float(cycles),
        "digest": digest(value),
        "counters": {
            path: value
            for path, value in sorted(dpu.counter_registry().snapshot().items())
            if any(unit in path for unit in _PINNED_UNITS)
        },
    }


def _disparity(variant):
    pair = generate_stereo_pair(rows=64, cols=96, max_shift=8, seed=5)
    dpu = DPU()
    addrs = (dpu.store_array(pair.left), dpu.store_array(pair.right))
    result = dpu_disparity(dpu, pair, addrs, variant=variant)
    return _record(dpu, result.cycles, result.value)


def run_svm_resident():
    dpu = DPU()
    dataset = generate_higgs_like(num_samples=384, seed=7)
    result = dpu_svm_train(dpu, dataset, max_iterations=10)
    model = result.value
    assert result.detail["resident"]
    return _record(dpu, result.cycles,
                   (model.weights, model.bias, result.detail))


def run_simsearch_naive():
    workload = generate_corpus(num_docs=400, vocab=2000, num_queries=8,
                               query_terms=4, seed=3)
    tiled = build_tiled_index(workload.index, tile_docs=128)
    dpu = DPU()
    address = dpu.store_array(tiled.postings)
    result = dpu_simsearch(dpu, workload, tiled, address, variant="naive")
    return _record(dpu, result.cycles, (result.value, result.detail))


def _bitmap_table(dpu, seed, rows, domain):
    """A table with a key column ``k`` over ``domain``, a low-NDV group
    column ``g`` and a payload ``v``, plus a broadcast bitmap of every
    third key."""
    rng = np.random.default_rng(seed)
    words = key_bitmap(np.arange(0, domain, 3), domain)
    broadcast, _host = broadcast_array(dpu, "bits", words)
    dtable = Table("t", {
        "k": rng.integers(0, domain, rows).astype(np.int32),
        "g": rng.integers(0, 16, rows).astype(np.int32),
        "v": rng.integers(0, 100, rows).astype(np.int32),
    }).to_dpu(dpu)
    return dtable, bitmap_filter("k", words), broadcast


def run_filter_broadcast(tile_rows=2048):
    dpu = DPU()
    dtable, row_filter, broadcast = _bitmap_table(dpu, 1, 20_000, 100_000)
    result = dpu_filter(dpu, dtable, row_filter, broadcasts=(broadcast,),
                        tile_rows=tile_rows)
    return _record(dpu, result.cycles, result.value)


def run_scan_project_broadcast(tile_rows=2048):
    dpu = DPU()
    dtable, row_filter, broadcast = _bitmap_table(dpu, 2, 12_000, 100_000)

    def project(columns):
        return np.where(row_filter.mask_fn(columns), columns["k"] % 251, 0)

    result = dpu_scan_project(dpu, dtable, row_filter, project, np.uint16,
                              broadcasts=(broadcast,), tile_rows=tile_rows)
    return _record(dpu, result.cycles, result.value)


def run_groupby_low_ndv_broadcast():
    # 20,000 B of bitmap: three DMS pieces of at most 8 KB each.
    dpu = DPU()
    dtable, row_filter, broadcast = _bitmap_table(dpu, 3, 30_000, 160_000)
    assert 2 * 8192 < broadcast.nbytes <= 3 * 8192
    result = dpu_groupby(dpu, dtable, "g",
                         [AggSpec("sum", "v"), AggSpec("count")],
                         row_filter=row_filter, broadcasts=(broadcast,))
    assert result.detail["partitions_needed"] == 1
    return _record(dpu, result.cycles, (result.value, result.detail))


def run_groupby_hw_broadcast():
    dpu = DPU()
    dtable, row_filter, broadcast = _bitmap_table(dpu, 4, 20_000, 60_000)
    result = dpu_groupby(dpu, dtable, "k", [AggSpec("sum", "v")],
                         row_filter=row_filter, ndv_hint=4000,
                         broadcasts=(broadcast,))
    assert 1 < result.detail["partitions_needed"] <= 32
    return _record(dpu, result.cycles, (result.value, result.detail))


def run_groupby_sw_round_small_tiles():
    # 512 rows per core in 128-row tiles over two keys: each core
    # stages full runs while its stream is still reading.
    dpu = DPU()
    rng = np.random.default_rng(5)
    dtable = Table("t", {
        "g": rng.integers(0, 2, 16 * 1024).astype(np.int64),
        "v": rng.integers(0, 100, 16 * 1024).astype(np.int64),
    }).to_dpu(dpu)
    result = dpu_groupby(
        dpu, dtable, "g", [AggSpec("sum", "v"), AggSpec("count")],
        ndv_hint=9000, tile_rows=128,
        budget=DmemBudget(total=32 * 1024, io_buffers=28 * 1024, metadata=1024),
    )
    assert result.detail["sw_rounds"] == 1
    return _record(dpu, result.cycles, (result.value, result.detail))


RUNS = {
    "disparity_fine": lambda: _disparity("fine"),
    "disparity_coarse": lambda: _disparity("coarse"),
    "svm_resident": run_svm_resident,
    "simsearch_naive": run_simsearch_naive,
    "filter_broadcast": run_filter_broadcast,
    "filter_broadcast_small_tiles": lambda: run_filter_broadcast(128),
    "scan_project_broadcast": run_scan_project_broadcast,
    "scan_project_broadcast_small_tiles":
        lambda: run_scan_project_broadcast(128),
    "groupby_low_ndv_broadcast": run_groupby_low_ndv_broadcast,
    "groupby_hw_broadcast": run_groupby_hw_broadcast,
    "groupby_sw_round_small_tiles": run_groupby_sw_round_small_tiles,
}


def test_dms_kernels_golden(request):
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


class TestPrimitives:
    """``load`` and ``store`` copy on their channels and leave their
    event clear; ``StagedWrites`` writes each run back as the wrapped
    stream waits, not only when it is closed."""

    def test_load_and_store(self):
        dpu = DPU()
        values = np.arange(300, dtype=np.uint32)
        src = dpu.store_array(values)
        dst = dpu.alloc(values.nbytes)
        seen = {}

        def kernel(ctx):
            yield from load(ctx, src, 512, len(values), 4, 9)
            seen["after_load"] = [ch is not None for ch in ctx.dmad.channels]
            seen["event_set"] = ctx.dpu.event_files[0].is_set(9)
            yield from store(ctx, 512, dst, len(values), 4, 9, channel=1)
            seen["after_store"] = [ch is not None for ch in ctx.dmad.channels]

        dpu.launch(kernel, cores=[0])
        assert np.array_equal(dpu.load_array(dst, len(values), np.uint32),
                              values)
        assert seen["after_load"][:2] == [True, False]
        assert seen["after_store"][:2] == [True, True]
        assert not seen["event_set"]

    def test_staged_writes_drain_while_the_stream_waits(self):
        dpu = DPU()
        dst = dpu.alloc(4 * 64 * 8)
        landed = []

        def kernel(ctx):
            out = StagedWrites(ctx, slots=(0, 1024), events=(4, 5))

            def stream():
                for run in range(4):
                    out.put(np.full(64, run + 1, dtype=np.uint64),
                            dst + run * 64 * 8)
                    yield from ctx.compute(10_000)
                    if run:
                        # The previous run was pushed after the previous
                        # wait and has landed during this one.
                        landed.append(int(dpu.load_array(
                            dst + (run - 1) * 64 * 8, 1, np.uint64)[0]))

            yield from out.wrap(stream())
            yield from out.close()

        dpu.launch(kernel, cores=[0])
        assert landed == [1, 2, 3]
        expected = np.repeat(np.arange(1, 5, dtype=np.uint64), 64)
        assert np.array_equal(dpu.load_array(dst, 4 * 64, np.uint64),
                              expected)
