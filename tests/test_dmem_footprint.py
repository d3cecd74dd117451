"""What a launch writes into a dpCore's 32 KB DMEM follows its data.

A stream of one tile lays its columns out by its own rows
(``repro.apps.streaming.stream_columns``), and the two operators that
load broadcast tables put them at the bottom of the DMEM they use: the
low-NDV group-by at offset 0, the scan filter right above its two
staging slots (``_STREAM_BASE``). Both start their stream tiles at the
64-byte-aligned end of the tables. DMEM addresses feed no timing, so
the cycles pinned below are the ones measured with the tables at the
top of DMEM; what shrinks is the host memory a short shard touches:
the 4 KB pages of each core's DMEM, read from this process's
``/proc/self/pagemap``.
"""

import mmap

import numpy as np
import pytest

from repro.apps.sql import (
    AggSpec,
    Table,
    compile_query,
    dpu_filter,
    dpu_groupby,
    load_query,
    tpch_catalog,
)
from repro.apps.sql.filter import _STREAM_BASE
from repro.apps.sql.join import bitmap_filter, broadcast_array, key_bitmap
from repro.apps.streaming import BROADCAST_EVENT
from repro.baseline import XeonModel
from repro.cluster import Cluster, cluster_compiled_query
from repro.core import DPU
from repro.dms.dmad import Dmad
from repro.dms.descriptor import DescriptorType
from repro.memory.ddr import zeroed_pages
from repro.workloads.tpch import generate_tpch
from test_tpch_conformance import _shard_fact

ROWS = 3000  # 94 rows per core of a whole DPU: one stream tile each


def _bitmap_table(dpu, domain=100_000):
    """Key ``k``, group ``g`` and payload ``v`` columns of mixed widths,
    and a broadcast bitmap of every third key: 12,504 B, which is not a
    multiple of 64."""
    rng = np.random.default_rng(5)
    words = key_bitmap(np.arange(0, domain, 3), domain)
    broadcast, _host = broadcast_array(dpu, "bits", words)
    columns = {
        "k": rng.integers(0, domain, ROWS).astype(np.int32),
        "g": rng.integers(0, 16, ROWS).astype(np.int16),
        "v": rng.integers(0, 100, ROWS).astype(np.int64),
    }
    dtable = Table("t", columns).to_dpu(dpu)
    return columns, dtable, bitmap_filter("k", words), broadcast


@pytest.fixture
def reads(monkeypatch):
    """Every ``DDR_TO_DMEM`` pushed, as ``(core, descriptor)``."""
    pushed = []
    push = Dmad.push

    def spy(self, descriptor, channel=0):
        if descriptor.dtype is DescriptorType.DDR_TO_DMEM:
            pushed.append((self.core_id, descriptor))
        return push(self, descriptor, channel)

    monkeypatch.setattr(Dmad, "push", spy)
    return pushed


def _assert_bottom_layout(dpu, reads, table_base, stream_base):
    """Each core loaded the table's two pieces from ``table_base`` and
    streamed from ``stream_base``; no core wrote its top DMEM page."""
    cores = sorted({core for core, _descriptor in reads})
    assert len(cores) == dpu.config.num_cores
    for core in cores:
        loads = [d.dmem_addr for c, d in reads
                 if c == core and d.notify_event == BROADCAST_EVENT]
        streams = [d.dmem_addr for c, d in reads
                   if c == core and d.notify_event != BROADCAST_EVENT]
        assert loads == [table_base, table_base + 8192]
        assert min(streams) == stream_base
        assert not dpu.scratchpads[core].data[-mmap.PAGESIZE:].any()


class TestBroadcastsAtTheBottom:
    def test_low_ndv_groupby(self, reads):
        dpu = DPU()
        columns, dtable, row_filter, broadcast = _bitmap_table(dpu)
        result = dpu_groupby(dpu, dtable, "g",
                             [AggSpec("sum", "v"), AggSpec("count")],
                             row_filter=row_filter, broadcasts=(broadcast,))
        assert result.detail["partitions_needed"] == 1
        assert result.cycles == 38862.0
        mask = row_filter.mask_fn(columns)
        expected = {}
        for group, value in zip(columns["g"][mask].tolist(),
                                columns["v"][mask].tolist()):
            total, count = expected.get(group, (0.0, 0))
            expected[group] = (total + value, count + 1)
        assert {group: tuple(row) for group, row in result.value.items()} \
            == expected
        # 12,504 B of table, so the stream starts at 12,544.
        _assert_bottom_layout(dpu, reads, 0, 12_544)

    def test_scan_filter(self, reads):
        dpu = DPU()
        columns, dtable, row_filter, broadcast = _bitmap_table(dpu)
        result = dpu_filter(dpu, dtable, row_filter, broadcasts=(broadcast,))
        assert result.cycles == 33224.0
        assert np.array_equal(result.value, row_filter.mask_fn(columns))
        _assert_bottom_layout(dpu, reads, _STREAM_BASE, _STREAM_BASE + 12_544)


def _resident(array):
    """Whether each of ``array``'s pages is resident, from this
    process's page map (bit 63 of a page's entry)."""
    address = array.__array_interface__["data"][0]
    assert address % mmap.PAGESIZE == 0
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(address // mmap.PAGESIZE * 8)
        raw = pagemap.read(array.nbytes // mmap.PAGESIZE * 8)
    return (np.frombuffer(raw, dtype="<u8") >> 63).astype(bool)


@pytest.fixture(scope="module")
def pagemap():
    """Skip where pages are not 4 KB, or where this process's page map
    cannot be read or does not show which pages of a fresh mapping were
    written."""
    if mmap.PAGESIZE != 4096:
        pytest.skip(f"host pages are {mmap.PAGESIZE} B, not 4 KB")
    probe = zeroed_pages(2 * mmap.PAGESIZE)
    probe[0] = 1
    try:
        present = _resident(probe).tolist()
    except OSError as error:
        pytest.skip(f"/proc/self/pagemap cannot be read: {error}")
    if present != [True, False]:
        pytest.skip("/proc/self/pagemap does not show resident pages")


@pytest.mark.parametrize("name, pages", [("q1", 1), ("q12", 2)])
def test_short_shard_leaves_few_dmem_pages(pagemap, name, pages):
    """Compiled Q1 and Q12 over TPC-H 0.004 on eight DPUs: about 94
    rows per core. Q1 streams one page per core; Q12 adds its
    broadcast tables below the stream. With the planned tile's stride
    and the tables at the top of DMEM, they left 4 and 5 pages."""
    data = generate_tpch(scale=0.004, seed=11)
    compiled = compile_query(load_query(name), tpch_catalog(data), name)
    cluster = Cluster(8)
    result = cluster_compiled_query(cluster, compiled,
                                    _shard_fact(compiled, data, 8))
    assert result.value == compiled.run_xeon(XeonModel(), data).value
    core_pages = cluster.dpus[0].config.dmem_size // mmap.PAGESIZE
    for dpu in cluster.dpus:
        resident = _resident(dpu.scratchpads[0].data.base)
        per_core = resident.reshape(-1, core_pages).sum(axis=1)
        assert per_core.tolist() == [pages] * dpu.config.num_cores
