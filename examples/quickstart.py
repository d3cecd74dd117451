"""Quickstart: the paper's Listing 1, then a FILT-accelerated scan.

Run:  python examples/quickstart.py

Walks through the two core DPU idioms:
1. the three-descriptor DMS chain that streams megabytes through a
   32 KB DMEM (two auto-incrementing data descriptors + one loop
   descriptor, double-buffered with events), and
2. a 32-core SQL filter using the dpCore's SETFL/SETFH/FILT
   instructions at ~1.6 cycles/tuple.
"""

import numpy as np

from repro import DPU
from repro.apps.sql import Between, Table, dpu_filter
from repro.dms import ddr_to_dmem, loop


def listing1_stream(dpu, megabytes=4):
    """Stream `megabytes` of DRAM through one core's DMEM."""
    total_bytes = megabytes * 1024 * 1024
    data = np.arange(total_bytes // 4, dtype=np.uint32)
    source = dpu.store_array(data)
    iterations = total_bytes // 2048  # pairs of 1 KB buffers

    def kernel(ctx):
        # Exactly Listing 1: desc0 and desc1 fill alternate DMEM
        # buffers with auto-incrementing source addresses; the loop
        # descriptor re-runs them `iterations - 1` more times.
        ctx.push(ddr_to_dmem(256, 4, source, 0, notify_event=0,
                             src_addr_inc=True))
        ctx.push(ddr_to_dmem(256, 4, source, 1024, notify_event=1,
                             src_addr_inc=True))
        ctx.push(loop(2, iterations - 1))
        total = 0
        buffer_index = 0
        for _ in range(2 * iterations):
            yield from ctx.wfe(buffer_index)  # dms_wfe(events[i])
            values = ctx.dmem.view(buffer_index * 1024, 1024, np.uint32)
            total += int(values.sum())  # consume_rows()
            ctx.clear_event(buffer_index)
            buffer_index = 1 - buffer_index  # toggle index
        return total

    result = dpu.launch(kernel, cores=[0])
    assert result.values[0] == int(data.sum()), "lost a buffer!"
    print(f"Listing 1: streamed {megabytes} MB through 2 KB of DMEM with "
          f"3 descriptors")
    print(f"  single-core DMS bandwidth: {result.gbps(total_bytes):.2f} GB/s")
    print(f"  checksum verified against host: OK")


def filt_scan(dpu):
    """A SQL filter offloaded to all 32 dpCores."""
    rng = np.random.default_rng(0)
    n = 1024 * 1024
    table = Table("readings", {
        "sensor_value": rng.integers(0, 10000, n).astype(np.int32),
    })
    predicate = Between("sensor_value", 9500, 9900)
    result = dpu_filter(dpu, table.to_dpu(dpu), predicate)
    expected = predicate.mask_fn(table.columns)
    assert np.array_equal(result.value, expected)
    print(f"\nFILT scan: {n} rows filtered on 32 dpCores")
    print(f"  selected: {result.detail['selected']} rows")
    print(f"  bandwidth: {result.gbps:.2f} GB/s "
          f"(paper: 9.6 GB/s at 32 cores)")
    print(f"  simulated time: {result.seconds * 1e6:.0f} us")


def main():
    dpu = DPU()
    print(f"DPU: {dpu.config.num_cores} dpCores @ "
          f"{dpu.config.clock_hz / 1e6:.0f} MHz, "
          f"{dpu.config.ddr_peak_gbps:.1f} GB/s DDR3, "
          f"{dpu.config.tdp_watts:.0f} W provisioned\n")
    listing1_stream(dpu)
    filt_scan(dpu)


if __name__ == "__main__":
    main()
