"""SQL offload: TPC-H queries on the DPU engine (paper §5.3).

Run:  python examples/sql_offload.py [scale]

The default scale, 0.004, is the largest tested at which every plan's
broadcast tables fit in DMEM beside its stream tiles (at 0.01 Q10's
do not, and the group-by rejects the layout).

Mirrors the paper's setup: a commercial in-memory columnar database
offloads query plans to the DPU. Generates TPC-H data, loads it into
DPU DRAM column by column, runs Q1/Q3/Q5/Q6/Q12/Q14 through the
engine's physical operators (FILT scans, broadcast-DMEM joins,
hardware-partitioned aggregation, top-k), and prints the Figure 16
comparison against the DBMS executor cost model.
"""

import math
import sys

from repro.apps.sql import (
    TPCH_QUERIES,
    efficiency_gain,
    load_tpch_on_dpu,
    run_query,
)
from repro.baseline import XeonModel
from repro.core import DPU
from repro.workloads.tpch import generate_tpch


def main(scale=0.004):
    print(f"Generating TPC-H at scale factor {scale}...")
    data = generate_tpch(scale=scale)
    print(f"  lineitem: {data.num_rows('lineitem')} rows, "
          f"total {data.total_bytes() / 1e6:.1f} MB columnar")

    dpu = DPU()
    tables = load_tpch_on_dpu(dpu, data)
    model = XeonModel()

    print(f"\n{'query':<6} {'DPU time':>12} {'x86 DBMS':>12} "
          f"{'perf/W gain':>12}")
    gains = []
    for name in TPCH_QUERIES:
        dpu_result, xeon_result = run_query(name, dpu, tables, data, model)
        gain = efficiency_gain(dpu_result, xeon_result)
        gains.append(gain)
        print(f"{name:<6} {dpu_result.seconds * 1e3:9.3f} ms "
              f"{xeon_result.seconds * 1e3:9.3f} ms {gain:10.1f}x")
    geomean = math.exp(sum(math.log(g) for g in gains) / len(gains))
    print(f"\ngeometric mean gain: {geomean:.1f}x  (paper: ~15x)")

    # Show one query's actual answer to make the offload tangible.
    q3_result, _ = run_query("Q3", dpu, tables, data, model)
    print("\nQ3 top shipping-priority orders "
          "(orderkey, revenue cents*100, orderdate, shippriority):")
    for row in q3_result.value[:5]:
        print(f"  {row}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.004)
