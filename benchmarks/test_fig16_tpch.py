"""Figure 16: TPC-H query efficiency gains over the commercial DBMS.

Runs the implemented TPC-H plans (Q1, Q3, Q5, Q6, Q12, Q14) on the
simulated DPU engine and on the DBMS executor cost model, reporting
per-query perf/watt gains and their geometric mean. The paper's
overall result is a 15x geomean.
"""

import math

from conftest import run_once

from repro.apps.sql import (
    TPCH_QUERIES,
    efficiency_gain,
    load_tpch_on_dpu,
    run_query,
)
from repro.baseline import XeonModel
from repro.core import DPU
from repro.workloads.tpch import generate_tpch


# At scale 0.004 every hand plan's broadcast tables fit in DMEM beside
# its stream tiles; at 0.01 Q10's do not, and its group-by is rejected.
def run_all_queries(scale=0.004):
    data = generate_tpch(scale=scale)
    dpu = DPU()
    tables = load_tpch_on_dpu(dpu, data)
    model = XeonModel()
    gains = {}
    for name in TPCH_QUERIES:
        dpu_result, xeon_result = run_query(name, dpu, tables, data, model)
        gains[name] = efficiency_gain(dpu_result, xeon_result)
    return gains


def test_fig16_tpch_gains(benchmark, report):
    gains = run_once(benchmark, run_all_queries)
    geomean = math.exp(sum(math.log(g) for g in gains.values()) / len(gains))
    rows = [f"{name:<5} {gain:6.2f}x" for name, gain in gains.items()]
    rows.append(f"{'geomean':<5} {geomean:6.2f}x   (paper: ~15x)")
    report("Figure 16: TPC-H perf/watt gains", "query  gain", rows)
    for name, gain in gains.items():
        benchmark.extra_info[name] = gain
    benchmark.extra_info["geomean"] = geomean
    assert all(gain > 3.0 for gain in gains.values())
    assert 10.0 < geomean < 20.0  # paper: 15x
