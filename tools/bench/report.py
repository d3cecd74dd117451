"""Summaries, units and the metric list that ``run.py`` and
``compare.py`` share. ``BENCHMARK.json`` at the repository root names
the end-to-end and per-layer metrics, with their units, directions
and bounds; simulated headline numbers carry units from their names.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from . import BENCHMARK_JSON


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles (as ``statistics.quantiles`` gives them) and
    sample count; the metric's ``value`` is the median."""
    samples = [float(s) for s in samples]
    if len(samples) > 1:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    summary = {"median": statistics.median(samples), "q1": q1, "q3": q3,
               "n": len(samples), "samples": samples}
    summary["value"] = summary["median"]
    return summary


def pass_seconds(passes: Sequence[dict]) -> float:
    """Host seconds of one pass: for each variant the median of its
    passes' ``seconds``, then the mean over variants."""
    by_variant: Dict[int, List[float]] = {}
    for record in passes:
        by_variant.setdefault(record["variant"], []).append(record["seconds"])
    return statistics.fmean(statistics.median(samples)
                            for samples in by_variant.values())


# (name test, unit, better) for simulated numbers, first match wins.
_SIMULATED_UNITS: List[Tuple[str, str, Optional[str]]] = [
    ("gbps", "GB/s", "higher"),
    ("gain", "x", "higher"),
    ("speedup", "x", "higher"),
    ("max_rate", "req/Mcycle", "higher"),
    ("hit_ratio", "ratio", "higher"),
    ("mean_size", "queries", None),
    ("cycles", "cycles", "lower"),
    ("bytes", "B", "lower"),
]


def simulated_unit(name: str) -> Tuple[str, Optional[str]]:
    """Unit and better direction of a simulated number, from its name;
    counts such as jobs or re-executed shards have no direction."""
    for needle, unit, better in _SIMULATED_UNITS:
        if needle in name:
            return unit, better
    return "count", None
