"""Two-clock benchmark for the DPU simulator.

Four fixed workloads measure the host clock (how long the simulator
takes) and the simulated clock (what the modelled machine would take)
side by side, check every output against an oracle, and, in a traced
run, split host time by ``repro`` package. See ``README.md`` here for
the workloads, metrics and how to run, trace and compare.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def require_src() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark always measures the simulator sources next to it,
    never an installed copy, so a checkout without them is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no simulator sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"bench: imported repro from {repro.__file__}, not from {SRC}")
