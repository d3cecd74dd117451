"""The reference loop that host times are scaled by.

Other tenants of a shared host slow this single-threaded simulator by
up to half for tens of seconds at a time, far longer than a pass, so
no statistic over one run's passes removes it. A fixed loop that uses
no simulator code, timed between passes, slows with it: an
event loop of generators on a heap with small numpy steps, then plain
integer arithmetic, the interpreter work the simulator itself does.
Each pass's time is divided by the loop's mean time just before and
just after it and multiplied by
``NOMINAL_S``, its time on a quiet host, so they read as seconds at
one fixed host speed. A change to the simulator moves them; a change
in how busy the host is mostly does not.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

import numpy as np

# The loop's fastest time, over 40 runs, on the 2-core x86_64 VM
# (Python 3.11) where the benchmark was written.
NOMINAL_S = 0.06


def _ticker(seed: int, out: dict):
    x = seed
    for _ in range(20):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        out[x & 255] = out.get(x & 255, 0) + 1
        yield x & 63


def reference_seconds() -> float:
    """Host seconds of one run of the reference loop."""
    start = time.perf_counter()
    heap, counts = [], {}
    tickers = [_ticker(i, counts) for i in range(1200)]
    for i in range(len(tickers)):
        heapq.heappush(heap, (0, i))
    while heap:
        now, i = heapq.heappop(heap)
        try:
            delay = next(tickers[i])
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, i))
    values = np.arange(1 << 16, dtype=np.uint32)
    for _ in range(120):
        values = (values * np.uint32(2654435761)) ^ (values >> np.uint32(7))
        int(values[:4096].sum(dtype=np.uint64))
    x = 1
    for i in range(400_000):
        x = (x * 31 + i) & 0xFFFFF
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reference_s: Sequence[float]) -> float:
    """Host seconds scaled to the reference speed, by the mean of the
    reference loop's times just before and just after them."""
    return seconds * NOMINAL_S / statistics.fmean(reference_s)
