"""Perf-report rendering: utilization + latency histograms from counters.

``DPU.perf_report()`` returns a :class:`PerfReport` built purely from
the hierarchical counter registry: its counters and gauges, and its
latency digests (the ATE round-trip times). Everything the paper
plots per unit time is derived here from counters and the elapsed
simulated cycles — e.g. Figure 11's DMS GB/s is ``dms.bytes_read /
seconds(elapsed)`` — so a benchmark's headline number and the
report's number come from the same arithmetic and must agree exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .metrics import LatencyDigest
from .registry import CounterRegistry

__all__ = ["PerfReport", "render_histogram"]


def render_histogram(name: str, digest: LatencyDigest, bins: int = 8,
                     width: int = 40) -> List[str]:
    """ASCII latency histogram rows for one digest, from its buckets."""
    counts, edges = digest.histogram(bins)
    peak = max(counts) if counts else 0
    lines = [
        f"{name}: n={digest.count} mean={digest.mean:.1f} "
        f"p50={digest.p50:.0f} p99={digest.p99:.0f} "
        f"max={digest.maximum:.0f}"
    ]
    for index, count in enumerate(counts):
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(
            f"  [{edges[index]:>8.1f}, {edges[index + 1]:>8.1f})"
            f" {count:>7} {bar}"
        )
    return lines


class PerfReport:
    """A snapshot of where simulated time and bytes went.

    ``registry`` holds every counter and latency digest (dot paths
    under the DPU's name); ``elapsed_cycles`` is the simulated window
    the rates are normalized over; ``utilization`` maps unit names to
    busy fractions.
    """

    def __init__(
        self,
        registry: CounterRegistry,
        elapsed_cycles: float,
        clock_hz: float,
        name: str = "dpu0",
        utilization: Optional[Dict[str, float]] = None,
    ) -> None:
        self.registry = registry
        self.elapsed_cycles = float(elapsed_cycles)
        self.clock_hz = clock_hz
        self.name = name
        self.utilization = dict(utilization or {})

    # -- derived quantities --------------------------------------------

    @property
    def seconds(self) -> float:
        return self.elapsed_cycles / self.clock_hz

    def gbps(self, counter_path: str) -> float:
        """Counter bytes normalized to GB/s over the elapsed window.

        Same arithmetic as ``LaunchResult.gbps`` so a report generated
        right after a launch reproduces the benchmark's number.
        """
        if self.elapsed_cycles <= 0:
            return 0.0
        nbytes = self.registry.get(counter_path)
        return nbytes / self.seconds / 1e9

    def rate_per_second(self, counter_path: str) -> float:
        if self.elapsed_cycles <= 0:
            return 0.0
        return self.registry.get(counter_path) / self.seconds

    @property
    def dms_read_gbps(self) -> float:
        """Figure 11's headline quantity, from registry counters."""
        return self.gbps(f"{self.name}.dms.bytes_read")

    @property
    def dms_write_gbps(self) -> float:
        return self.gbps(f"{self.name}.dms.bytes_written")

    @property
    def dms_partition_gbps(self) -> float:
        """Figure 13's quantity: partitioned bytes over the window."""
        return self.gbps(f"{self.name}.dms.bytes_partitioned")

    # -- rendering -----------------------------------------------------

    def _utilization_rows(self) -> List[Tuple[str, float]]:
        return sorted(self.utilization.items())

    def render(self, top_counters: int = 24, histogram_bins: int = 6) -> str:
        """Utilization table + throughput lines + latency histograms."""
        lines = [
            f"=== perf report: {self.name} @ t={self.elapsed_cycles:.0f} "
            f"cycles ({self.seconds * 1e6:.1f} us) ===",
            "",
            "-- unit utilization --",
        ]
        for unit, busy in self._utilization_rows():
            bar = "#" * round(30 * min(busy, 1.0))
            lines.append(f"{unit:<12} {busy * 100:6.2f}%  {bar}")
        lines.append("")
        lines.append("-- throughput (from registry counters) --")
        for label, value in (
            ("DMS read", self.dms_read_gbps),
            ("DMS write", self.dms_write_gbps),
            ("DMS partition", self.dms_partition_gbps),
        ):
            lines.append(f"{label:<14} {value:6.2f} GB/s")
        lines.append("")
        lines.append("-- counters --")
        shown = 0
        for path, value in self.registry.snapshot().items():
            if shown >= top_counters:
                lines.append(f"  ... ({len(self.registry) - shown} more)")
                break
            text = f"{value:.0f}" if value == int(value) else f"{value:.3f}"
            lines.append(f"  {path:<44} {text}")
            shown += 1
        latency = {
            name: digest
            for name, digest in sorted(self.registry.digests.items())
            if digest.count
        }
        if latency:
            lines.append("")
            lines.append("-- latency histograms (cycles) --")
            for name, digest in latency.items():
                lines.extend(render_histogram(name, digest,
                                              bins=histogram_bins))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
