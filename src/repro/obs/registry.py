"""Hierarchical hardware-counter registry: the one counter store.

The paper's evaluation is counter-driven — DMS GB/s, ATE round-trip
cycles, per-core throughput, perf/watt — and the numbers only mean
something with *attribution*: which unit, which DPU, which phase.
:class:`CounterRegistry` names every entry with a dot-path
(``dmac.cmem.stalls``, ``dpu0.dms.bytes_read``) and holds three kinds:

* counters, which sum (``dms.bytes_read``);
* gauges, named ``..._peak``, which keep a high-water mark and
  max-fold on merge (``dmad.occupancy_peak``);
* latency digests (``ate.rtt.load.remote``), each a
  :class:`~repro.obs.metrics.LatencyDigest`.

Each DPU owns one registry and hands it to its units, which write
DPU-relative paths: a hot path bumps a counter with one
``values[path] += amount``. An admission controller or memory
governor owns one of its own. ``DPU.counter_registry()`` and
``Cluster.counter_registry()`` build the reporting view from these
stores under ``<dpu>.<unit>.<counter>`` paths, and support the three
operations perf tooling needs:

* ``snapshot()`` — a deterministic (sorted) flat dict of counters and
  gauges;
* ``delta(before)`` — counters accumulated since a snapshot, so a
  benchmark can attribute work to one phase of a longer run;
* ``merge(other)`` — fold another registry in (cluster roll-ups).

:meth:`CounterRegistry.scope` returns a :class:`UnitCounters` view
bound to one prefix: ``registry.scope("fabric").set("bytes_sent", n)``
files under ``fabric.bytes_sent``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from .metrics import LatencyDigest

__all__ = ["CounterRegistry", "UnitCounters"]


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _is_gauge(path: str) -> bool:
    return path.endswith("_peak")


class UnitCounters:
    """One unit's view of the registry, bound to a dot-path prefix."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: "CounterRegistry", prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    def add(self, name: str, amount: float = 1.0) -> None:
        self.registry.add(_join(self.prefix, name), amount)

    def set(self, name: str, value: float) -> None:
        self.registry.set(_join(self.prefix, name), value)

    def peak(self, name: str, value: float) -> None:
        self.registry.peak(_join(self.prefix, name), value)

    def get(self, name: str) -> float:
        return self.registry.get(_join(self.prefix, name))

    def scope(self, prefix: str) -> "UnitCounters":
        return UnitCounters(self.registry, _join(self.prefix, prefix))


class CounterRegistry:
    """Dot-path counters, ``_peak`` gauges and latency digests."""

    def __init__(self) -> None:
        # Counters and gauges by path; missing counters read as 0.0.
        self.values: Dict[str, float] = defaultdict(float)
        self.digests: Dict[str, LatencyDigest] = {}

    # -- registration and update ---------------------------------------

    def scope(self, prefix: str) -> UnitCounters:
        """A unit-bound view; ``registry.scope("dmac").add("bytes")``
        files under ``dmac.bytes``."""
        return UnitCounters(self, prefix)

    def register(self, path: str, initial: float = 0.0) -> str:
        """Declare a counter up front (it appears in snapshots even if
        never incremented); returns the path."""
        self.values.setdefault(path, float(initial))
        return path

    def add(self, path: str, amount: float = 1.0) -> None:
        self.values[path] += amount

    def set(self, path: str, value: float) -> None:
        self.values[path] = float(value)

    def peak(self, path: str, value: float) -> None:
        """Fold in a high-water mark (gauge max semantics)."""
        current = self.values.get(path)
        if current is None or value > current:
            self.values[path] = float(value)

    def get(self, path: str) -> float:
        return self.values.get(path, 0.0)

    def digest(self, path: str) -> LatencyDigest:
        """The latency digest at ``path``, created on first use."""
        digest = self.digests.get(path)
        if digest is None:
            digest = self.digests[path] = LatencyDigest(path)
        return digest

    def observe(self, path: str, value: float) -> None:
        """Feed one latency sample into the digest at ``path``."""
        self.digest(path).add(value)

    def __contains__(self, path: str) -> bool:
        return path in self.values

    def __len__(self) -> int:
        return len(self.values)

    # -- reporting operations ------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Counters and gauges as a flat dict, keys sorted."""
        values = self.values
        return {path: values[path] for path in sorted(values)}

    def counters(self) -> Dict[str, float]:
        """The snapshot without its gauges."""
        return {path: value for path, value in self.snapshot().items()
                if not _is_gauge(path)}

    def gauges(self) -> Dict[str, float]:
        """The snapshot's ``_peak`` gauges alone."""
        return {path: value for path, value in self.snapshot().items()
                if _is_gauge(path)}

    def to_dict(self) -> Dict[str, Dict]:
        """Counters, gauges and digest summaries as separate sections,
        each sorted by name."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "digests": {path: self.digests[path].to_dict()
                        for path in sorted(self.digests)},
        }

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counters accumulated since ``before`` (a prior snapshot).

        Unchanged counters are omitted; counters that appeared after
        the snapshot report their full value. Sorted like snapshot().
        """
        changed = {}
        for path in sorted(self.values):
            diff = self.values[path] - before.get(path, 0.0)
            if diff != 0.0:
                changed[path] = diff
        return changed

    def merge(self, other: "CounterRegistry") -> None:
        """Fold ``other`` in: counters sum, ``_peak`` gauges max-fold,
        digests merge."""
        for path, value in other.values.items():
            if _is_gauge(path):
                self.peak(path, value)
            else:
                self.values[path] += value
        for path, digest in other.digests.items():
            self.digest(path).merge(digest)

    def include(self, prefix: str, other: "CounterRegistry") -> None:
        """File ``other``'s entries under ``<prefix>.``: counters and
        gauges by value, digests shared rather than copied. Builds a
        report view from the stores that own the numbers; including
        the same store again overwrites, it does not add."""
        head = prefix + "."
        values = self.values
        for path, value in other.values.items():
            values[head + path] = value
        for path, digest in other.digests.items():
            self.digests[head + path] = digest
