"""Continuous sim-time metrics: sampling, SLOs, and health reports.

PR 3's tracer and counter registry answer *how much* work happened;
this module answers *when*. A :class:`MetricsHub` registers periodic
samplers on the simulation clock (configurable cadence in cycles) that
snapshot :class:`~repro.obs.registry.CounterRegistry` counters and
gauges into bounded ring-buffered :class:`TimeSeries`, from which
per-interval rates (DMS GB/s, fabric bytes/s, shed rate) are derived.
On top of the series sit:

* :class:`LatencyDigest` — streaming log-bucketed percentile digests
  (p50/p99/p999) for per-op latency, O(1) add, mergeable;
* :class:`SloRule` — a threshold + ``sustained-for`` alert engine that
  fires structured :class:`Alert` instants into the tracer;
* :class:`Annotation` — timeline markers for chaos/recovery events
  (kills, partition windows, leader elections, journal replays) so a
  run's health story reads end to end.

Exporters: live Perfetto counter tracks merged into the existing
Chrome-trace ring buffer, Prometheus-style text, and JSONL, plus a CLI
health report::

    python -m repro.obs.metrics report metrics.jsonl
    python -m repro.obs.metrics validate metrics.jsonl

Two guarantees mirror the tracer's (both pinned by tests):

1. **Zero overhead when disabled.** The default ``DPU``/``Cluster``
   carry the shared :data:`NULL_HUB`; hot paths pay one attribute test.
2. **Zero timing perturbation when enabled.** Sampler ticks are pure
   host-side reads scheduled as plain engine callbacks: they never
   mutate modelled state, never wake a process, and tie-breaking
   sequence numbers preserve the relative order of all other events,
   so every cycle count is identical to a metrics-off run. The one
   caveat: a drain-style ``engine.run()`` (no target process) may stop
   up to one cadence *after* the last real event, because the final
   dormant-going tick itself advances the clock; every ``launch`` /
   ``run_until_complete`` flow is exact.

A sampler tick re-arms only while the engine queue holds non-metrics
work, and goes dormant otherwise; ``touch()`` (called by the launch /
cluster-run choke points) re-arms it, so an idle engine always drains.
"""

from __future__ import annotations

import io
import json
import math
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .tracer import NULL_TRACER

__all__ = [
    "Alert",
    "Annotation",
    "LatencyDigest",
    "MetricsHub",
    "NULL_HUB",
    "NullMetricsHub",
    "SloRule",
    "TimeSeries",
    "render_report",
    "validate_metrics_jsonl",
]


# Registry paths sampled into Perfetto counter tracks by default (the
# full snapshot always lands in the ring-buffered series; this only
# bounds what is mirrored into the trace, which is shared with spans).
DEFAULT_TRACE_PATTERNS = (
    "*.dms.bytes_read",
    "*.dms.bytes_written",
    "*.dms.bytes_partitioned",
    "*.ddr.bytes_served",
    "*.ate.messages",
    "*.admission.*",
    "*.heap.live_bytes",
    "*.dmad*.occupancy",
    "fabric.bytes_sent",
    "fabric.bytes_retransmitted",
    "fabric.messages_sent",
    "fabric.inbox*.occupancy",
    "recovery.*",
)

# Leaf-name markers that make a sampled path a *gauge* (exported and
# trace-mirrored as its instantaneous value) instead of a cumulative
# counter (mirrored as a per-interval rate). ``_peak`` matches the
# registry's merge convention.
_GAUGE_MARKERS = (
    "utilization",
    "occupancy",
    "running",
    "queued",
    "in_use",
    "live_bytes",
    "free_bytes",
    "largest_free",
    "fragments",
    "tokens",
    "capacity",
    "now",
    "leader",
    "epoch",
)


def is_gauge_path(path: str) -> bool:
    """Gauge (sample = value) vs counter (sample = cumulative total)."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith("_peak"):
        return True
    return any(marker in leaf for marker in _GAUGE_MARKERS)


class TimeSeries:
    """A bounded ring of ``(t, value)`` samples for one metric path.

    Overflow evicts oldest-first and is counted in ``dropped``, so the
    newest window always survives (mirrors :class:`TraceBuffer`).
    """

    __slots__ = ("name", "capacity", "points", "dropped", "gauge")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2: {capacity}")
        self.name = name
        self.capacity = capacity
        self.points: deque = deque(maxlen=capacity)
        self.dropped = 0
        self.gauge = is_gauge_path(name)

    def append(self, t: float, value: float) -> None:
        points = self.points
        if points and points[-1][0] == t:
            # A flush at the same instant as a cadence tick re-reads
            # the counters: replace, so the series stays a function of
            # time and integration sees the final value.
            points[-1] = (t, value)
            return
        if len(points) == self.capacity:
            self.dropped += 1
        points.append((t, value))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def deltas(self) -> List[Tuple[float, float]]:
        """Per-interval accumulation: ``[(t_i, v_i - v_{i-1}), ...]``."""
        points = list(self.points)
        return [
            (points[i][0], points[i][1] - points[i - 1][1])
            for i in range(1, len(points))
        ]

    def integrate(self) -> float:
        """Total accumulated over the retained window (sum of interval
        deltas — telescopes exactly for integer-valued counters)."""
        total = 0.0
        for _t, delta in self.deltas():
            total += delta
        return total


class LatencyDigest:
    """Streaming percentile digest with bounded relative error.

    Values land in log2 buckets split into ``SUBBUCKETS`` linear
    sub-buckets (HdrHistogram-style), giving ~1/SUBBUCKETS relative
    error on quantiles with O(1) insertion and O(buckets) queries.
    Exact count/sum/min/max are kept alongside. Mergeable, so per-DPU
    digests roll up into cluster digests.
    """

    SUBBUCKETS = 32

    __slots__ = ("name", "buckets", "count", "total", "_min", "_max", "zeros")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.zeros = 0  # non-positive samples, kept out of the log buckets

    def _index(self, value: float) -> int:
        mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
        sub = int((mantissa - 0.5) * 2 * self.SUBBUCKETS)
        return exponent * self.SUBBUCKETS + min(sub, self.SUBBUCKETS - 1)

    def _value_of(self, index: int) -> float:
        exponent, sub = divmod(index, self.SUBBUCKETS)
        mantissa = 0.5 + (sub + 0.5) / (2 * self.SUBBUCKETS)
        return math.ldexp(mantissa, exponent)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        """Add every value, in order: the same state, bit for bit, as
        one :meth:`add` per value, with the bucket indexes of all of
        them computed in one numpy pass.

        The total is summed with ``+=`` in order, as :meth:`add` does
        (not ``sum()``, whose rounding changed in Python 3.12), and new
        buckets appear in first-seen order. NaN and +inf are rejected
        before anything changes (:meth:`add` raises on them too).
        """
        values = list(map(float, values))
        if not values:
            return
        positive = [value for value in values if value > 0.0]
        zeros = len([value for value in values if value <= 0.0])
        if len(positive) + zeros < len(values) or math.inf in positive:
            raise ValueError("a latency digest takes no NaN or +inf")
        total = self.total
        for value in values:
            total += value
        self.total = total
        self.count += len(values)
        self.zeros += zeros
        low, high = min(values), max(values)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        if not positive:
            return
        # _index over the whole batch, in the same float operations.
        mantissa, exponent = np.frexp(np.array(positive))
        sub = ((mantissa - 0.5) * 2 * self.SUBBUCKETS).astype(np.int64)
        indexes = (exponent.astype(np.int64) * self.SUBBUCKETS
                   + np.minimum(sub, self.SUBBUCKETS - 1))
        buckets = self.buckets
        for index, count in Counter(indexes.tolist()).items():
            buckets[index] = buckets.get(index, 0) + count

    def merge(self, other: "LatencyDigest") -> None:
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Approximate nearest-rank quantile; exact at the extremes."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(fraction * self.count))
        if rank <= self.zeros:
            return min(self.minimum, 0.0)
        if rank >= self.count:
            return self.maximum
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return self._value_of(index)
        return self.maximum

    def histogram(self, bins: int = 8) -> Tuple[List[int], List[float]]:
        """Counts over at most ``bins`` rows of adjacent buckets, with
        numpy-style edges (``len(edges) == len(counts) + 1``).

        Non-positive samples take a first row of their own. The outer
        edges are the exact minimum and maximum, so an empty digest has
        no rows and a constant one a single zero-width row.
        """
        if bins <= 0:
            raise ValueError(f"bins must be positive: {bins}")
        if self.count == 0:
            return [], []
        counts: List[int] = []
        edges: List[float] = []
        if self.zeros:
            counts.append(self.zeros)
            edges.append(self.minimum)
            bins = max(1, bins - 1)
        if self.buckets:
            low = min(self.buckets)
            span = max(self.buckets) - low + 1
            step = -(-span // bins)
            groups = [0] * -(-span // step)
            for index, count in self.buckets.items():
                groups[(index - low) // step] += count
            counts.extend(groups)
            for group in range(len(groups)):
                exponent, sub = divmod(low + group * step, self.SUBBUCKETS)
                edges.append(math.ldexp(0.5 + sub / (2 * self.SUBBUCKETS),
                                        exponent))
        edges[0] = self.minimum
        edges.append(self.maximum)
        return counts, edges

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }


_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, limit: value > limit,
    ">=": lambda value, limit: value >= limit,
    "<": lambda value, limit: value < limit,
    "<=": lambda value, limit: value <= limit,
}


@dataclass(frozen=True)
class SloRule:
    """``<metric>(<series>) <op> <threshold> [for <cycles>]``.

    ``kind`` selects the evaluated quantity:

    * ``value`` — the latest sample of a series (gauges);
    * ``rate`` — the last inter-sample rate, in units *per second* via
      the hub's ``clock_hz`` (counters);
    * ``quantile`` — ``quantile`` of the named latency digest
      (``p50``/``p99``/``p999`` spellings parse to this kind).

    The rule breaches when ``op(quantity, threshold)`` holds; the alert
    fires only once the breach has been sustained for
    ``sustained_for`` simulated cycles, and resolves (with a paired
    alert record) when the quantity recovers.
    """

    name: str
    series: str
    op: str
    threshold: float
    kind: str = "value"
    quantile: float = 0.99
    sustained_for: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {sorted(_OPS)}: {self.op}")
        if self.kind not in ("value", "rate", "quantile"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.sustained_for < 0:
            raise ValueError(f"negative sustained_for {self.sustained_for}")

    @classmethod
    def parse(cls, text: str, name: Optional[str] = None) -> "SloRule":
        """Parse ``"p99(ate.rtt.faa.remote) > 5000 for 100000"``.

        Metric spellings: ``value(path)``, ``rate(path)``,
        ``p50/p90/p99/p999/p<float>(digest)``. The ``for`` clause is
        optional and given in simulated cycles.
        """
        import re

        pattern = (
            r"^\s*(value|rate|p[0-9]+(?:\.[0-9]+)?)\(([^)]+)\)\s*"
            r"(>=|<=|>|<)\s*([-+0-9.eE]+)"
            r"(?:\s+for\s+([0-9.eE+]+))?\s*$"
        )
        match = re.match(pattern, text)
        if match is None:
            raise ValueError(f"cannot parse SLO rule: {text!r}")
        metric, series, op, threshold, sustained = match.groups()
        kind, quantile = "value", 0.99
        if metric == "rate":
            kind = "rate"
        elif metric.startswith("p") and metric != "value":
            kind = "quantile"
            digits = metric[1:]
            # p50 -> 0.50, p99 -> 0.99, p999 -> 0.999, p99.9 -> 0.999
            quantile = float(digits) / (10 ** len(digits.replace(".", "")))
            if "." in digits:
                quantile = float(digits) / 100.0
        return cls(
            name=name or text.strip(),
            series=series.strip(),
            op=op,
            threshold=float(threshold),
            kind=kind,
            quantile=quantile,
            sustained_for=float(sustained) if sustained else 0.0,
        )


@dataclass(frozen=True)
class Alert:
    """One SLO state transition, stamped in simulated time."""

    t: float
    rule: str
    state: str  # "firing" | "resolved"
    value: float
    threshold: float
    since: float  # when the breach began (== t for instant rules)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "alert",
            "t": self.t,
            "rule": self.rule,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "since": self.since,
        }


@dataclass(frozen=True)
class Annotation:
    """A timeline marker: chaos kill, partition window, election..."""

    t: float
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "annotation", "t": self.t, "kind": self.kind,
                "attrs": dict(self.attrs)}


class NullMetricsHub:
    """The disabled hub: every operation is a cheap no-op.

    Mirrors :class:`~repro.obs.tracer.NullTracer` — sits on
    ``DPU.metrics`` / ``Cluster.metrics`` by default so hot paths pay
    one attribute load and a truthiness test, and runs stay
    bit-identical to a build with no metrics at all (pinned).
    """

    __slots__ = ()
    enabled = False

    def touch(self) -> None:
        pass

    def flush(self) -> None:
        pass

    def sample(self) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def annotate(self, kind: str, t: Optional[float] = None,
                 **attrs: Any) -> None:
        pass

    def add_sampler(self, sampler: Callable[[], Dict[str, float]]) -> None:
        pass

    def add_rule(self, rule: Any, name: Optional[str] = None) -> None:
        pass


NULL_HUB = NullMetricsHub()


class MetricsHub:
    """Periodic registry sampling + digests + SLO rules + exporters.

    One hub serves one engine (a DPU, or a whole cluster sharing its
    engine). ``cadence`` is the sampling period in simulated cycles;
    ``capacity`` bounds every ring (series points, annotations,
    alerts); ``clock_hz`` converts per-cycle rates to per-second.
    """

    enabled = True

    def __init__(
        self,
        engine,
        cadence: float = 10_000.0,
        capacity: int = 4096,
        clock_hz: float = 800e6,
        trace=NULL_TRACER,
        trace_patterns: Tuple[str, ...] = DEFAULT_TRACE_PATTERNS,
    ) -> None:
        if cadence <= 0:
            raise ValueError(f"cadence must be positive cycles: {cadence}")
        self.engine = engine
        self.cadence = float(cadence)
        self.capacity = int(capacity)
        self.clock_hz = float(clock_hz)
        self.trace = trace
        self.trace_patterns = tuple(trace_patterns)
        self.samplers: List[Callable[[], Dict[str, float]]] = []
        self.series: Dict[str, TimeSeries] = {}
        self.digests: Dict[str, LatencyDigest] = {}
        self.rules: List[SloRule] = []
        self.alerts: List[Alert] = []
        self.annotations: List[Annotation] = []
        self.annotations_dropped = 0
        self.ticks = 0
        self._pending = False
        self._next_due = float(engine.now)
        self._last_sample_t: Optional[float] = None
        self._trace_match: Dict[str, bool] = {}
        self._breach_since: Dict[str, float] = {}
        self._firing: Dict[str, bool] = {}
        if not hasattr(engine, "_metric_ticks"):
            engine._metric_ticks = 0

    # -- registration --------------------------------------------------

    def add_sampler(self, sampler: Callable[[], Dict[str, float]]) -> None:
        """Register a callable returning ``{path: value}`` per tick.

        Samplers must be pure host-side reads: they run inside the
        engine's dispatch loop and must never mutate modelled state.
        """
        self.samplers.append(sampler)

    def add_rule(self, rule, name: Optional[str] = None) -> SloRule:
        """Attach an :class:`SloRule` (or its text form)."""
        if isinstance(rule, str):
            rule = SloRule.parse(rule, name=name)
        self.rules.append(rule)
        return rule

    def digest(self, name: str) -> LatencyDigest:
        digest = self.digests.get(name)
        if digest is None:
            digest = self.digests[name] = LatencyDigest(name)
        return digest

    def observe(self, name: str, value: float) -> None:
        """Feed one latency/size sample into the named digest."""
        self.digest(name).add(value)

    def digest_table(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Summaries of every digest under ``prefix``, sorted by name.

        The serving layer files per-tenant latency under
        ``serve.tenant.<name>`` and per-tier under
        ``serve.tier.<name>``, so ``digest_table("serve.tier.")``
        is the per-tier p50/p99/p999 isolation table."""
        return {
            name: digest.to_dict()
            for name, digest in sorted(self.digests.items())
            if name.startswith(prefix)
        }

    def annotate(self, kind: str, t: Optional[float] = None,
                 **attrs: Any) -> None:
        """Mark the timeline (chaos kill, election, replay...).

        ``t`` defaults to now; chaos schedules annotate their drawn
        fire times up front, so explicit timestamps are allowed.
        """
        when = self.engine.now if t is None else float(t)
        if len(self.annotations) >= self.capacity:
            self.annotations_dropped += 1
            del self.annotations[0]
        self.annotations.append(Annotation(when, kind, dict(attrs)))
        if self.trace.enabled:
            self.trace.emit(name=f"note.{kind}", ph="i", ts=when,
                            tid="metrics", s="t", cat="annotation",
                            args={"kind": kind, **attrs})

    # -- the sampling clock --------------------------------------------

    def touch(self) -> None:
        """Re-arm the sampler (called at launch/job/run starts).

        Takes an immediate boundary sample so every phase's series
        starts with a baseline point at the phase-start instant —
        without it the first interval's delta (work done before the
        first cadence tick) would be lost and integration could not
        reproduce the run's totals.
        """
        if not self._pending:
            self.sample()
            self._schedule_tick()

    def _schedule_tick(self) -> None:
        engine = self.engine
        now = engine.now
        due = self._next_due if self._next_due > now else now
        self._pending = True
        engine._metric_ticks += 1
        engine._schedule(due - now, self._tick, None)

    def _tick(self, _ignored: Any) -> None:
        self._pending = False
        engine = self.engine
        engine._metric_ticks -= 1
        self.sample()
        # Re-arm only while real (non-metrics) work is pending, so an
        # otherwise-drained engine still drains; touch() re-arms.
        if len(engine._queue) > engine._metric_ticks:
            self._schedule_tick()

    def sample(self) -> None:
        """Take one sample now: run samplers, mirror counter tracks
        into the tracer, evaluate SLO rules."""
        now = self.engine.now
        self.ticks += 1
        self._next_due = now + self.cadence
        trace = self.trace
        emit = trace.enabled
        previous_t = self._last_sample_t
        for sampler in self.samplers:
            for path, value in sampler().items():
                series = self.series.get(path)
                if series is None:
                    series = self.series[path] = TimeSeries(
                        path, self.capacity
                    )
                    # A counter appearing mid-run was implicitly zero
                    # at the previous sample (registry counters are
                    # created on first increment); the backfilled point
                    # keeps interval deltas telescoping to the true
                    # total.
                    if (not series.gauge and previous_t is not None
                            and previous_t < now):
                        series.append(previous_t, 0.0)
                previous = series.last
                series.append(now, float(value))
                if emit and self._traced(path):
                    if series.gauge:
                        trace.counter(path, unit="metrics", value=value)
                    else:
                        rate = 0.0
                        if previous is not None and now > previous[0]:
                            rate = ((value - previous[1])
                                    / (now - previous[0]) * self.clock_hz)
                        trace.counter(path, unit="metrics", per_second=rate)
        self._last_sample_t = now
        self._evaluate_rules(now)

    def flush(self) -> None:
        """Sample at the current instant (end of a launch/run), so the
        final point lands exactly on the completion cycle and interval
        integration covers the whole window."""
        self.sample()

    def _traced(self, path: str) -> bool:
        match = self._trace_match.get(path)
        if match is None:
            match = any(
                fnmatchcase(path, pattern) for pattern in self.trace_patterns
            )
            self._trace_match[path] = match
        return match

    # -- SLO engine ----------------------------------------------------

    def rule_value(self, rule: SloRule) -> Optional[float]:
        """The quantity a rule currently evaluates, or None if the
        series/digest has no data yet."""
        if rule.kind == "quantile":
            digest = self.digests.get(rule.series)
            if digest is None or digest.count == 0:
                return None
            return digest.quantile(rule.quantile)
        series = self.series.get(rule.series)
        if series is None or not series.points:
            return None
        if rule.kind == "value":
            return series.points[-1][1]
        if len(series.points) < 2:
            return None
        (t0, v0), (t1, v1) = series.points[-2], series.points[-1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0) * self.clock_hz

    def _evaluate_rules(self, now: float) -> None:
        for rule in self.rules:
            value = self.rule_value(rule)
            if value is None:
                continue
            breaching = _OPS[rule.op](value, rule.threshold)
            if breaching:
                since = self._breach_since.setdefault(rule.name, now)
                if (not self._firing.get(rule.name)
                        and now - since >= rule.sustained_for):
                    self._firing[rule.name] = True
                    self._record_alert(now, rule, "firing", value, since)
            else:
                since = self._breach_since.pop(rule.name, now)
                if self._firing.get(rule.name):
                    self._firing[rule.name] = False
                    self._record_alert(now, rule, "resolved", value, since)

    def _record_alert(self, now: float, rule: SloRule, state: str,
                      value: float, since: float) -> None:
        alert = Alert(now, rule.name, state, float(value),
                      rule.threshold, since)
        if len(self.alerts) >= self.capacity:
            del self.alerts[0]
        self.alerts.append(alert)
        if self.trace.enabled:
            self.trace.emit(
                name=f"slo.{rule.name}", ph="i", ts=now, tid="slo", s="t",
                cat="alert",
                args={"rule": rule.name, "state": state, "value": value,
                      "threshold": rule.threshold, "since": since},
            )

    def firing(self) -> List[str]:
        """Names of rules currently in the firing state."""
        return [name for name, live in self._firing.items() if live]

    # -- derived series ------------------------------------------------

    def latest(self, path: str) -> float:
        series = self.series.get(path)
        if series is None or not series.points:
            return 0.0
        return series.points[-1][1]

    def integrate(self, path: str) -> float:
        """Sum of per-interval deltas over the retained window — for a
        counter sampled from t=0 with a final flush, exactly the total
        the point-in-time registry reports (telescoping is exact for
        integer-valued counters), so derived GB/s reproduces
        ``LaunchResult.gbps`` bit for bit."""
        series = self.series.get(path)
        return series.integrate() if series is not None else 0.0

    def rate_points(self, path: str,
                    per_second: bool = True) -> List[Tuple[float, float]]:
        """Per-interval rates ``[(t_i, rate_i)]`` for a counter path."""
        series = self.series.get(path)
        if series is None:
            return []
        points = list(series.points)
        scale = self.clock_hz if per_second else 1.0
        rates = []
        for i in range(1, len(points)):
            t0, v0 = points[i - 1]
            t1, v1 = points[i]
            if t1 > t0:
                rates.append((t1, (v1 - v0) / (t1 - t0) * scale))
        return rates

    # -- exporters -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic full export (the JSONL lines, as objects)."""
        records: List[Dict[str, Any]] = [{
            "type": "meta",
            "cadence": self.cadence,
            "clock_hz": self.clock_hz,
            "ticks": self.ticks,
            "engine_now": float(self.engine.now),
            "series": len(self.series),
            "digests": len(self.digests),
            "alerts": len(self.alerts),
            "annotations": len(self.annotations),
            "annotations_dropped": self.annotations_dropped,
        }]
        for name in sorted(self.series):
            series = self.series[name]
            records.append({
                "type": "series",
                "name": name,
                "gauge": series.gauge,
                "dropped": series.dropped,
                "points": [[t, v] for t, v in series.points],
            })
        for name in sorted(self.digests):
            record = {"type": "digest", "name": name}
            record.update(self.digests[name].to_dict())
            records.append(record)
        records.extend(alert.to_dict() for alert in self.alerts)
        records.extend(note.to_dict() for note in self.annotations)
        return {"records": records}

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the line count."""
        records = self.to_dict()["records"]
        with io.open(path, "w", encoding="utf-8") as sink:
            for record in records:
                sink.write(json.dumps(record) + "\n")
        return len(records)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the latest sample of every
        series plus digest quantiles and alert totals."""
        lines: List[str] = []
        for name in sorted(self.series):
            series = self.series[name]
            if not series.points:
                continue
            metric = _prom_name(name)
            kind = "gauge" if series.gauge else "counter"
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {_prom_value(series.points[-1][1])}")
        for name in sorted(self.digests):
            digest = self.digests[name]
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} summary")
            for label, fraction in (("0.5", 0.5), ("0.99", 0.99),
                                    ("0.999", 0.999)):
                lines.append(
                    f'{metric}{{quantile="{label}"}} '
                    f"{_prom_value(digest.quantile(fraction))}"
                )
            lines.append(f"{metric}_sum {_prom_value(digest.total)}")
            lines.append(f"{metric}_count {digest.count}")
        fired = sum(1 for alert in self.alerts if alert.state == "firing")
        lines.append("# TYPE repro_slo_alerts_fired_total counter")
        lines.append(f"repro_slo_alerts_fired_total {fired}")
        return "\n".join(lines) + "\n"

    def export_prometheus(self, path: str) -> None:
        with io.open(path, "w", encoding="utf-8") as sink:
            sink.write(self.to_prometheus())

    def render_report(self, width: int = 60) -> str:
        """The cluster/DPU health report (see :func:`render_report`)."""
        return render_report(self.to_dict()["records"], width=width)


def _prom_name(path: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in path
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prom_value(value: float) -> str:
    return f"{value:.17g}"


# -- health report rendering ----------------------------------------------

_RAMP = " .:-=+*#%@"


def _sparkline(points: List[Tuple[float, float]], t0: float, t1: float,
               width: int) -> Tuple[str, float, float]:
    """Resample ``points`` onto ``width`` buckets of [t0, t1]; returns
    (line, min, max). Buckets average the samples they contain and
    inherit their left neighbour when empty."""
    if not points or t1 <= t0:
        return " " * width, 0.0, 0.0
    sums = [0.0] * width
    counts = [0] * width
    for t, value in points:
        index = min(width - 1, max(0, int((t - t0) / (t1 - t0) * width)))
        sums[index] += value
        counts[index] += 1
    values: List[float] = []
    previous = 0.0
    for index in range(width):
        if counts[index]:
            previous = sums[index] / counts[index]
        values.append(previous)
    low, high = min(values), max(values)
    if high <= low:
        return _RAMP[0] * width, low, high
    chars = [
        _RAMP[min(len(_RAMP) - 1,
                  int((value - low) / (high - low) * (len(_RAMP) - 1)))]
        for value in values
    ]
    return "".join(chars), low, high


def _fmt(value: float) -> str:
    magnitude = abs(value)
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if magnitude >= scale:
            return f"{value / scale:.2f}{unit}"
    if value == int(value):
        return f"{value:.0f}"
    return f"{value:.2f}"


def render_report(records: List[Dict[str, Any]], width: int = 60,
                  timeline_series: Optional[List[str]] = None) -> str:
    """Render the per-DPU/cluster health report from exported records.

    Sections: run header, utilization/rate timelines (sparklines over
    the sampled window), fabric heatmap (per-endpoint link busy
    fraction per time bucket), latency digests, the alert log, and the
    annotation timeline.
    """
    meta = next((r for r in records if r.get("type") == "meta"), None)
    series = [r for r in records if r.get("type") == "series"]
    digests = [r for r in records if r.get("type") == "digest"]
    alerts = [r for r in records if r.get("type") == "alert"]
    notes = [r for r in records if r.get("type") == "annotation"]
    clock_hz = float(meta["clock_hz"]) if meta else 800e6

    t0, t1 = math.inf, -math.inf
    for record in series:
        for t, _v in record["points"]:
            t0 = min(t0, t)
            t1 = max(t1, t)
    if not series or t1 <= t0:
        t0, t1 = 0.0, max(t1, 1.0)

    lines = []
    now = meta["engine_now"] if meta else t1
    ticks = meta["ticks"] if meta else len(series)
    cadence = meta["cadence"] if meta else 0
    lines.append(
        f"=== cluster health report @ t={now:.0f} cycles "
        f"({ticks} samples, cadence {cadence:.0f}) ==="
    )

    # -- utilization / rate timelines --
    lines.append("")
    lines.append("-- timelines (sampled window) --")
    interesting = timeline_series
    if interesting is None:
        preferred = (
            "*.dms.bytes_read", "fabric.bytes_sent", "*.ddr.bytes_served",
            "*.admission.running", "*.heap.live_bytes",
        )
        interesting = [
            record["name"] for record in series
            if any(fnmatchcase(record["name"], pattern)
                   for pattern in preferred)
        ]
    shown = 0
    for record in series:
        name = record["name"]
        if name not in interesting:
            continue
        points = [(t, v) for t, v in record["points"]]
        if record.get("gauge"):
            label, unit = "value", ""
        else:
            # Counters render as per-interval rates (units/second).
            rates = []
            for i in range(1, len(points)):
                ta, va = points[i - 1]
                tb, vb = points[i]
                if tb > ta:
                    rates.append((tb, (vb - va) / (tb - ta) * clock_hz))
            points, label, unit = rates, "rate", "/s"
        spark, low, high = _sparkline(points, t0, t1, width)
        lines.append(f"{name}  ({label})")
        lines.append(f"  [{spark}]  min={_fmt(low)}{unit} "
                     f"max={_fmt(high)}{unit}")
        shown += 1
    if not shown:
        lines.append("  (no timeline series sampled)")

    # -- fabric heatmap --
    heat_rows = []
    for record in series:
        name = record["name"]
        if name.startswith("fabric.") and name.endswith(".utilization"):
            heat_rows.append(record)
    if heat_rows:
        lines.append("")
        lines.append("-- fabric heatmap (link busy fraction per interval) --")
        columns = max(8, width // 2)
        for record in sorted(heat_rows, key=lambda r: r["name"]):
            points = record["points"]
            # Cumulative utilization u(t) = busy/t; interval busy
            # fraction over [ta, tb] is (u_b*t_b - u_a*t_a)/(t_b - t_a).
            cells = []
            for i in range(1, len(points)):
                ta, ua = points[i - 1]
                tb, ub = points[i]
                if tb > ta:
                    cells.append((tb, max(0.0, (ub * tb - ua * ta)
                                          / (tb - ta))))
            spark, _low, _high = _sparkline(cells, t0, t1, columns)
            link = record["name"][len("fabric."):-len(".utilization")]
            lines.append(f"  {link:<8} [{spark}]")

    # -- latency digests --
    if digests:
        lines.append("")
        lines.append("-- latency digests (cycles) --")
        name_width = max(len(d["name"]) for d in digests)
        lines.append(f"  {'series':<{name_width}}  {'count':>7}  "
                     f"{'p50':>9}  {'p99':>9}  {'p999':>9}  {'max':>9}")
        for digest in sorted(digests, key=lambda d: d["name"]):
            lines.append(
                f"  {digest['name']:<{name_width}}  "
                f"{digest['count']:>7.0f}  {digest['p50']:>9.0f}  "
                f"{digest['p99']:>9.0f}  {digest['p999']:>9.0f}  "
                f"{digest['max']:>9.0f}"
            )

    # -- alert log --
    lines.append("")
    lines.append(f"-- alert log ({len(alerts)} transitions) --")
    if alerts:
        for alert in alerts:
            lines.append(
                f"  t={alert['t']:>12.0f}  {alert['state'].upper():<8} "
                f"{alert['rule']}  value={_fmt(alert['value'])} "
                f"threshold={_fmt(alert['threshold'])} "
                f"(breaching since t={alert['since']:.0f})"
            )
    else:
        lines.append("  (none fired)")

    # -- annotations --
    if notes:
        lines.append("")
        lines.append(f"-- timeline annotations ({len(notes)}) --")
        for note in sorted(notes, key=lambda n: n["t"]):
            attrs = " ".join(
                f"{key}={value}" for key, value in
                sorted(note.get("attrs", {}).items())
            )
            lines.append(f"  t={note['t']:>12.0f}  {note['kind']}"
                         + (f"  {attrs}" if attrs else ""))
    return "\n".join(lines)


# -- JSONL validation ------------------------------------------------------

def validate_metrics_jsonl(path: str) -> List[str]:
    """Structural checks over an exported metrics JSONL file.

    * line 1 is a ``meta`` record with cadence/clock/ticks;
    * every ``series`` has strictly finite numeric points with
      non-decreasing timestamps and a non-negative ``dropped``;
    * ``alert`` records carry rule/state/value/threshold/since and a
      known state;
    * ``annotation`` records carry a kind and numeric t.
    """
    problems: List[str] = []
    try:
        with io.open(path, "r", encoding="utf-8") as source:
            lines = source.read().splitlines()
    except OSError as error:
        return [f"cannot read {path}: {error}"]
    if not lines:
        return ["empty metrics file"]
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError as error:
            problems.append(f"line {index + 1}: not JSON: {error}")
    if not records:
        return problems or ["no records"]
    if records[0].get("type") != "meta":
        problems.append("first record is not a 'meta' record")
    for index, record in enumerate(records):
        kind = record.get("type")
        if kind == "series":
            name = record.get("name", f"line {index + 1}")
            last_t = -math.inf
            for point in record.get("points", ()):
                if (not isinstance(point, list) or len(point) != 2
                        or not all(isinstance(x, (int, float))
                                   for x in point)):
                    problems.append(f"series {name}: bad point {point!r}")
                    continue
                t, value = point
                if not (math.isfinite(t) and math.isfinite(value)):
                    problems.append(f"series {name}: non-finite point "
                                    f"({t}, {value})")
                if t < last_t:
                    problems.append(
                        f"series {name}: timestamps not monotone "
                        f"({t} after {last_t})"
                    )
                last_t = t
            if record.get("dropped", 0) < 0:
                problems.append(f"series {name}: negative dropped count")
        elif kind == "alert":
            for field_name in ("t", "rule", "state", "value", "threshold",
                               "since"):
                if field_name not in record:
                    problems.append(
                        f"alert at line {index + 1}: missing {field_name!r}"
                    )
            if record.get("state") not in ("firing", "resolved"):
                problems.append(
                    f"alert at line {index + 1}: unknown state "
                    f"{record.get('state')!r}"
                )
        elif kind == "annotation":
            if "kind" not in record:
                problems.append(f"annotation at line {index + 1}: no kind")
            if not isinstance(record.get("t"), (int, float)):
                problems.append(
                    f"annotation at line {index + 1}: non-numeric t"
                )
        elif kind not in ("meta", "digest"):
            problems.append(f"line {index + 1}: unknown record type "
                            f"{kind!r}")
    return problems


# -- CLI -------------------------------------------------------------------

def _load_records(path: str) -> List[Dict[str, Any]]:
    with io.open(path, "r", encoding="utf-8") as source:
        return [json.loads(line) for line in source.read().splitlines()
                if line.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    usage = ("usage: python -m repro.obs.metrics "
             "{report|validate} metrics.jsonl [more.jsonl ...]")
    if len(argv) < 2 or argv[0] not in ("report", "validate"):
        print(usage, file=sys.stderr)
        return 2
    command, paths = argv[0], argv[1:]
    status = 0
    for path in paths:
        problems = validate_metrics_jsonl(path)
        if problems:
            status = 1
            for problem in problems:
                print(f"INVALID: {path}: {problem}")
            continue
        if command == "validate":
            print(f"{path}: valid metrics export")
        else:
            if len(paths) > 1:
                print(f"\n##### {path} #####")
            print(render_report(_load_records(path)))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
