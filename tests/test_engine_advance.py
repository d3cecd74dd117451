"""``Engine.advance`` moves the clock exactly as a sleeping process did.

The serving frontend used to let time pass by running a process that
sleeps ``cycles`` to completion; ``advance`` sets the clock directly
when nothing is queued at or before the target instant, and otherwise
runs that sleeper. ``sleeper_advance`` below is the old code, kept as
the reference.
"""

import pytest

from repro.apps.sql import Table, load_query, tpch_catalog
from repro.cluster import Cluster
from repro.serve import OpenLoopWorkload, ServingFrontend
from repro.sim import Engine, Watchdog
from repro.workloads.tpch import generate_tpch


def sleeper_advance(engine, cycles):
    """The reference: run a process sleeping ``cycles`` to completion."""
    if cycles <= 0:
        return

    def waiter():
        yield engine.timeout(cycles)

    engine.run_until_complete(engine.process(waiter()))


def _scenario(advance, queued_at, watchdog=False):
    """Advance 50 cycles from t=100 with timers queued at ``queued_at``,
    then start more work tying with them; returns the clock right after
    the advance, every dispatch as (time, name), and the processes the
    advance registered."""
    engine = Engine()
    if watchdog:
        engine.watchdog = Watchdog(max_events=10_000)
    log = []

    def worker(name, delay, then=0):
        yield engine.timeout(delay)
        log.append((engine.now, name))
        if then:
            yield engine.timeout(then)
            log.append((engine.now, name + "'"))

    engine.process(worker("setup", 100))
    engine.run()
    for index, when in enumerate(queued_at):
        engine.process(worker(f"queued{index}", when - engine.now, then=30))
    engine.run(until=100)
    processes = len(engine._processes)
    advance(engine, 50)
    after = engine.now
    registered = len(engine._processes) - processes
    log.append((after, "advanced"))
    for name in ("late0", "late1"):
        engine.process(worker(name, 180 - engine.now))
    engine.run()
    events = engine.watchdog.events_dispatched if watchdog else None
    return after, log, registered, events


QUEUE_STATES = {
    "empty": (),
    "head_after_target": (180, 200),
    "head_at_target": (150, 180),
    "head_before_target": (120, 180),
}


class TestAdvanceMatchesSleeper:
    @pytest.mark.parametrize("state", sorted(QUEUE_STATES))
    def test_same_clock_and_dispatch_order(self, state):
        queued_at = QUEUE_STATES[state]
        new = _scenario(Engine.advance, queued_at)
        reference = _scenario(sleeper_advance, queued_at)
        assert new[0] == reference[0] == 150
        assert new[1] == reference[1]

    @pytest.mark.parametrize("state, shortcut", [
        ("empty", True), ("head_after_target", True),
        ("head_at_target", False), ("head_before_target", False),
    ])
    def test_shortcut_only_when_nothing_is_due(self, state, shortcut):
        _after, _log, registered, _events = _scenario(
            Engine.advance, QUEUE_STATES[state])
        assert registered == (0 if shortcut else 1)

    @pytest.mark.parametrize("state", sorted(QUEUE_STATES))
    def test_watchdog_counts_the_sleeper(self, state):
        queued_at = QUEUE_STATES[state]
        new = _scenario(Engine.advance, queued_at, watchdog=True)
        reference = _scenario(sleeper_advance, queued_at, watchdog=True)
        assert new[2] == 1
        assert new[1:] == reference[1:]

    def test_non_positive_cycles_do_nothing(self):
        engine = Engine()
        engine.advance(0)
        engine.advance(-5)
        assert engine.now == 0 and engine._queue == []


def test_serving_records_match_the_sleeper(monkeypatch):
    data = generate_tpch(scale=0.002, seed=11)
    catalog = tpch_catalog(data)
    names = ["q1", "q6", "q12", "q14"]
    texts = {name: load_query(name) for name in names}
    table = data.tables["lineitem"]
    total = len(next(iter(table.values())))
    shards = [
        Table(f"lineitem_shard{i}",
              {column: values[total * i // 2:total * (i + 1) // 2]
               for column, values in table.items()})
        for i in range(2)
    ]
    tenants = {"acme": "gold", "beta": "silver", "corp": "bronze"}
    requests = OpenLoopWorkload(tenants, names, seed=7).generate(
        60, mean_interarrival_cycles=5_000.0)

    def serve():
        frontend = ServingFrontend(Cluster(2), catalog, texts,
                                   {"lineitem": shards}, tenants=tenants)
        report = frontend.run(requests)
        return repr(report.records), report.counters

    new = serve()
    monkeypatch.setattr(
        ServingFrontend, "_advance",
        lambda self, cycles: sleeper_advance(self.cluster.engine, cycles))
    reference = serve()
    assert new == reference
    assert new[1]["cache_hits"] > 0
