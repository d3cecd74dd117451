"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Engine, SimulationError


def test_timeout_advances_clock():
    engine = Engine()
    done = engine.timeout(100)
    engine.run()
    assert done.triggered
    assert engine.now == 100


def test_event_succeed_delivers_value():
    engine = Engine()
    event = engine.event()
    seen = []
    event.add_callback(lambda ev: seen.append(ev.value))
    event.succeed(42)
    engine.run()
    assert seen == [42]


def test_event_double_trigger_raises():
    engine = Engine()
    event = engine.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_fail_requires_exception_instance():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")


def test_process_yields_timeouts():
    engine = Engine()

    def worker():
        yield engine.timeout(10)
        yield engine.timeout(5)
        return "done"

    process = engine.process(worker())
    value = engine.run_until_complete(process)
    assert value == "done"
    assert engine.now == 15


def test_process_yields_bare_numbers_as_timeouts():
    engine = Engine()

    def worker():
        yield 7
        yield 3

    engine.run_until_complete(engine.process(worker()))
    assert engine.now == 10


def test_process_receives_event_value():
    engine = Engine()
    event = engine.event()

    def producer():
        yield engine.timeout(5)
        event.succeed("payload")

    def consumer():
        value = yield event
        return value

    engine.process(producer())
    consumer_proc = engine.process(consumer())
    assert engine.run_until_complete(consumer_proc) == "payload"


def test_subprocess_join():
    engine = Engine()

    def child():
        yield engine.timeout(20)
        return 5

    def parent():
        value = yield engine.process(child())
        return value * 2

    assert engine.run_until_complete(engine.process(parent())) == 10


def test_process_exception_propagates_to_waiter():
    engine = Engine()

    def failing():
        yield engine.timeout(1)
        raise ValueError("boom")

    def waiter():
        try:
            yield engine.process(failing())
        except ValueError as error:
            return str(error)

    assert engine.run_until_complete(engine.process(waiter())) == "boom"


def test_unwaited_process_failure_raises_at_run():
    engine = Engine()

    def failing():
        yield engine.timeout(1)
        raise ValueError("unobserved")

    engine.process(failing())
    with pytest.raises(ValueError, match="unobserved"):
        engine.run()


def test_all_of_collects_values_in_order():
    engine = Engine()
    slow = engine.timeout(10, value="slow")
    fast = engine.timeout(1, value="fast")

    def waiter():
        values = yield engine.all_of([slow, fast])
        return values

    assert engine.run_until_complete(engine.process(waiter())) == [
        "slow", "fast",
    ]
    assert engine.now == 10


def test_any_of_returns_first():
    engine = Engine()
    slow = engine.timeout(10, value="slow")
    fast = engine.timeout(1, value="fast")

    def waiter():
        index, value = yield engine.any_of([slow, fast])
        return index, value

    assert engine.run_until_complete(engine.process(waiter())) == (1, "fast")


def test_all_of_empty_succeeds_immediately():
    engine = Engine()

    def waiter():
        values = yield engine.all_of([])
        return values

    assert engine.run_until_complete(engine.process(waiter())) == []


def test_deterministic_tie_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in ("a", "b", "c"):
        engine.timeout(5).add_callback(lambda ev, t=tag: order.append(t))
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_limit_stops_clock():
    engine = Engine()
    engine.timeout(100)
    stopped_at = engine.run(until=30)
    assert stopped_at == 30
    assert engine.now == 30


def test_run_until_before_now_is_rejected():
    """The clock never runs backwards: it used to be set to ``until``,
    leaving the timer at 150 queued in the past of a clock at 10."""
    engine = Engine()

    def sleeper():
        yield engine.timeout(50)
        yield engine.timeout(100)

    engine.process(sleeper())
    assert engine.run(until=60) == 60
    with pytest.raises(SimulationError,
                       match=r"run\(until=10\) is before the clock at t=60"):
        engine.run(until=10)
    assert engine.now == 60
    assert engine.run(until=60) == 60
    assert engine.run() == 150


def test_deadlock_detection():
    engine = Engine()
    never = engine.event()

    def stuck():
        yield never

    process = engine.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_until_complete(process)


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-1)


def test_runs_next_only_when_nothing_else_is_due_now():
    """``runs_next`` holds inside a run loop when no entry is due at
    the current instant, and not once one is, outside a loop, under a
    watchdog or after the awaited process finished."""
    from repro.sim import Watchdog

    engine = Engine()
    seen = []

    def probe(tag):
        seen.append((tag, engine.runs_next()))

    assert engine.runs_next() is False  # no run loop
    engine._schedule(5, probe, "alone")
    engine._schedule(7, probe, "tied")
    engine._schedule(7, lambda _arg: None, None)
    engine.run()
    assert seen == [("alone", True), ("tied", False)]

    seen.clear()
    engine.watchdog = Watchdog(max_events=100)
    engine._schedule(1, probe, "watched")
    engine.run()
    assert seen == [("watched", False)]

    seen.clear()
    engine.watchdog = None
    awaited = engine.event()

    def finish(_arg):
        probe("before")
        awaited.succeed()
        probe("after")

    engine._schedule(1, finish, None)
    engine.run_until_complete(awaited)
    assert seen == [("before", True), ("after", False)]
