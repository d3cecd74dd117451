"""The one launch body, driven two ways.

``DPU.launch`` drives ``DPU.launch_steps`` synchronously; a
coordinator sharing one engine runs the same generator as a process.
Each case below runs on fresh DPUs under both drivers and must give
the same launch results, the same DPU counters and the same admission
decisions, ungated and under each admission policy.
"""

import numpy as np
import pytest

from repro.apps.streaming import stream_columns
from repro.core.dpu import DPU
from repro.runtime.admission import AdmissionController, OverloadError


def _sync(dpu, kernel, args, cores):
    return dpu.launch(kernel, args=args, cores=cores)


def _process(dpu, kernel, args, cores):
    engine = dpu.engine
    return engine.run_until_complete(
        engine.process(dpu.launch_steps(kernel, args, cores)))


DRIVERS = {"launch": _sync, "process": _process}


def _canonical(dpu):
    """The pinned 2896.0-cycle kernel (tests/test_admission.py)."""
    rows = 2048
    addr = dpu.store_array(np.arange(rows, dtype=np.uint64))
    address = dpu.address_map.dmem_address(2, 0)

    def kernel(ctx):
        yield from stream_columns(
            ctx, [(addr, 8)], rows, 512, lambda *a: 8, dmem_base=64
        )
        for _ in range(4):
            yield from ctx.fetch_add(2, address, 1)

    return kernel, (), [0, 1]


def _columns():
    rng = np.random.default_rng(7)
    return [rng.integers(0, 1000, 6000).astype(np.int32)
            for _ in range(3)]


def _column_sums(dpu):
    """Four cores stream three columns, each core its share of the
    launch's rows (``ctx.cores``), and return their partial sums."""
    columns = _columns()
    rows = len(columns[0])
    refs = [(dpu.store_array(column), 4) for column in columns]

    def column_sums(ctx, refs):
        share = -(-rows // len(ctx.cores))
        first = ctx.cores.index(ctx.core_id) * share
        count = min(rows, first + share) - first
        totals = [0] * len(refs)

        def process(_tile, lo, hi, arrays):
            for index, array in enumerate(arrays):
                totals[index] += int(array[: hi - lo].sum())
            return 2 * (hi - lo)

        yield from stream_columns(
            ctx, [(addr + 4 * first, width) for addr, width in refs],
            count, 256, process)
        return totals

    return column_sums, (refs,), [0, 1, 2, 3]


KERNELS = {"canonical": _canonical, "column_sums": _column_sums}


def _hog(dpu, controller):
    """Take one admission slot outside any launch."""
    engine = dpu.engine
    engine.run_until_complete(engine.process(controller.acquire("hog")))


def _run_case(driver, kernel_case, policy):
    """Three launches of one kernel on a fresh DPU, with the policy's
    pressure applied before the second; returns each launch's outcome,
    the DPU's registry and the controller's counters."""
    dpu = DPU()
    kernel, args, cores = KERNELS[kernel_case](dpu)
    controller = None
    if policy == "queue":
        # One token per 10,000 cycles: the second launch waits for it.
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         rate_per_kcycle=0.1, burst=1.0,
                                         policy="queue")
    elif policy is not None:
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         policy=policy)
    dpu.set_admission(controller)
    launch = DRIVERS[driver]
    outcomes = []
    for step in range(3):
        hogged = step == 1 and policy in ("shed", "degrade")
        if hogged:
            _hog(dpu, controller)
        try:
            result = launch(dpu, kernel, args, cores)
        except OverloadError as error:
            outcomes.append(("shed", error.site, error.sim_time))
        else:
            outcomes.append((result.values, result.start_cycle,
                             result.end_cycle))
        if hogged:
            controller.release()
    counters = None
    if controller is not None:
        counters = controller.counters.to_dict()
        assert controller.limiter.running == 0
    return outcomes, dpu.counter_registry().to_dict(), counters


@pytest.mark.parametrize("policy", [None, "queue", "shed", "degrade"])
@pytest.mark.parametrize("kernel_case", sorted(KERNELS))
def test_both_drivers_give_the_same_launches(kernel_case, policy):
    synchronous = _run_case("launch", kernel_case, policy)
    as_process = _run_case("process", kernel_case, policy)
    assert as_process == synchronous
    outcomes = synchronous[0]
    launched = [outcome for outcome in outcomes if outcome[0] != "shed"]
    if kernel_case == "canonical":
        _values, start, end = launched[0]
        assert end - start == 2896.0  # the pin, on a fresh DPU
    if kernel_case == "column_sums":
        expected = [int(column.sum()) for column in _columns()]
        for values, _start, _end in launched:
            assert [sum(column) for column in zip(*values)] == expected
    widths = [len(values) for values, _start, _end in launched]
    if policy == "queue":
        assert outcomes[1][1] == 10_000.0  # waited for the token
    if policy == "shed":
        assert outcomes[1][0] == "shed"
        assert outcomes[1][1].startswith("dpu.launch:")
        assert len(launched) == 2
    if policy == "degrade":
        assert widths[1] == widths[0] // 2  # the hog made it degrade
    else:
        assert len(set(widths)) == 1


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_a_failing_kernel_releases_its_slot(driver):
    dpu = DPU()
    controller = AdmissionController(dpu.engine, max_concurrent=1,
                                     policy="queue")
    dpu.set_admission(controller)

    def failing(ctx):
        yield from ctx.compute(10 * (ctx.core_id + 1))
        if ctx.core_id == 1:
            raise ValueError("kernel fault")
        return ctx.core_id

    with pytest.raises(ValueError, match="kernel fault"):
        DRIVERS[driver](dpu, failing, (), [0, 1])
    assert controller.limiter.running == 0


def test_concurrent_launches_share_one_queue_slot():
    """The slot is held until the kernels finish: the second of two
    launches started together starts when the first ends."""
    dpu = DPU()
    controller = AdmissionController(dpu.engine, max_concurrent=1,
                                     policy="queue")
    dpu.set_admission(controller)

    def tiny(ctx):
        yield from ctx.compute(50)
        return ctx.core_id

    engine = dpu.engine
    launches = [engine.process(dpu.launch_steps(tiny, cores=[core]))
                for core in (0, 1)]
    first, second = engine.run_until_complete(engine.all_of(launches))
    assert (first.values, first.start_cycle, first.end_cycle) == (
        [0], 0.0, 50.0)
    assert (second.values, second.start_cycle, second.end_cycle) == (
        [1], 50.0, 100.0)
    assert controller.limiter.running == 0
    assert controller.counters.get("admitted") == 2
