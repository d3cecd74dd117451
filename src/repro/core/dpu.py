"""The DPU SoC: dpCore complex + DMS + ATE + MBC + ARM/M0 blocks.

:class:`DPU` wires every modelled unit of the chip together (paper
Figure 3) and provides the software entry point: ``launch`` runs a
kernel — a Python generator taking a :class:`CoreContext` — on a set
of dpCores to completion, mirroring the runtime's cooperative
run-to-completion scheduling (§4).

The :class:`CoreContext` is the per-core "system utilities" layer a
dpCore program links against: cycle charging for compute, DMS
descriptor pushes and ``wfe``, ATE RPCs, mailbox access, cache
maintenance and heap allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..ate import Ate
from ..dms import Descriptor, Dmac, Dmad, Dmax, EventFile
from ..faults import FaultInjector, FaultPlan
from ..memory import (
    AddressMap,
    CacheConfig,
    DDRChannel,
    DDRMemory,
    HeapAllocator,
    MacroCacheHierarchy,
    Scratchpad,
)
from ..obs import (
    NULL_HUB,
    NULL_TRACER,
    CounterRegistry,
    MetricsHub,
    PerfReport,
    Tracer,
)
from ..sim import Engine, SimulationError
from .config import DPU_40NM, DPUConfig
from .mailbox import MailboxController
from .pmu import PowerManagementUnit
from .power import PowerModel

__all__ = ["DPU", "CoreContext", "LaunchResult"]

_HEAP_BASE = 4096  # keep address 0 unmapped-ish for easier debugging


@dataclass
class LaunchResult:
    """Outcome of one kernel launch across dpCores."""

    values: List[Any]
    start_cycle: float
    end_cycle: float
    config: DPUConfig

    @property
    def cycles(self) -> float:
        return self.end_cycle - self.start_cycle

    @property
    def seconds(self) -> float:
        return self.cycles / self.config.clock_hz

    def gbps(self, nbytes: float) -> float:
        """Throughput in GB/s for ``nbytes`` moved during the launch."""
        if self.cycles <= 0:
            return 0.0
        return nbytes / self.seconds / 1e9

    def rate_per_second(self, count: float) -> float:
        """Events per second (tuples, rows, queries...)."""
        if self.cycles <= 0:
            return 0.0
        return count / self.seconds


class DPU:
    """One Data Processing Unit SoC instance."""

    def __init__(
        self,
        config: DPUConfig = DPU_40NM,
        engine: Optional[Engine] = None,
        fault_plan: Optional[FaultPlan] = None,
        faults: Optional[FaultInjector] = None,
        name: str = "dpu0",
    ) -> None:
        self.config = config
        self.name = name
        self.engine = engine if engine is not None else Engine()
        # The chip's one counter store: every unit writes its counters,
        # ``_peak`` gauges and latency digests here, under DPU-relative
        # paths (see counter_registry()).
        self.counters = CounterRegistry()
        # Observability: NULL_TRACER until enable_tracing() swaps in a
        # live tracer (also mirrored onto every unit's .trace), and the
        # no-op metrics hub until enable_metrics() attaches a sampler.
        self.trace = NULL_TRACER
        self.metrics = NULL_HUB
        # One injector per DPU unless the caller shares one (clusters
        # pass a single injector so the fault trace is global).
        self.faults = (
            faults
            if faults is not None
            else FaultInjector(fault_plan, self.engine)
        )
        self.address_map = AddressMap(
            ddr_capacity=config.ddr_capacity, num_cores=config.num_cores
        )
        self.ddr = DDRMemory(self.address_map)
        self.ddr_channel = DDRChannel(
            self.engine,
            peak_bytes_per_cycle=config.ddr_peak_bytes_per_cycle,
            transaction_overhead_cycles=config.ddr_transaction_overhead_cycles,
            row_miss_cycles=config.ddr_row_miss_cycles,
            row_size=config.ddr_row_size,
            num_banks=config.ddr_num_banks,
            write_row_miss_factor=config.ddr_write_row_miss_factor,
            faults=self.faults,
            ecc_scrub_cycles=config.ecc_scrub_cycles,
        )
        self.scratchpads: Dict[int, Scratchpad] = {
            core: Scratchpad(core, config.dmem_size) for core in config.core_ids
        }
        self.event_files: Dict[int, EventFile] = {
            core: EventFile(self.engine, core) for core in config.core_ids
        }
        self.dmaxes = [
            Dmax(
                self.engine,
                macro,
                bytes_per_cycle=config.dmax_bytes_per_cycle,
                arbitration_cycles=config.dmax_arbitration_cycles,
            )
            for macro in range(config.num_macros)
        ]
        self.dmac = Dmac(
            self.engine,
            config,
            self.ddr,
            self.ddr_channel,
            self.scratchpads,
            self.event_files,
            self.dmaxes,
        )
        self.dmads: Dict[int, Dmad] = {
            core: Dmad(
                self.engine, core, self.dmac, self.event_files[core], config,
                faults=self.faults,
            )
            for core in config.core_ids
        }
        self.ate = Ate(
            self.engine,
            config,
            self.address_map,
            self.ddr,
            self.scratchpads,
            faults=self.faults,
        )
        self.mailbox = MailboxController(self.engine, config)
        for unit in (self.dmac, self.ate, self.mailbox, *self.dmads.values()):
            unit.counters = self.counters
        self.heap = HeapAllocator(
            base=_HEAP_BASE,
            capacity=config.ddr_capacity - _HEAP_BASE,
            num_cores=config.num_cores,
            engine=self.engine,
        )
        # Optional admission gate for launches (see set_admission).
        self.admission = None
        self.caches: List[MacroCacheHierarchy] = [
            MacroCacheHierarchy(
                core_ids=range(
                    macro * config.cores_per_macro,
                    (macro + 1) * config.cores_per_macro,
                ),
                l1d_config=CacheConfig(size=config.l1d_size),
                l2_config=CacheConfig(
                    size=config.l2_size, associativity=8, hit_cycles=12
                ),
                ddr_latency_cycles=config.ddr_latency_cycles,
                l1i_config=CacheConfig(size=config.l1i_size, associativity=2),
            )
            for macro in range(config.num_macros)
        ]
        self.pmu = PowerManagementUnit(config, engine=self.engine)
        self.power = PowerModel(config)

    # -- memory helpers ------------------------------------------------------

    def store_array(self, array: np.ndarray, core_id: int = 0) -> int:
        """Allocate DDR for ``array``, copy it in, return the address."""
        raw = np.ascontiguousarray(array).view(np.uint8).ravel()
        address = self.heap.malloc(max(len(raw), 1), core_id)
        self.ddr.write(address, raw)
        return address

    def load_array(self, address: int, count: int, dtype) -> np.ndarray:
        """Typed copy of DDR contents (e.g. to check kernel output)."""
        itemsize = np.dtype(dtype).itemsize
        return self.ddr.read(address, count * itemsize).view(dtype).copy()

    def alloc(self, nbytes: int, core_id: int = 0) -> int:
        return self.heap.malloc(nbytes, core_id)

    def free(self, address: int) -> None:
        self.heap.free(address)

    # -- kernel launch ----------------------------------------------------------

    def context(self, core_id: int,
                cores: Optional[Sequence[int]] = None) -> "CoreContext":
        """``core_id``'s context; ``cores`` is the launch's core list
        (every core when ``None``)."""
        return CoreContext(self, core_id, cores)

    def _core_list(self, cores: Optional[Iterable[int]]) -> List[int]:
        """The cores one launch runs on: every core by default. A core
        named twice would run two kernels on one DMAD and event file."""
        if cores is None:
            return list(self.config.core_ids)
        core_list = list(cores)
        seen = set()
        for core_id in core_list:
            if core_id in seen:
                raise SimulationError(
                    f"core {core_id} named more than once in one launch"
                )
            seen.add(core_id)
        return core_list

    def set_admission(self, controller) -> None:
        """Attach an :class:`~repro.runtime.admission.AdmissionController`.

        With a controller attached, every ``launch`` first passes the
        admission gate: the job queues (simulated wait), is shed with
        an ``OverloadError``, or runs at reduced fanout, per the
        controller's policy. With none attached (the default) launch
        takes exactly the ungated code path.
        """
        self.admission = controller
        if controller is not None:
            controller.trace = self.trace
            controller.metrics = self.metrics

    def launch(
        self,
        kernel: Callable,
        args: Sequence[Any] = (),
        cores: Optional[Iterable[int]] = None,
        per_core_args: Optional[Dict[int, Sequence[Any]]] = None,
        limit_cycles: float = 10**13,
    ) -> LaunchResult:
        """Run ``kernel(ctx, *args)`` on each core; collect returns.

        ``per_core_args`` overrides ``args`` for specific cores. The
        launch is complete when every core's kernel generator returns
        (cooperative run-to-completion, no preemption — §4).
        """
        core_list = self._core_list(cores)
        if self.admission is not None:
            site = f"dpu.launch:{getattr(kernel, '__name__', 'kernel')}"
            ticket = self.run_process(
                self.admission.acquire(site), limit_cycles=limit_cycles
            )
            try:
                core_list = ticket.fanout(core_list)
                return self._launch_cores(
                    kernel, args, core_list, per_core_args, limit_cycles
                )
            finally:
                self.admission.release()
        return self._launch_cores(
            kernel, args, core_list, per_core_args, limit_cycles
        )

    def _launch_cores(
        self,
        kernel: Callable,
        args: Sequence[Any],
        core_list: List[int],
        per_core_args: Optional[Dict[int, Sequence[Any]]],
        limit_cycles: float,
    ) -> LaunchResult:
        start = self.engine.now
        metrics = self.metrics
        if metrics.enabled:
            # Re-arm the periodic sampler (it goes dormant when the
            # engine queue holds nothing but sampler ticks).
            metrics.touch()
        processes = self.spawn_kernels(kernel, args, core_list, per_core_args)
        gate = self.engine.all_of(processes)
        values = self.engine.run_until_complete(gate, limit=limit_cycles)
        if metrics.enabled:
            # Final sample lands exactly on the completion cycle, so
            # interval integration reproduces LaunchResult totals.
            metrics.flush()
            metrics.observe("dpu.launch.cycles", self.engine.now - start)
        if self.trace.enabled:
            self.trace.complete_async(
                "dpu.launch", "sched", start,
                kernel=getattr(kernel, "__name__", "kernel"),
                cores=len(core_list),
            )
        return LaunchResult(
            values=values,
            start_cycle=start,
            end_cycle=self.engine.now,
            config=self.config,
        )

    def spawn_job(
        self,
        kernel: Callable,
        args: Sequence[Any] = (),
        cores: Optional[Iterable[int]] = None,
        per_core_args: Optional[Dict[int, Sequence[Any]]] = None,
        site: Optional[str] = None,
    ):
        """Start one admission-gated multi-core job WITHOUT driving
        the engine; returns a single process yielding the per-core
        values. For coordinators running many concurrent jobs on a
        shared engine — the admission gate (if attached) queues,
        sheds, or degrades each job inside the simulation."""
        core_list = self._core_list(cores)
        label = site or f"dpu.job:{getattr(kernel, '__name__', 'kernel')}"

        def job():
            began = self.engine.now
            if self.metrics.enabled:
                self.metrics.touch()
            ticket = None
            job_cores = core_list
            if self.admission is not None:
                ticket = yield from self.admission.acquire(label)
                job_cores = ticket.fanout(job_cores)
            try:
                processes = self.spawn_kernels(
                    kernel, args, job_cores, per_core_args
                )
                values = yield self.engine.all_of(processes)
            finally:
                if ticket is not None:
                    self.admission.release()
                if self.metrics.enabled:
                    self.metrics.observe(
                        "dpu.job.cycles", self.engine.now - began
                    )
                if self.trace.enabled:
                    self.trace.complete_async(
                        "dpu.job", "sched", began, site=label,
                        cores=len(job_cores),
                    )
            return values

        return self.engine.process(job(), name=label)

    def spawn_kernels(
        self,
        kernel: Callable,
        args: Sequence[Any] = (),
        cores: Optional[Iterable[int]] = None,
        per_core_args: Optional[Dict[int, Sequence[Any]]] = None,
    ) -> List[Any]:
        """Start kernels WITHOUT driving the engine.

        For multi-DPU simulations sharing one engine: spawn kernels on
        every DPU first, then run the engine once (e.g. via
        ``engine.run_until_complete(engine.all_of(processes))``). Each
        kernel's ``ctx.cores`` is the tuple of cores it was started on.
        """
        core_list = self._core_list(cores)
        launch_cores = tuple(core_list)
        processes = []
        for core_id in core_list:
            context = self.context(core_id, launch_cores)
            kernel_args = (
                per_core_args[core_id]
                if per_core_args is not None and core_id in per_core_args
                else args
            )
            processes.append(
                self.engine.process(
                    kernel(context, *kernel_args), name=f"core{core_id}"
                )
            )
        return processes

    def run_process(self, generator, limit_cycles: float = 10**13) -> Any:
        """Run one bare process to completion (e.g. an A9-side driver)."""
        process = self.engine.process(generator)
        return self.engine.run_until_complete(process, limit=limit_cycles)

    # -- observability ------------------------------------------------------------

    def _traced_units(self) -> List[Any]:
        units: List[Any] = [self.dmac, self.ate, self.ddr_channel, self.pmu]
        units.extend(self.dmads.values())
        if self.admission is not None:
            units.append(self.admission)
        return units

    def enable_tracing(
        self,
        tracer: Optional[Tracer] = None,
        capacity: int = 1 << 16,
    ) -> Tracer:
        """Attach a live tracer to every unit of the chip.

        Pass an existing :class:`~repro.obs.Tracer` (or a ``view`` of
        one) to aggregate several DPUs into one cluster trace;
        otherwise a fresh tracer/ring buffer is created. Tracing never
        schedules simulation events, so enabling it does not perturb
        timing — and :meth:`disable_tracing` restores the strictly
        zero-overhead null tracer.
        """
        if tracer is None:
            tracer = Tracer(self.engine, process_name=self.name,
                            capacity=capacity)
        self.trace = tracer
        self.engine.tracer = tracer
        for unit in self._traced_units():
            unit.trace = tracer
        if self.metrics.enabled:
            # Counter-track samples merge into the same Chrome trace.
            self.metrics.trace = tracer
        return tracer

    def disable_tracing(self) -> None:
        """Swap the no-op tracer back in everywhere."""
        self.trace = NULL_TRACER
        self.engine.tracer = None
        for unit in self._traced_units():
            unit.trace = NULL_TRACER
        if self.metrics.enabled:
            self.metrics.trace = NULL_TRACER

    def enable_metrics(
        self,
        hub: Optional[MetricsHub] = None,
        cadence: float = 10_000.0,
        capacity: int = 4096,
    ) -> MetricsHub:
        """Attach a continuous-metrics hub sampling this DPU.

        The hub registers a periodic sampler on the engine clock that
        snapshots the full counter registry (plus live DMAD channel
        occupancy and admission gate depth) into ring-buffered time
        series. Sampler ticks are pure host-side reads — they never
        mutate modelled state or wake a process — so cycle counts are
        identical to a metrics-off run (pinned, like the tracer). Pass
        an existing cluster hub to aggregate several DPUs.
        """
        if hub is None:
            hub = MetricsHub(
                self.engine, cadence=cadence, capacity=capacity,
                clock_hz=self.config.clock_hz, trace=self.trace,
            )
        self.metrics = hub
        hub.add_sampler(self._metrics_sample)
        if self.admission is not None:
            self.admission.metrics = hub
        return hub

    def disable_metrics(self) -> None:
        """Swap the no-op hub back in (strictly zero overhead)."""
        self.metrics = NULL_HUB
        if self.admission is not None:
            self.admission.metrics = NULL_HUB

    def _metrics_sample(self) -> Dict[str, float]:
        """One sampler tick: the registry, plus gauges the registry
        does not carry (live DMAD occupancy, admission gate depth)."""
        sample = self.counter_registry().snapshot()
        prefix = self.name
        for core_id, dmad in self.dmads.items():
            sample[f"{prefix}.dmad{core_id}.occupancy"] = float(
                sum(dmad.occupancy(channel)
                    for channel in range(dmad.NUM_CHANNELS))
            )
        admission = self.admission
        if admission is not None:
            occupancy = admission.occupancy()
            scope = f"{prefix}.{admission.name}"
            sample[f"{scope}.running"] = float(occupancy["running"])
            sample[f"{scope}.queued"] = float(occupancy["queued"])
        return sample

    def counter_registry(self) -> CounterRegistry:
        """Every counter, gauge and latency digest of this DPU under
        ``<name>.<unit>.<counter>`` paths (see :meth:`export_counters`)."""
        registry = CounterRegistry()
        self.export_counters(registry)
        return registry

    def export_counters(self, registry: CounterRegistry) -> None:
        """Write this DPU's counters into ``registry`` under
        ``<name>.``: the units' store, an attached admission
        controller's counters under ``<name>.<controller name>.``, and
        the live DDR, DMAX, PMU and heap meters."""
        registry.include(self.name, self.counters)
        if self.admission is not None:
            registry.include(f"{self.name}.{self.admission.name}",
                             self.admission.counters)
        prefix = f"{self.name}."
        values = registry.values
        values[prefix + "engine.now"] = float(self.engine.now)
        channel = self.ddr_channel
        values[prefix + "ddr.bytes_served"] = float(channel.bytes_served)
        values[prefix + "ddr.busy_cycles"] = float(channel.server.busy_cycles)
        values[prefix + "ddr.row_misses"] = float(channel.row_misses)
        for index, dmax in enumerate(self.dmaxes):
            values[f"{prefix}dmax{index}.bytes_served"] = float(
                dmax.server.bytes_served)
            values[f"{prefix}dmax{index}.busy_cycles"] = float(
                dmax.server.busy_cycles)
        for path, cycles in self.pmu.residency_counters().items():
            values[f"{prefix}pmu.{path}"] = float(cycles)
        heap = self.heap
        values[prefix + "heap.live_bytes"] = float(heap.live_bytes())
        values[prefix + "heap.peak_live_bytes"] = float(heap.peak_live_bytes)
        values[prefix + "heap.free_bytes"] = float(
            heap.global_heap.free_bytes())

    def perf_report(self, elapsed_cycles: Optional[float] = None) -> PerfReport:
        """Utilization + throughput + latency histograms, derived
        purely from the counter registry.

        ``elapsed_cycles`` defaults to the whole run (``engine.now``),
        which for a single launch from t=0 makes the report's DMS GB/s
        equal ``LaunchResult.gbps`` exactly (same arithmetic).
        """
        elapsed = self.engine.now if elapsed_cycles is None else elapsed_cycles
        utilization = {"ddr": self.ddr_channel.utilization()}
        for index, dmax in enumerate(self.dmaxes):
            utilization[f"dmax{index}"] = dmax.server.utilization()
        return PerfReport(
            self.counter_registry(),
            elapsed_cycles=elapsed,
            clock_hz=self.config.clock_hz,
            name=self.name,
            utilization=utilization,
        )

    # -- reporting ----------------------------------------------------------------

    def seconds(self, cycles: float) -> float:
        return cycles / self.config.clock_hz

    def gbps(self, nbytes: float, cycles: float) -> float:
        if cycles <= 0:
            return 0.0
        return nbytes / self.seconds(cycles) / 1e9

    def perf_per_watt(self, throughput: float) -> float:
        return self.power.perf_per_watt(throughput)


class CoreContext:
    """Software's view of one dpCore (the runtime utility layer).

    ``cores`` is the tuple of cores the kernel's launch runs on, in
    launch order: every core by default, fewer when the launch names
    them or an admission controller degrades its fanout. A kernel that
    splits work across its launch reads it instead of the DPU's
    ``core_ids``.
    """

    def __init__(self, dpu: DPU, core_id: int,
                 cores: Optional[Sequence[int]] = None) -> None:
        if core_id not in dpu.scratchpads:
            raise SimulationError(f"no such core {core_id}")
        self.dpu = dpu
        self.core_id = core_id
        self.cores = dpu.config.core_ids if cores is None else tuple(cores)
        self.engine = dpu.engine
        self.config = dpu.config
        self._unit = f"core{core_id}"
        self.dmem = dpu.scratchpads[core_id]
        self.events = dpu.event_files[core_id]
        self.dmad = dpu.dmads[core_id]
        self.ate = dpu.ate
        self.macro = dpu.config.macro_of(core_id)

    # -- compute ------------------------------------------------------------

    def compute(self, cycles: float):
        """Charge ``cycles`` of dpCore execution time.

        Software-RPC interrupt work that arrived since the last charge
        (ATE "interrupt debt") is drained into this charge, modelling
        handler execution stealing cycles from the application thread.
        DMAD push backpressure (stall debt from pushes into a full
        descriptor ring) is drained the same way.
        """
        debt = self.ate.interrupt_debt.get(self.core_id, 0.0)
        if debt:
            self.ate.interrupt_debt[self.core_id] = 0.0
            cycles += debt
        stall = self.dmad.push_stall_debt
        if stall:
            self.dmad.push_stall_debt = 0.0
            cycles += stall
        if cycles > 0:
            trace = self.dpu.trace
            if trace.enabled:
                with trace.span("core.compute", unit=self._unit,
                                cycles=cycles, interrupt_debt=debt,
                                stall_debt=stall):
                    yield self.engine.timeout(cycles)
            else:
                yield self.engine.timeout(cycles)

    # -- DMS ---------------------------------------------------------------------

    def push(self, descriptor: Descriptor, channel: int = 0) -> None:
        """Issue a descriptor to this core's DMAD (the push instr)."""
        self.dmad.push(descriptor, channel)

    def wfe(self, event_id: int):
        """Wait-For-Event: block until DMS event ``event_id`` is set.

        Any outstanding DMAD push stall (backpressure from a full
        descriptor ring) is paid before the wait begins — the core
        cannot reach the wfe until its stalled pushes retired.
        """
        trace = self.dpu.trace
        if not trace.enabled:
            stall = self.dmad.push_stall_debt
            if stall:
                self.dmad.push_stall_debt = 0.0
                yield self.engine.timeout(stall)
            yield self.events.wait(event_id)
            return
        with trace.span("core.wfe", unit=self._unit, event=event_id):
            stall = self.dmad.push_stall_debt
            if stall:
                self.dmad.push_stall_debt = 0.0
                yield self.engine.timeout(stall)
            yield self.events.wait(event_id)

    def clear_event(self, event_id: int) -> None:
        self.events.clear(event_id)

    def set_event(self, event_id: int) -> None:
        self.events.set(event_id)

    # -- ATE -----------------------------------------------------------------------

    def remote_load(self, owner: int, address: int):
        return self.ate.remote_load(self.core_id, owner, address)

    def remote_store(self, owner: int, address: int, value: int):
        return self.ate.remote_store(self.core_id, owner, address, value)

    def posted_store(self, owner: int, address: int, value: int):
        """Fire-and-forget remote store (no reply stall)."""
        return self.ate.posted_store(self.core_id, owner, address, value)

    def fetch_add(self, owner: int, address: int, delta: int):
        return self.ate.fetch_add(self.core_id, owner, address, delta)

    def compare_swap(self, owner: int, address: int, expected: int, desired: int):
        return self.ate.compare_swap(self.core_id, owner, address, expected, desired)

    def software_rpc(self, owner: int, handler: str, args: Any = None):
        return self.ate.software_rpc(self.core_id, owner, handler, args)

    def install_handler(self, name: str, handler: Callable) -> None:
        self.ate.install_handler(self.core_id, name, handler)

    def dmem_address(self, offset: int) -> int:
        """Physical address of a DMEM offset (for remote ATE access)."""
        return self.dpu.address_map.dmem_address(self.core_id, offset)

    # -- mailbox --------------------------------------------------------------------

    def mbox_send(self, dst: int, payload: Any):
        return self.dpu.mailbox.send(self.core_id, dst, payload)

    def mbox_receive(self):
        return self.dpu.mailbox.receive(self.core_id)

    # -- cached path ------------------------------------------------------------------

    def cached_access(self, address: int, write: bool = False):
        """Access DDR through the L1/L2 hierarchy; charges latency."""
        hierarchy = self.dpu.caches[self.macro]
        cycles = hierarchy.access(self.core_id, address, write)
        yield self.engine.timeout(cycles)

    def cache_flush(self, address: int, length: int):
        hierarchy = self.dpu.caches[self.macro]
        yield self.engine.timeout(hierarchy.flush(self.core_id, address, length))

    def cache_invalidate(self, address: int, length: int):
        hierarchy = self.dpu.caches[self.macro]
        yield self.engine.timeout(
            hierarchy.invalidate(self.core_id, address, length)
        )

    # -- heap -------------------------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        return self.dpu.heap.malloc(nbytes, self.core_id)

    def free(self, address: int) -> None:
        self.dpu.heap.free(address)
