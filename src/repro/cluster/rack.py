"""Multi-DPU clusters and the rack-scale provisioning math (§1, §2).

Two pieces:

* :class:`Cluster` — N fully-simulated DPUs on one shared event
  engine, connected by an :class:`~repro.cluster.network.IBFabric`
  through their A9 endpoints. Used by the scale-out algorithms in
  :mod:`repro.cluster.scaleout` (the paper ran its applications on
  500+ DPU clusters; we simulate a handful of DPUs faithfully and
  scale analytically from there).

* :class:`RackSpec` — the paper's rack arithmetic: 1440 DPUs with a
  DDR3 channel each gives >10 TB/s of aggregate memory bandwidth and
  >10 TB of capacity inside a 20 kW provisioned budget (~3 W per
  memory channel, <7 W per processor after networking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.config import DPU_40NM, DPUConfig
from ..core.dpu import DPU
from ..faults import FaultInjector, FaultPlan
from ..obs import NULL_HUB, CounterRegistry, MetricsHub, Tracer
from ..sim import Engine
from .network import FabricConfig, IBFabric
from .recovery import RecoveryConfig, RecoveryManager

__all__ = ["Cluster", "RackSpec", "PAPER_RACK"]


class Cluster:
    """N simulated DPUs sharing one clock domain and an IB fabric."""

    def __init__(
        self,
        num_dpus: int,
        config: DPUConfig = DPU_40NM,
        fabric_config: "FabricConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
        recovery_config: "RecoveryConfig | None" = None,
    ) -> None:
        if num_dpus < 1:
            raise ValueError(f"need >= 1 DPU: {num_dpus}")
        if fabric_config is None:
            fabric_config = FabricConfig()
        self.engine = Engine()
        self.config = config
        # One shared injector: the fault trace is cluster-global and
        # deterministic across DPUs and the fabric.
        self.faults = FaultInjector(fault_plan, self.engine)
        self.dpus: List[DPU] = [
            DPU(config, engine=self.engine, faults=self.faults,
                name=f"dpu{index}")
            for index in range(num_dpus)
        ]
        self.fabric = IBFabric(
            self.engine, num_dpus, fabric_config, faults=self.faults
        )
        # If the DPUs were constructed with tracing already on (the
        # benchmark suite's --emit-trace hook patches DPU.__init__),
        # put fabric events on the same timeline.
        if self.dpus[0].trace.enabled:
            self.fabric.trace = self.dpus[0].trace
        # Optional coordinator-side admission gate for cluster jobs
        # (see repro.runtime.admission); None = pre-existing behaviour.
        self.admission = None
        # Continuous metrics: the no-op hub until enable_metrics().
        self.metrics = NULL_HUB
        # Rack-scale fault tolerance (see repro.cluster.recovery): a
        # manager is kept only when armed (the plan schedules chaos
        # events or a recovery config is given); without one, each job
        # runs through a fresh unarmed manager that takes only the
        # fault-free steps. Any DPU may be chaos-killed — the
        # coordinator included; the manager elects the lowest
        # surviving index as the new leader.
        recovery = RecoveryManager(self, recovery_config)
        self.recovery: "RecoveryManager | None" = (
            recovery if recovery.armed else None)
        if self.recovery is not None:
            self.recovery.install()

    @property
    def num_dpus(self) -> int:
        return len(self.dpus)

    @property
    def leader(self) -> int:
        """The DPU currently coordinating cluster jobs: DPU 0 on the
        fault-free path, the elected leader under a chaos plan."""
        return self.recovery.leader if self.recovery is not None else 0

    def set_admission(self, controller):
        """Attach an :class:`~repro.runtime.admission.AdmissionController`
        gating every ``cluster_*`` job at the coordinator."""
        self.admission = controller
        return controller

    def admit_job(self, site: str):
        """Run the admission gate on the shared engine; returns the
        ticket (``None`` with no controller attached). Raises
        :class:`~repro.runtime.admission.OverloadError` when shed."""
        if self.admission is None:
            return None
        process = self.engine.process(self.admission.acquire(site))
        return self.engine.run_until_complete(process)

    def release_job(self) -> None:
        if self.admission is not None:
            self.admission.release()

    def run(self, processes, limit_cycles: float = 10**13):
        """Drive the shared engine until every process completes."""
        gate = self.engine.all_of(list(processes))
        metrics = self.metrics
        if metrics.enabled:
            metrics.touch()
        result = self.engine.run_until_complete(gate, limit=limit_cycles)
        if metrics.enabled:
            metrics.flush()
        return result

    def launch_everywhere(
        self,
        kernel: Callable,
        args_for_dpu: Optional[Callable[[int], Sequence]] = None,
        cores: Optional[Sequence[int]] = None,
    ):
        """Spawn ``kernel(ctx, dpu_index, *extra)`` on every DPU's
        cores concurrently; returns the flat process list (not yet
        run — compose with A9 processes, then :meth:`run`)."""
        processes = []
        for index, dpu in enumerate(self.dpus):
            extra = tuple(args_for_dpu(index)) if args_for_dpu else ()
            processes.extend(
                dpu.spawn_kernels(kernel, args=(index, *extra), cores=cores)
            )
        return processes

    def enable_tracing(self, capacity: int = 1 << 16) -> Tracer:
        """One shared tracer across every DPU and the fabric.

        Each DPU gets its own process row (``pid``) via a tracer view;
        fabric spans land on the ``ib.tx[i]``/``ib.rx[i]`` tracks of
        the cluster row, so a whole shuffle is one Perfetto timeline.
        """
        tracer = Tracer(self.engine, process_name="cluster",
                        capacity=capacity)
        for index, dpu in enumerate(self.dpus):
            dpu.enable_tracing(tracer.view(pid=index + 1,
                                           process_name=dpu.name))
        self.fabric.trace = tracer
        if self.metrics.enabled:
            self.metrics.trace = tracer
        return tracer

    def enable_metrics(
        self,
        hub: Optional[MetricsHub] = None,
        cadence: float = 10_000.0,
        capacity: int = 4096,
    ) -> MetricsHub:
        """One shared metrics hub across every DPU and the fabric.

        The hub samples the merged cluster registry (``dpu<i>.*``,
        ``fabric.*``, ``recovery.*``) plus live fabric inbox occupancy
        on the shared engine clock, and is handed to every DPU so
        per-op digests (launches, jobs, admission waits) aggregate
        cluster-wide. Scheduled chaos events are annotated onto the
        timeline up front at their drawn fire cycles.
        """
        if hub is None:
            hub = MetricsHub(
                self.engine, cadence=cadence, capacity=capacity,
                clock_hz=self.config.clock_hz, trace=self.dpus[0].trace,
            )
        self.metrics = hub
        for dpu in self.dpus:
            dpu.metrics = hub
            if dpu.admission is not None:
                dpu.admission.metrics = hub
        if self.admission is not None:
            self.admission.metrics = hub
        hub.add_sampler(self._metrics_sample)
        # The chaos schedule is fixed at plan time (RecoveryManager
        # installed it during __init__), so its fire cycles are known
        # now: put them on the timeline before the run starts.
        for spec in self.faults.plan.chaos:
            hub.annotate(
                f"chaos.{spec.site}", t=spec.at_cycle,
                targets=",".join(str(t) for t in spec.targets),
                duration=spec.duration, factor=spec.factor,
            )
        return hub

    def _metrics_sample(self) -> Dict[str, float]:
        sample = self.counter_registry().snapshot()
        for endpoint, inbox in self.fabric._inboxes.items():
            sample[f"fabric.inbox{endpoint}.occupancy"] = float(len(inbox))
        return sample

    def counter_registry(self) -> CounterRegistry:
        """Merge every DPU's counter registry plus the fabric's
        counters under one dot-path namespace (``dpu<i>.*`` and
        ``fabric.*``)."""
        registry = CounterRegistry()
        for dpu in self.dpus:
            registry.merge(dpu.counter_registry())
        scope = registry.scope("fabric")
        for name, value in self.fabric.counters().items():
            scope.set(name, value)
        for endpoint in range(self.num_dpus):
            egress, ingress = self.fabric.link_utilization(endpoint)
            scope.set(f"tx{endpoint}.utilization", egress)
            scope.set(f"rx{endpoint}.utilization", ingress)
        if self.recovery is not None:
            recovery_scope = registry.scope("recovery")
            for name, value in self.recovery.stats.counters().items():
                recovery_scope.set(name, value)
        return registry

    def total_watts(self) -> float:
        return self.num_dpus * self.config.tdp_watts


@dataclass(frozen=True)
class RackSpec:
    """Provisioning arithmetic for a 42U rack of DPUs (§1, §2)."""

    num_dpus: int = 1440
    dram_gb_per_dpu: float = 8.0
    channel_gbps: float = 12.8  # DDR3-1600 peak per DPU
    dpu_watts: float = 6.0
    dram_watts_per_channel: float = 3.0
    network_watts_per_dpu: float = 4.0  # shared switch + NIC share
    rack_budget_watts: float = 20_000.0

    @property
    def aggregate_bandwidth_tbps(self) -> float:
        return self.num_dpus * self.channel_gbps / 1000.0

    @property
    def total_capacity_tb(self) -> float:
        return self.num_dpus * self.dram_gb_per_dpu / 1000.0

    @property
    def total_watts(self) -> float:
        return self.num_dpus * (
            self.dpu_watts + self.dram_watts_per_channel
            + self.network_watts_per_dpu
        )

    def within_budget(self) -> bool:
        return self.total_watts <= self.rack_budget_watts

    def seconds_to_scan(self, terabytes: float, efficiency: float = 0.73) -> float:
        """Time to scan a working set at the rack's effective rate.

        ``efficiency`` defaults to the measured DMS fraction of peak
        (~9.4 of 12.8 GB/s). The paper's design point: scan 10 TB in
        under a second.
        """
        effective_tbps = self.aggregate_bandwidth_tbps * efficiency
        return terabytes / effective_tbps


PAPER_RACK = RackSpec()
