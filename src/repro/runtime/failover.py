"""Core-failure injection and failover scheduling.

A dpCore that takes a hard fault (the ``core.dead`` site, drawn once
per core at launch) stops fetching instructions but its *hardware*
stays alive: the ATE engine still serializes remote atomics on its
DMEM, and the DMAD still walks any already-pushed lists. That is the
property failover leans on — shared state owned by a dead core stays
reachable, so the §5.4 work-stealing scheme redistributes the dead
core's work for free: chunks are claimed from a shared fetch-add
cursor, a core that never runs simply never claims, and the
survivors drain the whole queue at proportionally reduced throughput.

:func:`resilient_launch` is the entry point: it draws the survivor
set and launches the kernel only there. Kernels written against a
:class:`~repro.runtime.parallel.WorkQueue` (e.g. the HLL sketcher)
then complete with bit-identical results — graceful degradation.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from ..core.dpu import DPU, LaunchResult
from ..faults import FaultInjector

__all__ = ["surviving_cores", "resilient_launch"]


def surviving_cores(
    faults: FaultInjector, cores: Iterable[int]
) -> List[int]:
    """Draw the ``core.dead`` site once per core; return the living.

    At least one core always survives (a fully dead complex is a
    machine replacement, not a degraded launch): if every draw kills,
    the lowest-numbered core is revived.
    """
    cores = list(cores)
    survivors = [
        core
        for core in cores
        if not faults.roll("core.dead", detail=f"core {core}")
    ]
    if not survivors and cores:
        survivors = [cores[0]]
    return survivors


def resilient_launch(
    dpu: DPU,
    kernel,
    args: Sequence[Any] = (),
    cores: Optional[Iterable[int]] = None,
    limit_cycles: float = 10**13,
) -> LaunchResult:
    """Launch ``kernel`` on the cores that survive fault injection.

    With fault injection disabled this is exactly :meth:`DPU.launch`.
    The kernel must tolerate a shrunken core set — dynamic work
    claiming (WorkQueue) qualifies; static partitioning by
    ``config.num_cores`` does not.
    """
    requested = list(cores) if cores is not None else list(dpu.config.core_ids)
    survivors = surviving_cores(dpu.faults, requested)
    if len(survivors) < len(requested):
        dpu.counters.add("runtime.dead_cores", len(requested) - len(survivors))
    return dpu.launch(
        kernel,
        args=args,
        cores=survivors,
        limit_cycles=limit_cycles,
    )
