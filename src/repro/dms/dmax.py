"""DMAX: the per-macro crossbar between the DMAC and DMEMs.

Each of the 4 dpCore macros has one DMAX complex (paper §3.2) that
arbitrates its 8 dpCores' descriptor traffic into the central DMAC
and carries transferred data into/out of their DMEMs. We model it as
a bandwidth server at the AXI data-path rate (128-bit = 16 B/cycle)
plus a small arbitration latency. Because there are four DMAXes but
one DDR channel, the crossbars are never the system bottleneck for
streaming — exactly the paper's design point — but they do bound how
fast the partition store engine can fan rows out to one macro.
"""

from __future__ import annotations

from ..sim import BandwidthServer, Engine, SimEvent

__all__ = ["Dmax"]


class Dmax:
    """One macro's crossbar."""

    def __init__(
        self,
        engine: Engine,
        macro_id: int,
        bytes_per_cycle: float = 16.0,
        arbitration_cycles: float = 4.0,
    ) -> None:
        self.engine = engine
        self.macro_id = macro_id
        self.server = BandwidthServer(
            engine,
            bytes_per_cycle,
            overhead_cycles=arbitration_cycles,
            name=f"dmax{macro_id}",
        )

    def transfer(self, nbytes: int) -> SimEvent:
        """Move ``nbytes`` across the crossbar; completes when done."""
        if nbytes <= 0:
            return self.engine.timeout(0)
        return self.server.transfer(nbytes)

    def book(self, nbytes: int) -> float:
        """Book a crossbar transfer; returns the time it completes."""
        if nbytes <= 0:
            return self.engine.now
        return self.server.book(nbytes)

    def utilization(self) -> float:
        return self.server.utilization()

    @property
    def bytes_served(self) -> int:
        return self.server.bytes_served
