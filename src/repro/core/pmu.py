"""M0 power-management unit (paper §2.4).

The Cortex-M0 manages dpCore power modes — four states per the paper
— and can power-gate whole dpCore macros. We model the four states
with per-state dynamic/leakage scale factors and track per-macro
state so the power model can report effective wattage for partially
gated configurations (used by the §2.5 provisioning analysis and the
power ablation bench).

State changes are observable: each transition stamps a trace instant
(when a tracer is attached) and accrues per-macro, per-state
*residency cycles* against the simulation clock, surfaced by
:meth:`residency_counters` as ``macro<N>.active_cycles`` /
``idle_cycles`` / ... — so the power ablation bench can attribute
wattage to how long each macro actually sat in each state instead of
only seeing the final configuration.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..obs import NULL_TRACER
from .config import DPUConfig

__all__ = ["PowerState", "PowerManagementUnit"]


class PowerState(enum.Enum):
    """The four dpCore power states, most to least power-hungry."""

    ACTIVE = "active"  # full clock
    IDLE = "idle"  # clock-gated, state retained
    RETENTION = "retention"  # voltage dropped to retention level
    OFF = "off"  # macro power-gated

    @property
    def dynamic_factor(self) -> float:
        return {"active": 1.0, "idle": 0.08, "retention": 0.0, "off": 0.0}[
            self.value
        ]

    @property
    def leakage_factor(self) -> float:
        return {"active": 1.0, "idle": 1.0, "retention": 0.25, "off": 0.0}[
            self.value
        ]


class PowerManagementUnit:
    """Per-macro power state registry (the M0's job).

    Without an ``engine`` the unit is purely a state registry (all
    residency reads as time zero); with one, every transition is
    stamped against the simulation clock.
    """

    def __init__(self, config: DPUConfig, engine=None) -> None:
        self.config = config
        self.engine = engine
        # Observability hook; DPU.enable_tracing swaps in a live tracer.
        self.trace = NULL_TRACER
        self.macro_states: Dict[int, PowerState] = {
            macro: PowerState.ACTIVE for macro in range(config.num_macros)
        }
        now = self._now()
        self._state_since: Dict[int, float] = {
            macro: now for macro in self.macro_states
        }
        self._residency: Dict[int, Dict[str, float]] = {
            macro: {} for macro in self.macro_states
        }
        self.transitions = 0

    def _now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    def set_macro_state(self, macro: int, state: PowerState) -> None:
        if macro not in self.macro_states:
            raise ValueError(
                f"macro {macro} outside 0..{self.config.num_macros - 1}"
            )
        previous = self.macro_states[macro]
        if state is previous:
            return
        now = self._now()
        elapsed = now - self._state_since[macro]
        if elapsed > 0:
            bucket = self._residency[macro]
            bucket[previous.value] = bucket.get(previous.value, 0.0) + elapsed
        self._state_since[macro] = now
        self.macro_states[macro] = state
        self.transitions += 1
        if self.trace.enabled:
            self.trace.instant(
                "pmu.transition", unit="pmu", macro=macro,
                from_state=previous.value, to_state=state.value,
            )
            self.trace.counter("pmu.active_cores", unit="pmu",
                               cores=float(self.active_cores()))

    def state_of_core(self, core_id: int) -> PowerState:
        return self.macro_states[self.config.macro_of(core_id)]

    def residency_counters(self, upto: Optional[float] = None) -> Dict[str, float]:
        """Per-macro cycles spent in each state, including the open
        interval of the current state up to ``upto`` (default: now).

        Keys are ``macro<N>.<state>_cycles``; ``active_cycles`` is
        always present so power benches can divide by it safely.
        """
        now = self._now() if upto is None else upto
        out: Dict[str, float] = {}
        for macro in sorted(self._residency):
            merged = dict(self._residency[macro])
            current = self.macro_states[macro]
            elapsed = now - self._state_since[macro]
            if elapsed > 0:
                merged[current.value] = merged.get(current.value, 0.0) + elapsed
            merged.setdefault(PowerState.ACTIVE.value, 0.0)
            for state_name in sorted(merged):
                out[f"macro{macro}.{state_name}_cycles"] = merged[state_name]
        return out

    def effective_core_watts(self) -> float:
        """Dynamic dpCore power with the current gating applied."""
        per_core = self.config.dpcore_dynamic_watts
        total = 0.0
        for macro, state in self.macro_states.items():
            total += (
                per_core * self.config.cores_per_macro * state.dynamic_factor
            )
        return total

    def active_cores(self) -> int:
        return sum(
            self.config.cores_per_macro
            for state in self.macro_states.values()
            if state is PowerState.ACTIVE
        )
