"""Discrete-event simulation substrate for the DPU reproduction."""

from .engine import (
    AllOf,
    AnyOf,
    DeadlockError,
    Engine,
    Process,
    SimEvent,
    SimulationError,
    Timeout,
    Watchdog,
)
from .resources import BandwidthServer, BinaryEvent, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthServer",
    "BinaryEvent",
    "DeadlockError",
    "Engine",
    "Process",
    "Resource",
    "SimEvent",
    "SimulationError",
    "Store",
    "Timeout",
    "Watchdog",
]
