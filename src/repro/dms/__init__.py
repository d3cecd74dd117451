"""The Data Movement System (paper §3)."""

from .descriptor import (
    DESCRIPTOR_CAPABILITIES,
    DESCRIPTOR_SIZE,
    EVENT_NONE,
    Descriptor,
    DescriptorError,
    DescriptorType,
    PartitionMode,
    PartitionSpec,
    ddr_to_dmem,
    dmem_to_ddr,
    loop,
)
from .dmac import Dmac, DmsHardwareError, PartitionChunk
from .dmad import Dmad, DmadChannel
from .dmax import Dmax
from .events import EVENTS_PER_CORE, EventFile
from .partition import PartitionLayout, compute_cids

__all__ = [
    "DESCRIPTOR_CAPABILITIES",
    "DESCRIPTOR_SIZE",
    "EVENTS_PER_CORE",
    "EVENT_NONE",
    "Descriptor",
    "DescriptorError",
    "DescriptorType",
    "Dmac",
    "Dmad",
    "DmadChannel",
    "Dmax",
    "DmsHardwareError",
    "EventFile",
    "PartitionChunk",
    "PartitionLayout",
    "PartitionMode",
    "PartitionSpec",
    "compute_cids",
    "ddr_to_dmem",
    "dmem_to_ddr",
    "loop",
]
