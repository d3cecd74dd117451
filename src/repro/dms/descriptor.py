"""DMS descriptors: the software interface to the data movement system.

Descriptors are 16-byte "macro instructions" (paper §3.3) built by
software in DMEM and pushed to the DMS. There are two classes:

* **data descriptors** — encode a movement between DDR, DMEM and the
  DMS's internal memories, with optional scatter/gather, striding and
  partitioning (paper Table 1);
* **control descriptors** — program loops over previous descriptors,
  configure the hash/range engine, and set/clear/wait events.

Table 1 (supported operations per direction) is encoded in
:data:`DESCRIPTOR_CAPABILITIES` and enforced at construction time.
Table 2 (the bit layout of the DDR->DMEM data descriptor) is
implemented by :meth:`Descriptor.encode` / :meth:`Descriptor.decode`
so the written-to-DMEM format is bit-exact with the paper.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = [
    "DescriptorType",
    "PartitionMode",
    "PartitionSpec",
    "Descriptor",
    "DescriptorError",
    "DESCRIPTOR_CAPABILITIES",
    "DESCRIPTOR_SIZE",
    "EVENT_NONE",
]

DESCRIPTOR_SIZE = 16  # bytes (paper §2.1: "16B DMS descriptors")
EVENT_NONE = 31  # event slot 31 reserved as the "no event" encoding


class DescriptorError(Exception):
    """Descriptor violates Table 1 capabilities or field ranges."""


class DescriptorType(enum.Enum):
    """Descriptor types: the six data directions of Table 1 plus
    control descriptors (§3.3)."""

    # Data descriptors (source -> destination).
    DDR_TO_DMEM = 0x1
    DMEM_TO_DDR = 0x2
    DMS_TO_DMS = 0x3
    DMS_TO_DMEM = 0x4
    DMEM_TO_DMS = 0x5
    DDR_TO_DMS = 0x6
    DMS_TO_DDR = 0x7
    # Control descriptors.
    LOOP = 0x8
    EVENT = 0x9
    HASH_CONFIG = 0xA
    RANGE_CONFIG = 0xB

    @property
    def is_data(self) -> bool:
        return self.value <= 0x7

    @property
    def is_control(self) -> bool:
        return not self.is_data


class PartitionMode(enum.Enum):
    """Partitioning schemes of the DMAC hash/range engine (§3.1)."""

    NONE = "none"
    HASH = "hash"  # CRC32 of key, then radix bits of the hash
    RADIX = "radix"  # radix bits of the raw key
    RANGE = "range"  # match against <= 32 programmed ranges


@dataclass(frozen=True)
class PartitionSpec:
    """Configuration for a partitioning operation.

    ``radix_bits`` selects how many bits index the output partition
    (32-way = 5 bits) and ``radix_shift`` which bit position they are
    taken from (the engine can inspect any aligned bit window of the
    CRC/key, which lets nested partitioning stages — e.g. an
    inter-DPU shuffle above an intra-DPU 32-way split — use
    uncorrelated bits of the same hash). ``bounds`` holds the RANGE
    mode's up-to-32 ascending upper bounds. ``key_from_crc``
    distinguishes hash-radix (inspect bits of the CRC) from raw radix
    (§3.1).
    """

    mode: PartitionMode
    radix_bits: int = 5
    bounds: Tuple[int, ...] = ()
    key_from_crc: bool = True
    radix_shift: int = 0

    def __post_init__(self) -> None:
        if self.mode is PartitionMode.RANGE:
            if not 1 <= len(self.bounds) <= 32:
                raise DescriptorError(
                    f"range partitioning takes 1..32 bounds, got {len(self.bounds)}"
                )
            if list(self.bounds) != sorted(self.bounds):
                raise DescriptorError("range bounds must be ascending")
        elif self.mode in (PartitionMode.HASH, PartitionMode.RADIX):
            if not 1 <= self.radix_bits <= 10:
                raise DescriptorError(
                    f"radix_bits must be 1..10, got {self.radix_bits}"
                )
            if not 0 <= self.radix_shift <= 32 - self.radix_bits:
                raise DescriptorError(
                    f"radix_shift must be 0..{32 - self.radix_bits} for "
                    f"{self.radix_bits} radix bits, got {self.radix_shift}"
                )

    @property
    def fanout(self) -> int:
        if self.mode is PartitionMode.RANGE:
            return len(self.bounds)
        if self.mode is PartitionMode.NONE:
            return 1
        return 1 << self.radix_bits


# Table 1: which operations each data direction supports.
_CAP = {
    DescriptorType.DDR_TO_DMEM: frozenset({"scatter", "gather", "stride"}),
    DescriptorType.DMEM_TO_DDR: frozenset({"scatter", "gather", "stride"}),
    # Table 1 lists DMS->DMS as pure internal movement; the hash/range
    # engine pass is programmed through it, so it carries the spec.
    DescriptorType.DMS_TO_DMS: frozenset({"partition"}),
    DescriptorType.DMS_TO_DMEM: frozenset({"partition", "last_col"}),
    DescriptorType.DMEM_TO_DMS: frozenset({"rid_bv"}),
    DescriptorType.DDR_TO_DMS: frozenset({"stride", "key", "last_col"}),
    DescriptorType.DMS_TO_DDR: frozenset({"stride"}),
}
DESCRIPTOR_CAPABILITIES: Dict[DescriptorType, FrozenSet[str]] = _CAP

# Table 1 indexed by each type's value, for the checks every
# descriptor runs: hashing an enum member calls the Python-level
# ``Enum.__hash__`` and ``.value`` goes through a slow descriptor
# protocol, while a member's ``_value_`` is a plain attribute and a
# tuple index stays in C. Each data type's entry is its capabilities
# and whether it must move at least one row; a control type's is None.
_NEEDS_ROWS = (
    DescriptorType.DDR_TO_DMEM,
    DescriptorType.DMEM_TO_DDR,
    DescriptorType.DDR_TO_DMS,
    DescriptorType.DMEM_TO_DMS,
)
_RULES_BY_VALUE = {
    dtype.value: (caps, dtype in _NEEDS_ROWS) for dtype, caps in _CAP.items()
}
_DATA_RULES: Tuple[Optional[Tuple[FrozenSet[str], bool]], ...] = tuple(
    _RULES_BY_VALUE.get(value)
    for value in range(max(dtype.value for dtype in DescriptorType) + 1)
)
_INTERNAL_MEMS = ("cmem", "crc", "cid", "bv")
_COL_WIDTHS = (1, 2, 4, 8)


@dataclass(slots=True)
class Descriptor:
    """One 16-byte DMS command.

    Data descriptor fields mirror Table 2; control descriptors reuse
    the same container with their own fields populated. ``rows`` and
    ``col_width`` size the transfer; addresses are byte addresses
    (DMEM addresses are offsets into the issuing core's scratchpad
    unless ``dmem_core`` overrides the target core, as partition-store
    descriptors do).
    """

    dtype: DescriptorType
    # -- data fields (Table 2) ----------------------------------------
    rows: int = 0
    col_width: int = 4
    ddr_addr: int = 0
    dmem_addr: int = 0
    gather_src: bool = False
    scatter_dst: bool = False
    rle: bool = False
    src_addr_inc: bool = False
    dst_addr_inc: bool = False
    wait_event: Optional[int] = None
    notify_event: Optional[int] = None
    link_addr: int = 0
    # -- extended data fields (non-Table-2 directions) -----------------
    dmem_core: Optional[int] = None
    cmem_bank: int = 0
    is_key_column: bool = False
    last_column: bool = False
    partition: Optional[PartitionSpec] = None
    partition_layout: Optional["PartitionLayout"] = None  # set on config
    internal_mem: str = "cmem"  # DMS-internal memory: cmem|crc|cid|bv
    ddr_stride: Optional[int] = None  # bytes between elements (stride op)
    # -- control fields -------------------------------------------------
    loop_back: int = 0  # how many descriptors to jump back over
    loop_count: int = 0  # additional iterations
    set_events: Tuple[int, ...] = ()
    clear_events: Tuple[int, ...] = ()
    wait_events: Tuple[int, ...] = ()
    # Payload size of a data descriptor (``rows * col_width``; 0 for a
    # control descriptor), computed once at construction. Descriptors
    # are templates: change one through :meth:`with_updates`, which
    # builds, checks and sizes a new one.
    transfer_bytes: int = field(init=False, repr=False, compare=False)

    # -- validation and sizing ------------------------------------------

    def __post_init__(self) -> None:
        """Check Table 1 and the field ranges in one pass and size the
        transfer. The checks run in a fixed order, so a descriptor that
        breaks several rules always reports the same one."""
        if self.internal_mem not in _INTERNAL_MEMS:
            raise DescriptorError(f"unknown internal memory {self.internal_mem!r}")
        rule = _DATA_RULES[self.dtype._value_]
        if rule is not None:
            caps, needs_rows = rule
            if (self.ddr_stride is not None or self.gather_src
                    or self.scatter_dst or self.partition is not None
                    or self.is_key_column):
                self._check_capabilities(caps)
            rows = self.rows
            width = self.col_width
            if needs_rows and rows <= 0:
                raise DescriptorError(f"data descriptor needs rows > 0: {rows}")
            if width not in _COL_WIDTHS:
                raise DescriptorError(
                    f"column width must be 1/2/4/8 bytes: {width}"
                )
            if not 0 <= rows < (1 << 16):
                raise DescriptorError(f"rows field is 16 bits: {rows}")
            if not 0 <= self.dmem_addr < (1 << 16):
                raise DescriptorError(
                    f"DMEM address field is 16 bits: {self.dmem_addr:#x}"
                )
            if not 0 <= self.ddr_addr < (1 << 36):
                raise DescriptorError(
                    f"DDR address field is 36 bits: {self.ddr_addr:#x}"
                )
            self.transfer_bytes = rows * width
        else:
            self.transfer_bytes = 0
            if self.dtype is DescriptorType.LOOP:
                if self.loop_back <= 0:
                    raise DescriptorError("loop descriptor must jump back >= 1")
                if self.loop_count < 0:
                    raise DescriptorError(f"negative loop count {self.loop_count}")
        event = self.wait_event
        if event is not None and not 0 <= event < EVENT_NONE:
            raise DescriptorError(f"event id must be 0..{EVENT_NONE - 1}: {event}")
        event = self.notify_event
        if event is not None and not 0 <= event < EVENT_NONE:
            raise DescriptorError(f"event id must be 0..{EVENT_NONE - 1}: {event}")
        if self.set_events or self.clear_events or self.wait_events:
            for event in (*self.set_events, *self.clear_events, *self.wait_events):
                if not 0 <= event < EVENT_NONE:
                    raise DescriptorError(
                        f"event id must be 0..{EVENT_NONE - 1}: {event}"
                    )

    def _check_capabilities(self, caps: FrozenSet[str]) -> None:
        """Refuse an operation Table 1 does not give this direction."""
        if self.ddr_stride is not None and "stride" not in caps:
            raise DescriptorError(f"{self.dtype.name} does not support stride")
        if self.gather_src and "gather" not in caps:
            raise DescriptorError(f"{self.dtype.name} does not support gather")
        if self.scatter_dst and "scatter" not in caps:
            raise DescriptorError(f"{self.dtype.name} does not support scatter")
        if self.partition is not None and "partition" not in caps:
            raise DescriptorError(
                f"{self.dtype.name} does not support partitioning"
            )
        if self.is_key_column and "key" not in caps:
            raise DescriptorError(f"{self.dtype.name} has no key column role")

    # -- Table 2 encoding -------------------------------------------------

    def encode(self) -> bytes:
        """Encode to the 16-byte layout of Table 2 (DDR<->DMEM forms).

        Word 0: Type[31:28] Notify[25:21] Wait[20:16] LinkAddr[15:0]
        Word 1: ColWidth[30:28] GatherSrc[25] ScatterDst[24] RLE[23]
                SrcAddrInc[17] DstAddrInc[16] DDRAddr[3:0]
        Word 2: Rows[31:16] DMEMAddr[15:0]
        Word 3: DDRAddr[35:4]
        """
        if self.dtype not in (DescriptorType.DDR_TO_DMEM, DescriptorType.DMEM_TO_DDR):
            raise DescriptorError(
                f"Table 2 encoding defined for DDR<->DMEM, not {self.dtype.name}"
            )
        notify = EVENT_NONE if self.notify_event is None else self.notify_event
        wait = EVENT_NONE if self.wait_event is None else self.wait_event
        word0 = (
            (self.dtype.value & 0xF) << 28
            | (notify & 0x1F) << 21
            | (wait & 0x1F) << 16
            | (self.link_addr & 0xFFFF)
        )
        col_width_code = {1: 0, 2: 1, 4: 2, 8: 3}[self.col_width]
        word1 = (
            (col_width_code & 0x7) << 28
            | (1 << 25 if self.gather_src else 0)
            | (1 << 24 if self.scatter_dst else 0)
            | (1 << 23 if self.rle else 0)
            | (1 << 17 if self.src_addr_inc else 0)
            | (1 << 16 if self.dst_addr_inc else 0)
            | (self.ddr_addr & 0xF)
        )
        word2 = (self.rows & 0xFFFF) << 16 | (self.dmem_addr & 0xFFFF)
        word3 = (self.ddr_addr >> 4) & 0xFFFFFFFF
        return struct.pack("<4I", word0, word1, word2, word3)

    @classmethod
    def decode(cls, raw: bytes) -> "Descriptor":
        """Decode a Table 2 encoded descriptor."""
        if len(raw) != DESCRIPTOR_SIZE:
            raise DescriptorError(f"descriptor must be 16 bytes, got {len(raw)}")
        word0, word1, word2, word3 = struct.unpack("<4I", raw)
        dtype = DescriptorType((word0 >> 28) & 0xF)
        notify = (word0 >> 21) & 0x1F
        wait = (word0 >> 16) & 0x1F
        col_width = {0: 1, 1: 2, 2: 4, 3: 8}[(word1 >> 28) & 0x7]
        ddr_addr = ((word3 & 0xFFFFFFFF) << 4) | (word1 & 0xF)
        return cls(
            dtype=dtype,
            rows=(word2 >> 16) & 0xFFFF,
            col_width=col_width,
            ddr_addr=ddr_addr,
            dmem_addr=word2 & 0xFFFF,
            gather_src=bool(word1 & (1 << 25)),
            scatter_dst=bool(word1 & (1 << 24)),
            rle=bool(word1 & (1 << 23)),
            src_addr_inc=bool(word1 & (1 << 17)),
            dst_addr_inc=bool(word1 & (1 << 16)),
            wait_event=None if wait == EVENT_NONE else wait,
            notify_event=None if notify == EVENT_NONE else notify,
            link_addr=word0 & 0xFFFF,
        )

    def with_updates(self, **changes) -> "Descriptor":
        """A modified copy (descriptors are reusable templates)."""
        return replace(self, **changes)


# -- convenience constructors (the dms_setup_* calls of Listing 1) -----


def ddr_to_dmem(
    rows: int,
    col_width: int,
    ddr_addr: int,
    dmem_addr: int,
    notify_event: Optional[int] = None,
    **kwargs,
) -> Descriptor:
    """Build the workhorse DDR->DMEM streaming descriptor."""
    return Descriptor(
        dtype=DescriptorType.DDR_TO_DMEM,
        rows=rows,
        col_width=col_width,
        ddr_addr=ddr_addr,
        dmem_addr=dmem_addr,
        notify_event=notify_event,
        **kwargs,
    )


def dmem_to_ddr(
    rows: int,
    col_width: int,
    ddr_addr: int,
    dmem_addr: int,
    notify_event: Optional[int] = None,
    **kwargs,
) -> Descriptor:
    """Build the DMEM->DDR write-back descriptor."""
    return Descriptor(
        dtype=DescriptorType.DMEM_TO_DDR,
        rows=rows,
        col_width=col_width,
        ddr_addr=ddr_addr,
        dmem_addr=dmem_addr,
        notify_event=notify_event,
        **kwargs,
    )


def loop(back: int, count: int) -> Descriptor:
    """Loop control descriptor: re-execute the previous ``back``
    descriptors ``count`` more times (Listing 1's ``dms_setup_loop``)."""
    return Descriptor(dtype=DescriptorType.LOOP, loop_back=back, loop_count=count)
