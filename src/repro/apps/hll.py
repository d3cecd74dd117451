"""HyperLogLog cardinality estimation (paper §5.4).

The paper's optimizations, all reproduced here:

* **NTZ instead of NLZ** — the hash's leading/trailing-zero counts
  are statistically interchangeable for a well-behaved hash; NTZ is 4
  dpCore instructions via POPC (``popc((x & -x) - 1)``) while NLZ
  needs a ~13-instruction smear sequence. Both inner loops are
  assembled and measured on the ISA interpreter.
* **CRC32 vs Murmur64** — CRC32 is a single-cycle instruction; the
  Murmur64 finalizer needs two full-width multiplies on the dpCore's
  iterative low-power multiplier (~11 cycles each), which is exactly
  why "the Murmur64 implementation does poorly on the DPU".
* **ATE work stealing** — chunks are claimed with a fetch-add cursor
  rather than a static schedule, avoiding tail latency from the
  variable-latency multiplier.

The sketch itself (registers, harmonic-mean estimator with the
standard alpha_m bias correction) is shared between the DPU kernel
and the x86 baseline, so both estimate from identical register
contents.
"""

from __future__ import annotations

from functools import lru_cache

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..baseline.xeon import XeonModel
from ..core.assembler import assemble
from ..core.crc32 import crc32_column, murmur64
from ..core.dpcore import DpCoreInterpreter
from ..core.dpu import DPU
from ..memory.dmem import Scratchpad
from ..runtime.parallel import WorkQueue
from .sql.engine import DpuOpResult, XeonOpResult
from .streaming import stream_columns

__all__ = [
    "HllSketch",
    "hll_estimate",
    "dpu_hll",
    "xeon_hll",
    "measure_hash_loop",
    "murmur64_column",
]

# x86 HLL is a scatter-update workload: SIMD hashing is fast, but the
# random register read-modify-writes (with atomics for merging) keep
# the cores off peak stream bandwidth. 0.72 matches Haswell
# STREAM-vs-random-update measurements and reproduces the paper's ~9x
# CRC32 gain over an optimized x86 implementation.
_XEON_SCATTER_EFFICIENCY = 0.72
_XEON_OPS_PER_VALUE = 12.0  # murmur + register update + amortized atomic


def murmur64_column(values: np.ndarray) -> np.ndarray:
    """Vectorized Murmur64 finalizer over a u64 column."""
    h = values.astype(np.uint64)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


@dataclass
class HllSketch:
    """m = 2**precision registers of max trailing-zero ranks."""

    precision: int
    registers: np.ndarray

    @classmethod
    def empty(cls, precision: int) -> "HllSketch":
        if not 4 <= precision <= 16:
            raise ValueError(f"precision must be 4..16: {precision}")
        return cls(precision, np.zeros(1 << precision, dtype=np.uint8))

    def merge(self, other: "HllSketch") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)


def _update_registers(
    sketch: HllSketch, hashes: np.ndarray, hash_bits: int
) -> None:
    """Vectorized register update: bucket by low bits, rank by NTZ of
    the remaining bits (the paper's trailing-zero trick)."""
    p = sketch.precision
    buckets = (hashes & np.uint64((1 << p) - 1)).astype(np.int64)
    rest = hashes >> np.uint64(p)
    width = hash_bits - p
    # NTZ via isolate-lowest-set-bit; zero maps to full width.
    low = rest & (~rest + np.uint64(1))
    ntz = np.full(len(rest), width, dtype=np.uint8)
    nonzero = low != 0
    ntz[nonzero] = np.log2(low[nonzero].astype(np.float64)).astype(np.uint8)
    ranks = (ntz + 1).astype(np.uint8)
    np.maximum.at(sketch.registers, buckets, ranks)


def hll_estimate(sketch: HllSketch) -> float:
    """Harmonic-mean estimator with alpha_m and small-range correction
    (Flajolet et al. 2007)."""
    m = len(sketch.registers)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m)
    )
    harmonic = np.sum(2.0 ** -sketch.registers.astype(np.float64))
    raw = alpha * m * m / harmonic
    if raw <= 2.5 * m:
        zeros = int(np.sum(sketch.registers == 0))
        if zeros:
            return m * np.log(m / zeros)
    return float(raw)


# -- ISA-derived inner-loop costs ------------------------------------------


@lru_cache(maxsize=None)
def measure_hash_loop(
    hash_fn: str = "crc32", zero_count: str = "ntz", num_values: int = 256
) -> float:
    """Cycles/value of the HLL inner loop on the ISA interpreter.

    Loads a 64-bit value from DMEM, hashes it (CRC32D instruction or
    inline Murmur64 finalizer), derives the bucket and the
    trailing/leading-zero rank, and updates the register byte.
    """
    if hash_fn not in ("crc32", "murmur64"):
        raise ValueError(f"unknown hash {hash_fn!r}")
    if zero_count not in ("ntz", "nlz"):
        raise ValueError(f"unknown zero count {zero_count!r}")
    data_bytes = num_values * 8
    table_base = 16 * 1024

    if hash_fn == "crc32":
        hash_code = """
        li   r11, 0
        crc32d r11, r10
        """
    else:
        hash_code = """
        mov  r11, r10
        srli r12, r11, 33
        xor  r11, r11, r12
        li   r13, 0xFF51AFD7ED558CCD
        mul  r11, r11, r13
        srli r12, r11, 33
        xor  r11, r11, r12
        li   r13, 0xC4CEB9FE1A85EC53
        mul  r11, r11, r13
        srli r12, r11, 33
        xor  r11, r11, r12
        """
    if zero_count == "ntz":
        # popc((x & -x) - 1): 4 instructions thanks to POPC (§5.4).
        rank_code = """
        srli r14, r11, 8
        sub  r15, r0, r14
        and  r15, r14, r15
        addi r15, r15, -1
        popc r16, r15
        """
    else:
        # Smear right then popcount the complement: the slow NLZ path.
        rank_code = """
        srli r14, r11, 8
        srli r15, r14, 1
        or   r14, r14, r15
        srli r15, r14, 2
        or   r14, r14, r15
        srli r15, r14, 4
        or   r14, r14, r15
        srli r15, r14, 8
        or   r14, r14, r15
        srli r15, r14, 16
        or   r14, r14, r15
        srli r15, r14, 32
        or   r14, r14, r15
        popc r16, r14
        li   r15, 64
        sub  r16, r15, r16
        """
    source = f"""
        li   r3, 0
        li   r4, {data_bytes}
        li   r9, {table_base}
    value:
        ld   r10, 0(r3)
{hash_code}
        andi r17, r11, 255
        add  r17, r17, r9
{rank_code}
        lbu  r18, 0(r17)
        blt  r16, r18, skip
        sb   r16, 0(r17)
    skip:
        addi r3, r3, 8
        bne  r3, r4, value
        halt
    """
    interpreter = DpCoreInterpreter(assemble(source), Scratchpad(0))
    rng = np.random.default_rng(3)
    interpreter.dmem.write(0, rng.integers(0, 2**63, num_values, dtype=np.int64))
    result = interpreter.run()
    assert result.halted
    return result.cycles / num_values


# -- DPU execution ------------------------------------------------------------


def dpu_hll(
    dpu: DPU,
    values_addr: int,
    num_values: int,
    precision: int = 12,
    hash_fn: str = "crc32",
    zero_count: str = "ntz",
    chunk_values: int = 8192,
    cycles_per_value: Optional[float] = None,
    host_values: Optional[np.ndarray] = None,
    cores: Optional[Sequence[int]] = None,
) -> DpuOpResult:
    """Estimate the cardinality of a u64 column in DPU DDR.

    Work stealing over chunks (ATE fetch-add), DMS-streamed values,
    per-core sketches merged at the first listed core over the
    mailbox. ``cores`` restricts the launch to a subset (e.g. the
    survivors from :func:`repro.runtime.failover.surviving_cores`);
    the fetch-add cursor redistributes the missing cores' chunks, so
    the estimate is bit-identical at any core count.
    """
    if host_values is None:
        host_values = dpu.load_array(values_addr, num_values, np.uint64)
    if cycles_per_value is None:
        cycles_per_value = measure_hash_loop(hash_fn, zero_count, 128)
    num_chunks = -(-num_values // chunk_values)
    cores = list(cores) if cores is not None else list(dpu.config.core_ids)
    queue = WorkQueue(dpu, owner=cores[0], dmem_offset=0, num_chunks=num_chunks)
    hash_bits = 32 if hash_fn == "crc32" else 64

    def kernel(ctx):
        sketch = HllSketch.empty(precision)
        while True:
            chunk = yield from queue.claim(ctx)
            if chunk is None:
                break
            lo = chunk * chunk_values
            hi = min(num_values, lo + chunk_values)

            def process(tile, tlo, thi, arrays):
                block = arrays[0]
                if hash_fn == "crc32":
                    hashes = crc32_column(block).astype(np.uint64)
                else:
                    hashes = murmur64_column(block)
                _update_registers(sketch, hashes, hash_bits)
                return (thi - tlo) * cycles_per_value

            yield from stream_columns(
                ctx,
                [(values_addr + lo * 8, 8)],
                hi - lo,
                1024,  # 8 KB tiles, double-buffered: 16 KB of DMEM
                process,
                dmem_base=64,  # keep the work queue counter word intact
            )
        if ctx.core_id != ctx.cores[0]:
            yield from ctx.mbox_send(ctx.cores[0], sketch.registers)
            return None
        merged = sketch
        for _ in range(len(ctx.cores) - 1):
            _src, registers = yield from ctx.mbox_receive()
            np.maximum(merged.registers, registers, out=merged.registers)
            yield from ctx.compute(len(registers) / 8)  # 8 B/cycle merge
        return merged

    launch = dpu.launch(kernel, cores=cores)
    sketch = launch.values[0]
    estimate = hll_estimate(sketch)
    return DpuOpResult(
        value=estimate,
        cycles=launch.cycles,
        config=dpu.config,
        bytes_streamed=num_values * 8,
        detail={
            "hash": hash_fn,
            "zero_count": zero_count,
            "cycles_per_value": cycles_per_value,
            "precision": precision,
            "registers": sketch.registers,
        },
    )


def xeon_hll(
    model: XeonModel,
    values: np.ndarray,
    precision: int = 12,
    hash_fn: str = "murmur64",
) -> XeonOpResult:
    """Optimized x86 HLL (SIMD hash + atomics, per the paper)."""
    sketch = HllSketch.empty(precision)
    if hash_fn == "crc32":
        hashes = crc32_column(values).astype(np.uint64)
        hash_bits = 32
    else:
        hashes = murmur64_column(values.astype(np.uint64))
        hash_bits = 64
    _update_registers(sketch, hashes, hash_bits)
    estimate = hll_estimate(sketch)
    compute = model.compute_seconds(len(values) * _XEON_OPS_PER_VALUE)
    memory = model.memory_seconds(values.nbytes) / _XEON_SCATTER_EFFICIENCY
    return XeonOpResult(
        value=estimate,
        seconds=max(compute, memory),
        bytes_streamed=values.nbytes,
        detail={"hash": hash_fn},
    )
