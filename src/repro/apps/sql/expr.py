"""Row filters and the predicate expressions for scan filters.

A :class:`RowFilter` is what every operator takes: a row mask over
streamed columns, with its dpCore and x86 costs per row. Build one
directly for a custom mask (a semijoin bitmap probe, a lookup).

A :class:`Predicate` is the row filter the dpCore accelerates: range
predicates with SETFL/SETFH + FILT — one cycle per tuple per range
term, accumulating into the bit-vector register (paper §2.2).
Predicates are small trees of range terms combined with AND/OR; each
node knows:

* how to evaluate itself functionally on numpy columns,
* how many FILT passes the dpCore needs (its cycle cost),
* roughly how many scalar-equivalent x86 instructions it costs per
  row (AVX2 evaluates 8 rows per instruction; the baseline roofline
  uses this).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .costs import FILTER_CYCLES_PER_TUPLE

__all__ = ["RowFilter", "Predicate", "Between", "Eq", "Le", "Ge", "InSet",
           "And", "Or"]

Columns = Dict[str, np.ndarray]

# Combining two 64-row bitvector words costs one ALU op: ~1/64 cycle/row.
_COMBINE_CYCLES_PER_ROW = 1.0 / 64.0
# One AVX2 compare+mask op covers 8 rows; a range needs two compares.
_XEON_OPS_PER_RANGE_TERM = 2.0 / 8.0


class RowFilter:
    """A row mask over streamed columns, with its dpCore/x86 costs.

    ``mask_fn`` must be row-wise (see
    :class:`~repro.apps.sql.aggregate.AggSpec`) and return a boolean
    array: the low-NDV group-by evaluates it once over a launch's
    rows, the other paths per tile or wave.
    """

    def __init__(self, mask_fn: Callable[[Columns], np.ndarray],
                 columns: Sequence[str], dpu_cycles_per_row: float,
                 xeon_ops_per_row: float) -> None:
        self.mask_fn = mask_fn
        self.columns = tuple(columns)
        self.dpu_cycles_per_row = dpu_cycles_per_row
        self.xeon_ops_per_row = xeon_ops_per_row


class Predicate(RowFilter):
    """A row filter made of FILT range terms; its costs follow from
    :meth:`filt_terms`."""

    def mask_fn(self, columns: Columns) -> np.ndarray:
        raise NotImplementedError

    @property
    def columns(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def filt_terms(self) -> int:
        """Number of FILT passes the dpCore evaluation needs."""
        raise NotImplementedError

    @property
    def dpu_cycles_per_row(self) -> float:
        terms = self.filt_terms()
        return terms * FILTER_CYCLES_PER_TUPLE + max(0, terms - 1) * (
            _COMBINE_CYCLES_PER_ROW
        )

    @property
    def xeon_ops_per_row(self) -> float:
        return self.filt_terms() * _XEON_OPS_PER_RANGE_TERM

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])


@dataclass
class Between(Predicate):
    """``lo <= column <= hi`` — exactly one SETFL/SETFH/FILT pass."""

    column: str
    lo: float
    hi: float

    def mask_fn(self, columns: Columns) -> np.ndarray:
        values = columns[self.column]
        return (values >= self.lo) & (values <= self.hi)

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def filt_terms(self) -> int:
        return 1


def Eq(column: str, value) -> Between:
    """Equality as a degenerate range (lo == hi)."""
    return Between(column, value, value)


def Le(column: str, hi) -> Between:
    """``column <= hi`` (lower bound at the type's floor)."""
    return Between(column, -(2**62), hi)


def Ge(column: str, lo) -> Between:
    """``column >= lo``."""
    return Between(column, lo, 2**62)


@dataclass
class InSet(Predicate):
    """``column IN (v1, v2, ...)`` — one FILT pass per member."""

    column: str
    values: Tuple

    def __init__(self, column: str, values: Sequence) -> None:
        self.column = column
        self.values = tuple(values)
        if not self.values:
            raise ValueError("InSet needs at least one value")

    def mask_fn(self, columns: Columns) -> np.ndarray:
        values = columns[self.column]
        return np.isin(values, np.asarray(self.values))

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def filt_terms(self) -> int:
        return len(self.values)


@dataclass
class _Combined(Predicate):
    """Children whose masks fold with ``_combine``: one FILT pass per
    child term."""

    children: List[Predicate]

    def mask_fn(self, columns: Columns) -> np.ndarray:
        result = self.children[0].mask_fn(columns)
        for child in self.children[1:]:
            result = self._combine(result, child.mask_fn(columns))
        return result

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(
            name for child in self.children for name in child.columns))

    def filt_terms(self) -> int:
        return sum(child.filt_terms() for child in self.children)


class And(_Combined):
    _combine = staticmethod(operator.and_)


class Or(_Combined):
    _combine = staticmethod(operator.or_)
