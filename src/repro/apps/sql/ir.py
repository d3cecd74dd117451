"""Logical IR for the SQL frontend (parser output -> optimized plan).

The compilation pipeline follows the TQP two-phase design documented
in ``docs/SQL.md``: **parsing** (:mod:`repro.apps.sql.frontend`)
produces the AST nodes defined here; **canonicalization + binding**
(:func:`compile_logical`) resolves every column against a
:class:`Catalog`, scales decimal literals onto the fixed-point
integer encodings, folds date/interval arithmetic and classifies
predicates; the **rewrite passes** then run predicate pushdown
(fact-table range fusion plus per-dimension semijoin folding) and join
ordering by estimated cardinality. The resulting :class:`LogicalPlan`
is what the physical planner (:mod:`repro.apps.sql.physical`) lowers
onto the single-DPU operators and cluster shuffle stages; projection
pruning happens there, as the group-by's needed columns.

Everything here is host-side planning: no simulated cycles are spent
until the physical plan runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AggCall",
    "Arith",
    "Case",
    "Catalog",
    "Cmp",
    "Col",
    "InList",
    "Like",
    "Lit",
    "Logic",
    "LogicalPlan",
    "PlanError",
    "RangeTest",
    "Ref",
    "SelectStmt",
    "compile_logical",
    "range_term",
    "set_term",
    "sql_repr",
]


class PlanError(Exception):
    """A structured compilation failure: which query, which clause.

    Raised for every unsupported construct *before* lowering begins,
    so callers never see a mid-lowering assertion.
    """

    def __init__(self, message: str, query: Optional[str] = None,
                 clause: Optional[str] = None) -> None:
        self.message = message
        self.query = query
        self.clause = clause
        parts = [message]
        if clause:
            parts.append(f"[clause: {clause}]")
        if query:
            snippet = " ".join(query.split())
            if len(snippet) > 120:
                snippet = snippet[:117] + "..."
            parts.append(f"in query: {snippet}")
        super().__init__(" ".join(parts))


# -- AST nodes (parser output) ------------------------------------------------
#
# Frozen dataclasses so they hash/compare structurally; ``sql_repr``
# renders a canonical id-free string used for aggregate-slot dedup,
# ORDER BY matching and the golden plan snapshots.


@dataclass(frozen=True)
class Col:
    name: str
    table: Optional[str] = None


@dataclass(frozen=True)
class Lit:
    value: Any


@dataclass(frozen=True)
class Interval:
    n: int
    unit: str  # day | month | year


@dataclass(frozen=True)
class Arith:
    op: str  # + - * /
    left: Any
    right: Any


@dataclass(frozen=True)
class Cmp:
    op: str  # = <> < <= > >=
    left: Any
    right: Any


@dataclass(frozen=True)
class RangeTest:
    expr: Any
    lo: Any
    hi: Any


@dataclass(frozen=True)
class InList:
    expr: Any
    values: Tuple


@dataclass(frozen=True)
class Like:
    expr: Any
    pattern: str


@dataclass(frozen=True)
class Logic:
    op: str  # and | or
    args: Tuple


@dataclass(frozen=True)
class Case:
    whens: Tuple  # ((cond, result), ...)
    default: Any


@dataclass(frozen=True)
class AggCall:
    fn: str  # sum | count | avg | min | max
    arg: Any  # None for count(*)


@dataclass(frozen=True)
class Ref:
    """A bound column: a chain of foreign-key hops from the fact
    table, then a column of the chain's last table. An empty chain is
    a fact-table column."""

    chain: Tuple[Tuple[str, str], ...]  # ((fk_col_on_prev, table), ...)
    column: str
    table: str


@dataclass
class SelectStmt:
    """Raw parse of one SELECT statement."""

    items: List[Tuple[Any, Optional[str]]]  # (expr, alias)
    tables: List[str]
    join_ons: List[Any]  # ON expressions from explicit JOINs
    where: Optional[Any]
    group_by: List[Any]
    order_by: List[Tuple[Any, bool]]  # (expr, desc)
    limit: Optional[int]
    text: str = ""


def sql_repr(node: Any) -> str:
    """Canonical, id-free rendering of an AST / bound node."""
    if isinstance(node, Col):
        return f"{node.table}.{node.name}" if node.table else node.name
    if isinstance(node, Ref):
        hops = "".join(f"{fk}->" for fk, _table in node.chain)
        return f"{hops}{node.column}"
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Interval):
        return f"interval {node.n} {node.unit}"
    if isinstance(node, Arith):
        return f"({sql_repr(node.left)} {node.op} {sql_repr(node.right)})"
    if isinstance(node, Cmp):
        return f"({sql_repr(node.left)} {node.op} {sql_repr(node.right)})"
    if isinstance(node, RangeTest):
        return (f"({sql_repr(node.expr)} between {sql_repr(node.lo)} "
                f"and {sql_repr(node.hi)})")
    if isinstance(node, InList):
        inner = ", ".join(sql_repr(value) for value in node.values)
        return f"({sql_repr(node.expr)} in ({inner}))"
    if isinstance(node, Like):
        return f"({sql_repr(node.expr)} like {node.pattern!r})"
    if isinstance(node, Logic):
        inner = f" {node.op} ".join(sql_repr(arg) for arg in node.args)
        return f"({inner})"
    if isinstance(node, Case):
        whens = " ".join(
            f"when {sql_repr(cond)} then {sql_repr(result)}"
            for cond, result in node.whens
        )
        return f"(case {whens} else {sql_repr(node.default)} end)"
    if isinstance(node, AggCall):
        arg = "*" if node.arg is None else sql_repr(node.arg)
        return f"{node.fn}({arg})"
    return repr(node)


# -- catalog ------------------------------------------------------------------


@dataclass
class ColumnStats:
    lo: int
    hi: int
    ndv: int


class Catalog:
    """Schema + statistics the binder and planner consult.

    ``tables`` holds the live column arrays (by reference — the
    physical plan's broadcast builders and finish gathers read them).
    ``pks`` marks dense ``arange`` primary keys (the join orientation
    rule: the pk side of an equi-join is the dimension).
    ``dictionaries`` map low-cardinality string columns to their code
    lists so string literals bind to codes. ``scales`` give fixed-point
    decimal scale (cents / integer percent). ``aliases`` map columns
    that exist only as names in query text (``n_name``) to the
    dictionary-coded key column that carries the same information.
    ``prefix_ranges`` support ``LIKE 'X%'`` on dictionary codes whose
    order groups the prefix contiguously.
    """

    def __init__(
        self,
        tables: Dict[str, Dict[str, np.ndarray]],
        pks: Optional[Dict[str, str]] = None,
        dictionaries: Optional[Dict[str, Sequence[str]]] = None,
        scales: Optional[Dict[str, int]] = None,
        aliases: Optional[Dict[str, Tuple[str, str, Sequence[str]]]] = None,
        prefix_ranges: Optional[Dict[str, Dict[str, Tuple[int, int]]]] = None,
    ) -> None:
        self.tables = tables
        self.pks = dict(pks or {})
        self.dictionaries = dict(dictionaries or {})
        self.scales = dict(scales or {})
        self.aliases = dict(aliases or {})
        self.prefix_ranges = dict(prefix_ranges or {})
        # Monotone data version: every mutation bumps it. Each column
        # also remembers the version of its last write, so a plan's
        # data version (the newest version among the columns it reads)
        # moves only when data that plan depends on changes; plan and
        # result caches key on it (see repro.serve).
        self.version = 0
        self._floor = 0  # version of the last bump_version()
        self._column_versions: Dict[Tuple[str, str], int] = {}
        self._stats: Dict[Tuple[str, str], ColumnStats] = {}
        self._column_table: Dict[str, List[str]] = {}
        for table, columns in tables.items():
            for column in columns:
                self._column_table.setdefault(column, []).append(table)

    def bump_version(self) -> int:
        """Declare all the underlying data changed: every column's
        version advances, so every plan's data version does too.

        Also drops memoized column statistics — they were computed
        against the previous contents.
        """
        self.version += 1
        self._floor = self.version
        self._column_versions.clear()
        self._stats.clear()
        return self.version

    def column_version(self, table: str, name: str) -> int:
        """The catalog version of the last write to ``table.name``."""
        return self._column_versions.get((table, name), self._floor)

    def data_version(self, reads: Sequence[Tuple[str, str]]) -> int:
        """The newest version among the ``(table, column)`` pairs
        ``reads``: it changes exactly when one of them is written."""
        return max((self.column_version(table, name)
                    for table, name in reads), default=self._floor)

    def update_column(self, table: str, name: str,
                      values: np.ndarray) -> int:
        """Replace one column's array and bump the catalog version.

        The serving layer's write path: a tenant "update" swaps the
        column in place and stamps only that column with the new
        version, so cached plans and results of queries that read it
        miss on their next lookup while the rest stay valid. Only this
        column's memoized statistics are dropped.
        """
        columns = self.tables[table]
        if name not in columns:
            raise PlanError(f"unknown column {name!r} in {table!r}",
                            clause="update")
        if len(values) != self.num_rows(table):
            raise PlanError(
                f"update of {table}.{name} changes row count "
                f"({len(values)} vs {self.num_rows(table)})",
                clause="update")
        columns[name] = values
        self.version += 1
        self._column_versions[(table, name)] = self.version
        self._stats.pop((table, name), None)
        return self.version

    def num_rows(self, table: str) -> int:
        columns = self.tables[table]
        return len(next(iter(columns.values())))

    def column(self, table: str, name: str) -> np.ndarray:
        return self.tables[table][name]

    def table_of(self, column: str, query: str = "") -> str:
        tables = self._column_table.get(column)
        if not tables:
            raise PlanError(f"unknown column {column!r}", query=query,
                            clause="column reference")
        if len(tables) > 1:
            raise PlanError(f"ambiguous column {column!r} (in "
                            f"{sorted(tables)})", query=query,
                            clause="column reference")
        return tables[0]

    def stats(self, table: str, column: str) -> ColumnStats:
        cache_key = (table, column)
        if cache_key not in self._stats:
            values = self.tables[table][column]
            if len(values) == 0:
                self._stats[cache_key] = ColumnStats(0, 0, 1)
            else:
                self._stats[cache_key] = ColumnStats(
                    lo=int(values.min()), hi=int(values.max()),
                    ndv=max(1, len(np.unique(values))),
                )
        return self._stats[cache_key]

    def scale(self, column: str) -> int:
        return self.scales.get(column, 1)

    def encode(self, column: str, value: str, query: str = "") -> int:
        dictionary = self.dictionaries.get(column)
        if dictionary is None:
            raise PlanError(
                f"string literal compared with non-dictionary column "
                f"{column!r}", query=query, clause="string literal")
        try:
            return list(dictionary).index(value)
        except ValueError:
            raise PlanError(
                f"value {value!r} not in the dictionary of {column!r}",
                query=query, clause="string literal") from None

    def prefix_range(self, column: str, prefix: str,
                     query: str = "") -> Tuple[int, int]:
        ranges = self.prefix_ranges.get(column, {})
        if prefix not in ranges:
            raise PlanError(
                f"LIKE prefix {prefix!r} has no code range on {column!r}",
                query=query, clause="like")
        return ranges[prefix]

    def is_pk(self, table: str, column: str) -> bool:
        return self.pks.get(table) == column


# -- bound conjunct classification --------------------------------------------


@dataclass
class FactRange:
    """Fused ``lo <= column <= hi`` on a fact column (FILT-able)."""

    column: str
    lo: Optional[int]
    hi: Optional[int]


@dataclass
class LogicalPlan:
    """The optimized logical plan the physical planner lowers."""

    name: str
    text: str
    fact: str
    tables: List[str]
    chains: Dict[str, Tuple[Tuple[str, str], ...]]
    fact_ranges: List[FactRange]  # fused, first-occurrence order
    fact_insets: List[Tuple[str, Tuple[int, ...]]]
    fact_or: List[Any]  # OR trees of plain fact ranges
    fact_complex: List[Any]  # col-vs-col comparisons on fact columns
    dim_conjuncts: Dict[str, List[Any]]  # dim table -> bound conjuncts
    cross_eqs: List[Tuple[Ref, Ref]]
    group_refs: List[Ref]
    select_items: List[Tuple[Any, Optional[str]]]  # bound
    order_by: List[Tuple[Any, bool]]  # bound
    limit: Optional[int]
    join_order: List[Dict[str, Any]] = field(default_factory=list)
    # Every (table, column) the plan depends on: the columns the binder
    # resolved (alias targets included) plus both sides of each join
    # edge. Lowering reads no others, so a write elsewhere leaves the
    # lowered plan unchanged.
    reads: List[Tuple[str, str]] = field(default_factory=list)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly plan summary (feeds the golden snapshots)."""
        return {
            "fact": self.fact,
            "tables": list(self.tables),
            "chains": {
                table: [[fk, hop] for fk, hop in chain]
                for table, chain in self.chains.items()
            },
            "fact_ranges": [
                {"column": r.column, "lo": r.lo, "hi": r.hi}
                for r in self.fact_ranges
            ],
            "fact_insets": [
                {"column": column, "values": list(values)}
                for column, values in self.fact_insets
            ],
            "fact_or": [sql_repr(node) for node in self.fact_or],
            "fact_complex": [sql_repr(node) for node in self.fact_complex],
            "dim_conjuncts": {
                table: [sql_repr(node) for node in nodes]
                for table, nodes in sorted(self.dim_conjuncts.items())
            },
            "cross_eqs": [
                [sql_repr(a), sql_repr(b)] for a, b in self.cross_eqs
            ],
            "group_by": [sql_repr(ref) for ref in self.group_refs],
            "select": [sql_repr(expr) for expr, _alias in self.select_items],
            "order_by": [
                [sql_repr(expr), desc] for expr, desc in self.order_by
            ],
            "limit": self.limit,
            "join_order": self.join_order,
        }


class _Binder:
    """Resolves an AST against a catalog into bound nodes."""

    def __init__(self, catalog: Catalog, tables: List[str], fact: str,
                 chains: Dict[str, Tuple[Tuple[str, str], ...]],
                 text: str) -> None:
        self.catalog = catalog
        self.tables = tables
        self.fact = fact
        self.chains = chains
        self.text = text
        self.reads: Dict[Tuple[str, str], None] = {}  # ordered set

    def resolve_column(self, col: Col) -> Ref:
        catalog = self.catalog
        name, table = col.name, col.table
        if name in catalog.aliases:
            alias_table, alias_column, _dictionary = catalog.aliases[name]
            table, name = alias_table, alias_column
        if table is None:
            table = catalog.table_of(name, self.text)
        elif table not in catalog.tables:
            raise PlanError(f"unknown table {table!r}", query=self.text,
                            clause="column reference")
        if table not in self.chains:
            raise PlanError(
                f"column {name!r} belongs to {table!r}, which is not "
                "joined into the query", query=self.text, clause="from")
        if name not in catalog.tables[table]:
            raise PlanError(f"unknown column {name!r} on {table!r}",
                            query=self.text, clause="column reference")
        self.reads[(table, name)] = None
        return Ref(chain=self.chains[table], column=name, table=table)

    def scale_of(self, node: Any) -> int:
        if isinstance(node, Ref):
            return self.catalog.scale(node.column)
        if isinstance(node, Arith):
            left, right = self.scale_of(node.left), self.scale_of(node.right)
            return max(left, right)
        return 1

    def scale_literal(self, lit: Lit, scale: int) -> Lit:
        value = lit.value
        if isinstance(value, str):
            return lit
        if scale > 1:
            return Lit(int(round(value * scale)))
        if isinstance(value, float) and value.is_integer():
            return Lit(int(value))
        return lit

    def bind(self, node: Any) -> Any:
        if isinstance(node, Col):
            return self.resolve_column(node)
        if isinstance(node, Lit):
            return node
        if isinstance(node, Interval):
            raise PlanError("interval outside date arithmetic",
                            query=self.text, clause="interval")
        if isinstance(node, Arith):
            left, right = self.bind(node.left), self.bind(node.right)
            if isinstance(left, Lit) and isinstance(right, Lit):
                return _fold_arith(node.op, left, right, self.text)
            if isinstance(left, Lit):
                left = self.scale_literal(left, self.scale_of(right))
            elif isinstance(right, Lit):
                right = self.scale_literal(right, self.scale_of(left))
            return Arith(node.op, left, right)
        if isinstance(node, Cmp):
            left, right = self.bind(node.left), self.bind(node.right)
            if isinstance(left, Lit) and not isinstance(right, Lit):
                left, right = right, left
                flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
                node = Cmp(flip.get(node.op, node.op), None, None)
            if isinstance(right, Lit):
                right = self._bind_comparison_literal(left, right)
            return Cmp(node.op, left, right)
        if isinstance(node, RangeTest):
            expr = self.bind(node.expr)
            lo = self._bind_comparison_literal(expr, self.bind(node.lo))
            hi = self._bind_comparison_literal(expr, self.bind(node.hi))
            return RangeTest(expr, lo, hi)
        if isinstance(node, InList):
            expr = self.bind(node.expr)
            values = tuple(
                self._bind_comparison_literal(expr, self.bind(value))
                for value in node.values
            )
            for value in values:
                if not isinstance(value, Lit):
                    raise PlanError(
                        f"IN list member {sql_repr(value)} is not a "
                        "literal", query=self.text, clause="in list")
            return InList(expr, values)
        if isinstance(node, Like):
            expr = self.bind(node.expr)
            if not isinstance(expr, Ref):
                raise PlanError("LIKE needs a plain column", query=self.text,
                                clause="like")
            pattern = node.pattern
            if not pattern.endswith("%") or "%" in pattern[:-1]:
                raise PlanError(
                    f"only prefix LIKE patterns are supported: {pattern!r}",
                    query=self.text, clause="like")
            lo, hi = self.catalog.prefix_range(expr.column, pattern[:-1],
                                              self.text)
            return RangeTest(expr, Lit(lo), Lit(hi))
        if isinstance(node, Logic):
            return Logic(node.op, tuple(self.bind(arg) for arg in node.args))
        if isinstance(node, Case):
            whens = tuple(
                (self.bind(cond), self.bind(result))
                for cond, result in node.whens
            )
            return Case(whens, self.bind(node.default))
        if isinstance(node, AggCall):
            if node.arg is None:
                return node
            arg = self.bind(node.arg)
            if _contains_agg(arg):
                raise PlanError("nested aggregates", query=self.text,
                                clause="select")
            return AggCall(node.fn, arg)
        raise PlanError(f"unsupported expression {node!r}", query=self.text,
                        clause="expression")

    def _bind_comparison_literal(self, expr: Any, lit: Any) -> Any:
        if not isinstance(lit, Lit):
            return lit
        value = lit.value
        if isinstance(value, str):
            if not isinstance(expr, Ref):
                raise PlanError("string literal compared with an expression",
                                query=self.text, clause="string literal")
            # Aliased columns already resolved to codes by resolve_column
            # when the alias carried a dictionary of its own.
            column = expr.column
            original = self._alias_dictionary(column)
            if original is not None:
                try:
                    return Lit(list(original).index(value))
                except ValueError:
                    raise PlanError(
                        f"value {value!r} not in the dictionary of "
                        f"{column!r}", query=self.text,
                        clause="string literal") from None
            return Lit(self.catalog.encode(column, value, self.text))
        return self.scale_literal(lit, self.scale_of(expr))

    def _alias_dictionary(self, column: str) -> Optional[Sequence[str]]:
        for _alias, (_table, target, dictionary) in \
                self.catalog.aliases.items():
            if target == column:
                return dictionary
        return None


def _contains_agg(node: Any) -> bool:
    if isinstance(node, AggCall):
        return True
    if isinstance(node, Arith):
        return _contains_agg(node.left) or _contains_agg(node.right)
    if isinstance(node, Case):
        return any(_contains_agg(cond) or _contains_agg(result)
                   for cond, result in node.whens) \
            or _contains_agg(node.default)
    return False


def _fold_arith(op: str, left: Lit, right: Lit, text: str) -> Lit:
    try:
        if op == "+":
            return Lit(left.value + right.value)
        if op == "-":
            return Lit(left.value - right.value)
        if op == "*":
            return Lit(left.value * right.value)
        if op == "/":
            return Lit(left.value / right.value)
    except TypeError:
        pass
    raise PlanError(f"cannot fold literal arithmetic {op!r}", query=text,
                    clause="expression")


def fold_date_arith(node: Any, text: str = "") -> Any:
    """Fold ``date 'Y-M-D' +/- interval 'n' unit`` into day codes.

    The parser emits dates as :class:`Lit` day codes already; this
    handles the interval offsets with calendar math.
    """
    import datetime

    from ...workloads.tpch import date_code  # noqa: F401 (epoch anchor)

    epoch = datetime.date(1992, 1, 1)
    if isinstance(node, Arith) and isinstance(node.right, Interval):
        base = fold_date_arith(node.left, text)
        if not isinstance(base, Lit) or not isinstance(base.value, int):
            raise PlanError("interval arithmetic needs a date literal",
                            query=text, clause="interval")
        interval = node.right
        sign = 1 if node.op == "+" else -1
        if node.op not in ("+", "-"):
            raise PlanError("interval arithmetic supports only + and -",
                            query=text, clause="interval")
        day = epoch + datetime.timedelta(days=base.value)
        if interval.unit == "day":
            day = day + datetime.timedelta(days=sign * interval.n)
        else:
            months = day.year * 12 + (day.month - 1) \
                + sign * interval.n * (12 if interval.unit == "year" else 1)
            year, month = divmod(months, 12)
            day = datetime.date(year, month + 1, day.day)
        return Lit((day - epoch).days)
    return node


# -- logical compilation ------------------------------------------------------


def _flatten_and(node: Any) -> List[Any]:
    if isinstance(node, Logic) and node.op == "and":
        out: List[Any] = []
        for arg in node.args:
            out.extend(_flatten_and(arg))
        return out
    return [node]


def _column_sides(node: Any) -> Optional[Tuple[Col, Col]]:
    """A raw equi-join conjunct: ``col = col`` across two tables."""
    if isinstance(node, Cmp) and node.op == "=" \
            and isinstance(node.left, Col) and isinstance(node.right, Col):
        return node.left, node.right
    return None


def _refs_of(node: Any) -> List[Ref]:
    if isinstance(node, Ref):
        return [node]
    out: List[Ref] = []
    if isinstance(node, (Arith, Cmp)):
        out.extend(_refs_of(node.left))
        out.extend(_refs_of(node.right))
    elif isinstance(node, RangeTest):
        out.extend(_refs_of(node.expr))
        out.extend(_refs_of(node.lo))
        out.extend(_refs_of(node.hi))
    elif isinstance(node, InList):
        out.extend(_refs_of(node.expr))
    elif isinstance(node, Logic):
        for arg in node.args:
            out.extend(_refs_of(arg))
    elif isinstance(node, Case):
        for cond, result in node.whens:
            out.extend(_refs_of(cond))
            out.extend(_refs_of(result))
        out.extend(_refs_of(node.default))
    elif isinstance(node, AggCall) and node.arg is not None:
        out.extend(_refs_of(node.arg))
    return out


def _range_selectivity(catalog: Catalog, table: str, column: str,
                       lo: Optional[int], hi: Optional[int]) -> float:
    stats = catalog.stats(table, column)
    span = max(1, stats.hi - stats.lo + 1)
    lo = stats.lo if lo is None else max(lo, stats.lo)
    hi = stats.hi if hi is None else min(hi, stats.hi)
    if hi < lo:
        return 0.0
    return min(1.0, (hi - lo + 1) / span)


def range_term(node: Any) -> Optional[Tuple[Ref, Any, Any]]:
    """Read a plain range term as ``(ref, lo, hi)``: a comparison of a
    column with a literal other than ``<>``, or a BETWEEN of literals.
    ``None`` is an open bound; anything else reads as ``None``."""
    if isinstance(node, RangeTest) and isinstance(node.expr, Ref) \
            and isinstance(node.lo, Lit) and isinstance(node.hi, Lit):
        return node.expr, node.lo.value, node.hi.value
    if not (isinstance(node, Cmp) and isinstance(node.left, Ref)
            and isinstance(node.right, Lit)):
        return None
    ref, value = node.left, node.right.value
    if node.op == "=":
        return ref, value, value
    if node.op == "<":
        return ref, None, value - 1
    if node.op == "<=":
        return ref, None, value
    if node.op == ">":
        return ref, value + 1, None
    if node.op == ">=":
        return ref, value, None
    return None


def set_term(node: Any) -> Optional[Tuple[Ref, Tuple]]:
    """Read a plain set term as ``(ref, values)``: a column IN a list
    (the binder admits only literal members); anything else reads as
    ``None``."""
    if isinstance(node, InList) and isinstance(node.expr, Ref):
        return node.expr, tuple(value.value for value in node.values)
    return None


def _conjunct_selectivity(catalog: Catalog, node: Any) -> float:
    """Uniform-distribution selectivity estimate for one conjunct."""
    term = range_term(node)
    if term is not None:
        ref, lo, hi = term
        if isinstance(node, Cmp) and node.op == "=":
            return 1.0 / catalog.stats(ref.table, ref.column).ndv
        return _range_selectivity(catalog, ref.table, ref.column, lo, hi)
    term = set_term(node)
    if term is not None:
        ref, values = term
        stats = catalog.stats(ref.table, ref.column)
        return min(1.0, len(values) / stats.ndv)
    return 0.5


def compile_logical(stmt: SelectStmt, catalog: Catalog,
                    name: str = "query") -> LogicalPlan:
    """Bind + rewrite one parsed SELECT into a :class:`LogicalPlan`."""
    text = stmt.text
    for table in stmt.tables:
        if table not in catalog.tables:
            raise PlanError(f"unknown table {table!r}", query=text,
                            clause="from")

    # 1. Split WHERE into conjuncts; pull out raw equi-join edges.
    conjuncts: List[Any] = []
    if stmt.where is not None:
        conjuncts.extend(_flatten_and(stmt.where))
    for on_expr in stmt.join_ons:
        conjuncts.extend(_flatten_and(on_expr))

    raw_edges: List[Tuple[Col, Col]] = []
    filters: List[Any] = []
    for conjunct in conjuncts:
        sides = _column_sides(conjunct)
        if sides is None:
            filters.append(conjunct)
            continue
        left_table = sides[0].table or catalog.table_of(sides[0].name, text)
        right_table = sides[1].table or catalog.table_of(sides[1].name, text)
        if left_table == right_table:
            filters.append(conjunct)
            continue
        left_pk = catalog.is_pk(left_table, sides[0].name)
        right_pk = catalog.is_pk(right_table, sides[1].name)
        if left_pk == right_pk:
            # Neither (or both) side is a dense pk: not a star edge —
            # keep as a filter (cross-chain equality, e.g. Q5's
            # c_nationkey = s_nationkey).
            filters.append(conjunct)
            continue
        raw_edges.append(sides if right_pk else (sides[1], sides[0]))

    # 2. Orient the join tree: every edge points source.fk -> dim.pk;
    #    the fact is the unique table that is never a dim.
    edges: Dict[str, Tuple[str, str, str]] = {}  # dim -> (src, fk, pk)
    dims = set()
    for fk_col, pk_col in raw_edges:
        src = fk_col.table or catalog.table_of(fk_col.name, text)
        dim = pk_col.table or catalog.table_of(pk_col.name, text)
        if dim in edges:
            raise PlanError(f"table {dim!r} joined twice", query=text,
                            clause="join")
        edges[dim] = (src, fk_col.name, pk_col.name)
        dims.add(dim)
    fact_candidates = [table for table in stmt.tables if table not in dims]
    if len(stmt.tables) == 1:
        fact = stmt.tables[0]
    elif len(fact_candidates) != 1:
        raise PlanError(
            f"cannot identify a unique fact table (candidates: "
            f"{sorted(fact_candidates)})", query=text, clause="join")
    else:
        fact = fact_candidates[0]

    # 3. Chains: BFS from the fact through oriented edges.
    chains: Dict[str, Tuple[Tuple[str, str], ...]] = {fact: ()}
    changed = True
    while changed:
        changed = False
        for dim, (src, fk, _pk) in edges.items():
            if dim not in chains and src in chains:
                chains[dim] = chains[src] + ((fk, dim),)
                changed = True
    for table in stmt.tables:
        if table not in chains:
            raise PlanError(
                f"table {table!r} has no join path to the fact table "
                f"{fact!r}", query=text, clause="join")

    binder = _Binder(catalog, stmt.tables, fact, chains, text)
    for dim, (src, fk, pk) in edges.items():
        binder.reads[(src, fk)] = None
        binder.reads[(dim, pk)] = None

    # 4. Bind and classify the filter conjuncts.
    fact_ranges: List[FactRange] = []
    range_index: Dict[str, int] = {}
    fact_insets: List[Tuple[str, Tuple[int, ...]]] = []
    fact_or: List[Any] = []
    fact_complex: List[Any] = []
    dim_conjuncts: Dict[str, List[Any]] = {}
    cross_eqs: List[Tuple[Ref, Ref]] = []

    def add_range(ref: Ref, lo: Optional[int], hi: Optional[int]) -> None:
        column = ref.column
        if column not in range_index:
            range_index[column] = len(fact_ranges)
            fact_ranges.append(FactRange(column, lo, hi))
            return
        fused = fact_ranges[range_index[column]]
        if lo is not None:
            fused.lo = lo if fused.lo is None else max(fused.lo, lo)
        if hi is not None:
            fused.hi = hi if fused.hi is None else min(fused.hi, hi)

    for raw in filters:
        bound = binder.bind(raw)
        refs = _refs_of(bound)
        if not refs:
            raise PlanError("constant predicate", query=text, clause="where")
        ref_tables = {ref.table for ref in refs}
        if ref_tables == {fact}:
            term = range_term(bound)
            if term is not None:
                add_range(*term)
                continue
            term = set_term(bound)
            if term is not None:
                ref, values = term
                fact_insets.append((ref.column, values))
                continue
            if isinstance(bound, Cmp) and bound.op == "<>" \
                    and isinstance(bound.left, Ref) \
                    and isinstance(bound.right, Lit):
                raise PlanError("<> predicates are not FILT-able",
                                query=text, clause="where")
            if isinstance(bound, Logic) and bound.op == "or":
                if all(range_term(arg) or set_term(arg)
                       for arg in bound.args):
                    fact_or.append(bound)
                    continue
                raise PlanError(
                    "OR is only supported over plain fact-column ranges",
                    query=text, clause="where")
            if isinstance(bound, Cmp) and isinstance(bound.left, Ref) \
                    and isinstance(bound.right, Ref):
                fact_complex.append(bound)
                continue
            raise PlanError(f"unsupported fact predicate "
                            f"{sql_repr(bound)}", query=text, clause="where")
        elif len(ref_tables) == 1:
            table = next(iter(ref_tables))
            dim_conjuncts.setdefault(table, []).append(bound)
        elif isinstance(bound, Cmp) and bound.op == "=" \
                and isinstance(bound.left, Ref) \
                and isinstance(bound.right, Ref):
            cross_eqs.append((bound.left, bound.right))
        else:
            raise PlanError(
                f"predicate spans multiple tables without an equi-join: "
                f"{sql_repr(bound)}", query=text, clause="where")

    # 5. Bind group by / select / order by.
    group_refs: List[Ref] = []
    for expr in stmt.group_by:
        bound = binder.bind(expr)
        if not isinstance(bound, Ref):
            raise PlanError("GROUP BY supports plain columns only",
                            query=text, clause="group by")
        group_refs.append(bound)

    select_items = [(binder.bind(expr), alias)
                    for expr, alias in stmt.items]
    for bound, _alias in select_items:
        if not _contains_agg(bound) and not isinstance(bound, Ref):
            raise PlanError(
                "non-aggregate select expressions must be plain columns",
                query=text, clause="select")

    order_by: List[Tuple[Any, bool]] = []
    for expr, desc in stmt.order_by:
        if isinstance(expr, Col) and expr.table is None:
            # Alias or positional reference resolves against the
            # select list first.
            alias_hit = None
            for item, alias in stmt.items:
                if alias == expr.name:
                    alias_hit = item
                    break
            if alias_hit is not None:
                order_by.append((binder.bind(alias_hit), desc))
                continue
        if isinstance(expr, Lit) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(stmt.items):
                raise PlanError(f"ORDER BY position {expr.value} out of "
                                "range", query=text, clause="order by")
            order_by.append((binder.bind(stmt.items[position][0]), desc))
            continue
        order_by.append((binder.bind(expr), desc))

    # 6. Join ordering by estimated cardinality: probe the most
    #    selective dimension first. Pure planning metadata — semijoin
    #    bitmaps commute — but the recorded order is the one the
    #    physical plan applies its probes in.
    fact_rows = catalog.num_rows(fact)
    selectivity_by_root: Dict[Tuple[str, str], float] = {}
    for table, nodes in dim_conjuncts.items():
        selectivity = 1.0
        for node in nodes:
            selectivity *= _conjunct_selectivity(catalog, node)
        chain = chains[table]
        root = chain[0]  # (fk_on_fact, first_dim)
        selectivity_by_root[root] = (
            selectivity_by_root.get(root, 1.0) * selectivity
        )
    join_order = []
    running = float(fact_rows)
    for root, selectivity in sorted(selectivity_by_root.items(),
                                    key=lambda item: item[1]):
        running *= selectivity
        join_order.append({
            "fact_fk": root[0],
            "dim": root[1],
            "selectivity": round(selectivity, 6),
            "est_rows_after": int(running),
        })

    return LogicalPlan(
        name=name,
        text=text,
        fact=fact,
        tables=list(stmt.tables),
        chains=chains,
        fact_ranges=fact_ranges,
        fact_insets=fact_insets,
        fact_or=fact_or,
        fact_complex=fact_complex,
        dim_conjuncts=dim_conjuncts,
        cross_eqs=cross_eqs,
        group_refs=group_refs,
        select_items=select_items,
        order_by=order_by,
        limit=stmt.limit,
        join_order=join_order,
        reads=sorted(binder.reads),
    )
