"""Physical planner: logical plan -> executable DPU / Xeon operators.

Layers 3 and 4 of the compile pipeline (see ``docs/SQL.md``). The
lowering maps every supported query onto the engine's one fused
physical shape — a single streaming group-by over the fact table:

* fused fact-column ranges / IN lists become scan ``Predicate``s
  (SETFL/SETFH/FILT passes);
* per-dimension filter subtrees fold host-side into semijoin key
  bitmaps, DMS-broadcast and probed per fact row (``key_bitmap``);
* values needed from dimension rows (group keys, aggregate inputs,
  cross-chain equalities) become dense key-indexed lookup arrays,
  broadcast once and indexed by the streamed foreign key;
* GROUP BY lowers to a hardware-partitionable column key, or a
  mixed-radix :class:`GroupKey` over multiple / looked-up columns;
* every bound expression (streamed filters and aggregate inputs,
  dimension conjuncts, cross-chain equalities, the mixed-radix key)
  compiles through one evaluator, ``_Lowering.scalar_fn``, whose
  ``Ref`` reader names the column a reference reads; each caller
  prices the result with its own cost formula;
* the host-side ``finish`` decodes group keys, gathers functionally
  determined columns, evaluates aggregate arithmetic (``avg``,
  ratios), sorts deterministically and applies LIMIT.

The cost model makes two recorded decisions per query: DPU offload vs
the Xeon baseline (``DbmsCostModel`` roofline vs the DPU streaming
estimate) and all-to-all shuffle vs pre-aggregate exchange for the
cluster run (``ShuffleRackModel.job_cycles`` at the target fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...baseline.dbms import DbmsCostModel, ScanShape
from ...baseline.xeon import XeonModel
from ...core.config import DPUConfig
from .aggregate import (
    AggSpec,
    GroupKey,
    GroupTable,
    _needed_columns,
    dpu_groupby,
    fit_broadcasts,
    xeon_groupby,
)
from .costs import AGG_CYCLES_PER_ROW, FILTER_CYCLES_PER_TUPLE
from .engine import DpuOpResult, XeonOpResult
from .expr import And, Between, Ge, InSet, Le, Or, Predicate, RowFilter
from .ir import (
    AggCall,
    Arith,
    Case,
    Catalog,
    Cmp,
    InList,
    Lit,
    Logic,
    LogicalPlan,
    PlanError,
    RangeTest,
    Ref,
    _contains_agg,
    _refs_of,
    range_term,
    set_term,
    sql_repr,
)
from .join import (
    BITMAP_PROBE_CYCLES_PER_ROW,
    LOOKUP_CYCLES_PER_ROW,
    broadcast_array,
    key_bitmap,
)
from .planner import DmemBudget, plan_partitioning
from .table import Table

__all__ = ["CompiledQuery", "lower_plan", "tpch_catalog"]

_XEON_PROBE_OPS_PER_ROW = 4.0
_EXCHANGE_FANOUT = 8  # the cluster width the exchange choice targets


def tpch_catalog(data) -> Catalog:
    """The TPC-H star schema over a generated :class:`TpchData`."""
    from ...workloads.tpch import (
        LINE_STATUSES,
        NATIONS,
        PRIORITIES,
        REGIONS,
        RETURN_FLAGS,
        SEGMENTS,
        SHIP_MODES,
    )

    tables = getattr(data, "tables", data)
    return Catalog(
        tables={name: dict(columns) for name, columns in tables.items()},
        pks={
            "orders": "o_orderkey",
            "customer": "c_custkey",
            "part": "p_partkey",
            "supplier": "s_suppkey",
            "nation": "n_nationkey",
            "region": "r_regionkey",
        },
        dictionaries={
            "l_returnflag": RETURN_FLAGS,
            "l_linestatus": LINE_STATUSES,
            "l_shipmode": SHIP_MODES,
            "c_mktsegment": SEGMENTS,
            "o_orderpriority": PRIORITIES,
        },
        scales={
            "l_extendedprice": 100,
            "l_discount": 100,
            "l_tax": 100,
        },
        aliases={
            "n_name": ("nation", "n_nationkey", NATIONS),
            "r_name": ("region", "r_regionkey", REGIONS),
        },
        prefix_ranges={"p_type": {"PROMO": (0, 24)}},
    )


# -- host-side expression evaluation -----------------------------------------


def _compose_from(catalog: Catalog, chain, column: str,
                  start: int) -> np.ndarray:
    """Dense lookup array for ``column`` of the chain's last table,
    indexed by the primary key of ``chain[start][1]``."""
    arr = catalog.column(chain[-1][1], column)
    for index in range(len(chain) - 1, start, -1):
        prev_table = chain[index - 1][1]
        fk = chain[index][0]
        arr = arr[catalog.column(prev_table, fk)]
    return arr


class _Lowering:
    """Per-query lowering context: broadcast registry + closures."""

    def __init__(self, plan: LogicalPlan, catalog: Catalog) -> None:
        self.plan = plan
        self.catalog = catalog
        self.broadcasts: List[Tuple[str, np.ndarray]] = []
        self._lookup_cache: Dict[Tuple, Tuple[str, np.ndarray]] = {}
        self.num_probes = 0
        self.num_lookups = 0

    def lookup_array(self, ref: Ref) -> Tuple[str, np.ndarray]:
        """Register (once) the fact-indexed lookup array for a chained
        ref; returns ``(fact_fk_column, array)``."""
        cache_key = (ref.chain, ref.column)
        if cache_key not in self._lookup_cache:
            arr = _compose_from(self.catalog, ref.chain, ref.column, 0)
            name = f"lk_{ref.chain[0][0]}_{ref.column}"
            self.broadcasts.append((name, arr))
            self._lookup_cache[cache_key] = (ref.chain[0][0], arr)
            self.num_lookups += 1
        return self._lookup_cache[cache_key]

    def streamed(self, ref: Ref) -> Tuple[str, Optional[np.ndarray]]:
        """The streamed fact column ``ref`` reads, and the lookup array
        that column indexes (``None`` for a plain fact column)."""
        if not ref.chain:
            return ref.column, None
        return self.lookup_array(ref)

    def scalar_fn(self, node: Any, read: Optional[Callable] = None
                  ) -> Tuple[Callable, List[str]]:
        """Compile a bound scalar AST into ``fn(columns)`` returning an
        int64 (or boolean) ndarray; also returns the columns it reads,
        in first-use order. ``read(ref) -> (column, lookup array or
        None)`` says where a ``Ref`` comes from: by default the
        streamed fact columns (:meth:`streamed`)."""
        read = read or self.streamed
        columns: List[str] = []

        def need(column: str) -> None:
            if column not in columns:
                columns.append(column)

        def compile_node(node: Any) -> Callable:
            if isinstance(node, Ref):
                column, arr = read(node)
                need(column)
                if arr is None:
                    return lambda c: c[column].astype(np.int64)
                return lambda c: arr[c[column].astype(np.int64)].astype(
                    np.int64)
            if isinstance(node, Lit):
                value = node.value
                return lambda c: value
            if isinstance(node, Arith):
                if node.op == "/":
                    raise PlanError(
                        "division inside expressions is not supported "
                        "(divide aggregates instead)",
                        query=self.plan.text, clause="expression")
                left, right = compile_node(node.left), compile_node(node.right)
                op = node.op
                if op == "+":
                    return lambda c: left(c) + right(c)
                if op == "-":
                    return lambda c: left(c) - right(c)
                return lambda c: left(c) * right(c)
            if isinstance(node, Cmp):
                left, right = compile_node(node.left), compile_node(node.right)
                op = node.op
                ops = {
                    "=": lambda a, b: a == b,
                    "<>": lambda a, b: a != b,
                    "<": lambda a, b: a < b,
                    "<=": lambda a, b: a <= b,
                    ">": lambda a, b: a > b,
                    ">=": lambda a, b: a >= b,
                }[op]
                return lambda c: ops(left(c), right(c))
            if isinstance(node, RangeTest):
                expr = compile_node(node.expr)
                lo, hi = compile_node(node.lo), compile_node(node.hi)
                return lambda c: (expr(c) >= lo(c)) & (expr(c) <= hi(c))
            if isinstance(node, InList):
                expr = compile_node(node.expr)
                # A member that is not an integer matches nothing.
                values = np.asarray([v.value for v in node.values])
                return lambda c: np.isin(expr(c), values)
            if isinstance(node, Logic):
                parts = [compile_node(arg) for arg in node.args]
                if node.op == "and":
                    def all_fn(c, parts=parts):
                        out = parts[0](c)
                        for part in parts[1:]:
                            out = out & part(c)
                        return out
                    return all_fn

                def any_fn(c, parts=parts):
                    out = parts[0](c)
                    for part in parts[1:]:
                        out = out | part(c)
                    return out
                return any_fn
            if isinstance(node, Case):
                whens = [(compile_node(cond), compile_node(result))
                         for cond, result in node.whens]
                default = compile_node(node.default)

                def case_fn(c, whens=whens, default=default):
                    out = np.asarray(default(c))
                    for cond, result in reversed(whens):
                        out = np.where(cond(c), result(c), out)
                    return out.astype(np.int64)
                return case_fn
            raise PlanError(
                f"unsupported expression {sql_repr(node)}",
                query=self.plan.text, clause="expression")

        return compile_node(node), columns

    def expr_costs(self, node: Any) -> Tuple[int, int]:
        """(lookup count, op count) of a bound scalar expression."""
        lookups: set = set()

        def walk(node: Any) -> int:
            if isinstance(node, Ref):
                if node.chain:
                    lookups.add((node.chain, node.column))
                return 0
            if isinstance(node, Lit):
                return 0
            if isinstance(node, (Arith, Cmp)):
                return 1 + walk(node.left) + walk(node.right)
            if isinstance(node, RangeTest):
                return 1 + walk(node.expr) + walk(node.lo) + walk(node.hi)
            if isinstance(node, InList):
                return len(node.values) + walk(node.expr)
            if isinstance(node, Logic):
                return len(node.args) - 1 + sum(walk(a) for a in node.args)
            if isinstance(node, Case):
                ops = len(node.whens) + walk(node.default)
                for cond, result in node.whens:
                    ops += walk(cond) + walk(result)
                return ops
            return 0

        ops = walk(node)
        return len(lookups), ops


def _own_column(ref: Ref) -> Tuple[str, None]:
    """The ``Ref`` reader of a dimension conjunct: the column of the
    dimension's own table."""
    return ref.column, None


# -- group-key lowering -------------------------------------------------------


@dataclass
class _KeyItem:
    ref: Ref
    lo: int
    span: int
    multiplier: int = 1


def _determines(a: Ref, b: Ref, catalog: Catalog) -> bool:
    """True if group-key ref ``a`` functionally determines ref ``b``."""
    if not a.chain:
        # A plain fact column determines chained refs whose first hop
        # streams that column (it is the fk; the dim pk is dense).
        return bool(b.chain) and b.chain[0][0] == a.column
    if catalog.is_pk(a.table, a.column):
        return len(b.chain) >= len(a.chain) \
            and b.chain[:len(a.chain)] == a.chain
    return False


# -- the compiled query -------------------------------------------------------


@dataclass
class CompiledQuery:
    """An executable physical plan for one SQL query.

    Runs three ways: :meth:`run_xeon` (baseline cost model +
    functional numpy), :meth:`run_dpu` (single simulated DPU), and —
    through :func:`repro.cluster.scaleout.cluster_compiled_query` —
    on a 2/4/8-DPU cluster, each shard or shuffle slot computing what
    :meth:`run_local` computes. All three produce byte-equal
    ``finish`` output.
    """

    name: str
    sql: str
    fact: str
    key: Union[str, GroupKey]
    key_column: Optional[str]  # set iff the key shuffles by a column
    aggs: List[AggSpec]
    row_filter: Optional[RowFilter]
    broadcasts: List[Tuple[str, np.ndarray]]
    needed_columns: List[str]
    finish: Callable[[GroupTable], Tuple]
    plan: Dict[str, Any]
    record_bytes: int
    logical: LogicalPlan = field(repr=False, default=None)
    # The (table, column) pairs the plan reads (LogicalPlan.reads) and
    # the catalog version of each at lowering time: broadcasts,
    # statistics and finish gathers were built from exactly these
    # columns, so the plan stays valid until one of them is written.
    reads: Tuple[Tuple[str, str], ...] = ()
    read_versions: Tuple[int, ...] = ()

    @property
    def data_version(self) -> int:
        """The newest version among the plan's reads: what the serving
        caches key on (see repro.serve)."""
        return max(self.read_versions, default=0)

    @property
    def batch_key(self) -> str:
        """Shared-scan compatibility class: the fact table.

        Queries with equal keys stream the same fact table, so a
        serving batch can store the union of their needed columns
        once per DPU and run each query's group-by against that single
        resident copy
        (:func:`~repro.cluster.scaleout.cluster_batched_queries`, which
        also rejects members that recorded different versions of a
        column they both read). Every query can batch under
        ``pre_aggregate``; all-to-all plans give up their
        planner-chosen exchange when batched.
        """
        return self.fact

    # -- execution ------------------------------------------------------
    def _fact_columns(self, data) -> Dict[str, np.ndarray]:
        tables = getattr(data, "tables", data)
        fact = tables[self.fact]
        return {name: fact[name] for name in self.needed_columns}

    def _dpu_broadcasts(self, dpu) -> Tuple:
        return tuple(
            broadcast_array(dpu, name, arr)[0]
            for name, arr in self.broadcasts
        )

    def run_dpu(self, dpu, data) -> DpuOpResult:
        table = Table(self.fact, self._fact_columns(data))
        with dpu.heap.scope():  # the columns and broadcasts it stores
            result = dpu_groupby(
                dpu, table.to_dpu(dpu), self.key, self.aggs,
                row_filter=self.row_filter,
                broadcasts=self._dpu_broadcasts(dpu),
            )
        return DpuOpResult(
            value=self.finish(result.value),
            cycles=result.cycles,
            config=result.config,
            bytes_streamed=result.bytes_streamed,
            detail={**result.detail, "groups": len(result.value)},
        )

    def run_xeon(self, model: XeonModel, data) -> XeonOpResult:
        table = Table(self.fact, self._fact_columns(data))
        functional = xeon_groupby(
            model, table, self.key, self.aggs, row_filter=self.row_filter,
        )
        dbms = DbmsCostModel(model)
        seconds = dbms.plan_seconds([self.scan_shape(table.num_rows,
                                                     table.nbytes())])
        return XeonOpResult(
            value=self.finish(functional.value),
            seconds=seconds,
            bytes_streamed=table.nbytes(),
            detail={"roofline_seconds": functional.seconds,
                    "groups": len(functional.value)},
        )

    def run_auto(self, dpu, model: XeonModel, data):
        """Execute on the side the offload decision picked."""
        if self.plan["offload"]["choice"] == "dpu":
            return self.run_dpu(dpu, data)
        return self.run_xeon(model, data)

    def run_local(self, dpu, columns: Dict[str, np.ndarray],
                  shard_name: str = "shard") -> Tuple[GroupTable, float]:
        """One shard / shuffle slot of a cluster run, standalone: raw
        partial groups + cycles (the coordinator merges and finishes).
        The cluster jobs run it as the one-query case of their shared
        scan, with equal partials and cycles."""
        if not columns or len(next(iter(columns.values()))) == 0:
            return {}, 0.0
        table = Table(
            f"{self.fact}_{shard_name}",
            {name: columns[name] for name in self.needed_columns},
        )
        with dpu.heap.scope():
            result = dpu_groupby(
                dpu, table.to_dpu(dpu), self.key, self.aggs,
                row_filter=self.row_filter,
                broadcasts=self._dpu_broadcasts(dpu),
            )
        return result.value, result.cycles

    def scan_shape(self, rows: int, nbytes: int) -> ScanShape:
        return ScanShape(
            rows=rows,
            nbytes=nbytes,
            filter_terms=self.plan["filter_terms"],
            aggregates=len(self.aggs),
            groupby=self.plan["groupby"],
            join_probes=self.plan["join_probes"],
        )


# -- lowering -----------------------------------------------------------------


def _range_predicate(column: str, lo, hi) -> Predicate:
    """One FILT range term; ``None`` is an open bound."""
    if lo is None:
        return Le(column, hi)
    if hi is None:
        return Ge(column, lo)
    return Between(column, lo, hi)


def _term_predicate(node: Any) -> Predicate:
    """The scan predicate of one OR arm (a plain range or set term)."""
    term = range_term(node)
    if term is not None:
        ref, lo, hi = term
        return _range_predicate(ref.column, lo, hi)
    ref, values = set_term(node)
    return InSet(ref.column, values)


def _plain_predicates(plan: LogicalPlan) -> List[Predicate]:
    preds: List[Predicate] = [
        _range_predicate(fused.column, fused.lo, fused.hi)
        for fused in plan.fact_ranges
    ]
    preds += [InSet(column, values) for column, values in plan.fact_insets]
    preds += [Or([_term_predicate(arg) for arg in node.args])
              for node in plan.fact_or]
    return preds


def _build_semijoins(plan: LogicalPlan, catalog: Catalog,
                     ctx: _Lowering) -> List[Tuple[str, np.ndarray]]:
    """One packed bitmap per fact foreign key whose dimension subtree
    carries filters; deeper-dimension filters fold host-side."""
    if not plan.dim_conjuncts:
        return []
    children: Dict[str, List[Tuple[str, str]]] = {}
    for table, chain in plan.chains.items():
        if not chain:
            continue
        parent = plan.fact if len(chain) == 1 else chain[-2][1]
        children.setdefault(parent, []).append((chain[-1][0], table))

    relevant = set()
    for table in plan.dim_conjuncts:
        chain = plan.chains[table]
        for depth in range(1, len(chain) + 1):
            relevant.add(chain[depth - 1][1])

    def table_mask(table: str) -> np.ndarray:
        mask = np.ones(catalog.num_rows(table), dtype=bool)
        columns = catalog.tables[table]
        for conjunct in plan.dim_conjuncts.get(table, []):
            fn, _reads = ctx.scalar_fn(conjunct, read=_own_column)
            mask &= np.asarray(fn(columns), dtype=bool)
        for fk, child in children.get(table, []):
            if child in relevant:
                child_mask = table_mask(child)
                mask &= child_mask[columns[fk].astype(np.int64)]
        return mask

    probes: List[Tuple[str, np.ndarray]] = []
    # join_order lists roots most-selective-first; apply in that order.
    ordered_roots = [(entry["fact_fk"], entry["dim"])
                     for entry in plan.join_order]
    for fk, dim in ordered_roots:
        if dim not in relevant:
            continue
        mask = table_mask(dim)
        selected = np.nonzero(mask)[0]
        if len(selected) == 0:
            # Degenerate empty semijoin: keep a valid all-zero bitmap.
            words = np.zeros(max(1, -(-catalog.num_rows(dim) // 64)),
                             dtype=np.uint64)
        else:
            words = key_bitmap(selected, catalog.num_rows(dim))
        ctx.broadcasts.append((f"sj_{fk}", words))
        ctx.num_probes += 1
        probes.append((fk, words))
    return probes


def _build_row_filter(plan: LogicalPlan, plains: List[Predicate],
                      catalog: Catalog,
                      ctx: _Lowering) -> Optional[RowFilter]:
    probes = _build_semijoins(plan, catalog, ctx)
    cross_fns = [ctx.scalar_fn(Cmp("=", left, right))
                 for left, right in plan.cross_eqs]
    complex_fns = [ctx.scalar_fn(node) for node in plan.fact_complex]

    plain_pred = None
    if plains:
        plain_pred = plains[0] if len(plains) == 1 else And(plains)
    if not probes and not cross_fns and not complex_fns:
        return plain_pred

    columns = dict.fromkeys(plain_pred.columns if plain_pred else ())
    for reads in ([reads for _fn, reads in complex_fns]
                  + [[fk] for fk, _words in probes]
                  + [reads for _fn, reads in cross_fns]):
        columns.update(dict.fromkeys(reads))

    probe_bits = [
        (fk, np.unpackbits(words.view(np.uint8), bitorder="little"))
        for fk, words in probes
    ]
    term_fns = [fn for fn, _reads in cross_fns + complex_fns]

    def mask_fn(streamed, plain_pred=plain_pred, probe_bits=probe_bits,
                term_fns=term_fns):
        rows = len(next(iter(streamed.values())))
        mask = np.ones(rows, dtype=bool)
        if plain_pred is not None:
            mask &= plain_pred.mask_fn(streamed)
        for fk, bits in probe_bits:
            keys = streamed[fk].astype(np.int64)
            mask &= bits[keys].astype(bool)
        for fn in term_fns:
            mask &= np.asarray(fn(streamed), dtype=bool)
        return mask

    dpu_cycles = plain_pred.dpu_cycles_per_row if plain_pred else 0.0
    xeon_ops = plain_pred.xeon_ops_per_row if plain_pred else 0.0
    dpu_cycles += BITMAP_PROBE_CYCLES_PER_ROW * len(probes)
    xeon_ops += _XEON_PROBE_OPS_PER_ROW * len(probes)
    for left, right in plan.cross_eqs:
        lookups = sum(1 for ref in (left, right) if ref.chain)
        dpu_cycles += LOOKUP_CYCLES_PER_ROW * lookups + 1.0
        xeon_ops += 2.0 * lookups + 1.0
    for node in plan.fact_complex:
        _lookups, ops = ctx.expr_costs(node)
        dpu_cycles += FILTER_CYCLES_PER_TUPLE * max(1, ops)
        xeon_ops += 0.25 * max(1, ops)

    return RowFilter(
        mask_fn=mask_fn,
        columns=tuple(columns),
        dpu_cycles_per_row=dpu_cycles,
        xeon_ops_per_row=xeon_ops,
    )


def _build_key(plan: LogicalPlan, catalog: Catalog, ctx: _Lowering,
               row_filter: Optional[RowFilter]):
    """Lower GROUP BY -> (key, key_items, key_column)."""
    key_refs: List[Ref] = []
    for ref in plan.group_refs:
        if any(existing == ref or _determines(existing, ref, catalog)
               for existing in key_refs):
            continue
        # Drop previously added refs this one determines (keep the
        # determinant, not the dependent).
        key_refs = [r for r in key_refs if not _determines(ref, r, catalog)]
        key_refs.append(ref)
    items: List[_KeyItem] = []
    for ref in key_refs:
        if not ref.chain:
            stats = catalog.stats(plan.fact, ref.column)
            lo, hi = stats.lo, stats.hi
        else:
            _fk, arr = ctx.lookup_array(ref)
            lo = int(arr.min()) if len(arr) else 0
            hi = int(arr.max()) if len(arr) else 0
        items.append(_KeyItem(ref=ref, lo=lo, span=hi - lo + 1))

    if not items:
        # Scalar aggregate: a constant key over the first column the
        # select items stream, else the row filter's first column.
        anchors = [ref.chain[0][0] if ref.chain else ref.column
                   for bound, _alias in plan.select_items
                   for ref in _refs_of(bound)]
        if row_filter is not None:
            anchors += row_filter.columns
        if not anchors:
            raise PlanError("query reads no columns", query=plan.text,
                            clause="select")
        anchor = anchors[0]
        key = GroupKey(
            fn=lambda c: np.zeros(len(c[anchor]), dtype=np.int64),
            columns=(anchor,),
            cycles_per_row=0.0,
            name="const",
        )
        return key, items, None

    if len(items) == 1 and not items[0].ref.chain:
        column = items[0].ref.column
        return column, items, column

    # Mixed radix: the key is the expression sum((ref - lo) * multiplier).
    multiplier = 1
    for item in reversed(items):
        item.multiplier = multiplier
        multiplier *= item.span
    expr = None
    for item in items:
        term = Arith("*", Arith("-", item.ref, Lit(item.lo)),
                     Lit(item.multiplier))
        expr = term if expr is None else Arith("+", expr, term)
    key_fn, columns = ctx.scalar_fn(expr)

    lookup_count = sum(1 for item in items if item.ref.chain)
    cycles = 2.0 * lookup_count + max(0, len(items) - 1) * 1.0
    name = "k_" + "_".join(item.ref.column for item in items)
    key = GroupKey(fn=key_fn, columns=tuple(columns), cycles_per_row=cycles,
                   name=name)
    return key, items, None


# Select arithmetic over aggregate values; dividing by zero reads 0.
_SLOT_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else 0.0,
}


def _build_aggs(plan: LogicalPlan, ctx: _Lowering):
    """Aggregate slots (deduped across select items; avg -> sum+count)
    and the per-select output specs."""
    slots: List[AggSpec] = []
    slot_index: Dict[str, int] = {}

    def add_slot(call: AggCall) -> int:
        repr_key = sql_repr(call)
        if repr_key in slot_index:
            return slot_index[repr_key]
        if call.fn == "count":
            spec = AggSpec("count")
        elif isinstance(call.arg, Ref) and not call.arg.chain:
            spec = AggSpec(call.fn, column=call.arg.column)
        else:
            fn, columns = ctx.scalar_fn(call.arg)
            lookups, ops = ctx.expr_costs(call.arg)
            spec = AggSpec(
                call.fn,
                expr=fn,
                expr_columns=tuple(columns),
                expr_cycles_per_row=2.0 * lookups + max(2.0, float(ops)),
            )
        slot_index[repr_key] = len(slots)
        slots.append(spec)
        return slot_index[repr_key]

    def agg_value_fn(node: Any) -> Callable:
        """Compile select-item arithmetic over aggregate slots. A slot
        reads None (SQL NULL) only in a scalar query over no rows,
        and so does any arithmetic over it, ``avg`` included."""
        if isinstance(node, AggCall):
            if node.fn == "avg":
                sum_slot = add_slot(AggCall("sum", node.arg))
                count_slot = add_slot(AggCall("count", None))
                return lambda slots_: (
                    slots_[sum_slot] / slots_[count_slot]
                    if slots_[count_slot] else None)
            index = add_slot(node)
            return lambda slots_: slots_[index]
        if isinstance(node, Lit):
            return lambda slots_: node.value
        if isinstance(node, Arith):
            left, right = agg_value_fn(node.left), agg_value_fn(node.right)
            combine = _SLOT_ARITH[node.op]

            def arith(slots_):
                a, b = left(slots_), right(slots_)
                return None if a is None or b is None else combine(a, b)
            return arith
        raise PlanError(
            f"unsupported aggregate select expression {sql_repr(node)}",
            query=plan.text, clause="select")

    return slots, agg_value_fn


def lower_plan(plan: LogicalPlan, catalog: Catalog) -> CompiledQuery:
    """Lower an optimized :class:`LogicalPlan` to a
    :class:`CompiledQuery`, making the cost-based physical choices."""
    ctx = _Lowering(plan, catalog)
    plains = _plain_predicates(plan)
    row_filter = _build_row_filter(plan, plains, catalog, ctx)
    key, key_items, key_column = _build_key(plan, catalog, ctx, row_filter)
    slots, agg_value_fn = _build_aggs(plan, ctx)

    # -- output specs ---------------------------------------------------
    output_fns: List[Callable] = []
    for bound, _alias in plan.select_items:
        if _contains_agg(bound):
            fn = agg_value_fn(bound)
            output_fns.append(
                lambda vals, slots_, fn=fn: fn(slots_))
            continue
        ref = bound
        matched = False
        for index, item in enumerate(key_items):
            if item.ref == ref:
                output_fns.append(
                    lambda vals, slots_, index=index: vals[index])
                matched = True
                break
        if matched:
            continue
        for index, item in enumerate(key_items):
            if _determines(item.ref, ref, catalog):
                if not item.ref.chain:
                    arr = _compose_from(catalog, ref.chain, ref.column, 0)
                else:
                    arr = _compose_from(catalog, ref.chain, ref.column,
                                        len(item.ref.chain) - 1)
                output_fns.append(
                    lambda vals, slots_, arr=arr, index=index:
                    int(arr[vals[index]]))
                matched = True
                break
        if not matched:
            raise PlanError(
                f"select column {sql_repr(ref)} is neither grouped nor "
                "determined by the group key", query=plan.text,
                clause="select")

    if not slots:
        raise PlanError("query computes no aggregates (only aggregate "
                        "queries are supported)", query=plan.text,
                        clause="select")

    # -- ORDER BY -> output indices -------------------------------------
    select_reprs = [sql_repr(bound) for bound, _alias in plan.select_items]
    sort_specs: List[Tuple[int, bool]] = []
    for expr, desc in plan.order_by:
        repr_key = sql_repr(expr)
        if repr_key not in select_reprs:
            raise PlanError(
                f"ORDER BY expression {repr_key} is not in the select "
                "list", query=plan.text, clause="order by")
        sort_specs.append((select_reprs.index(repr_key), desc))

    # -- finish ---------------------------------------------------------
    decode_items = [(item.lo, item.multiplier) for item in key_items]
    single_column_key = key_column is not None
    limit = plan.limit
    # SQL's one row of a scalar query over no rows: count reads 0,
    # every other aggregate NULL.
    no_rows = (None if key_items else
               {0: [0 if spec.op == "count" else None for spec in slots]})

    def finish(groups: GroupTable) -> Tuple:
        groups = groups or no_rows or {}
        rows = []
        for key_value in sorted(groups):
            slots_ = groups[key_value]
            if single_column_key:
                vals = [int(key_value)]
            elif decode_items:
                vals = []
                remaining = int(key_value)
                for lo, multiplier in decode_items:
                    quotient, remaining = divmod(remaining, multiplier)
                    vals.append(quotient + lo)
            else:
                vals = []
            rows.append(tuple(fn(vals, slots_) for fn in output_fns))
        if sort_specs and len(rows) > 1:
            rows.sort(key=lambda row: tuple(
                [-row[index] if desc else row[index]
                 for index, desc in sort_specs] + list(row)))
        if limit is not None:
            rows = rows[:limit]
        return tuple(rows)

    # -- budgets --------------------------------------------------------
    fact_columns = catalog.tables[plan.fact]
    needed = _needed_columns(key, slots, row_filter)
    rows = catalog.num_rows(plan.fact)
    if isinstance(key, GroupKey):
        key_values = key.fn({name: fact_columns[name]
                             for name in key.columns})
    else:
        key_values = fact_columns[key]
    ndv = int(len(np.unique(key_values))) if rows else 1
    record_bytes = 8 + 8 * len(slots)
    partition_plan = plan_partitioning(ndv, record_bytes, DmemBudget())
    broadcast_bytes = sum(arr.nbytes for _name, arr in ctx.broadcasts)
    if partition_plan.partitions_needed > 1 and isinstance(key, GroupKey):
        raise PlanError(
            f"computed group key needs {partition_plan.partitions_needed}"
            " hardware partitions, which the DMS partitioner cannot "
            "drive", query=plan.text, clause="group by")
    try:
        fit_broadcasts(partition_plan.partitions_needed,
                       sum(fact_columns[name].itemsize for name in needed),
                       broadcast_bytes)
    except ValueError as error:
        raise PlanError(str(error), query=plan.text,
                        clause="broadcast footprint") from None

    # -- cost model: offload decision -----------------------------------
    nbytes = sum(fact_columns[name].nbytes for name in needed)
    filter_cycles = row_filter.dpu_cycles_per_row if row_filter else 0.0
    key_cycles = key.cycles_per_row if isinstance(key, GroupKey) else 2.0
    agg_cycles = AGG_CYCLES_PER_ROW + sum(
        spec.expr_cycles_per_row for spec in slots)
    cycles_per_row = filter_cycles + key_cycles + agg_cycles
    dpu_config = DPUConfig()
    dpu_seconds = max(
        rows * cycles_per_row / dpu_config.num_cores,
        nbytes / dpu_config.ddr_peak_bytes_per_cycle,
    ) / dpu_config.clock_hz

    groupby_flag = bool(plan.group_refs)
    plan_dict: Dict[str, Any] = {
        "query": plan.name,
        "fact": plan.fact,
        "needed_columns": list(needed),
        "filter_terms": sum(pred.filt_terms() for pred in plains)
        + len(plan.fact_complex) + len(plan.cross_eqs),
        "join_probes": ctx.num_probes + ctx.num_lookups,
        "groupby": groupby_flag,
        "ndv": ndv,
        "record_bytes": record_bytes,
        "partitions_needed": partition_plan.partitions_needed,
        "broadcast_bytes": int(broadcast_bytes),
        "broadcasts": [
            {"name": name, "nbytes": int(arr.nbytes)}
            for name, arr in ctx.broadcasts
        ],
        "key": key if isinstance(key, str) else {
            "kind": "const" if not key_items else "computed",
            "name": key.name,
            "columns": list(key.columns),
            "cycles_per_row": key.cycles_per_row,
        },
        "aggregates": [spec.name for spec in slots],
        "filter_cycles_per_row": round(filter_cycles, 6),
        "cycles_per_row": round(cycles_per_row, 6),
    }

    compiled = CompiledQuery(
        name=plan.name,
        sql=plan.text,
        fact=plan.fact,
        key=key,
        key_column=key_column,
        aggs=slots,
        row_filter=row_filter,
        broadcasts=ctx.broadcasts,
        needed_columns=list(needed),
        finish=finish,
        plan=plan_dict,
        record_bytes=record_bytes,
        logical=plan,
        reads=tuple(plan.reads),
        read_versions=tuple(catalog.column_version(table, column)
                            for table, column in plan.reads),
    )

    xeon_seconds = DbmsCostModel(XeonModel()).plan_seconds(
        [compiled.scan_shape(rows, nbytes)])
    plan_dict["offload"] = {
        "rows": rows,
        "nbytes": int(nbytes),
        "dpu_seconds": dpu_seconds,
        "xeon_seconds": xeon_seconds,
        "choice": "dpu" if dpu_seconds < xeon_seconds else "xeon",
    }
    plan_dict["exchange"] = _plan_exchange(
        compiled, rows, ndv, fact_columns, needed)
    plan_dict["logical"] = plan.describe()
    return compiled


def _plan_exchange(compiled: CompiledQuery, rows: int, ndv: int,
                   fact_columns: Dict[str, np.ndarray],
                   needed: Sequence[str]) -> Dict[str, Any]:
    """Pick all-to-all shuffle vs pre-aggregate exchange at the target
    cluster width, priced by :class:`ShuffleRackModel`."""
    from ...cluster.shuffle import ShuffleRackModel

    row_bytes = sum(fact_columns[name].dtype.itemsize for name in needed)
    groups_bytes = max(64, ndv * compiled.record_bytes)
    pre_model = ShuffleRackModel(
        total_rows=rows, record_bytes=row_bytes,
        result_bytes=groups_bytes, all_to_all=False)
    all_model = ShuffleRackModel(
        total_rows=rows, record_bytes=row_bytes,
        result_bytes=max(64, groups_bytes // _EXCHANGE_FANOUT),
        all_to_all=True)
    pre_cycles = pre_model.job_cycles(_EXCHANGE_FANOUT)
    all_cycles = all_model.job_cycles(_EXCHANGE_FANOUT)
    if compiled.key_column is None:
        choice = "pre_aggregate"
        reason = "computed group key cannot repartition by column"
    elif all_cycles < pre_cycles:
        choice = "all_to_all"
        reason = "all-to-all is cheaper at the target fan-out"
    else:
        choice = "pre_aggregate"
        reason = "partial-aggregate gather is cheaper than repartitioning"
    return {
        "fanout": _EXCHANGE_FANOUT,
        "row_bytes": row_bytes,
        "result_bytes_pre": groups_bytes,
        "result_bytes_all": max(64, groups_bytes // _EXCHANGE_FANOUT),
        "pre_aggregate_cycles": pre_cycles,
        "all_to_all_cycles": all_cycles,
        "choice": choice,
        "reason": reason,
    }
