"""Differential test of the compiled SQL path over a star schema.

Seeded queries over one fact table ``f`` and two dense-primary-key
dimensions (``dim1``, ``dim2``) draw what a bound expression can hold
outside a plain fact term: dimension conjuncts over ``+ - *``, every
comparison (against a literal and between two columns), ``BETWEEN``,
``IN`` and ``AND``/``OR``; an optional equality across the two
dimensions or between a fact and a dimension column; a group key of
fact and dimension columns; and an aggregate over a looked-up column.
The compiled DPU plan, the compiled Xeon plan and a numpy oracle, which
joins every dimension column onto the fact rows and evaluates the
query there, must return the same rows, value for value and type for
type.
"""

import random

import numpy as np
import pytest

from repro.apps.sql import compile_query
from repro.apps.sql.ir import Catalog
from repro.baseline import XeonModel
from repro.core import DPU

SEEDS = list(range(16))

_COMPARISONS = {"=": np.equal, "<>": np.not_equal, "<": np.less,
                "<=": np.less_equal, ">": np.greater,
                ">=": np.greater_equal}
_KEYS = [[], ["g"], ["a1"], ["g", "b2"], ["a1", "b2"], ["b2", "g", "a1"]]
_CROSS = {
    "a1 = a2": lambda c: c["a1"] == c["a2"],
    "g = a1": lambda c: c["g"] == c["a1"],
    "b2 = g": lambda c: c["b2"] == c["g"],
}
_AGGS = {
    "sum(v)": lambda c, m: float(c["v"][m].sum()),
    "count(*)": lambda c, m: int(m.sum()),
    "sum(v * b1)": lambda c, m: float((c["v"] * c["b1"])[m].sum()),
}


def _tables(seed):
    """One fact table and two dimensions keyed by ``arange`` ids."""
    rng = np.random.default_rng(seed)
    tables = {}
    for d in (1, 2):
        rows = int(rng.integers(20, 60))
        tables[f"dim{d}"] = {
            f"d{d}_id": np.arange(rows, dtype=np.int32),
            f"a{d}": rng.integers(0, 8, rows).astype(np.int32),
            f"b{d}": rng.integers(0, 6, rows).astype(np.int32),
        }
    rows = int(rng.integers(300, 1200))
    tables["f"] = {
        "d1k": rng.integers(0, len(tables["dim1"]["d1_id"]), rows)
        .astype(np.int32),
        "d2k": rng.integers(0, len(tables["dim2"]["d2_id"]), rows)
        .astype(np.int32),
        "g": rng.integers(0, 4, rows).astype(np.int32),
        "v": rng.integers(0, 100, rows).astype(np.int32),
    }
    return tables


def _operand(gen, d, tags):
    """An integer expression over dimension ``d``: (sql, fn)."""
    a, b = f"a{d}", f"b{d}"
    kind = gen.randrange(5)
    if kind == 0:
        return a, lambda c: c[a]
    if kind == 1:
        tags.add("+")
        return f"{a} + {b}", lambda c: c[a] + c[b]
    if kind == 2:
        tags.add("-")
        return f"{a} - {b}", lambda c: c[a] - c[b]
    tags.add("*")
    if kind == 3:
        k = gen.randrange(2, 4)
        return f"{b} * {k}", lambda c: c[b] * k
    return f"{a} * {b} - {b}", lambda c: c[a] * c[b] - c[b]


def _leaf(gen, d, dim, tags):
    """One comparison, BETWEEN or IN over dimension ``d``; literals are
    values the operand takes on the dimension's rows ``dim``, so every
    comparison has rows on its boundary."""
    kind = gen.randrange(4)
    sql, fn = _operand(gen, d, tags)
    taken = fn(dim).tolist()
    if kind == 2:
        tags.add("between")
        low, high = sorted(gen.sample(taken, 2))
        return (f"{sql} between {low} and {high}",
                lambda c: (fn(c) >= low) & (fn(c) <= high))
    if kind == 3:
        tags.add("in")
        members = sorted(set(gen.sample(taken, gen.randrange(1, 4))))
        return (f"{sql} in ({', '.join(map(str, members))})",
                lambda c: np.isin(fn(c), members))
    op = gen.choice(sorted(_COMPARISONS))
    tags.add(op)
    compare = _COMPARISONS[op]
    if kind == 0:
        value = gen.choice(taken)
        return f"{sql} {op} {value}", lambda c: compare(fn(c), value)
    tags.add("column")
    other = f"b{d}"
    return (f"{sql} {op} {other}",
            lambda c: compare(fn(c), c[other]))


def _conjunct(gen, d, dim, tags):
    """A leaf, or an OR of leaves and ANDs of two leaves (a top-level
    AND would split into conjuncts, so ANDs appear under an OR)."""
    if gen.random() < 0.5:
        return _leaf(gen, d, dim, tags)
    tags.add("or")
    arms = []
    for _ in range(gen.randrange(2, 4)):
        if gen.random() < 0.4:
            tags.add("and")
            (left, lfn), (right, rfn) = (_leaf(gen, d, dim, tags),
                                         _leaf(gen, d, dim, tags))
            arms.append((f"({left} and {right})",
                         lambda c, lfn=lfn, rfn=rfn: lfn(c) & rfn(c)))
        else:
            arms.append(_leaf(gen, d, dim, tags))
    return ("(" + " or ".join(sql for sql, _fn in arms) + ")",
            lambda c: np.logical_or.reduce([fn(c) for _sql, fn in arms]))


def _draw(seed, tables):
    """(sql, conjuncts, group columns, aggregate names, tags)."""
    gen = random.Random(seed)
    tags = set()
    conjuncts = []
    for d in (1, 2):
        dim = {name: col.astype(np.int64)
               for name, col in tables[f"dim{d}"].items()}
        for _ in range(gen.randrange(3)):
            conjuncts.append(_conjunct(gen, d, dim, tags))
    if gen.random() < 0.6:
        cross = gen.choice(sorted(_CROSS))
        tags.add(cross)
        conjuncts.append((cross, _CROSS[cross]))
    group = gen.choice(_KEYS)
    tags.add("key:" + ",".join(group))
    aggs = ["sum(v)"] + gen.sample(["count(*)", "sum(v * b1)"],
                                   gen.randrange(0, 3))
    where = ["d1k = d1_id", "d2k = d2_id"] + [sql for sql, _fn in conjuncts]
    sql = (f"select {', '.join(group + aggs)} from f, dim1, dim2 "
           f"where {' and '.join(where)}")
    if group:
        sql += " group by " + ", ".join(group)
    return sql, conjuncts, group, aggs, tags


def _oracle(tables, conjuncts, group, aggs):
    """Join every dimension column onto the fact rows, then filter,
    group and aggregate in numpy."""
    wide = {name: col.astype(np.int64) for name, col in tables["f"].items()}
    for d in (1, 2):
        keys = wide[f"d{d}k"]
        for name, col in tables[f"dim{d}"].items():
            wide[name] = col.astype(np.int64)[keys]
    mask = np.ones(len(wide["v"]), dtype=bool)
    for _sql, fn in conjuncts:
        mask &= fn(wide)
    if not group:
        if not mask.any():
            return ()
        return (tuple(_AGGS[name](wide, mask) for name in aggs),)
    cells = sorted(set(zip(*(wide[g][mask].tolist() for g in group))))
    rows = []
    for cell in cells:
        cell_mask = mask.copy()
        for g, value in zip(group, cell):
            cell_mask &= wide[g] == value
        rows.append(tuple(cell)
                    + tuple(_AGGS[name](wide, cell_mask) for name in aggs))
    return tuple(rows)


def test_draws_cover_every_node():
    """Across the seeds, the draws reach every node the evaluator reads,
    every cross-table equality and every key shape."""
    tags = set()
    for seed in SEEDS:
        tags |= _draw(seed, _tables(seed))[4]
    wanted = ({"+", "-", "*", "between", "in", "and", "or", "column"}
              | set(_COMPARISONS) | set(_CROSS)
              | {"key:" + ",".join(key) for key in _KEYS})
    assert wanted <= tags, sorted(wanted - tags)


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_targets_match_oracle(seed):
    tables = _tables(seed)
    sql, conjuncts, group, aggs, _tags = _draw(seed, tables)
    catalog = Catalog(tables, pks={"dim1": "d1_id", "dim2": "d2_id"})
    compiled = compile_query(sql, catalog, f"star{seed}")
    dpu_rows = compiled.run_dpu(DPU(), tables).value
    xeon_rows = compiled.run_xeon(XeonModel(), tables).value
    expected = _oracle(tables, conjuncts, group, aggs)
    assert repr(dpu_rows) == repr(expected), sql
    assert repr(xeon_rows) == repr(expected), sql
