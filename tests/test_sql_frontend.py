"""Parser + planner unit tests, including every structured failure path.

Unsupported SQL must surface as a :class:`PlanError` carrying the
query text and the offending clause — never an assertion or a
mid-lowering crash — so harnesses can report exactly what was
rejected and why.
"""

import pytest

from repro.apps.sql import (
    PlanError,
    compile_query,
    load_query,
    parse_sql,
    tpch_catalog,
)
from repro.apps.sql.frontend import QUERY_DIR
from repro.apps.sql.ir import Lit, sql_repr
from repro.workloads.tpch import generate_tpch


@pytest.fixture(scope="module")
def catalog():
    return tpch_catalog(generate_tpch(scale=0.001, seed=11))


def _compile(sql, catalog):
    return compile_query(sql, catalog, "unit")


class TestParser:
    def test_parses_all_shipped_queries(self):
        import os
        names = sorted(f[:-4] for f in os.listdir(QUERY_DIR)
                       if f.endswith(".sql"))
        assert names == ["q1", "q10", "q12", "q14", "q3", "q5", "q6"]
        for name in names:
            stmt = parse_sql(load_query(name))
            assert stmt.items and stmt.tables

    def test_comments_and_semicolon(self):
        stmt = parse_sql(
            "-- a comment\nselect sum(l_quantity) from lineitem;")
        assert stmt.tables == ["lineitem"]

    def test_date_arithmetic_folds(self):
        stmt = parse_sql(
            "select sum(l_quantity) from lineitem "
            "where l_shipdate < date '1992-01-01' + interval '31' day")
        bound = stmt.where
        # date_code(1992,1,1) == 0, so +31 days folds to literal 31.
        assert Lit(31) in [bound.left, bound.right]

    def test_operator_precedence(self):
        stmt = parse_sql("select sum(a + b * c) from lineitem")
        assert sql_repr(stmt.items[0][0]) == "sum((a + (b * c)))"

    def test_or_binds_looser_than_and(self):
        stmt = parse_sql(
            "select sum(x) from t where a = 1 and b = 2 or c = 3")
        assert stmt.where.op == "or"

    def test_count_star(self):
        stmt = parse_sql("select count(*) from lineitem")
        assert sql_repr(stmt.items[0][0]) == "count(*)"


def _plan_error(sql, catalog=None, clause=None, match=None):
    with pytest.raises(PlanError) as excinfo:
        if catalog is None:
            parse_sql(sql)
        else:
            _compile(sql, catalog)
    err = excinfo.value
    assert err.query is not None and err.query.strip() == sql.strip()
    if clause is not None:
        assert err.clause == clause
    if match is not None:
        assert match in str(err)
    return err


class TestParserRejections:
    def test_distinct(self):
        _plan_error("select distinct l_quantity from lineitem",
                    clause="select", match="DISTINCT")

    def test_having(self):
        _plan_error("select sum(l_quantity) from lineitem group by "
                    "l_shipmode having sum(l_quantity) > 3",
                    clause="having", match="HAVING")

    def test_union(self):
        _plan_error("select sum(a) from t union select sum(b) from u",
                    clause="union", match="UNION")

    def test_not(self):
        _plan_error("select sum(a) from t where not a = 1",
                    clause="where", match="NOT")

    def test_trailing_garbage(self):
        _plan_error("select sum(a) from t offset 3", match="trailing")

    def test_bad_token(self):
        _plan_error("select sum(a) from t where a = @", match="tokenize")

    def test_truncated(self):
        _plan_error("select sum(a) from t where", match="end of")

    def test_bad_interval_unit(self):
        _plan_error("select sum(a) from t where "
                    "d < date '1994-01-01' + interval '2' week",
                    match="interval unit")

    def test_limit_needs_integer(self):
        _plan_error("select sum(a) from t limit x", clause="limit")


class TestPlannerRejections:
    def test_unknown_table(self, catalog):
        _plan_error("select sum(l_quantity) from lineitems", catalog,
                    match="unknown table")

    def test_unknown_column(self, catalog):
        _plan_error("select sum(l_totally_fake) from lineitem", catalog,
                    match="unknown column")

    def test_unknown_dictionary_value(self, catalog):
        _plan_error("select sum(l_quantity) from lineitem "
                    "where l_returnflag = 'Z'", catalog,
                    clause="string literal", match="l_returnflag")

    def test_non_prefix_like(self, catalog):
        _plan_error("select sum(l_extendedprice) from lineitem, part "
                    "where l_partkey = p_partkey "
                    "and p_type like '%PROMO%'", catalog, clause="like")

    def test_table_joined_twice(self, catalog):
        _plan_error("select sum(l_quantity) from lineitem, orders "
                    "where l_orderkey = o_orderkey "
                    "and l_suppkey = o_orderkey", catalog,
                    match="joined twice")

    def test_group_by_expression(self, catalog):
        _plan_error("select sum(l_quantity) from lineitem "
                    "group by l_quantity + 1", catalog, clause="group by")

    def test_order_by_not_in_select(self, catalog):
        _plan_error("select l_shipmode, sum(l_quantity) from lineitem "
                    "group by l_shipmode order by l_extendedprice",
                    catalog, clause="order by")

    def test_select_not_determined_by_key(self, catalog):
        _plan_error("select l_partkey, sum(l_quantity) from lineitem "
                    "group by l_shipmode", catalog, clause="select")

    def test_no_aggregates(self, catalog):
        _plan_error("select l_shipmode from lineitem group by l_shipmode",
                    catalog, match="aggregate")

    def test_division_in_streamed_expression(self, catalog):
        _plan_error("select sum(l_extendedprice / l_quantity) "
                    "from lineitem", catalog, match="division")

    def test_or_over_join_probe(self, catalog):
        _plan_error("select sum(l_quantity) from lineitem, orders "
                    "where l_orderkey = o_orderkey "
                    "and (o_orderpriority = '1-URGENT' "
                    "or l_quantity < 10)", catalog, clause="where")

    @pytest.mark.parametrize("sql, member", [
        ("select sum(l_quantity) from lineitem "
         "where l_quantity in (1, l_tax) or l_discount = 3", "l_tax"),
        ("select sum(l_quantity) from lineitem, orders "
         "where l_orderkey = o_orderkey "
         "and o_custkey in (1, o_shippriority)",
         "l_orderkey->o_shippriority"),
        ("select sum(case when l_quantity in (1, l_tax) then 1 else 0 end) "
         "from lineitem", "l_tax"),
    ], ids=["fact_or", "dimension", "case"])
    def test_in_list_member_is_not_a_literal(self, catalog, sql, member):
        _plan_error(sql, catalog, clause="in list",
                    match=f"IN list member {member} is not a literal")

    def test_constant_predicate(self, catalog):
        _plan_error("select sum(l_quantity) from lineitem where 1 = 1",
                    catalog, clause="where")

    def test_error_message_carries_clause_and_snippet(self, catalog):
        err = _plan_error("select distinct l_quantity from lineitem",
                          clause="select")
        text = str(err)
        assert "[clause: select]" in text
        assert "select distinct l_quantity" in text
