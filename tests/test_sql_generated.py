"""Seeded canonical sql, in the alias convention of Finegan-Dollak et al.
2018: each table of a FROM clause is declared ``<TABLE> AS <TABLE>alias<N>``,
with ``N`` counted per table over the whole program, subqueries included.

The generator covers joins and self joins, value conditions, ``BETWEEN``,
``NOT``, parenthesized ``OR`` groups, ``IN ( SELECT … )`` and scalar
subqueries nested up to two deep (correlated or not), ``UNION [ALL]``,
``INTERSECT`` and ``EXCEPT``, aggregates, ``GROUP BY``/``HAVING``,
``ORDER BY`` and ``LIMIT``.  Every generated program inverts exactly from its
z_r, and its z_l is a fixed point that agrees with the rule-by-rule oracle.
"""

import random
from collections import Counter
from operator import itemgetter

import pytest

from irkit import formalisms, pipeline, sql

from oracles import oracle_sql_lir

TABLES = {
    "FLIGHT": ("FLIGHT_ID", "AIRLINE_CODE", "FROM_AIRPORT", "TO_AIRPORT",
               "DEPARTURE_TIME", "FARE_ID"),
    "FARE": ("FARE_ID", "ONE_DIRECTION_COST", "FARE_BASIS_CODE"),
    "AIRPORT_SERVICE": ("CITY_CODE", "AIRPORT_CODE"),
    "CITY": ("CITY_CODE", "CITY_NAME", "STATE_CODE"),
    "STATE": ("STATE_NAME", "STATE_CODE", "POPULATION", "AREA"),
    "RIVER": ("RIVER_NAME", "TRAVERSE", "LENGTH"),
}
VALUES = ('"BOSTON"', '"UA"', "'san francisco'", "800", "2.5", "city_name0",
          "year1")
AGGREGATES = ("COUNT", "MAX", "MIN", "SUM", "AVG")
SET_OPS = ("UNION", "UNION ALL", "INTERSECT", "EXCEPT")
PROGRAMS = 2000


def generate_sql(rng: random.Random) -> str:
    """One canonical sql program, drawn from ``rng``."""
    numbers = Counter()  # the next alias number of each table

    def query(depth, outer, set_op):
        tables = rng.sample(sorted(TABLES), rng.randint(1, 3))
        if rng.random() < 0.2:
            tables.append(tables[0])  # a self join
        scope = []
        for table in tables:
            scope.append((table, f"{table}alias{numbers[table]}"))
            numbers[table] += 1

        def column(among=scope):
            table, alias = rng.choice(among)
            return f"{alias}.{rng.choice(TABLES[table])}"

        def aggregate():
            name = rng.choice(AGGREGATES)
            if name == "COUNT" and rng.random() < 0.5:
                return "COUNT( * )"
            distinct = "DISTINCT " if rng.random() < 0.3 else ""
            return f"{name}( {distinct}{column()} )"

        def condition():
            kind = rng.random()
            if kind < 0.3 and len(scope) + len(outer) > 1:
                # A join, correlated with the outer query now and then.
                right = column(scope + outer if rng.random() < 0.3
                               else scope)
                return f"{column()} = {right}"
            if kind < 0.55:
                op = rng.choice(("=", "<", ">", ">="))
                return f"{column()} {op} {rng.choice(VALUES)}"
            if kind < 0.65:
                low, high = rng.sample(VALUES, 2)
                return f"{column()} BETWEEN {low} AND {high}"
            if kind < 0.7:
                return f"NOT {column()} = {rng.choice(VALUES)}"
            if kind < 0.8:
                return f"( {condition()} OR {condition()} )"
            if depth < 2:
                op = rng.choice(("IN", "NOT IN", "=", ">"))
                return f"{column()} {op} ( {query(depth + 1, scope, False)} )"
            return f"{column()} = {rng.choice(VALUES)}"

        items = [column() if rng.random() < 0.7 else aggregate()
                 for _ in range(rng.randint(1, 2))]
        parts = ["SELECT"] + (["DISTINCT"] if rng.random() < 0.4 else [])
        parts.append(" , ".join(items))
        parts.append("FROM " + " , ".join(f"{table} AS {alias}"
                                          for table, alias in scope))
        if rng.random() < 0.8:
            conditions = [condition() for _ in range(rng.randint(1, 4))]
            where = conditions[0]
            for cond in conditions[1:]:
                where += f" {'AND' if rng.random() < 0.8 else 'OR'} {cond}"
            parts.append("WHERE " + where)
        if rng.random() < 0.2:
            parts.append(f"GROUP BY {column()}")
            if rng.random() < 0.5:
                parts.append(f"HAVING {aggregate()} >= {rng.randint(1, 9)}")
        if rng.random() < 0.2:
            key = column() if rng.random() < 0.6 else aggregate()
            parts.append(f"ORDER BY {key} {rng.choice(('ASC', 'DESC'))}")
            if rng.random() < 0.5:
                parts.append(f"LIMIT {rng.randint(1, 9)}")
        if set_op and rng.random() < 0.15:
            parts += [rng.choice(SET_OPS), query(depth, outer, False)]
        return " ".join(parts)

    return query(0, [], True)


@pytest.fixture(scope="module")
def programs():
    rng = random.Random("generated sql programs")
    return [generate_sql(rng) for _ in range(PROGRAMS)]


def test_generated_programs_invert_exactly_and_lossy_irs_agree(programs):
    cfg = pipeline.PipelineConfig("sql")
    for text in programs:
        q = sql.parse_sql(text)
        z = sql.sql_to_rir(q)
        assert pipeline.invert_reversible(z.render(), cfg) == text
        lir = sql.sql_to_lir(q)
        assert sql.sql_to_lir(sql.parse_sql(lir)) == lir, text
        assert lir == oracle_sql_lir(text), text
        assert formalisms.TABLE["sql"].to_lir(z) == lir, text


def test_generated_programs_cover_the_grammar(programs):
    words = Counter(word for text in programs for word in set(text.split()))
    for word in ("IN", "NOT", "BETWEEN", "OR", "UNION", "ALL", "INTERSECT",
                 "EXCEPT", "GROUP", "HAVING", "ORDER", "LIMIT", "COUNT(",
                 "MAX(", "DISTINCT", "'san"):
        assert words[word] >= 20, word
    queries = [sql.parse_sql(text) for text in programs]
    nested = [q for q in queries
              if any(child.children for child in q.block.children)]
    assert len(nested) >= 20
    shapes = {tuple(map(itemgetter(sql._SHAPE), q.facts)) for q in queries}
    assert len(shapes) > 1000
