import json
import random
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irkit import data, formalisms, pipeline, sql
from irkit.cli import main
from irkit.errors import (InversionError, IrkitError, ParseError,
                          TransformError)

from oracles import oracle_lex_sql, oracle_sql_lir

# The rewrite to z_r as one regex substitution, which agrees with the alias
# rename map on every program that ``sql_to_rir`` accepts.
ALIAS_RE = re.compile(r"([A-Za-z_]\w*?)alias(\d+)")

FLIGHT_QUERY = ('SELECT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 '
                'WHERE FLIGHTalias0.AIRLINE_CODE = "UA"')


# ---------------------------------------------------------------------------
# Lexing, parsing, value flags
# ---------------------------------------------------------------------------


def test_lexer_keeps_quoted_strings_whole():
    tokens = sql.lex_sql('WHERE CITYalias0.CITY_NAME = "NEW YORK"')
    assert tokens == ["WHERE", "CITYalias0.CITY_NAME", "=", '"NEW YORK"']


def test_lexer_unterminated_string():
    with pytest.raises(ParseError):
        sql.lex_sql('SELECT "oops')


@pytest.mark.parametrize("text, offset", [
    ('SELECT éé "abc', 12),  # a token that opens with the quote
    ('SELECT é a"bc', 11),  # a quote inside a token
])
def test_lexer_error_offsets_are_bytes(text, offset):
    with pytest.raises(ParseError) as err:
        sql.lex_sql(text)
    assert err.value.offset == offset


def test_lexer_pairs_quotes_after_a_closing_quote():
    # A token that opens with a quote follows the same rule as any other:
    # each later quote opens a string that must close, spaces included.
    assert sql.lex_sql('"a"b"c d" e') == ['"a"b"c d"', "e"]
    with pytest.raises(ParseError) as err:
        sql.lex_sql('"a"b" x')
    assert err.value.offset == 4


# Both quotes, parens, dots, digits, ASCII and non-ASCII letters, and a
# character of each whitespace class that ``str.isspace`` accepts.
LEX_ALPHABET = ("\"'().0123456789Aaé中Ж"
                " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet=LEX_ALPHABET, max_size=24))
def test_lexer_matches_the_character_loop_oracle(text):
    assert _outcome(sql.lex_sql, text) == _outcome(oracle_lex_sql, text)


_REGEX_TOKEN_RE = re.compile(r"""(?:[^\s"']+|"[^"]*"|'[^']*')+|["']""")


def _regex_lex(text):
    """The lexer as one regex over the whole text: every match is a token,
    and the first lone quote raises at its byte offset."""
    tokens = _REGEX_TOKEN_RE.findall(text)
    for match in _REGEX_TOKEN_RE.finditer(text):
        if match.group() in ('"', "'"):
            raise ParseError("unterminated string literal",
                             offset=len(text[:match.start()].encode()))
    return tokens


@pytest.mark.parametrize("text", [
    '"a b"', 'x"a b"y', '"a"b"c d"', '"', "'a b", 'a " b "c',
])
def test_lexer_split_agrees_with_the_regex_on_quotes(text):
    assert _outcome(sql.lex_sql, text) == _outcome(_regex_lex, text)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="Aa1.()\"' \t\n\xa0　\x1c", max_size=24))
def test_lexer_split_agrees_with_the_regex(text):
    assert _outcome(sql.lex_sql, text) == _outcome(_regex_lex, text)


def test_parse_flight_query():
    q = sql.parse_sql(FLIGHT_QUERY)
    assert q.render() == FLIGHT_QUERY
    assert q.declared == {"FLIGHTalias0": "FLIGHT"}
    assert [c.name for c in q.block.clauses] == ["SELECT", "FROM", "WHERE"]


def test_parse_select_one():
    q = sql.parse_sql("SELECT 1")
    assert [c.name for c in q.block.clauses] == ["SELECT"]
    assert q.values == (False, True)


# (query, token, whether each copy of the token is a value): one case per
# rule of ``sql._values``.
VALUE_CASES = [
    ('SELECT X FROM A WHERE A.Y = "NEW YORK"', '"NEW YORK"', True),
    ("SELECT X FROM A WHERE A.Y = 2", "2", True),
    ("SELECT X FROM A WHERE A.Y = 2.5", "2.5", True),
    ("SELECT X FROM A WHERE A.Y = city_name0", "city_name0", True),
    ("SELECT X FROM A WHERE A.Y = cityalias0", "cityalias0", False),
    ("SELECT c1.X FROM city AS c1", "c1", False),  # declared lowercase alias
    ("SELECT X FROM A AS 2 WHERE A.Y = 2", "2", False),  # declared number
    ("SELECT A.X FROM A", "A.X", False),  # qualified column
    ("SELECT X FROM A", "SELECT", False),
    # A number may start with any decimal digit that ``\d`` matches.
    ("SELECT X FROM A WHERE A.Y = \u0663", "\u0663", True),
]


def test_values():
    for text, token, value in VALUE_CASES:
        q = sql.parse_sql(text)
        flags = {v for tok, v in zip(q.tokens, q.values) if tok == token}
        assert flags == {value}, (text, token)


def test_subquery_block_nesting():
    q = sql.parse_sql(
        "SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN "
        "( SELECT Balias0.Y FROM B AS Balias0 )")
    assert len(q.block.children) == 1
    child = q.block.children[0]
    assert [c.name for c in child.clauses] == ["SELECT", "FROM"]
    # spans partition the block's top level and nest properly
    assert child.start > q.block.start and child.end < q.block.end


def test_walk_visits_blocks_in_preorder():
    q = sql.parse_sql(
        "SELECT A.X FROM A WHERE A.Y IN ( SELECT B.Y FROM B WHERE B.Z IN "
        "( SELECT C.Z FROM C ) ) AND A.W IN ( SELECT D.W FROM D )")
    first, second = q.block.children
    assert list(q.block.walk()) == [q.block, first, first.children[0],
                                    second]


def _nested(depth):
    """A program whose subqueries nest ``depth`` deep, each declaring its
    own alias."""
    return (" ".join(f"SELECT Talias{k}.X FROM T AS Talias{k} WHERE "
                     f"Talias{k}.Y IN (" for k in range(depth))
            + " SELECT B.Y FROM B" + " )" * depth)


def test_nesting_past_the_recursion_limit_parses_inverts_and_transforms(
        tmp_path):
    depth = 1200
    assert depth > sys.getrecursionlimit()
    text = _nested(depth)
    q = sql.parse_sql(text)
    assert " ".join(q.tokens) == text
    assert len(list(q.block.walk())) == depth + 1
    z = sql.sql_to_rir(q)
    assert sql.sql_from_rir(z) == q
    lir = sql.sql_to_lir(q)
    assert formalisms.TABLE["sql"].to_lir(z) == lir
    assert sql.sql_to_lir(sql.parse_sql(lir)) == lir
    src, out = tmp_path / "deep.jsonl", tmp_path / "lir.tsv"
    src.write_text(json.dumps({"id": "0", "x": "q", "y": text}) + "\n")
    assert main(["transform", "--formalism", "sql", "--ir", "lir",
                 "--in", str(src), "--out", str(out)]) == 0
    assert list(data.read_pairs_tsv(out)) == [("0", lir)]


def test_group_order_having_limit_segmentation():
    q = sql.parse_sql(
        "SELECT Aalias0.X , COUNT( * ) FROM A AS Aalias0 "
        "GROUP BY Aalias0.X HAVING COUNT( * ) > 2 "
        "ORDER BY COUNT( * ) DESC LIMIT 5")
    assert [c.name for c in q.block.clauses] == [
        "SELECT", "FROM", "GROUP_BY", "HAVING", "ORDER_BY", "LIMIT"]


# (a program whose keywords are in lower or mixed case, the same program
# with them in upper case).  ``ſ`` upper-cases to ``S``.
KEYWORD_CASES = [
    ("select Aalias0.X From A as Aalias0",
     "SELECT Aalias0.X FROM A AS Aalias0"),
    ("SELECT Aalias0.X , COUNT( * ) FROM A AS Aalias0 group By Aalias0.X",
     "SELECT Aalias0.X , COUNT( * ) FROM A AS Aalias0 GROUP BY Aalias0.X"),
    ("SELECT Aalias0.X FROM A AS Aalias0 union All "
     "select Balias0.X FROM B As Balias0",
     "SELECT Aalias0.X FROM A AS Aalias0 UNION ALL "
     "SELECT Balias0.X FROM B AS Balias0"),
    # The first ``and`` joins a join-only condition, which z_l drops with
    # it; the second belongs to ``between``.
    ("SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 WHERE "
     "Aalias0.Y = Balias0.Y and Aalias0.Z between 1 and 5",
     "SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 WHERE "
     "Aalias0.Y = Balias0.Y AND Aalias0.Z BETWEEN 1 AND 5"),
    ("ſelect Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN "
     "( ſelect Balias0.Y FROM B AS Balias0 )",
     "SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN "
     "( SELECT Balias0.Y FROM B AS Balias0 )"),
]


@pytest.mark.parametrize("text, upper", KEYWORD_CASES)
def test_keywords_are_case_insensitive(text, upper):
    q, u = sql.parse_sql(text), sql.parse_sql(upper)
    assert [[(c.name, c.start, c.end) for c in b.clauses]
            for b in q.block.walk()] == [
        [(c.name, c.start, c.end) for c in b.clauses] for b in u.block.walk()]
    assert q.declared == u.declared
    assert q.values == u.values
    assert sql.sql_to_lir(q).upper() == sql.sql_to_lir(u).upper()


@pytest.mark.parametrize("bad", [
    "SELECT ( FROM",                         # unbalanced
    "SELECT A.X ) FROM",                     # early close
    "FROM A AS Aalias0",                     # does not start with SELECT
    "SELECT Aalias.X FROM A AS Aalias",      # alias without number
    "SELECT X FROM A AS Aalias0 GROUP Aalias0.X",  # GROUP without BY
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        sql.parse_sql(bad)


@pytest.mark.parametrize("text, offset", [
    ("  \n", 3),  # empty: the end
    ("  FROM A", 2),
    ("\tSELECT  é ) FROM", 12),  # the token that closes past depth 0
    ('SELECT "a  b"   ( x', 19),  # left inside parentheses: the end
    ("SELECT x FROM\u3000AS", 16),  # dangling AS
    ("SELECT  é Aalias.X", 11),
    ("SELECT é\u3000ORDER  x", 19),  # where BY should be
    ("SELECT x UNION\xa0\xa0é", 18),
])
def test_parse_error_offsets_are_bytes_in_the_text(text, offset):
    with pytest.raises(ParseError) as err:
        sql.parse_sql(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("  \n", 3),
    ("\tSELECT  é ) FROM", 12),
    ("SELECT é\u3000ORDER  x", 19),
], ids=["empty", "early-close", "order-without-by"])
def test_predicted_rir_offsets_are_bytes_in_its_text(text, offset):
    # A malformed prediction fails, on both paths that parse it as z_r,
    # as parse_sql fails on it: at a byte offset in its own text.
    cfg = pipeline.PipelineConfig("sql")
    for fn in (pipeline.invert_reversible, pipeline._lir_of_rir):
        with pytest.raises(ParseError) as err:
            fn(text, cfg)
        assert err.value.offset == offset
        assert str(err.value) == _outcome(sql.parse_sql, text)[1]


_SUB_IN_WHERE = [(0, 17, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 17)],
                  [(10, 16)]),
                 (10, 16, [("SELECT", 10, 12), ("FROM", 12, 16)], [])]


def _error(message, offset):
    """The outcome of a ParseError at ``offset`` in the text."""
    return ParseError, f"{message} (at byte offset {offset})"


# name: (query, outcome of parse_sql).  An outcome is every block in walk
# order as (start, end, [(clause, start, end)], [child (start, end)]), or
# the error's type and message, which ends with its byte offset in the
# text.  An unbalanced query fails before it is segmented.
SEGMENTATION_CASES = {
    "subquery-in-where": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN "
        "( SELECT B0.Y FROM B AS B0 )", _SUB_IN_WHERE),
    "subquery-in-plain-group": (
        "SELECT A0.X FROM A AS A0 WHERE "
        "( A0.Y IN ( SELECT B0.Y FROM B AS B0 ) )",
        [(0, 19, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 19)],
          [(11, 17)]),
         (11, 17, [("SELECT", 11, 13), ("FROM", 13, 17)], [])]),
    "doubly-nested": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN ( SELECT B0.Y FROM B AS B0 "
        "WHERE B0.Z IN ( SELECT C0.Z FROM C AS C0 ) ) ORDER BY A0.X",
        [(0, 31, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 28),
                  ("ORDER_BY", 28, 31)], [(10, 27)]),
         (10, 27, [("SELECT", 10, 12), ("FROM", 12, 16), ("WHERE", 16, 27)],
          [(20, 26)]),
         (20, 26, [("SELECT", 20, 22), ("FROM", 22, 26)], [])]),
    "union-all": (
        "SELECT A0.X FROM A AS A0 UNION ALL SELECT B0.X FROM B AS B0",
        [(0, 14, [("SELECT", 0, 2), ("FROM", 2, 6), ("SET_OP", 6, 8),
                  ("SELECT", 8, 10), ("FROM", 10, 14)], [])]),
    "union-in-subquery": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN ( SELECT B0.Y FROM B AS B0 "
        "UNION SELECT C0.Y FROM C AS C0 )",
        [(0, 24, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 24)],
          [(10, 23)]),
         (10, 23, [("SELECT", 10, 12), ("FROM", 12, 16), ("SET_OP", 16, 17),
                   ("SELECT", 17, 19), ("FROM", 19, 23)], [])]),
    "glued-count": (
        "SELECT COUNT( DISTINCT A0.X ) FROM A AS A0 GROUP BY A0.Y "
        "HAVING COUNT( * ) > 1 LIMIT 1",
        [(0, 20, [("SELECT", 0, 5), ("FROM", 5, 9), ("GROUP_BY", 9, 12),
                  ("HAVING", 12, 18), ("LIMIT", 18, 20)], [])]),
    "group-without-by-in-subquery": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN "
        "( SELECT B0.Y FROM B AS B0 GROUP B0.Y )",
        _error("GROUP not followed by BY", 72)),
    "order-without-by-at-end": (
        "SELECT A0.X FROM A AS A0 ORDER",
        _error("ORDER not followed by BY", 30)),
    "set-op-then-no-clause": (
        "SELECT A0.X UNION A0.Y",
        _error("token 'A0.Y' appears before any clause keyword", 18)),
    "unclosed-subquery-then-clause-error": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN ( SELECT B0.Y GROUP B0.Y",
        _error("unbalanced '('", 63)),
    "clause-error-then-unclosed-subquery": (
        "SELECT A0.X GROUP A0.X WHERE A0.Y IN ( SELECT B0.Y",
        _error("unbalanced '('", 50)),
    "stray-close-before-subquery": (
        "SELECT A0.X ) ( SELECT B0.Y FROM B AS B0 )",
        _error("unbalanced ')'", 12)),
    "stray-close-swallows-a-clause": (
        "SELECT A0.X ) GROUP ( SELECT B0.Y GROUP B0.Y )",
        _error("unbalanced ')'", 12)),
    "no-subquery-below-depth-zero": (
        "SELECT A0.X ) ) ( SELECT B0.Y ) GROUP B0.Y",
        _error("unbalanced ')'", 12)),
    "not-select-first": (
        "FROM A AS A0 WHERE ( SELECT",
        _error("query starts with 'FROM', not SELECT", 0)),
}


# Tokens holding several parens move the depth by their net count, and only
# a token with its block's own depth before and after it is a clause token
# (see ``sql._segment``).
MULTI_PAREN_CASES = {
    "close-past-the-opener": (
        "SELECT COUNT( * )) FROM A AS A0",
        _error("unbalanced ')'", 16)),
    "double-open": (
        "SELECT COUNT(( A0.X )) FROM A AS A0",
        [(0, 8, [("SELECT", 0, 4), ("FROM", 4, 8)], [])]),
    "close-then-open": (
        "SELECT A0.X )( A0.Y FROM A AS A0",
        [(0, 8, [("SELECT", 0, 4), ("FROM", 4, 8)], [])]),
    "one-token-closes-subquery-and-group": (
        "SELECT A0.X FROM A AS A0 WHERE "
        "( A0.Y IN ( SELECT B0.Y FROM B AS B0 ))",
        [(0, 18, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 18)],
          [(11, 17)]),
         (11, 17, [("SELECT", 11, 13), ("FROM", 13, 17)], [])]),
}


def _segmentation(text):
    try:
        q = sql.parse_sql(text)
    except IrkitError as exc:
        return type(exc), str(exc)
    return [(b.start, b.end, [(c.name, c.start, c.end) for c in b.clauses],
             [(child.start, child.end) for child in b.children])
            for b in q.block.walk()]


@pytest.mark.parametrize("name", list(SEGMENTATION_CASES))
def test_segmentation_cases(name):
    text, parsed = SEGMENTATION_CASES[name]
    assert _segmentation(text) == parsed


@pytest.mark.parametrize("name", list(MULTI_PAREN_CASES))
def test_multi_paren_token_segmentation(name):
    text, parsed = MULTI_PAREN_CASES[name]
    assert _segmentation(text) == parsed


def test_corpus_round_trip_byte_exact(sql_records):
    for record in sql_records:
        assert sql.parse_sql(record.y).render() == record.y


# ---------------------------------------------------------------------------
# Reversible IR
# ---------------------------------------------------------------------------


def test_alias_rewrite_pattern():
    q = sql.parse_sql(FLIGHT_QUERY)
    z = sql.sql_to_rir(q)
    assert z.render() == ('SELECT FLIGHT0.FLIGHT_ID FROM FLIGHT AS FLIGHT0 '
                          'WHERE FLIGHT0.AIRLINE_CODE = "UA"')


def test_rir_identity_without_aliases():
    q = sql.parse_sql("SELECT 1")
    assert sql.sql_to_rir(q).tokens == q.tokens


def test_rir_never_contains_alias_substring(sql_records):
    for record in sql_records:
        z = sql.sql_to_rir(sql.parse_sql(record.y))
        assert "alias" not in z.render()


def test_corpus_rir_round_trip_byte_exact(sql_records):
    for record in sql_records:
        q = sql.parse_sql(record.y)
        restored = sql.sql_from_rir(sql.sql_to_rir(q))
        assert restored.tokens == q.tokens


def test_rewrite_collision_is_an_error():
    q = sql.parse_sql("SELECT FLIGHTalias0.X FROM FLIGHT AS FLIGHTalias0 "
                      "WHERE FLIGHTalias0.Y = FLIGHT0")
    with pytest.raises(TransformError):
        sql.sql_to_rir(q)


# (program, the TransformError message): one case per way a program fails
# the alias rule of ``sql._renames``.
ALIAS_RULE_REJECTIONS = [
    ("SELECT A0.X FROM A AS A0",
     "declared alias 'A0' is not 'Aalias' plus a number"),
    ("SELECT FLIGHTalias0.X FROM FLIGHT AS F",
     "declared alias 'F' is not 'FLIGHTalias' plus a number"),
    ("SELECT X FROM A WHERE A.Y = cityalias0",
     "token 'cityalias0' holds an alias that no declaration renames"),
    ("SELECT FLIGHT0.X FROM FLIGHT",
     "alias-shaped qualifier 'FLIGHT0' has no FROM declaration"),
    ("SELECT Aalias0.X FROM A AS Aalias0 , Aalias0 AS Aalias0alias1",
     "declared alias 'Aalias0alias1' does not rewrite to a plain name: "
     "'Aalias01'"),
    ("SELECT X FROM Balias0 AS Balias0alias1",
     "declared alias 'Balias0alias1' does not rewrite to a plain name: "
     "'Balias01'"),
    ('SELECT X FROM "T" AS "T"alias0',
     """declared alias '"T"alias0' does not rewrite to a plain name: """
     """'"T"0'"""),
    ("SELECT X FROM A AS Aalias12 , A1 AS A1alias2",
     "declared aliases 'Aalias12' and 'A1alias2' both rewrite to 'A12'"),
    ("SELECT Aalias0.Balias1 FROM A AS Aalias0",
     "token 'Aalias0.Balias1' holds an alias that no declaration renames"),
    ("SELECT Aalias0.X1 FROM A AS Aalias0 , A0.X AS A0.Xalias1",
     "alias rewriting is not reversible here; rewritten name(s) already "
     "present: A0.X1"),
    # Two failures: the first in token order is reported.
    ("SELECT FLIGHT0 , cityalias0 FROM FLIGHT AS FLIGHTalias0",
     "alias rewriting is not reversible here; rewritten name(s) already "
     "present: FLIGHT0"),
    ("SELECT cityalias0 , FLIGHT0 FROM FLIGHT AS FLIGHTalias0",
     "token 'cityalias0' holds an alias that no declaration renames"),
]


@pytest.mark.parametrize("text, message", ALIAS_RULE_REJECTIONS)
def test_alias_rule_rejections(text, message):
    q = sql.parse_sql(text)
    with pytest.raises(TransformError) as err:
        sql.sql_to_rir(q)
    assert str(err.value) == message


# A WHERE body that opens with a connector: its empty first condition
# survives in neither lossy IR, so z_l is a fixed point of the lossy IR.
EMPTY_CONDITION = ("SELECT CITYalias0.CITY_NAME FROM CITY AS CITYalias0 WHERE "
                   "AND CITYalias0.STATE_NAME = CITYalias0.X")


def test_transform_inverts_exactly_and_keeps_lossy_irs_equal(sql_records,
                                                             differential):
    # The fixture programs and seeded token mutations of them, as
    # scripts/differential.py builds its sql inputs.
    programs = [record.y for record in sql_records]
    rng = random.Random("sql alias rule")
    texts = programs + [EMPTY_CONDITION] + [
        differential.mutate(rng, rng.choice(programs), differential.SQL_VOCAB)
        for _ in range(10000)]
    accepted = rejected = 0
    for text in texts:
        try:
            q = sql.parse_sql(text)
        except ParseError:
            continue
        try:
            z = sql.sql_to_rir(q)
        except TransformError:
            rejected += 1
            continue
        accepted += 1
        assert sql.sql_from_rir(z) == q, text
        lir = sql.sql_to_lir(q)
        assert formalisms.TABLE["sql"].to_lir(z) == lir, text
        assert sql.sql_to_lir(sql.parse_sql(lir)) == lir, text
    assert accepted > len(programs) and rejected > 0


def test_query_of_a_programs_rir_analyses_nothing_again(sql_records,
                                                        monkeypatch):
    # Neither z_r, nor its z_{l,r}, nor the program restored from it
    # lexes, checks or segments the tokens again, looks up a shape or flags
    # the values.
    calls = []
    for name in ("lex_sql", "_check_shape", "_segment", "_values"):
        monkeypatch.setattr(sql, name, lambda *args, _fn=getattr(sql, name):
                            calls.append(_fn.__name__) or _fn(*args))
    for record in sql_records:
        q = sql.parse_sql(record.y)
        calls.clear()
        z = sql.sql_to_rir(q)
        lir = formalisms.TABLE["sql"].to_lir(z)
        assert sql.sql_from_rir(z) == q
        assert calls == []
        assert z == sql.parse_sql(z.render())
        assert lir == sql.sql_to_lir(q)


def test_inverse_segments_z_once_into_the_programs_query(sql_records,
                                                        monkeypatch):
    # The inverse of a z_r text segments it once, when it parses it;
    # restoring the program from the parsed z_r segments nothing more.
    calls = []
    segment = sql._segment
    monkeypatch.setattr(sql, "_segment",
                        lambda *args: calls.append(1) or segment(*args))
    cfg = pipeline.PipelineConfig("sql")
    for record in sql_records:
        q = sql.parse_sql(record.y)
        text = sql.sql_to_rir(q).render()
        calls.clear()
        assert pipeline.invert_reversible(text, cfg) == q.render()
        assert len(calls) == 1


def _analysis(text):
    """What ``parse_sql`` finds in a text, or the error it raises."""
    try:
        q = sql.parse_sql(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset
    return (q.tokens, q.values, q.depths, list(q.declared.items()), q.block,
            sql.sql_to_lir(q), sql.sql_template_signature(q))


def test_the_shape_table_serves_what_the_walk_gives(sql_records,
                                                    differential):
    # Once against a table that earlier texts of each shape filled, and once
    # with the table cleared, so that the walk segments every text.
    programs = [record.y for record in sql_records]
    rng = random.Random("sql shape table")
    texts = programs + [
        differential.mutate(rng, rng.choice(programs), differential.SQL_VOCAB)
        for _ in range(10000)]
    sql._segment.cache_clear()
    warm = list(map(_analysis, texts))
    info = sql._segment.cache_info()
    for text, served in zip(texts, warm):
        sql._segment.cache_clear()
        assert _analysis(text) == served, text
    assert info.hits > 1000  # about 2,000 texts were served from the table
    assert info.currsize <= info.maxsize == sql.SHAPES_SIZE


def test_a_seen_shape_is_neither_checked_nor_split_into_conditions(
        sql_records, monkeypatch):
    # Only the first query of a shape runs the ordered checks and finds the
    # condition spans; a later one reads them from the shape's layout.
    calls = []
    for name in ("_check_shape", "iter_conditions"):
        monkeypatch.setattr(sql, name, lambda *args, _fn=getattr(sql, name):
                            calls.append(_fn.__name__) or _fn(*args))
    texts = [record.y for record in sql_records]
    sql._segment.cache_clear()
    first = [sql.sql_to_lir(sql.parse_sql(text)) for text in texts]
    assert calls.count("_check_shape") == sql._segment.cache_info().currsize
    assert "iter_conditions" in calls
    calls.clear()
    assert [sql.sql_to_lir(sql.parse_sql(text)) for text in texts] == first
    assert calls == []


class _Counted(tuple):
    """A shape or its paren depths, counting the entries read."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        _Counted.reads += len(item) if isinstance(index, slice) else 1
        return item


def test_nested_subqueries_are_split_into_conditions_in_linear_work(
        monkeypatch):
    # Each WHERE body holds every deeper subquery; reading their tokens
    # only to skip them would take about levels * tokens / 2 reads.
    levels = 500
    text = ("SELECT A.X FROM A WHERE A.Y IN ( " * levels
            + "SELECT A.X FROM A WHERE A.Y = 1" + " )" * levels)
    split = sql.iter_conditions
    monkeypatch.setattr(sql, "iter_conditions", lambda shape, depths, *rest:
                        split(shape, _Counted(depths), *rest))
    monkeypatch.setattr(_Counted, "reads", 0)
    sql._segment.cache_clear()
    q = sql.parse_sql(text)
    assert len(q.layout.conditions) == levels + 1
    assert 0 < _Counted.reads <= 2 * len(q.tokens)


def test_nested_from_subqueries_are_read_once_in_linear_work(monkeypatch):
    # Each FROM clause holds every deeper subquery; reading its tokens again
    # for each clause would take about levels * tokens / 2 reads and record
    # each deeper AS once per enclosing clause.
    levels = 500
    text = ("SELECT T.X FROM ( " * levels + "SELECT A.X FROM A"
            + " ) AS T" * levels)
    segment = sql._segment
    monkeypatch.setattr(sql, "_segment",
                        lambda shape: segment(_Counted(shape)))
    monkeypatch.setattr(_Counted, "reads", 0)
    segment.cache_clear()
    q = sql.parse_sql(text)
    assert len(q.layout.declarations) == levels
    assert q.layout.keep == (True, True) + (False,) * (len(q.tokens) - 2)
    assert 0 < _Counted.reads <= 3 * len(q.tokens)


def test_each_as_is_declared_once():
    q = sql.parse_sql("SELECT T.X FROM ( SELECT Aalias0.X FROM A AS Aalias0 "
                      ") AS T")
    assert q.layout.declarations == (8, 11)
    assert q.declared == {"Aalias0": "A", "T": ")"}


@pytest.mark.parametrize("text, token, offset", [
    ("SELECT PAPERalias0.JOURNALID , COUNT( * ) FROM PAPER AS BY "
     "PAPERalias0 GROUP BY PAPERalias0.JOURNALID", "BY", 56),
    ("SELECT RIVERalias0.RIVER_NAME FROM RIVER ( RIVERalias0 WHERE "
     "RIVERalias0.TRAVERSE = AS SELECT STATEalias0.STATE_NAME FROM STATE AS "
     "STATEalias0 )", "SELECT", 87),
    ("SELECT CITYalias0.STATE_NAME FROM CITY AS CITYalias0 as BY "
     "CITYalias0.STATE_NAME", "BY", 56),
    ("SELECT COUNT( * ) FROM A AS COUNT( * )", "COUNT(", 28),
    ("SELECT X FROM\u3000A\u3000AS\u3000(\u3000SELECT Y FROM B )", "(", 25),
])
def test_a_from_as_is_followed_by_a_plain_name(text, token, offset):
    # The token after AS would be declared as an alias, and a z_l that
    # masks it as one does not parse again or is no fixed point.
    with pytest.raises(ParseError) as err:
        sql.parse_sql(text)
    assert (str(err.value), err.value.offset) == (str(ParseError(
        f"expected a name after AS, got {token!r}", offset)), offset)


def test_a_dangling_as_is_reported_before_what_follows_an_as():
    with pytest.raises(ParseError) as err:
        sql.parse_sql("SELECT X FROM A AS ( SELECT Y FROM B AS )")
    assert str(err.value) == "dangling AS in FROM clause (at byte offset 37)"


def test_declarations_follow_the_blocks_then_their_clauses():
    # A block's FROM clauses come before its subqueries' in the declared
    # order, so the alias rule reports C's bad alias before B's.
    text = ("SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN ( SELECT "
            "Balias0.Y FROM B AS Balias0 ) UNION SELECT Calias0.X FROM C AS "
            "Calias0")
    assert list(sql.parse_sql(text).declared.items()) == [
        ("Aalias0", "A"), ("Calias0", "C"), ("Balias0", "B")]
    q = sql.parse_sql(text.replace("AS Balias0", "AS B1")
                      .replace("AS Calias0", "AS C1"))
    with pytest.raises(TransformError) as err:
        sql.sql_to_rir(q)
    assert str(err.value) == "declared alias 'C1' is not 'Calias' plus a number"


def test_skipped_subqueries_leave_the_condition_spans(sql_records,
                                                     differential):
    # Reading every token of each WHERE/HAVING body, subqueries included,
    # is the reference for the spans of the layout, which skips them.
    programs = [record.y for record in sql_records]
    rng = random.Random("sql condition spans")
    texts = programs + [
        differential.mutate(rng, rng.choice(programs), differential.SQL_VOCAB)
        for _ in range(10000)]
    subqueries = 0
    for text in texts:
        try:
            q = sql.parse_sql(text)
        except ParseError:
            continue
        shape = tuple(f[sql._SHAPE] for f in q.facts)
        blocks = list(q.block.walk())
        froms = [(c.start, c.end) for b in blocks for c in b.clauses
                 if c.name == "FROM"]
        # The lossy IR drops a subquery inside a FROM clause whole, so its
        # conditions are not split.
        read_all = [(c.start, tuple(sql.iter_conditions(
            shape, q.depths, c.start + 1, c.end)))
            for b in blocks for c in b.clauses
            if c.name in ("WHERE", "HAVING")
            and not any(s <= b.start < e for s, e in froms)]
        assert list(q.layout.conditions) == read_all, text
        subqueries += any(b.children for b in blocks)
    assert subqueries > 500


def test_a_shared_tree_is_read_only():
    text = ("SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN "
            "( SELECT Balias0.Y FROM B AS Balias0 )")
    block = sql.parse_sql(text).block
    assert sql.parse_sql(text.replace("X", "Z")).block is block
    for mutate in (lambda: setattr(block, "end", 0),
                   lambda: setattr(block.clauses[0], "end", 0),
                   lambda: block.children.append(block),
                   lambda: block.clauses.__setitem__(0, None)):
        with pytest.raises((AttributeError, TypeError)):
            mutate()
    assert sql.parse_sql(text).block == block


def test_to_rir_makes_no_regex_substitution(sql_records):
    queries = [sql.parse_sql(record.y) for record in sql_records]
    called = set()
    # With the alias-set table cleared, the walk decides each set.
    sql._alias_rule.cache_clear()

    def profile(frame, event, arg):
        called.add(arg.__name__ if event == "c_call"
                   else frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for q in queries:
            sql.sql_to_rir(q)
    finally:
        sys.setprofile(None)
    assert "_renames" in called
    assert not called & {"sub", "subn"}


def _walked(q, to_rir):
    """The rename of ``sql_to_rir`` (``to_rir``) or ``sql_from_rir`` as the
    walk over every token gives it, with no table: its tokens, their facts,
    the value flags, the layout and the declarations, or the error."""
    try:
        if not to_rir:
            for tok, f in zip(q.tokens, q.facts):
                if not f[sql._QUOTED] and ALIAS_RE.search(tok):
                    raise InversionError(
                        f"input already contains an alias token: {tok!r}")
        renames = sql._renames(q.tokens, q.facts, q.declared, to_rir)
    except (TransformError, InversionError) as exc:
        return type(exc), str(exc)
    tokens = tuple([renames.get(tok, tok) for tok in q.tokens])
    return (tokens, tuple(map(sql._facts, tokens)), q.values, q.layout,
            [(renames.get(alias, alias),
              table if to_rir else renames.get(table, table))
             for alias, table in q.declared.items()])


def _renamed(q, to_rir):
    """What ``sql_to_rir`` or ``sql_from_rir`` gives, in ``_walked``'s
    form."""
    try:
        z = (sql.sql_to_rir if to_rir else sql.sql_from_rir)(q)
    except (TransformError, InversionError) as exc:
        return type(exc), str(exc)
    return z.tokens, z.facts, z.values, z.layout, list(z.declared.items())


def test_the_alias_set_table_serves_what_the_walk_gives(sql_records,
                                                        differential):
    # Programs and z_r's: the fixtures and seeded token mutations of them.
    # Once against a table that earlier queries of each alias set filled,
    # and once with the table cleared before each query.
    programs = [record.y for record in sql_records]
    rirs = [sql.sql_to_rir(sql.parse_sql(y)).render() for y in programs]
    rng = random.Random("sql alias sets")
    queries = []
    for bases, to_rir in ((programs, True), (rirs, False)):
        for text in bases + [
                differential.mutate(rng, rng.choice(bases),
                                    differential.SQL_VOCAB)
                for _ in range(10000)]:
            try:
                queries.append((sql.parse_sql(text), to_rir))
            except ParseError:
                pass
    expected = [_walked(q, to_rir) for q, to_rir in queries]
    sql._alias_rule.cache_clear()
    assert [_renamed(q, to_rir) for q, to_rir in queries] == expected
    info = sql._alias_rule.cache_info()
    assert info.hits > 2000
    assert info.currsize <= info.maxsize == sql.ALIAS_SETS_SIZE
    for (q, to_rir), walked in zip(queries, expected):
        sql._alias_rule.cache_clear()
        assert _renamed(q, to_rir) == walked
    errors = [walked[0] for walked in expected if len(walked) == 2]
    assert {TransformError, InversionError} <= set(errors)
    assert len(errors) < len(expected)


def test_a_seen_alias_set_is_not_walked_again(sql_records, monkeypatch):
    # Only the first query of an alias set, in each direction, walks its
    # tokens; a later one reads the renames from the set's entry.
    calls = []
    walk = sql._renames
    monkeypatch.setattr(sql, "_renames",
                        lambda *args: calls.append(1) or walk(*args))
    queries = [sql.parse_sql(record.y) for record in sql_records]

    def both_ways():
        return [(z, sql.sql_from_rir(z))
                for z in map(sql.sql_to_rir, queries)]

    sql._alias_rule.cache_clear()
    first = both_ways()
    assert len(calls) == sql._alias_rule.cache_info().currsize
    calls.clear()
    assert both_ways() == first
    assert calls == []


def test_from_rir_requires_declared_alias():
    z = sql.parse_sql("SELECT FLIGHT0.X FROM FLIGHT AS FLIGHT0 WHERE B1.Y = 2")
    with pytest.raises(InversionError):
        sql.sql_from_rir(z)


def test_from_rir_rejects_non_canonical_declaration():
    z = sql.parse_sql("SELECT F0.X FROM FLIGHT AS F0")
    with pytest.raises(InversionError):
        sql.sql_from_rir(z)


def test_from_rir_rejects_leftover_alias_tokens():
    z = sql.parse_sql("SELECT FLIGHTalias0.X FROM FLIGHT AS FLIGHTalias0")
    with pytest.raises(InversionError):
        sql.sql_from_rir(z)


def test_self_join_aliases_restore_distinctly():
    text = ("SELECT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 , "
            "FLIGHT AS FLIGHTalias1 WHERE FLIGHTalias0.ARRIVAL_TIME < "
            "FLIGHTalias1.DEPARTURE_TIME")
    q = sql.parse_sql(text)
    z = sql.sql_to_rir(q)
    assert "FLIGHT0" in z.tokens[z.tokens.index("FROM"):]
    assert sql.sql_from_rir(z).render() == text


# ---------------------------------------------------------------------------
# Condition classification
# ---------------------------------------------------------------------------


def _conditions(q):
    return [(start, end) for _, spans in q.layout.conditions
            for start, end, _ in spans]


def test_join_only_condition():
    q = sql.parse_sql("SELECT writes.paperid FROM WRITES AS WRITESalias0 "
                      "WHERE writes.paperid = paper.paperid")
    (span,) = _conditions(q)
    assert sql.classify_condition(q, span) == sql.JOIN_ONLY


def test_value_condition_is_semantic():
    q = sql.parse_sql('SELECT Aalias0.X FROM A AS Aalias0 '
                      'WHERE Aalias0.airport = "SFO"')
    (span,) = _conditions(q)
    assert sql.classify_condition(q, span) == sql.SEMANTIC


def test_subquery_condition_is_semantic():
    q = sql.parse_sql("SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.X = "
                      "( SELECT Balias0.X FROM B AS Balias0 )")
    span = _conditions(q)[0]
    assert sql.classify_condition(q, span) == sql.SEMANTIC


def test_non_equality_operator_is_semantic():
    q = sql.parse_sql("SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 "
                      "WHERE Aalias0.X < Balias0.X")
    (span,) = _conditions(q)
    assert sql.classify_condition(q, span) == sql.SEMANTIC


def test_between_and_is_not_a_connector():
    q = sql.parse_sql("SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.X "
                      "BETWEEN 5 AND 10 AND Aalias0.Y = Aalias0.Z")
    spans = _conditions(q)
    assert len(spans) == 2


# ---------------------------------------------------------------------------
# Lossy IR
# ---------------------------------------------------------------------------


def test_lir_drops_from_masks_tables_removes_joins():
    text = ('SELECT FLIGHTalias0.FLIGHT_ID FROM AIRPORT AS AIRPORTalias0 , '
            'FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.AIRLINE_CODE = "UA" '
            'AND FLIGHTalias0.AIRPORT = AIRPORTalias0.AIRPORT')
    lir = sql.sql_to_lir(sql.parse_sql(text))
    assert lir == 'SELECT T.FLIGHT_ID WHERE T.AIRLINE_CODE = "UA"'
    # A subquery inside a FROM clause goes with it, connectors included.
    q = sql.parse_sql("SELECT A.X FROM ( SELECT A.X FROM A WHERE A.Y = 1 "
                      "AND A.Z = 2 )")
    assert sql.sql_to_lir(q) == "SELECT A.X"
    assert formalisms.TABLE["sql"].to_lir(sql.sql_to_rir(q)) == "SELECT A.X"


def test_lir_drops_where_when_all_joins():
    text = ("SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 "
            "WHERE Aalias0.K = Balias0.K")
    lir = sql.sql_to_lir(sql.parse_sql(text))
    assert lir == "SELECT T.X"


def test_lir_keeps_leading_semantic_condition():
    text = ('SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 WHERE '
            'Aalias0.K = Balias0.K AND Aalias0.V = 3 AND Balias0.W = Aalias0.W '
            'AND Balias0.U = "z"')
    lir = sql.sql_to_lir(sql.parse_sql(text))
    assert lir == 'SELECT T.X WHERE T.V = 3 AND T.U = "z"'


def test_lir_matches_rule_by_rule_oracle(sql_records):
    for record in sql_records:
        lib = sql.sql_to_lir(sql.parse_sql(record.y))
        assert lib == oracle_sql_lir(record.y), record.id


def test_lir_has_no_from_alias_or_table_tokens(sql_records):
    for record in sql_records:
        q = sql.parse_sql(record.y)
        declared_tables = {q.tokens[i - 1]
                           for i in range(len(q.tokens))
                           if q.tokens[i].upper() == "AS" and i > 0}
        lir = sql.sql_to_lir(q)
        assert "alias" not in lir
        for tok in sql.lex_sql(lir):
            assert tok.upper() != "FROM"
            assert tok not in declared_tables


def test_lir_is_idempotent(sql_records):
    for record in sql_records:
        once = sql.sql_to_lir(sql.parse_sql(record.y))
        again = sql.sql_to_lir(sql.parse_sql(once))
        assert again == once


def test_lir_is_subsequence_with_substitutions(sql_records):
    # Every surviving sketch token matches a source-side token in order;
    # masked tokens correspond to alias-qualified source tokens.
    for record in sql_records:
        q = sql.parse_sql(record.y)
        rir_tokens = sql.sql_to_rir(q).tokens
        lir_tokens = sql.lex_sql(sql.sql_to_lir(q))
        i = 0
        for lt in lir_tokens:
            while i < len(rir_tokens):
                st = rir_tokens[i]
                i += 1
                if lt == st:
                    break
                if lt == "T" or lt.startswith("T."):
                    suffix = lt[1:]  # ".COL" or ""
                    if st.endswith(suffix) if suffix else True:
                        break
            else:
                pytest.fail(f"{record.id}: token {lt!r} out of order")


# ---------------------------------------------------------------------------
# Template signatures
# ---------------------------------------------------------------------------


def test_template_replaces_values_with_typed_placeholders():
    q = sql.parse_sql('SELECT Aalias0.X FROM A AS Aalias0 WHERE '
                      'Aalias0.N = "UA" AND Aalias0.M > 300 '
                      'AND Aalias0.C = city_name0')
    assert sql.sql_template_signature(q) == (
        "SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.N = STR "
        "AND Aalias0.M > NUM AND Aalias0.C = STR")


def test_template_value_free_query_unchanged():
    text = "SELECT Aalias0.X FROM A AS Aalias0"
    assert sql.sql_template_signature(sql.parse_sql(text)) == text


def test_template_deterministic(sql_records):
    for record in sql_records:
        q = sql.parse_sql(record.y)
        assert (sql.sql_template_signature(q)
                == sql.sql_template_signature(q))


# ---------------------------------------------------------------------------
# Reused analyses: the query that parsing the rendered tokens again gives
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """What ``fn`` returns, or the type, message and offset it raises."""
    try:
        return fn(*args)
    except IrkitError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _check_token_parse(tokens):
    """The queries that ``sql_to_rir`` and ``sql_from_rir`` rename from the
    query of a token stream, flags and block tree reused, against
    ``parse_sql`` of their rendering."""
    q = _outcome(sql.parse_sql, sql.render_sql(tokens))
    if not isinstance(q, sql.SqlQuery):
        if q[0] is ParseError:
            assert q[2] is not None  # every parse error has an offset
        return
    restored = _outcome(sql.sql_from_rir, q)
    if isinstance(restored, sql.SqlQuery):
        assert restored == sql.parse_sql(restored.render())
    z = _outcome(sql.sql_to_rir, q)
    if isinstance(z, sql.SqlQuery):
        assert z.tokens == tuple(
            tok if value else ALIAS_RE.sub(r"\1\2", tok)
            for tok, value in zip(q.tokens, q.values))
        assert z == sql.parse_sql(z.render())


def test_token_parse_equals_relex_on_fixtures(sql_records):
    cfg = pipeline.PipelineConfig("sql")
    for record in sql_records:
        q = sql.parse_sql(record.y)
        z = sql.sql_to_rir(q)
        _check_token_parse(q.tokens)
        _check_token_parse(z.tokens)
        program = pipeline.Program(record, cfg)
        assert program.lir_rir_text() == sql.sql_to_lir(
            sql.parse_sql(z.render()))
        assert program.rir_text() == z.render()
        assert (pipeline.invert_reversible(z.render(), cfg)
                == sql.parse_sql(sql.sql_from_rir(z).render()).render()
                == record.y)


EDGE_TOKENS = ["aliasalias1", 'x"Aalias1 y"', '"NEW YORK"', "'a b'",
               'a.b"c d"', '"x"y"z w"', "Aalias", "alias1", "0alias1",
               "FLIGHTalias0", "FLIGHTalias0.X", "FLIGHT0", "FLIGHT0.X",
               "Aalias1.Y", "Xalias0.Y)", "T.X", ".X", "X.", "city_name0",
               "2.5", "COUNT(", "count(DISTINCT", "(SELECT"]
SQL_WORDS = ["SELECT", "DISTINCT", "FROM", "AS", "WHERE", "AND", "OR",
             "NOT", "IN", "GROUP", "ORDER", "BY", "HAVING", "LIMIT",
             "BETWEEN", "UNION", "ALL", "(", ")", ",", "=", "<", "FLIGHT",
             "A", "1"]
BARE = st.text(alphabet="Aa_lis01.(),=", min_size=1, max_size=8)
QUOTED = st.tuples(st.text(alphabet="Aalias1.", max_size=3),
                   st.sampled_from(['"', "'"]),
                   st.text(alphabet="Aa lias 01.", max_size=6)).map(
    lambda t: f"{t[0]}{t[1]}{t[2]}{t[1]}")
TOKEN = st.one_of(st.sampled_from(EDGE_TOKENS + SQL_WORDS), BARE, QUOTED)


def _inserted(tokens, edits):
    tokens = list(tokens)
    for index, token in edits:
        tokens.insert(index, token)
    return tokens


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_token_parse_equals_relex_on_generated_streams(sql_records, data):
    fixture = sql.lex_sql(data.draw(st.sampled_from(sql_records)).y)
    stream = data.draw(st.one_of(
        st.lists(TOKEN, max_size=14),
        st.lists(TOKEN, max_size=14).map(lambda t: ["SELECT", *t]),
        st.lists(st.tuples(st.integers(0, len(fixture)), TOKEN),
                 max_size=3).map(lambda edits: _inserted(fixture, edits))))
    assume(_outcome(sql.lex_sql, sql.render_sql(stream)) == stream)
    _check_token_parse(stream)

