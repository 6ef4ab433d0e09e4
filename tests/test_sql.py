import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irkit import pipeline, sql
from irkit.errors import (InversionError, IrkitError, ParseError,
                          TransformError)

from oracles import oracle_sql_lir

FLIGHT_QUERY = ('SELECT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 '
                'WHERE FLIGHTalias0.AIRLINE_CODE = "UA"')


# ---------------------------------------------------------------------------
# Lexing, parsing, annotations
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


def test_parse_flight_query():
    q = sql.parse_sql(FLIGHT_QUERY)
    assert q.render() == FLIGHT_QUERY
    aliases = {tok for tok, tag in zip(q.tokens, q.annotations)
               if tag == sql.TABLE_ALIAS}
    assert aliases == {"FLIGHTalias0"}
    assert [c.name for c in q.block.clauses] == ["SELECT", "FROM", "WHERE"]


def test_parse_select_one():
    q = sql.parse_sql("SELECT 1")
    assert [c.name for c in q.block.clauses] == ["SELECT"]
    assert q.annotations == (sql.KEYWORD, sql.VALUE)


def test_annotations():
    q = sql.parse_sql(FLIGHT_QUERY)
    by_token = dict(zip(q.tokens, q.annotations))
    assert by_token['"UA"'] == sql.VALUE
    assert by_token["="] == sql.OPERATOR
    assert by_token["FLIGHTalias0.FLIGHT_ID"] == sql.COLUMN_REF
    assert by_token["FLIGHT"] == sql.IDENTIFIER
    assert by_token["SELECT"] == sql.KEYWORD


def test_subquery_block_nesting():
    q = sql.parse_sql(
        "SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN "
        "( SELECT Balias0.Y FROM B AS Balias0 )")
    assert len(q.block.children) == 1
    child = q.block.children[0]
    assert [c.name for c in child.clauses] == ["SELECT", "FROM"]
    # spans partition the block's top level and nest properly
    assert child.start > q.block.start and child.end < q.block.end


def test_group_order_having_limit_segmentation():
    q = sql.parse_sql(
        "SELECT Aalias0.X , COUNT( * ) FROM A AS Aalias0 "
        "GROUP BY Aalias0.X HAVING COUNT( * ) > 2 "
        "ORDER BY COUNT( * ) DESC LIMIT 5")
    assert [c.name for c in q.block.clauses] == [
        "SELECT", "FROM", "GROUP_BY", "HAVING", "ORDER_BY", "LIMIT"]


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


_SUB_IN_WHERE = [(0, 17, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 17)],
                  [(10, 16)]),
                 (10, 16, [("SELECT", 10, 12), ("FROM", 12, 16)], [])]
_UNBALANCED = (ParseError, "unbalanced parentheses")

# name: (token stream, outcome of parse_sql_tokens, outcome of sql_from_rir
# or None when it is the same).  An outcome is every block in walk order as
# (start, end, [(clause, start, end)], [child (start, end)]), or the error's
# type and message.  The streams hold no alias token, so sql_from_rir
# restores nothing, but it segments before it checks the balance.
SEGMENTATION_CASES = {
    "subquery-in-where": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN "
        "( SELECT B0.Y FROM B AS B0 )", _SUB_IN_WHERE, None),
    "subquery-in-plain-group": (
        "SELECT A0.X FROM A AS A0 WHERE "
        "( A0.Y IN ( SELECT B0.Y FROM B AS B0 ) )",
        [(0, 19, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 19)],
          [(11, 17)]),
         (11, 17, [("SELECT", 11, 13), ("FROM", 13, 17)], [])], None),
    "doubly-nested": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN ( SELECT B0.Y FROM B AS B0 "
        "WHERE B0.Z IN ( SELECT C0.Z FROM C AS C0 ) ) ORDER BY A0.X",
        [(0, 31, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 28),
                  ("ORDER_BY", 28, 31)], [(10, 27)]),
         (10, 27, [("SELECT", 10, 12), ("FROM", 12, 16), ("WHERE", 16, 27)],
          [(20, 26)]),
         (20, 26, [("SELECT", 20, 22), ("FROM", 22, 26)], [])], None),
    "union-all": (
        "SELECT A0.X FROM A AS A0 UNION ALL SELECT B0.X FROM B AS B0",
        [(0, 14, [("SELECT", 0, 2), ("FROM", 2, 6), ("SET_OP", 6, 8),
                  ("SELECT", 8, 10), ("FROM", 10, 14)], [])], None),
    "union-in-subquery": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN ( SELECT B0.Y FROM B AS B0 "
        "UNION SELECT C0.Y FROM C AS C0 )",
        [(0, 24, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 24)],
          [(10, 23)]),
         (10, 23, [("SELECT", 10, 12), ("FROM", 12, 16), ("SET_OP", 16, 17),
                   ("SELECT", 17, 19), ("FROM", 19, 23)], [])], None),
    "glued-count": (
        "SELECT COUNT( DISTINCT A0.X ) FROM A AS A0 GROUP BY A0.Y "
        "HAVING COUNT( * ) > 1 LIMIT 1",
        [(0, 20, [("SELECT", 0, 5), ("FROM", 5, 9), ("GROUP_BY", 9, 12),
                  ("HAVING", 12, 18), ("LIMIT", 18, 20)], [])], None),
    "group-without-by-in-subquery": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN "
        "( SELECT B0.Y FROM B AS B0 GROUP B0.Y )",
        (ParseError, "GROUP not followed by BY"), None),
    "order-without-by-at-end": (
        "SELECT A0.X FROM A AS A0 ORDER",
        (ParseError, "ORDER not followed by BY"), None),
    "set-op-then-no-clause": (
        "SELECT A0.X UNION A0.Y",
        (ParseError, "token 'A0.Y' appears before any clause keyword"), None),
    "unclosed-subquery-then-clause-error": (
        "SELECT A0.X FROM A AS A0 WHERE A0.Y IN ( SELECT B0.Y GROUP B0.Y",
        (ParseError, "unbalanced '('"), _UNBALANCED),
    "clause-error-then-unclosed-subquery": (
        "SELECT A0.X GROUP A0.X WHERE A0.Y IN ( SELECT B0.Y",
        (ParseError, "unbalanced '('"),
        (ParseError, "GROUP not followed by BY")),
    "stray-close-before-subquery": (
        "SELECT A0.X ) ( SELECT B0.Y FROM B AS B0 )",
        (ParseError, "unbalanced ')'"), _UNBALANCED),
    "stray-close-swallows-a-clause": (
        "SELECT A0.X ) GROUP ( SELECT B0.Y GROUP B0.Y )",
        (ParseError, "unbalanced ')'"),
        (ParseError, "GROUP not followed by BY")),
    "no-subquery-below-depth-zero": (
        "SELECT A0.X ) ) ( SELECT B0.Y ) GROUP B0.Y",
        (ParseError, "unbalanced ')'"), _UNBALANCED),
    "not-select-first": (
        "FROM A AS A0 WHERE ( SELECT",
        (ParseError, "query starts with 'FROM', not SELECT "
                     "(at byte offset 0)"), _UNBALANCED),
}


# Tokens holding several parens move the depth by their net count, and a
# group closes at the first token that brings the depth back to, or past,
# its opener's depth (see ``sql._segment``).
MULTI_PAREN_CASES = {
    "close-past-the-opener": (
        "SELECT COUNT( * )) FROM A AS A0",
        (ParseError, "unbalanced ')'"), None),
    "double-open": (
        "SELECT COUNT(( A0.X )) FROM A AS A0",
        [(0, 8, [("SELECT", 0, 4), ("FROM", 4, 8)], [])], None),
    "close-then-open": (
        "SELECT A0.X )( A0.Y FROM A AS A0",
        [(0, 8, [("SELECT", 0, 4), ("FROM", 4, 8)], [])], None),
    "one-token-closes-subquery-and-group": (
        "SELECT A0.X FROM A AS A0 WHERE "
        "( A0.Y IN ( SELECT B0.Y FROM B AS B0 ))",
        [(0, 18, [("SELECT", 0, 2), ("FROM", 2, 6), ("WHERE", 6, 18)],
          [(11, 17)]),
         (11, 17, [("SELECT", 11, 13), ("FROM", 13, 17)], [])], None),
}


def _segmentation(fn, tokens):
    try:
        q = fn(tokens)
    except IrkitError as exc:
        return type(exc), str(exc)
    return [(b.start, b.end, [(c.name, c.start, c.end) for c in b.clauses],
             [(child.start, child.end) for child in b.children])
            for b in q.block.walk()]


@pytest.mark.parametrize("name", list(SEGMENTATION_CASES))
def test_segmentation_cases(name):
    _check_segmentation(*SEGMENTATION_CASES[name])


@pytest.mark.parametrize("name", list(MULTI_PAREN_CASES))
def test_multi_paren_token_segmentation(name):
    _check_segmentation(*MULTI_PAREN_CASES[name])


def _check_segmentation(text, parsed, from_rir):
    tokens = tuple(text.split())
    assert _segmentation(sql.parse_sql_tokens, tokens) == parsed
    assert (_segmentation(lambda t: sql.sql_from_rir(sql.SqlRir(t)), tokens)
            == (parsed if from_rir is None else from_rir))


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


def test_inverse_segments_z_once_into_the_programs_query(sql_records,
                                                        monkeypatch):
    calls = []
    segment = sql._segment
    monkeypatch.setattr(sql, "_segment",
                        lambda *args: calls.append(1) or segment(*args))
    for record in sql_records:
        q = sql.parse_sql(record.y)
        z = sql.sql_to_rir(q)
        calls.clear()
        assert sql.sql_from_rir(z) == q
        assert len(calls) == 1


def test_rewrite_collision_is_an_error():
    q = sql.parse_sql("SELECT FLIGHTalias0.X FROM FLIGHT AS FLIGHTalias0 "
                      "WHERE FLIGHTalias0.Y = FLIGHT0")
    with pytest.raises(TransformError):
        sql.sql_to_rir(q)


def test_from_rir_requires_declared_alias():
    z = sql.SqlRir(tuple(
        "SELECT FLIGHT0.X FROM FLIGHT AS FLIGHT0 WHERE B1.Y = 2".split()))
    with pytest.raises(InversionError):
        sql.sql_from_rir(z)


def test_from_rir_rejects_non_canonical_declaration():
    z = sql.SqlRir(tuple("SELECT F0.X FROM FLIGHT AS F0".split()))
    with pytest.raises(InversionError):
        sql.sql_from_rir(z)


def test_from_rir_rejects_leftover_alias_tokens():
    z = sql.SqlRir(tuple(
        "SELECT FLIGHTalias0.X FROM FLIGHT AS FLIGHTalias0".split()))
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
    out = []
    for block in q.block.walk():
        for clause in block.clauses:
            if clause.name in ("WHERE", "HAVING"):
                for start, end, _ in sql.iter_conditions(q, clause,
                                                         clause.start + 1):
                    out.append((start, end))
    return out


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
    assert lir.render() == 'SELECT T.FLIGHT_ID WHERE T.AIRLINE_CODE = "UA"'


def test_lir_drops_where_when_all_joins():
    text = ("SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 "
            "WHERE Aalias0.K = Balias0.K")
    lir = sql.sql_to_lir(sql.parse_sql(text))
    assert lir.render() == "SELECT T.X"


def test_lir_keeps_leading_semantic_condition():
    text = ('SELECT Aalias0.X FROM A AS Aalias0 , B AS Balias0 WHERE '
            'Aalias0.K = Balias0.K AND Aalias0.V = 3 AND Balias0.W = Aalias0.W '
            'AND Balias0.U = "z"')
    lir = sql.sql_to_lir(sql.parse_sql(text))
    assert lir.render() == 'SELECT T.X WHERE T.V = 3 AND T.U = "z"'


def test_lir_matches_rule_by_rule_oracle(sql_records):
    for record in sql_records:
        lib = sql.sql_to_lir(sql.parse_sql(record.y)).render()
        assert lib == oracle_sql_lir(record.y), record.id


def test_lir_has_no_from_alias_or_table_tokens(sql_records):
    for record in sql_records:
        q = sql.parse_sql(record.y)
        declared_tables = {q.tokens[i - 1]
                           for i in range(len(q.tokens))
                           if q.tokens[i].upper() == "AS" and i > 0}
        lir = sql.sql_to_lir(q)
        assert "alias" not in lir.render()
        for tok in lir.tokens:
            assert tok.upper() != "FROM"
            assert tok not in declared_tables


def test_lir_is_idempotent(sql_records):
    for record in sql_records:
        once = sql.sql_to_lir(sql.parse_sql(record.y))
        again = sql.sql_to_lir(sql.parse_sql(once.render()))
        assert again.tokens == once.tokens


def test_lir_is_subsequence_with_substitutions(sql_records):
    # Every surviving sketch token matches a source-side token in order;
    # masked tokens correspond to alias-qualified source tokens.
    for record in sql_records:
        q = sql.parse_sql(record.y)
        rir_tokens = sql.sql_to_rir(q).tokens
        lir_tokens = sql.sql_to_lir(q).tokens
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
# Token-level parsing: the query that lexing the rendered tokens again gives
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """What ``fn`` returns, or the type, message and offset it raises."""
    try:
        return fn(*args)
    except IrkitError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _check_token_parse(tokens):
    """``parse_sql_tokens`` against parsing the rendered text, and the
    paths built on it against the render-and-re-lex compositions."""
    tokens = tuple(tokens)
    text = sql.render_sql(tokens)
    assert _outcome(sql.parse_sql_tokens, tokens) == _outcome(sql.parse_sql,
                                                              text)
    for tok in tokens:
        assert sql._rewrite_alias(tok) == (
            tok if tok.startswith(('"', "'"))
            else sql._ALIAS_RE.sub(r"\1\2", tok))
    restored = _outcome(sql.sql_from_rir, sql.SqlRir(tokens))
    if isinstance(restored, sql.SqlQuery):
        assert restored == sql.parse_sql(restored.render())
    z = _outcome(lambda: sql.sql_to_rir(sql.parse_sql_tokens(tokens)))
    if isinstance(z, sql.SqlRir):
        assert (_outcome(sql.parse_sql_tokens, z.tokens)
                == _outcome(sql.parse_sql, z.render()))


def test_token_parse_equals_relex_on_fixtures(sql_records):
    cfg = pipeline.PipelineConfig("sql")
    for record in sql_records:
        q = sql.parse_sql(record.y)
        z = sql.sql_to_rir(q)
        _check_token_parse(q.tokens)
        _check_token_parse(z.tokens)
        program = pipeline.Program(record, cfg)
        assert program.lir_rir_text() == sql.sql_to_lir(
            sql.parse_sql(z.render())).render()
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

