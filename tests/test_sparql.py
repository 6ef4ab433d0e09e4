import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irkit import data, formalisms, pipeline
from irkit import sparql as sp
from irkit.errors import InversionError, ParseError, TransformError

from oracles import (is_sparql_entity, is_sparql_variable,
                     oracle_sparql_lir, oracle_sparql_varify,
                     oracle_truncations)

ALL_ON = sp.RirOptions()
ALL_OFF = sp.RirOptions(merge_conjuncts=False, shorten_relations=False,
                        brackets=False)


def q(text):
    return sp.parse_sparql(text)


def rows(query):
    """A query's (subject, relation, object) rows."""
    return list(zip(query.subjects, query.relations, query.objects))


def from_rows(head, rows, bracketed=False):
    """The query of ``head`` and (subject, relation, object) ``rows``."""
    return sp.SparqlQuery(head, tuple(r[0] for r in rows),
                          tuple(r[1] for r in rows),
                          tuple(r[2] for r in rows), bracketed)


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------


def test_parse_single_conjunct():
    query = q("SELECT count(*) WHERE { ?x0 people.person.nationality m_0f8l9c }")
    assert query.head.kind == sp.COUNT
    assert (query.subjects, query.relations, query.objects) == (
        ("?x0",), ("people.person.nationality",), ("m_0f8l9c",))


def test_parse_empty_body():
    query = q("SELECT count(*) WHERE { }")
    assert (query.subjects, query.relations, query.objects) == ((), (), ())
    assert sp.render_sparql(query) == "SELECT count(*) WHERE { }"


def test_parse_distinct_head_order():
    query = q("SELECT DISTINCT ?x1 ?x0 WHERE { ?x0 r ?x1 }")
    assert query.head == sp.SelectHead(sp.DISTINCT, ("?x1", "?x0"))


def test_parse_filter():
    query = q("SELECT count(*) WHERE { ?x0 r M0 . FILTER ( ?x0 != ?x1 ) . ?x1 r M0 }")
    assert rows(query)[1] == ("?x0", "!=", "?x1")


def test_render_is_canonical():
    text = "SELECT count(*) WHERE { ?x0 people.person.nationality m_0f8l9c }"
    assert sp.render_sparql(q(text)) == text


@pytest.mark.parametrize("bad, offset_of", [
    ("SELECT count(*) WHERE { ?x0 r }", "}"),
    ("SELECT count(*) WHERE { ?x0 r M0", None),
    ("SELECT nonsense WHERE { }", "nonsense"),
    ("SELECT DISTINCT ?x0 WHERE { M0 r M1 }", "{"),  # unused head variable
    ("SELECT count(*) WHERE { FILTER ( ?x0 = ?x1 ) }", "="),
])
def test_parse_errors_carry_offsets(bad, offset_of):
    with pytest.raises(ParseError) as err:
        q(bad)
    if offset_of is not None and offset_of in bad.split():
        assert err.value.offset is not None
        assert err.value.offset <= len(bad.encode("utf-8"))


def test_parse_error_expected_tokens():
    with pytest.raises(ParseError) as err:
        q("SELECT count(*) SOMETHING { }")
    assert "WHERE" in err.value.expected


# Exact message, byte offset and expected tokens of each parse error, through
# the parsers that accept the same prefix.  Offsets are in UTF-8 bytes, so
# non-ASCII tokens and Unicode whitespace shift them.
_H = "SELECT count(*) WHERE {"
_BOTH = (sp.parse_sparql, sp.parse_rir)
_EOF = "unexpected end of input"
_OBJ = ("<object>",)
PARSE_ERRORS = [
    # end of input at each head position
    (_BOTH, "", _EOF, 0, ("SELECT",)),
    (_BOTH, "   ", _EOF, 3, ("SELECT",)),
    (_BOTH, "SELECT", _EOF, 6, ("count(*)", "DISTINCT")),
    (_BOTH, "SELECT count(*)", _EOF, 15, ("WHERE",)),
    (_BOTH, "SELECT count(*) WHERE", _EOF, 21, ("{",)),
    (_BOTH, _H, "unterminated body", 23, ("}",)),
    (_BOTH, "SELECT DISTINCT ?x0", _EOF, 19, ("WHERE",)),
    # head shape
    (_BOTH, "SELECT DISTINCT", "DISTINCT head needs at least one variable",
     15, ("<variable>",)),
    (_BOTH, "SELECT DISTINCT WHERE { }",
     "DISTINCT head needs at least one variable", 16, ("<variable>",)),
    (_BOTH, "SELECT DISTINCT ?x0 M0 WHERE { }",
     "non-variable token 'M0' in select head", 20, ("<variable>", "WHERE")),
    (_BOTH, "SELECT nonsense WHERE { }", "unexpected token 'nonsense'", 7,
     ("count(*)", "DISTINCT")),
    (_BOTH, "WHERE count(*) WHERE { }", "unexpected token 'WHERE'", 0,
     ("SELECT",)),
    (_BOTH, "SELECT count(*) SOMETHING { }", "unexpected token 'SOMETHING'",
     16, ("WHERE",)),
    (_BOTH, "SELECT count(*) WHERE ( }", "unexpected token '('", 22, ("{",)),
    # unused head variables fail at the byte length, trailing space included
    ((sp.parse_sparql,), "SELECT DISTINCT ?x0 WHERE { M0 r M1 }",
     "head variable(s) ?x0 never used in body", 37, ()),
    ((sp.parse_sparql,), "SELECT DISTINCT ?x0 ?x1 ?x2 WHERE { ?x1 r M1 }  ",
     "head variable(s) ?x0, ?x2 never used in body", 48, ()),
    ((sp.parse_sparql,), "SELECT DISTINCT ?x0 WHERE { M0 r Müller }\t",
     "head variable(s) ?x0 never used in body", 43, ()),
    # reserved tokens as subject, relation, object and filter term
    (_BOTH, _H + " WHERE r M0 }",
     "reserved token 'WHERE' where a subject was expected", 24,
     ("<subject>",)),
    (_BOTH, _H + " . r M0 }",
     "reserved token '.' where a subject was expected", 24, ("<subject>",)),
    (_BOTH, _H + " ?x0 FILTER M0 }",
     "reserved token 'FILTER' where a relation was expected", 28,
     ("<relation>",)),
    (_BOTH, _H + " ?x0 count(*) M0 }",
     "reserved token 'count(*)' where a relation was expected", 28,
     ("<relation>",)),
    (_BOTH, _H + " ?x0 r }",
     "reserved token '}' where a object was expected", 30, _OBJ),
    (_BOTH, _H + " ?x0 r DISTINCT }",
     "reserved token 'DISTINCT' where a object was expected", 30, _OBJ),
    (_BOTH, _H + " ?x0 r", _EOF, 29, _OBJ),
    (_BOTH, _H + " FILTER ( != ?x1 ) }",
     "reserved token '!=' where a term was expected", 33, ("<term>",)),
    (_BOTH, _H + " FILTER ( ?x0 != . ) }",
     "reserved token '.' where a term was expected", 40, ("<term>",)),
    (_BOTH, _H + " FILTER ( ?x0 !=", _EOF, 39, ("<term>",)),
    # filter shape
    (_BOTH, _H + " FILTER ( ?x0 = ?x1 ) }", "unexpected token '='", 37,
     ("!=",)),
    (_BOTH, _H + " FILTER ?x0 != ?x1 }", "unexpected token '?x0'", 31,
     ("(",)),
    (_BOTH, _H + " FILTER ( ?x0 != ?x1 }", "unexpected token '}'", 44,
     (")",)),
    # wrong separators
    ((sp.parse_sparql,), _H + " ?x0 r M0 , ?x1 r M1 }",
     "unexpected token ','", 33, (".",)),
    ((sp.parse_sparql,), _H + " ?x0 r M0 ?x1 r M1 }",
     "unexpected token '?x1'", 33, (".",)),
    ((sp.parse_rir,), _H + " ?x0 r M0 ; ?x1 r M1 }",
     "unexpected token ';'", 33, (".",)),
    ((sp.parse_rir,), _H + " ( ?x0 r M0 ) . ( ?x1 r M1 ) }",
     "unexpected token '.'", 37, ("(",)),
    ((sp.parse_rir,), _H + " ?x0 r M0 , }",
     "reserved token '}' where a object was expected", 35, _OBJ),
    # bracketed groups
    ((sp.parse_rir,), _H + " ( ?x0 r ( M0 , ) ) }",
     "reserved token ')' where a object was expected", 39, _OBJ),
    ((sp.parse_rir,), _H + " ( ?x0 r ( M0 , M1 ) }",
     "unexpected token '}'", 44, (")",)),
    ((sp.parse_rir,), _H + " ( ?x0 r M0 }", "unexpected token '}'", 35,
     (")",)),
    ((sp.parse_rir,), _H + " ( ?x0 r ( M0 M1 ) ) }",
     "unexpected token 'M1'", 37, (")",)),
    # trailing tokens
    (_BOTH, _H + " } extra", "trailing tokens after closing brace", 26, ()),
    (_BOTH, _H + " ?x0 r M0 } }", "trailing tokens after closing brace", 35,
     ()),
    # non-ASCII tokens and Unicode whitespace before the error
    (_BOTH, _H + " ?x0 r Müller . ?x1 r }",
     "reserved token '}' where a object was expected", 46, _OBJ),
    (_BOTH, "SELECT\xa0count(*)　WHERE { ?x0 ünïcode ( M0 ) }",
     "reserved token '(' where a object was expected", 41, _OBJ),
]


@pytest.mark.parametrize(
    "parse, bad, message, offset, expected",
    [(parse, *case) for parsers, *case in PARSE_ERRORS for parse in parsers],
    ids=lambda v: v.__name__ if callable(v) else None)
def test_parse_error_table(parse, bad, message, offset, expected):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (str(err.value), err.value.offset, err.value.expected) == (
        str(ParseError(message, offset, expected)), offset, expected)


def test_corpus_round_trip(sparql_records):
    for record in sparql_records:
        rendered = sp.render_sparql(q(record.y))
        assert rendered == record.y
        assert sp.render_sparql(q(rendered)) == rendered


@pytest.fixture(scope="module")
def mutated_programs(sparql_records, differential):
    """The fixture programs and 10,000 seeded token mutations of them, as
    scripts/differential.py builds its inputs."""
    programs = [record.y for record in sparql_records]
    rng = random.Random("sparql round trip")
    return programs + [differential.mutate(rng, rng.choice(programs),
                                           differential.SPARQL_VOCAB)
                       for _ in range(10000)]


def parse_outcome(text):
    """The parsed query's repr, which names the node types, or the error's
    message, byte offset and expected tokens."""
    try:
        return repr(q(text))
    except ParseError as err:
        return str(err), err.offset, err.expected


@pytest.mark.parametrize("body", [
    "FILTER ( ?x0 != ?x1 )", "FILTER ( ?x0 != ?x1 ) . ?x0 r M0",
    "?x0 r M0 . FILTER ( ?x0 != ?x1 ) . FILTER ( ?x1 != M0 ) . ?x1 r M1",
    "?x0 r M0 .", ". ?x0 r M0", "?x0 r M0 . . ?x1 r M1", "?x0 r M0 ?x1 r M1",
    "?x0 r M0 . FILTER ( ?x0 != ?x1 )", "?x0 r M0 . FILTER ( ?x0 != ?x1 ) .",
    "?x0 r M0 . FILTER ( ?x0 = ?x1 )", "FILTER ( ?x0 != ?x1 ) ?x0 r M0",
    "FILTER ( ?x0 != . )", "?x0 r M0 . FILTER ( ?x0 != ?x1", "?x0 r",
    "?x0 r M0 } . ?x1 r M1", "?x0 r M0 . ?x1 FILTER M1", "?x0 r , M1",
    "?x0 r M0 , ?x1 r M1", "FILTER ( ?x0 != ?x1 ) , ?x1 r M1"])
def test_slice_reader_agrees_with_the_token_loop_by_hand(body, monkeypatch):
    text = f"SELECT DISTINCT ?x0 WHERE {{ {body} }}"
    sliced = parse_outcome(text)
    monkeypatch.setattr(sp, "_read_body", lambda body: None)
    assert parse_outcome(text) == sliced


def test_slice_reader_agrees_with_the_token_loop(mutated_programs,
                                                 monkeypatch):
    read_body = sp._read_body
    served = Counter()

    def counted(body):
        items = read_body(body)
        served[items is not None] += 1
        return items

    monkeypatch.setattr(sp, "_read_body", counted)
    sliced = [parse_outcome(text) for text in mutated_programs]
    # Both readers are exercised: the slices take over a thousand bodies
    # and hand over a thousand others to the token loop.
    assert served[True] > 1000 and served[False] > 1000, served
    monkeypatch.setattr(sp, "_read_body", lambda body: None)
    assert [parse_outcome(text) for text in mutated_programs] == sliced


def test_slice_reader_serves_every_fixture_program(sparql_records,
                                                   monkeypatch):
    parsed = [q(record.y) for record in sparql_records]
    # With the token loop patched out, a body the slices did not take would
    # call None and fail.
    monkeypatch.setattr(sp, "_read_items", None)
    assert [q(record.y) for record in sparql_records] == parsed


# ---------------------------------------------------------------------------
# Relation dictionary
# ---------------------------------------------------------------------------


def _dict_for(*relations):
    return sp.build_relation_dict([from_rows(
        sp.SelectHead(sp.COUNT),
        [(f"?x{i}", rel, "M0") for i, rel in enumerate(relations)])])


def test_single_relation_truncates_to_last_segment():
    rdict = _dict_for("a.b.ns:people.person.nationality")
    assert rdict.forward == {
        "a.b.ns:people.person.nationality": "nationality"}


def test_shared_last_segment_keeps_two_segments():
    rdict = _dict_for("ns:film.director.film", "ns:film.writer.film")
    assert rdict.forward["ns:film.director.film"] == "director.film"
    assert rdict.forward["ns:film.writer.film"] == "writer.film"


def test_nested_suffix_relations():
    rdict = _dict_for("p.ns:x.y", "q.ns:w.x.y")
    assert rdict.forward == {"p.ns:x.y": "x.y", "q.ns:w.x.y": "w.x.y"}


def test_relation_without_marker_maps_to_itself():
    rdict = _dict_for("a")
    assert rdict.forward == {"a": "a"}


def test_identical_suffixes_are_an_error():
    with pytest.raises(TransformError) as err:
        _dict_for("p.ns:x.y", "q.ns:x.y")
    assert "p.ns:x.y" in str(err.value)
    assert "q.ns:x.y" in str(err.value)


@pytest.mark.parametrize("relation, short", [
    ("p.ns:!=", "!="), ("ns:a.(", "("), ("ns:FILTER", "FILTER")])
def test_a_relation_that_shortens_to_a_reserved_token_is_an_error(relation,
                                                                  short):
    # Its z_r would not parse again, or would read as a filter row.
    with pytest.raises(TransformError) as err:
        _dict_for("ns:a.b", relation)
    assert str(err.value) == (f"relation {relation!r} shortens to the "
                              f"reserved token {short!r}")


def test_empty_corpus_is_an_error():
    with pytest.raises(TransformError):
        sp.build_relation_dict([])


def test_filter_rows_stay_out_of_the_dictionary_and_pass_through():
    programs = [q("SELECT count(*) WHERE { ?x0 p.ns:a.b M0 . "
                  "FILTER ( ?x0 != ?x1 ) . ?x1 p.ns:c.b M1 . ?x0 p.ns:a.b M1 }"),
                q("SELECT count(*) WHERE { FILTER ( ?x1 != M0 ) . "
                  "?x1 p.ns:a.b M0 . FILTER ( ?x1 != M0 ) }"),
                q("SELECT count(*) WHERE { FILTER ( ?x0 != ?x1 ) }")]
    rdict = sp.build_relation_dict(programs)
    assert rdict.forward == {"p.ns:a.b": "a.b", "p.ns:c.b": "c.b"}
    # The last program has no triple, so its own dictionary is empty.
    empty = sp.build_relation_dict(programs[2:])
    assert empty.forward == {}
    for d, corpus in ((rdict, programs), (empty, programs[2:])):
        for query in corpus:
            filters = [row for row in rows(query) if row[1] == "!="]
            for options in (ALL_ON, sp.RirOptions(brackets=False)):
                z = sp.sparql_to_rir(query, d, options)
                assert [row for row in rows(z) if row[1] == "!="] == filters
                back = sp.sparql_from_rir(z, d)
                assert [row for row in rows(back)
                        if row[1] == "!="] == filters


def test_corpus_dict_matches_bruteforce_oracle(sparql_queries, relation_dict):
    relations = sorted({r for query in sparql_queries
                        for r in query.relations
                        if r not in sp.FILTER_OPS})
    assert dict(relation_dict.forward) == oracle_truncations(relations)


def test_dict_is_a_bijection(relation_dict):
    assert len(relation_dict.forward) == len(relation_dict.backward)
    for full, short in relation_dict.forward.items():
        assert relation_dict.backward[short] == full


def test_truncations_are_suffixes(relation_dict):
    for full, short in relation_dict.forward.items():
        post = full.rsplit("ns:", 1)[-1]
        assert post == short or post.endswith("." + short)


def test_dict_sidecar_round_trip(tmp_path, relation_dict):
    path = tmp_path / "relations.json"
    relation_dict.save(path)
    loaded = sp.RelationDictionary.load(path)
    assert loaded.forward == dict(relation_dict.forward)
    # sorted keys, trailing newline
    text = path.read_text()
    assert text.endswith("\n")
    keys = list(loaded.forward)
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Reversible IR
# ---------------------------------------------------------------------------


def test_merge_groups_shared_subject_and_relation():
    query = q("SELECT count(*) WHERE { ?x0 r1 M1 . ?x0 r1 M2 . ?x0 r2 M1 . ?x0 r2 M2 }")
    z = sp.sparql_to_rir(query, options=sp.RirOptions(shorten_relations=False))
    assert rows(z) == [
        ("?x0", "r1", ("M1", "M2")),
        ("?x0", "r2", ("M1", "M2")),
    ]


def test_merge_preserves_first_occurrence_order():
    query = q("SELECT count(*) WHERE { ?x0 r1 M2 . ?x1 r1 M0 . ?x0 r1 M1 }")
    z = sp.sparql_to_rir(query, options=sp.RirOptions(shorten_relations=False))
    assert rows(z) == [
        ("?x0", "r1", ("M2", "M1")),
        ("?x1", "r1", "M0"),
    ]


def test_merge_keeps_duplicate_objects():
    query = q("SELECT count(*) WHERE { ?x0 r1 M1 . ?x0 r1 M1 }")
    z = sp.sparql_to_rir(query, options=sp.RirOptions(shorten_relations=False))
    assert rows(z) == [("?x0", "r1", ("M1", "M1"))]


def test_filters_are_never_merged():
    query = q("SELECT count(*) WHERE { FILTER ( ?x0 != ?x1 ) . FILTER ( ?x0 != ?x1 ) }")
    z = sp.sparql_to_rir(query, options=sp.RirOptions(shorten_relations=False))
    assert rows(z) == [("?x0", "!=", "?x1")] * 2


def test_all_off_options_render_identically(sparql_records):
    for record in sparql_records[:40]:
        z = sp.sparql_to_rir(q(record.y), options=ALL_OFF)
        assert sp.render_rir(z) == record.y


def test_missing_relation_is_an_error(relation_dict):
    query = q("SELECT count(*) WHERE { ?x0 not.in.the.corpus M0 }")
    with pytest.raises(TransformError):
        sp.sparql_to_rir(query, relation_dict, ALL_ON)


def test_shorten_without_dict_is_an_error():
    with pytest.raises(TransformError):
        sp.sparql_to_rir(q("SELECT count(*) WHERE { }"), None, ALL_ON)


def test_to_rir_rejects_a_z_r_with_a_merged_group(relation_dict):
    z = sp.parse_rir("SELECT count(*) WHERE { "
                     "( ?x0 ns:film.film.directed_by ( M1 , M2 ) ) }")
    with pytest.raises(TransformError) as err:
        sp.sparql_to_rir(z, relation_dict, ALL_ON)
    assert str(err.value) == ("sparql_to_rir takes a program: each group "
                              "holds one object, not 2")


def test_bracketed_render_shape(relation_dict):
    query = q("SELECT count(*) WHERE { ?x0 ns:people.person.gender M0 . "
              "?x0 ns:people.person.gender M1 . FILTER ( ?x0 != ?x1 ) . ?x1 a M0 }")
    z = sp.sparql_to_rir(query, relation_dict, ALL_ON)
    assert sp.render_rir(z) == (
        "SELECT count(*) WHERE { ( ?x0 gender ( M0 , M1 ) ) "
        "( FILTER ( ?x0 != ?x1 ) ) ( ?x1 a M0 ) }")


def test_unbracketed_render_shape(relation_dict):
    query = q("SELECT count(*) WHERE { ?x0 ns:people.person.gender M0 . "
              "?x0 ns:people.person.gender M1 . FILTER ( ?x0 != ?x1 ) }")
    z = sp.sparql_to_rir(query, relation_dict,
                         sp.RirOptions(brackets=False))
    assert sp.render_rir(z) == (
        "SELECT count(*) WHERE { ?x0 gender M0 , M1 . "
        "FILTER ( ?x0 != ?x1 ) }")


def test_from_rir_expands_in_object_order():
    z = from_rows(sp.SelectHead(sp.COUNT), [("?x0", "r1", ("M1", "M2"))],
                  True)
    back = sp.sparql_from_rir(z)
    assert back == from_rows(sp.SelectHead(sp.COUNT), [
        ("?x0", "r1", "M1"),
        ("?x0", "r1", "M2")])


def test_from_rir_empty():
    z = sp.SparqlQuery(sp.SelectHead(sp.COUNT), (), (), ())
    assert rows(sp.sparql_from_rir(z)) == []


def test_from_rir_unknown_relation(relation_dict):
    z = from_rows(sp.SelectHead(sp.COUNT), [("?x0", "zzz.unknown", "M1")],
                  True)
    with pytest.raises(InversionError):
        sp.sparql_from_rir(z, relation_dict)


def test_parse_rir_detects_brackets(relation_dict, sparql_queries):
    for query in sparql_queries[:40]:
        for options in (ALL_ON, sp.RirOptions(brackets=False), ALL_OFF):
            rdict = relation_dict if options.shorten_relations else None
            z = sp.sparql_to_rir(query, rdict, options)
            assert sp.parse_rir(sp.render_rir(z)) == z


def test_parse_rir_malformed_brackets():
    with pytest.raises(ParseError):
        sp.parse_rir("SELECT count(*) WHERE { ( ?x0 r ( M0 , M1 ) }")


@pytest.fixture(scope="module")
def round_trip_queries(sparql_records, mutated_programs):
    """The programs of ``mutated_programs`` that parse, with one relation
    dictionary over them all."""
    queries = []
    for text in mutated_programs:
        try:
            queries.append(q(text))
        except ParseError:
            continue
    assert len(queries) > len(sparql_records)
    return queries, sp.build_relation_dict(queries)


@pytest.mark.parametrize("options", [
    ALL_ON,
    sp.RirOptions(merge_conjuncts=False),
    sp.RirOptions(shorten_relations=False),
    sp.RirOptions(brackets=False),
    ALL_OFF,
    sp.RirOptions(merge_conjuncts=False, shorten_relations=False),
    sp.RirOptions(merge_conjuncts=False, brackets=False),
    sp.RirOptions(shorten_relations=False, brackets=False),
])
def test_corpus_round_trip_through_rir(round_trip_queries, options):
    queries, rdict = round_trip_queries
    rdict = rdict if options.shorten_relations else None
    for query in queries:
        z = sp.sparql_to_rir(query, rdict, options)
        back = sp.sparql_from_rir(sp.parse_rir(sp.render_rir(z)), rdict)
        # Merging moves a group's triples next to its first one; each row
        # comes back, and in order when nothing was merged.
        assert Counter(rows(back)) == Counter(rows(query))
        if not options.merge_conjuncts:
            assert back == query


@pytest.fixture(scope="module")
def generator():
    """``scripts/make_sparql_fixture.py``, loaded as perfbench/generate.py
    loads it."""
    path = Path(__file__).parents[1] / "scripts" / "make_sparql_fixture.py"
    spec = importlib.util.spec_from_file_location("sparql_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def merged_order(generator, program):
    """``program`` with each triple moved next to the first triple of its
    subject and relation, the order in which merging restores it."""
    runs: dict[tuple[str, str], list] = {}
    items = []
    for c in program.conjuncts:
        if type(c) is generator.Filter:
            items.append([c])
        elif (c.subject, c.relation) not in runs:
            items.append(runs.setdefault((c.subject, c.relation), [c]))
        else:
            runs[c.subject, c.relation].append(c)
    return program._replace(conjuncts=tuple(c for run in items for c in run))


@pytest.fixture(scope="module")
def generated_programs(generator):
    """1,500 programs of 100 seeded shapes, drawn as the fixture generator
    draws them, and the relation dictionary of them all."""
    rng = random.Random("generated sparql programs")
    shapes = [generator.make_shape(rng) for _ in range(100)]
    programs = [generator.instantiate(rng.choice(shapes), rng)
                for _ in range(1500)]
    return programs, sp.build_relation_dict(q(p.render()) for p in programs)


@pytest.mark.parametrize("flags", list(itertools.product((True, False),
                                                         repeat=3)))
def test_generated_programs_invert_exactly(generator, generated_programs,
                                           flags):
    # Through transform and invert as the CLI runs them: invert restores
    # each program, in the order merging gives its triples.
    programs, rdict = generated_programs
    options = sp.RirOptions(*flags)
    cfg = pipeline.PipelineConfig("sparql", rir_options=options,
                                  relation_dict=rdict)
    f = formalisms.TABLE["sparql"]
    moved = 0
    for p in programs:
        y = p.render()
        program = pipeline.Program(data.ExampleRecord("0", "x", y), cfg)
        rir = program.rir_text()
        restored = merged_order(generator, p) if options.merge_conjuncts else p
        moved += restored != p
        assert pipeline.invert_reversible(rir, cfg) == restored.render(), y
        assert program.lir_text() == oracle_sparql_lir(y)
        assert program.varified_text() == oracle_sparql_varify(y)
        assert pipeline._lir_of_rir(rir, cfg) == f.to_lir(program.rir)
        assert f.to_lir(program.rir) == oracle_sparql_lir(rir)
    assert (moved > 100) == options.merge_conjuncts, moved


def test_triple_multiset_is_conserved(sparql_queries, relation_dict):
    for query in sparql_queries:
        z = sp.sparql_to_rir(query, relation_dict, ALL_ON)
        back = sp.sparql_from_rir(z, relation_dict)
        # A program's rows each hold one triple or one filter.
        original = sorted(row for row in rows(query)
                          if row[1] not in sp.FILTER_OPS)
        restored = sorted(row for row in rows(back)
                          if row[1] not in sp.FILTER_OPS)
        assert original == restored


def test_merge_key_is_injective(sparql_queries, relation_dict):
    for query in sparql_queries:
        z = sp.sparql_to_rir(query, relation_dict, ALL_ON)
        keys = [(s, r) for s, r, _ in rows(z) if r not in sp.FILTER_OPS]
        assert len(keys) == len(set(keys))


def test_bracket_flag_only_changes_delimiters(sparql_queries, relation_dict):
    # Bracketed and unbracketed forms carry the same content tokens; they
    # differ only in parens (on) versus dot separators (off).
    for query in sparql_queries[:40]:
        on = sp.render_rir(sp.sparql_to_rir(query, relation_dict, ALL_ON))
        off = sp.render_rir(sp.sparql_to_rir(
            query, relation_dict, sp.RirOptions(brackets=False)))
        on_tokens = [t for t in on.split() if t not in "()"]
        off_tokens = [t for t in off.split()]
        # Drop only the separator dots (FILTER parens stay in both).
        stripped = []
        depth = 0
        for tok in off_tokens:
            depth += (tok == "(") - (tok == ")")
            if tok == "." and depth == 0:
                continue
            stripped.append(tok)
        on_no_filter_parens = [t for t in on_tokens]
        off_no_parens = [t for t in stripped if t not in "()"]
        assert on_no_filter_parens == off_no_parens


# ---------------------------------------------------------------------------
# Lossy IR and the VARified form
# ---------------------------------------------------------------------------


def test_lir_anonymizes_terms():
    query = q("SELECT count(*) WHERE { ?x0 marriage.spouses M2 }")
    assert sp.sparql_to_lir(query) == (
        "SELECT count(*) WHERE { var marriage.spouses var }")


def test_lir_anonymizes_head_variables():
    query = q("SELECT DISTINCT ?x0 WHERE { ?x0 r M0 }")
    assert sp.sparql_to_lir(query) == (
        "SELECT DISTINCT var WHERE { var r var }")


def test_lir_on_rir_keeps_structure(relation_dict):
    query = q("SELECT count(*) WHERE { ?x0 ns:people.person.spouse_s M2 . "
              "?x0 ns:people.person.spouse_s M3 }")
    z = sp.sparql_to_rir(query, relation_dict, ALL_ON)
    assert sp.sparql_to_lir(z) == (
        "SELECT count(*) WHERE { ( var spouse_s ( var , var ) ) }")


def test_lir_empty_body_unchanged():
    assert sp.sparql_to_lir(q("SELECT count(*) WHERE { }")) == (
        "SELECT count(*) WHERE { }")


def test_lir_has_no_variable_or_entity_tokens(sparql_queries):
    for query in sparql_queries:
        for tok in sp.sparql_to_lir(query).split():
            assert not is_sparql_variable(tok)
            assert not is_sparql_entity(tok)


def _rename_terms(query, mapping):
    def swap(term):
        return mapping.get(term, term)
    # A filter's operands sit in the subject and object columns.
    objects = tuple(swap(o) if isinstance(o, str) else tuple(map(swap, o))
                    for o in query.objects)
    head = query.head
    if head.kind == sp.DISTINCT:
        head = sp.SelectHead(sp.DISTINCT,
                             tuple(swap(v) for v in head.variables))
    return sp.SparqlQuery(head, tuple(map(swap, query.subjects)),
                          query.relations, objects)


def _term_renaming(query, seed):
    rng = random.Random(seed)
    terms = {t for s, r, o in rows(query) if r not in sp.FILTER_OPS
             for t in (s, o)}
    mapping = {}
    for term in sorted(terms):
        if is_sparql_variable(term):
            mapping[term] = f"?y{rng.randrange(50, 99)}{len(mapping)}"
        elif is_sparql_entity(term):
            mapping[term] = f"m_9zz{len(mapping)}"
    return mapping


def test_consistent_renaming_gives_identical_lir(sparql_queries):
    for i, query in enumerate(sparql_queries[:30]):
        renamed = _rename_terms(query, _term_renaming(query, i))
        assert sp.sparql_to_lir(renamed) == sp.sparql_to_lir(query)


def test_varify_example():
    query = q("SELECT count(*) WHERE { ?x0 marriage.spouses M2 }")
    assert sp.varify(query) == (
        "SELECT count(*) WHERE { var ?x0 marriage.spouses var M2 }")


def test_varify_empty_body():
    assert sp.varify(q("SELECT count(*) WHERE { }")) == (
        "SELECT count(*) WHERE { }")


@pytest.mark.parametrize("body", [
    "var r M1", "?x0 var M1", "?x0 r var", "?x0 r M1 . FILTER ( var != ?x0 )",
    "?x0 r M1 . FILTER ( ?x0 != var )"])
def test_varify_rejects_the_marker_as_a_term(body):
    # strip_var_markers drops every ``var`` token, so the VARified form of
    # such a program would not restore it.
    query = q(f"SELECT count(*) WHERE {{ {body} }}")
    with pytest.raises(TransformError) as err:
        sp.varify(query)
    assert str(err.value) == ("program holds the term 'var', which marks "
                              "variables and entities in the VARified form")


def test_varify_strips_back_to_original(sparql_records):
    for record in sparql_records:
        assert sp.strip_var_markers(sp.varify(q(record.y))) == record.y


def test_lossy_forms_match_token_oracles(sparql_records, relation_dict):
    for record in sparql_records:
        query = q(record.y)
        assert sp.sparql_to_lir(query) == oracle_sparql_lir(record.y)
        assert sp.varify(query) == oracle_sparql_varify(record.y)
        for flags in itertools.product((True, False), repeat=3):
            z = sp.sparql_to_rir(query, relation_dict, sp.RirOptions(*flags))
            assert sp.sparql_to_lir(z) == oracle_sparql_lir(sp.render_rir(z))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_sorts_and_dedupes():
    query = q("SELECT count(*) WHERE { ?x1 r M0 . ?x0 r M0 . ?x0 r M0 }")
    assert sp.normalize_sparql(query) == (
        "SELECT count(*) WHERE { ?x0 r M0 . ?x1 r M0 }")


def test_normalize_is_idempotent(sparql_queries):
    for query in sparql_queries:
        once = sp.normalize_sparql(query)
        assert sp.normalize_sparql(q(once)) == once


def test_normalize_keeps_sorted_input_unchanged():
    query = q("SELECT count(*) WHERE { ?x0 r M0 . ?x1 r M0 }")
    assert sp.normalize_sparql(query) == sp.render_sparql(query)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_normalize_is_permutation_invariant(data, sparql_queries):
    query = data.draw(st.sampled_from(sparql_queries[:50]))
    permuted = data.draw(st.permutations(rows(query)))
    shuffled = from_rows(query.head, permuted)
    assert sp.normalize_sparql(shuffled) == sp.normalize_sparql(query)


def normalized_reference(query):
    """A program with its conjuncts deduplicated, then sorted by their
    rendered string, built without irkit's renderer."""
    rendered = {}
    for s, r, o in rows(query):
        text = (f"FILTER ( {s} {r} {o} )" if r in sp.FILTER_OPS
                else f"{s} {r} {o if isinstance(o, str) else ' , '.join(o)}")
        rendered.setdefault(text, (s, r, o))
    return from_rows(query.head, [rendered[k] for k in sorted(rendered)],
                     query.bracketed)


def test_key_renders_the_normalized_program(sparql_queries):
    key = formalisms.TABLE["sparql"].key
    rng = random.Random(13)
    texts = ["SELECT count(*) WHERE { }"]
    for query in sparql_queries:
        shuffled = rows(query)
        shuffled.insert(rng.randrange(len(shuffled) + 1),
                        rng.choice(shuffled))
        rng.shuffle(shuffled)
        texts += [sp.render_sparql(query), sp.render_sparql(
            from_rows(query.head, shuffled))]
    for text in texts:
        assert key(text) == sp.render_sparql(normalized_reference(q(text)))


# ---------------------------------------------------------------------------
# Structure signatures
# ---------------------------------------------------------------------------


def test_signature_masks_entities_and_numbers_variables():
    query = q("SELECT count(*) WHERE { ?x0 r M2 }")
    z = sp.sparql_to_rir(query, options=sp.RirOptions(shorten_relations=False))
    assert sp.structure_signature(z) == (
        "SELECT count(*) WHERE { ( V0 r ENT ) }")


def test_signature_ignores_entity_identity():
    za = sp.sparql_to_rir(q("SELECT count(*) WHERE { ?x0 r M2 }"),
                          options=sp.RirOptions(shorten_relations=False))
    zb = sp.sparql_to_rir(q("SELECT count(*) WHERE { ?x0 r m_0abc }"),
                          options=sp.RirOptions(shorten_relations=False))
    assert sp.structure_signature(za) == sp.structure_signature(zb)


def test_signature_preserves_coreference():
    shared = q("SELECT count(*) WHERE { ?x0 r ?x1 . ?x1 r M0 }")
    split = q("SELECT count(*) WHERE { ?x0 r ?x1 . ?x2 r M0 }")
    options = sp.RirOptions(shorten_relations=False)
    assert (sp.structure_signature(sp.sparql_to_rir(shared, options=options))
            != sp.structure_signature(sp.sparql_to_rir(split,
                                                       options=options)))


def test_signature_invariant_under_renaming(sparql_queries, relation_dict):
    for i, query in enumerate(sparql_queries[:30]):
        renamed = _rename_terms(query, _term_renaming(query, 1000 + i))
        za = sp.sparql_to_rir(query, relation_dict, ALL_ON)
        zb = sp.sparql_to_rir(renamed, relation_dict, ALL_ON)
        assert sp.structure_signature(za) == sp.structure_signature(zb)


# Each group's subject and objects first appear in that group, so the
# numbering shows the order in which terms are renamed: head variables,
# then each item in turn, a subject before its objects and a filter's left
# operand before its right.
@pytest.mark.parametrize("parse, text, signature", [
    (sp.parse_rir, "SELECT count(*) WHERE { ( ?x1 r ( ?x2 , ?x3 ) ) }",
     "SELECT count(*) WHERE { ( V0 r ( V1 , V2 ) ) }"),
    (sp.parse_rir,
     "SELECT DISTINCT ?x9 WHERE { ( ?x1 r ( ?x2 , ?x3 ) ) "
     "( FILTER ( ?x4 != ?x5 ) ) ( ?x6 s ( ?x9 , M0 ) ) }",
     "SELECT DISTINCT V0 WHERE { ( FILTER ( V4 != V5 ) ) "
     "( V1 r ( V2 , V3 ) ) ( V6 s ( V0 , ENT ) ) }"),
    (sp.parse_rir,
     "SELECT DISTINCT ?x9 WHERE { ?x1 r ?x2 , ?x3 . "
     "FILTER ( ?x4 != ?x5 ) . ?x6 s ?x9 , M0 }",
     "SELECT DISTINCT V0 WHERE { FILTER ( V4 != V5 ) . "
     "V1 r V2 , V3 . V6 s V0 , ENT }"),
    (sp.parse_sparql,
     "SELECT DISTINCT ?x9 WHERE { ?x1 r ?x2 . FILTER ( ?x3 != ?x4 ) . "
     "?x5 s ?x9 }",
     "SELECT DISTINCT V0 WHERE { FILTER ( V3 != V4 ) . V1 r V2 . V5 s V0 }"),
])
def test_signature_numbers_variables_in_reading_order(parse, text,
                                                      signature):
    assert sp.structure_signature(parse(text)) == signature


def test_signature_accepts_plain_queries(sparql_queries):
    for query in sparql_queries[:10]:
        assert sp.structure_signature(query)
