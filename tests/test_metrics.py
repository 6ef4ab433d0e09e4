import random

import pytest

from irkit import metrics, sparql
from irkit.errors import IrkitError


# ---------------------------------------------------------------------------
# Exact match
# ---------------------------------------------------------------------------


def test_verbatim_match():
    report = metrics.exact_match([("0", "JUMP JUMP")], [("0", "JUMP JUMP")],
                                 "scan")
    assert report.exact_match == 100.0
    assert report.per_example == [("0", metrics.CORRECT)]


def test_sparql_match_up_to_normalization():
    gold = "SELECT count(*) WHERE { ?x0 r M0 . ?x1 r M0 }"
    pred = "SELECT count(*) WHERE { ?x1 r M0 . ?x0 r M0 . ?x1 r M0 }"
    report = metrics.exact_match([("0", pred)], [("0", gold)], "sparql")
    assert report.n_correct == 1


def test_scan_off_by_one_is_wrong():
    report = metrics.exact_match([("0", "JUMP JUMP JUMP")],
                                 [("0", "JUMP JUMP")], "scan")
    assert report.n_correct == 0
    assert report.n_invalid == 0


def test_whitespace_is_normalized_for_sql():
    report = metrics.exact_match([("0", "SELECT  1")], [("0", "SELECT 1")],
                                 "sql")
    assert report.n_correct == 1


def test_invalid_predictions_score_zero():
    golds = [("0", "SELECT count(*) WHERE { ?x0 r M0 }"), ("1", "SELECT count(*) WHERE { ?x0 r M0 }")]
    preds = [("0", ""), ("1", "SELECT count(*) WHERE {{ nope")]
    report = metrics.exact_match(preds, golds, "sparql")
    assert report.n_correct == 0
    assert report.n_invalid == 2
    assert report.exact_match == 0.0


def test_id_mismatch_is_an_error():
    with pytest.raises(IrkitError):
        metrics.exact_match([("0", "x")], [("1", "x")], "scan")
    with pytest.raises(IrkitError):
        metrics.exact_match([("0", "x"), ("1", "x")], [("0", "x")], "scan")


def test_duplicate_prediction_id_is_an_error():
    with pytest.raises(IrkitError):
        metrics.exact_match([("0", "x"), ("0", "y")], [("0", "x")], "scan")


def test_duplicate_gold_id_is_an_error():
    with pytest.raises(IrkitError, match="duplicate gold id"):
        metrics.exact_match([("a", "x")], [("a", "x"), ("a", "x")], "scan")


def test_report_counts_reconcile():
    golds = [(str(i), "JUMP") for i in range(4)]
    preds = [("0", "JUMP"), ("1", "WALK"), ("2", ""), ("3", "JUMP")]
    report = metrics.exact_match(preds, golds, "scan")
    assert report.n_total == 4
    assert report.n_correct == 2
    assert report.n_invalid == 1
    assert report.n_invalid <= report.n_total - report.n_correct
    assert report.exact_match == 50.0


@pytest.mark.parametrize("formalism", ["sparql", "sql", "scan"])
def test_scoring_is_reflexive(formalism, sparql_records, sql_records,
                              scan_records):
    records = {"sparql": sparql_records, "sql": sql_records,
               "scan": scan_records}[formalism]
    golds = [(r.id, r.y) for r in records]
    report = metrics.exact_match(golds, golds, formalism)
    assert report.exact_match == 100.0


# ---------------------------------------------------------------------------
# New-structure rate
# ---------------------------------------------------------------------------


def _rirs(queries, rdict):
    return [sparql.render_rir(sparql.sparql_to_rir(q, rdict))
            for q in queries]


def test_rate_zero_when_eval_subset(sparql_queries, relation_dict):
    rirs = _rirs(sparql_queries[:30], relation_dict)
    report = metrics.new_structure_rate(rirs, rirs[:10], "sparql")
    assert report.rate == 0.0


def test_rate_hundred_when_disjoint():
    train = ["SELECT count(*) WHERE { ?x0 r M0 }"]
    evals = ["SELECT count(*) WHERE { ?x0 r M0 . ?x0 q M1 }"]
    report = metrics.new_structure_rate(train, evals, "sparql")
    assert report.rate == 100.0


def test_rate_ignores_entity_identity():
    train = ["SELECT count(*) WHERE { ?x0 r M0 }"]
    evals = ["SELECT count(*) WHERE { ?x5 r m_0zzz }"]
    report = metrics.new_structure_rate(train, evals, "sparql")
    assert report.rate == 0.0


def test_rate_is_antitone_in_train_set(sparql_queries, relation_dict):
    rng = random.Random(7)
    rirs = _rirs(sparql_queries, relation_dict)
    evals = rirs[150:]
    pool = rirs[:150]
    small = rng.sample(pool, 40)
    rate_small = metrics.new_structure_rate(small, evals, "sparql").rate
    rate_large = metrics.new_structure_rate(pool, evals, "sparql").rate
    assert rate_large <= rate_small


def test_unparseable_inputs_are_reported():
    report = metrics.new_structure_rate(
        ["SELECT count(*) WHERE { ?x0 r M0 }", "garbage {"],
        ["also garbage }"], "sparql")
    assert report.n_unparseable_train == 1
    assert report.n_unparseable_eval == 1
    assert report.rate == 100.0


def test_rate_bounds(sparql_queries, relation_dict):
    rirs = _rirs(sparql_queries[:60], relation_dict)
    report = metrics.new_structure_rate(rirs[:40], rirs[20:], "sparql")
    assert 0.0 <= report.rate <= 100.0
    assert report.n_new <= report.n_eval


# ---------------------------------------------------------------------------
# Average length
# ---------------------------------------------------------------------------


def test_avg_length_whitespace():
    assert metrics.avg_length(["a b c"]) == 3.0
    assert metrics.avg_length(["a b", "a b c d"]) == 3.0


def test_avg_length_empty_is_an_error():
    with pytest.raises(IrkitError):
        metrics.avg_length([])


def test_wordpiece_tokenizer(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join([
        "SELECT", "count", "(*)", "##(*)", "WHERE", "{", "}", "nation",
        "##ality", "?x0", "M0", "people", "##.", "##person", "##nation",
    ]))
    tokenizer = metrics.WordPieceTokenizer.from_file(vocab)
    assert tokenizer("nationality") == ["nation", "##ality"]
    assert tokenizer("people.person.nation") == [
        "people", "##.", "##person", "##.", "##nation"]
    assert tokenizer("unknownword") == ["[UNK]"]
    assert metrics.avg_length(["nationality ?x0"], tokenizer) == 3.0


def test_wordpiece_makes_truncated_relations_shorter(sparql_queries,
                                                     relation_dict, tmp_path):
    # A vocabulary with whole-word pieces for the truncated names only; the
    # full relation names have to be spelled out in characters.
    pieces = {"SELECT", "count(*)", "WHERE", "{", "}", ".", "(", ")", ","}
    for short in relation_dict.backward:
        pieces.add(short)
    for ch in "abcdefghijklmnopqrstuvwxyz_.:0123456789?MX":
        pieces.add(ch)
        pieces.add("##" + ch)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(sorted(pieces)))
    tokenizer = metrics.WordPieceTokenizer.from_file(vocab)

    queries = sparql_queries[:50]
    base = metrics.avg_length([sparql.render_sparql(q) for q in queries],
                              tokenizer)
    rir = metrics.avg_length(
        [sparql.render_rir(sparql.sparql_to_rir(q, relation_dict))
         for q in queries], tokenizer)
    assert rir < base


def test_structure_key_for_scan_is_token_form():
    assert metrics.structure_key("scan", " JUMP  JUMP ") == "JUMP JUMP"
