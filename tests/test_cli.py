import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from irkit import data, metrics
from irkit.cli import main
from irkit.errors import IrkitError

DATA_DIR = Path(__file__).parent / "data"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def ws(tmp_path):
    for name in ("sparql_corpus.jsonl", "sql_corpus.jsonl",
                 "scan_sample.txt"):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    return tmp_path


@pytest.mark.parametrize("command", ["transform", "invert", "prepare",
                                     "postprocess", "evaluate", "stats"])
def test_command_help_lists_its_arguments(command, capsys):
    # main builds the parser of the command it is given alone.
    with pytest.raises(SystemExit) as exit_:
        run(command, "--help")
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: irkit {command} [-h]")
    assert "--formalism" in out and "--in" in out


# ---------------------------------------------------------------------------
# transform / invert
# ---------------------------------------------------------------------------


def test_sql_transform_invert_round_trip(ws):
    rir = ws / "rir.tsv"
    back = ws / "back.tsv"
    assert run("transform", "--formalism", "sql", "--ir", "rir",
               "--in", ws / "sql_corpus.jsonl", "--out", rir) == 0
    assert run("invert", "--formalism", "sql",
               "--in", rir, "--out", back) == 0
    restored = dict(data.read_pairs_tsv(back))
    for record in data.read_records_jsonl(ws / "sql_corpus.jsonl"):
        assert restored[record.id] == record.y


def test_sparql_transform_builds_dict_and_inverts(ws):
    rir = ws / "rir.tsv"
    back = ws / "back.tsv"
    rdict = ws / "relations.json"
    assert run("transform", "--formalism", "sparql", "--ir", "rir",
               "--dict", rdict, "--in", ws / "sparql_corpus.jsonl",
               "--out", rir) == 0
    assert rdict.exists()
    assert run("invert", "--formalism", "sparql", "--dict", rdict,
               "--in", rir, "--out", back) == 0
    # recovered programs match gold up to conjunct normalization
    assert run("evaluate", "--formalism", "sparql", "--in", back,
               "--gold", ws / "sparql_corpus.jsonl",
               "--out", ws / "report.json") == 0
    report = json.loads((ws / "report.json").read_text())
    assert report["exact_match"] == 100.0


def test_sparql_invert_requires_dict(ws):
    assert run("invert", "--formalism", "sparql",
               "--in", ws / "sparql_corpus.jsonl", "--out", ws / "o") == 2


def test_transform_identity_options(ws):
    out = ws / "idtransform.tsv"
    assert run("transform", "--formalism", "sparql", "--ir", "rir",
               "--no-merge", "--no-shorten", "--no-brackets",
               "--in", ws / "sparql_corpus.jsonl", "--out", out) == 0
    values = dict(data.read_pairs_tsv(out))
    for record in data.read_records_jsonl(ws / "sparql_corpus.jsonl"):
        assert values[record.id] == record.y


def test_scan_lir_transform(ws):
    src = ws / "tiny.jsonl"
    src.write_text(json.dumps(
        {"id": "0", "x": "jump twice", "y": "JUMP JUMP"}) + "\n")
    out = ws / "lir.tsv"
    assert run("transform", "--formalism", "scan", "--ir", "lir",
               "--in", src, "--out", out) == 0
    assert list(data.read_pairs_tsv(out)) == [("0", "JUMP A")]


def test_transform_quarantines_bad_records(ws):
    src = ws / "mixed.jsonl"
    rows = [{"id": "ok", "x": "jump", "y": "JUMP"},
            {"id": "bad", "x": "jump", "y": "JUMP JUMP"}]
    src.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = ws / "rir.tsv"
    quarantine = ws / "q.jsonl"
    assert run("transform", "--formalism", "scan", "--ir", "rir",
               "--quarantine", quarantine, "--in", src, "--out", out) == 0
    assert [e.id for e in data.read_quarantine(quarantine)] == ["bad"]
    assert run("transform", "--formalism", "scan", "--ir", "rir",
               "--quarantine", quarantine, "--strict",
               "--in", src, "--out", out) == 1


# An empty action sequence is no program: each command quarantines it, as
# sparql and sql quarantine an empty program.  An empty z_r row is also how
# a row flagged upstream looks; invert keeps it flagged.
@pytest.mark.parametrize("argv, suffix, rows, kept", [
    (["transform", "--ir", "lir"], "jsonl",
     ['{"id": "ok", "x": "jump", "y": "JUMP"}',
      '{"id": "empty", "x": "jump", "y": ""}'], [("ok", "JUMP")]),
    (["prepare", "--mode", "lir-d", "--stage", "1"], "jsonl",
     ['{"id": "ok", "x": "jump", "y": "JUMP"}',
      '{"id": "empty", "x": "jump", "y": " "}'], [("ok", "jump", "JUMP")]),
    (["invert"], "tsv", ["ok\t( JUMP )", "empty\t"],
     [("ok", "JUMP"), ("empty", "")]),
])
def test_scan_quarantines_an_empty_action_sequence(ws, argv, suffix, rows,
                                                   kept):
    src, out = ws / f"in.{suffix}", ws / "out.tsv"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run(*argv, "--formalism", "scan", "--in", src, "--out", out) == 0
    assert [tuple(line.split("\t")) for line in
            out.read_text(encoding="utf-8").splitlines()] == kept
    [entry] = data.read_quarantine(ws / "out.tsv.quarantine.jsonl")
    assert (entry.id, entry.reason) == ("empty", "empty action sequence")


def test_sparql_dict_build_skips_an_unparseable_record(ws):
    fixture = ws / "sparql_corpus.jsonl"
    src = ws / "mixed.jsonl"
    broken = {"id": "broken", "x": "a b", "y": "SELECT count(*) WHERE { ?x0"}
    src.write_text(fixture.read_text() + json.dumps(broken) + "\n")
    rir, back, rdict = ws / "rir.tsv", ws / "back.tsv", ws / "relations.json"
    assert run("transform", "--formalism", "sparql", "--ir", "rir",
               "--dict", rdict, "--in", src, "--out", rir) == 0
    quarantined = data.read_quarantine(ws / "rir.tsv.quarantine.jsonl")
    assert [e.id for e in quarantined] == ["broken"]
    assert run("invert", "--formalism", "sparql", "--dict", rdict,
               "--in", rir, "--out", back) == 0
    restored = dict(data.read_pairs_tsv(back))
    records = list(data.read_records_jsonl(fixture))
    assert len(restored) == len(records)
    for record in records:
        assert (metrics.comparison_key("sparql", restored[record.id])
                == metrics.comparison_key("sparql", record.y))


def test_varify_quarantines_a_program_holding_the_marker(ws):
    src, out = ws / "marked.jsonl", ws / "varified.tsv"
    rows = [{"id": "bad", "x": "q",
             "y": "SELECT count(*) WHERE { ?x0 var M1 }"},
            {"id": "ok", "x": "q", "y": "SELECT count(*) WHERE { ?x0 r M1 }"}]
    src.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run("transform", "--formalism", "sparql", "--ir", "varify",
               "--in", src, "--out", out) == 0
    assert list(data.read_pairs_tsv(out)) == [
        ("ok", "SELECT count(*) WHERE { var ?x0 r var M1 }")]
    quarantined = data.read_quarantine(f"{out}.quarantine.jsonl")
    assert [e.id for e in quarantined] == ["bad"]


def test_varify_template_formalism_checks(ws):
    assert run("transform", "--formalism", "scan", "--ir", "varify",
               "--in", ws / "scan_sample.txt", "--out", ws / "x.tsv") == 2
    assert run("transform", "--formalism", "sparql", "--ir", "template",
               "--in", ws / "sparql_corpus.jsonl",
               "--out", ws / "x.tsv") == 2


@pytest.mark.parametrize("argv, files", [
    (["transform", "--formalism", "scan", "--ir", "lir"],
     {"in.jsonl": '["not", "an", "object"]\n'}),
    (["transform", "--formalism", "scan", "--ir", "lir"],
     {"in.jsonl": '{"id": "0", "x": "jump", "y": 7}\n'}),
    (["invert", "--formalism", "sparql", "--dict", "d.json"],
     {"in.jsonl": "0\tSELECT count(*) WHERE { }\n", "d.json": "{oops"}),
    (["invert", "--formalism", "sparql", "--dict", "d.json"],
     {"in.jsonl": "0\tSELECT count(*) WHERE { }\n", "d.json": "[1, 2]"}),
    (["transform", "--formalism", "scan", "--ir", "lir"],
     {"in.jsonl": b'{"id": "0", "x": "jump", "y": "\xff"}\n'}),
    (["prepare", "--formalism", "scan", "--mode", "baseline"],
     {"in.jsonl": '{"id": "0", "x": "jump\\ud800", "y": "JUMP"}\n'}),
    (["transform", "--formalism", "scan", "--ir", "lir"],
     {"in.jsonl": '{"id": "0\\t1", "x": "jump", "y": "JUMP"}\n'}),
    (["transform", "--formalism", "scan", "--ir", "lir"],
     {"in.jsonl": '{"id": ' + "7" * 5000 + ', "x": "jump", "y": "JUMP"}\n'}),
    (["transform", "--formalism", "scan", "--ir", "lir"],
     {"in.jsonl": "[" * 200_000 + "\n"}),
    (["invert", "--formalism", "sparql", "--dict", "d.json"],
     {"in.jsonl": "0\tSELECT count(*) WHERE { }\n",
      "d.json": '{"a": ' + "7" * 5000 + "}"}),
    (["invert", "--formalism", "sparql", "--dict", "d.json"],
     {"in.jsonl": "0\tSELECT count(*) WHERE { }\n", "d.json": "[" * 200_000}),
    (["prepare", "--formalism", "scan", "--mode", "lir-cat",
      "--cat-budget", "0"],
     {"in.jsonl": '{"id": "0", "x": "jump", "y": "JUMP"}\n'}),
    (["prepare", "--formalism", "scan", "--mode", "lir-cat",
      "--cat-budget", "-3"],
     {"in.jsonl": '{"id": "0", "x": "jump", "y": "JUMP"}\n'}),
    (["invert", "--formalism", "sparql", "--dict", "d.json"],
     {"in.jsonl": "0\tSELECT count(*) WHERE { }\n",
      "d.json": '{"ns:a.b": "b", "ns:c.b": "b"}'}),
    (["prepare", "--formalism", "scan", "--mode", "baseline", "--sep", ""],
     {"in.jsonl": '{"id": "0", "x": "jump", "y": "JUMP"}\n'}),
], ids=["jsonl-not-object", "jsonl-non-string-y", "dict-bad-json",
        "dict-not-object", "input-not-utf8", "jsonl-lone-surrogate",
        "jsonl-id-with-tab", "jsonl-id-over-digit-limit",
        "jsonl-nested-too-deep", "dict-int-over-digit-limit",
        "dict-nested-too-deep", "cat-budget-zero", "cat-budget-negative",
        "dict-two-relations-one-name", "sep-empty"])
def test_malformed_input_exits_2_with_one_line(ws, capsys, request, argv,
                                               files):
    for name, content in files.items():
        (ws / name).write_bytes(
            content.encode() if isinstance(content, str) else content)
    argv = [str(ws / a) if a in files else a for a in argv]
    assert run(*argv, "--in", ws / "in.jsonl", "--out", ws / "o.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert MESSAGES.get(request.node.callspec.id, "") in err


# The messages of rows above whose error no other test pins.
MESSAGES = {
    "dict-two-relations-one-name": "relation dictionary is not a bijection",
    "sep-empty": "separator must be non-empty",
}


@pytest.mark.parametrize("name, start, message", [
    ("in.csv", "error: ", "(expected .jsonl, .json, .tsv, or .txt)"),
    ("missing.jsonl", "io error: ", "No such file or directory"),
])
def test_an_unreadable_in_exits_2_with_one_line(ws, capsys, name, start,
                                               message):
    assert run("transform", "--formalism", "scan", "--ir", "lir",
               "--in", ws / name, "--out", ws / "o.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1
    assert message in err and not (ws / "o.tsv").exists()


# ---------------------------------------------------------------------------
# prepare / postprocess / evaluate
# ---------------------------------------------------------------------------


def _column(path, index):
    return [row[index] for row in data.read_stage_tsv(path)]


def test_prepare_baseline_emits_x_y(ws):
    out = ws / "stage1.tsv"
    assert run("prepare", "--mode", "baseline", "--formalism", "scan",
               "--in", ws / "scan_sample.txt", "--out", out) == 0
    records = data.read_scan_records(ws / "scan_sample.txt")
    rows = list(data.read_stage_tsv(out))
    assert [(r.id, r.x, r.y) for r in records] == rows


def test_prepare_reads_a_two_column_tsv_with_line_number_ids(ws):
    src, out = ws / "pairs.tsv", ws / "stage1.tsv"
    src.write_text("jump twice\tJUMP JUMP\n\nwalk\tWALK\n")
    assert run("prepare", "--mode", "baseline", "--formalism", "scan",
               "--in", src, "--out", out) == 0
    assert list(data.read_stage_tsv(out)) == [
        ("0", "jump twice", "JUMP JUMP"), ("2", "walk", "WALK")]


def test_prepare_notes_lir_cat_targets_over_the_budget(ws, capsys):
    out = ws / "stage1.tsv"
    assert run("prepare", "--mode", "lir-cat", "--cat-budget", "4",
               "--formalism", "scan", "--in", ws / "scan_sample.txt",
               "--out", out) == 0
    targets = _column(out, 2)
    over = sum(len(t.split()) > 4 for t in targets)
    assert len(targets) == 24 and 0 < over < 24
    assert (f"note: {over} target(s) exceed the 4-token budget (kept, not "
            "truncated)\n") in capsys.readouterr().out


def test_full_two_stage_flow_via_cli(ws):
    stage1 = ws / "stage1.tsv"
    stage2 = ws / "stage2.tsv"
    req = ws / "stage2_sources.tsv"
    final = ws / "final.tsv"
    report = ws / "report.json"
    dataset = ws / "sql_corpus.jsonl"

    assert run("prepare", "--mode", "lir-d-rir", "--stage", "1",
               "--formalism", "sql", "--in", dataset, "--out", stage1) == 0
    assert run("prepare", "--mode", "lir-d-rir", "--stage", "2",
               "--formalism", "sql", "--in", dataset, "--out", stage2) == 0

    # A perfect stage-1 model: feed gold targets back as predictions.
    preds1 = ws / "preds1.tsv"
    data.write_pairs_tsv(preds1,
                         [(r[0], r[2]) for r in data.read_stage_tsv(stage1)])
    assert run("postprocess", "--mode", "lir-d-rir", "--stage", "1",
               "--formalism", "sql", "--data", dataset,
               "--in", preds1, "--out", req) == 0
    sources = list(data.read_pairs_tsv(req))
    staged2 = list(data.read_stage_tsv(stage2))
    assert [s for _, s in sources] == [s for _, s, _ in staged2]

    preds2 = ws / "preds2.tsv"
    data.write_pairs_tsv(preds2, [(r[0], r[2]) for r in staged2])
    assert run("postprocess", "--mode", "lir-d-rir", "--stage", "2",
               "--formalism", "sql", "--data", dataset,
               "--in", preds2, "--out", final) == 0
    assert run("evaluate", "--formalism", "sql", "--in", final,
               "--gold", dataset, "--out", report) == 0
    assert json.loads(report.read_text())["exact_match"] == 100.0


def test_sparql_rir_postprocess_requires_dict(ws):
    dataset = ws / "sparql_corpus.jsonl"
    stage1 = ws / "stage1.tsv"
    rdict = ws / "relations.json"
    assert run("prepare", "--mode", "rir", "--formalism", "sparql",
               "--dict", rdict, "--in", dataset, "--out", stage1) == 0
    preds = ws / "preds.tsv"
    data.write_pairs_tsv(preds,
                         [(r[0], r[2]) for r in data.read_stage_tsv(stage1)])
    final = ws / "final.tsv"
    assert run("postprocess", "--mode", "rir", "--stage", "1",
               "--formalism", "sparql", "--in", preds, "--out", final) == 2
    assert run("postprocess", "--mode", "rir", "--stage", "1",
               "--formalism", "sparql", "--dict", rdict,
               "--in", preds, "--out", final) == 0
    assert run("evaluate", "--formalism", "sparql", "--in", final,
               "--gold", dataset, "--out", ws / "r.json") == 0
    assert json.loads((ws / "r.json").read_text())["exact_match"] == 100.0


def test_lir_oracle_postprocess_needs_no_preds(ws):
    req = ws / "oracle_sources.tsv"
    rc = main(["postprocess", "--mode", "lir-oracle", "--stage", "1",
               "--formalism", "scan", "--data", str(ws / "scan_sample.txt"),
               "--out", str(req)])
    assert rc == 0
    sources = list(data.read_pairs_tsv(req))
    assert len(sources) == 24
    assert all(" ; " in s for _, s in sources)
    # other modes do need predictions
    assert run("postprocess", "--mode", "lir-d", "--stage", "1",
               "--formalism", "scan", "--data", ws / "scan_sample.txt",
               "--out", req) == 2


def test_stage2_sources_flag_an_utterance_with_a_tab(ws):
    fixture = ws / "sql_corpus.jsonl"
    records = list(data.read_records_jsonl(fixture))
    src = ws / "tab.jsonl"
    bad = {"id": "tab-x", "x": "a\tb", "y": records[0].y}
    src.write_text(fixture.read_text() + json.dumps(bad) + "\n")
    out = ws / "sources.tsv"
    assert run("postprocess", "--mode", "lir-oracle", "--stage", 1,
               "--formalism", "sql", "--data", src, "--out", out) == 0
    flagged = data.read_quarantine(ws / "sources.tsv.quarantine.jsonl")
    assert [e.id for e in flagged] == ["tab-x"]
    assert [i for i, _ in data.read_pairs_tsv(out)] == [r.id for r in records]


def test_evaluate_counts_invalid(ws):
    gold = ws / "gold.tsv"
    preds = ws / "preds.tsv"
    data.write_pairs_tsv(gold, [("0", "JUMP"), ("1", "WALK")])
    data.write_pairs_tsv(preds, [("0", "JUMP"), ("1", "")])
    report = ws / "r.json"
    assert run("evaluate", "--formalism", "scan", "--in", preds,
               "--gold", gold, "--out", report) == 0
    payload = json.loads(report.read_text())
    assert payload["n_correct"] == 1
    assert payload["n_invalid"] == 1


def test_two_stage_flow_keeps_the_first_row_of_a_repeated_id(ws, capsys):
    dataset = ws / "repeats.jsonl"
    rows = [{"id": "a", "x": "jump", "y": "JUMP"},
            {"id": "a", "x": "walk", "y": "WALK"},
            {"id": "b", "x": "run", "y": "RUN"},
            {"id": 1, "x": "look", "y": "LOOK"},
            {"id": "1", "x": "jump twice", "y": "JUMP JUMP"}]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows))
    common = ["--mode", "lir-d", "--formalism", "scan", "--data", dataset]

    # Staging maps one record at a time: every row is staged.
    for stage in (1, 2):
        assert run("prepare", "--mode", "lir-d", "--stage", stage,
                   "--formalism", "scan", "--in", dataset,
                   "--out", ws / f"stage{stage}.tsv") == 0
        assert [r[0] for r in data.read_stage_tsv(ws / f"stage{stage}.tsv")] \
            == ["a", "a", "b", "1", "1"]
    assert not list(ws.glob("stage*.quarantine.jsonl"))

    preds1 = ws / "preds1.tsv"
    data.write_pairs_tsv(preds1, [("a", "JUMP"), ("a", "WALK"),
                                  ("b", "RUN")])
    sources = ws / "sources.tsv"
    assert run("postprocess", "--stage", 1, *common, "--in", preds1,
               "--out", sources) == 0
    assert list(data.read_pairs_tsv(sources)) == [("a", "jump ; JUMP"),
                                                  ("b", "run ; RUN")]
    flagged = data.read_quarantine(ws / "sources.tsv.quarantine.jsonl")
    assert [(e.id, e.stage, e.reason) for e in flagged] == [
        ("a", "data", "repeated id"), ("1", "data", "repeated id"),
        ("a", "postprocess1", "repeated id")]

    preds2 = ws / "preds2.tsv"
    data.write_pairs_tsv(preds2, [(r[0], r[2]) for r in
                                  data.read_stage_tsv(ws / "stage2.tsv")])
    final = ws / "final.tsv"
    assert run("postprocess", "--stage", 2, *common, "--in", preds2,
               "--out", final) == 0
    assert list(data.read_pairs_tsv(final)) == [("a", "JUMP"), ("b", "RUN"),
                                                ("1", "LOOK")]

    report = ws / "report.json"
    assert run("evaluate", "--formalism", "scan", "--in", final,
               "--gold", dataset, "--out", report) == 0
    payload = json.loads(report.read_text())
    assert (payload["n_total"], payload["exact_match"]) == (3, 100.0)
    flagged = data.read_quarantine(ws / "report.json.quarantine.jsonl")
    assert [(e.id, e.stage) for e in flagged] == [("a", "gold"),
                                                  ("1", "gold")]
    # Without --out only the count is reported; nothing to flag, no file.
    capsys.readouterr()
    assert run("evaluate", "--formalism", "scan", "--in", final,
               "--gold", dataset) == 0
    assert capsys.readouterr().err == "quarantined 2 record(s)\n"
    assert run("evaluate", "--formalism", "scan", "--in", final,
               "--gold", final, "--out", ws / "clean.json") == 0
    assert not (ws / "clean.json.quarantine.jsonl").exists()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_reports_lengths_and_novelty(ws):
    rir = ws / "rir.tsv"
    assert run("transform", "--formalism", "sparql", "--ir", "rir",
               "--dict", ws / "relations.json",
               "--in", ws / "sparql_corpus.jsonl", "--out", rir) == 0
    rows = list(data.read_pairs_tsv(rir))
    train = ws / "train.tsv"
    evals = ws / "eval.tsv"
    data.write_pairs_tsv(train, rows[:150])
    data.write_pairs_tsv(evals, rows[150:])
    out = ws / "stats.json"
    assert run("stats", "--formalism", "sparql", "--train", train,
               "--in", evals, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["n_programs"] == 50
    assert 0.0 <= payload["new_structure_rate"] <= 100.0
    assert payload["avg_length"] > 0
    assert payload["config"]["tokenizer"] == "whitespace"


def test_stats_shows_grouped_ir_strictly_shorter(ws):
    rir = ws / "rir.tsv"
    run("transform", "--formalism", "sparql", "--ir", "rir",
        "--dict", ws / "relations.json",
        "--in", ws / "sparql_corpus.jsonl", "--out", rir)
    base_stats = ws / "base.json"
    rir_stats = ws / "rir.json"
    assert run("stats", "--formalism", "sparql",
               "--in", ws / "sparql_corpus.jsonl", "--out", base_stats) == 0
    assert run("stats", "--formalism", "sparql",
               "--in", rir, "--out", rir_stats) == 0
    base = json.loads(base_stats.read_text())["avg_length"]
    grouped = json.loads(rir_stats.read_text())["avg_length"]
    assert grouped < base


def test_stats_counts_the_pieces_of_a_vocab_file(ws):
    vocab, out = ws / "vocab.txt", ws / "stats.json"
    vocab.write_text("JU\n##MP\n")  # JUMP is two pieces, any other word one
    spec = f"vocab:{vocab}"
    assert run("stats", "--formalism", "scan", "--tokenizer", spec,
               "--in", ws / "scan_sample.txt", "--out", out) == 0
    payload = json.loads(out.read_text())
    programs = [r.y for r in data.read_scan_records(ws / "scan_sample.txt")]
    tokenizer = metrics.WordPieceTokenizer(["JU", "##MP"])
    assert payload["config"]["tokenizer"] == spec
    assert payload["avg_length"] == metrics.avg_length(programs, tokenizer)
    assert payload["avg_length"] > metrics.avg_length(programs)


def test_stats_rejects_unknown_tokenizer(ws):
    assert run("stats", "--formalism", "scan", "--tokenizer", "bogus",
               "--in", ws / "scan_sample.txt") == 2


@pytest.mark.parametrize("write, rows", [
    (data.write_pairs_tsv, [("0", "kept"), ("1", "a\tb")]),
    (data.write_stage_tsv, [("0", "x", "y"), ("1", "x", "a\nb")]),
])
def test_failed_write_leaves_the_old_file(tmp_path, write, rows):
    out = tmp_path / "out.tsv"
    out.write_text("old\n")
    with pytest.raises(IrkitError):
        write(out, rows)
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


# ---------------------------------------------------------------------------
# Determinism and module entry point
# ---------------------------------------------------------------------------


def test_commands_are_deterministic(ws):
    hashes = []
    for round_dir in ("a", "b"):
        out = ws / round_dir
        out.mkdir()
        run("prepare", "--mode", "lir-d-rir", "--formalism", "sql",
            "--in", ws / "sql_corpus.jsonl", "--out", out / "s1.tsv")
        run("transform", "--formalism", "sql", "--ir", "lir",
            "--in", ws / "sql_corpus.jsonl", "--out", out / "lir.tsv")
        hashes.append((sha256(out / "s1.tsv"), sha256(out / "lir.tsv")))
    assert hashes[0] == hashes[1]


def test_module_entry_point(ws):
    result = subprocess.run(
        [sys.executable, "-m", "irkit", "transform", "--formalism", "scan",
         "--ir", "lir", "--in", str(ws / "scan_sample.txt"),
         "--out", str(ws / "out.tsv")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (ws / "out.tsv").exists()
