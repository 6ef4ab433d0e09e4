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
    assert data.read_pairs_tsv(out) == [("0", "JUMP A")]


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
    records = data.read_records_jsonl(fixture)
    assert len(restored) == len(records)
    for record in records:
        assert (metrics.comparison_key("sparql", restored[record.id])
                == metrics.comparison_key("sparql", record.y))


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
], ids=["jsonl-not-object", "jsonl-non-string-y", "dict-bad-json",
        "dict-not-object", "input-not-utf8", "jsonl-lone-surrogate",
        "jsonl-id-with-tab", "jsonl-id-over-digit-limit",
        "jsonl-nested-too-deep", "dict-int-over-digit-limit",
        "dict-nested-too-deep"])
def test_malformed_input_exits_2_with_one_line(ws, capsys, argv, files):
    for name, content in files.items():
        (ws / name).write_bytes(
            content.encode() if isinstance(content, str) else content)
    argv = [str(ws / a) if a in files else a for a in argv]
    assert run(*argv, "--in", ws / "in.jsonl", "--out", ws / "o.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    rows = data.read_stage_tsv(out)
    assert [(r.id, r.x, r.y) for r in records] == rows


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
    sources = data.read_pairs_tsv(req)
    staged2 = data.read_stage_tsv(stage2)
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
    sources = data.read_pairs_tsv(req)
    assert len(sources) == 24
    assert all(" ; " in s for _, s in sources)
    # other modes do need predictions
    assert run("postprocess", "--mode", "lir-d", "--stage", "1",
               "--formalism", "scan", "--data", ws / "scan_sample.txt",
               "--out", req) == 2


def test_stage2_sources_flag_an_utterance_with_a_tab(ws):
    fixture = ws / "sql_corpus.jsonl"
    records = data.read_records_jsonl(fixture)
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


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_reports_lengths_and_novelty(ws):
    rir = ws / "rir.tsv"
    assert run("transform", "--formalism", "sparql", "--ir", "rir",
               "--dict", ws / "relations.json",
               "--in", ws / "sparql_corpus.jsonl", "--out", rir) == 0
    rows = data.read_pairs_tsv(rir)
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
