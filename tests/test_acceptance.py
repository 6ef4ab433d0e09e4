"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two dataset-bound
checks (full-size instruction-following splits, knowledge-graph query
diagnostics) are skipped unless SCAN_DATA_DIR / CFQ_DATA_DIR point at
prepared data; everything else runs on the bundled fixtures.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from irkit import data, metrics, pipeline, scan, sparql, sql
from irkit.cli import main as cli_main

from oracles import all_scan_commands, oracle_scan_interpret
from test_pipeline import run_gold_pipeline

DATA_DIR = Path(__file__).parent / "data"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


# ---------------------------------------------------------------------------
# P1 - reversibility, SPARQL: normalized round trip on 100% of the corpus,
# at a rate of 100K programs per minute.
# ---------------------------------------------------------------------------


def test_p1_sparql_reversibility(sparql_records, relation_dict):
    records = sparql_records
    rdict = relation_dict
    root = os.environ.get("CFQ_DATA_DIR")
    if root:  # prefer the real split when it is around
        records = list(data.read_records_jsonl(
            Path(root) / "mcd1_train.jsonl"))
        rdict = sparql.build_relation_dict(
            sparql.parse_sparql(r.y) for r in records)
    cycles = max(1, 100_000 // len(records))
    started = time.perf_counter()
    n = 0
    for _ in range(cycles):
        for record in records:
            q = sparql.parse_sparql(record.y)
            z = sparql.parse_rir(
                sparql.render_rir(sparql.sparql_to_rir(q, rdict)))
            back = sparql.sparql_from_rir(z, rdict)
            if sparql.normalize_sparql(back) != sparql.normalize_sparql(q):
                _report("P1 sparql reversibility", False, record.id)
            n += 1
    elapsed = time.perf_counter() - started
    budget = 60.0 * max(1.0, n / 100_000)
    _report("P1 sparql reversibility", elapsed < budget,
            f"{n} programs round-tripped in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# P2 - reversibility, SQL: byte-exact token streams, no alias substrings.
# ---------------------------------------------------------------------------


def test_p2_sql_reversibility(sql_records):
    assert len(sql_records) >= 50
    n_self_join = 0
    n_nested = 0
    for record in sql_records:
        q = sql.parse_sql(record.y)
        z = sql.sql_to_rir(q)
        if "alias" in z.render():
            _report("P2 sql reversibility", False,
                    f"alias substring survived in {record.id}")
        if sql.sql_from_rir(z).tokens != q.tokens:
            _report("P2 sql reversibility", False,
                    f"round trip not byte-exact for {record.id}")
        tables = [q.tokens[i - 1] for i in range(len(q.tokens))
                  if q.tokens[i].upper() == "AS"]
        if len(set(tables)) < len(tables):
            n_self_join += 1
        if q.block.children:
            n_nested += 1
    _report("P2 sql reversibility",
            n_self_join >= 3 and n_nested >= 5,
            f"{len(sql_records)} queries, {n_self_join} self-joins, "
            f"{n_nested} with subqueries")


# ---------------------------------------------------------------------------
# P3 - SCAN semantics against an independent interpreter, exhaustively.
# ---------------------------------------------------------------------------


def test_p3_scan_semantics():
    commands = all_scan_commands()
    for text in commands:
        command = scan.parse_command(text)
        actions = scan.interpret(command)
        if " ".join(actions) != oracle_scan_interpret(text):
            _report("P3 scan semantics", False, f"disagrees on {text!r}")
        if scan.strip_brackets(scan.scan_to_rir(command)) != actions:
            _report("P3 scan semantics", False,
                    f"bracket inverse broken on {text!r}")
        if scan.scan_lir_expand(scan.scan_to_lir(actions)) != actions:
            _report("P3 scan semantics", False,
                    f"run-length inverse broken on {text!r}")
    _report("P3 scan semantics", True,
            f"{len(commands)} commands agree with the independent oracle")


def test_p3_scan_iid_split_sizes():
    root = os.environ.get("SCAN_DATA_DIR")
    if not root:
        pytest.skip("SCAN_DATA_DIR not set; full split files not bundled")
    train = list(data.read_scan_records(Path(root) / "tasks_train_simple.txt"))
    test = list(data.read_scan_records(Path(root) / "tasks_test_simple.txt"))
    _report("P3 scan iid split sizes",
            (len(train), len(test)) == (16782, 4182),
            f"train={len(train)}, test={len(test)}")


# ---------------------------------------------------------------------------
# P4 - canonical example strings reproduced exactly.
# ---------------------------------------------------------------------------


def test_p4_example_strings(sql_records):
    checks = []

    actions = scan.interpret(scan.parse_command("jump twice"))
    checks.append(("jump twice", " ".join(actions) == "JUMP JUMP"))

    actions = scan.interpret(scan.parse_command("turn opposite left twice"))
    checks.append(("turn opposite left twice",
                   " ".join(actions) == "LTURN LTURN LTURN LTURN"))

    q = sparql.SparqlQuery(sparql.SelectHead(sparql.COUNT),
                           ("?x0",) * 4, ("r1", "r1", "r2", "r2"),
                           ("M1", "M2", "M1", "M2"))
    z = sparql.sparql_to_rir(q, options=sparql.RirOptions(
        shorten_relations=False))
    checks.append(("conjunct grouping", (z.subjects, z.relations, z.objects)
                   == (("?x0", "?x0"), ("r1", "r2"),
                       (("M1", "M2"), ("M1", "M2")))))

    marked = sparql.varify(sparql.parse_sparql(
        "SELECT count(*) WHERE { ?x0 marriage.spouses M2 }"))
    checks.append(("var marking",
                   "var ?x0 marriage.spouses var M2" in marked))

    rewritten = sql.sql_to_rir(sql.parse_sql(
        "SELECT FLIGHTalias0.X FROM FLIGHT AS FLIGHTalias0")).tokens
    checks.append(("alias rewrite", "FLIGHT0" in rewritten
                   and "FLIGHTalias0" not in " ".join(rewritten)))

    for n in (2, 3, 4):
        lir = scan.scan_to_lir(["WALK"] * n)
        checks.append((f"run-length n={n}",
                       lir == ["WALK"] + ["A"] * (n - 1)))

    for name, ok in checks:
        if not ok:
            _report("P4 example strings", False, name)
    _report("P4 example strings", True, f"{len(checks)} examples exact")


# ---------------------------------------------------------------------------
# P5 - oracle pipeline identity for every mode x formalism.
# ---------------------------------------------------------------------------


def test_p5_oracle_pipeline_identity(sparql_records, sql_records,
                                     scan_records, relation_dict):
    corpora = {
        "sparql": (sparql_records[:40],
                   pipeline.PipelineConfig("sparql",
                                           relation_dict=relation_dict)),
        "sql": (sql_records, pipeline.PipelineConfig("sql")),
        "scan": (scan_records, pipeline.PipelineConfig("scan")),
    }
    n_combos = 0
    for formalism, (records, cfg) in corpora.items():
        for mode in pipeline.MODES:
            if mode == pipeline.VARIFIED and formalism != "sparql":
                continue
            final = run_gold_pipeline(records, mode, cfg)
            report = metrics.exact_match(final, [(r.id, r.y) for r in records],
                                         formalism, [])
            if report.exact_match != 100.0:
                _report("P5 oracle pipeline identity", False,
                        f"{mode}/{formalism}: {report.exact_match}")
            n_combos += 1
    _report("P5 oracle pipeline identity", True,
            f"{n_combos} mode/formalism combinations at 100.0")


# ---------------------------------------------------------------------------
# P6 - program-length and structure diagnostics.
# ---------------------------------------------------------------------------


def test_p6_grouped_ir_shorter_whitespace(sparql_records, relation_dict):
    baseline = [r.y for r in sparql_records]
    rirs = [sparql.render_rir(
        sparql.sparql_to_rir(sparql.parse_sparql(r.y), relation_dict))
        for r in sparql_records]
    base_len = metrics.avg_length(baseline)
    rir_len = metrics.avg_length(rirs)
    _report("P6 whitespace length invariant", rir_len < base_len,
            f"IR {rir_len:.1f} < program {base_len:.1f} tokens")


def test_p6_cfq_diagnostics():
    root = os.environ.get("CFQ_DATA_DIR")
    if not root:
        pytest.skip("CFQ_DATA_DIR not set; dataset not bundled")
    train = list(data.read_records_jsonl(Path(root) / "mcd1_train.jsonl"))
    dev = list(data.read_records_jsonl(Path(root) / "mcd1_dev.jsonl"))
    queries = [sparql.parse_sparql(r.y) for r in train]
    rdict = sparql.build_relation_dict(queries)

    def rirs(records):
        return [sparql.render_rir(sparql.sparql_to_rir(
            sparql.parse_sparql(r.y), rdict)) for r in records]

    base_rate = metrics.new_structure_rate(
        [r.y for r in train], [r.y for r in dev],
        "sparql").new_structure_rate
    rir_rate = metrics.new_structure_rate(
        rirs(train), rirs(dev), "sparql").new_structure_rate
    ok = abs(base_rate - 91.7) <= 2.0 and abs(rir_rate - 80.9) <= 2.0
    detail = f"baseline {base_rate:.1f} (target 91.7), IR {rir_rate:.1f} (target 80.9)"

    vocab = os.environ.get("CFQ_WORDPIECE_VOCAB")
    if vocab:
        tokenizer = metrics.WordPieceTokenizer.from_file(vocab)
        base_len = metrics.avg_length([r.y for r in dev], tokenizer)
        rir_len = metrics.avg_length(rirs(dev), tokenizer)
        ok = ok and abs(base_len - 161) <= 16.1 and abs(rir_len - 104) <= 10.4
        detail += f"; lengths {base_len:.0f}/{rir_len:.0f} (targets 161/104)"
    _report("P6 cfq diagnostics", ok, detail)


# ---------------------------------------------------------------------------
# P7 - each IR option flag has an independent, observable effect.
# ---------------------------------------------------------------------------


def test_p7_option_flags(sparql_records, relation_dict):
    query = sparql.parse_sparql(
        "SELECT count(*) WHERE { ?x0 ns:people.person.gender M0 . "
        "?x0 ns:people.person.gender M1 }")
    full = sparql.render_rir(sparql.sparql_to_rir(query, relation_dict))
    for flag in ("merge_conjuncts", "shorten_relations", "brackets"):
        options = sparql.RirOptions(**{flag: False})
        variant = sparql.render_rir(
            sparql.sparql_to_rir(query, relation_dict, options))
        if variant == full:
            _report("P7 option flags", False, f"{flag} had no effect")

    # Disabling the merge restores the baseline structure inventory: the
    # novelty rate over unmerged IRs equals the rate over raw programs.
    train, dev = sparql_records[:150], sparql_records[150:]
    base_rate = metrics.new_structure_rate(
        [r.y for r in train], [r.y for r in dev], "sparql")
    no_merge = sparql.RirOptions(merge_conjuncts=False)

    def rirs(records):
        return [sparql.render_rir(sparql.sparql_to_rir(
            sparql.parse_sparql(r.y), relation_dict, no_merge))
            for r in records]

    unmerged_rate = metrics.new_structure_rate(rirs(train), rirs(dev),
                                               "sparql")
    _report("P7 option flags",
            (base_rate.new_structure_rate, base_rate.n_new)
            == (unmerged_rate.new_structure_rate, unmerged_rate.n_new),
            f"unmerged rate {unmerged_rate.new_structure_rate:.1f} == "
            f"baseline rate {base_rate.new_structure_rate:.1f}")


# ---------------------------------------------------------------------------
# P8 - byte-identical outputs across repeated runs.
# ---------------------------------------------------------------------------


def test_p8_determinism(tmp_path):
    digests = []
    for label in ("first", "second"):
        out = tmp_path / label
        out.mkdir()
        rdict = out / "relations.json"
        argvs = [
            ["transform", "--formalism", "sparql", "--ir", "rir",
             "--dict", str(rdict),
             "--in", str(DATA_DIR / "sparql_corpus.jsonl"),
             "--out", str(out / "rir.tsv")],
            ["prepare", "--mode", "lir-d-rir", "--formalism", "sql",
             "--in", str(DATA_DIR / "sql_corpus.jsonl"),
             "--out", str(out / "stage1.tsv")],
            ["prepare", "--mode", "lir-cat", "--formalism", "scan",
             "--in", str(DATA_DIR / "scan_sample.txt"),
             "--out", str(out / "cat.tsv")],
        ]
        for argv in argvs:
            assert cli_main(argv) == 0
        blob = b"".join(sorted(
            path.read_bytes() for path in out.iterdir() if path.is_file()))
        digests.append(hashlib.sha256(blob).hexdigest())
    _report("P8 determinism", digests[0] == digests[1],
            f"sha256 {digests[0][:12]} on both runs")
