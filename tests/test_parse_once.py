"""Each command parses a record's program once, and lexes an sql program
once, however many outputs the record feeds.

The formalism table calls parsers through module attributes, so counters
installed on those attributes see every call the CLI makes.
"""

from pathlib import Path

import pytest

from irkit import cli, data, scan, sparql, sql

DATA_DIR = Path(__file__).parent / "data"

FIXTURES = {"sparql": "sparql_corpus.jsonl", "sql": "sql_corpus.jsonl",
            "scan": "scan_sample.txt"}
# What reads a record's source text: scan's z_r is driven by the command.
PARSERS = {"sparql": (sparql, "parse_sparql"), "sql": (sql, "lex_sql"),
           "scan": (scan, "parse_command")}


@pytest.fixture()
def calls(monkeypatch):
    counts = {}
    for module, name in PARSERS.values():
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def _run(formalism, tmp_path, *argv):
    path = DATA_DIR / FIXTURES[formalism]
    n_records = len(data.read_records(path, formalism))
    dict_args = (["--dict", str(tmp_path / "relations.json")]
                 if formalism == "sparql" else [])
    assert cli.main([*argv, "--formalism", formalism, *dict_args,
                     "--in", str(path), "--out", str(tmp_path / "o.tsv")]) == 0
    return n_records


@pytest.mark.parametrize("formalism", list(FIXTURES))
def test_stage2_lir_d_rir_parses_each_record_once(tmp_path, calls,
                                                  formalism):
    argv = ["prepare", "--mode", "lir-d-rir", "--stage", "2"]
    # sparql builds its relation dictionary on the first run and reads it
    # on the second; both runs parse each record once.
    for _ in range(2):
        calls.clear()
        n_records = _run(formalism, tmp_path, *argv)
        assert calls == {PARSERS[formalism][1]: n_records}


def test_sparql_transform_reuses_the_dictionary_build_parse(tmp_path,
                                                            calls):
    n_records = _run("sparql", tmp_path, "transform", "--ir", "rir")
    assert (tmp_path / "relations.json").exists()
    assert calls == {"parse_sparql": n_records}
