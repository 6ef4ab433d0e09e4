"""transform, invert, prepare and postprocess stream: a reader yields
records, one loop maps them and the writer takes the rows as they come.

Memory stays flat in the record count, every memo table is listed in its
module's ``TABLES`` and stays within its bound, a reader error part-way
leaves the previous output, an input a step does not use is still
validated, and the output replaces the input only once the input is
drained.
"""

import importlib
import json
import os
import pkgutil
import stat
import tracemalloc
from pathlib import Path

import pytest

import irkit
from irkit import data, scan, sparql, sql
from irkit.cli import main

DATA_DIR = Path(__file__).parent / "data"
SCAN_LINES = (DATA_DIR / "scan_sample.txt").read_text(
    encoding="utf-8").splitlines()


def run(*argv):
    return main([str(a) for a in argv])


def scan_corpus(path, n):
    """The scan fixture replicated to ``n`` lines; ids are line numbers."""
    path.write_text("".join(SCAN_LINES[i % len(SCAN_LINES)] + "\n"
                            for i in range(n)), encoding="utf-8")
    return path


# Per sql record, enough new numbers that 1,000 records fill sql's token
# table and turn it over three times, as 8,000 records do and more: so both
# runs reach its largest footprint, the resizes of its index included.
FRESH = 4 * sql.TOKEN_FACTS_SIZE // 1_000 + 1


def sql_corpus(path, n, first):
    """``n`` sql records, each with ``FRESH`` numbers that no other record
    holds: ``first`` and up."""
    path.write_text("".join(json.dumps({
        "id": str(i), "x": "q",
        "y": "SELECT Aalias0.X FROM A AS Aalias0 WHERE Aalias0.Y IN ( "
             + " , ".join(str(first + FRESH * i + j) for j in range(FRESH))
             + " )"}) + "\n" for i in range(n)), encoding="utf-8")
    return path


# Connectors per sql record of the shapes corpus: the AND/OR choices spell
# the record's number in binary, so each record has a shape of its own
# (numbers stay below 2 * 8,000 < 2 ** 14), and 1,000 records turn sql's
# shape table over.
CONNECTORS = 14


def sql_shapes_corpus(path, n, first):
    """``n`` sql records with the shapes of the numbers ``first`` and up,
    and tokens that every record shares."""
    def program(number):
        where = "Aalias0.Y = 0"
        for bit in range(CONNECTORS):
            connector = "OR" if number >> bit & 1 else "AND"
            where += f" {connector} Aalias0.Y = {bit + 1}"
        return f"SELECT Aalias0.X FROM A AS Aalias0 WHERE {where}"

    path.write_text("".join(json.dumps({
        "id": str(i), "x": "q", "y": program(first + i)}) + "\n"
        for i in range(n)), encoding="utf-8")
    return path


def sql_aliases_corpus(path, n, first):
    """``n`` sql records, each declaring an alias that no other record
    declares, ``Aalias<first>`` and up, so that 1,000 records turn sql's
    alias-set table over."""
    path.write_text("".join(json.dumps({
        "id": str(i), "x": "q",
        "y": f"SELECT Aalias{first + i}.X FROM A AS Aalias{first + i} "
             f"WHERE Aalias{first + i}.Y = 1"}) + "\n" for i in range(n)),
        encoding="utf-8")
    return path


# Per sparql record, enough new entities that 1,000 records fill sparql's
# term table and turn it over three times, as sql's numbers do above.
FRESH_TERMS = 4 * sparql.TERM_FORMS_SIZE // 1_000 + 1


def sparql_corpus(path, n, first):
    """``n`` sparql records, each with ``FRESH_TERMS`` entities that no
    other record holds: ``m_<first>`` and up."""
    path.write_text("".join(json.dumps({
        "id": str(i), "x": "q",
        "y": "SELECT DISTINCT ?x0 WHERE { " + " . ".join(
            f"?x0 ns:film.film.directed_by m_{first + FRESH_TERMS * i + j}"
            for j in range(FRESH_TERMS)) + " }"}) + "\n" for i in range(n)),
        encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Per size, and for a warm-up run: the scan corpus, its z_r as
    (id, z_r) rows, a sql and a sparql corpus whose numbers and entities no
    other corpus holds, and sql corpora whose shapes, and whose alias
    sets, no other corpus holds.  The warm-up's scan files are the
    1,000-record ones."""
    root = tmp_path_factory.mktemp("streaming")
    sizes = {}
    for n in (1_000, 8_000):
        scan = scan_corpus(root / f"scan{n}.txt", n)
        rir = root / f"rir{n}.tsv"
        assert run("transform", "--formalism", "scan", "--ir", "rir",
                   "--in", scan, "--out", rir) == 0
        sizes[n] = {"scan": scan, "rir": rir,
                    "sql": sql_corpus(root / f"sql{n}.jsonl", n, FRESH * n),
                    "sparql": sparql_corpus(root / f"sparql{n}.jsonl", n,
                                            FRESH_TERMS * n),
                    "sql-shapes": sql_shapes_corpus(
                        root / f"sql-shapes{n}.jsonl", n, n),
                    "sql-aliases": sql_aliases_corpus(
                        root / f"sql-aliases{n}.jsonl", n, n)}
    sizes["warm-up"] = {
        **sizes[1_000],
        "sql": sql_corpus(root / "sql-warm-up.jsonl", 1_000, 0),
        "sparql": sparql_corpus(root / "sparql-warm-up.jsonl", 1_000, 0),
        "sql-shapes": sql_shapes_corpus(root / "sql-shapes-warm-up.jsonl",
                                        1_000, 0),
        "sql-aliases": sql_aliases_corpus(
            root / "sql-aliases-warm-up.jsonl", 1_000, 0)}
    return sizes


COMMANDS = {
    "transform": lambda c: ["transform", "--ir", "rir", "--in", c["scan"],
                            "--formalism", "scan"],
    "invert": lambda c: ["invert", "--in", c["rir"], "--formalism", "scan"],
    "prepare": lambda c: ["prepare", "--mode", "lir-d-rir", "--stage", "2",
                          "--in", c["scan"], "--formalism", "scan"],
    "postprocess": lambda c: ["postprocess", "--mode", "rir", "--stage", "1",
                              "--in", c["rir"], "--formalism", "scan"],
    # Every record brings tokens that sql's token table has not seen.
    "sql": lambda c: ["prepare", "--mode", "lir-d-rir", "--stage", "2",
                      "--in", c["sql"], "--formalism", "sql"],
    # Every record brings a shape that sql's shape table has not seen.
    "sql-shapes": lambda c: ["prepare", "--mode", "lir-d-rir", "--stage", "2",
                             "--in", c["sql-shapes"], "--formalism", "sql"],
    # Every record brings an alias set that sql's alias-set table has not
    # seen.
    "sql-aliases": lambda c: ["prepare", "--mode", "lir-d-rir", "--stage",
                              "2", "--in", c["sql-aliases"], "--formalism",
                              "sql"],
    # Every record brings terms that sparql's term table has not seen.
    "sparql": lambda c: ["prepare", "--mode", "lir-d", "--stage", "1",
                         "--in", c["sparql"], "--formalism", "sparql"],
}


# Every memo table of the modules that keep any.
TABLES = (*sql.TABLES, *sparql.TABLES, *scan.TABLES)


def test_each_module_lists_every_table_it_keeps():
    for module_info in pkgutil.iter_modules(irkit.__path__):
        module = importlib.import_module(f"irkit.{module_info.name}")
        tables = {value for value in vars(module).values()
                  if hasattr(value, "cache_info")}
        assert tables == set(getattr(module, "TABLES", ())), module


def test_each_table_is_bounded_by_its_documented_size():
    assert [table.cache_info().maxsize for table in TABLES] == [
        sql.TOKEN_FACTS_SIZE, sql.SHAPES_SIZE, sql.ALIAS_SETS_SIZE,
        sparql.TERM_FORMS_SIZE, scan.SEQUENCES_SIZE, scan.SEQUENCES_SIZE]


def peak_bytes(argv):
    # The run refills every table, so tracing sees every entry: in a table
    # filled before tracing, an evicted entry's objects go to the
    # interpreter's free lists, and the next entry reuses them untraced.
    for table in TABLES:
        table.cache_clear()
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_memory_is_flat_in_the_record_count(corpora, tmp_path, command):
    def argv(n):
        return [*COMMANDS[command](corpora[n]),
                "--out", tmp_path / f"out{n}.tsv"]

    def tables_are_bounded():
        return all(info.currsize <= info.maxsize
                   for info in (table.cache_info() for table in TABLES))

    # First-call caches are not per record; the warm-up also fills sql's
    # token, shape and alias-set tables and sparql's term table past their
    # sizes.
    assert run(*argv("warm-up")) == 0
    assert tables_are_bounded()
    small, large = peak_bytes(argv(1_000)), peak_bytes(argv(8_000))
    assert large <= 1.5 * small, (small, large)
    assert tables_are_bounded()


def _scan_jsonl(path, n, last_line):
    lines = [json.dumps({"id": str(i), "x": "jump twice", "y": "JUMP JUMP"})
             for i in range(n)]
    # Quarantined by the rir transform and by staging: x and y disagree.
    lines[1] = json.dumps({"id": "1", "x": "walk", "y": "JUMP JUMP JUMP"})
    path.write_text("\n".join([*lines, last_line]) + "\n", encoding="utf-8")
    return path


def _scan_rir_tsv(path, n, last_line):
    path.write_text("".join(f"{i}\t( JUMP ) ( JUMP )\n" for i in range(n))
                    + "1\t( JUMP\n" + last_line + "\n", encoding="utf-8")
    return path


BAD_LAST_LINE = {
    "transform": ("in.jsonl", _scan_jsonl, "{not json",
                  ["transform", "--ir", "rir"]),
    "prepare": ("in.jsonl", _scan_jsonl, "{not json",
                ["prepare", "--mode", "rir", "--stage", "1"]),
    "invert": ("in.tsv", _scan_rir_tsv, "9\tJUMP\textra", ["invert"]),
}


@pytest.mark.parametrize("command", list(BAD_LAST_LINE))
def test_reader_error_mid_stream_leaves_the_output(tmp_path, monkeypatch,
                                                   capsys, command):
    name, make, last_line, argv = BAD_LAST_LINE[command]
    src = make(tmp_path / name, 3_000, last_line)
    out = tmp_path / "out.tsv"
    out.write_bytes(b"previous output\n")

    # When the reader reaches the last line, rows have already streamed
    # into the temp file beside the output.
    tmp_sizes = []
    lines = data._lines

    def watched(path, *args):
        for lineno, line in lines(path, *args):
            if line.rstrip("\n") == last_line:
                tmp_sizes.extend(p.stat().st_size
                                 for p in tmp_path.glob(".*.tmp"))
            yield lineno, line

    monkeypatch.setattr(data, "_lines", watched)
    capsys.readouterr()
    assert run(*argv, "--formalism", "scan", "--in", src,
               "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert tmp_sizes and tmp_sizes[0] > 0
    assert out.read_bytes() == b"previous output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [src.name, out.name])


@pytest.mark.parametrize("mode, unused", [("rir", "--data"),
                                          ("lir-oracle", "--in")])
def test_an_unused_input_is_still_validated(tmp_path, capsys, mode, unused):
    scan = scan_corpus(tmp_path / "scan.txt", 30)
    rir = tmp_path / "rir.tsv"
    assert run("transform", "--formalism", "scan", "--ir", "rir",
               "--in", scan, "--out", rir) == 0
    inputs = {"--data": scan, "--in": rir}
    malformed = {"--data": tmp_path / "bad.jsonl",
                 "--in": tmp_path / "bad.tsv"}
    malformed["--data"].write_text('{"id": "0", "x": "walk", "y": "WALK"}\n'
                                   '{"id": "1", "x": "walk"}\n')
    malformed["--in"].write_text("0\tWALK\n1\tWALK\tWALK\n")
    inputs[unused] = malformed[unused]
    out = tmp_path / "out.tsv"
    capsys.readouterr()
    assert run("postprocess", "--mode", mode, "--stage", "1",
               "--formalism", "scan", "--data", inputs["--data"],
               "--in", inputs["--in"], "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


def test_each_input_is_read_once(tmp_path, monkeypatch):
    opened = []
    lines = data._lines
    monkeypatch.setattr(data, "_lines",
                        lambda path, *args: opened.append(Path(path).name)
                        or lines(path, *args))
    corpus = DATA_DIR / "sparql_corpus.jsonl"
    # The dictionary build is a pre-pass whose records the loop reuses.
    assert run("transform", "--formalism", "sparql", "--ir", "rir",
               "--dict", tmp_path / "relations.json", "--in", corpus,
               "--out", tmp_path / "rir.tsv") == 0
    assert opened == ["sparql_corpus.jsonl"]
    opened.clear()
    # list() of the records iterates once and asks for no length first.
    assert list(data.read_records(corpus))
    assert opened == ["sparql_corpus.jsonl"]
    opened.clear()
    scan = scan_corpus(tmp_path / "scan.txt", 30)
    argv, preds = _postprocess_preds(tmp_path, scan)
    opened.clear()
    assert run(*argv, "--formalism", "scan", "--in", preds,
               "--out", tmp_path / "final.tsv") == 0
    assert sorted(opened) == ["preds.tsv", "scan.txt"]


def _postprocess_preds(tmp_path, scan):
    staged = tmp_path / "staged.tsv"
    assert run("prepare", "--mode", "lir-d-rir", "--stage", "2",
               "--formalism", "scan", "--in", scan, "--out", staged) == 0
    rows = [(i, target) for i, _, target in data.read_stage_tsv(staged)]
    # A broken prediction, a missing id and an unknown one.
    rows = [(rows[0][0], "( JUMP"), *rows[2:], ("ghost", rows[2][1])]
    preds = tmp_path / "preds.tsv"
    data.write_pairs_tsv(preds, rows)
    return ["postprocess", "--mode", "lir-d-rir", "--stage", "2",
            "--data", scan], preds


@pytest.mark.parametrize("command", ["invert", "postprocess"])
def test_writing_over_the_input_matches_a_fresh_output(tmp_path, command):
    scan = scan_corpus(tmp_path / "scan.txt", 3_000)
    if command == "invert":
        src = tmp_path / "rir.tsv"
        assert run("transform", "--formalism", "scan", "--ir", "rir",
                   "--in", scan, "--out", src) == 0
        rows = list(data.read_pairs_tsv(src))
        data.write_pairs_tsv(src, [(rows[0][0], "( JUMP"), *rows[1:]])
        argv = ["invert"]
    else:
        argv, src = _postprocess_preds(tmp_path, scan)
    fresh = tmp_path / "fresh.tsv"
    assert run(*argv, "--formalism", "scan", "--in", src,
               "--out", fresh) == 0
    assert run(*argv, "--formalism", "scan", "--in", src, "--out", src,
               "--quarantine", tmp_path / "q.jsonl") == 0
    assert src.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "q.jsonl").read_bytes() == (
        tmp_path / "fresh.tsv.quarantine.jsonl").read_bytes()


def test_write_atomic_syncs_the_file_then_renames_then_syncs_the_dir(
        tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", "dir" if stat.S_ISDIR(info.st_mode)
                      else info.st_size))
        fsync(fd)

    def traced_replace(src, dst):
        calls.append(("replace", Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    out = tmp_path / "out.tsv"
    assert data.write_pairs_tsv(out, [("0", "JUMP"), ("1", "WALK")]) == 2
    assert out.read_text() == "0\tJUMP\n1\tWALK\n"
    assert calls == [("fsync", len("0\tJUMP\n1\tWALK\n")),
                     ("replace", "out.tsv"), ("fsync", "dir")]
