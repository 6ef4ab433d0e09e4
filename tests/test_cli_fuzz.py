"""CLI totality under fuzzed input.

Each command reads arbitrary bytes, JSON lines or TSV rows and must process
them, quarantine them or reject them: ``main`` returns 0, 1 or 2 and never
raises.  The examples are derandomized so that a run is reproducible.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irkit import data, pipeline, sparql
from irkit.cli import main

DATA_DIR = Path(__file__).parent / "data"
FIXTURES = {"sparql": "sparql_corpus.jsonl", "sql": "sql_corpus.jsonl",
            "scan": "scan_sample.txt"}
PROGRAMS = [r.y for formalism, name in FIXTURES.items()
            for r in data.read_records(DATA_DIR / name, formalism)[:5]]

TOKENS = sorted({tok for program in PROGRAMS for tok in program.split()})

# Programs, token soup and any text, lone surrogates included: JSON can
# spell them, UTF-8 cannot.
TEXT = st.one_of(st.sampled_from(PROGRAMS),
                 st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join),
                 st.text(st.characters(blacklist_categories=()),
                         max_size=40))
ID = st.one_of(st.integers(0, 3), TEXT)
JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(), TEXT,
                       st.lists(st.integers(), max_size=2))
RECORD = st.one_of(
    st.fixed_dictionaries({"id": ID, "x": TEXT, "y": TEXT}),
    st.fixed_dictionaries({}, optional={"id": ID, "x": JSON_VALUE,
                                        "y": JSON_VALUE}),
    JSON_VALUE)
JSON_LINES = st.lists(RECORD, max_size=5).map(
    lambda rows: "\n".join(map(json.dumps, rows)).encode())
TSV_ROWS = st.lists(st.tuples(ID.map(str), TEXT), max_size=5).map(
    lambda rows: "\n".join(map("\t".join, rows)).encode(
        "utf-8", "surrogatepass"))
INPUT = st.one_of(st.binary(max_size=300), JSON_LINES, TSV_ROWS)

FORMALISM = st.sampled_from(pipeline.FORMALISMS)
MODE = st.sampled_from(pipeline.MODES)
STAGE = st.sampled_from(["1", "2"])


@pytest.fixture(scope="module")
def relations(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "relations.json"
    records = data.read_records(DATA_DIR / FIXTURES["sparql"], "sparql")
    sparql.build_relation_dict(
        sparql.parse_sparql(r.y) for r in records).save(path)
    return path


def _argv(command, formalism, options, ws, relations):
    """The command line.  ``in.jsonl`` and ``in.tsv`` hold the fuzzed input;
    with ``fresh_dict`` a sparql run builds its dictionary from it."""
    records, rows = ws / "in.jsonl", ws / "in.tsv"
    out = ["--formalism", formalism, "--out", ws / "out"]
    rdict = ["--dict", ws / "fresh.json" if options["fresh_dict"]
             else relations]
    dataset = DATA_DIR / FIXTURES[formalism]
    return {
        "transform": ["--ir", options["ir"], *rdict, "--in", records],
        "invert": [*rdict, "--in", rows],
        "prepare": ["--mode", options["mode"], "--stage", options["stage"],
                    *rdict, "--in", records],
        "postprocess": ["--mode", options["mode"], "--stage",
                        options["stage"], *rdict, "--data", dataset,
                        "--in", rows],
        "evaluate": ["--gold", rows, "--in", rows],
        "stats": ["--train", rows, "--in", rows],
    }[command] + out


OPTIONS = st.fixed_dictionaries({
    "ir": st.sampled_from(["rir", "lir", "lir+rir", "varify", "template"]),
    "mode": MODE, "stage": STAGE, "fresh_dict": st.booleans()})


@pytest.mark.parametrize("command", ["transform", "invert", "prepare",
                                     "postprocess", "evaluate", "stats"])
def test_fuzzed_input_never_escapes_main(relations, command):
    @settings(max_examples=50, derandomize=True, deadline=None,
              database=None)
    @given(content=INPUT, formalism=FORMALISM, options=OPTIONS)
    def check(content, formalism, options):
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp)
            (ws / "in.jsonl").write_bytes(content)
            (ws / "in.tsv").write_bytes(content)
            argv = [command, *_argv(command, formalism, options, ws,
                                    relations)]
            assert main([str(a) for a in argv]) in (0, 1, 2)

    check()
