"""Golden outputs: every transform, prepare and postprocess run, pinned.

Each case runs one CLI command in-process on the three fixtures, each
extended with a few malformed records so that the quarantine paths run
too, and hashes what the command wrote: every output file byte for byte,
except quarantine reports, of which only the ``(id, stage)`` pairs count
(their reason text is for people).  The exit code is part of the hash.

After an intended change of outputs, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from irkit import data, pipeline
from irkit.cli import main

DATA_DIR = Path(__file__).parent / "data"
DIGESTS = DATA_DIR / "golden_digests.json"

FIXTURES = {"sparql": "sparql_corpus.jsonl", "sql": "sql_corpus.jsonl",
            "scan": "scan_sample.txt"}
TRANSFORM_IRS = {"sparql": ("rir", "lir", "lir+rir", "varify"),
                 "sql": ("rir", "lir", "lir+rir", "template"),
                 "scan": ("rir", "lir", "lir+rir")}
STAGE2_POSTPROCESS = (*sorted(pipeline.TWO_STAGE_MODES), pipeline.LIR_CAT)
BROKEN_PREDICTION = 'BROKEN ( "'


def _malformed(formalism, first_y):
    if formalism == "scan":
        return ["IN: jump\tleft OUT: LTURN JUMP",
                "IN: jump twice OUT: JUMP JUMP JUMP",
                "IN: fly OUT: JUMP",
                "IN: walk OUT: WALK FLY"]
    bad_y = {"sparql": ("SELECT count(*) WHERE { ?x0 ns:a.b",
                        "SELECT count(*) WHERE { ?x0 ns:no.such.rel M0 }"),
             "sql": ("FROM nowhere", 'SELECT "unterminated')}[formalism]
    rows = [{"id": "bad-tab-x", "x": "a\tb", "y": first_y},
            {"id": "bad-tab-y", "x": "a b", "y": first_y.replace(" ", "\t", 1)},
            {"id": "bad-y-1", "x": "a b", "y": bad_y[0]},
            {"id": "bad-y-2", "x": "a b", "y": bad_y[1]}]
    return [json.dumps(row) for row in rows]


def _corpus(root, formalism):
    return root / ("in-" + FIXTURES[formalism])


def _common(root, formalism):
    flags = ["--formalism", formalism]
    if formalism == "sparql":
        flags += ["--dict", str(root / "relations.json")]
    return flags


def _run(*argv):
    return main([str(a) for a in argv])


def _corrupt(pairs):
    """Gold predictions with one broken, one missing and one unknown id."""
    pairs = list(pairs)
    return ([(pairs[0][0], BROKEN_PREDICTION)] + pairs[2:]
            + [("ghost", pairs[2][1])])


def _digest(out_dir, code):
    h = hashlib.sha256(f"exit {code}\n".encode())
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith(".quarantine.jsonl"):
            pairs = [[e.id, e.stage] for e in data.read_quarantine(path)]
            content = json.dumps(pairs).encode()
        else:
            content = path.read_bytes()
        h.update(f"{path.name} {len(content)}\n".encode() + content)
    return h.hexdigest()


def _stage_pairs(root, name, formalism, mode, stage):
    """Gold targets of ``prepare``, as (id, target) prediction rows."""
    staged = root / "setup" / f"{name}.tsv"
    staged.parent.mkdir(exist_ok=True)
    assert _run("prepare", "--mode", mode, "--stage", stage,
                *_common(root, formalism), "--in", _corpus(root, formalism),
                "--out", staged) == 0
    return [(row[0], row[2]) for row in data.read_stage_tsv(staged)]


def _cases():
    cases = {"dict": None}
    for formalism, irs in TRANSFORM_IRS.items():
        for ir in irs:
            cases[f"transform-{formalism}-{ir}"] = (
                "transform", formalism, ir)
        cases[f"invert-{formalism}"] = ("invert", formalism)
        for mode in pipeline.MODES:
            if mode == pipeline.VARIFIED and formalism != "sparql":
                continue
            cases[f"prepare-{formalism}-{mode}-1"] = (
                "prepare", formalism, mode, 1)
            cases[f"postprocess-{formalism}-{mode}-1"] = (
                "postprocess", formalism, mode, 1)
            if mode in pipeline.TWO_STAGE_MODES:
                cases[f"prepare-{formalism}-{mode}-2"] = (
                    "prepare", formalism, mode, 2)
            if mode in STAGE2_POSTPROCESS:
                cases[f"postprocess-{formalism}-{mode}-2"] = (
                    "postprocess", formalism, mode, 2)
    return cases


CASES = _cases()


def build_workspace(root):
    """Fixture copies with malformed records appended, plus the relation
    dictionary built from the clean sparql fixture."""
    root.mkdir(parents=True, exist_ok=True)
    for formalism, name in FIXTURES.items():
        shutil.copy(DATA_DIR / name, root / name)
        records = data.read_records(root / name, formalism)
        extra = _malformed(formalism, records[0].y)
        text = (root / name).read_text(encoding="utf-8")
        _corpus(root, formalism).write_text(
            text + "\n".join(extra) + "\n", encoding="utf-8")
    assert _run("transform", "--formalism", "sparql", "--ir", "rir",
                "--dict", root / "relations.json",
                "--in", root / FIXTURES["sparql"],
                "--out", root / "dict-build.tsv") == 0
    return root


def run_case(root, name):
    out_dir = root / "out" / name
    out_dir.mkdir(parents=True)
    case = CASES[name]
    if case is None:
        shutil.copy(root / "relations.json", out_dir / "relations.json")
        return _digest(out_dir, 0)
    command, formalism = case[:2]
    out = out_dir / "out.tsv"
    if command == "transform":
        code = _run("transform", "--ir", case[2], *_common(root, formalism),
                    "--in", _corpus(root, formalism), "--out", out)
    elif command == "invert":
        rir = root / "setup" / f"{name}.tsv"
        rir.parent.mkdir(exist_ok=True)
        _run("transform", "--ir", "rir", *_common(root, formalism),
             "--in", _corpus(root, formalism), "--out", rir)
        rows = _corrupt(data.read_pairs_tsv(rir))
        data.write_pairs_tsv(rir, rows)
        code = _run("invert", *_common(root, formalism),
                    "--in", rir, "--out", out)
    elif command == "prepare":
        code = _run("prepare", "--mode", case[2], "--stage", case[3],
                    *_common(root, formalism),
                    "--in", _corpus(root, formalism), "--out", out)
    else:
        mode, stage = case[2], case[3]
        gold_stage = 1 if mode == pipeline.LIR_CAT else stage
        preds = root / "setup" / f"{name}.preds.tsv"
        data.write_pairs_tsv(preds, _corrupt(
            _stage_pairs(root, name, formalism, mode, gold_stage)))
        code = _run("postprocess", "--mode", mode, "--stage", stage,
                    *_common(root, formalism),
                    "--data", _corpus(root, formalism),
                    "--in", preds, "--out", out)
    return _digest(out_dir, code)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return build_workspace(tmp_path_factory.mktemp("golden"))


def test_digest_file_covers_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(workspace, name):
    expected = json.loads(DIGESTS.read_text())[name]
    assert run_case(workspace, name) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = build_workspace(Path(tmp) / "golden")
        digests = {name: run_case(root, name) for name in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(digests)} digests -> {DIGESTS}", file=sys.stderr)
