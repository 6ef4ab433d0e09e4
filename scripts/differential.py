"""Differential check of library functions between two source trees.

Runs a named list of irkit functions, or of wrappers that reduce their
output to a form both trees build alike, on the test fixtures and on seeded
token mutations of them, once against this tree and once against another
checkout (usually the parent commit), and reports every input on which the
two disagree: a different output, error type, message, byte offset or
expected-token tuple.  The totals count the differences of each kind.

    git worktree add ../irkit-parent HEAD~1
    python3 scripts/differential.py ../irkit-parent

The inputs are built here, with this tree's irkit, and fed to one worker
subprocess per tree and seed, each importing irkit from that tree's ``src``.
Every function in ``FUNCTIONS`` gets its fixtures plus ``COUNT`` mutations
of them for each of ``SEEDS``.
Mutations are token deletions, duplications, swaps, truncations, insertions
and replacements from the grammar's vocabulary, and whitespace changes
(tabs, newlines, runs of spaces, no-break and ideographic spaces).  It prints
the number of inputs and differences per function and exits 1 when any
differ.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import importlib
import itertools
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

SPARQL_VOCAB = ("SELECT", "WHERE", "FILTER", "DISTINCT", "count(*)", "{", "}",
                "(", ")", ".", ",", "!=", "=", "?x0", "?x1", "?x9", "M0",
                "M1", "m_0f8l9c", "ns:film.film.directed_by",
                "film.directed_by", "Müller", "x", "var")
SCAN_VOCAB = ("walk", "look", "run", "jump", "turn", "left", "right",
              "opposite", "around", "twice", "thrice", "and", "after",
              "Jump", "sideways", "ü")
SCAN_RIR_VOCAB = ("(", ")", "((", "JUMP", "WALK", "RUN", "LOOK", "LTURN",
                  "RTURN", "A", "jump", "ü")
# IN:/OUT: lines; the separators below add line breaks of their own.
SCAN_LINE_VOCAB = (SCAN_VOCAB + SCAN_RIR_VOCAB
                   + ("IN:", "OUT:", "IN", "OUT", ":", "\x85", "\x1c"))
SQL_VOCAB = ("SELECT", "DISTINCT", "FROM", "AS", "WHERE", "AND", "OR", "IN",
             "GROUP", "ORDER", "BY", "HAVING", "LIMIT", "BETWEEN", "UNION",
             "INTERSECT", "EXCEPT", "ALL", "(", ")", "))", ")(", "((",
             "COUNT(", "(SELECT", ",", "=", "<",
             '"UA"', "'a b'", '"', "'", 'x"y', "FLIGHT", "FLIGHTalias0",
             "FLIGHTalias0.X", "FLIGHT0", "FLIGHT0.X", "aliasalias1",
             "alias1", "Aalias", "city_name0", "2.5", "Müller", "T.X",
             # Keywords in other cases (``ſ`` upper-cases to ``S``) and a
             # non-ASCII decimal digit.
             "select", "From", "as", "group", "By", "union", "All", "and",
             "between", "ſelect", "FLIGHTalias٣", "٣")
SEPARATORS = (" ", "  ", "\t", "\n", "\xa0", "　", " \r\n ")
SEEDS = (1, 2, 3)
COUNT = 30000  # mutated inputs per function and seed
SHOW = 3  # differences printed per function and seed


def _clear_tables(name: str) -> None:
    """Empty the memo tables of module ``irkit.<name>`` (its ``TABLES``),
    so that the walks decide the next input.  A tree older than
    ``TABLES`` has sql's shape and alias-set tables and scan's two dicts."""
    module = importlib.import_module(f"irkit.{name}")
    if hasattr(module, "TABLES"):
        for table in module.TABLES:
            table.cache_clear()
    elif name == "sql":
        module._segment.cache_clear()
        module._alias_rule.cache_clear()
    else:
        module._SEQUENCES.clear()
        module._BY_NODE.clear()


def _sparql_form(q) -> tuple:
    """A parsed sparql program or z_r as plain tuples, a filter as
    ``("FILTER", left, op, right)`` and a triple or group as ``(subject,
    relation, objects)``, which a tree of item nodes (``q.groups``) and a
    tree of term columns build alike."""
    from irkit import sparql
    if hasattr(q, "groups"):
        rows = [("FILTER", *c) if hasattr(c, "op") else tuple(c)
                for c in q.groups]
    else:
        rows = [("FILTER", s, r, o) if r in sparql.FILTER_OPS
                else (s, r, o if type(o) is tuple else (o,))
                for s, r, o in zip(q.subjects, q.relations, q.objects)]
    return tuple(q.head), q.bracketed, rows


def sparql_parse(text: str) -> tuple:
    from irkit import sparql
    return _sparql_form(sparql.parse_sparql(text))


def sparql_parse_rir(text: str) -> tuple:
    from irkit import sparql
    return _sparql_form(sparql.parse_rir(text))


def _sparql_programs() -> list[str]:
    from irkit import data
    return [r.y for r in data.read_records_jsonl(
        DATA / "sparql_corpus.jsonl")]


@functools.cache
def _sparql_dict():
    """The relation dictionary of the fixture programs."""
    from irkit import sparql
    return sparql.build_relation_dict(
        map(sparql.parse_sparql, _sparql_programs()))


def _sparql_rirs() -> list[str]:
    """Every fixture program's z_r under each combination of options."""
    from irkit import sparql
    queries = [sparql.parse_sparql(y) for y in _sparql_programs()]
    rdict = _sparql_dict()
    texts = []
    for flags in itertools.product((True, False), repeat=3):
        options = sparql.RirOptions(*flags)
        texts += [sparql.render_rir(sparql.sparql_to_rir(
            q, rdict if options.shorten_relations else None, options))
            for q in queries]
    return texts


def sparql_transform(text: str) -> tuple[str, ...]:
    """What ``transform`` and ``prepare`` write for a program: z_r and
    z_{l,r} under each combination of options (with the dictionary of this
    program's relations), z_l and the VARified form, and the structure
    signatures of the program and of its default z_r."""
    from irkit import formalisms, sparql
    q = sparql.parse_sparql(text)
    rdict = sparql.build_relation_dict([q])
    rirs = [sparql.sparql_to_rir(q, rdict, sparql.RirOptions(*flags))
            for flags in itertools.product((True, False), repeat=3)]
    return (*map(sparql.render_rir, rirs),
            *map(formalisms.TABLE["sparql"].to_lir, rirs),
            sparql.sparql_to_lir(q), sparql.varify(q),
            sparql.structure_signature(q), sparql.structure_signature(rirs[0]))


def sparql_lossy_of_rir(text: str) -> tuple[str, str]:
    """z_l and the structure signature of a parsed z_r."""
    from irkit import sparql
    z = sparql.parse_rir(text)
    return sparql.sparql_to_lir(z), sparql.structure_signature(z)


def sparql_from_rir(text: str) -> str:
    """The program ``invert`` writes for a z_r, with the relation dictionary
    of the fixture programs."""
    from irkit import pipeline
    return pipeline.invert_reversible(text, pipeline.PipelineConfig(
        "sparql", relation_dict=_sparql_dict()))


def sparql_key(text: str) -> str:
    """The exact-match scoring form of a program."""
    from irkit import formalisms
    return formalisms.TABLE["sparql"].key(text)


def _sql_programs() -> list[str]:
    from irkit import data
    return [r.y for r in data.read_records_jsonl(
        DATA / "sql_corpus.jsonl")]


def _sql_rirs() -> list[str]:
    from irkit import sql
    return [sql.sql_to_rir(sql.parse_sql(y)).render()
            for y in _sql_programs()]


def _scan_commands() -> list[str]:
    from irkit import data
    return [r.x for r in data.read_scan_records(DATA / "scan_sample.txt")]


def _scan_rirs() -> list[str]:
    from irkit import scan
    return [" ".join(scan.scan_to_rir(scan.parse_command(x)))
            for x in _scan_commands()]


def _scan_lines() -> list[str]:
    return (DATA / "scan_sample.txt").read_text(encoding="utf-8").splitlines()


def scan_transform(text: str) -> tuple[str, ...]:
    """What ``transform`` and ``prepare`` write for a command and its
    actions: z_r, the actions, z_l and z_{l,r}."""
    from irkit import data, pipeline, scan
    actions = " ".join(scan.interpret(scan.parse_command(text)))
    p = pipeline.Program(data.ExampleRecord("0", text, actions),
                         pipeline.PipelineConfig("scan"))
    return p.rir_text(), actions, p.lir_text(), p.lir_rir_text()


def scan_transform_cold(text: str) -> tuple[str, ...]:
    """``scan_transform`` with scan's tables cleared first, so that every
    command is parsed and analysed on a table miss."""
    _clear_tables("scan")
    return scan_transform(text)


def scan_from_rir(text: str) -> str:
    """The program ``invert`` writes for a z_r."""
    from irkit import pipeline
    return pipeline.invert_reversible(text, pipeline.PipelineConfig("scan"))


@functools.cache
def _lines_file() -> Path:
    """One file for the reader entry's inputs, removed when the process
    exits."""
    tmp = tempfile.TemporaryDirectory()
    atexit.register(tmp.cleanup)
    return Path(tmp.name) / "lines.txt"


def scan_read(text: str) -> list[tuple[str, str, str]]:
    """The records ``data.read_scan_records`` reads from a file holding
    ``text``; an error names the file ``lines.txt``."""
    from irkit import data
    from irkit.errors import IrkitError
    path = _lines_file()
    path.write_text(text, encoding="utf-8")
    try:
        return [tuple(r) for r in data.read_scan_records(path)]
    except IrkitError as exc:
        raise IrkitError(str(exc).replace(str(path), path.name)) from None


def _query_form(q) -> tuple:
    """An ``SqlQuery`` as plain tuples, which trees whose ``SqlQuery`` has
    other fields build alike.  The declarations keep their order, since
    ``sql._renames`` reports the first bad alias in that order."""
    return (q.tokens, q.values, q.depths, list(q.declared.items()),
            [(b.start, b.end, [(c.name, c.start, c.end) for c in b.clauses],
              [(child.start, child.end) for child in b.children])
             for b in q.block.walk()])


def sql_parse(text: str) -> tuple:
    from irkit import sql
    return _query_form(sql.parse_sql(text))


def sql_parse_cold(text: str) -> tuple:
    """``sql_parse`` with sql's tables cleared first, so that every input
    is segmented by the walk."""
    _clear_tables("sql")
    return sql_parse(text)


def sql_from_rir(text: str) -> tuple:
    """The restored query of a z_r's parsed query."""
    from irkit import sql
    return _query_form(sql.sql_from_rir(sql.parse_sql(text)))


def sql_from_rir_cold(text: str) -> tuple:
    """``sql_from_rir`` with sql's tables cleared first, so that the walks
    segment every input and decide its alias set."""
    _clear_tables("sql")
    return sql_from_rir(text)


def sql_transform(text: str) -> tuple[str, ...]:
    """What ``transform`` and ``prepare`` write for a program: z_l, the
    template signature, and z_r and z_{l,r}, or the error of z_r, so that a
    program that z_r rejects still compares its z_l."""
    from irkit import formalisms, sql
    from irkit.errors import TransformError
    q = sql.parse_sql(text)
    try:
        z = sql.sql_to_rir(q)
        rir = z.render(), formalisms.TABLE["sql"].to_lir(z)
    except TransformError as exc:
        rir = type(exc).__name__, str(exc)
    return sql.sql_to_lir(q), sql.sql_template_signature(q), *rir


def sql_transform_cold(text: str) -> tuple[str, ...]:
    """``sql_transform`` with sql's tables cleared first, so that the walks
    find every input's layout (its checks, FROM ranges and condition spans)
    and decide its alias set."""
    _clear_tables("sql")
    return sql_transform(text)


def sql_lossy_of_rir(text: str) -> str:
    """z_{l,r} of a predicted z_r, as ``postprocess --mode lir-i-rir``
    writes it."""
    from irkit import pipeline
    return pipeline._lir_of_rir(text, pipeline.PipelineConfig("sql"))


# name -> (base inputs, vocabulary for insertions and replacements, and the
# function: a wrapper here, or None for the irkit function of that name)
FUNCTIONS = {
    "sparql.parse_sparql": (_sparql_programs, SPARQL_VOCAB, sparql_parse),
    "sparql.parse_rir": (_sparql_rirs, SPARQL_VOCAB, sparql_parse_rir),
    "sparql.transform": (_sparql_programs, SPARQL_VOCAB, sparql_transform),
    "sparql.lossy_of_rir": (_sparql_rirs, SPARQL_VOCAB, sparql_lossy_of_rir),
    "sparql.from_rir": (_sparql_rirs, SPARQL_VOCAB, sparql_from_rir),
    "sparql.key": (_sparql_programs, SPARQL_VOCAB, sparql_key),
    "scan.parse_command": (_scan_commands, SCAN_VOCAB, None),
    "scan.transform": (_scan_commands, SCAN_VOCAB, scan_transform),
    "scan.transform_cold": (_scan_commands, SCAN_VOCAB, scan_transform_cold),
    "scan.from_rir": (_scan_rirs, SCAN_RIR_VOCAB, scan_from_rir),
    "data.read_scan_records": (_scan_lines, SCAN_LINE_VOCAB, scan_read),
    "sql.parse_sql": (_sql_programs, SQL_VOCAB, sql_parse),
    "sql.parse_sql_cold": (_sql_programs, SQL_VOCAB, sql_parse_cold),
    "sql.sql_from_rir": (_sql_rirs, SQL_VOCAB, sql_from_rir),
    "sql.sql_from_rir_cold": (_sql_rirs, SQL_VOCAB, sql_from_rir_cold),
    "sql.transform": (_sql_programs, SQL_VOCAB, sql_transform),
    "sql.transform_cold": (_sql_programs, SQL_VOCAB, sql_transform_cold),
    "sql.lossy_of_rir": (_sql_rirs, SQL_VOCAB, sql_lossy_of_rir),
}


def mutate(rng: random.Random, text: str, vocab: tuple[str, ...]) -> str:
    """``text`` after one to three seeded token mutations."""
    toks = text.split()
    spaced = False
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "duplicate", "swap", "truncate", "insert",
                         "replace", "whitespace"))
        i = rng.randrange(len(toks)) if toks else 0
        if op == "whitespace":
            spaced = True
        elif op == "insert" or not toks:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(vocab))
        elif op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap":
            j = i + 1 if rng.random() < 0.5 else rng.randrange(len(toks))
            j = min(j, len(toks) - 1)
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "truncate":
            toks = toks[:i]
        else:
            toks[i] = rng.choice(vocab)
    if not spaced:
        return " ".join(toks)
    pieces = [rng.choice(SEPARATORS) if rng.random() < 0.3 else ""]
    for tok in toks:
        pieces += [tok, rng.choice(SEPARATORS)]
    if rng.random() < 0.5:
        pieces.pop()
    return "".join(pieces)


def build_inputs(seed: int) -> dict:
    """Per function: its base inputs, then ``COUNT`` mutations of them."""
    inputs = {}
    for name, (bases_of, vocab, _) in FUNCTIONS.items():
        bases = bases_of()
        rng = random.Random(f"{seed}:{name}")
        inputs[name] = bases + [mutate(rng, rng.choice(bases), vocab)
                                for _ in range(COUNT)]
    return inputs


def outcome(fn, text: str) -> list:
    """A comparable record of ``fn(text)``: a digest of the output, or the
    error's type, message, offset and expected tokens."""
    try:
        out = fn(text)
    except Exception as exc:  # every error is an outcome to compare
        return ["error", type(exc).__name__, str(exc),
                getattr(exc, "offset", None),
                list(getattr(exc, "expected", ()))]
    return ["ok", hashlib.sha256(repr(out).encode("utf-8")).hexdigest()[:16]]


def kind(a: list, b: list) -> str:
    """How two differing outcomes differ: in the output, between ok and an
    error, or in the error's type, its message (offset aside; the message
    lists the expected tokens) or only its offset."""
    if a[0] != b[0]:
        return "ok<->error"
    if a[0] == "ok":
        return "output"
    if a[1] != b[1]:
        return "type"
    bare = [o[2].replace(f" (at byte offset {o[3]})", "") for o in (a, b)]
    return "message" if bare[0] != bare[1] else "offset"


def worker(src: str) -> None:
    """Read ``{name: [text, ...]}`` from stdin and write the outcomes of
    each function on each text, importing irkit from ``src``."""
    sys.path.insert(0, src)
    import irkit
    if not Path(irkit.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"irkit imported from {irkit.__file__}, not from {src}")
    results = {}
    for name, texts in json.load(sys.stdin).items():
        module, fn_name = name.split(".")
        fn = FUNCTIONS[name][2] or getattr(
            importlib.import_module(f"irkit.{module}"), fn_name)
        results[name] = [outcome(fn, text) for text in texts]
    json.dump(results, sys.stdout)


def run_tree(tree: Path, inputs: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src")],
        input=json.dumps(inputs), capture_output=True, text=True,
        check=False)
    if proc.returncode != 0:
        sys.exit(f"worker for {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"] and len(argv) == 2:
        worker(argv[1])
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "irkit").is_dir():
        sys.exit("usage: differential.py PARENT  "
                 "(PARENT: a checkout with src/irkit)")
    parent = Path(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    inputs_of = dict.fromkeys(FUNCTIONS, 0)
    kinds_of: dict[str, Counter] = {name: Counter() for name in FUNCTIONS}
    for seed in SEEDS:
        inputs = build_inputs(seed)
        ours, theirs = run_tree(ROOT, inputs), run_tree(parent, inputs)
        for name, texts in inputs.items():
            diffs = [(t, a, b) for t, a, b in zip(texts, theirs[name],
                                                  ours[name]) if a != b]
            inputs_of[name] += len(texts)
            kinds_of[name].update(kind(a, b) for _, a, b in diffs)
            print(f"seed {seed} {name}: {len(texts)} inputs, "
                  f"{len(diffs)} differences")
            for text, a, b in diffs[:SHOW]:
                print(f"  input:  {text!r}\n  parent: {a}\n  this:   {b}")
    for name, kinds in kinds_of.items():
        detail = ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
        print(f"total {name}: {inputs_of[name]} inputs, "
              f"{sum(kinds.values())} differences"
              + (f" ({detail})" if detail else ""))
    return 1 if any(kinds_of.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
