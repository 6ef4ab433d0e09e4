"""Seeded benchmark inputs and their known answers.

Programs come from the repository's own grammars: the sparql fixture
generator (``scripts/make_sparql_fixture.py``), the 61 hand-written sql
fixture queries with their literals rewritten, and the full SCAN command
space enumerated by ``tests/oracles.py``.  Every expected output (reversible
IR, lossy IR, inverse, verdict, quarantine) is computed here by token-level
code or by the test oracles, never by irkit, so that the benchmark's
known-answer gate is independent of the program it checks.
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FORMALISMS = ("sparql", "sql", "scan")
SEP = " ; "

# Records per formalism at scale 1, anchored on published splits: a CFQ
# train slice for sparql; the train (4,473) and test (448) sets of the
# standard ATIS question split in its SQL form (Iyer et al. 2017, "Learning
# a Neural Semantic Parser from User Feedback"; the ATIS data that
# Finegan-Dollak et al. 2018 redistribute) for sql;
# SCAN's simple-split train set (16,728); CFQ MCD dev (11,968) and SCAN's
# simple-split test set (4,182).
SIZES = {
    "train-prep": {"sparql": 12_000, "sql": 4_473, "scan": 16_728},
    "test-score": {"sparql": 11_968, "sql": 448, "scan": 4_182},
}
# One factor scales every count above, so that a pass of a workload takes
# a few seconds and a run holds several passes.
SCALE = 0.25

# Structural shapes of sparql programs; draws repeat them with Zipf-like
# weights 1 / (1 + rank) ** 0.7, as the fixture generator does.
SPARQL_SHAPES = 200

STAGE1_MODES = {
    "sparql": ("baseline", "rir", "lir-d", "lir-d-rir", "lir-cat",
               "varified"),
    "sql": ("baseline", "rir", "lir-d", "lir-d-rir", "lir-cat"),
    "scan": ("baseline", "rir", "lir-d", "lir-d-rir", "lir-cat"),
}
STAGE2_MODES = ("lir-d", "lir-d-rir")

# Prediction classes of the test-score workload and their shares.
EXACT, WRONG, MALFORMED = "exact", "wrong", "malformed"
CLASS_SHARES = ((EXACT, 0.7), (WRONG, 0.2), (MALFORMED, 0.1))
VERDICT = {EXACT: "correct", WRONG: "wrong", MALFORMED: "invalid"}


def _load(relative: str, name: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counts(workload: str, scale: float = SCALE) -> dict[str, int]:
    return {f: max(8, round(n * scale))
            for f, n in SIZES[workload].items()}


# ---------------------------------------------------------------------------
# Token-level reference transforms
# ---------------------------------------------------------------------------

_ENTITY = re.compile(r"M\d+|m_\w+")
_SQL_TOKEN = re.compile(r"\"[^\"]*\"|'[^']*'|\S+")
_SQL_ALIAS = re.compile(r"([A-Za-z_]\w*?)alias(\d+)")
_SQL_NUMBER = re.compile(r"\d+(?:\.\d+)?")
SCAN_ACTIONS = frozenset({"WALK", "LOOK", "RUN", "JUMP", "LTURN", "RTURN"})


def _sparql_term_is_var_or_entity(tok: str) -> bool:
    return tok.startswith("?") or _ENTITY.fullmatch(tok) is not None


def sparql_anonymize(text: str) -> str:
    return " ".join("var" if _sparql_term_is_var_or_entity(t) else t
                    for t in text.split())


def sparql_varify(text: str) -> str:
    return " ".join(f"var {t}" if _sparql_term_is_var_or_entity(t) else t
                    for t in text.split())


@dataclass
class SparqlProgram:
    head: str
    conjuncts: list[tuple]  # ("t", s, r, o) or ("f", left, op, right)

    def render(self) -> str:
        body = " . ".join(_render_conjunct(c) for c in self.conjuncts)
        return f"{self.head} WHERE {{ {body} }}"

    def key(self) -> tuple:
        """Exact-match form: head plus the set of conjuncts."""
        return self.head, frozenset(_render_conjunct(c)
                                    for c in self.conjuncts)


def _render_conjunct(c: tuple) -> str:
    if c[0] == "f":
        return f"FILTER ( {c[1]} {c[2]} {c[3]} )"
    return f"{c[1]} {c[2]} {c[3]}"


def sparql_rir(p: SparqlProgram, short: dict[str, str]) -> list[list]:
    """Groups in first-occurrence order: [s, r_short, [objects]] or filter."""
    groups: list = []
    slot: dict[tuple[str, str], int] = {}
    for c in p.conjuncts:
        if c[0] == "f":
            groups.append(c)
            continue
        key = (c[1], short[c[2]])
        if key in slot:
            groups[slot[key]][2].append(c[3])
        else:
            slot[key] = len(groups)
            groups.append([c[1], short[c[2]], [c[3]]])
    return groups


def render_sparql_rir(head: str, groups: list) -> str:
    parts = []
    for g in groups:
        if isinstance(g, tuple):
            parts.append(f"( {_render_conjunct(g)} )")
        elif len(g[2]) == 1:
            parts.append(f"( {g[0]} {g[1]} {g[2][0]} )")
        else:
            parts.append(f"( {g[0]} {g[1]} ( {' , '.join(g[2])} ) )")
    return f"{head} WHERE {{ {' '.join(parts)} }}"


def expand_sparql_rir(head: str, groups: list,
                      full: dict[str, str]) -> SparqlProgram:
    conjuncts = []
    for g in groups:
        if isinstance(g, tuple):
            conjuncts.append(g)
        else:
            conjuncts.extend(("t", g[0], full[g[1]], o) for o in g[2])
    return SparqlProgram(head, conjuncts)


def sql_tokens(text: str) -> list[str]:
    return _SQL_TOKEN.findall(text)


def sql_rir(text: str) -> str:
    return " ".join(t if t[0] in "\"'" else _SQL_ALIAS.sub(r"\1\2", t)
                    for t in sql_tokens(text))


def fresh_sql_literal(rng: random.Random, tok: str) -> str:
    """A literal of the same kind (quoted, with as many words, or numeric)."""
    if tok[0] in "\"'":
        words = tok[1:-1].split() or [""]
        fresh = " ".join(
            "".join(rng.choice("ABCDEFGHKLMNPRSTUVWZ")
                    for _ in range(rng.randrange(3, 9)))
            for _ in words)
        return f"{tok[0]}{fresh}{tok[0]}"
    return str(rng.randrange(1, 10_000))


def scan_rir(command: str, phrase_table: dict[str, str]) -> list[str]:
    """Bracket repetition copies and multi-action phrases."""
    words = command.split()
    for op in ("and", "after"):
        if op in words:
            k = words.index(op)
            left = scan_rir(" ".join(words[:k]), phrase_table)
            right = scan_rir(" ".join(words[k + 1:]), phrase_table)
            return left + right if op == "and" else right + left
    times = {"twice": 2, "thrice": 3}.get(words[-1])
    if times:
        actions = phrase_table[" ".join(words[:-1])].split()
        return ["(", *actions, ")"] * times
    actions = phrase_table[command].split()
    return actions if len(actions) == 1 else ["(", *actions, ")"]


def scan_lir(tokens: list[str]) -> list[str]:
    """Runs of one action keep the first copy; the rest become ``A``."""
    out, previous = [], None
    for tok in tokens:
        if tok in SCAN_ACTIONS and tok == previous:
            out.append("A")
            continue
        out.append(tok)
        previous = tok if tok in SCAN_ACTIONS else None
    return out


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """One record and everything the gate expects irkit to do with it."""

    id: str
    x: str
    y: str
    rir: str
    lir: str  # lossy IR of y
    lir_rir: str  # lossy IR of the reversible IR
    inverse: str  # invert(rir), byte-exact
    varified: str = ""
    key: object = None  # exact-match form of y


@dataclass
class Corpus:
    formalism: str
    items: list[Item]
    relation_dict: dict[str, str] = field(default_factory=dict)


class Generator:
    """Builds seeded corpora; the same seed gives the same inputs."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sparql_fixture = _load("scripts/make_sparql_fixture.py",
                                    "perfbench_sparql_fixture")
        self.oracles = _load("tests/oracles.py", "perfbench_oracles")
        sql_path = ROOT / "tests" / "data" / "sql_corpus.jsonl"
        self.sql_fixture = [json.loads(line) for line in
                            sql_path.read_text(encoding="utf-8").splitlines()
                            if line.strip()]
        self.scan_commands = self.oracles.all_scan_commands()

    def rng(self, *parts: str) -> random.Random:
        return random.Random(f"{self.seed}:" + ":".join(parts))

    # -- sparql ------------------------------------------------------------

    def sparql_programs(self, n: int, stream: str):
        fx = self.sparql_fixture
        # The shape pool is part of the workload, not of the seed: with
        # seeded shapes the mean program length, and with it records/s,
        # would differ from seed to seed.
        shape_rng = random.Random("perfbench-sparql-shapes")
        shapes = [fx.make_shape(shape_rng) for _ in range(SPARQL_SHAPES)]
        rng = self.rng("sparql", stream)
        weights = [1.0 / (1 + i) ** 0.7 for i in range(len(shapes))]
        for _ in range(n):
            q = fx.instantiate(rng.choices(shapes, weights)[0], rng)
            head = ("SELECT count(*)" if q.head.kind == "count" else
                    "SELECT DISTINCT " + " ".join(q.head.variables))
            conjuncts = [("f", c.left, c.op, c.right) if hasattr(c, "op")
                         else ("t", c.subject, c.relation, c.object)
                         for c in q.conjuncts]
            yield SparqlProgram(head, conjuncts), fx.utterance(q, rng)

    def sparql_corpus(self, n: int, stream: str) -> tuple[Corpus, list]:
        programs = list(self.sparql_programs(n, stream))
        relations = sorted({c[2] for p, _ in programs for c in p.conjuncts
                            if c[0] == "t"})
        short = self.oracles.oracle_truncations(relations)
        full = {v: k for k, v in short.items()}
        items = []
        for i, (p, utterance) in enumerate(programs):
            y = p.render()
            groups = sparql_rir(p, short)
            rir = render_sparql_rir(p.head, groups)
            items.append(Item(
                f"cfq-{i:06d}", utterance, y, rir,
                sparql_anonymize(y), sparql_anonymize(rir),
                expand_sparql_rir(p.head, groups, full).render(),
                varified=sparql_varify(y), key=p.key()))
        return Corpus("sparql", items, short), programs

    # -- sql ---------------------------------------------------------------

    def sql_corpus(self, n: int, stream: str) -> Corpus:
        rng = self.rng("sql", stream)
        # Every fixture query in turn, in a seeded order, so that the mix of
        # query sizes is the same for every seed.
        order = []
        while len(order) < n:
            order += rng.sample(self.sql_fixture, len(self.sql_fixture))
        items = []
        for i, record in enumerate(order[:n]):
            tokens = [fresh_sql_literal(rng, t)
                      if t[0] in "\"'" or _SQL_NUMBER.fullmatch(t) else t
                      for t in sql_tokens(record["y"])]
            y = " ".join(tokens)
            lir = self.oracles.oracle_sql_lir(y)
            items.append(Item(f"sql-{i:06d}", record["x"], y, sql_rir(y),
                              lir, lir, y, key=y))
        return Corpus("sql", items)

    # -- scan --------------------------------------------------------------

    def scan_corpus(self, n: int, stream: str, ids: str) -> Corpus:
        rng = self.rng("scan", stream)
        table = self.oracles.SCAN_PHRASE_TABLE
        items = []
        for i, command in enumerate(rng.sample(self.scan_commands, n)):
            y = self.oracles.oracle_scan_interpret(command)
            rir = scan_rir(command, table)
            record_id = str(i) if ids == "lines" else f"scan-{i:06d}"
            items.append(Item(record_id, command, y, " ".join(rir),
                              " ".join(scan_lir(y.split())),
                              " ".join(scan_lir(rir)), y, key=y))
        return Corpus("scan", items)

    def corpus(self, formalism: str, n: int, stream: str,
               scan_ids: str = "prefixed") -> Corpus:
        if formalism == "sparql":
            return self.sparql_corpus(n, stream)[0]
        if formalism == "sql":
            return self.sql_corpus(n, stream)
        return self.scan_corpus(n, stream, scan_ids)


# ---------------------------------------------------------------------------
# Predictions for the test-score workload
# ---------------------------------------------------------------------------


@dataclass
class Prediction:
    id: str
    kind: str  # EXACT / WRONG / MALFORMED
    text: str  # predicted reversible IR
    lir: str = ""  # expected lossy IR of ``text`` (not for MALFORMED)
    final: str = ""  # expected program after inversion ("" if MALFORMED)


def _pick_class(rng: random.Random) -> str:
    r = rng.random()
    for kind, share in CLASS_SHARES:
        if r < share:
            return kind
        r -= share
    return CLASS_SHARES[-1][0]


def sparql_predictions(gen: Generator, n: int, stream: str):
    corpus, programs = gen.sparql_corpus(n, stream)
    short = corpus.relation_dict
    full = {v: k for k, v in short.items()}
    rng = gen.rng("sparql-pred", stream)
    preds = []
    for item, (program, _) in zip(corpus.items, programs):
        kind = _pick_class(rng)
        if kind == MALFORMED:
            # Any strict token prefix lacks the closing brace.
            tokens = item.rir.split()
            cut = rng.randrange(len(tokens) // 2, len(tokens))
            preds.append(Prediction(item.id, kind, " ".join(tokens[:cut])))
            continue
        if kind == WRONG:
            slots = [(k, j) for k, c in enumerate(program.conjuncts)
                     for j in (1, 3) if c[0] == "t"
                     and _ENTITY.fullmatch(c[j])]
            if slots:
                k, j = rng.choice(slots)
                fresh = "m_0" + "".join(rng.choice("bcdfghjklmnp")
                                        for _ in range(8))
                c = list(program.conjuncts[k])
                c[j] = fresh
                conjuncts = list(program.conjuncts)
                conjuncts[k] = tuple(c)
                program = SparqlProgram(program.head, conjuncts)
            else:
                kind = EXACT  # no entity to replace
        groups = sparql_rir(program, short)
        text = render_sparql_rir(program.head, groups)
        final = expand_sparql_rir(program.head, groups, full)
        if (final.key() == item.key) != (kind == EXACT):
            raise AssertionError(f"{item.id}: verdict not as constructed")
        preds.append(Prediction(item.id, kind, text, sparql_anonymize(text),
                                final.render()))
    return corpus, preds


def sql_predictions(gen: Generator, n: int, stream: str):
    corpus = gen.sql_corpus(n, stream)
    rng = gen.rng("sql-pred", stream)
    preds = []
    for item in corpus.items:
        kind = _pick_class(rng)
        tokens = sql_tokens(item.y)
        if kind == MALFORMED:
            k = rng.randrange(1, len(tokens) + 1)
            broken = tokens[:k] + [rng.choice("()")] + tokens[k:]
            preds.append(Prediction(item.id, kind, sql_rir(" ".join(broken))))
            continue
        if kind == WRONG:
            slots = [k for k, t in enumerate(tokens)
                     if t[0] in "\"'" or _SQL_NUMBER.fullmatch(t)]
            if slots:
                k = rng.choice(slots)
                present = set(tokens)
                fresh = tokens[k]
                while fresh in present:
                    fresh = fresh_sql_literal(rng, fresh)
                tokens[k] = fresh
            else:
                kind = EXACT  # no literal to replace
        program = " ".join(tokens)
        if (program == item.y) != (kind == EXACT):
            raise AssertionError(f"{item.id}: verdict not as constructed")
        preds.append(Prediction(item.id, kind, sql_rir(program),
                                gen.oracles.oracle_sql_lir(program),
                                program))
    return corpus, preds


def scan_predictions(gen: Generator, n: int, stream: str):
    corpus = gen.scan_corpus(n, stream, "prefixed")
    rng = gen.rng("scan-pred", stream)
    preds = []
    for item in corpus.items:
        kind = _pick_class(rng)
        tokens = item.rir.split()
        if kind == MALFORMED:
            closes = [k for k, t in enumerate(tokens) if t == ")"]
            if closes and rng.random() < 0.5:
                broken = tokens[:closes[-1]]  # truncated inside a bracket
            else:
                k = rng.randrange(len(tokens) + 1)
                broken = tokens[:k] + [rng.choice("()")] + tokens[k:]
            preds.append(Prediction(item.id, kind, " ".join(broken)))
            continue
        if kind == WRONG:
            slots = [k for k, t in enumerate(tokens) if t in SCAN_ACTIONS]
            k = rng.choice(slots)
            absent = sorted(SCAN_ACTIONS - set(tokens))
            tokens[k] = rng.choice(absent)
        final = " ".join(t for t in tokens if t in SCAN_ACTIONS)
        if (final == item.y) != (kind == EXACT):
            raise AssertionError(f"{item.id}: verdict not as constructed")
        preds.append(Prediction(item.id, kind, " ".join(tokens),
                                " ".join(scan_lir(tokens)), final))
    return corpus, preds


PREDICTIONS = {"sparql": sparql_predictions, "sql": sql_predictions,
               "scan": scan_predictions}
