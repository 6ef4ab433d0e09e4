"""Parsing, rendering, and IR transforms for conjunctive SPARQL programs.

The grammar covers the query shapes used by compositional-generalization
benchmarks over knowledge graphs: a ``SELECT count(*)`` or ``SELECT DISTINCT
?x0 ...`` head followed by a brace-delimited body of dot-separated conjuncts,
each of which is either a subject/relation/object triple or a binary
``FILTER ( a != b )`` constraint.  It is deliberately not a general SPARQL
parser.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Union

from .data import write_atomic
from .errors import ConfigError, InversionError, TokenCursor, TransformError

COUNT = "count"
DISTINCT = "distinct"

FILTER_OPS = ("!=",)

VAR_TOKEN = "var"

_ENTITY_RE = re.compile(r"M\d+|m_\w+")
_RESERVED = frozenset({"SELECT", "WHERE", "FILTER", "DISTINCT", "count(*)",
                       "{", "}", "(", ")", ".", ",", "!="})


def is_variable(token: str) -> bool:
    return token.startswith("?")


def is_entity(token: str) -> bool:
    return _ENTITY_RE.fullmatch(token) is not None


@dataclass(frozen=True, slots=True)
class SelectHead:
    kind: str  # COUNT or DISTINCT
    variables: tuple[str, ...] = ()

    def render(self) -> str:
        if self.kind == COUNT:
            return "SELECT count(*)"
        return "SELECT DISTINCT " + " ".join(self.variables)


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    relation: str
    object: str

    def render(self) -> str:
        return f"{self.subject} {self.relation} {self.object}"


@dataclass(frozen=True, slots=True)
class Filter:
    left: str
    op: str
    right: str

    def render(self) -> str:
        return f"FILTER ( {self.left} {self.op} {self.right} )"


Conjunct = Union[Triple, Filter]


@dataclass(frozen=True, slots=True)
class SparqlQuery:
    head: SelectHead
    conjuncts: tuple[Conjunct, ...]

    def triples(self) -> tuple[Triple, ...]:
        return tuple(c for c in self.conjuncts if isinstance(c, Triple))


@dataclass(frozen=True, slots=True)
class TripleGroup:
    """One or more triples sharing a subject and relation."""

    subject: str
    relation: str
    objects: tuple[str, ...]


Group = Union[TripleGroup, Filter]


@dataclass(frozen=True, slots=True)
class SparqlRir:
    head: SelectHead
    groups: tuple[Group, ...]
    bracketed: bool


@dataclass(frozen=True, slots=True)
class RirOptions:
    """Toggles for the reversible transform; all-on is the default IR."""

    merge_conjuncts: bool = True
    shorten_relations: bool = True
    brackets: bool = True


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _term(cur: TokenCursor, what: str) -> str:
    tok = cur.next(f"<{what}>")
    if tok in _RESERVED:
        cur.pos -= 1
        cur.fail(f"reserved token {tok!r} where a {what} was expected",
                 (f"<{what}>",))
    return tok


def _parse_head(cur: TokenCursor) -> SelectHead:
    """The select head and the ``WHERE {`` that follows it."""
    cur.expect("SELECT")
    tok = cur.next("count(*)", "DISTINCT")
    if tok == "count(*)":
        head = SelectHead(COUNT)
    elif tok != "DISTINCT":
        cur.pos -= 1
        cur.fail(f"unexpected token {tok!r}", ("count(*)", "DISTINCT"))
    else:
        variables = []
        while (tok := cur.peek()) is not None and tok != "WHERE":
            if not is_variable(tok):
                cur.fail(f"non-variable token {tok!r} in select head",
                         ("<variable>", "WHERE"))
            variables.append(cur.next())
        if not variables:
            cur.fail("DISTINCT head needs at least one variable",
                     ("<variable>",))
        head = SelectHead(DISTINCT, tuple(variables))
    cur.expect("WHERE")
    cur.expect("{")
    return head


def _parse_filter(cur: TokenCursor) -> Filter:
    cur.expect("(")
    left = _term(cur, "term")
    op = cur.expect(*FILTER_OPS)
    right = _term(cur, "term")
    cur.expect(")")
    return Filter(left, op, right)


def _triple(cur: TokenCursor, subject: str, relation: str) -> Triple:
    return Triple(subject, relation, _term(cur, "object"))


def _plain_group(cur: TokenCursor, subject: str,
                 relation: str) -> TripleGroup:
    objects = [_term(cur, "object")]
    while cur.peek() == ",":
        cur.next()
        objects.append(_term(cur, "object"))
    return TripleGroup(subject, relation, tuple(objects))


def _bracketed_group(cur: TokenCursor, subject: str,
                     relation: str) -> TripleGroup:
    if cur.peek() != "(":
        return TripleGroup(subject, relation, (_term(cur, "object"),))
    cur.next()
    group = _plain_group(cur, subject, relation)
    cur.expect(")")
    return group


def _parse_body(cur: TokenCursor, triple, bracketed: bool) -> list:
    """The conjuncts (or groups) up to the closing brace, which must end the
    input: separated by ``.``, or each wrapped in ``( )`` when
    ``bracketed``.  ``triple`` parses the objects after a subject and
    relation: one in a program, a comma list in a plain IR, a bracketed
    comma list or one bare object in a bracketed IR."""
    items: list = []
    while (tok := cur.peek()) != "}":
        if tok is None:
            cur.fail("unterminated body", ("}",))
        if bracketed or items:
            cur.expect("(" if bracketed else ".")
            tok = cur.peek()
        if tok == "FILTER":
            cur.next()
            items.append(_parse_filter(cur))
        else:
            items.append(triple(cur, _term(cur, "subject"),
                                _term(cur, "relation")))
        if bracketed:
            cur.expect(")")
    cur.next()
    if cur.peek() is not None:
        cur.fail("trailing tokens after closing brace")
    return items


def _check_head_vars(head: SelectHead, conjuncts: Iterable[Conjunct],
                     cur: TokenCursor) -> None:
    if head.kind != DISTINCT:
        return
    seen: set[str] = set()
    for c in conjuncts:
        if isinstance(c, Triple):
            seen.add(c.subject)
            seen.add(c.object)
        else:
            seen.add(c.left)
            seen.add(c.right)
    missing = [v for v in head.variables if v not in seen]
    if missing:
        cur.fail(f"head variable(s) {', '.join(missing)} never used in body")


def parse_sparql(text: str) -> SparqlQuery:
    """Parse one query; raises :class:`ParseError` on malformed input."""
    cur = TokenCursor(text)
    head = _parse_head(cur)
    conjuncts = _parse_body(cur, _triple, False)
    _check_head_vars(head, conjuncts, cur)
    return SparqlQuery(head, tuple(conjuncts))


def _render_group(g: Conjunct | Group, bracketed: bool) -> str:
    if isinstance(g, TripleGroup):
        objects = " , ".join(g.objects)
        if bracketed and len(g.objects) > 1:
            objects = f"( {objects} )"
        core = f"{g.subject} {g.relation} {objects}"
    else:
        core = g.render()
    return f"( {core} )" if bracketed else core


def _render_program(head: SelectHead, parts: Iterable[str],
                    bracketed: bool) -> str:
    body = (" " if bracketed else " . ").join(parts)
    if body:
        return f"{head.render()} WHERE {{ {body} }}"
    return f"{head.render()} WHERE {{ }}"


def render_sparql(q: SparqlQuery) -> str:
    """Canonical surface form: single spaces, ``.`` between conjuncts."""
    return _render_program(q.head, [c.render() for c in q.conjuncts], False)


# ---------------------------------------------------------------------------
# Relation dictionary
# ---------------------------------------------------------------------------

_NS_MARK = "ns:"


def _post_ns(relation: str) -> str:
    # Split at the last occurrence of the literal "ns:".
    return relation.rsplit(_NS_MARK, 1)[-1]


def _suffix_candidates(relation: str) -> list[str]:
    """Shortest-first truncation candidates for one relation name."""
    if _NS_MARK not in relation:
        return [relation]
    segments = _post_ns(relation).split(".")
    return [".".join(segments[-n:]) for n in range(1, len(segments) + 1)]


@dataclass(frozen=True, slots=True)
class RelationDictionary:
    """Bijective map between full and truncated relation names."""

    forward: Mapping[str, str]
    backward: Mapping[str, str]

    def __post_init__(self) -> None:
        if len(self.forward) != len(self.backward):
            raise TransformError("relation dictionary is not a bijection")
        for full, short in self.forward.items():
            if self.backward.get(short) != full:
                raise TransformError(
                    f"relation dictionary is not a bijection at {short!r}")

    def shorten(self, relation: str) -> str:
        try:
            return self.forward[relation]
        except KeyError:
            raise TransformError(f"relation {relation!r} not in dictionary")

    def restore(self, relation: str) -> str:
        full = self.backward.get(relation)
        if full is not None:
            return full
        # A full name passes through untouched (IRs built with truncation
        # disabled still invert against the same dictionary).
        if relation in self.forward:
            return relation
        raise InversionError(f"unknown truncated relation {relation!r}")

    def save(self, path: str | Path) -> None:
        payload = dict(sorted(self.forward.items()))
        write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True)
                            + "\n"])

    @classmethod
    def load(cls, path: str | Path) -> "RelationDictionary":
        text = Path(path).read_text(encoding="utf-8")
        try:
            forward = json.loads(text)
        except (ValueError, RecursionError):  # as in data.read_records_jsonl
            forward = None
        if not (isinstance(forward, dict)
                and all(isinstance(v, str) for v in forward.values())):
            raise ConfigError(f"relation dictionary {str(path)!r} is not a "
                              "JSON object of relation names")
        return cls(forward, {v: k for k, v in forward.items()})


def build_relation_dict(corpus: Iterable[SparqlQuery]) -> RelationDictionary:
    """Assign each relation its shortest corpus-unique dot-suffix.

    Every relation starts at the last dot-separated segment after the final
    ``ns:`` marker and is extended leftward one segment at a time while it
    collides with another relation's current assignment.  Relations without
    the marker map to themselves.
    """
    relations: set[str] = set()
    n_queries = 0
    for q in corpus:
        n_queries += 1
        for t in q.triples():
            relations.add(t.relation)
    if n_queries == 0:
        raise TransformError("cannot build a relation dictionary from an "
                             "empty corpus")

    candidates = {rel: _suffix_candidates(rel) for rel in sorted(relations)}
    index = {rel: 0 for rel in candidates}
    while True:
        by_name: dict[str, list[str]] = {}
        for rel in candidates:
            by_name.setdefault(candidates[rel][index[rel]], []).append(rel)
        colliding = [group for group in by_name.values() if len(group) > 1]
        if not colliding:
            break
        for group in colliding:
            extendable = [r for r in group
                          if index[r] + 1 < len(candidates[r])]
            if not extendable:
                raise TransformError(
                    "relations truncate to the same name and cannot be "
                    "disambiguated: " + " vs ".join(sorted(group)))
            for rel in extendable:
                index[rel] += 1

    forward = {rel: candidates[rel][index[rel]] for rel in candidates}
    return RelationDictionary(forward, {v: k for k, v in forward.items()})


# ---------------------------------------------------------------------------
# Reversible IR
# ---------------------------------------------------------------------------


def sparql_to_rir(q: SparqlQuery,
                  rdict: RelationDictionary | None = None,
                  options: RirOptions = RirOptions()) -> SparqlRir:
    """Group shared-subject/relation triples, truncate relations, bracket."""
    if options.shorten_relations and rdict is None:
        raise TransformError("relation truncation requires a dictionary")

    def rel(name: str) -> str:
        return rdict.shorten(name) if options.shorten_relations else name

    groups: list[Group] = []
    by_key: dict[tuple[str, str], int] = {}
    for c in q.conjuncts:
        if isinstance(c, Filter):
            groups.append(c)
            continue
        relation = rel(c.relation)
        if options.merge_conjuncts:
            key = (c.subject, relation)
            slot = by_key.get(key)
            if slot is not None:
                g = groups[slot]
                groups[slot] = TripleGroup(g.subject, g.relation,
                                           g.objects + (c.object,))
                continue
            by_key[key] = len(groups)
        groups.append(TripleGroup(c.subject, relation, (c.object,)))
    return SparqlRir(q.head, tuple(groups), options.brackets)


def render_rir(z: SparqlRir) -> str:
    """Surface form: bracketed groups are space-joined, plain ones dotted."""
    return _render_program(
        z.head, [_render_group(g, z.bracketed) for g in z.groups],
        z.bracketed)


def parse_rir(text: str) -> SparqlRir:
    """Parse an IR surface string; bracketing is detected from the first
    group."""
    cur = TokenCursor(text)
    head = _parse_head(cur)
    bracketed = cur.peek() == "("
    groups = _parse_body(cur, _bracketed_group if bracketed else _plain_group,
                         bracketed)
    return SparqlRir(head, tuple(groups), bracketed)


def sparql_from_rir(z: SparqlRir,
                    rdict: RelationDictionary | None = None) -> SparqlQuery:
    """Expand groups back into triples and restore full relation names."""
    conjuncts: list[Conjunct] = []
    for g in z.groups:
        if isinstance(g, Filter):
            conjuncts.append(g)
            continue
        relation = rdict.restore(g.relation) if rdict else g.relation
        for obj in g.objects:
            conjuncts.append(Triple(g.subject, relation, obj))
    return SparqlQuery(z.head, tuple(conjuncts))


# ---------------------------------------------------------------------------
# Lossy IR, VARified form, normalization, structure signatures
# ---------------------------------------------------------------------------


def _anonymize_term(t: str) -> str:
    if is_variable(t) or is_entity(t):
        return VAR_TOKEN
    return t


def _items(program: SparqlQuery | SparqlRir) -> tuple:
    if isinstance(program, SparqlQuery):
        return program.conjuncts
    return program.groups


def _map_terms(program: SparqlQuery | SparqlRir, fn):
    """``program`` with ``fn`` applied to each head variable, subject,
    object and filter operand, in reading order."""
    head = program.head
    if head.kind == DISTINCT:
        head = SelectHead(DISTINCT, tuple(map(fn, head.variables)))
    mapped = []
    for c in _items(program):
        if isinstance(c, Triple):
            mapped.append(Triple(fn(c.subject), c.relation, fn(c.object)))
        elif isinstance(c, Filter):
            mapped.append(Filter(fn(c.left), c.op, fn(c.right)))
        else:
            mapped.append(TripleGroup(fn(c.subject), c.relation,
                                      tuple(map(fn, c.objects))))
    if isinstance(program, SparqlQuery):
        return SparqlQuery(head, tuple(mapped))
    return SparqlRir(head, tuple(mapped), program.bracketed)


def sparql_to_lir(program: SparqlQuery | SparqlRir) -> str:
    """Replace every variable and entity (head included) with ``var``."""
    anonymized = _map_terms(program, _anonymize_term)
    if isinstance(anonymized, SparqlQuery):
        return render_sparql(anonymized)
    return render_rir(anonymized)


def varify(q: SparqlQuery) -> str:
    """Original surface form with ``var`` prepended to variables/entities."""

    def mark(t: str) -> str:
        if is_variable(t) or is_entity(t):
            return f"{VAR_TOKEN} {t}"
        return t

    return render_sparql(_map_terms(q, mark))


def strip_var_markers(text: str) -> str:
    """Inverse of :func:`varify` at the token level."""
    return " ".join(tok for tok in text.split() if tok != VAR_TOKEN)


def normalize_sparql(q: SparqlQuery) -> SparqlQuery:
    """Dedupe conjuncts, then sort them by their rendered string.

    UTF-8 byte order and code-point order agree, so a plain string sort
    implements the byte-order contract.
    """
    rendered = {}
    for c in q.conjuncts:
        rendered.setdefault(c.render(), c)
    ordered = tuple(rendered[k] for k in sorted(rendered))
    return SparqlQuery(q.head, ordered)


def structure_signature(program: SparqlQuery | SparqlRir) -> str:
    """Canonical structural form: entities masked, variables renumbered.

    Variables keep their co-reference pattern (first occurrence order before
    sorting), entities collapse to ``ENT``, then groups are sorted so the
    signature is insensitive to noise in group order.
    """
    names: dict[str, str] = {}

    def rename(t: str) -> str:
        if is_entity(t):
            return "ENT"
        if is_variable(t):
            if t not in names:
                names[t] = f"V{len(names)}"
            return names[t]
        return t

    renamed = _map_terms(program, rename)
    bracketed = isinstance(program, SparqlRir) and program.bracketed
    return _render_program(
        renamed.head,
        sorted(_render_group(g, bracketed) for g in _items(renamed)),
        bracketed)
