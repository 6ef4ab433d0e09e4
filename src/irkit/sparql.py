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
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .data import write_atomic
from .errors import ConfigError, InversionError, TransformError, fail_at

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


class SelectHead(NamedTuple):
    kind: str  # COUNT or DISTINCT
    variables: tuple[str, ...] = ()

    def render(self, term: Callable[[str], str] | None = None) -> str:
        if self.kind == COUNT:
            return "SELECT count(*)"
        return "SELECT DISTINCT " + " ".join(
            self.variables if term is None else map(term, self.variables))


class Triple(NamedTuple):
    subject: str
    relation: str
    object: str

    def render(self, term: Callable[[str], str] | None = None) -> str:
        if term is None:
            return f"{self.subject} {self.relation} {self.object}"
        return f"{term(self.subject)} {self.relation} {term(self.object)}"


class Filter(NamedTuple):
    left: str
    op: str
    right: str

    def render(self, term: Callable[[str], str] | None = None) -> str:
        if term is None:
            return f"FILTER ( {self.left} {self.op} {self.right} )"
        return f"FILTER ( {term(self.left)} {self.op} {term(self.right)} )"


Conjunct = Union[Triple, Filter]


class SparqlQuery(NamedTuple):
    head: SelectHead
    conjuncts: tuple[Conjunct, ...]

    def triples(self) -> tuple[Triple, ...]:
        return tuple(c for c in self.conjuncts if isinstance(c, Triple))


class TripleGroup(NamedTuple):
    """One or more triples sharing a subject and relation."""

    subject: str
    relation: str
    objects: tuple[str, ...]


Group = Union[TripleGroup, Filter]


class SparqlRir(NamedTuple):
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


def _expect(text: str, toks: list[str], i: int, *expected: str) -> int:
    """The index after token ``i``, which must be one of ``expected``."""
    try:
        tok = toks[i]
    except IndexError:
        fail_at(text, i, "unexpected end of input", expected)
    if tok not in expected:
        fail_at(text, i, f"unexpected token {tok!r}", expected)
    return i + 1


def _term(text: str, toks: list[str], i: int, what: str) -> str:
    """Token ``i``, which must not be reserved: a subject, relation, object
    or filter term."""
    try:
        tok = toks[i]
    except IndexError:
        fail_at(text, i, "unexpected end of input", (f"<{what}>",))
    if tok in _RESERVED:
        fail_at(text, i, f"reserved token {tok!r} where a {what} was "
                "expected", (f"<{what}>",))
    return tok


def _parse(text: str, ir: bool) -> tuple[SelectHead, list, bool]:
    """The head and the items up to the closing brace, which must end the
    input, and whether the items are bracketed.

    Items are separated by ``.``, or each wrapped in ``( )`` when bracketed.
    A program's items are triples and filters.  With ``ir`` they are groups
    and filters, bracketing is detected from the first group, and a group's
    objects are a comma list, or in a bracketed IR a bracketed comma list or
    one bare object.
    """
    toks = text.split()
    n = len(toks)
    i = _expect(text, toks, 0, "SELECT")
    i = _expect(text, toks, i, "count(*)", "DISTINCT")
    if toks[i - 1] == "count(*)":
        head = SelectHead(COUNT)
    else:
        first = i
        while i < n and toks[i] != "WHERE":
            if not is_variable(toks[i]):
                fail_at(text, i, f"non-variable token {toks[i]!r} in select "
                        "head", ("<variable>", "WHERE"))
            i += 1
        if i == first:
            fail_at(text, i, "DISTINCT head needs at least one variable",
                    ("<variable>",))
        head = SelectHead(DISTINCT, tuple(toks[first:i]))
    i = _expect(text, toks, i, "WHERE")
    i = _expect(text, toks, i, "{")
    bracketed = ir and i < n and toks[i] == "("
    separator = "(" if bracketed else "."
    items: list = []
    while i >= n or toks[i] != "}":
        if i >= n:
            fail_at(text, i, "unterminated body", ("}",))
        if bracketed or items:
            if toks[i] != separator:
                _expect(text, toks, i, separator)  # raises
            i += 1
        if i < n and toks[i] == "FILTER":
            i = _expect(text, toks, i + 1, "(")
            left = _term(text, toks, i, "term")
            i = _expect(text, toks, i + 1, *FILTER_OPS)
            op, right = toks[i - 1], _term(text, toks, i, "term")
            i = _expect(text, toks, i + 1, ")")
            items.append(Filter(left, op, right))
        elif not ir:
            triple = toks[i:i + 3]
            if len(triple) < 3 or not _RESERVED.isdisjoint(triple):
                for j, what in enumerate(("subject", "relation", "object")):
                    _term(text, toks, i + j, what)  # raises at the first
            items.append(Triple._make(triple))
            i += 3
        else:
            subject = _term(text, toks, i, "subject")
            relation = _term(text, toks, i + 1, "relation")
            i += 2
            nested = bracketed and i < n and toks[i] == "("
            i += nested
            objects = [_term(text, toks, i, "object")]
            i += 1
            while (nested or not bracketed) and i < n and toks[i] == ",":
                objects.append(_term(text, toks, i + 1, "object"))
                i += 2
            if nested:
                i = _expect(text, toks, i, ")")
            items.append(TripleGroup(subject, relation, tuple(objects)))
        if bracketed:
            i = _expect(text, toks, i, ")")
    if i + 1 < n:
        fail_at(text, i + 1, "trailing tokens after closing brace")
    return head, items, bracketed


def _check_head_vars(text: str, head: SelectHead,
                     conjuncts: Iterable[Conjunct]) -> None:
    if head.kind != DISTINCT:
        return
    # A triple's subject and object and a filter's operands are its fields
    # 0 and 2.
    seen = {t for c in conjuncts for t in (c[0], c[2])}
    missing = [v for v in head.variables if v not in seen]
    if missing:
        fail_at(text, len(text.split()),
                f"head variable(s) {', '.join(missing)} never used in body")


def parse_sparql(text: str) -> SparqlQuery:
    """Parse one query; raises :class:`ParseError` on malformed input."""
    head, conjuncts, _ = _parse(text, False)
    _check_head_vars(text, head, conjuncts)
    return SparqlQuery(head, tuple(conjuncts))


def _render_group(g: Conjunct | Group, bracketed: bool,
                  term: Callable[[str], str] | None) -> str:
    if type(g) is TripleGroup:
        subject, objects = g.subject, g.objects
        if term is not None:  # the subject is mapped before its objects
            subject, objects = term(subject), map(term, objects)
        objects = " , ".join(objects)
        if bracketed and len(g.objects) > 1:
            objects = f"( {objects} )"
        core = f"{subject} {g.relation} {objects}"
    else:
        core = g.render(term)
    return f"( {core} )" if bracketed else core


def _render_program(program: SparqlQuery | SparqlRir,
                    term: Callable[[str], str] | None = None,
                    sort: bool = False, dedupe: bool = False) -> str:
    """The surface form of ``program``, with ``term`` applied to each head
    variable, subject, object and filter operand in reading order, and its
    rendered items deduplicated if ``dedupe`` and sorted if ``sort``."""
    head = program.head.render(term)
    if type(program) is SparqlQuery:
        bracketed, parts = False, [c.render(term) for c in program.conjuncts]
    else:
        bracketed = program.bracketed
        parts = [_render_group(g, bracketed, term) for g in program.groups]
    if dedupe:
        parts = list(dict.fromkeys(parts))
    if sort:
        parts.sort()
    body = (" " if bracketed else " . ").join(parts)
    if body:
        return f"{head} WHERE {{ {body} }}"
    return f"{head} WHERE {{ }}"


def render_sparql(q: SparqlQuery) -> str:
    """Canonical surface form: single spaces, ``.`` between conjuncts."""
    return _render_program(q)


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
    shorten, merge = options.shorten_relations, options.merge_conjuncts
    # Filters, and groups as (subject, relation, objects), built at the end
    items: list = []
    objects_of: dict[tuple[str, str], list[str]] = {}
    for c in q.conjuncts:
        if type(c) is Filter:
            items.append(c)
            continue
        subject, relation, obj = c
        if shorten:
            relation = rdict.shorten(relation)
        if merge and (subject, relation) in objects_of:
            objects_of[subject, relation].append(obj)
        else:
            objects_of[subject, relation] = objects = [obj]
            items.append((subject, relation, objects))
    return SparqlRir(q.head, tuple([
        g if type(g) is Filter else TripleGroup(g[0], g[1], tuple(g[2]))
        for g in items]), options.brackets)


def render_rir(z: SparqlRir) -> str:
    """Surface form: bracketed groups are space-joined, plain ones dotted."""
    return _render_program(z)


def parse_rir(text: str) -> SparqlRir:
    """Parse an IR surface string; bracketing is detected from the first
    group."""
    head, groups, bracketed = _parse(text, True)
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
    # Only a token opening with ``?``, ``M`` or ``m`` can be a variable or
    # an entity, so the regex runs on those alone.
    first = t[:1]
    if first == "?" or first in "Mm" and _ENTITY_RE.fullmatch(t):
        return VAR_TOKEN
    return t


def sparql_to_lir(program: SparqlQuery | SparqlRir) -> str:
    """Replace every variable and entity (head included) with ``var``."""
    return _render_program(program, _anonymize_term)


def varify(q: SparqlQuery) -> str:
    """Original surface form with ``var`` prepended to variables/entities."""

    def mark(t: str) -> str:
        if is_variable(t) or is_entity(t):
            return f"{VAR_TOKEN} {t}"
        return t

    return _render_program(q, mark)


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

    return _render_program(program, rename, sort=True)
