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
from functools import partial
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


class TripleGroup(NamedTuple):
    """A subject and relation with one or more objects.  A program's triple
    is a group with one object."""

    subject: str
    relation: str
    objects: tuple[str, ...]


class Filter(NamedTuple):
    left: str
    op: str
    right: str


Item = Union[TripleGroup, Filter]

# ``TripleGroup._make`` of a (subject, relation, objects) tuple, without its
# Python-level frame: parsing and the transforms build one group per triple.
_make_group = partial(tuple.__new__, TripleGroup)


class SparqlQuery(NamedTuple):
    """A program, or a reversible IR (z_r) of one.

    A parsed program is the z_r with every transform switched off: one
    object per group, relations in full and no brackets.
    """

    head: SelectHead
    groups: tuple[Item, ...]
    bracketed: bool = False


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


def _parse(text: str, ir: bool) -> SparqlQuery:
    """The query up to the closing brace, which must end the input.

    Items are separated by ``.``, or each wrapped in ``( )`` when bracketed.
    A program's groups each hold one object and are never bracketed.  With
    ``ir``, bracketing is detected from the first group, and a group's
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
    items: list[Item] = []
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
            subject, relation, obj = triple
            items.append(_make_group((subject, relation, (obj,))))
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
            items.append(_make_group((subject, relation, tuple(objects))))
        if bracketed:
            i = _expect(text, toks, i, ")")
    if i + 1 < n:
        fail_at(text, i + 1, "trailing tokens after closing brace")
    return SparqlQuery(head, tuple(items), bracketed)


def parse_sparql(text: str) -> SparqlQuery:
    """Parse one query; raises :class:`ParseError` on malformed input."""
    q = _parse(text, False)
    if q.head.kind == DISTINCT:
        # Each group of a program holds one object.
        seen = {g[0] for g in q.groups}
        seen.update(g.right if type(g) is Filter else g.objects[0]
                    for g in q.groups)
        missing = [v for v in q.head.variables if v not in seen]
        if missing:
            fail_at(text, len(text.split()), "head variable(s) "
                    f"{', '.join(missing)} never used in body")
    return q


def _render_group(g: Item, bracketed: bool,
                  term: Callable[[str], str] | None) -> str:
    if type(g) is Filter:
        left, right = g.left, g.right
        if term is not None:
            left, right = term(left), term(right)
        core = f"FILTER ( {left} {g.op} {right} )"
    elif len(g.objects) == 1:  # a program's triple, rendered in one step
        if term is None:
            core = f"{g.subject} {g.relation} {g.objects[0]}"
        else:  # the subject is mapped before the object
            core = f"{term(g.subject)} {g.relation} {term(g.objects[0])}"
    else:
        subject, objects = g.subject, g.objects
        if term is not None:  # the subject is mapped before its objects
            subject, objects = term(subject), map(term, objects)
        objects = " , ".join(objects)
        if bracketed:
            objects = f"( {objects} )"
        core = f"{subject} {g.relation} {objects}"
    return f"( {core} )" if bracketed else core


def _render_program(program: SparqlQuery,
                    term: Callable[[str], str] | None = None,
                    sort: bool = False, dedupe: bool = False) -> str:
    """The surface form of ``program``, with ``term`` applied to each head
    variable, subject, object and filter operand in reading order, and its
    rendered items deduplicated if ``dedupe`` and sorted if ``sort``."""
    head = program.head.render(term)
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
        relations.update(g.relation for g in q.groups
                         if type(g) is TripleGroup)
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
                  options: RirOptions = RirOptions()) -> SparqlQuery:
    """Group shared-subject/relation triples, truncate relations, bracket.

    ``q`` is a program: each of its groups holds one object.
    """
    if options.shorten_relations and rdict is None:
        raise TransformError("relation truncation requires a dictionary")
    shorten, merge = options.shorten_relations, options.merge_conjuncts
    # Filters, and groups as (subject, relation, objects), built at the end
    items: list = []
    objects_of: dict[tuple[str, str], list[str]] = {}
    for c in q.groups:
        if type(c) is Filter:
            items.append(c)
            continue
        try:
            subject, relation, (obj,) = c
        except ValueError:
            raise TransformError(
                "sparql_to_rir takes a program: each group holds one "
                f"object, not {len(c[2])}") from None
        if shorten:
            relation = rdict.shorten(relation)
        if merge and (subject, relation) in objects_of:
            objects_of[subject, relation].append(obj)
        else:
            objects_of[subject, relation] = objects = [obj]
            items.append((subject, relation, objects))
    return SparqlQuery(q.head, tuple([
        g if type(g) is Filter else _make_group((g[0], g[1], tuple(g[2])))
        for g in items]), options.brackets)


def render_rir(z: SparqlQuery) -> str:
    """Surface form: bracketed groups are space-joined, plain ones dotted."""
    return _render_program(z)


def parse_rir(text: str) -> SparqlQuery:
    """Parse an IR surface string; bracketing is detected from the first
    group."""
    return _parse(text, True)


def sparql_from_rir(z: SparqlQuery,
                    rdict: RelationDictionary | None = None) -> SparqlQuery:
    """Expand groups back into triples and restore full relation names."""
    items: list[Item] = []
    for g in z.groups:
        if type(g) is Filter:
            items.append(g)
            continue
        subject, relation, objects = g
        if rdict:
            relation = rdict.restore(relation)
        for obj in objects:
            items.append(_make_group((subject, relation, (obj,))))
    return SparqlQuery(z.head, tuple(items))


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


def sparql_to_lir(program: SparqlQuery) -> str:
    """Replace every variable and entity (head included) with ``var``."""
    return _render_program(program, _anonymize_term)


def varify(q: SparqlQuery) -> str:
    """Original surface form with ``var`` prepended to variables/entities.

    A program that holds a term ``var`` raises :class:`TransformError`:
    :func:`strip_var_markers` would drop it.
    """
    for g in q.groups:  # a filter's fields, or a group's and its objects
        if VAR_TOKEN in g or (type(g) is TripleGroup
                              and VAR_TOKEN in g.objects):
            raise TransformError(
                f"program holds the term {VAR_TOKEN!r}, which marks "
                "variables and entities in the VARified form")

    def mark(t: str) -> str:
        if is_variable(t) or is_entity(t):
            return f"{VAR_TOKEN} {t}"
        return t

    return _render_program(q, mark)


def strip_var_markers(text: str) -> str:
    """Inverse of :func:`varify` at the token level."""
    return " ".join(tok for tok in text.split() if tok != VAR_TOKEN)


def normalize_sparql(q: SparqlQuery) -> str:
    """The exact-match scoring form: ``q`` rendered with its conjuncts
    deduplicated and sorted by their rendered string.

    UTF-8 byte order and code-point order agree, so a plain string sort
    implements the byte-order contract.
    """
    return _render_program(q, sort=True, dedupe=True)


def structure_signature(program: SparqlQuery) -> str:
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
