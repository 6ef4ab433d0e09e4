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
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
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


class SelectHead(NamedTuple):
    kind: str  # COUNT or DISTINCT
    variables: tuple[str, ...] = ()


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
# The other node types are made alike.
_make_group = partial(tuple.__new__, TripleGroup)
_make_filter = partial(tuple.__new__, Filter)
_make_head = partial(tuple.__new__, SelectHead)
_COUNT_HEAD = SelectHead(COUNT)


class SparqlQuery(NamedTuple):
    """A program, or a reversible IR (z_r) of one.

    A parsed program is the z_r with every transform switched off: one
    object per group, relations in full and no brackets.
    """

    head: SelectHead
    groups: tuple[Item, ...]
    bracketed: bool = False


_make_query = partial(tuple.__new__, SparqlQuery)

# The most distinct terms whose forms ``_term_forms`` keeps.
TERM_FORMS_SIZE = 4096
# The indices of a term's forms in the tuple ``_term_forms`` returns.
_LIR, _VARIFIED, _SIGNATURE = range(3)
# A term's forms, as ``_term_forms`` gives them.
_Forms = Callable[[str], tuple]


@lru_cache(maxsize=TERM_FORMS_SIZE)
def _term_forms(t: str) -> tuple[str, str, str | None]:
    """The forms of a term, by the ``_LIR``, ``_VARIFIED`` and
    ``_SIGNATURE`` indices.  A variable or entity becomes ``var`` in the
    lossy IR and ``var`` followed by itself in the VARified form; in a
    structure signature an entity becomes ``ENT`` and a variable None, as
    each program numbers its own.  Any other term stays itself.  The lossy
    forms look each term up where they write it; the table keeps the last
    ``TERM_FORMS_SIZE`` distinct terms looked up."""
    if t.startswith("?"):
        return VAR_TOKEN, f"{VAR_TOKEN} {t}", None
    if _ENTITY_RE.fullmatch(t):
        return VAR_TOKEN, f"{VAR_TOKEN} {t}", "ENT"
    return t, t, t


# The memo tables, which callers clear and bound through this one list.
TABLES = (_term_forms,)


@dataclass(frozen=True, slots=True)
class RirOptions:
    """Toggles for the reversible transform; all-on is the default IR."""

    merge_conjuncts: bool = True
    shorten_relations: bool = True
    brackets: bool = True


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# The parser tests its tokens inline, and calls this only to raise at the
# first token that fails, with its message and expected tokens.


def _expect(text: str, toks: list[str], i: int, *expected: str) -> None:
    """Raise at token ``i`` if it is past the end or is not one of
    ``expected``; ``"<what>"`` alone (a subject, relation, object or filter
    term) stands for any token that is not reserved."""
    if i >= len(toks):
        fail_at(text, i, "unexpected end of input", expected)
    tok = toks[i]
    if expected[0][0] == "<":
        if tok in _RESERVED:
            fail_at(text, i, f"reserved token {tok!r} where a "
                    f"{expected[0][1:-1]} was expected", expected)
    elif tok not in expected:
        fail_at(text, i, f"unexpected token {tok!r}", expected)


def _read_body(body: list[str]) -> list[Item] | None:
    """The items of a program's body, the tokens between its braces, if it
    is one or more triples and ``FILTER ( a != b )`` units separated by
    ``.``; else None, and the token loop of :func:`_parse` reads it.

    A ``.`` is appended, so that every item is followed by one.  Each run of
    triples is read in stride slices, subjects ``[0::4]``, relations
    ``[1::4]``, objects ``[2::4]`` and separators ``[3::4]``, and each unit
    is found with ``list.index``.
    """
    body.append(".")
    items: list[Item] = []
    units = body.count("FILTER")
    start = 0
    while True:
        stop = body.index("FILTER", start) if units else len(body)
        run = body[start:stop]
        subjects, relations, objects = run[0::4], run[1::4], run[2::4]
        if (len(run) & 3 or run[3::4].count(".") != len(run) >> 2
                or not _RESERVED.isdisjoint(subjects)
                or not _RESERVED.isdisjoint(relations)
                or not _RESERVED.isdisjoint(objects)):
            return None
        items += map(_make_group, zip(subjects, relations, zip(objects)))
        if not units:
            return items
        units -= 1
        unit = body[stop + 1:stop + 7]  # ( left op right ) .
        if (len(unit) < 6 or unit[0] != "(" or unit[2] not in FILTER_OPS
                or unit[4:] != [")", "."]
                or not _RESERVED.isdisjoint(unit[1:4:2])):
            return None
        items.append(_make_filter(unit[1:4]))
        start = stop + 7


def _parse(text: str, ir: bool) -> SparqlQuery:
    """The query up to the closing brace, which must end the input.

    Items are separated by ``.``, or each wrapped in ``( )`` when bracketed.
    A program's groups each hold one object and are never bracketed.  With
    ``ir``, bracketing is detected from the first group, and a group's
    objects are a comma list, or in a bracketed IR a bracketed comma list or
    one bare object.  A program's body goes to :func:`_read_body` first;
    the token loop, :func:`_read_items`, reads every other body and raises
    at its first error.
    """
    toks = text.split()
    n = len(toks)
    if toks[:2] == ["SELECT", "count(*)"]:
        head, i = _COUNT_HEAD, 2
    else:
        if toks[:2] != ["SELECT", "DISTINCT"]:
            _expect(text, toks, 0, "SELECT")
            _expect(text, toks, 1, "count(*)", "DISTINCT")  # one raises
        i = 2
        while i < n and toks[i] != "WHERE":
            if not toks[i].startswith("?"):
                fail_at(text, i, f"non-variable token {toks[i]!r} in select "
                        "head", ("<variable>", "WHERE"))
            i += 1
        if i == 2:
            fail_at(text, i, "DISTINCT head needs at least one variable",
                    ("<variable>",))
        head = _make_head((DISTINCT, tuple(toks[2:i])))
    if toks[i:i + 2] != ["WHERE", "{"]:
        _expect(text, toks, i, "WHERE")
        _expect(text, toks, i + 1, "{")  # one raises
    i += 2
    if not ir and toks[-1] == "}" and i < n - 1:
        items = _read_body(toks[i:-1])
        if items is not None:
            return _make_query((head, tuple(items), False))
    return _make_query((head, *_read_items(text, toks, i, ir)))


def _read_items(text: str, toks: list[str], i: int,
                ir: bool) -> tuple[tuple[Item, ...], bool]:
    """The items of the body that opens at token ``i``, and whether they are
    bracketed: the token loop, which raises at the first error."""
    n = len(toks)
    bracketed = ir and i < n and toks[i] == "("
    separator = "(" if bracketed else "."
    items = []
    while i >= n or toks[i] != "}":
        if i >= n:
            fail_at(text, i, "unterminated body", ("}",))
        if bracketed or items:
            if toks[i] != separator:
                _expect(text, toks, i, separator)  # raises
            i += 1
        if i < n and toks[i] == "FILTER":
            unit = toks[i + 1:i + 6]  # ( left op right )
            if (len(unit) < 5 or unit[0] != "(" or unit[2] not in FILTER_OPS
                    or unit[4] != ")"
                    or not _RESERVED.isdisjoint(unit[1:4:2])):
                _expect(text, toks, i + 1, "(")
                _expect(text, toks, i + 2, "<term>")
                _expect(text, toks, i + 3, *FILTER_OPS)
                _expect(text, toks, i + 4, "<term>")
                _expect(text, toks, i + 5, ")")  # one of these raises
            items.append(_make_filter(unit[1:4]))
            i += 6
        else:
            pair = toks[i:i + 2]
            if len(pair) < 2 or not _RESERVED.isdisjoint(pair):
                _expect(text, toks, i, "<subject>")
                _expect(text, toks, i + 1, "<relation>")  # one raises
            i += 2
            nested = bracketed and i < n and toks[i] == "("
            i += nested
            # The objects and the commas between them (a program's has one)
            first = i
            i += 1
            if nested or ir and not bracketed:
                while i < n and toks[i] == ",":
                    i += 2
            objects = toks[first:i:2]
            if i > n or not _RESERVED.isdisjoint(objects):
                for j in range(first, i, 2):
                    _expect(text, toks, j, "<object>")  # raises at the first
            if nested:
                if i >= n or toks[i] != ")":
                    _expect(text, toks, i, ")")  # raises
                i += 1
            items.append(_make_group((*pair, tuple(objects))))
        if bracketed:
            if i >= n or toks[i] != ")":
                _expect(text, toks, i, ")")  # raises
            i += 1
    if i + 1 < n:
        fail_at(text, i + 1, "trailing tokens after closing brace")
    return tuple(items), bracketed


def parse_sparql(text: str) -> SparqlQuery:
    """Parse one query; raises :class:`ParseError` on malformed input."""
    q = _parse(text, False)
    variables = q.head.variables
    # A head variable is used in the body if it is a subject (or a filter's
    # left operand), else the full check looks at the objects too.
    if variables and not set(variables).issubset(
            map(itemgetter(0), q.groups)):
        # Each group of a program holds one object.
        seen = {g[0] for g in q.groups}
        seen.update(g.right if type(g) is Filter else g.objects[0]
                    for g in q.groups)
        missing = [v for v in variables if v not in seen]
        if missing:
            fail_at(text, len(text.split()), "head variable(s) "
                    f"{', '.join(missing)} never used in body")
    return q


def _render_item(g: Item, bracketed: bool, forms: _Forms | None,
                 form: int) -> str:
    """An item other than a one-object group, with its terms mapped as
    :func:`_render_program` maps them."""
    if type(g) is Filter:
        left, right = g.left, g.right
        if forms is not None:
            left, right = forms(left)[form], forms(right)[form]
        core = f"FILTER ( {left} {g.op} {right} )"
        return f"( {core} )" if bracketed else core
    subject, objects = g.subject, g.objects
    if forms is not None:  # the subject is mapped before its objects
        subject = forms(subject)[form]
        objects = [forms(o)[form] for o in objects]
    objects = " , ".join(objects)
    if bracketed:
        return f"( {subject} {g.relation} ( {objects} ) )"
    return f"{subject} {g.relation} {objects}"


def _render_program(program: SparqlQuery, forms: _Forms | None = None,
                    form: int = 0, sort: bool = False,
                    dedupe: bool = False) -> str:
    """The surface form of ``program``, and its rendered items deduplicated
    if ``dedupe`` and sorted if ``sort``.  With ``forms``, each head
    variable, subject, object and filter operand is written as item
    ``form`` of its ``forms``, looked up in reading order.

    A one-object group, each triple of a program, is written here.
    """
    head, groups, bracketed = program
    if head.kind == COUNT:
        select = "SELECT count(*)"
    elif forms is None:
        select = "SELECT DISTINCT " + " ".join(head.variables)
    else:  # the head variables are mapped first
        select = "SELECT DISTINCT " + " ".join(
            [forms(v)[form] for v in head.variables])
    left, right = ("( ", " )") if bracketed else ("", "")
    if forms is None:
        parts = [f"{left}{g[0]} {g[1]} {g[2][0]}{right}"
                 if type(g) is TripleGroup and len(g[2]) == 1
                 else _render_item(g, bracketed, None, 0) for g in groups]
    else:  # a subject is mapped before its object
        parts = [f"{left}{forms(g[0])[form]} {g[1]} {forms(g[2][0])[form]}"
                 f"{right}" if type(g) is TripleGroup and len(g[2]) == 1
                 else _render_item(g, bracketed, forms, form)
                 for g in groups]
    if dedupe:
        parts = list(dict.fromkeys(parts))
    if sort:
        parts.sort()
    body = (" " if bracketed else " . ").join(parts)
    if body:
        return f"{select} WHERE {{ {body} }}"
    return f"{select} WHERE {{ }}"


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
    backward: Mapping[str, str] = field(init=False)

    def __post_init__(self) -> None:
        backward = {v: k for k, v in self.forward.items()}
        if len(self.forward) != len(backward):
            raise TransformError("relation dictionary is not a bijection")
        object.__setattr__(self, "backward", backward)

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
        return cls(forward)


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
    return RelationDictionary(forward)


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
    forward = rdict.forward if shorten else {}
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
            try:
                relation = forward[relation]
            except KeyError:
                rdict.shorten(relation)  # raises
        key = subject, relation
        if merge and key in objects_of:
            objects_of[key].append(obj)
        else:
            objects_of[key] = objects = [obj]
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


def sparql_to_lir(program: SparqlQuery) -> str:
    """Replace every variable and entity (head included) with ``var``."""
    return _render_program(program, _term_forms, _LIR)


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
    return _render_program(q, _term_forms, _VARIFIED)


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
    numbered: dict[str, tuple] = {}  # a variable's forms, by first use

    def forms(t: str) -> tuple:
        row = _term_forms(t)
        if row[_SIGNATURE] is None:  # a variable, numbered at first use
            if t not in numbered:
                numbered[t] = (*row[:_SIGNATURE], f"V{len(numbered)}")
            row = numbered[t]
        return row

    return _render_program(program, forms, _SIGNATURE, sort=True)
