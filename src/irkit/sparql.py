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
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

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


_make_head = partial(tuple.__new__, SelectHead)
_COUNT_HEAD = SelectHead(COUNT)


class SparqlQuery(NamedTuple):
    """A program, or a reversible IR (z_r) of one, as three term columns
    with one row per conjunct.

    A triple's row holds its subject, relation and object.  A ``FILTER ( a
    != b )`` row holds ``a``, the operator and ``b``; operators are
    reserved, so no relation is one.  In a z_r a triple's row is a group:
    its object is one term, or the tuple of a merged group's terms.  A
    parsed program is the z_r with every transform switched off: one object
    per row, relations in full and no brackets.
    """

    head: SelectHead
    subjects: tuple[str, ...]
    relations: tuple[str, ...]
    objects: tuple[str | tuple[str, ...], ...]
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


def _read_body(body: list[str]) -> tuple[list[str], ...] | None:
    """The subject, relation and object columns of a program's body, the
    tokens between its braces, if it is one or more triples and ``FILTER ( a
    != b )`` units separated by ``.``; else None, and the token loop of
    :func:`_parse` reads it.

    A ``.`` is appended, so that every conjunct is followed by one.  Each
    run of triples is read in stride slices, subjects ``[0::4]``, relations
    ``[1::4]``, objects ``[2::4]`` and separators ``[3::4]``, and each unit
    is found with ``list.index`` and adds one row.
    """
    body.append(".")
    units = body.count("FILTER")
    subjects, relations, objects = [], [], []
    start = 0
    while True:
        stop = body.index("FILTER", start) if units else len(body)
        run = body[start:stop]
        run_subjects, run_relations, run_objects = (run[0::4], run[1::4],
                                                    run[2::4])
        if (len(run) & 3 or run[3::4].count(".") != len(run) >> 2
                or not _RESERVED.isdisjoint(run_subjects)
                or not _RESERVED.isdisjoint(run_relations)
                or not _RESERVED.isdisjoint(run_objects)):
            return None
        subjects += run_subjects
        relations += run_relations
        objects += run_objects
        if not units:
            return subjects, relations, objects
        units -= 1
        unit = body[stop + 1:stop + 7]  # ( left op right ) .
        if (len(unit) < 6 or unit[0] != "(" or unit[2] not in FILTER_OPS
                or unit[4:] != [")", "."]
                or not _RESERVED.isdisjoint(unit[1:4:2])):
            return None
        subjects.append(unit[1])
        relations.append(unit[2])
        objects.append(unit[3])
        start = stop + 7


def _parse(text: str, ir: bool) -> SparqlQuery:
    """The query up to the closing brace, which must end the input.

    Conjuncts are separated by ``.``, or each wrapped in ``( )`` when
    bracketed.  A program's rows each hold one object and are never
    bracketed.  With ``ir``, bracketing is detected from the first
    conjunct, and a triple's objects are a comma list, or in a bracketed IR
    a bracketed comma list or one bare object.  A program's body goes to
    :func:`_read_body` first; the token loop, :func:`_read_items`, reads
    every other body and raises at its first error.
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
        columns = _read_body(toks[i:-1])
        if columns is not None:
            return _make_query((head, *map(tuple, columns), False))
    return _make_query((head, *_read_items(text, toks, i, ir)))


def _read_items(text: str, toks: list[str], i: int, ir: bool) -> tuple:
    """The subject, relation and object columns of the body that opens at
    token ``i``, and whether it is bracketed: the token loop, which raises
    at the first error.  A row's object is one term, or the tuple of an IR
    group's two or more terms."""
    n = len(toks)
    bracketed = ir and i < n and toks[i] == "("
    separator = "(" if bracketed else "."
    subjects, relations, objects = [], [], []
    while i >= n or toks[i] != "}":
        if i >= n:
            fail_at(text, i, "unterminated body", ("}",))
        if bracketed or subjects:
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
            subjects.append(unit[1])
            relations.append(unit[2])
            objects.append(unit[3])
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
            group = toks[first:i:2]
            if i > n or not _RESERVED.isdisjoint(group):
                for j in range(first, i, 2):
                    _expect(text, toks, j, "<object>")  # raises at the first
            if nested:
                if i >= n or toks[i] != ")":
                    _expect(text, toks, i, ")")  # raises
                i += 1
            subjects.append(pair[0])
            relations.append(pair[1])
            objects.append(group[0] if len(group) == 1 else tuple(group))
        if bracketed:
            if i >= n or toks[i] != ")":
                _expect(text, toks, i, ")")  # raises
            i += 1
    if i + 1 < n:
        fail_at(text, i + 1, "trailing tokens after closing brace")
    return tuple(subjects), tuple(relations), tuple(objects), bracketed


def parse_sparql(text: str) -> SparqlQuery:
    """Parse one query; raises :class:`ParseError` on malformed input."""
    q = _parse(text, False)
    variables = q.head.variables
    # A head variable is used in the body if it is a subject (or a filter's
    # left operand), else the full check looks at the objects too.
    if variables and not set(variables).issubset(q.subjects):
        seen = {*q.subjects, *q.objects}  # each row of a program has one
        missing = [v for v in variables if v not in seen]
        if missing:
            fail_at(text, len(text.split()), "head variable(s) "
                    f"{', '.join(missing)} never used in body")
    return q


def _render_program(program: SparqlQuery, forms: _Forms | None = None,
                    form: int = 0, sort: bool = False,
                    dedupe: bool = False) -> str:
    """The surface form of ``program``, and its rendered rows deduplicated
    if ``dedupe`` and sorted if ``sort``.  With ``forms``, each head
    variable, subject, object and filter operand is written as item
    ``form`` of its ``forms``, looked up in reading order: the head, then
    each row's subject before its objects.
    """
    head, subjects, relations, objects, bracketed = program
    if head.kind == COUNT:
        select = "SELECT count(*)"
    elif forms is None:
        select = "SELECT DISTINCT " + " ".join(head.variables)
    else:  # the head variables are mapped first
        select = "SELECT DISTINCT " + " ".join(
            [forms(v)[form] for v in head.variables])
    # A merged group's objects are a comma list, bracketed in a bracketed IR.
    left, right = ("( ", " )") if bracketed else ("", "")
    if forms is None:
        parts = [f"{left}FILTER ( {s} {r} {o} ){right}" if r in FILTER_OPS
                 else f"{left}{s} {r} {o}{right}" if o.__class__ is str
                 else f"{left}{s} {r} {left}{' , '.join(o)}{right}{right}"
                 for s, r, o in zip(subjects, relations, objects)]
    else:  # a subject is mapped before its objects
        parts = [f"{left}FILTER ( {forms(s)[form]} {r} {forms(o)[form]} )"
                 f"{right}" if r in FILTER_OPS
                 else f"{left}{forms(s)[form]} {r} {forms(o)[form]}{right}"
                 if o.__class__ is str
                 else f"{left}{forms(s)[form]} {r} {left}"
                 f"{' , '.join([forms(t)[form] for t in o])}{right}{right}"
                 for s, r, o in zip(subjects, relations, objects)]
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
        # A z_r would not parse again, or would read it as a filter's op.
        clash = sorted(_RESERVED.intersection(backward))
        if clash:
            raise TransformError(f"relation {backward[clash[0]]!r} shortens "
                                 f"to the reserved token {clash[0]!r}")
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
        relations.update(q.relations)
    if n_queries == 0:
        raise TransformError("cannot build a relation dictionary from an "
                             "empty corpus")
    relations.difference_update(FILTER_OPS)  # a filter row's operator

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
    """Merge the triples that share a subject and relation into one group
    row, at the first one's place, shorten relations and bracket.

    ``q`` is a program: each of its rows holds one object.  Filter rows are
    neither merged nor shortened.
    """
    if options.shorten_relations and rdict is None:
        raise TransformError("relation truncation requires a dictionary")
    shorten, merge = options.shorten_relations, options.merge_conjuncts
    forward = rdict.forward if shorten else {}
    subjects, relations, objects = [], [], []
    row_of: dict[tuple[str, str], int] = {}  # a group's row, by its key
    for subject, relation, obj in zip(q.subjects, q.relations, q.objects):
        if obj.__class__ is not str:
            raise TransformError(
                "sparql_to_rir takes a program: each group holds one "
                f"object, not {len(obj)}")
        if relation not in FILTER_OPS:
            if shorten:
                try:
                    relation = forward[relation]
                except KeyError:
                    rdict.shorten(relation)  # raises
            if merge:
                key = subject, relation
                row = row_of.get(key)
                if row is not None:
                    merged = objects[row]
                    objects[row] = ((merged, obj) if merged.__class__ is str
                                    else (*merged, obj))
                    continue
                row_of[key] = len(objects)
        subjects.append(subject)
        relations.append(relation)
        objects.append(obj)
    return _make_query((q.head, tuple(subjects), tuple(relations),
                        tuple(objects), options.brackets))


def render_rir(z: SparqlQuery) -> str:
    """Surface form: bracketed groups are space-joined, plain ones dotted."""
    return _render_program(z)


def parse_rir(text: str) -> SparqlQuery:
    """Parse an IR surface string; bracketing is detected from the first
    conjunct."""
    return _parse(text, True)


def sparql_from_rir(z: SparqlQuery,
                    rdict: RelationDictionary | None = None) -> SparqlQuery:
    """Expand each group row into its triples and restore full relation
    names; filter rows pass through."""
    subjects, relations, objects = [], [], []
    for subject, relation, obj in zip(z.subjects, z.relations, z.objects):
        if rdict and relation not in FILTER_OPS:
            relation = rdict.restore(relation)
        if obj.__class__ is str:
            subjects.append(subject)
            relations.append(relation)
            objects.append(obj)
        else:
            subjects += [subject] * len(obj)
            relations += [relation] * len(obj)
            objects += obj
    return _make_query((z.head, tuple(subjects), tuple(relations),
                        tuple(objects), False))


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
    objects = q.objects
    if (VAR_TOKEN in q.subjects or VAR_TOKEN in q.relations
            or VAR_TOKEN in objects
            or any(o.__class__ is tuple and VAR_TOKEN in o for o in objects)):
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
    sorting), entities collapse to ``ENT``, then rows are sorted so the
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
