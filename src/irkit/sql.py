"""Tokenizer, clause segmentation, and IR transforms for canonicalized SQL.

The target dialect is the canonicalized style used by the classic text-to-SQL
corpora: uppercase keywords, explicit ``<TABLE NAME>alias<N>`` table aliases,
space-separated tokens, values as quoted strings, numbers, or lowercase
anonymized placeholders (``city_name0``).  The parser segments clauses and
flags the tokens that are values; it does not build a full SQL grammar tree.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import (InversionError, ParseError, TransformError,
                     byte_offset, fail_at)

JOIN_ONLY = "join_only"
SEMANTIC = "semantic"

TABLE_MASK = "T"

_CLAUSE_STARTERS = {"SELECT", "FROM", "WHERE", "GROUP", "ORDER", "HAVING",
                    "LIMIT"}
_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}

_ALIAS_TOKEN_RE = re.compile(r"[A-Za-z_]\w*?alias\d+")
_ALIAS_SHAPED_RE = re.compile(r"[A-Za-z_]\w*?\d+")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_PLACEHOLDER_RE = re.compile(r"[a-z][a-z_]*\d+")
# A token is a run of units: runs of non-space characters, and strings from a
# quote, spaces included, to the next quote of its kind.  A quote with no
# partner matches alone.  A unit's extent is forced by its first character,
# so where each ``str.split()`` piece is a run of units, the pieces are the
# tokens.
_UNITS_RE = re.compile(r"""(?:[^\s"']+|"[^"]*"|'[^']*')+""")
_TOKEN_RE = re.compile(_UNITS_RE.pattern + r"""|["']""")
_QUOTES = ('"', "'")
# Each word that a pass compares with a token's upper case, mapped to itself
# so that every fact holds that one string.
_KEYWORDS = {word: word for word in (*_CLAUSE_STARTERS, *_SET_OPS, "BY",
                                     "ALL", "AS", "AND", "OR", "BETWEEN")}
# The most distinct tokens whose facts ``_facts`` keeps.
TOKEN_FACTS_SIZE = 4096
# The indices of a token's facts in the tuple ``_facts`` returns.
(_QUOTED, _VALUE, _ALIAS, _HEAD, _REST, _HEAD_ALIAS, _NUMBER, _SHAPE,
 _KEYED) = range(9)
# The most distinct query shapes whose layout ``_segment`` keeps.
SHAPES_SIZE = 512
# The most distinct alias sets whose renames ``_alias_rule`` keeps.
ALIAS_SETS_SIZE = 512


def lex_sql(text: str) -> list[str]:
    """Whitespace tokenization that keeps quoted strings (which may contain
    spaces) as single tokens, quotes included."""
    tokens = text.split()
    if ('"' not in text and "'" not in text) or all(
            _UNITS_RE.fullmatch(t) for t in tokens if '"' in t or "'" in t):
        return tokens
    tokens = _TOKEN_RE.findall(text)
    if '"' in tokens or "'" in tokens:
        for match in _TOKEN_RE.finditer(text):
            if match.group() in _QUOTES:
                raise ParseError("unterminated string literal",
                                 offset=byte_offset(text, match.start()))
    return tokens


def render_sql(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


@lru_cache(maxsize=TOKEN_FACTS_SIZE)
def _facts(tok: str) -> tuple:
    """What a token's text says about it in any query, by the ``_QUOTED``
    ... ``_SHAPE`` indices: whether it is quoted (opens with a quote);
    whether it is value-shaped (quoted, or a number or a lowercase
    placeholder like ``city_name0`` that is no ``<TABLE NAME>alias<N>``
    token); whether it is an alias token; its qualifier and ``".column"``
    for a dotted reference, else itself and ``""``; whether that qualifier
    is an alias token; whether the token is a number; and its part of the
    query's shape: ``"("`` for the bare ``(``, else the keyword it spells in
    any case if a pass compares it with one, else its paren delta, its
    number of ``(`` minus its number of ``)`` (0 if quoted), in a 1-tuple
    if its qualifier holds ``alias`` but is no alias token, which
    ``_check_shape`` rejects; and whether the alias rule reads it (it is
    unquoted and holds ``.`` or ``alias``), which puts it in the key of its
    query's alias set (``_alias_rule``).  ``parse_sql`` looks each token up
    once and every pass reads its facts; the table keeps the last
    ``TOKEN_FACTS_SIZE`` distinct tokens looked up."""
    first = tok[:1]
    if first in _QUOTES:
        return True, True, False, tok, "", False, False, 0, False
    head, _, rest = tok.partition(".")
    if rest and (first.isalpha() or first == "_"):
        rest = "." + rest
    else:
        head, rest = tok, ""
    # Each pattern is tried only on a token that could match it: a number
    # starts with a decimal digit (``\d`` is not ASCII-only), a placeholder
    # with a lowercase ASCII letter, and an alias token holds ``alias``.
    alias = "alias" in tok and _ALIAS_TOKEN_RE.fullmatch(tok) is not None
    head_alias = alias if not rest else (
        "alias" in head and _ALIAS_TOKEN_RE.fullmatch(head) is not None)
    number = first.isdecimal() and _NUMBER_RE.fullmatch(tok) is not None
    delta = (tok.count("(") - tok.count(")")
             if "(" in tok or ")" in tok else 0)
    return (False, number or "a" <= first <= "z" and not alias
            and _PLACEHOLDER_RE.fullmatch(tok) is not None,
            alias, head, rest, head_alias, number,
            "(" if tok == "(" else _KEYWORDS.get(tok.upper()) or (
                (delta,) if "alias" in head and not head_alias else delta),
            "." in tok or "alias" in tok)


class Clause(NamedTuple):
    name: str  # SELECT / FROM / WHERE / GROUP_BY / ORDER_BY / HAVING / LIMIT / SET_OP
    start: int
    end: int  # exclusive


class Block(NamedTuple):
    """One (sub)query: its token range, top-level clauses, and nested
    parenthesized subqueries.  Every query of a shape shares one tree."""

    start: int
    end: int
    clauses: tuple[Clause, ...]
    children: tuple["Block", ...]

    def walk(self) -> Iterator["Block"]:
        """The blocks in preorder, by an explicit stack: no recursion limit."""
        stack = [self]
        while stack:
            block = stack.pop()
            yield block
            stack += reversed(block.children)


_START = attrgetter("start")


class Layout(NamedTuple):
    """What a query's shape decides, shared by every query of the shape."""

    block: Block
    depths: tuple[int, ...]  # before each token and after the last
    declarations: tuple[int, ...]  # FROM ``AS`` positions, in walk order
    keep: tuple[bool, ...]  # per token, False in a FROM clause
    # Per WHERE/HAVING clause outside every FROM clause, in walk order: its
    # keyword's index and its ``iter_conditions`` spans.
    conditions: tuple[tuple[int, tuple], ...]


@dataclass(slots=True)
class SqlQuery:
    """A program or its z_r: the tokens and what ``parse_sql`` found in
    them."""

    tokens: tuple[str, ...]
    facts: tuple[tuple, ...]  # ``_facts`` of each token
    values: tuple[bool, ...]  # ``_values`` of the tokens
    layout: Layout  # ``_segment`` of the query's shape
    declared: dict[str, str]  # declared alias -> table, from every FROM

    block = property(attrgetter("layout.block"))
    depths = property(attrgetter("layout.depths"))

    def render(self) -> str:
        return render_sql(self.tokens)


class _Unsegmented(Exception):
    """A shape that ``_segment`` rejects.  Its args are the index of the
    token to report and the message, with ``{!r}`` for that token's text."""


def _check_shape(shape: tuple) -> tuple[int, ...]:
    """The paren depths of a shape, before each token and after the last,
    once it passes the checks that need no segmentation, in this order: it
    is not empty, opens with SELECT, is balanced, and holds no 1-tuple (a
    token that ``_facts`` marks bad).  An empty query or one left inside
    parentheses fails at its end."""
    if not shape:
        raise _Unsegmented(0, "empty query")
    if shape[0] != "SELECT":
        raise _Unsegmented(0, "query starts with {!r}, not SELECT")
    depths = tuple(accumulate([
        e if e.__class__ is int else e[0] if e.__class__ is tuple
        else int(e == "(") for e in shape], initial=0))
    if min(depths) < 0:  # at the token that first takes the depth below 0
        raise _Unsegmented([d < 0 for d in depths].index(True) - 1,
                           "unbalanced ')'")
    if depths[-1] != 0:
        raise _Unsegmented(len(shape), "unbalanced '('")
    bad = [entry.__class__ is tuple for entry in shape]
    if True in bad:
        raise _Unsegmented(bad.index(True), "token {!r} does not match the "
                           "<TABLE NAME>alias<N> pattern")
    return depths


@lru_cache(maxsize=SHAPES_SIZE)
def _segment(shape: tuple) -> Layout:
    """The ``Layout`` of a query's shape: once the shape passes
    ``_check_shape``, its block tree is built in one left-to-right pass,
    and then the FROM clauses give the ``AS`` positions and the tokens that
    the lossy IR drops, and each WHERE/HAVING clause its condition spans.

    A ``(`` token followed by ``SELECT`` opens a subquery, a child block
    whose own depth is the depth after the ``(``; the root's is 0.  A token
    is a clause token of the innermost open block only when the depth
    before it and the depth after it both equal that block's own depth; any
    other token belongs to the clause it falls in.  A block closes at the
    token that takes the depth below its own.  A subquery inside a FROM
    clause is read with that clause: its ``AS`` positions are the clause's,
    and its own conditions are not split, since the lossy IR drops them.

    ``parse_sql`` looks each query's shape up once; the table keeps the
    last ``SHAPES_SIZE`` distinct shapes looked up.  A shape that fails a
    check, does not segment, or whose FROM clause ends with ``AS`` or has
    an ``AS`` followed by no plain name (a keyword, ``(`` or a token that
    holds a paren), raises ``_Unsegmented`` and is not kept.
    """
    depths = _check_shape(shape)
    n = len(shape)
    # An open block: its start, clauses as (name, start, end), children.
    root = block = (0, [], [])
    depth = 0  # the open block's own depth
    stack = []  # per enclosing open block: (its depth, it)
    i = 0
    while i < n:
        entry, before = shape[i], depths[i]
        i += 1
        after = depths[i]
        if entry == "(" and i < n and shape[i] == "SELECT":
            stack.append((depth, block))
            depth, block = after, (i, [], [])
        while after < depth:
            child = _close(block, i - 1)
            depth, block = stack.pop()
            block[2].append(child)
        if before != depth or after != depth:
            continue
        keyword, start = entry, i - 1
        if keyword in ("GROUP", "ORDER"):
            if i >= n or shape[i] != "BY":
                raise _Unsegmented(i, f"{keyword} not followed by BY")
            keyword, i = keyword + "_BY", i + 1
        elif keyword in _SET_OPS:
            keyword = "SET_OP"
            if i < n and shape[i] == "ALL":
                i += 1
        elif keyword not in _CLAUSE_STARTERS:
            if not block[1] or block[1][-1][0] == "SET_OP":
                raise _Unsegmented(
                    i - 1, "token {!r} appears before any clause keyword")
            continue
        block[1].append((keyword, start, i))
    tree, declarations, keep, conditions = _close(root, n), [], [True] * n, []
    for b in tree.walk():
        outer = keep[b.start]  # False inside an enclosing block's FROM
        for name, start, end in b.clauses:
            if name == "FROM":
                if shape[end - 1] == "AS":
                    raise _Unsegmented(end - 1, "dangling AS in FROM clause")
                if outer:
                    keep[start:end] = [False] * (end - start)
                    declarations += [j for j in range(start, end)
                                     if shape[j] == "AS"]
            elif outer and name in ("WHERE", "HAVING"):
                children = b.children and b.children[
                    bisect_left(b.children, start, key=_START):
                    bisect_left(b.children, end, key=_START)]
                conditions.append((start, tuple(iter_conditions(
                    shape, depths, start + 1, end, children))))
    for j in declarations:
        if shape[j + 1] != 0:  # a keyword, ``(`` or a token with parens
            raise _Unsegmented(j + 1, "expected a name after AS, got {!r}")
    return Layout(tree, depths, tuple(declarations), tuple(keep),
                  tuple(conditions))


def _close(block: tuple, end: int) -> Block:
    """The ``Block`` of an open block that ends at ``end``: each clause but
    a set operator runs up to the next clause or the end."""
    start, clauses, children = block
    starts = [clause[1] for clause in clauses[1:]] + [end]
    return Block(start, end, tuple([
        Clause(name, first, last if name == "SET_OP" else next_start)
        for (name, first, last), next_start in zip(clauses, starts)]),
        tuple(children))


def _values(tokens: Sequence[str], facts: Sequence[tuple], declared: dict,
            declarations: Sequence[int]) -> tuple[bool, ...]:
    """Per token, whether it is a value: a quoted string, or a number or a
    lowercase placeholder (``city_name0``) that is neither a declared alias
    nor a ``<TABLE NAME>alias<N>`` token.  These are the tokens' ``_VALUE``
    facts unless an alias, the token after an ``AS`` at ``declarations``,
    is value-shaped (``AS c1``)."""
    for i in declarations:
        if facts[i + 1][_VALUE]:
            return tuple([f[_VALUE] and (f[_QUOTED] or tok not in declared)
                          for tok, f in zip(tokens, facts)])
    return tuple(map(itemgetter(_VALUE), facts))


def parse_sql(text: str) -> SqlQuery:
    """The one analysis of a program or a predicted z_r: tokenize, look up
    each token's facts, look up the layout of the query's shape (its
    checks and segmentation, which run only for a shape not in the table),
    read the declared aliases off it, and flag the values.  A
    ``ParseError``'s offset is a byte offset in ``text``."""
    tokens = tuple(lex_sql(text))
    facts = tuple(map(_facts, tokens))
    try:
        layout = _segment(tuple(map(itemgetter(_SHAPE), facts)))
    except _Unsegmented as exc:
        i, message = exc.args
        if i == len(tokens):  # at the end, which needs no search of the text
            raise ParseError(message, offset=len(text.encode()))
        fail_at(text, i, message.format(*tokens[i:i + 1]), token=_TOKEN_RE)
    declared = {tokens[i + 1]: tokens[i - 1] for i in layout.declarations}
    values = _values(tokens, facts, declared, layout.declarations)
    return SqlQuery(tokens, facts, values, layout, declared)


# ---------------------------------------------------------------------------
# Reversible IR: drop the alias infix
# ---------------------------------------------------------------------------


def _renames(tokens: Sequence[str], facts: Sequence[tuple],
             declared: dict[str, str], to_rir: bool) -> dict[str, str]:
    """The alias rule, and its renames: each distinct unquoted token that
    is a declared alias, or is qualified by one, -> its rewrite.

    A program declares an alias as ``<its table>alias<N>`` and its z_r as
    ``<its table><N>``; ``declared`` is the program's if ``to_rir``, else
    z_r's.  A declaration of another form or an undeclared alias-shaped
    qualifier (``FLIGHT0.X``) raises ``TransformError`` to z_r and
    ``InversionError`` from it; to z_r, so does a program that its z_r
    would not restore.  Renaming a program that passes keeps its parens
    and value flags and makes no keyword: its query, renamed, is z_r's."""
    error = TransformError if to_rir else InversionError
    infix, other = ("alias", "") if to_rir else ("", "alias")
    names: dict[str, str] = {}  # declared alias -> its other-side name
    aliases: dict[str, str] = {}  # other-side name -> its declared alias
    for alias, table in declared.items():
        number = alias[len(table) + len(infix):]
        if not alias.startswith(table + infix) or not number.isdigit():
            raise error(f"declared alias {alias!r} is not {table + infix!r} "
                        "plus a number")
        name = names[alias] = table + other + number
        if to_rir and (alias[:1] in _QUOTES or "alias" in name
                       and _ALIAS_TOKEN_RE.search(name)):
            raise error(f"declared alias {alias!r} does not rewrite to a "
                        f"plain name: {name!r}")
        if to_rir and name in aliases:
            raise error(f"declared aliases {aliases[name]!r} and {alias!r} "
                        f"both rewrite to {name!r}")
        aliases[name] = alias
    # Every declared alias is a token; a quoted one is not renamed.
    renames = {alias: name for alias, name in names.items()
               if alias[:1] not in _QUOTES}
    for tok, f in dict(zip(tokens, facts)).items():
        if ("." not in tok and not (to_rir and ("alias" in tok
                                                or tok in aliases))
                or tok in names or f[_QUOTED]):
            continue
        head, rest = f[_HEAD], f[_REST]
        if rest and head in names:
            renames[tok] = names[head] + rest
        new = renames.get(tok, tok)
        clash = head if new == tok else new
        if to_rir and clash in aliases:
            raise error("alias rewriting is not reversible here; rewritten "
                        f"name(s) already present: {clash}")
        if new == tok and rest and _ALIAS_SHAPED_RE.fullmatch(head):
            raise error(f"alias-shaped qualifier {head!r} has no FROM "
                        "declaration")
        if to_rir and "alias" in new and _ALIAS_TOKEN_RE.search(new):
            raise error(f"token {tok!r} holds an alias that no declaration "
                        "renames")
    return renames


def _decided(declared: dict[str, str], to_rir: bool, renames: dict) -> tuple:
    """What the alias rule decides for the declared aliases (alias ->
    table) and the renames ``_renames`` gives: the renames; by each renamed
    token, the facts of its rewrite; to z_r, the rewritten names that are
    no declared alias, which no other token of the query may be; and the
    declarations renamed (to z_r, only the aliases are).  Every query of
    the alias set reads the one entry, and none writes to it."""
    renamed = tuple(map(renames.get, declared, declared))
    tables = declared.values()
    if not to_rir:
        tables = map(renames.get, tables, tables)
    return (renames, dict(zip(renames, map(_facts, renames.values()))),
            frozenset(renamed).difference(declared) if to_rir
            else frozenset(), tuple(zip(renamed, tables)))


@lru_cache(maxsize=ALIAS_SETS_SIZE)
def _alias_rule(declared: tuple, to_rir: bool, keyed: tuple) -> tuple:
    """``_decided`` of an alias set: a query's declared ``(alias, table)``
    pairs, the direction, and its tokens that the rule reads (``_KEYED``),
    in order.  From z_r, a token that still holds an alias token raises
    ``InversionError``; then ``_renames`` walks the tokens.  A token that
    no key holds can fail the rule only by being a rewritten name, which
    ``_rename`` checks.

    ``sql_to_rir`` and ``sql_from_rir`` look each query's alias set up
    once; the table keeps the last ``ALIAS_SETS_SIZE`` distinct sets looked
    up.  A set that fails the rule raises and is not kept."""
    if not to_rir:
        for tok in keyed:
            if "alias" in tok and _ALIAS_TOKEN_RE.search(tok):
                raise InversionError(
                    f"input already contains an alias token: {tok!r}")
    aliases = dict(declared)
    return _decided(aliases, to_rir, _renames(
        keyed, map(_facts, keyed), aliases, to_rir))


# The memo tables, which callers clear and bound through this one list.
TABLES = (_facts, _segment, _alias_rule)


def _rename(q: SqlQuery, to_rir: bool) -> SqlQuery:
    """q renamed by what the alias rule decides for its alias set
    (``_alias_rule``), with q's value flags and layout."""
    try:
        decided = _alias_rule(tuple(q.declared.items()), to_rir, tuple(
            compress(q.tokens, map(itemgetter(_KEYED), q.facts))))
    except TransformError:
        decided = None
    if decided is None or not decided[2].isdisjoint(q.tokens):
        # A rewritten name among the tokens, which the key need not hold,
        # fails the rule, and may come before the key's first failure: the
        # walk over every token raises the first in token order.
        decided = _decided(q.declared, to_rir,
                           _renames(q.tokens, q.facts, q.declared, to_rir))
    renames, refacts, _, declarations = decided
    return SqlQuery(tuple(map(renames.get, q.tokens, q.tokens)),
                    tuple(map(refacts.get, q.tokens, q.facts)), q.values,
                    q.layout, dict(declarations))


def sql_to_rir(q: SqlQuery) -> SqlQuery:
    """z_r: rename each declared ``Xalias<N>`` to ``X<N>``, as a token and
    as a qualifier, in a program that meets the alias rule (``_renames``),
    and keep the program's flags and layout."""
    return _rename(q, True)


def sql_from_rir(z: SqlQuery) -> SqlQuery:
    """The program of a parsed z_r: re-insert ``alias`` before the trailing
    digits of every alias that z's FROM clauses declare (``_renames``), as
    a token and as a qualifier.  z must hold no alias token.  A restored
    name holds the parens and the first character of the name it replaces
    and is no clause keyword, so z's value flags and layout are the
    program's.  A table token can be restored too
    (``FROM A AS A0 , A0 AS A01``); a quoted alias is not."""
    return _rename(z, False)


# ---------------------------------------------------------------------------
# Condition analysis and the lossy IR
# ---------------------------------------------------------------------------


def _is_qualified_column(q: SqlQuery, index: int) -> bool:
    return q.facts[index][_REST] != "" and q.tokens[index] not in q.declared


def iter_conditions(shape: Sequence, depths: Sequence[int], body_start: int,
                    end: int, children: Sequence[Block] = ()
                    ) -> Iterator[tuple[int, int, int | None]]:
    """Yield (start, end, connector_index) spans for the top-level conditions
    of the WHERE/HAVING clause body ``body_start:end`` of a query's shape
    and paren depths.  The AND that belongs to BETWEEN is not a connector.
    A condition may be empty: before a leading connector, between two, after
    a trailing one, or as the whole of an empty body.  The tokens of
    ``children``, the body's subqueries in order, lie deeper than the body
    and are not read, so nested subqueries cost no more than their own
    tokens."""
    base = depths[body_start]
    cond_start = body_start
    connector: int | None = None
    between = False
    indices = range(body_start, end)
    if children:
        bounds = [body_start]
        for child in children:
            bounds += child.start, child.end
        bounds.append(end)
        indices = chain.from_iterable(map(range, bounds[::2], bounds[1::2]))
    for i in indices:
        if depths[i + 1] != base:
            continue
        keyword = shape[i]
        if keyword == "BETWEEN":
            between = True
        elif keyword in ("AND", "OR") and not between:
            yield cond_start, i, connector
            connector = i
            cond_start = i + 1
        elif keyword == "AND" and between:
            between = False
    yield cond_start, end, connector


def classify_condition(q: SqlQuery, span: tuple[int, int]) -> str:
    """A condition is join-only iff it is a binary ``=`` between two
    qualified column references; anything touching a value, subquery, or
    other operator is semantic."""
    start, end = span
    return JOIN_ONLY if (end - start == 3 and q.tokens[start + 1] == "="
                         and _is_qualified_column(q, start)
                         and _is_qualified_column(q, end - 1)) else SEMANTIC


def sql_to_lir(q: SqlQuery) -> str:
    """The lossy IR of a program or its z_r: drop FROM clauses and
    join-only and empty conditions, mask alias qualifiers.  The layout
    gives the FROM tokens and the condition spans, so only the 3-token
    conditions are classified per query."""
    keep = list(q.layout.keep)
    declared = q.declared
    for where, spans in q.layout.conditions:
        any_kept = False
        for start, end, connector in spans:
            kept = start < end and (end - start != 3 or classify_condition(
                q, (start, end)) != JOIN_ONLY)
            if not kept:
                keep[start:end] = [False] * (end - start)
            if connector is not None:
                # A connector survives only between two survivors.
                keep[connector] = kept and any_kept
            any_kept = any_kept or kept
        if not any_kept:
            keep[where] = False  # the WHERE/HAVING keyword itself
    masked: list[str] = []
    for tok, f, value in compress(zip(q.tokens, q.facts, q.values), keep):
        if value:
            masked.append(tok)
        elif f[_ALIAS] or tok in declared:
            masked.append(TABLE_MASK)
        elif f[_REST] and (f[_HEAD_ALIAS] or f[_HEAD] in declared):
            masked.append(TABLE_MASK + f[_REST])
        else:
            masked.append(tok)
    return render_sql(masked)


def sql_template_signature(q: SqlQuery) -> str:
    """Query text with every value replaced by a typed placeholder."""
    return render_sql([tok if not value else "NUM" if f[_NUMBER] else "STR"
                       for tok, f, value in zip(q.tokens, q.facts,
                                                q.values)])
