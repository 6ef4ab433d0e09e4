"""Tokenizer, clause segmentation, and IR transforms for canonicalized SQL.

The target dialect is the canonicalized style used by the classic text-to-SQL
corpora: uppercase keywords, explicit ``<TABLE NAME>alias<N>`` table aliases,
space-separated tokens, values as quoted strings, numbers, or lowercase
anonymized placeholders (``city_name0``).  The parser segments clauses and
annotates tokens; it does not build a full SQL grammar tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import (InversionError, ParseError, TransformError,
                     byte_offset)

# Token annotation tags.  "identifier" covers bare table/column/function
# names that the coarser transforms never need to distinguish.
KEYWORD = "keyword"
TABLE_ALIAS = "table_alias"
COLUMN_REF = "column_ref"
VALUE = "value"
OPERATOR = "operator"
PUNCTUATION = "punctuation"
IDENTIFIER = "identifier"

JOIN_ONLY = "join_only"
SEMANTIC = "semantic"

TABLE_MASK = "T"

KEYWORDS = frozenset("""
    SELECT DISTINCT FROM AS WHERE AND OR NOT IN GROUP ORDER BY HAVING LIMIT
    ASC DESC BETWEEN LIKE IS NULL JOIN ON UNION INTERSECT EXCEPT EXISTS ALL
    ANY MIN MAX COUNT SUM AVG
""".split())

_CLAUSE_STARTERS = {"SELECT", "FROM", "WHERE", "GROUP", "ORDER", "HAVING",
                    "LIMIT"}
_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}
_OPERATORS = frozenset({"=", "<", ">", "<=", ">=", "<>", "!=", "+", "-",
                        "*", "/"})
_PUNCTUATION = frozenset({"(", ")", ",", ";"})

_ALIAS_RE = re.compile(r"([A-Za-z_]\w*?)alias(\d+)")
_ALIAS_TOKEN_RE = re.compile(r"[A-Za-z_]\w*?alias\d+")
_ALIAS_SHAPED_RE = re.compile(r"[A-Za-z_]\w*?\d+")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_PLACEHOLDER_RE = re.compile(r"[a-z][a-z_]*\d+")
_FUNC_OPEN_RE = re.compile(r"(COUNT|MIN|MAX|SUM|AVG)\(", re.IGNORECASE)


def lex_sql(text: str) -> list[str]:
    """Whitespace tokenization that keeps quoted strings (which may contain
    spaces) as single tokens, quotes included."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        end = i
        while end < n and not text[end].isspace():
            if text[end] in "\"'":
                close = text.find(text[end], end + 1)
                if close < 0:
                    raise ParseError("unterminated string literal",
                                     offset=byte_offset(text, end))
                end = close + 1
            else:
                end += 1
        tokens.append(text[i:end])
        i = end
    return tokens


def render_sql(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


def is_value_token(token: str) -> bool:
    """Quoted strings, numeric literals, and anonymized value placeholders."""
    if token.startswith(('"', "'")):
        return True
    if _NUMBER_RE.fullmatch(token):
        return True
    return _PLACEHOLDER_RE.fullmatch(token) is not None


def _is_quoted(token: str) -> bool:
    return token.startswith(('"', "'"))


def _paren_depths(tokens: Sequence[str]) -> tuple[int, ...]:
    """The paren depth before each token and after the last one.  A quoted
    token counts no parens; any other moves the depth by its number of
    ``(`` minus its number of ``)``, so ``))`` moves it by -2 and ``)(``
    not at all."""
    return tuple(accumulate(
        (0 if _is_quoted(tok) else tok.count("(") - tok.count(")")
         for tok in tokens), initial=0))


def _split_qualified(token: str) -> tuple[str, str]:
    """``(qualifier, ".column")`` for a dotted reference, whose qualifier
    may name a table alias; ``(token, "")`` for any other token."""
    if _is_quoted(token) or "." not in token:
        return token, ""
    qualifier, rest = token.split(".", 1)
    if not qualifier or not rest:
        return token, ""
    if not (qualifier[0].isalpha() or qualifier[0] == "_"):
        return token, ""
    return qualifier, "." + rest


@dataclass(slots=True)
class Clause:
    name: str  # SELECT / FROM / WHERE / GROUP_BY / ORDER_BY / HAVING / LIMIT / SET_OP
    start: int
    end: int  # exclusive


@dataclass(slots=True)
class Block:
    """One (sub)query: its token range, top-level clauses, and nested
    parenthesized subqueries."""

    start: int
    end: int
    clauses: list[Clause] = field(default_factory=list)
    children: list["Block"] = field(default_factory=list)

    def walk(self) -> Iterator["Block"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(slots=True)
class SqlQuery:
    tokens: tuple[str, ...]
    annotations: tuple[str, ...]
    block: Block
    depths: tuple[int, ...]  # ``_paren_depths(tokens)``
    declared: dict[str, str]  # declared alias -> table, from every FROM

    def render(self) -> str:
        return render_sql(self.tokens)


@dataclass(frozen=True, slots=True)
class SqlRir:
    """Token stream with the ``alias`` infix removed from table aliases.

    The tokens are ones ``lex_sql`` yields (for a prediction) or ones
    ``sql_to_rir`` rewrote from them, so they parse as tokens, with no
    render and re-lex.
    """

    tokens: tuple[str, ...]

    def render(self) -> str:
        return render_sql(self.tokens)


@dataclass(frozen=True, slots=True)
class SqlLir:
    """Coarse sketch: no FROM clauses, masked tables, no join conditions."""

    tokens: tuple[str, ...]

    def render(self) -> str:
        return render_sql(self.tokens)


def _segment(tokens: Sequence[str], depths: Sequence[int]) -> Block:
    """The block tree of a token stream, built in one left-to-right pass.

    ``depths`` is ``_paren_depths(tokens)``.  A token that moves the depth
    opens a group, which closes at the first later token that brings the
    depth back to, or past, the depth before the opener: so one ``))`` can
    close two groups, and ``)(`` opens none.  A ``(`` token followed by
    ``SELECT`` opens a subquery, a child block segmented like the root; it
    is an error where it opens if no later token closes it.  The tokens of
    any other group belong to the enclosing clause, but a ``( SELECT`` in
    it is again a subquery, unless the group opened at a stray ``)``,
    which only a stream with unchecked balance (``sql_from_rir``) has.
    """
    n = len(tokens)
    root = block = Block(0, n)
    group = None  # (depth before its opener, +1 or -1: the way it went)
    stack = []  # per open subquery: (depth before its "(", outer block, group)
    i = 0
    while i < n:
        tok, before, after = tokens[i], depths[i], depths[i + 1]
        i += 1
        if (tok == "(" and i < n and tokens[i].upper() == "SELECT"
                and (group is None or group[1] > 0)):
            if min(depths[i:]) > before:
                raise ParseError("unbalanced parentheses")
            stack.append((before, block, group))
            block.children.append(Block(i, n))
            block, group = block.children[-1], None
            continue
        if group is not None:
            if (after - group[0]) * group[1] > 0:
                continue  # still inside the group
            group = None
        elif after != before:
            if not stack or after > stack[-1][0]:
                group = (before, 1 if after > before else -1)
                continue
        else:
            upper, start = tok.upper(), i - 1
            if upper in ("GROUP", "ORDER"):
                if i >= n or tokens[i].upper() != "BY":
                    raise ParseError(f"{upper} not followed by BY")
                upper, i = upper + "_BY", i + 1
            elif upper in _SET_OPS:
                upper = "SET_OP"
                if i < n and tokens[i].upper() == "ALL":
                    i += 1
            elif upper not in _CLAUSE_STARTERS:
                if not block.clauses or block.clauses[-1].name == "SET_OP":
                    raise ParseError(
                        f"token {tok!r} appears before any clause keyword")
                continue
            block.clauses.append(Clause(upper, start, i))
            continue
        # The token closes each subquery whose "(" it brings the depth back
        # to, and the outer block's group if it brings that back too.
        while stack and after <= stack[-1][0]:
            _close(block, i - 1)
            _, block, group = stack.pop()
            if group is not None and (after - group[0]) * group[1] <= 0:
                group = None
    if group is not None:
        raise ParseError("unbalanced parentheses")
    _close(root, n)
    return root


def _close(block: Block, end: int) -> None:
    """End ``block`` at ``end``: each clause but a set operator runs up to
    the next clause or the end."""
    block.end = end
    starts = [clause.start for clause in block.clauses[1:]] + [end]
    for clause, next_start in zip(block.clauses, starts):
        if clause.name != "SET_OP":
            clause.end = next_start


def _collect_aliases(tokens: Sequence[str], block: Block) -> dict[str, str]:
    """Map declared alias -> table name, from every FROM span."""
    declared: dict[str, str] = {}
    for b in block.walk():
        for clause in b.clauses:
            if clause.name != "FROM":
                continue
            for i in range(clause.start, clause.end):
                if tokens[i].upper() == "AS":
                    if i == clause.start or i + 1 >= clause.end:
                        raise ParseError("dangling AS in FROM clause")
                    declared[tokens[i + 1]] = tokens[i - 1]
    return declared


def _annotate(tokens: Sequence[str],
              declared: dict[str, str]) -> tuple[str, ...]:
    tags: list[str] = []
    for tok in tokens:
        if _is_quoted(tok):
            tags.append(VALUE)
        elif tok in _PUNCTUATION:
            tags.append(PUNCTUATION)
        elif tok in _OPERATORS:
            tags.append(OPERATOR)
        elif tok.upper() in KEYWORDS or _FUNC_OPEN_RE.fullmatch(tok):
            tags.append(KEYWORD)
        elif _ALIAS_TOKEN_RE.fullmatch(tok) or tok in declared:
            tags.append(TABLE_ALIAS)
        elif is_value_token(tok):
            tags.append(VALUE)
        elif _split_qualified(tok)[1]:
            tags.append(COLUMN_REF)
        else:
            tags.append(IDENTIFIER)
    return tuple(tags)


def parse_sql(text: str) -> SqlQuery:
    """Tokenize, segment, and annotate one canonicalized query."""
    return parse_sql_tokens(tuple(lex_sql(text)))


def parse_sql_tokens(tokens: tuple[str, ...]) -> SqlQuery:
    """Segment and annotate a token stream that ``lex_sql`` would yield for
    its rendering: the same query ``parse_sql(render_sql(tokens))`` gives,
    without lexing that text again."""
    depths = _paren_depths(tokens)
    _check_tokens(tokens, depths)
    return _query(tokens, depths, _segment(tokens, depths))


def _check_tokens(tokens: Sequence[str], depths: Sequence[int]) -> None:
    """The checks of a query that need no segmentation."""
    if not tokens:
        raise ParseError("empty query")
    if tokens[0].upper() != "SELECT":
        raise ParseError(f"query starts with {tokens[0]!r}, not SELECT",
                         offset=0)
    if min(depths) < 0:
        raise ParseError("unbalanced ')'")
    if depths[-1] != 0:
        raise ParseError("unbalanced '('")
    for tok in tokens:
        if _is_quoted(tok) or "alias" not in tok:
            continue
        head, _ = _split_qualified(tok)
        if "alias" in head and not _ALIAS_TOKEN_RE.fullmatch(head):
            raise ParseError(
                f"token {tok!r} does not match the <TABLE NAME>alias<N> "
                "pattern")


def _query(tokens: tuple[str, ...], depths: tuple[int, ...],
           block: Block) -> SqlQuery:
    declared = _collect_aliases(tokens, block)
    return SqlQuery(tokens, _annotate(tokens, declared), block, depths,
                    declared)


# ---------------------------------------------------------------------------
# Reversible IR: drop the alias infix
# ---------------------------------------------------------------------------


def _rewrite_alias(token: str) -> str:
    if "alias" not in token or _is_quoted(token):
        return token
    return _ALIAS_RE.sub(r"\1\2", token)


def sql_to_rir(q: SqlQuery) -> SqlRir:
    """Rewrite every ``Xalias<N>`` to ``X<N>``, everywhere it occurs."""
    rewritten_names = set()
    plain_names = set()
    for tok, tag in zip(q.tokens, q.annotations):
        if _is_quoted(tok):
            continue
        head, _ = _split_qualified(tok)
        if tag != VALUE and _ALIAS_TOKEN_RE.fullmatch(head):
            rewritten_names.add(_rewrite_alias(head))
        else:
            plain_names.add(head)
    collisions = rewritten_names & plain_names
    if collisions:
        raise TransformError(
            "alias rewriting is not reversible here; rewritten name(s) "
            "already present: " + ", ".join(sorted(collisions)))
    tokens = tuple(tok if tag == VALUE else _rewrite_alias(tok)
                   for tok, tag in zip(q.tokens, q.annotations))
    return SqlRir(tokens)


def sql_from_rir(z: SqlRir) -> SqlQuery:
    """Re-insert ``alias`` before the trailing digits of every table alias,
    using the FROM declarations to decide which tokens are aliases."""
    for tok in z.tokens:
        if not _is_quoted(tok) and _ALIAS_TOKEN_RE.search(tok):
            raise InversionError(
                f"input already contains an alias token: {tok!r}")
    depths = _paren_depths(z.tokens)
    block = _segment(z.tokens, depths)
    declared = _collect_aliases(z.tokens, block)
    for alias, table in declared.items():
        rest = alias[len(table):] if alias.startswith(table) else ""
        if not rest or not rest.isdigit():
            raise InversionError(
                f"declared alias {alias!r} is not {table!r} plus a number")

    def restore_name(name: str) -> str:
        table = declared[name]
        return f"{table}alias{name[len(table):]}"

    restored: list[str] = []
    for tok in z.tokens:
        if _is_quoted(tok):
            restored.append(tok)
            continue
        if tok in declared:
            restored.append(restore_name(tok))
            continue
        qualifier, rest = _split_qualified(tok)
        if qualifier in declared:
            restored.append(restore_name(qualifier) + rest)
            continue
        if rest and _ALIAS_SHAPED_RE.fullmatch(qualifier):
            raise InversionError(
                f"alias-shaped qualifier {qualifier!r} has no FROM "
                "declaration")
        restored.append(tok)
    # A restored name holds the parens of the name it replaces and is no
    # clause keyword, so z's depths and block tree are the program's.
    tokens = tuple(restored)
    _check_tokens(tokens, depths)
    return _query(tokens, depths, block)


# ---------------------------------------------------------------------------
# Condition analysis and the lossy IR
# ---------------------------------------------------------------------------


def _is_qualified_column(q: SqlQuery, index: int) -> bool:
    return (q.annotations[index] == COLUMN_REF
            and _split_qualified(q.tokens[index])[1] != "")


def iter_conditions(q: SqlQuery, clause: Clause,
                    body_start: int) -> Iterator[tuple[int, int, int | None]]:
    """Yield (start, end, connector_index) spans for the top-level conditions
    of one WHERE/HAVING clause body.  The AND that belongs to BETWEEN is not
    a connector."""
    base = q.depths[body_start]
    cond_start = body_start
    connector: int | None = None
    between = False
    for i in range(body_start, clause.end):
        if q.depths[i + 1] != base:
            continue
        upper = q.tokens[i].upper()
        if upper == "BETWEEN":
            between = True
        elif upper in ("AND", "OR") and not between:
            yield cond_start, i, connector
            connector = i
            cond_start = i + 1
        elif upper == "AND" and between:
            between = False
    if cond_start < clause.end:
        yield cond_start, clause.end, connector


def classify_condition(q: SqlQuery, span: tuple[int, int]) -> str:
    """A condition is join-only iff it is a binary ``=`` between two
    qualified column references; anything touching a value, subquery, or
    other operator is semantic."""
    start, end = span
    if end - start != 3:
        return SEMANTIC
    left, op, right = range(start, end)
    if q.tokens[op] != "=":
        return SEMANTIC
    if _is_qualified_column(q, left) and _is_qualified_column(q, right):
        return JOIN_ONLY
    return SEMANTIC


def sql_to_lir(q: SqlQuery) -> SqlLir:
    """Drop FROM clauses and join-only conditions, mask alias qualifiers."""
    keep = [True] * len(q.tokens)
    declared = q.declared

    for block in q.block.walk():
        for clause in block.clauses:
            if clause.name == "FROM":
                for i in range(clause.start, clause.end):
                    keep[i] = False
            elif clause.name in ("WHERE", "HAVING"):
                spans = list(iter_conditions(q, clause, clause.start + 1))
                survives = [classify_condition(q, (s, e)) != JOIN_ONLY
                            for s, e, _ in spans]
                any_kept = False
                for (start, end, connector), kept in zip(spans, survives):
                    if not kept:
                        for i in range(start, end):
                            keep[i] = False
                    if connector is not None:
                        # A connector survives only between two survivors.
                        keep[connector] = kept and any_kept
                    any_kept = any_kept or kept
                if not any_kept:
                    keep[clause.start] = False  # WHERE/HAVING keyword itself

    masked: list[str] = []
    for i, tok in enumerate(q.tokens):
        if not keep[i]:
            continue
        if q.annotations[i] == VALUE:
            masked.append(tok)
            continue
        if tok in declared or _ALIAS_TOKEN_RE.fullmatch(tok):
            masked.append(TABLE_MASK)
            continue
        qualifier, rest = _split_qualified(tok)
        if rest and (qualifier in declared
                     or _ALIAS_TOKEN_RE.fullmatch(qualifier)):
            masked.append(TABLE_MASK + rest)
            continue
        masked.append(tok)
    return SqlLir(tuple(masked))


def sql_template_signature(q: SqlQuery) -> str:
    """Query text with every value replaced by a typed placeholder."""
    out: list[str] = []
    for tok, tag in zip(q.tokens, q.annotations):
        if tag != VALUE:
            out.append(tok)
        elif _NUMBER_RE.fullmatch(tok):
            out.append("NUM")
        else:
            out.append("STR")
    return render_sql(out)
