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


def _paren_delta(token: str) -> int:
    if _is_quoted(token):
        return 0
    return token.count("(") - token.count(")")


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


def _validate_alias_shapes(tokens: Sequence[str]) -> None:
    for tok in tokens:
        if _is_quoted(tok) or "alias" not in tok:
            continue
        head, _ = _split_qualified(tok)
        if "alias" in head and not _ALIAS_TOKEN_RE.fullmatch(head):
            raise ParseError(
                f"token {tok!r} does not match the <TABLE NAME>alias<N> "
                "pattern")


def _match_paren(tokens: Sequence[str], i: int, end: int) -> int:
    """Index of the token that balances the parens opened at ``i``."""
    depth = 0
    for j in range(i, end):
        depth += _paren_delta(tokens[j])
        if depth == 0:
            return j
    raise ParseError("unbalanced parentheses")


def _take_subquery(tokens: Sequence[str], i: int, end: int,
                   block: Block) -> int:
    """Segment the subquery opening at ``i``; returns the index after it."""
    j = _match_paren(tokens, i, end)
    child = Block(i + 1, j)
    _segment_block(tokens, i + 1, j, child)
    block.children.append(child)
    return j + 1


def _consume_group(tokens: Sequence[str], i: int, end: int,
                   block: Block) -> int:
    """Advance past a non-subquery parenthesized group starting at ``i``,
    still collecting any subqueries nested inside it."""
    depth = 0
    j = i
    while j < end:
        tok = tokens[j]
        if (depth > 0 and tok == "(" and j + 1 < end
                and tokens[j + 1].upper() == "SELECT"):
            j = _take_subquery(tokens, j, end, block)
            continue
        depth += _paren_delta(tok)
        j += 1
        if depth == 0:
            return j
    raise ParseError("unbalanced parentheses")


def _segment_block(tokens: Sequence[str], start: int, end: int,
                   block: Block) -> None:
    """Split [start, end) into top-level clause spans, recursing into
    parenthesized subqueries."""
    i = start
    clause_start = None
    clause_name = None

    def close(upto: int) -> None:
        nonlocal clause_start, clause_name
        if clause_name is not None:
            block.clauses.append(Clause(clause_name, clause_start, upto))
            clause_start = clause_name = None

    while i < end:
        tok = tokens[i]
        if tok == "(" and i + 1 < end and tokens[i + 1].upper() == "SELECT":
            i = _take_subquery(tokens, i, end, block)
            continue
        if _paren_delta(tok) != 0:
            i = _consume_group(tokens, i, end, block)
            continue
        upper = tok.upper()
        if upper in _SET_OPS:
            close(i)
            span_end = i + 1
            if span_end < end and tokens[span_end].upper() == "ALL":
                span_end += 1
            block.clauses.append(Clause("SET_OP", i, span_end))
            i = span_end
            continue
        if upper in _CLAUSE_STARTERS:
            close(i)
            clause_name = upper
            clause_start = i
            if upper in ("GROUP", "ORDER"):
                if i + 1 >= end or tokens[i + 1].upper() != "BY":
                    raise ParseError(f"{upper} not followed by BY")
                clause_name = f"{upper}_BY"
                i += 1
        elif clause_name is None:
            raise ParseError(
                f"token {tok!r} appears before any clause keyword")
        i += 1
    close(end)


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


def _annotate(tokens: Sequence[str], block: Block) -> tuple[str, ...]:
    declared = _collect_aliases(tokens, block)
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
    if not tokens:
        raise ParseError("empty query")
    if tokens[0].upper() != "SELECT":
        raise ParseError(f"query starts with {tokens[0]!r}, not SELECT",
                         offset=0)
    balance = 0
    for tok in tokens:
        balance += _paren_delta(tok)
        if balance < 0:
            raise ParseError("unbalanced ')'")
    if balance != 0:
        raise ParseError("unbalanced '('")
    _validate_alias_shapes(tokens)
    block = Block(0, len(tokens))
    _segment_block(tokens, 0, len(tokens), block)
    return SqlQuery(tokens, _annotate(tokens, block), block)


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


def _rir_alias_declarations(tokens: Sequence[str],
                            block: Block) -> dict[str, str]:
    declared = _collect_aliases(tokens, block)
    for alias, table in declared.items():
        rest = alias[len(table):] if alias.startswith(table) else ""
        if not rest or not rest.isdigit():
            raise InversionError(
                f"declared alias {alias!r} is not {table!r} plus a number")
    return declared


def sql_from_rir(z: SqlRir) -> SqlQuery:
    """Re-insert ``alias`` before the trailing digits of every table alias,
    using the FROM declarations to decide which tokens are aliases."""
    for tok in z.tokens:
        if not _is_quoted(tok) and _ALIAS_TOKEN_RE.search(tok):
            raise InversionError(
                f"input already contains an alias token: {tok!r}")
    block = Block(0, len(z.tokens))
    _segment_block(z.tokens, 0, len(z.tokens), block)
    declared = _rir_alias_declarations(z.tokens, block)

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
    return parse_sql_tokens(tuple(restored))


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
    i = body_start
    depth = 0
    cond_start = i
    connector: int | None = None
    between = False
    while i < clause.end:
        tok = q.tokens[i]
        if q.annotations[i] != VALUE:
            depth += _paren_delta(tok)
        upper = tok.upper() if q.annotations[i] != VALUE else ""
        if depth == 0 and upper == "BETWEEN":
            between = True
        elif depth == 0 and upper in ("AND", "OR") and not between:
            yield cond_start, i, connector
            connector = i
            cond_start = i + 1
        elif depth == 0 and upper == "AND" and between:
            between = False
        i += 1
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
    declared = _collect_aliases(q.tokens, q.block)

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
