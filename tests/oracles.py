"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different mechanics than the
library (lookup tables and token-list passes instead of structured parsing)
so that agreement between the two is meaningful.
"""

from __future__ import annotations

import re

from irkit.errors import ParseError

# ---------------------------------------------------------------------------
# SCAN: table-driven string interpreter and grammar enumeration
# ---------------------------------------------------------------------------

SCAN_PHRASE_TABLE = {
    "walk": "WALK",
    "look": "LOOK",
    "run": "RUN",
    "jump": "JUMP",
    "walk left": "LTURN WALK",
    "walk right": "RTURN WALK",
    "look left": "LTURN LOOK",
    "look right": "RTURN LOOK",
    "run left": "LTURN RUN",
    "run right": "RTURN RUN",
    "jump left": "LTURN JUMP",
    "jump right": "RTURN JUMP",
    "turn left": "LTURN",
    "turn right": "RTURN",
    "walk opposite left": "LTURN LTURN WALK",
    "walk opposite right": "RTURN RTURN WALK",
    "look opposite left": "LTURN LTURN LOOK",
    "look opposite right": "RTURN RTURN LOOK",
    "run opposite left": "LTURN LTURN RUN",
    "run opposite right": "RTURN RTURN RUN",
    "jump opposite left": "LTURN LTURN JUMP",
    "jump opposite right": "RTURN RTURN JUMP",
    "turn opposite left": "LTURN LTURN",
    "turn opposite right": "RTURN RTURN",
    "walk around left": "LTURN WALK LTURN WALK LTURN WALK LTURN WALK",
    "walk around right": "RTURN WALK RTURN WALK RTURN WALK RTURN WALK",
    "look around left": "LTURN LOOK LTURN LOOK LTURN LOOK LTURN LOOK",
    "look around right": "RTURN LOOK RTURN LOOK RTURN LOOK RTURN LOOK",
    "run around left": "LTURN RUN LTURN RUN LTURN RUN LTURN RUN",
    "run around right": "RTURN RUN RTURN RUN RTURN RUN RTURN RUN",
    "jump around left": "LTURN JUMP LTURN JUMP LTURN JUMP LTURN JUMP",
    "jump around right": "RTURN JUMP RTURN JUMP RTURN JUMP RTURN JUMP",
    "turn around left": "LTURN LTURN LTURN LTURN",
    "turn around right": "RTURN RTURN RTURN RTURN",
}


def oracle_scan_interpret(command: str) -> str:
    """Interpret a SCAN command by table lookup and string splicing."""
    words = command.split()
    if "and" in words:
        k = words.index("and")
        return (oracle_scan_interpret(" ".join(words[:k])) + " "
                + oracle_scan_interpret(" ".join(words[k + 1:])))
    if "after" in words:
        k = words.index("after")
        return (oracle_scan_interpret(" ".join(words[k + 1:])) + " "
                + oracle_scan_interpret(" ".join(words[:k])))
    if words[-1] == "twice":
        once = oracle_scan_interpret(" ".join(words[:-1]))
        return " ".join([once] * 2)
    if words[-1] == "thrice":
        once = oracle_scan_interpret(" ".join(words[:-1]))
        return " ".join([once] * 3)
    return SCAN_PHRASE_TABLE[" ".join(words)]


def all_scan_phrases() -> list[str]:
    verbs = ["walk", "look", "run", "jump"]
    phrases = list(verbs)
    for verb in verbs + ["turn"]:
        for direction in ("left", "right"):
            phrases.append(f"{verb} {direction}")
            phrases.append(f"{verb} opposite {direction}")
            phrases.append(f"{verb} around {direction}")
    return phrases


def all_scan_sequences() -> list[str]:
    return [phrase + tail
            for phrase in all_scan_phrases()
            for tail in ("", " twice", " thrice")]


def all_scan_commands() -> list[str]:
    """The full (finite) SCAN command space."""
    sequences = all_scan_sequences()
    commands = list(sequences)
    for left in sequences:
        for right in sequences:
            commands.append(f"{left} and {right}")
            commands.append(f"{left} after {right}")
    return commands


# ---------------------------------------------------------------------------
# SCAN file lines: the lazy regex the reader's string split replaced
# ---------------------------------------------------------------------------

_SCAN_LINE_RE = re.compile(r"IN:\s*(?P<x>.*?)\s*OUT:\s*(?P<y>.*)")


def oracle_scan_line(line: str) -> tuple[str, str] | None:
    """x and y of an ``IN: <x> OUT: <y>`` line, or None for any other."""
    match = _SCAN_LINE_RE.fullmatch(line)
    return match and match.group("x", "y")


# ---------------------------------------------------------------------------
# SPARQL lossy forms: one pass over the rendered tokens
# ---------------------------------------------------------------------------

_SPARQL_ENTITY_RE = re.compile(r"M\d+|m_\w+")


def is_sparql_variable(tok: str) -> bool:
    return tok.startswith("?")


def is_sparql_entity(tok: str) -> bool:
    return _SPARQL_ENTITY_RE.fullmatch(tok) is not None


def _is_sparql_var_or_entity(tok: str) -> bool:
    return is_sparql_variable(tok) or is_sparql_entity(tok)


def oracle_sparql_lir(text: str) -> str:
    """Anonymize a rendered program or IR token by token: each variable and
    entity becomes ``var``.  Exact on programs whose relations are neither
    variable- nor entity-shaped, as in the fixtures."""
    return " ".join("var" if _is_sparql_var_or_entity(tok) else tok
                    for tok in text.split())


def oracle_sparql_varify(text: str) -> str:
    """Prefix each variable and entity token of a rendered program with
    ``var``, under the same condition as :func:`oracle_sparql_lir`."""
    return " ".join(f"var {tok}" if _is_sparql_var_or_entity(tok) else tok
                    for tok in text.split())


# ---------------------------------------------------------------------------
# Relation truncation: brute-force shortest-unique-suffix search
# ---------------------------------------------------------------------------


def oracle_truncations(relations: list[str]) -> dict[str, str]:
    """For each relation, the shortest dot-suffix (after the last ``ns:``)
    that cannot clash with any other relation; full suffix as fallback."""
    segments: dict[str, list[str] | None] = {}
    for rel in relations:
        if "ns:" in rel:
            segments[rel] = rel.rsplit("ns:", 1)[1].split(".")
        else:
            segments[rel] = None

    def taken(rel: str, candidate_segs: list[str]) -> bool:
        n = len(candidate_segs)
        for other in relations:
            if other == rel:
                continue
            other_segs = segments[other]
            if other_segs is None:
                if ".".join(candidate_segs) == other:
                    return True
            elif n <= len(other_segs) and other_segs[-n:] == candidate_segs:
                return True
        return False

    out: dict[str, str] = {}
    for rel in relations:
        segs = segments[rel]
        if segs is None:
            out[rel] = rel
            continue
        for n in range(1, len(segs)):
            if not taken(rel, segs[-n:]):
                out[rel] = ".".join(segs[-n:])
                break
        else:
            out[rel] = ".".join(segs)
    if len(set(out.values())) != len(out):
        raise AssertionError("oracle: relations cannot be disambiguated")
    return out


# ---------------------------------------------------------------------------
# SQL lexing: the character loop the library's lexer replaced
# ---------------------------------------------------------------------------


def oracle_lex_sql(text: str) -> list[str]:
    """Whitespace tokenization that keeps quoted strings (which may contain
    spaces) as single tokens, quotes included, walking ``text`` one
    character at a time.  An unterminated quote raises ``ParseError`` at its
    UTF-8 byte offset."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        end = i
        while end < n and not text[end].isspace():
            if text[end] in "\"'":
                close = text.find(text[end], end + 1)
                if close < 0:
                    raise ParseError("unterminated string literal",
                                     offset=len(text[:end].encode("utf-8")))
                end = close + 1
            else:
                end += 1
        tokens.append(text[i:end])
        i = end
    return tokens


# ---------------------------------------------------------------------------
# SQL coarse sketch: rule-by-rule token passes
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\"[^\"]*\"|'[^']*'|\S+")
_CLAUSE_WORDS = {"SELECT", "WHERE", "GROUP", "ORDER", "HAVING", "LIMIT",
                 "UNION", "INTERSECT", "EXCEPT"}
_QUALIFIED_RE = re.compile(r"[A-Za-z_][\w]*\.[\w.]+")
_MASK_RE = re.compile(r"^([A-Za-z_]\w*?alias\d+)\.(.+)$")
_BARE_ALIAS_RE = re.compile(r"^[A-Za-z_]\w*?alias\d+$")


def _oracle_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _delta(tok: str) -> int:
    if tok[0] in "\"'":
        return 0
    return tok.count("(") - tok.count(")")


def _drop_from_clauses(tokens: list[str]) -> list[str]:
    out: list[str] = []
    depth = 0
    dropping: set[int] = set()
    for tok in tokens:
        upper = tok.upper() if tok[0] not in "\"'" else ""
        if upper == "FROM":
            dropping.add(depth)
            continue
        if upper in _CLAUSE_WORDS and depth in dropping:
            dropping.discard(depth)
        new_depth = depth + _delta(tok)
        if new_depth < depth:
            for d in list(dropping):
                if d > new_depth:
                    dropping.discard(d)
            effective = new_depth
        else:
            effective = depth
        if not any(d <= effective for d in dropping):
            out.append(tok)
        depth = new_depth
    return out


def _is_join_unit(unit: list[str]) -> bool:
    if len(unit) != 3 or unit[1] != "=":
        return False
    return all(tok[0] not in "\"'" and _QUALIFIED_RE.fullmatch(tok)
               for tok in (unit[0], unit[2]))


def _strip_join_conditions(tokens: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        upper = tok.upper() if tok[0] not in "\"'" else ""
        if upper not in ("WHERE", "HAVING"):
            out.append(tok)
            i += 1
            continue
        # Collect the clause body: up to a clause word at this depth or a
        # depth drop below it.
        j = i + 1
        depth = 0
        body: list[str] = []
        while j < n:
            t = tokens[j]
            t_upper = t.upper() if t[0] not in "\"'" else ""
            if depth == 0 and t_upper in _CLAUSE_WORDS:
                break
            if depth + _delta(t) < 0:
                break
            depth += _delta(t)
            body.append(t)
            j += 1
        # Split into top-level units; the AND of BETWEEN is not a connector.
        units: list[list[str]] = [[]]
        connectors: list[str] = []
        depth = 0
        between = False
        for t in body:
            t_upper = t.upper() if t[0] not in "\"'" else ""
            if depth == 0 and t_upper == "BETWEEN":
                between = True
            if (depth == 0 and t_upper in ("AND", "OR") and not between):
                connectors.append(t)
                units.append([])
                continue
            if depth == 0 and t_upper == "AND" and between:
                between = False
            depth += _delta(t)
            units[-1].append(t)
        # An empty unit (next to a stray connector) does not survive.
        survivors = [(unit, k) for k, unit in enumerate(units)
                     if unit and not _is_join_unit(unit)]
        if survivors:
            out.append(tok)
            first = True
            for unit, k in survivors:
                if not first:
                    out.append(connectors[k - 1])
                # A unit may hold a subquery with its own WHERE.
                out.extend(_strip_join_conditions(unit))
                first = False
        i = j
    return out


def _mask_tables(tokens: list[str]) -> list[str]:
    out = []
    for tok in tokens:
        if tok[0] in "\"'":
            out.append(tok)
        elif _BARE_ALIAS_RE.fullmatch(tok):
            out.append("T")
        else:
            out.append(_MASK_RE.sub(r"T.\2", tok))
    return out


def oracle_sql_lir(text: str) -> str:
    """Apply the three sketch rules as separate textual passes: strip the
    join-only conditions, drop FROM clauses, then mask alias qualifiers."""
    tokens = _oracle_tokens(text)
    tokens = _strip_join_conditions(tokens)
    tokens = _drop_from_clauses(tokens)
    tokens = _mask_tables(tokens)
    return " ".join(tokens)
