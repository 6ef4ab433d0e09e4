"""The formalism table: how each formalism parses, transforms, inverts and
scores programs.  Code that needs formalism-specific behaviour looks the
formalism's row up here instead of branching on its name.

Every entry calls through a module attribute (``sparql_ir.parse_sparql(t)``,
not a function bound at import time), so that wrapping those attributes, as
a tracer does, also sees the calls made through this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import scan as scan_ir
from . import sparql as sparql_ir
from . import sql as sql_ir
from .errors import ConfigError, IrkitError


@dataclass(frozen=True, slots=True)
class Formalism:
    """One formalism's transforms; ``cfg`` is a ``PipelineConfig`` and
    ``p`` a ``pipeline.Program`` (one record, its parsed program and cfg).

    A z_r object is what ``to_rir`` and ``parse_rir`` return and what
    ``render_rir`` and ``lir_of_rir`` take: the parsed reversible IR for
    sparql, the bracketed token list for scan, and the ``SqlRir`` token
    stream for sql.
    """

    parse: Callable[[str], Any]  # program text -> program
    to_rir: Callable[[Any], Any]  # p -> z_r object
    render_rir: Callable[[Any], str]
    parse_rir: Callable[[str], Any]  # z_r text (a prediction) -> z_r object
    from_rir: Callable[[str, Any], str]  # z_r text, cfg -> program text
    to_lir: Callable[[Any], str]  # program -> z_l text
    lir_of_rir: Callable[[Any], str]  # z_r object -> z_{l,r} text
    key: Callable[[str], str]  # program text -> exact-match scoring form
    structure: Callable[[str], str]  # program or z_r text -> structure
    needs_dict: bool = False  # z_r depends on the relation dictionary
    varify: Callable[[Any], str] | None = None  # program -> VARified text
    template: Callable[[Any], str] | None = None  # program -> SQL template


def _normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def _sparql_rir(p) -> sparql_ir.SparqlRir:
    return sparql_ir.sparql_to_rir(p.parsed, p.cfg.relation_dict,
                                   p.cfg.rir_options)


def _scan_actions(text: str) -> list[str]:
    actions = text.split()
    for tok in actions:
        if tok not in scan_ir.ACTIONS:
            raise IrkitError(f"unknown action token {tok!r}")
    return actions


def _scan_rir(p) -> list[str]:
    # The bracketing transducer is driven by the command, so the source side
    # must actually denote the target actions.
    tokens = scan_ir.scan_to_rir(scan_ir.parse_command(p.record.x))
    if scan_ir.strip_brackets(tokens) != p.record.y.split():
        raise IrkitError("command does not interpret to the target actions")
    return tokens


def _scan_parse_rir(text: str) -> list[str]:
    tokens = text.split()
    scan_ir.strip_brackets(tokens)  # validates vocabulary and balance
    return tokens


def _sql_parse_rir(text: str) -> sql_ir.SqlRir:
    return sql_ir.SqlRir(tuple(sql_ir.lex_sql(text)))


def _scan_lir(tokens: list[str]) -> str:
    return scan_ir.render_actions(scan_ir.scan_to_lir(tokens))


TABLE: dict[str, Formalism] = {
    "sparql": Formalism(
        parse=lambda t: sparql_ir.parse_sparql(t),
        to_rir=_sparql_rir,
        render_rir=lambda z: sparql_ir.render_rir(z),
        parse_rir=lambda t: sparql_ir.parse_rir(t),
        from_rir=lambda t, cfg: sparql_ir.render_sparql(
            sparql_ir.sparql_from_rir(sparql_ir.parse_rir(t),
                                      cfg.relation_dict)),
        to_lir=lambda q: sparql_ir.sparql_to_lir(q),
        lir_of_rir=lambda z: sparql_ir.sparql_to_lir(z),
        key=lambda t: sparql_ir.render_sparql(
            sparql_ir.normalize_sparql(sparql_ir.parse_sparql(t))),
        structure=lambda t: sparql_ir.structure_signature(
            sparql_ir.parse_rir(t)),
        needs_dict=True,
        varify=lambda q: sparql_ir.varify(q)),
    "sql": Formalism(
        parse=lambda t: sql_ir.parse_sql(t),
        to_rir=lambda p: sql_ir.sql_to_rir(p.parsed),
        render_rir=lambda z: z.render(),
        parse_rir=_sql_parse_rir,
        from_rir=lambda t, cfg: sql_ir.sql_from_rir(
            _sql_parse_rir(t)).render(),
        to_lir=lambda q: sql_ir.sql_to_lir(q).render(),
        lir_of_rir=lambda z: sql_ir.sql_to_lir(
            sql_ir.parse_sql_tokens(z.tokens)).render(),
        key=_normalize_whitespace,
        structure=lambda t: sql_ir.sql_template_signature(
            sql_ir.parse_sql(t)),
        template=lambda q: sql_ir.sql_template_signature(q)),
    "scan": Formalism(
        parse=_scan_actions,
        to_rir=_scan_rir,
        render_rir=lambda z: scan_ir.render_actions(z),
        parse_rir=_scan_parse_rir,
        from_rir=lambda t, cfg: scan_ir.render_actions(
            scan_ir.strip_brackets(t)),
        to_lir=_scan_lir,
        lir_of_rir=_scan_lir,
        key=_normalize_whitespace,
        structure=_normalize_whitespace),
}


def get(name: str) -> Formalism:
    if name not in TABLE:
        raise ConfigError(f"unknown formalism {name!r}")
    return TABLE[name]
