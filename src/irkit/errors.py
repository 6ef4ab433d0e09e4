"""Exception types shared across the toolkit, and the byte offsets that
parse errors carry."""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, NoReturn


class IrkitError(ValueError):
    """Base class for all toolkit errors."""


class ParseError(IrkitError):
    """Input text is not well formed for the target formalism.

    ``offset`` is the byte offset of the offending token in the input (or the
    input length for an unexpected end of input); ``expected`` lists the token
    shapes that would have been accepted at that point.
    """

    def __init__(self, message: str, offset: int | None = None,
                 expected: tuple[str, ...] = ()):
        detail = message
        if offset is not None:
            detail = f"{message} (at byte offset {offset})"
        if expected:
            detail = f"{detail}; expected one of: {', '.join(expected)}"
        super().__init__(detail)
        self.offset = offset
        self.expected = tuple(expected)


def byte_offset(text: str, index: int) -> int:
    """UTF-8 byte offset of the character at ``index`` in ``text``."""
    return len(text[:index].encode("utf-8"))


def fail_at(text: str, index: int, message: str,
            expected: Iterable[str] = (),
            token: re.Pattern[str] = re.compile(r"\S+")) -> NoReturn:
    """Raise a ParseError at the byte offset of token ``index`` of ``text``,
    its tokens being the matches of ``token`` (whitespace-separated words
    unless given), or at the end of ``text`` when it has no such token.
    Parsers walk their tokens by index and rescan ``text`` for token
    positions only here, when an error has to be reported."""
    match = next(islice(token.finditer(text), index, None), None)
    start = len(text) if match is None else match.start()
    raise ParseError(message, offset=byte_offset(text, start),
                     expected=tuple(expected))


class TransformError(IrkitError):
    """A transformation cannot be applied to this (otherwise valid) input."""


class InversionError(IrkitError):
    """A reversible transformation cannot be undone on the given input."""


class ConfigError(IrkitError):
    """Invalid combination of options."""
