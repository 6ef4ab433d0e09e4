"""Exception types shared across the toolkit, and the token cursor whose
parse errors carry byte offsets."""

from __future__ import annotations

import re
from typing import Iterable


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


class TokenCursor:
    """Cursor over the whitespace-separated tokens of one input.

    The fast path tokenizes with ``str.split``; byte offsets are only
    recomputed (with a second scan) when an error has to be reported.
    """

    __slots__ = ("text", "tokens", "pos")

    def __init__(self, text: str):
        self.text = text
        self.tokens = text.split()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, *expected: str) -> str:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            self.fail("unexpected end of input", expected)
        self.pos += 1
        return tok

    def expect(self, *expected: str) -> str:
        tok = self.next(*expected)
        if tok not in expected:
            self.pos -= 1
            self.fail(f"unexpected token {tok!r}", expected)
        return tok

    def fail(self, message: str, expected: Iterable[str] = ()) -> None:
        """Raise a ParseError at the current token's byte offset."""
        starts = [m.start() for m in re.finditer(r"\S+", self.text)]
        index = starts[self.pos] if self.pos < len(starts) else len(self.text)
        raise ParseError(message, offset=byte_offset(self.text, index),
                         expected=tuple(expected))


class TransformError(IrkitError):
    """A transformation cannot be applied to this (otherwise valid) input."""


class InversionError(IrkitError):
    """A reversible transformation cannot be undone on the given input."""


class ConfigError(IrkitError):
    """Invalid combination of options."""
