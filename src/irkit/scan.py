"""SCAN command parsing, execution to action sequences, and IR transforms.

The command grammar is tiny and unambiguous: an optional ``and``/``after``
conjunction of two sequences, where a sequence is a verb phrase with an
optional ``twice``/``thrice`` repetition, and a verb phrase is a primitive
verb with optional ``left``/``right`` direction and ``opposite``/``around``
modifier.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, NoReturn, Sequence, Union

from .errors import InversionError, TransformError, fail_at

PRIMITIVE_ACTIONS = {"walk": "WALK", "look": "LOOK", "run": "RUN",
                     "jump": "JUMP"}
TURN_ACTIONS = {"left": "LTURN", "right": "RTURN"}
ACTIONS = frozenset(PRIMITIVE_ACTIONS.values()) | frozenset(
    TURN_ACTIONS.values())

ANON_ACTION = "A"
EMPTY_ACTIONS = "empty action sequence"

_VERBS = frozenset(PRIMITIVE_ACTIONS) | {"turn"}
_DIRECTIONS = frozenset(TURN_ACTIONS)
_MODIFIERS = frozenset({"opposite", "around"})
_REPEATS = {"twice": 2, "thrice": 3}
_CONJUNCTIONS = frozenset({"and", "after"})
_VOCABULARY = (_VERBS | _DIRECTIONS | _MODIFIERS
               | frozenset(_REPEATS) | _CONJUNCTIONS)
# The most distinct sequences each table keeps, above the grammar's 102.
SEQUENCES_SIZE = 128
# The indices of a sequence's actions and z_r tokens in its ``_entry``.
_ACTIONS, _RIR = range(2)


class VerbPhrase(NamedTuple):
    verb: str
    direction: str | None = None
    modifier: str | None = None


class Repeat(NamedTuple):
    phrase: VerbPhrase
    times: int


class Conjunction(NamedTuple):
    op: str  # "and" or "after"
    left: Union[VerbPhrase, Repeat]
    right: Union[VerbPhrase, Repeat]


ScanCommand = Union[VerbPhrase, Repeat, Conjunction]


class _Unparsed(Exception):
    """Words that ``_sequence`` rejects; the word-by-word parser then
    raises their error."""


def _miss(*_) -> NoReturn:
    raise _Unparsed


def _parse_phrase(text: str, words: list[str], i: int,
                  fail: Callable[..., NoReturn]) -> tuple[VerbPhrase, int]:
    """The verb phrase at word ``i`` and the index after it; an error is
    raised by ``fail``, which takes the arguments of ``fail_at``."""
    if i >= len(words):
        fail(text, i, "missing verb", sorted(_VERBS))
    verb = words[i]
    if verb not in _VERBS:
        fail(text, i, f"expected a verb, got {verb!r}", sorted(_VERBS))
    i += 1
    modifier = direction = None
    if i < len(words) and words[i] in _MODIFIERS:
        modifier = words[i]
        i += 1
    if i < len(words) and words[i] in _DIRECTIONS:
        direction = words[i]
        i += 1
    if modifier is not None and direction is None:
        fail(text, i, f"{modifier!r} needs a direction", sorted(_DIRECTIONS))
    if verb == "turn" and direction is None:
        fail(text, i, "bare 'turn' needs a direction", sorted(_DIRECTIONS))
    return VerbPhrase(verb, direction, modifier), i


def _parse_sequence(text: str, words: list[str], i: int,
                    fail: Callable[..., NoReturn]
                    ) -> tuple[Union[VerbPhrase, Repeat], int]:
    """The sequence at word ``i`` and the index after it."""
    phrase, i = _parse_phrase(text, words, i, fail)
    if i < len(words) and words[i] in _REPEATS:
        return Repeat(phrase, _REPEATS[words[i]]), i + 1
    return phrase, i


def _parse_words(text: str, words: list[str]) -> ScanCommand:
    """The word-by-word parse of ``text``, whose words are ``words``."""
    for i, word in enumerate(words):
        if word not in _VOCABULARY:
            fail_at(text, i, f"unknown word {word!r}")
    if not words:
        fail_at(text, 0, "empty command")
    command, i = _parse_sequence(text, words, 0, fail_at)
    if i < len(words) and words[i] in _CONJUNCTIONS:
        right, end = _parse_sequence(text, words, i + 1, fail_at)
        command, i = Conjunction(words[i], command, right), end
    if i < len(words):
        fail_at(text, i, f"trailing word {words[i]!r}")
    return command


# ---------------------------------------------------------------------------
# The sequence tables: each sequence's node, and what the transforms read
# ---------------------------------------------------------------------------


def _phrase_actions(p: VerbPhrase) -> list[str]:
    if p.direction is None:
        return [PRIMITIVE_ACTIONS[p.verb]]
    turn = TURN_ACTIONS[p.direction]
    step = [turn] if p.verb == "turn" else [turn, PRIMITIVE_ACTIONS[p.verb]]
    if p.modifier is None:
        return step
    if p.modifier == "opposite":
        # Double the turn, then the verb (if any).
        return [turn] + step
    return step * 4  # around: full rotation, stepping after each turn


@lru_cache(maxsize=SEQUENCES_SIZE)
def _entry(seq: Union[VerbPhrase, Repeat]) -> tuple[tuple[str, ...], ...]:
    """A sequence node's actions and z_r tokens, by the ``_ACTIONS`` and
    ``_RIR`` indices; z_r brackets each repetition copy and a multi-action
    verb phrase.  Parsing makes at most the grammar's 102 nodes, so it
    evicts none; a node built by hand enters too."""
    if isinstance(seq, Repeat):
        actions = tuple(_phrase_actions(seq.phrase))
        return actions * seq.times, ("(", *actions, ")") * seq.times
    actions = tuple(_phrase_actions(seq))
    return actions, actions if len(actions) == 1 else ("(", *actions, ")")


@lru_cache(maxsize=SEQUENCES_SIZE)
def _sequence(words: str) -> Union[VerbPhrase, Repeat]:
    """The node of a sequence's words, joined by single spaces; any other
    words raise ``_Unparsed``, which carries no byte offset.  A raised error
    is not kept, so the table holds at most the grammar's 102 sequences."""
    split = words.split(" ")
    seq, i = _parse_sequence(words, split, 0, _miss)
    if i < len(split):
        raise _Unparsed
    return seq


# The memo tables, which callers clear and bound through this one list.
TABLES = (_sequence, _entry)


def parse_command(text: str) -> ScanCommand:
    """Parse one command; the grammar admits exactly one derivation.

    Each side of the first conjunction, or the whole command if it has
    none, is read from the sequence table.  A command that a side does not
    fit goes through the word-by-word parser, which raises its error with
    the command's own message, byte offset and expected words."""
    words = text.split()
    try:
        for k, word in enumerate(words):
            if word in _CONJUNCTIONS:
                return Conjunction(word, _sequence(" ".join(words[:k])),
                                   _sequence(" ".join(words[k + 1:])))
        return _sequence(" ".join(words))
    except _Unparsed:
        return _parse_words(text, words)


def _performed(command: ScanCommand, field: int) -> list[str]:
    """``field`` of the command's sequence entries, in the order the command
    performs them."""
    if not isinstance(command, Conjunction):
        return list(_entry(command)[field])
    left, right = _entry(command.left)[field], _entry(command.right)[field]
    # "x after y" performs y first
    return list(left + right if command.op == "and" else right + left)


def interpret(command: ScanCommand) -> list[str]:
    """Denotation of a command as its flat action sequence."""
    return _performed(command, _ACTIONS)


# ---------------------------------------------------------------------------
# Reversible IR: bracketing driven by the command tree
# ---------------------------------------------------------------------------


def scan_to_rir(command: ScanCommand) -> list[str]:
    """Action tokens with brackets around repetition copies and around
    multi-action verb phrases; conjunctions add no brackets of their own."""
    return _performed(command, _RIR)


def strip_brackets(tokens: Sequence[str] | str) -> list[str]:
    """Drop the bracket tokens, checking balance, the action vocabulary and
    that some action is left."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    depth = 0
    actions: list[str] = []
    for tok in tokens:
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                raise InversionError("unbalanced ')' in bracketed sequence")
        elif tok in ACTIONS:
            actions.append(tok)
        else:
            raise InversionError(f"unknown action token {tok!r}")
    if depth != 0:
        raise InversionError("unclosed '(' in bracketed sequence")
    if not actions:
        raise InversionError(EMPTY_ACTIONS)
    return actions


# ---------------------------------------------------------------------------
# Lossy IR: run-length anonymization
# ---------------------------------------------------------------------------


def scan_to_lir(tokens: Sequence[str] | str) -> list[str]:
    """Rewrite every run of n > 1 identical actions as the action followed
    by n-1 anonymous markers.  Bracket tokens pass through untouched (so the
    transform composes with the bracketed IR) but break runs."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    return [ANON_ACTION if tok == previous and tok in ACTIONS else tok
            for previous, tok in zip((None, *tokens), tokens)]


def scan_lir_expand(tokens: Sequence[str] | str) -> list[str]:
    """Replace each anonymous marker with the nearest preceding action."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    out: list[str] = []
    previous = None
    for tok in tokens:
        if tok == ANON_ACTION:
            if previous is None:
                raise TransformError("anonymous action with no preceding "
                                     "concrete action")
            out.append(previous)
        else:
            out.append(tok)
            if tok in ACTIONS:
                previous = tok
    return out


def render_actions(tokens: Sequence[str]) -> str:
    return " ".join(tokens)
