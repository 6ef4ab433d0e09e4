"""SCAN command parsing, execution to action sequences, and IR transforms.

The command grammar is tiny and unambiguous: an optional ``and``/``after``
conjunction of two sequences, where a sequence is a verb phrase with an
optional ``twice``/``thrice`` repetition, and a verb phrase is a primitive
verb with optional ``left``/``right`` direction and ``opposite``/``around``
modifier.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

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


def _parse_phrase(text: str, words: list[str],
                  i: int) -> tuple[VerbPhrase, int]:
    """The verb phrase at word ``i`` and the index after it."""
    if i >= len(words):
        fail_at(text, i, "missing verb", sorted(_VERBS))
    verb = words[i]
    if verb not in _VERBS:
        fail_at(text, i, f"expected a verb, got {verb!r}", sorted(_VERBS))
    i += 1
    modifier = direction = None
    if i < len(words) and words[i] in _MODIFIERS:
        modifier = words[i]
        i += 1
    if i < len(words) and words[i] in _DIRECTIONS:
        direction = words[i]
        i += 1
    if modifier is not None and direction is None:
        fail_at(text, i, f"{modifier!r} needs a direction",
                sorted(_DIRECTIONS))
    if verb == "turn" and direction is None:
        fail_at(text, i, "bare 'turn' needs a direction", sorted(_DIRECTIONS))
    return VerbPhrase(verb, direction, modifier), i


def _parse_sequence(text: str, words: list[str],
                    i: int) -> tuple[Union[VerbPhrase, Repeat], int]:
    """The sequence at word ``i`` and the index after it."""
    phrase, i = _parse_phrase(text, words, i)
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
    command, i = _parse_sequence(text, words, 0)
    if i < len(words) and words[i] in _CONJUNCTIONS:
        right, end = _parse_sequence(text, words, i + 1)
        command, i = Conjunction(words[i], command, right), end
    if i < len(words):
        fail_at(text, i, f"trailing word {words[i]!r}")
    return command


# ---------------------------------------------------------------------------
# The sequence table: what the transforms read of each sequence
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


class _Sequence(NamedTuple):
    """A sequence's node, its actions and its z_r tokens, which bracket each
    repetition copy and a multi-action verb phrase."""
    node: Union[VerbPhrase, Repeat]
    actions: tuple[str, ...]
    rir: tuple[str, ...]


def _analyse(seq: Union[VerbPhrase, Repeat]) -> _Sequence:
    if isinstance(seq, Repeat):
        actions = tuple(_phrase_actions(seq.phrase))
        return _Sequence(seq, actions * seq.times,
                         ("(", *actions, ")") * seq.times)
    actions = tuple(_phrase_actions(seq))
    return _Sequence(seq, actions,
                     actions if len(actions) == 1 else ("(", *actions, ")"))


# A sequence's words, joined by single spaces, to its entry.  A sequence
# enters only when the word-by-word parser accepts exactly its words, so the
# table holds at most the grammar's 102 sequences.  ``_BY_NODE`` indexes
# the same entries by node.
_SEQUENCES: dict[str, _Sequence] = {}
_BY_NODE: dict[Union[VerbPhrase, Repeat], _Sequence] = {}


def _enter(command: ScanCommand, words: list[str]) -> None:
    """Enter each sequence of a parsed command under its words; a
    conjunction stands at the command's first conjunction word."""
    if isinstance(command, Conjunction):
        k = words.index(command.op)
        parts = ((command.left, words[:k]), (command.right, words[k + 1:]))
    else:
        parts = ((command, words),)
    for seq, seq_words in parts:
        _SEQUENCES[" ".join(seq_words)] = _BY_NODE[seq] = _analyse(seq)


def parse_command(text: str) -> ScanCommand:
    """Parse one command; the grammar admits exactly one derivation.

    A command whose sequences, split at its first conjunction, are in the
    table is read from it; any other goes through the word-by-word parser,
    which raises its errors or enters the command's sequences."""
    words = text.split()
    for k, word in enumerate(words):
        if word in _CONJUNCTIONS:
            left = _SEQUENCES.get(" ".join(words[:k]))
            right = _SEQUENCES.get(" ".join(words[k + 1:]))
            if left and right:
                return Conjunction(word, left.node, right.node)
            break
    else:
        whole = _SEQUENCES.get(" ".join(words))
        if whole:
            return whole.node
    command = _parse_words(text, words)
    _enter(command, words)
    return command


def _entry(seq: Union[VerbPhrase, Repeat]) -> _Sequence:
    """A sequence node's entry.  A node the parser has not made, such as
    one built by hand, is analysed without entering the table."""
    return _BY_NODE.get(seq) or _analyse(seq)


def _performed(command: ScanCommand, field: str) -> list[str]:
    """``field`` of the command's sequence entries, in the order the command
    performs them."""
    if not isinstance(command, Conjunction):
        return list(getattr(_entry(command), field))
    left = getattr(_entry(command.left), field)
    right = getattr(_entry(command.right), field)
    # "x after y" performs y first
    return list(left + right if command.op == "and" else right + left)


def interpret(command: ScanCommand) -> list[str]:
    """Denotation of a command as its flat action sequence."""
    return _performed(command, "actions")


# ---------------------------------------------------------------------------
# Reversible IR: bracketing driven by the command tree
# ---------------------------------------------------------------------------


def scan_to_rir(command: ScanCommand) -> list[str]:
    """Action tokens with brackets around repetition copies and around
    multi-action verb phrases; conjunctions add no brackets of their own."""
    return _performed(command, "rir")


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
