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


def parse_command(text: str) -> ScanCommand:
    """Parse one command; the grammar admits exactly one derivation."""
    words = text.split()
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
# Interpretation
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


def interpret(command: ScanCommand) -> list[str]:
    """Denotation of a command as its flat action sequence."""
    if isinstance(command, VerbPhrase):
        return _phrase_actions(command)
    if isinstance(command, Repeat):
        return _phrase_actions(command.phrase) * command.times
    left = interpret(command.left)
    right = interpret(command.right)
    if command.op == "and":
        return left + right
    return right + left  # "x after y" performs y first


# ---------------------------------------------------------------------------
# Reversible IR: bracketing driven by the command tree
# ---------------------------------------------------------------------------


def _sequence_rir(seq: Union[VerbPhrase, Repeat]) -> list[str]:
    if isinstance(seq, Repeat):
        copy = ["("] + _phrase_actions(seq.phrase) + [")"]
        return copy * seq.times
    actions = _phrase_actions(seq)
    if len(actions) == 1:
        return actions
    return ["("] + actions + [")"]


def scan_to_rir(command: ScanCommand) -> list[str]:
    """Action tokens with brackets around repetition copies and around
    multi-action verb phrases; conjunctions add no brackets of their own."""
    if isinstance(command, Conjunction):
        left = _sequence_rir(command.left)
        right = _sequence_rir(command.right)
        return left + right if command.op == "and" else right + left
    return _sequence_rir(command)


def strip_brackets(tokens: Sequence[str] | str) -> list[str]:
    """Drop the bracket tokens, checking balance and the action vocabulary."""
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
    out: list[str] = []
    previous = None
    for tok in tokens:
        if tok in ACTIONS and tok == previous:
            out.append(ANON_ACTION)
            continue
        out.append(tok)
        previous = tok if tok in ACTIONS else None
    return out


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
