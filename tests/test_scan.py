import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irkit import data, formalisms, pipeline, scan
from irkit.errors import (InversionError, IrkitError, ParseError,
                          TransformError, fail_at)

from oracles import all_scan_commands, oracle_scan_interpret, oracle_scan_line

actions_strategy = st.lists(st.sampled_from(sorted(scan.ACTIONS)),
                            min_size=1, max_size=40)


@pytest.fixture(scope="module")
def command_space():
    return all_scan_commands()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_repeat():
    assert scan.parse_command("jump twice") == scan.Repeat(
        scan.VerbPhrase("jump"), 2)


def test_parse_atomic():
    assert scan.parse_command("jump") == scan.VerbPhrase("jump")


def test_parse_conjunction():
    command = scan.parse_command("walk left and run thrice")
    assert command == scan.Conjunction(
        "and", scan.VerbPhrase("walk", "left"),
        scan.Repeat(scan.VerbPhrase("run"), 3))


@pytest.mark.parametrize("bad", [
    "jump sideways",        # unknown word
    "turn",                 # bare turn has no denotation
    "jump opposite",        # modifier without direction
    "jump twice thrice",    # trailing word
    "and jump",             # missing left conjunct
    "",
])
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        scan.parse_command(bad)


def test_unknown_word_offset():
    with pytest.raises(ParseError) as err:
        scan.parse_command("jump frobnicate twice")
    assert err.value.offset == len("jump ")


_VERB_LIST = ("jump", "look", "run", "turn", "walk")


# Exact message, byte offset (UTF-8) and expected words of each parse error.
@pytest.mark.parametrize("bad, message, offset, expected", [
    ("", "empty command", 0, ()),
    ("  ", "empty command", 2, ()),
    ("walk opposite", "'opposite' needs a direction", 13, ("left", "right")),
    ("walk opposite twice", "'opposite' needs a direction", 14,
     ("left", "right")),
    ("turn", "bare 'turn' needs a direction", 4, ("left", "right")),
    ("turn twice", "bare 'turn' needs a direction", 5, ("left", "right")),
    ("jump around right after turn", "bare 'turn' needs a direction", 28,
     ("left", "right")),
    ("walk  left   twice and turn", "bare 'turn' needs a direction", 27,
     ("left", "right")),
    ("walk twice thrice", "trailing word 'thrice'", 11, ()),
    ("walk left around", "trailing word 'around'", 10, ()),
    ("jump frobnicate twice", "unknown word 'frobnicate'", 5, ()),
    ("walk twice and Jump", "unknown word 'Jump'", 15, ()),
    ("jump　sideways", "unknown word 'sideways'", 7, ()),
    ("and jump", "expected a verb, got 'and'", 0, _VERB_LIST),
    ("jump and", "missing verb", 8, _VERB_LIST),
    ("run opposite left and", "missing verb", 21, _VERB_LIST),
])
def test_parse_error_table(bad, message, offset, expected):
    with pytest.raises(ParseError) as err:
        scan.parse_command(bad)
    assert (str(err.value), err.value.offset, err.value.expected) == (
        str(ParseError(message, offset, expected)), offset, expected)


@pytest.mark.parametrize("bad", [
    "", "walk opposite twice", "jump around right after turn",
    "walk twice thrice", "jump frobnicate twice", "and jump", "jump and"])
def test_a_malformed_command_finds_its_offset_once(bad, monkeypatch):
    # A table miss raises no ParseError of its own: only the word-by-word
    # parser rescans the text for the offset it reports.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return fail_at(*args, **kwargs)

    monkeypatch.setattr(scan, "fail_at", counted)
    for table in scan.TABLES:
        table.cache_clear()
    with pytest.raises(ParseError):
        scan.parse_command(bad)
    assert len(calls) == 1


def test_whole_grammar_parses(command_space):
    assert len(command_space) == 20910
    for text in command_space:
        scan.parse_command(text)


@pytest.mark.parametrize("bad", [
    "jump sideways", "walk and run after look", "turn", "jump opposite", "",
    "walk twice and turn", "and jump"])
def test_sequence_table_holds_only_the_grammars_sequences(command_space, bad):
    # A sequence enters when its words parse as exactly one sequence: an
    # invalid command, even one with a valid sequence, adds none.
    for table in scan.TABLES:
        table.cache_clear()
    for text in command_space:
        scan.interpret(scan.parse_command(text))
    with pytest.raises(ParseError):
        scan.parse_command(bad)
    assert [t.cache_info().currsize for t in scan.TABLES] == [102, 102]


def test_a_conjunction_enters_each_side_under_its_own_words(monkeypatch):
    for table in scan.TABLES:
        table.cache_clear()
    command = scan.parse_command("walk  left after\tjump twice")
    assert command.op == "after"
    scan.scan_to_rir(command)
    assert [t.cache_info().currsize for t in scan.TABLES] == [2, 2]
    assert (scan._sequence("walk left"), scan._sequence("jump twice")) == (
        command.left, command.right)
    assert scan._sequence.cache_info().hits == 2
    # Both sides are in the table now, so the word-by-word parser is not
    # called again.
    monkeypatch.setattr(scan, "_parse_words", None)
    assert scan.parse_command("walk left after jump twice") == command


def test_table_served_parse_equals_the_word_by_word_parse(command_space,
                                                          monkeypatch):
    for text in command_space:
        scan.parse_command(text)
    word_by_word = scan._parse_words
    # With every sequence in the table, a miss would call None and fail.
    monkeypatch.setattr(scan, "_parse_words", None)
    for text in command_space + ["  walk\tleft   and\u3000run thrice "]:
        assert scan.parse_command(text) == word_by_word(text, text.split())


# ---------------------------------------------------------------------------
# Interpretation: primary vs independent table-driven oracle
# ---------------------------------------------------------------------------


def test_interpret_examples():
    assert scan.interpret(scan.parse_command("jump twice")) == ["JUMP", "JUMP"]
    assert scan.interpret(scan.parse_command("turn opposite left twice")) == [
        "LTURN", "LTURN", "LTURN", "LTURN"]


def test_interpret_agrees_with_oracle_everywhere(command_space):
    for text in command_space:
        ours = " ".join(scan.interpret(scan.parse_command(text)))
        assert ours == oracle_scan_interpret(text), text


def test_interpretation_is_never_empty(command_space):
    for text in command_space[:500]:
        assert scan.interpret(scan.parse_command(text))


# ---------------------------------------------------------------------------
# Reversible IR
# ---------------------------------------------------------------------------


def test_rir_examples():
    assert scan.scan_to_rir(scan.parse_command("jump")) == ["JUMP"]
    assert " ".join(scan.scan_to_rir(scan.parse_command("jump twice"))) == \
        "( JUMP ) ( JUMP )"
    assert " ".join(
        scan.scan_to_rir(scan.parse_command("turn opposite left twice"))) == \
        "( LTURN LTURN ) ( LTURN LTURN )"
    assert " ".join(
        scan.scan_to_rir(scan.parse_command("jump opposite right"))) == \
        "( RTURN RTURN JUMP )"


def test_strip_brackets_inverts_rir_everywhere(command_space):
    for text in command_space:
        command = scan.parse_command(text)
        rir = scan.scan_to_rir(command)
        assert scan.strip_brackets(rir) == scan.interpret(command), text


def test_rir_brackets_balanced_and_shallow(command_space):
    for text in command_space[::7]:
        depth = 0
        max_depth = 0
        for tok in scan.scan_to_rir(scan.parse_command(text)):
            if tok == "(":
                depth += 1
                max_depth = max(max_depth, depth)
            elif tok == ")":
                depth -= 1
                assert depth >= 0
        assert depth == 0
        assert max_depth <= 4


def test_transform_inverts_exactly_through_the_formalism_table(
        command_space):
    # invert∘transform = id, and z_{l,r} of the predicted z_r text is
    # to_lir(z_r), on the whole command space.
    f = formalisms.TABLE["scan"]
    cfg = pipeline.PipelineConfig("scan")
    for text in command_space:
        y = oracle_scan_interpret(text)
        program = pipeline.Program(data.ExampleRecord("0", text, y), cfg)
        rir = program.rir_text()
        assert pipeline.invert_reversible(rir, cfg) == y, text
        assert pipeline._lir_of_rir(rir, cfg) == f.to_lir(program.rir), text


def test_strip_brackets_plain_and_errors():
    assert scan.strip_brackets("( LTURN LTURN )") == ["LTURN", "LTURN"]
    assert scan.strip_brackets("JUMP WALK") == ["JUMP", "WALK"]
    for empty in ("", "( )", "( ( ) )"):
        with pytest.raises(InversionError, match="empty action sequence"):
            scan.strip_brackets(empty)
    with pytest.raises(InversionError):
        scan.strip_brackets("( JUMP")
    with pytest.raises(InversionError):
        scan.strip_brackets(") JUMP (")
    with pytest.raises(InversionError):
        scan.strip_brackets("( JUMPX )")


# ---------------------------------------------------------------------------
# Lossy IR
# ---------------------------------------------------------------------------


def test_lir_run_length_rule():
    assert scan.scan_to_lir(["LTURN"] * 4) == ["LTURN", "A", "A", "A"]
    assert scan.scan_to_lir(["JUMP"]) == ["JUMP"]
    assert scan.scan_to_lir("WALK WALK JUMP JUMP JUMP") == [
        "WALK", "A", "JUMP", "A", "A"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lir_repetition_sizes(n):
    assert scan.scan_to_lir(["RUN"] * n) == ["RUN"] + ["A"] * (n - 1)


def test_lir_expand_examples():
    assert scan.scan_lir_expand("LTURN A A A") == ["LTURN"] * 4
    assert scan.scan_lir_expand("JUMP WALK") == ["JUMP", "WALK"]
    with pytest.raises(TransformError):
        scan.scan_lir_expand("A JUMP")


def test_lir_round_trip_everywhere(command_space):
    for text in command_space:
        actions = scan.interpret(scan.parse_command(text))
        lir = scan.scan_to_lir(actions)
        assert scan.scan_lir_expand(lir) == actions, text


def test_lir_invariants_everywhere(command_space):
    for text in command_space[::11]:
        actions = scan.interpret(scan.parse_command(text))
        lir = scan.scan_to_lir(actions)
        assert len(lir) == len(actions)
        assert lir[0] != scan.ANON_ACTION
        previous = None
        for tok in lir:
            if tok == scan.ANON_ACTION:
                assert previous is not None
            else:
                previous = tok


@settings(max_examples=200, deadline=None)
@given(actions=actions_strategy)
def test_lir_round_trip_random_sequences(actions):
    lir = scan.scan_to_lir(actions)
    assert scan.scan_lir_expand(lir) == actions
    assert len(lir) == len(actions)


def test_lir_composes_with_brackets():
    rir = scan.scan_to_rir(scan.parse_command("turn opposite left twice"))
    composed = scan.scan_to_lir(rir)
    assert " ".join(composed) == "( LTURN A ) ( LTURN A )"
    assert scan.scan_lir_expand(composed) == rir


# ---------------------------------------------------------------------------
# File adapter
# ---------------------------------------------------------------------------


def test_scan_file_records_are_consistent(scan_records):
    assert len(scan_records) == 24
    for record in scan_records:
        command = scan.parse_command(record.x)
        assert " ".join(scan.interpret(command)) == record.y


def test_line_split_agrees_with_the_regex(tmp_path, differential):
    # Seeded lines as the reader sees them, which hold no line break.
    rng = random.Random("scan lines")
    spaces = [sep for sep in differential.SEPARATORS
              if "\n" not in sep] + ["", "\x85", "\x1c"]
    words = ["IN:", "OUT:", "OUT:", "jump", "twice", "JUMP", "IN", ":", ""]
    lines = []
    while len(lines) < 3000:
        pieces = ["IN:" if rng.random() < 0.8 else rng.choice(words)]
        pieces += [rng.choice(words) for _ in range(rng.randint(0, 6))]
        line = "".join(p + rng.choice(spaces) for p in pieces)
        if line.strip():
            lines.append(line)
    fields = [oracle_scan_line(line.strip()) for line in lines]
    valid = [line for line, xy in zip(lines, fields) if xy]
    path = tmp_path / "valid.txt"
    path.write_text("".join(line + "\n" for line in valid), encoding="utf-8")
    assert [(r.x, r.y) for r in data.read_scan_records(path)] == [
        xy for xy in fields if xy]
    assert sum(xy == ("", "") for xy in fields) > 0
    assert sum(line.count("OUT:") > 1 for line in valid) > 100
    invalid = [line for line, xy in zip(lines, fields) if not xy]
    assert len(invalid) > 100
    for line in invalid:
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(IrkitError, match="not an IN:/OUT: line"):
            list(data.read_scan_records(path))
