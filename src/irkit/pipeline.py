"""Two-stage data staging and prediction post-processing.

Staging turns ``(id, x, y)`` records into seq2seq training pairs for one of
the supported modes; post-processing maps raw model output files back to
executable programs, inverting the reversible transform and routing lossy
modes through a second-stage request file.

Per-record failures are quarantined with a reason, never dropped silently,
and never abort a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import formalisms
from . import sparql as sparql_ir
from .data import ExampleRecord, QuarantineEntry, check_field
from .errors import ConfigError, IrkitError

T = TypeVar("T")

FORMALISMS = tuple(formalisms.TABLE)

BASELINE = "baseline"
RIR = "rir"
LIR_D = "lir-d"
LIR_I = "lir-i"
LIR_D_RIR = "lir-d-rir"
LIR_I_RIR = "lir-i-rir"
LIR_ORACLE = "lir-oracle"
LIR_CAT = "lir-cat"
VARIFIED = "varified"


@dataclass(frozen=True, slots=True)
class StagePair:
    id: str
    source: str
    target: str


@dataclass(slots=True)
class PipelineConfig:
    formalism: str
    separator: str = " ; "
    rir_options: sparql_ir.RirOptions = sparql_ir.RirOptions()
    relation_dict: sparql_ir.RelationDictionary | None = None
    cat_budget: int = 512

    def __post_init__(self) -> None:
        formalisms.get(self.formalism)
        if not self.separator:
            raise ConfigError("separator must be non-empty")


@dataclass(slots=True)
class PrepareResult:
    pairs: list[StagePair] = field(default_factory=list)
    quarantined: list[QuarantineEntry] = field(default_factory=list)
    n_over_budget: int = 0


@dataclass(slots=True)
class PostprocessResult:
    """Stage-1 post-processing output: exactly one of ``final`` (single-stage
    modes) or ``stage2_sources`` (two-stage modes) is populated."""

    final: list[tuple[str, str]] | None = None
    stage2_sources: list[tuple[str, str]] | None = None
    flagged: list[QuarantineEntry] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Per-record transforms
# ---------------------------------------------------------------------------


class Program:
    """One record's program.  ``y`` is parsed and z_r built at most once
    each, so every output the record produces reuses them.  A command's
    loop makes one per record and drops it after that record's step.

    ``parsed`` may be handed in from an earlier parse in the same command
    (the relation-dictionary build); an ``IrkitError`` in its place is what
    that parse raised, raised again where the program is first needed.
    """

    __slots__ = ("record", "cfg", "formalism", "_parsed", "_rir")

    def __init__(self, record: ExampleRecord, cfg: PipelineConfig,
                 parsed: object = None) -> None:
        self.record = record
        self.cfg = cfg
        self.formalism = formalisms.TABLE[cfg.formalism]
        self._parsed = parsed
        self._rir = None

    @property
    def parsed(self):
        """The parsed ``y``."""
        if self._parsed is None:
            self._parsed = self.formalism.parse(self.record.y)
        if isinstance(self._parsed, IrkitError):
            raise self._parsed
        return self._parsed

    @property
    def rir(self):
        """The z_r object."""
        if self._rir is None:
            self._rir = self.formalism.to_rir(self)
        return self._rir

    def gold(self) -> str:
        return self.record.y

    def rir_text(self) -> str:
        """z_r as a surface string."""
        return self.formalism.render_rir(self.rir)

    def lir_text(self) -> str:
        """z_l as a surface string."""
        return self.formalism.to_lir(self.parsed)

    def lir_rir_text(self) -> str:
        """z_{l,r}: the reversible transform first, then the lossy one."""
        return self.formalism.lir_of_rir(self.rir)

    def cat_text(self) -> str:
        return self.lir_text() + self.cfg.separator + self.record.y

    def varified_text(self) -> str:
        return self.formalism.varify(self.parsed)


def programs(records: Sequence[ExampleRecord], cfg: PipelineConfig,
             parsed: Sequence[object] | None = None,
             ) -> Iterator[tuple[str, Program]]:
    """``(id, Program)`` per record, each made as the loop reaches it;
    ``parsed`` holds programs already parsed, by record position."""
    return ((r.id, Program(r, cfg, q))
            for r, q in zip(records, parsed or repeat(None)))


def parse_each(texts: Iterable[str], formalism: str) -> list[object]:
    """Each program parsed, or the ``IrkitError`` its parse raised, by
    position: for a step that needs every program before the record loop
    and then hands them to it."""
    parse = formalisms.TABLE[formalism].parse
    parsed: list[object] = []
    for text in texts:
        try:
            parsed.append(parse(text))
        except IrkitError as exc:
            parsed.append(exc)
    return parsed


def reversible_ir(record: ExampleRecord, cfg: PipelineConfig) -> str:
    """z_r of one record as a surface string."""
    return Program(record, cfg).rir_text()


def _lir_of_program(text: str, cfg: PipelineConfig) -> str:
    """z_l of a predicted program: the path ``Program.lir_text`` takes for
    gold ``y``."""
    f = formalisms.TABLE[cfg.formalism]
    return f.to_lir(f.parse(text))


def invert_reversible(text: str, cfg: PipelineConfig) -> str:
    """Apply the exact inverse to a z_r surface string."""
    return formalisms.TABLE[cfg.formalism].from_rir(text, cfg)


def lossy_of_prediction(text: str, cfg: PipelineConfig,
                        rir_form: bool) -> str:
    """Apply the lossy transform to a predicted program (or predicted z_r):
    the same one that built the gold z of training."""
    if rir_form:
        f = formalisms.TABLE[cfg.formalism]
        return f.lir_of_rir(f.parse_rir(text))
    return _lir_of_program(text, cfg)


# ---------------------------------------------------------------------------
# The mode table
# ---------------------------------------------------------------------------

RecordFn = Callable[[Program], str]
OutputFn = Callable[[str, PipelineConfig], str]


def _as_is(text: str, cfg: PipelineConfig) -> str:
    return text


def _split_cat(text: str, cfg: PipelineConfig) -> str:
    _, sep, tail = text.partition(cfg.separator)
    if not sep:
        raise IrkitError("output has no separator to split the program "
                         "from the IR")
    return tail


@dataclass(frozen=True, slots=True)
class Mode:
    """One row of the pipeline-modes table in the README.

    ``stage2_ir`` is the gold z of stage-2 sources, None for single-stage
    modes.  ``z_of_output`` turns a stage-1 prediction into that z; None
    means stage 2 reads the gold z and stage-1 output is ignored.
    ``final`` turns the last model's output into a program.
    """

    stage1_target: RecordFn
    stage2_ir: RecordFn | None = None
    stage2_target: RecordFn | None = None
    z_of_output: OutputFn | None = None
    final: OutputFn = _as_is

    @property
    def reads_gold_ir(self) -> bool:
        return self.stage2_ir is not None and self.z_of_output is None

    def inverts(self, stage: int | None = None) -> bool:
        """Whether post-processing ``stage`` (any stage, if None) applies
        the exact inverse."""
        last = 1 if self.stage2_ir is None else 2
        return self.final is invert_reversible and stage in (None, last)


MODE_TABLE: dict[str, Mode] = {
    BASELINE: Mode(Program.gold),
    RIR: Mode(Program.rir_text, final=invert_reversible),
    LIR_D: Mode(Program.lir_text, Program.lir_text, Program.gold, _as_is),
    LIR_I: Mode(Program.gold, Program.lir_text, Program.gold,
                _lir_of_program),
    LIR_D_RIR: Mode(Program.lir_rir_text, Program.lir_rir_text,
                    Program.rir_text, _as_is, invert_reversible),
    LIR_I_RIR: Mode(Program.rir_text, Program.lir_rir_text, Program.rir_text,
                    lambda text, cfg: lossy_of_prediction(text, cfg, True),
                    invert_reversible),
    LIR_ORACLE: Mode(Program.lir_text, Program.lir_text, Program.gold),
    LIR_CAT: Mode(Program.cat_text, final=_split_cat),
    VARIFIED: Mode(Program.varified_text,
                   final=lambda text, cfg: sparql_ir.strip_var_markers(text)),
}

MODES = tuple(MODE_TABLE)
TWO_STAGE_MODES = frozenset(m for m, row in MODE_TABLE.items()
                            if row.stage2_ir is not None)


def check_mode(mode: str) -> Mode:
    if mode not in MODE_TABLE:
        raise ConfigError(f"unknown mode {mode!r}; expected one of "
                          + ", ".join(MODES))
    return MODE_TABLE[mode]


def quarantine_map(items: Iterable[tuple[str, T]],
                   fn: Callable[[str, T], object], stage: str,
                   keep_failed: bool = False,
                   ) -> tuple[list[tuple[str, object]], list[QuarantineEntry]]:
    """Apply ``fn(id, item)`` to each ``(id, item)``.

    An item whose ``fn`` raises an ``IrkitError`` becomes a quarantine entry
    for ``stage``; its output is dropped, or kept as ``""`` with
    ``keep_failed`` so that output files keep every id.
    """
    outputs: list[tuple[str, object]] = []
    quarantined: list[QuarantineEntry] = []
    for item_id, item in items:
        try:
            outputs.append((item_id, fn(item_id, item)))
        except IrkitError as exc:
            quarantined.append(QuarantineEntry(item_id, stage, str(exc)))
            if keep_failed:
                outputs.append((item_id, ""))
    return outputs, quarantined


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def _staged(records: Sequence[ExampleRecord], cfg: PipelineConfig,
            parsed: Sequence[object] | None, stage: str,
            fn: Callable[[str, Program], tuple[str, str]]) -> PrepareResult:
    pairs, quarantined = quarantine_map(programs(records, cfg, parsed), fn,
                                        stage)
    return PrepareResult([StagePair(i, *pair) for i, pair in pairs],
                         quarantined)


def prepare_stage1(records: Sequence[ExampleRecord], mode: str,
                   cfg: PipelineConfig,
                   parsed: Sequence[object] | None = None) -> PrepareResult:
    """Build (x, target) pairs for the first seq2seq stage.  ``parsed``
    holds the records' programs if the caller parsed them already."""
    row = check_mode(mode)
    if mode == VARIFIED and formalisms.TABLE[cfg.formalism].varify is None:
        raise ConfigError("the varified mode marks variables and entities "
                          f"and is not defined for {cfg.formalism}")
    result = _staged(records, cfg, parsed, "stage1", lambda _, p: (
        check_field(p.record.x, "utterance", p.record.id),
        check_field(row.stage1_target(p), "target", p.record.id)))
    if mode == LIR_CAT:
        result.n_over_budget = sum(len(p.target.split()) > cfg.cat_budget
                                   for p in result.pairs)
    return result


def prepare_stage2(records: Sequence[ExampleRecord], mode: str,
                   cfg: PipelineConfig,
                   parsed: Sequence[object] | None = None) -> PrepareResult:
    """Build (x ++ sep ++ gold z, target) pairs for the second stage."""
    row = check_mode(mode)
    if row.stage2_ir is None:
        raise ConfigError(f"mode {mode!r} has no second stage")

    def pair(_: str, p: Program) -> tuple[str, str]:
        r = p.record
        z = check_field(row.stage2_ir(p), "gold IR", r.id)
        target = check_field(row.stage2_target(p), "target", r.id)
        return check_field(r.x, "utterance", r.id) + cfg.separator + z, target

    return _staged(records, cfg, parsed, "stage2", pair)


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def postprocess_stage1(preds: Sequence[tuple[str, str]] | None, mode: str,
                       cfg: PipelineConfig,
                       records: Sequence[ExampleRecord] | None = None,
                       ) -> PostprocessResult:
    """Turn stage-1 model output into final programs (single-stage modes) or
    into stage-2 source lines (two-stage modes).

    Unusable predictions are flagged and excluded from the stage-2 request;
    they surface as automatic mismatches at evaluation time.
    """
    row = check_mode(mode)
    if preds is None and not row.reads_gold_ir:
        raise ConfigError("stage-1 predictions are required for this mode")
    if row.stage2_ir is None:
        final, flagged = quarantine_map(
            preds, lambda _, text: row.final(text, cfg), "postprocess1",
            keep_failed=True)
        return PostprocessResult(final=final, flagged=flagged)
    if records is None:
        raise ConfigError(f"{mode} post-processing requires the dataset "
                          "records (utterances are part of stage-2 sources)")
    by_id = {r.id: r for r in records}

    def source(record: ExampleRecord, z: str) -> str:
        return (check_field(record.x, "utterance", record.id)
                + cfg.separator + z)

    def predicted(record_id: str, text: str) -> str:
        if record_id not in by_id:
            raise IrkitError("prediction id not in dataset")
        return source(by_id[record_id], row.z_of_output(text, cfg))

    # Stage 2 of a mode that reads the gold IR gets every record, as
    # ``prepare --stage 2`` does, repeated ids included.
    if row.reads_gold_ir:
        sources, flagged = quarantine_map(
            programs(records, cfg),
            lambda _, p: source(p.record, row.stage2_ir(p)), "postprocess1")
    else:
        sources, flagged = quarantine_map(preds, predicted, "postprocess1")
    return PostprocessResult(stage2_sources=sources, flagged=flagged)


def finalize(stage2_preds: Sequence[tuple[str, str]], mode: str,
             cfg: PipelineConfig,
             records: Sequence[ExampleRecord] | None = None,
             ) -> tuple[list[tuple[str, str]], list[QuarantineEntry]]:
    """Map stage-2 output to final programs.

    With ``records`` given, a prediction whose id is not in the dataset or
    repeats an earlier prediction's is flagged and its row dropped, and ids
    missing from the predictions (dropped as invalid upstream) are carried
    through as empty, flagged rows so that evaluation denominators stay
    intact.
    """
    row = check_mode(mode)
    if row.stage2_ir is None and mode != LIR_CAT:
        raise ConfigError(f"mode {mode!r} has no second stage to finalize")
    flagged: list[QuarantineEntry] = []
    if records is not None:
        known = {r.id for r in records}
        seen: set[str] = set()

        def listed(record_id: str, text: str) -> str:
            if record_id not in known:
                raise IrkitError("prediction id not in dataset")
            if record_id in seen:
                raise IrkitError("repeated prediction id")
            seen.add(record_id)
            return text

        stage2_preds, flagged = quarantine_map(stage2_preds, listed,
                                               "finalize")
    final, failed = quarantine_map(
        stage2_preds, lambda _, text: row.final(text, cfg), "finalize",
        keep_failed=True)
    flagged += failed
    if records is not None:
        have = {record_id for record_id, _ in final}
        for record in records:
            if record.id not in have:
                flagged.append(QuarantineEntry(
                    record.id, "finalize",
                    "no stage-2 prediction (dropped upstream)"))
                final.append((record.id, ""))
    return final, flagged
