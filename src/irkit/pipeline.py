"""Two-stage data staging and prediction post-processing.

Staging turns ``(id, x, y)`` records into seq2seq training pairs for one of
the supported modes; post-processing maps raw model output files back to
executable programs, inverting the reversible transform and routing lossy
modes through a second-stage request file.

Per-record failures are quarantined with a reason, never dropped silently,
and never abort a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import formalisms
from . import sparql as sparql_ir
from .data import (ExampleRecord, QuarantineEntry, T, check_field,
                   first_of_each_id)
from .errors import ConfigError, IrkitError, TransformError

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


class StagePair(NamedTuple):
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
        if self.cat_budget < 1:
            raise ConfigError("cat budget must be at least 1 token, not "
                              f"{self.cat_budget}")


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
        return self.formalism.to_lir(self.rir)

    def cat_text(self) -> str:
        """z_l, the separator and ``y``, which the final step of lir-cat
        splits at the first separator."""
        text = self.lir_text() + self.cfg.separator + self.record.y
        if _split_cat(text, self.cfg) != self.record.y:
            raise TransformError("z_l holds the separator, so the program "
                                 "could not be split from it")
        return text

    def varified_text(self) -> str:
        return self.formalism.varify(self.parsed)


def programs(records: Iterable[ExampleRecord], cfg: PipelineConfig,
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


def _lir_of_program(text: str, cfg: PipelineConfig) -> str:
    """z_l of a predicted program: the path ``Program.lir_text`` takes for
    gold ``y``."""
    f = formalisms.TABLE[cfg.formalism]
    return f.to_lir(f.parse(text))


def invert_reversible(text: str, cfg: PipelineConfig) -> str:
    """Apply the exact inverse to a z_r surface string."""
    return formalisms.TABLE[cfg.formalism].from_rir(text, cfg)


def _lir_of_rir(text: str, cfg: PipelineConfig) -> str:
    """z_{l,r} of a predicted z_r: the path ``Program.lir_rir_text`` takes
    for gold ``y``."""
    f = formalisms.TABLE[cfg.formalism]
    return f.to_lir(f.parse_rir(text))


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
                    _lir_of_rir, invert_reversible),
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


def run(items: Iterable[tuple[str, T]], fn: Callable[[str, T], tuple],
        stage: str, quarantined: list[QuarantineEntry],
        keep_failed: bool = False) -> Iterator[tuple]:
    """The record loop: yield the row ``fn(id, item)`` for each ``(id,
    item)`` as it is reached.  An item whose ``fn`` raises an ``IrkitError``
    becomes an entry for ``stage`` in ``quarantined``; its row is dropped,
    or kept as ``(id, "")`` with ``keep_failed`` so that output files keep
    every id."""
    for item_id, item in items:
        try:
            yield fn(item_id, item)
        except IrkitError as exc:
            quarantined.append(QuarantineEntry(item_id, stage, str(exc)))
            if keep_failed:
                yield item_id, ""


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def prepare_stage1(records: Iterable[ExampleRecord], mode: str,
                   cfg: PipelineConfig, quarantined: list[QuarantineEntry],
                   parsed: Sequence[object] | None = None,
                   over_budget: list[str] | None = None,
                   ) -> Iterator[StagePair]:
    """Build (x, target) pairs for the first seq2seq stage.  ``parsed``
    holds the records' programs if the caller parsed them already; the ids
    of lir-cat targets over ``cfg.cat_budget`` tokens go to ``over_budget``."""
    row = check_mode(mode)
    if mode == VARIFIED and formalisms.TABLE[cfg.formalism].varify is None:
        raise ConfigError("the varified mode marks variables and entities "
                          f"and is not defined for {cfg.formalism}")

    def pair(record_id: str, p: Program) -> StagePair:
        source = check_field(p.record.x, "utterance", record_id)
        target = check_field(row.stage1_target(p), "target", record_id)
        if (mode == LIR_CAT and over_budget is not None
                and len(target.split()) > cfg.cat_budget):
            over_budget.append(record_id)
        return StagePair(record_id, source, target)

    return run(programs(records, cfg, parsed), pair, "stage1", quarantined)


def prepare_stage2(records: Iterable[ExampleRecord], mode: str,
                   cfg: PipelineConfig, quarantined: list[QuarantineEntry],
                   parsed: Sequence[object] | None = None,
                   ) -> Iterator[StagePair]:
    """Build (x ++ sep ++ gold z, target) pairs for the second stage."""
    row = check_mode(mode)
    if row.stage2_ir is None:
        raise ConfigError(f"mode {mode!r} has no second stage")

    def pair(record_id: str, p: Program) -> StagePair:
        z = check_field(row.stage2_ir(p), "gold IR", record_id)
        target = check_field(row.stage2_target(p), "target", record_id)
        x = check_field(p.record.x, "utterance", record_id)
        return StagePair(record_id, x + cfg.separator + z, target)

    return run(programs(records, cfg, parsed), pair, "stage2", quarantined)


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def postprocess_stage1(preds: Iterable[tuple[str, str]] | None, mode: str,
                       cfg: PipelineConfig,
                       quarantined: list[QuarantineEntry],
                       records: Iterable[ExampleRecord] | None = None,
                       ) -> Iterator[tuple[str, str]]:
    """Turn stage-1 model output into final programs (single-stage modes) or
    into stage-2 source lines (two-stage modes).

    Unusable predictions are flagged and excluded from the stage-2 request;
    they surface as automatic mismatches at evaluation time.
    """
    row = check_mode(mode)
    if preds is None and not row.reads_gold_ir:
        raise ConfigError("stage-1 predictions are required for this mode")
    if row.stage2_ir is None:
        return run(preds, lambda i, text: (i, row.final(text, cfg)),
                   "postprocess1", quarantined, keep_failed=True)
    if records is None:
        raise ConfigError(f"{mode} post-processing requires the dataset "
                          "records (utterances are part of stage-2 sources)")

    def source(record: ExampleRecord, z: str) -> tuple[str, str]:
        return record.id, (check_field(record.x, "utterance", record.id)
                           + cfg.separator + z)

    # Stage 2 of a mode that reads the gold IR gets every record, as
    # ``prepare --stage 2`` does, repeated ids included.
    if row.reads_gold_ir:
        return run(programs(records, cfg),
                   lambda _, p: source(p.record, row.stage2_ir(p)),
                   "postprocess1", quarantined)
    by_id = dict(first_of_each_id(((r.id, r) for r in records), "data",
                                  quarantined))

    def predicted(record_id: str, text: str) -> tuple[str, str]:
        if record_id not in by_id:
            raise IrkitError("prediction id not in dataset")
        return source(by_id[record_id], row.z_of_output(text, cfg))

    return run(first_of_each_id(preds, "postprocess1", quarantined),
               predicted, "postprocess1", quarantined)


def finalize(stage2_preds: Iterable[tuple[str, str]], mode: str,
             cfg: PipelineConfig, quarantined: list[QuarantineEntry],
             records: Iterable[ExampleRecord] | None = None,
             ) -> Iterator[tuple[str, str]]:
    """Map stage-2 output to final programs.

    With ``records`` given, the predictions and the records are joined by
    id, each under :func:`first_of_each_id`.  A prediction whose id is not
    in the dataset is flagged and its row dropped, and ids missing from the
    predictions (dropped as invalid upstream) are carried through as one
    empty, flagged row each so that evaluation denominators stay intact.
    Once the rows are drained, ``quarantined`` gets the id-check entries,
    then the final step's failures, then the missing ids.
    """
    row = check_mode(mode)
    if row.stage2_ir is None and mode != LIR_CAT:
        raise ConfigError(f"mode {mode!r} has no second stage to finalize")
    unmatched: dict[str, bool] = {}  # dataset ids with no prediction yet
    checked, failed = [], []  # id-check and final-step entries

    def listed(record_id: str, text: str) -> tuple[str, str]:
        if not unmatched.pop(record_id, False):
            raise IrkitError("prediction id not in dataset")
        return record_id, text

    def missing() -> Iterator[tuple[str, str]]:
        quarantined.extend(checked + failed)
        for record_id in unmatched:
            quarantined.append(QuarantineEntry(
                record_id, "finalize",
                "no stage-2 prediction (dropped upstream)"))
            yield record_id, ""

    if records is not None:
        unmatched = dict(first_of_each_id(((r.id, True) for r in records),
                                          "data", checked))
        stage2_preds = run(first_of_each_id(stage2_preds, "finalize",
                                            checked),
                           listed, "finalize", checked)
    final = run(stage2_preds, lambda i, text: (i, row.final(text, cfg)),
                "finalize", failed, keep_failed=True)
    return chain(final, missing())
