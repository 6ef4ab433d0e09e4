"""Command-line entry point.

Subcommands, listed in ``COMMANDS``: ``transform``, ``invert``,
``prepare``, ``postprocess``, ``evaluate``, ``stats``.  ``main`` builds the
parser of the command it is given alone; the full tree of ``build_parser``
only prints help and usage errors.  Every command is deterministic:
identical inputs and flags produce byte-identical outputs.  Per-record
failures go to a quarantine report and do not fail the run unless
``--strict`` is set; nonzero exit status is reserved for configuration and
I/O errors (and for quarantines under ``--strict``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import data, formalisms, metrics, pipeline
from . import sparql as sparql_ir
from .data import ExampleRecord, QuarantineEntry
from .errors import ConfigError, IrkitError


def _add_common(parser: argparse.ArgumentParser, *, rir_flags=False,
                sep=False, dict_flag=False, input_required=True) -> None:
    parser.add_argument("--formalism", required=True,
                        choices=pipeline.FORMALISMS)
    if rir_flags:
        parser.add_argument("--no-merge", action="store_true",
                            help="do not merge shared-key conjuncts (sparql)")
        parser.add_argument("--no-shorten", action="store_true",
                            help="do not truncate relation names (sparql)")
        parser.add_argument("--no-brackets", action="store_true",
                            help="do not bracket conjunct groups (sparql)")
    if sep:
        parser.add_argument("--sep", default=" ; ",
                            help="separator between x and z (default ' ; ')")
    if dict_flag:
        parser.add_argument("--dict", dest="dict_path",
                            help="relation dictionary sidecar (sparql); "
                                 "built from the input if the file is absent")
    parser.add_argument("--in", dest="input", required=input_required,
                        help="input path")
    parser.add_argument("--out", dest="output", required=True,
                        help="output path")
    parser.add_argument("--quarantine",
                        help="quarantine report path (default: <out>"
                             ".quarantine.jsonl, written only when needed)")
    parser.add_argument("--strict", action="store_true",
                        help="treat any quarantined record as a failure")


def _rir_options(args: argparse.Namespace) -> sparql_ir.RirOptions:
    return sparql_ir.RirOptions(
        merge_conjuncts=not getattr(args, "no_merge", False),
        shorten_relations=not getattr(args, "no_shorten", False),
        brackets=not getattr(args, "no_brackets", False))


def _tokenizer(spec: str) -> Callable[[str], list[str]]:
    if spec == "whitespace":
        return metrics.whitespace_tokenizer
    if spec.startswith("vocab:"):
        return metrics.WordPieceTokenizer.from_file(spec[len("vocab:"):])
    raise ConfigError(f"unknown tokenizer {spec!r} "
                      "(expected 'whitespace' or 'vocab:<path>')")


def _relation_dict(args, required: bool,
                   corpus: Iterable[ExampleRecord] | None = None,
                   ) -> tuple[sparql_ir.RelationDictionary | None,
                              Iterable[ExampleRecord] | None,
                              list[object] | None]:
    """The ``--dict`` sidecar, for a formalism whose z_r uses one, with
    ``corpus`` and its programs.  An absent file is built from ``corpus``
    and saved, so that later invocations invert consistently: a pre-pass
    that returns the records as a list and their programs by position, for
    the command's loop to reuse.  Otherwise ``corpus`` comes back unread."""
    if not formalisms.get(args.formalism).needs_dict:
        return None, corpus, None
    path = args.dict_path
    if path is None:
        if required:
            raise ConfigError("--dict is required for sparql IR transforms")
        return None, corpus, None
    if Path(path).exists():
        return sparql_ir.RelationDictionary.load(path), corpus, None
    corpus = [] if corpus is None else list(corpus)
    if not corpus:
        raise ConfigError(f"dictionary {path!r} does not exist and there is "
                          "no corpus to build it from")
    # Unparseable programs are left out; the command's loop quarantines them.
    parsed = pipeline.parse_each((r.y for r in corpus), args.formalism)
    rdict = sparql_ir.build_relation_dict(
        q for q in parsed if not isinstance(q, IrkitError))
    rdict.save(path)
    print(f"built relation dictionary with {len(rdict.forward)} entries "
          f"-> {path}")
    return rdict, corpus, parsed


def _write_quarantine(args, entries: list[QuarantineEntry]) -> int:
    """Write the report (if any) and translate --strict into an exit code.
    Without an output path (``evaluate`` with no --out) only the count is
    printed."""
    if entries:
        path = args.quarantine or (args.output
                                   and f"{args.output}.quarantine.jsonl")
        if path:
            data.write_quarantine(path, entries)
        print(f"quarantined {len(entries)} record(s)"
              + (f" -> {path}" if path else ""), file=sys.stderr)
    return 1 if (entries and args.strict) else 0


def _fields(report) -> dict:
    """A report dataclass's fields by name, as they are: JSON writes a
    tuple as a list, and ``dataclasses.asdict`` would deep-copy every
    string of ``per_example``."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _write_json(path: str, payload: dict) -> None:
    data.write_atomic(path, [json.dumps(payload, indent=2) + "\n"])


def _gold_pairs(path: str) -> list[tuple[str, str]]:
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".json", ".txt"):
        return [(r.id, r.y) for r in data.read_records(path)]
    return list(data.read_pairs_tsv(path))


def _program_column(path: str) -> list[str]:
    return [value for _, value in _gold_pairs(path)]


# ---------------------------------------------------------------------------
# Commands.  transform, invert, prepare and postprocess are each one lazy
# chain, reader -> ``pipeline.run`` -> ``data.write_*``; only a pre-pass
# and the id sets of a join (``data.first_of_each_id``) grow with an input.
# ---------------------------------------------------------------------------


def cmd_transform(args: argparse.Namespace) -> int:
    records = data.read_records(args.input)
    formalism = formalisms.get(args.formalism)
    options = _rir_options(args)
    of_program = {"varify": formalism.varify, "template": formalism.template}
    if args.ir in of_program and of_program[args.ir] is None:
        raise ConfigError(f"--ir {args.ir} is not defined for "
                          f"{args.formalism}")
    transform = {"rir": pipeline.Program.rir_text,
                 "lir": pipeline.Program.lir_text,
                 "lir+rir": pipeline.Program.lir_rir_text}.get(
        args.ir, lambda p: of_program[args.ir](p.parsed))
    rdict = parsed = None
    if args.ir in ("rir", "lir+rir") and options.shorten_relations:
        rdict, records, parsed = _relation_dict(args, True, records)
    cfg = pipeline.PipelineConfig(args.formalism, rir_options=options,
                                  relation_dict=rdict)
    quarantined: list[QuarantineEntry] = []
    n_ok = data.write_pairs_tsv(args.output, pipeline.run(
        pipeline.programs(records, cfg, parsed),
        lambda i, p: (i, transform(p)), "transform", quarantined))
    print(f"transform --ir {args.ir}: {n_ok} ok, "
          f"{len(quarantined)} quarantined -> {args.output}")
    return _write_quarantine(args, quarantined)


def cmd_invert(args: argparse.Namespace) -> int:
    rows = data.read_pairs_tsv(args.input)
    rdict = _relation_dict(args, True)[0]
    cfg = pipeline.PipelineConfig(args.formalism, relation_dict=rdict)
    quarantined: list[QuarantineEntry] = []
    n_rows = data.write_pairs_tsv(args.output, pipeline.run(
        rows, lambda i, text: (i, pipeline.invert_reversible(text, cfg)),
        "invert", quarantined, keep_failed=True))
    print(f"invert: {n_rows - len(quarantined)} ok, "
          f"{len(quarantined)} flagged -> {args.output}")
    return _write_quarantine(args, quarantined)


def cmd_prepare(args: argparse.Namespace) -> int:
    records = data.read_records(args.input)
    row = pipeline.check_mode(args.mode)
    options = _rir_options(args)
    rdict = parsed = None
    if options.shorten_relations and row.inverts():
        rdict, records, parsed = _relation_dict(args, True, records)
    cfg = pipeline.PipelineConfig(args.formalism, separator=args.sep,
                                  rir_options=options, relation_dict=rdict,
                                  cat_budget=args.cat_budget)
    quarantined: list[QuarantineEntry] = []
    over_budget: list[str] = []
    n_staged = data.write_stage_tsv(args.output, (
        pipeline.prepare_stage1(records, args.mode, cfg, quarantined, parsed,
                                over_budget) if args.stage == 1
        else pipeline.prepare_stage2(records, args.mode, cfg, quarantined,
                                     parsed)))
    print(f"prepare --mode {args.mode} --stage {args.stage}: "
          f"{n_staged} staged, {len(quarantined)} "
          f"quarantined -> {args.output}")
    if over_budget:
        print(f"note: {len(over_budget)} target(s) exceed the "
              f"{args.cat_budget}-token budget (kept, not truncated)")
    return _write_quarantine(args, quarantined)


def cmd_postprocess(args: argparse.Namespace) -> int:
    row = pipeline.check_mode(args.mode)
    options = _rir_options(args)
    rdict = _relation_dict(args, options.shorten_relations
                           and row.inverts(args.stage))[0]
    cfg = pipeline.PipelineConfig(args.formalism, separator=args.sep,
                                  rir_options=options, relation_dict=rdict)
    records = data.read_records(args.data) if args.data else None
    preds = data.read_pairs_tsv(args.input) if args.input else None
    if preds is None and not (args.stage == 1 and row.reads_gold_ir):
        raise ConfigError("--in (model predictions) is required for this "
                          "mode and stage")
    quarantined: list[QuarantineEntry] = []
    if args.stage == 2:
        rows = pipeline.finalize(preds, args.mode, cfg, quarantined, records)
    else:
        # An input this stage does not use is still read, to validate it.
        for _ in (records if row.stage2_ir is None and records is not None
                  else preds if row.reads_gold_ir and preds is not None
                  else ()):
            pass
        rows = pipeline.postprocess_stage1(preds, args.mode, cfg,
                                           quarantined, records)
    what = ("stage-2 source(s)" if args.stage == 1 and row.stage2_ir
            else "final prediction(s)")
    n_rows = data.write_pairs_tsv(args.output, rows)
    print(f"postprocess --stage {args.stage}: {n_rows} {what} "
          f"-> {args.output}")
    return _write_quarantine(args, quarantined)


def cmd_evaluate(args: argparse.Namespace) -> int:
    preds = list(data.read_pairs_tsv(args.input))
    golds = _gold_pairs(args.gold)
    quarantined: list[QuarantineEntry] = []
    report = metrics.exact_match(preds, golds, args.formalism, quarantined)
    payload = _fields(report)
    payload["config"] = {"formalism": args.formalism, "mode": args.mode}
    if args.output:
        _write_json(args.output, payload)
    print(f"exact match: {report.exact_match:.1f} "
          f"({report.n_correct}/{report.n_total} correct, "
          f"{report.n_invalid} invalid)")
    return _write_quarantine(args, quarantined)


def cmd_stats(args: argparse.Namespace) -> int:
    programs = _program_column(args.input)
    tokenizer = _tokenizer(args.tokenizer)
    payload: dict = {
        "config": {"formalism": args.formalism, "tokenizer": args.tokenizer},
        "n_programs": len(programs),
        "avg_length": metrics.avg_length(programs, tokenizer),
    }
    if args.train:
        train = _program_column(args.train)
        structure = metrics.new_structure_rate(train, programs,
                                               args.formalism)
        payload.update(_fields(structure))
        print(f"new structure rate: {structure.new_structure_rate:.1f}")
    print(f"avg length ({args.tokenizer}): {payload['avg_length']:.1f}")
    if args.output:
        _write_json(args.output, payload)
    return 0


def _transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ir", required=True,
                   choices=["rir", "lir", "lir+rir", "varify", "template"])
    _add_common(p, rir_flags=True, dict_flag=True)


def _prepare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", required=True, choices=list(pipeline.MODES))
    p.add_argument("--stage", type=int, default=1, choices=[1, 2])
    p.add_argument("--cat-budget", type=int, default=512,
                   help="token budget checked for lir-cat targets")
    _add_common(p, rir_flags=True, sep=True, dict_flag=True)


def _postprocess_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", required=True, choices=list(pipeline.MODES))
    p.add_argument("--stage", type=int, default=1, choices=[1, 2])
    p.add_argument("--data", help="dataset records (for two-stage modes)")
    _add_common(p, rir_flags=True, sep=True, dict_flag=True,
                input_required=False)


def _evaluate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gold", required=True,
                   help="gold records (.jsonl/.txt), or (id, y) TSV rows "
                        "in a file of any other extension, .tsv included")
    p.add_argument("--mode", default="",
                   help="mode label echoed into the report")
    p.add_argument("--formalism", required=True,
                   choices=pipeline.FORMALISMS)
    p.add_argument("--in", dest="input", required=True,
                   help="predictions TSV (id, output)")
    p.add_argument("--out", dest="output", help="report JSON path")
    p.set_defaults(quarantine=None, strict=False)


def _stats_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train",
                   help="train-side programs for the new-structure rate")
    p.add_argument("--tokenizer", default="whitespace",
                   help="'whitespace' or 'vocab:<path>'")
    p.add_argument("--formalism", required=True,
                   choices=pipeline.FORMALISMS)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output")


# name -> (handler, the function that adds its arguments, help text)
COMMANDS = {
    "transform": (cmd_transform, _transform_args,
                  "apply an IR transform to programs"),
    "invert": (cmd_invert, lambda p: _add_common(p, dict_flag=True),
               "undo the reversible transform"),
    "prepare": (cmd_prepare, _prepare_args, "stage seq2seq training files"),
    "postprocess": (cmd_postprocess, _postprocess_args,
                    "turn model outputs into programs or stage-2 sources"),
    "evaluate": (cmd_evaluate, _evaluate_args, "exact-match scoring"),
    "stats": (cmd_stats, _stats_args,
              "length and structural novelty stats"),
}


def build_parser() -> argparse.ArgumentParser:
    """The full command tree, with every command's arguments."""
    parser = argparse.ArgumentParser(
        prog="irkit",
        description="Reversible and lossy program IRs for two-stage "
                    "semantic parsing pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, add_arguments, help_) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in COMMANDS:  # parse with that command's arguments alone
        parser = argparse.ArgumentParser(prog=f"irkit {name}")
        COMMANDS[name][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
    if name not in COMMANDS or extra:
        # The full tree prints the help or usage error for it and exits.
        args = build_parser().parse_args(argv)
        name = args.command
    try:
        return COMMANDS[name][0](args)
    except IrkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeError as exc:
        # Undecodable bytes, or text (such as a lone surrogate spelled in
        # JSON) that has no UTF-8 encoding to write out.
        print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
