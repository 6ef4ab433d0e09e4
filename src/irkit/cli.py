"""Command-line entry point.

Subcommands: ``transform``, ``invert``, ``prepare``, ``postprocess``,
``evaluate``, ``stats``.  Every command is deterministic: identical inputs
and flags produce byte-identical outputs.  Per-record failures go to a
quarantine report and do not fail the run unless ``--strict`` is set;
nonzero exit status is reserved for configuration and I/O errors (and for
quarantines under ``--strict``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

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
                   corpus: Sequence[ExampleRecord] | None = None,
                   ) -> tuple[sparql_ir.RelationDictionary | None,
                              list[object] | None]:
    """The ``--dict`` sidecar, for a formalism whose z_r uses one.  An
    absent file is built from ``corpus`` and saved, so that later
    invocations invert consistently.  The second value holds the programs
    that build parsed, by record position, for the command's loop to
    reuse; it is None when nothing was built."""
    if not formalisms.get(args.formalism).needs_dict:
        return None, None
    path = args.dict_path
    if path is None:
        if required:
            raise ConfigError("--dict is required for sparql IR transforms")
        return None, None
    if Path(path).exists():
        return sparql_ir.RelationDictionary.load(path), None
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
    return rdict, parsed


def _write_quarantine(args, entries: list[QuarantineEntry]) -> int:
    """Write the report (if any) and translate --strict into an exit code."""
    if entries:
        path = args.quarantine or f"{args.output}.quarantine.jsonl"
        data.write_quarantine(path, entries)
        print(f"quarantined {len(entries)} record(s) -> {path}",
              file=sys.stderr)
    return 1 if (entries and args.strict) else 0


def _write_json(path: str, payload: dict) -> None:
    data.write_atomic(path, [json.dumps(payload, indent=2) + "\n"])


def _gold_pairs(path: str, formalism: str) -> list[tuple[str, str]]:
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".json", ".txt"):
        return [(r.id, r.y) for r in data.read_records(path, formalism)]
    return data.read_pairs_tsv(path)


def _program_column(path: str, formalism: str) -> list[str]:
    return [value for _, value in _gold_pairs(path, formalism)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_transform(args: argparse.Namespace) -> int:
    records = data.read_records(args.input, args.formalism)
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
        rdict, parsed = _relation_dict(args, required=True, corpus=records)
    cfg = pipeline.PipelineConfig(args.formalism, rir_options=options,
                                  relation_dict=rdict)
    outputs, quarantined = pipeline.quarantine_map(
        pipeline.programs(records, cfg, parsed), lambda _, p: transform(p),
        "transform")
    data.write_pairs_tsv(args.output, outputs)
    print(f"transform --ir {args.ir}: {len(outputs)} ok, "
          f"{len(quarantined)} quarantined -> {args.output}")
    return _write_quarantine(args, quarantined)


def cmd_invert(args: argparse.Namespace) -> int:
    rows = data.read_pairs_tsv(args.input)
    rdict, _ = _relation_dict(args, True)
    cfg = pipeline.PipelineConfig(args.formalism, relation_dict=rdict)
    outputs, quarantined = pipeline.quarantine_map(
        rows, lambda _, text: pipeline.invert_reversible(text, cfg),
        "invert", keep_failed=True)
    data.write_pairs_tsv(args.output, outputs)
    print(f"invert: {len(outputs) - len(quarantined)} ok, "
          f"{len(quarantined)} flagged -> {args.output}")
    return _write_quarantine(args, quarantined)


def cmd_prepare(args: argparse.Namespace) -> int:
    records = data.read_records(args.input, args.formalism)
    row = pipeline.check_mode(args.mode)
    options = _rir_options(args)
    rdict = parsed = None
    if options.shorten_relations and row.inverts():
        rdict, parsed = _relation_dict(args, required=True, corpus=records)
    cfg = pipeline.PipelineConfig(args.formalism, separator=args.sep,
                                  rir_options=options, relation_dict=rdict,
                                  cat_budget=args.cat_budget)
    prepare = (pipeline.prepare_stage1 if args.stage == 1
               else pipeline.prepare_stage2)
    result = prepare(records, args.mode, cfg, parsed)
    data.write_stage_tsv(args.output,
                         [(p.id, p.source, p.target) for p in result.pairs])
    print(f"prepare --mode {args.mode} --stage {args.stage}: "
          f"{len(result.pairs)} staged, {len(result.quarantined)} "
          f"quarantined -> {args.output}")
    if result.n_over_budget:
        print(f"note: {result.n_over_budget} target(s) exceed the "
              f"{args.cat_budget}-token budget (kept, not truncated)")
    return _write_quarantine(args, result.quarantined)


def cmd_postprocess(args: argparse.Namespace) -> int:
    row = pipeline.check_mode(args.mode)
    options = _rir_options(args)
    rdict, _ = _relation_dict(args, options.shorten_relations
                              and row.inverts(args.stage))
    cfg = pipeline.PipelineConfig(args.formalism, separator=args.sep,
                                  rir_options=options, relation_dict=rdict)
    records = (data.read_records(args.data, args.formalism)
               if args.data else None)
    preds = data.read_pairs_tsv(args.input) if args.input else None
    if preds is None and not (args.stage == 1 and row.reads_gold_ir):
        raise ConfigError("--in (model predictions) is required for this "
                          "mode and stage")

    what = "final prediction(s)"
    if args.stage == 1:
        result = pipeline.postprocess_stage1(preds, args.mode, cfg, records)
        rows, flagged = result.final, result.flagged
        if rows is None:
            rows, what = result.stage2_sources, "stage-2 source(s)"
    else:
        rows, flagged = pipeline.finalize(preds, args.mode, cfg, records)
    data.write_pairs_tsv(args.output, rows)
    print(f"postprocess --stage {args.stage}: {len(rows)} {what} "
          f"-> {args.output}")
    return _write_quarantine(args, flagged)


def cmd_evaluate(args: argparse.Namespace) -> int:
    preds = data.read_pairs_tsv(args.input)
    golds = _gold_pairs(args.gold, args.formalism)
    report = metrics.exact_match(preds, golds, args.formalism)
    payload = report.to_dict()
    payload["config"] = {"formalism": args.formalism, "mode": args.mode}
    if args.output:
        _write_json(args.output, payload)
    print(f"exact match: {report.exact_match:.1f} "
          f"({report.n_correct}/{report.n_total} correct, "
          f"{report.n_invalid} invalid)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    programs = _program_column(args.input, args.formalism)
    tokenizer = _tokenizer(args.tokenizer)
    payload: dict = {
        "config": {"formalism": args.formalism, "tokenizer": args.tokenizer},
        "n_programs": len(programs),
        "avg_length": metrics.avg_length(programs, tokenizer),
    }
    if args.train:
        train = _program_column(args.train, args.formalism)
        structure = metrics.new_structure_rate(train, programs,
                                               args.formalism)
        payload.update(structure.to_dict())
        print(f"new structure rate: {structure.rate:.1f}")
    print(f"avg length ({args.tokenizer}): {payload['avg_length']:.1f}")
    if args.output:
        _write_json(args.output, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irkit",
        description="Reversible and lossy program IRs for two-stage "
                    "semantic parsing pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply an IR transform to programs")
    p.add_argument("--ir", required=True,
                   choices=["rir", "lir", "lir+rir", "varify", "template"])
    _add_common(p, rir_flags=True, dict_flag=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("invert", help="undo the reversible transform")
    _add_common(p, dict_flag=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("prepare", help="stage seq2seq training files")
    p.add_argument("--mode", required=True, choices=list(pipeline.MODES))
    p.add_argument("--stage", type=int, default=1, choices=[1, 2])
    p.add_argument("--cat-budget", type=int, default=512,
                   help="token budget checked for lir-cat targets")
    _add_common(p, rir_flags=True, sep=True, dict_flag=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("postprocess",
                       help="turn model outputs into programs or stage-2 "
                            "sources")
    p.add_argument("--mode", required=True, choices=list(pipeline.MODES))
    p.add_argument("--stage", type=int, default=1, choices=[1, 2])
    p.add_argument("--data", help="dataset records (for two-stage modes)")
    _add_common(p, rir_flags=True, sep=True, dict_flag=True,
                input_required=False)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evaluate", help="exact-match scoring")
    p.add_argument("--gold", required=True,
                   help="gold records (.jsonl/.tsv/.txt) or (id, y) TSV")
    p.add_argument("--mode", default="",
                   help="mode label echoed into the report")
    p.add_argument("--formalism", required=True,
                   choices=pipeline.FORMALISMS)
    p.add_argument("--in", dest="input", required=True,
                   help="predictions TSV (id, output)")
    p.add_argument("--out", dest="output", help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="length and structural novelty stats")
    p.add_argument("--train",
                   help="train-side programs for the new-structure rate")
    p.add_argument("--tokenizer", default="whitespace",
                   help="'whitespace' or 'vocab:<path>'")
    p.add_argument("--formalism", required=True,
                   choices=pipeline.FORMALISMS)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
