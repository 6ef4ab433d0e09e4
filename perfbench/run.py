"""irkit benchmark: one seeded batch workload, measured and checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {train-prep,test-score} \
        --seed N --seconds S --trace {0,1}

The inputs are generated from ``--seed`` (see ``generate.py``).  The
workload's commands then run through ``irkit.cli.main``, pass after pass,
for ``--seconds`` seconds; each pass is a fresh child process
(``workload.py``), so that no pass reuses state an earlier one left in
memory and peak RSS (the largest over the passes) belongs to this workload
alone.  The outputs of every command are checked against answers the
generator knows, and their digests must agree across passes.  Times are
normalized by a reference loop measured around each command (see
``clock.py``); the raw wall-clock rates are printed too, on the lines above
the result.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
a separate traced run reports per-layer call counts and self times (see
``spans.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code
2 means the checkout lacks the program or its fixtures; no result is
printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import generate as g
from spans import LAYERS, WITH_ERRORS, layer_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/irkit/cli.py", "scripts/make_sparql_fixture.py",
            "tests/oracles.py", "tests/data/sql_corpus.jsonl")
COMMANDS = ("transform", "invert", "prepare", "stats", "postprocess",
            "evaluate")
SETUP_REPEATS = 15


# ---------------------------------------------------------------------------
# Plans: the commands of a workload and the outputs expected from them
# ---------------------------------------------------------------------------


class Plan:
    def __init__(self, in_dir: Path, out_dir: Path):
        in_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.commands: list[dict] = []
        self.checks: dict[str, list[tuple]] = {}

    def add(self, formalism: str, label: str, argv: list[str],
            records: int, checks: list[tuple]) -> None:
        """``checks`` holds (path, kind, expected); every path is an
        output whose digest must repeat across passes."""
        self.commands.append({
            "formalism": formalism, "command": argv[0],
            "label": f"{formalism}:{label}", "argv": argv,
            "records": records,
            "outputs": [str(path) for path, _, _ in checks]})
        self.checks[f"{formalism}:{label}"] = checks

    def to_json(self) -> dict:
        return {"commands": self.commands, "out_dir": str(self.out_dir)}


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")


def _write_jsonl(path: Path, items) -> None:
    _write_lines(path, (json.dumps({"id": i.id, "x": i.x, "y": i.y},
                                   ensure_ascii=False) for i in items))


def _none(path: Path) -> tuple:
    """The default quarantine report of ``path`` must not be written."""
    return (Path(f"{path}.quarantine.jsonl"), "quarantine", [])


def train_prep(gen: g.Generator, n: dict[str, int], in_dir: Path,
               out_dir: Path, stream: str) -> Plan:
    plan = Plan(in_dir, out_dir)
    for f in g.FORMALISMS:
        corpus = gen.corpus(f, n[f], stream, scan_ids="lines")
        items = corpus.items
        if f == "scan":
            source = in_dir / "scan.txt"
            _write_lines(source, (f"IN: {i.x} OUT: {i.y}" for i in items))
        else:
            source = in_dir / f"{f}.jsonl"
            _write_jsonl(source, items)
        rdict = out_dir / f"{f}.dict.json"
        dict_args = ["--dict", str(rdict)] if f == "sparql" else []
        common = ["--formalism", f, *dict_args]
        records = len(items)

        rir = out_dir / f"{f}.rir.tsv"
        checks = [(rir, "rows", [(i.id, i.rir) for i in items]), _none(rir)]
        if f == "sparql":
            checks.append((rdict, "json", corpus.relation_dict))
        plan.add(f, "transform", ["transform", "--ir", "rir", *common,
                                  "--in", str(source), "--out", str(rir)],
                 records, checks)

        inv = out_dir / f"{f}.inv.tsv"
        plan.add(f, "invert", ["invert", *common, "--in", str(rir),
                               "--out", str(inv)], records,
                 [(inv, "rows", [(i.id, i.inverse) for i in items]),
                  _none(inv)])

        targets = {
            "baseline": lambda i: i.y, "rir": lambda i: i.rir,
            "lir-d": lambda i: i.lir, "lir-d-rir": lambda i: i.lir_rir,
            "lir-cat": lambda i: i.lir + g.SEP + i.y,
            "varified": lambda i: i.varified,
        }
        for mode in g.STAGE1_MODES[f]:
            out = out_dir / f"{f}.stage1.{mode}.tsv"
            rows = [(i.id, i.x, targets[mode](i)) for i in items]
            plan.add(f, f"prepare.{mode}.1",
                     ["prepare", "--mode", mode, "--stage", "1", *common,
                      "--in", str(source), "--out", str(out)],
                     records, [(out, "rows", rows), _none(out)])
        stage2 = {"lir-d": lambda i: (i.x + g.SEP + i.lir, i.y),
                  "lir-d-rir": lambda i: (i.x + g.SEP + i.lir_rir, i.rir)}
        for mode in g.STAGE2_MODES:
            out = out_dir / f"{f}.stage2.{mode}.tsv"
            rows = [(i.id, *stage2[mode](i)) for i in items]
            plan.add(f, f"prepare.{mode}.2",
                     ["prepare", "--mode", mode, "--stage", "2", *common,
                      "--in", str(source), "--out", str(out)],
                     records, [(out, "rows", rows), _none(out)])

        stats = out_dir / f"{f}.stats.json"
        expected = {
            "n_programs": records, "n_eval": records, "n_new": 0,
            "new_structure_rate": 0.0, "n_unparseable_train": 0,
            "n_unparseable_eval": 0,
            "avg_length": sum(len(i.rir.split()) for i in items) / records,
        }
        plan.add(f, "stats", ["stats", "--formalism", f, "--in", str(rir),
                              "--train", str(rir), "--out", str(stats)],
                 2 * records, [(stats, "stats", expected)])
    return plan


def test_score(gen: g.Generator, n: dict[str, int], in_dir: Path,
               out_dir: Path, stream: str) -> Plan:
    plan = Plan(in_dir, out_dir)
    for f in g.FORMALISMS:
        corpus, preds = g.PREDICTIONS[f](gen, n[f], stream)
        gold_items = list(corpus.items)
        gen.rng(f, stream, "shuffle").shuffle(gold_items)
        gold = in_dir / f"{f}.gold.jsonl"
        _write_jsonl(gold, gold_items)
        pred = in_dir / f"{f}.pred.tsv"
        _write_lines(pred, (f"{p.id}\t{p.text}" for p in preds))
        dict_args = []
        if f == "sparql":
            rdict = in_dir / "sparql.dict.json"
            rdict.write_text(json.dumps(corpus.relation_dict, indent=2,
                                        sort_keys=True) + "\n",
                             encoding="utf-8")
            dict_args = ["--dict", str(rdict)]
        x = {i.id: i.x for i in corpus.items}
        malformed = [p.id for p in preds if p.kind == g.MALFORMED]
        records = len(preds)

        sources = out_dir / f"{f}.stage2_sources.tsv"
        plan.add(f, "postprocess.lir-i-rir.1",
                 ["postprocess", "--formalism", f, "--mode", "lir-i-rir",
                  "--stage", "1", "--in", str(pred), "--data", str(gold),
                  "--out", str(sources)], 2 * records,
                 [(sources, "rows", [(p.id, x[p.id] + g.SEP + p.lir)
                                     for p in preds
                                     if p.kind != g.MALFORMED]),
                  (Path(f"{sources}.quarantine.jsonl"), "quarantine",
                   malformed)])

        final = out_dir / f"{f}.final.tsv"
        plan.add(f, "postprocess.lir-d-rir.2",
                 ["postprocess", "--formalism", f, "--mode", "lir-d-rir",
                  "--stage", "2", *dict_args, "--in", str(pred),
                  "--data", str(gold), "--out", str(final)], 2 * records,
                 [(final, "rows", [(p.id, p.final) for p in preds]),
                  (Path(f"{final}.quarantine.jsonl"), "quarantine",
                   malformed)])

        report = out_dir / f"{f}.eval.json"
        plan.add(f, "evaluate",
                 ["evaluate", "--formalism", f, "--mode", "lir-d-rir",
                  "--in", str(final), "--gold", str(gold),
                  "--out", str(report)], 2 * records,
                 [(report, "verdicts",
                   {p.id: g.VERDICT[p.kind] for p in preds})])
    return plan


WORKLOADS = {"train-prep": train_prep, "test-score": test_score}


# ---------------------------------------------------------------------------
# Known-answer gate
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[tuple]:
    if not path.exists():
        return []
    return [tuple(line.split("\t"))
            for line in path.read_text(encoding="utf-8").splitlines()]


def mismatches(path: Path, kind: str, expected) -> int:
    """Records whose output disagrees with the expected answer."""
    everything = len(expected) if kind in ("rows", "verdicts") else 1
    try:
        if kind == "rows":
            actual = _rows(path)
        elif kind == "quarantine":
            actual = ([json.loads(line)["id"] for line in
                       path.read_text(encoding="utf-8").splitlines()]
                      if path.exists() else [])
        elif not path.exists():
            return everything
        else:
            report = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError):
        return max(1, everything)
    if kind in ("rows", "quarantine"):
        wrong = sum(a != e for a, e in zip(actual, expected))
        return wrong + abs(len(actual) - len(expected))
    if kind == "json":
        return int(report != expected)
    if kind == "stats":
        return sum(not _close(report.get(k), v) for k, v in expected.items())
    verdicts = dict(report.get("per_example", []))
    wrong = sum(verdicts.get(k) != v for k, v in expected.items())
    return wrong + len(set(verdicts) - set(expected))


def _close(actual, expected) -> bool:
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return abs(actual - expected) <= 1e-9 * max(1.0, abs(expected))
    return actual == expected


def gate(plan: Plan, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass of one plan.

    The outputs on disk belong to the plan's last pass; every other pass
    must have produced byte-identical outputs."""
    records = {c["label"]: c["records"] for c in plan.commands}
    last = {r["label"]: r for r in passes[-1]}
    wrong = {label: min(records[label],
                        sum(mismatches(*check) for check in checks))
             for label, checks in plan.checks.items()}
    attempted = failed = 0
    problems: list[str] = []
    for number, results in enumerate(passes):
        for r in results:
            label = r["label"]
            attempted += records[label]
            if r["code"] != 0:
                failed += records[label]
                problems.append(f"pass {number} {label}: exit {r['code']}: "
                                f"{r['error'].strip()[-400:]}")
            elif r["digest"] != last[label]["digest"]:
                failed += records[label]
                problems.append(f"pass {number} {label}: outputs differ "
                                "from the last pass")
            elif wrong[label]:
                failed += wrong[label]
    problems += [f"{label}: {count} record(s) disagree with the known "
                 "answer" for label, count in wrong.items() if count]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def measure_setup(plan: Plan, deadline: float) -> tuple[list[dict], int]:
    """Wall time of fresh ``python -m irkit`` runs of the workload's first
    command on a one-record input: interpreter start, import and one
    record."""
    first = plan.commands[0]
    times, failures = [], 0
    after = clock.reference()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(plan.out_dir, ignore_errors=True)
        plan.out_dir.mkdir(parents=True)
        before = after
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "irkit",
                               *first["argv"]], cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.time()))
        elapsed = time.perf_counter() - started
        after = clock.reference()
        times.append({"seconds": elapsed, "before": before, "after": after})
        failures += proc.returncode != 0
    return times, failures


def run_pass(plan: Plan, traced: bool, work: Path, spans_path: Path,
             deadline: float) -> dict:
    """One pass of ``plan`` in a fresh ``workload.py`` process."""
    spec_path, result_path = work / "pass.json", work / "result.json"
    spec_path.write_text(json.dumps({
        **plan.to_json(), "traced": traced, "result": str(result_path),
        "spans": str(spans_path)}), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "workload.py"),
                    str(spec_path)], cwd=ROOT, env=child_env(), check=True,
                   timeout=max(1.0, deadline - time.time()))
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_passes(plans: dict[str, Plan], trace: bool, seconds: int,
               work: Path, spans_path: Path, deadline: float) -> dict:
    """Passes of the full plan for ``seconds`` seconds, at least three;
    when tracing, cycles of an untraced full pass, an untraced quarter-size
    pass and a traced full pass, at least one cycle."""
    cycle = ([("full", "full", False), ("quarter", "quarter", False),
              ("traced", "full", True)] if trace
             else [("full", "full", False)])
    min_passes = 1 if trace else 3
    passes, layers, per_command, peak_rss_kb = [], [], {}, 0
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(passes) < min_passes * len(cycle)):
        for kind, plan, traced in cycle:
            r = run_pass(plans[plan], traced, work, spans_path, deadline)
            passes.append({"kind": kind, "commands": r["commands"]})
            peak_rss_kb = max(peak_rss_kb, r["peak_rss_kb"])
            if traced:
                layers.append(r["layers"])
                per_command = r["per_command"]
    return {"passes": passes, "layers": layers, "per_command": per_command,
            "peak_rss_kb": peak_rss_kb}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def normalized_s(r: dict) -> float:
    return clock.normalized(r["seconds"], r["before"], r["after"])


def wall_s(r: dict) -> float:
    return r["seconds"]


def e2e_metrics(plan: Plan, passes: list[list[dict]], setup: list[dict],
                peak_rss_kb: int, timing=normalized_s) -> dict:
    """Rates are records over the summed median time of each command
    across passes, so that a slow moment in one command of one pass moves
    only that command's sample."""
    seconds = {c["label"]: _median([timing(r) for p in passes for r in p
                                    if r["label"] == c["label"]])
               for c in plan.commands}

    def rate(keep) -> float:
        chosen = [c for c in plan.commands if keep(c["formalism"])]
        return (sum(c["records"] for c in chosen)
                / sum(seconds[c["label"]] for c in chosen))

    metrics = {"records_per_s": (rate(lambda f: True), "1/s")}
    for f in g.FORMALISMS:
        metrics[f"{f}.records_per_s"] = (rate(lambda x, f=f: x == f), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_kb / 1024.0, "MB")
    metrics["setup_s"] = (_median([timing(r) for r in setup]), "s")
    return metrics


def layer_metrics(plans: dict[str, Plan], result: dict) -> dict:
    commands = {c["label"]: c for c in plans["full"].commands}
    passes = result["passes"]
    full = [p["commands"] for p in passes if p["kind"] == "full"]
    quarter = [p["commands"] for p in passes if p["kind"] == "quarter"]
    traced = [p["commands"] for p in passes if p["kind"] == "traced"]

    def seconds(results, command, formalism=None) -> float:
        return sum(normalized_s(r) for r in results
                   if commands[r["label"]]["command"] == command
                   and formalism in (None, commands[r["label"]]["formalism"]))

    # Span times of a traced pass are normalized by that pass's references.
    scale = [clock.REFERENCE_S / _median([r[k] for r in t
                                          for k in ("before", "after")])
             for t in traced]
    metrics: dict[str, tuple] = {}
    for name in layer_names():
        stats = [layer.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
                 for layer in result["layers"]]
        metrics[f"{name}.calls"] = (stats[-1]["calls"], "count")
        metrics[f"{name}.self_s"] = (
            _median([s["self_s"] * k for s, k in zip(stats, scale)]), "s")
        if name in WITH_ERRORS:
            metrics[f"{name}.errors"] = (stats[-1]["errors"], "count")
    for command in COMMANDS:
        for f in g.FORMALISMS:
            metrics[f"cli.{command}.{f}.s"] = (
                _median([seconds(p, command, f) for p in full]), "s")
    for command in COMMANDS:
        ratios = [seconds(a, command) / seconds(b, command)
                  for a, b in zip(full, quarter) if seconds(b, command)]
        metrics[f"cli.{command}.scale4"] = (_median(ratios), "ratio")
    metrics["trace.overhead"] = (_median(
        [sum(map(normalized_s, t)) - sum(map(normalized_s, f))
         for t, f in zip(traced, full)]), "s")
    return metrics


def parse_counts_report(plans: dict[str, Plan], result: dict) -> list[str]:
    """Calls per record of the parsers, per command of the traced pass."""
    records = {c["label"]: c["records"] for c in plans["full"].commands}
    parsers = [f"{m}.{fn}" for m in ("sparql", "sql", "scan")
               for fn in LAYERS[m] if fn.startswith(("parse", "lex"))]
    lines = []
    for label, calls in result["per_command"].items():
        parts = [f"{p}={calls[p] / records[label]:.2f}" for p in parsers
                 if calls.get(p)]
        if parts:
            lines.append(f"  {label}: " + " ".join(parts)
                         + " (calls per record read)")
    return lines


def outputs_digest(passes: list[dict]) -> str:
    h = hashlib.sha256()
    for r in passes:
        h.update(f"{r['label']}={r['digest']}\n".encode())
    return h.hexdigest()


def check_checkout() -> list[str]:
    return [p for p in REQUIRED if not (ROOT / p).is_file()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # 170 s at the configured 50 s, under the 180 s a run may take.
    deadline = time.time() + args.seconds + 120

    missing = check_checkout()
    if missing:
        print("benchmark: this checkout lacks " + ", ".join(missing),
              file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return benchmark(args, work, deadline)
    except subprocess.CalledProcessError as exc:
        print(f"benchmark: workload process failed ({exc})", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("benchmark: out of time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def benchmark(args: argparse.Namespace, work: Path, deadline: float) -> int:
    report_dir = BENCH / "_out"
    report_dir.mkdir(exist_ok=True)
    gen = g.Generator(args.seed)
    build = WORKLOADS[args.workload]
    stream = args.workload
    plans = {"full": build(gen, g.counts(args.workload), work / "in",
                           work / "out", stream)}
    if args.trace:
        plans["quarter"] = build(gen, g.counts(args.workload, g.SCALE / 4),
                                 work / "in-quarter", work / "out-quarter",
                                 stream + "-quarter")
        setup, setup_failures = [], 0
    else:
        one = build(gen, {f: 1 for f in g.FORMALISMS}, work / "in-one",
                    work / "out-one", stream + "-one")
        setup, setup_failures = measure_setup(one, deadline)
    result = run_passes(plans, bool(args.trace), args.seconds, work,
                        report_dir / f"{args.workload}.spans.tsv.gz",
                        deadline)

    attempted, failed = len(setup), setup_failures
    problems = [f"setup: {setup_failures} run(s) failed"] \
        if setup_failures else []
    by_dir = {"full": [p["commands"] for p in result["passes"]
                       if p["kind"] in ("full", "traced")],
              "quarter": [p["commands"] for p in result["passes"]
                          if p["kind"] == "quarter"]}
    for name, plan in plans.items():
        a, f, p = gate(plan, by_dir[name])
        attempted, failed, problems = attempted + a, failed + f, problems + p

    if args.trace:
        metrics = layer_metrics(plans, result)
        lines = parse_counts_report(plans, result)
        (report_dir / f"{args.workload}.trace.json").write_text(json.dumps(
            {"seed": args.seed, "layers": result["layers"][-1],
             "per_command": result["per_command"]}, indent=1,
            sort_keys=True) + "\n", encoding="utf-8")
    else:
        full = [p["commands"] for p in result["passes"]
                if p["kind"] == "full"]
        metrics = e2e_metrics(plans["full"], full, setup,
                              result["peak_rss_kb"])
        raw = e2e_metrics(plans["full"], full, setup,
                          result["peak_rss_kb"], timing=wall_s)
        lines = [f"wall-clock {name} {value} {unit}"
                 for name, (value, unit) in raw.items() if unit != "MB"]
    n_passes = sum(p["kind"] == "full" for p in result["passes"])
    print(f"workload {args.workload}, seed {args.seed}, {n_passes} full "
          f"pass(es), records per pass {g.counts(args.workload)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"error_rate {failed / max(1, attempted):.6f} "
          f"({failed} failed of {attempted} attempted)")
    print(f"outputs_sha256 {outputs_digest(by_dir['full'][-1])}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
