"""Child process of the benchmark: runs one pass of a workload's commands.

Usage: ``python perfbench/workload.py <pass.json>`` with ``src`` on
``PYTHONPATH``.  The pass runs every command of the plan in order through
``irkit.cli.main``, in this process, one at a time (a closed batch: no
threads, no further processes).  ``run.py`` starts a fresh process for each
pass, as each irkit command is a fresh process in real use, so no pass can
profit from state that an earlier pass left in memory.  A command's time
covers only the ``cli.main`` call; clearing outputs, collecting garbage,
hashing the outputs and timing the reference loop of ``clock.py`` happen
between commands, outside the timed region.

With ``traced`` set, the pass runs under the span tracer of ``spans.py``
and writes the spans to the ``spans`` path.  The result, including this
process's peak RSS, is written as JSON to the ``result`` path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clock  # noqa: E402
from spans import Tracer  # noqa: E402

from irkit import cli  # noqa: E402


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        p = Path(path)
        h.update(p.name.encode())
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def run_pass(commands: list[dict], out_dir: str,
             tracer: Tracer | None = None) -> list[dict]:
    shutil.rmtree(out_dir, ignore_errors=True)
    Path(out_dir).mkdir(parents=True)
    results = []
    for cmd in commands:
        gc.collect()
        before = clock.reference() if not results else results[-1]["after"]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        span = None
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if tracer is not None:
                span = tracer.open(f"cli.{cmd['command']}.{cmd['formalism']}")
            started = time.perf_counter()
            try:
                code = cli.main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed command
                code = -1
                error = traceback.format_exc()
            elapsed = time.perf_counter() - started
            if span is not None:
                tracer.close(span, failed=code != 0)
        if code != 0 and not error:
            error = stderr.getvalue()[-2000:]
        digest = _digest(cmd["outputs"])
        gc.collect()
        results.append({"label": cmd["label"], "seconds": elapsed,
                        "before": before, "after": clock.reference(),
                        "code": code, "error": error, "digest": digest})
    return results


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result: dict = {"layers": None, "per_command": None}
    if spec["traced"]:
        tracer = Tracer()
        tracer.install()
        try:
            commands = run_pass(spec["commands"], spec["out_dir"], tracer)
        finally:
            tracer.uninstall()
        totals, under_root = tracer.summarize()
        roots = [s for s in range(len(tracer.start)) if tracer.parent[s] < 0]
        result["layers"] = totals
        result["per_command"] = {
            cmd["label"]: under_root.get(root, {})
            for cmd, root in zip(spec["commands"], roots)}
        tracer.write(spec["spans"])
    else:
        commands = run_pass(spec["commands"], spec["out_dir"])
    result["commands"] = commands
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
