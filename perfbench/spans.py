"""Span tracing around irkit's public functions, installed from outside.

Each listed module attribute is replaced by a wrapper that records one span
(name, start, end, parent) per call.  Module-level calls inside irkit go
through the module's globals, so wrapping the attribute also catches calls
made from within the same module (``sql_from_rir`` calling ``parse_sql``).
Spans stay in memory; the caller summarizes them and writes them out when
the run ends.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

# Layer -> the end-to-end metric it should move, and on which workload.
# Names are "<module>.<function>" under the ``irkit`` package.
LAYERS: dict[str, tuple[str, ...]] = {
    "metrics": ("exact_match", "comparison_key", "structure_key",
                "new_structure_rate", "avg_length"),
    "sparql": ("parse_sparql", "build_relation_dict", "sparql_to_rir",
               "render_rir", "parse_rir", "sparql_from_rir",
               "render_sparql", "sparql_to_lir", "normalize_sparql",
               "structure_signature", "varify"),
    "sql": ("lex_sql", "parse_sql", "sql_to_rir", "sql_from_rir",
            "sql_to_lir", "sql_template_signature"),
    "scan": ("parse_command", "scan_to_rir", "strip_brackets",
             "scan_to_lir"),
    "pipeline": ("prepare_stage1", "prepare_stage2", "postprocess_stage1",
                 "finalize"),
    "data": ("read_records", "read_pairs_tsv", "write_pairs_tsv",
             "write_stage_tsv"),
}
# Parsers and inverses also report how many calls raised.
WITH_ERRORS = frozenset({
    "sparql.parse_sparql", "sparql.parse_rir", "sparql.sparql_from_rir",
    "sql.lex_sql", "sql.parse_sql", "sql.sql_from_rir",
    "scan.parse_command", "scan.strip_brackets",
})

PREDICTIONS = {
    "metrics": "exact_match self time moves records_per_s on test-score "
               "and nothing on train-prep (it never runs there)",
    "sparql": "parse_sparql calls per record move sparql.records_per_s on "
              "train-prep; on test-score the scorer's own parses stay",
    "sql": "parse_sql/lex_sql calls move sql.records_per_s on train-prep; "
           "sql_from_rir moves it on both workloads",
    "scan": "these move scan.records_per_s, mainly on train-prep",
    "pipeline": "self time is record-loop and dispatch overhead: moves "
                "records_per_s on train-prep (prepare_*) and test-score "
                "(postprocess_stage1, finalize)",
    "data": "self time moves records_per_s, and the full lists returned "
            "move peak_rss_mb, on both workloads",
}


def layer_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items()
            for fn in fns]


class Tracer:
    """Records nested spans; not thread-safe (the benchmark runs one)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.failed = array("b")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: str) -> int:
        span = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int, failed: bool = False) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[span] = 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span)
            return result
        return traced

    def install(self) -> None:
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"irkit.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                self._originals.append((module, fn_name, original))
                setattr(module, fn_name,
                        self._wrap(f"{module_name}.{fn_name}", original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()

    def summarize(self) -> tuple[dict, dict]:
        """Per-name {calls, self_s, errors}, and per root span the number of
        calls of each name beneath it."""
        n = len(self.start)
        child_time = [0.0] * n
        root = [0] * n
        for span in range(n):
            parent = self.parent[span]
            root[span] = span if parent < 0 else root[parent]
            if parent >= 0:
                child_time[parent] += self.end[span] - self.start[span]
        totals: dict[str, dict] = {}
        under_root: dict[int, dict[str, int]] = {}
        for span in range(n):
            name = self.names[self.name_of[span]]
            entry = totals.setdefault(name,
                                      {"calls": 0, "self_s": 0.0,
                                       "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += (self.end[span] - self.start[span]
                                - child_time[span])
            entry["errors"] += self.failed[span]
            counts = under_root.setdefault(root[span], {})
            counts[name] = counts.get(name, 0) + 1
        return totals, under_root

    def write(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds
        from the first span, and whether the call raised."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\tfailed\n")
            for span in range(len(self.start)):
                handle.write(
                    f"{span}\t{self.parent[span]}\t"
                    f"{self.names[self.name_of[span]]}\t"
                    f"{self.start[span] - t0:.9f}\t"
                    f"{self.end[span] - t0:.9f}\t{self.failed[span]}\n")
