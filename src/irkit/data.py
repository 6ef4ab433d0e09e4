"""Dataset, prediction, and report file formats.

The canonical dataset format is JSON-lines with one ``{"id", "x", "y"}``
object per record.  Adapters accept 2-column TSV (utterance, program) and
instruction-following files with ``IN: <command> OUT: <actions>`` lines.
All staged and prediction files are plain TSV; fields therefore must not
contain tabs or newlines.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import IrkitError


@dataclass(frozen=True, slots=True)
class ExampleRecord:
    id: str
    x: str
    y: str
    formalism: str = ""


@dataclass(frozen=True, slots=True)
class QuarantineEntry:
    id: str
    stage: str
    reason: str


_SCAN_LINE_RE = re.compile(r"IN:\s*(?P<x>.*?)\s*OUT:\s*(?P<y>.*)")


def check_field(value: str, what: str, record_id: str) -> str:
    if "\t" in value or "\n" in value:
        raise IrkitError(
            f"{what} of record {record_id!r} contains a tab or newline")
    return value


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it over
    ``path``.  A failure part-way, such as a row that fails
    :func:`check_field`, leaves ``path`` as it was and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _lines(path: str | Path, strip=str.strip) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) for each line not blank after strip."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = strip(line)
            if line:
                yield lineno, line


def _tsv_rows(path: str | Path, n_columns: int, empty_last: bool = False,
              ) -> Iterator[tuple[int, list[str]]]:
    """Tab-split lines; with ``empty_last`` a line may omit an empty last
    column."""
    for lineno, line in _lines(path, lambda line: line.rstrip("\n")):
        parts = line.split("\t")
        if empty_last and len(parts) == n_columns - 1:
            parts.append("")
        if len(parts) != n_columns:
            raise IrkitError(f"{path}:{lineno}: expected {n_columns} "
                             f"columns, got {len(parts)}")
        yield lineno, parts


def read_records_jsonl(path: str | Path, formalism: str = "") -> list[ExampleRecord]:
    records = []
    for lineno, line in _lines(path):
        try:
            records.append(_record_of_json(line, formalism))
        except IrkitError as exc:
            raise IrkitError(f"{path}:{lineno}: {exc}") from None
    return records


def _record_of_json(line: str, formalism: str) -> ExampleRecord:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Besides malformed JSON: an integer literal past Python's digit
        # limit (ValueError) and nesting past the recursion limit.
        raise IrkitError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise IrkitError("not a JSON object")
    try:
        record_id, x, y = str(obj["id"]), obj["x"], obj["y"]
    except KeyError as exc:
        raise IrkitError(f"missing field {exc}") from None
    if not (isinstance(x, str) and isinstance(y, str)):
        raise IrkitError("x and y must be strings")
    return ExampleRecord(check_field(record_id, "id", record_id), x, y,
                         formalism)


def read_records_tsv(path: str | Path, formalism: str = "") -> list[ExampleRecord]:
    """2-column adapter: utterance <tab> program, ids are line numbers."""
    return [ExampleRecord(str(lineno - 1), x, y, formalism)
            for lineno, (x, y) in _tsv_rows(path, 2)]


def read_scan_records(path: str | Path) -> list[ExampleRecord]:
    """Adapter for ``IN: <command> OUT: <actions>`` lines."""
    records = []
    for lineno, line in _lines(path):
        match = _SCAN_LINE_RE.fullmatch(line)
        if not match:
            raise IrkitError(f"{path}:{lineno}: not an IN:/OUT: line")
        records.append(ExampleRecord(str(lineno - 1), match.group("x"),
                                     match.group("y"), "scan"))
    return records


def read_records(path: str | Path, formalism: str = "") -> list[ExampleRecord]:
    """Pick the adapter from the file extension."""
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".json"):
        return read_records_jsonl(path, formalism)
    if suffix == ".tsv":
        return read_records_tsv(path, formalism)
    if suffix == ".txt":
        return read_scan_records(path)
    raise IrkitError(f"cannot infer record format from {path!r} "
                     "(expected .jsonl, .tsv, or .txt)")


def read_pairs_tsv(path: str | Path) -> list[tuple[str, str]]:
    """(id, value) rows; the value may be empty for flagged rows."""
    return [(i, v) for _, (i, v) in _tsv_rows(path, 2, empty_last=True)]


def write_pairs_tsv(path: str | Path,
                    pairs: Iterable[tuple[str, str]]) -> None:
    write_atomic(path, (f"{i}\t{check_field(value, 'value', i)}\n"
                        for i, value in pairs))


def read_stage_tsv(path: str | Path) -> list[tuple[str, str, str]]:
    return [(i, s, t) for _, (i, s, t) in _tsv_rows(path, 3)]


def write_stage_tsv(path: str | Path,
                    rows: Iterable[tuple[str, str, str]]) -> None:
    write_atomic(path, (f"{i}\t{check_field(source, 'source', i)}\t"
                        f"{check_field(target, 'target', i)}\n"
                        for i, source, target in rows))


def write_quarantine(path: str | Path,
                     entries: Sequence[QuarantineEntry]) -> None:
    write_atomic(path, (json.dumps(asdict(entry), ensure_ascii=False) + "\n"
                        for entry in entries))


def read_quarantine(path: str | Path) -> list[QuarantineEntry]:
    entries = []
    for _, line in _lines(path):
        obj = json.loads(line)
        entries.append(QuarantineEntry(obj["id"], obj["stage"], obj["reason"]))
    return entries
