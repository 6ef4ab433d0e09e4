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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import IrkitError

T = TypeVar("T")


class ExampleRecord(NamedTuple):
    id: str
    x: str
    y: str


@dataclass(frozen=True, slots=True)
class QuarantineEntry:
    id: str
    stage: str
    reason: str


def first_of_each_id(items: Iterable[tuple[str, T]], stage: str,
                     quarantined: list[QuarantineEntry],
                     ) -> Iterator[tuple[str, T]]:
    """The id rule of every step that joins files by id: yield the first
    ``(id, item)`` of each id, in input order, and add a ``repeated id``
    entry for ``stage`` to ``quarantined`` for each later item of it."""
    seen: set[str] = set()
    for item_id, item in items:
        if item_id in seen:
            quarantined.append(QuarantineEntry(item_id, stage, "repeated id"))
        else:
            seen.add(item_id)
            yield item_id, item


def check_field(value: str, what: str, record_id: str) -> str:
    if "\t" in value or "\n" in value:
        raise IrkitError(
            f"{what} of record {record_id!r} contains a tab or newline")
    return value


def write_atomic(path: str | Path, chunks: Iterable[str]) -> int:
    """Write ``chunks`` to a synced temp file beside ``path``, rename it
    over ``path`` once ``chunks`` is drained (so ``chunks`` may read
    ``path``) and sync the directory; returns the number of chunks.  A
    failure part-way, such as a row that fails :func:`check_field` or a
    malformed input line, leaves ``path`` as it was and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            write, n = handle.write, 0
            for n, chunk in enumerate(chunks, start=1):
                write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return n


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


def read_records_jsonl(path: str | Path) -> Iterator[ExampleRecord]:
    for lineno, line in _lines(path):
        try:
            yield _record_of_json(line)
        except IrkitError as exc:
            raise IrkitError(f"{path}:{lineno}: {exc}") from None


def _record_of_json(line: str) -> ExampleRecord:
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
    return ExampleRecord(check_field(record_id, "id", record_id), x, y)


def read_records_tsv(path: str | Path) -> Iterator[ExampleRecord]:
    """2-column adapter: utterance <tab> program, ids are line numbers."""
    return (ExampleRecord(str(lineno - 1), x, y)
            for lineno, (x, y) in _tsv_rows(path, 2))


def read_scan_records(path: str | Path) -> Iterator[ExampleRecord]:
    """Adapter for ``IN: <command> OUT: <actions>`` lines: x is the text
    between ``IN:`` and the first ``OUT:``, y the text after that, both
    without surrounding whitespace."""
    for lineno, line in _lines(path):
        head, out, y = line.partition("OUT:")
        if not (out and head.startswith("IN:")):
            raise IrkitError(f"{path}:{lineno}: not an IN:/OUT: line")
        yield ExampleRecord(str(lineno - 1), head[3:].strip(), y.lstrip())


def read_records(path: str | Path) -> Iterator[ExampleRecord]:
    """Pick the adapter from the file extension, which is checked now; the
    result is a one-pass iterator that opens the file on its first item."""
    read = {".jsonl": read_records_jsonl, ".json": read_records_jsonl,
            ".tsv": read_records_tsv, ".txt": read_scan_records,
            }.get(Path(path).suffix.lower())
    if read is None:
        raise IrkitError(f"cannot infer record format from {path!r} "
                         "(expected .jsonl, .json, .tsv, or .txt)")
    return read(path)


def read_pairs_tsv(path: str | Path) -> Iterator[tuple[str, str]]:
    """(id, value) rows; the value may be empty for flagged rows."""
    return ((i, v) for _, (i, v) in _tsv_rows(path, 2, empty_last=True))


def write_pairs_tsv(path: str | Path,
                    pairs: Iterable[tuple[str, str]]) -> int:
    return write_atomic(path, (f"{i}\t{check_field(value, 'value', i)}\n"
                               for i, value in pairs))


def read_stage_tsv(path: str | Path) -> Iterator[tuple[str, str, str]]:
    return ((i, s, t) for _, (i, s, t) in _tsv_rows(path, 3))


def write_stage_tsv(path: str | Path,
                    rows: Iterable[tuple[str, str, str]]) -> int:
    return write_atomic(path, (f"{i}\t{check_field(source, 'source', i)}\t"
                               f"{check_field(target, 'target', i)}\n"
                               for i, source, target in rows))


def write_quarantine(path: str | Path,
                     entries: Sequence[QuarantineEntry]) -> None:
    write_atomic(path, (json.dumps(asdict(entry), ensure_ascii=False) + "\n"
                        for entry in entries))


def read_quarantine(path: str | Path) -> list[QuarantineEntry]:
    return [QuarantineEntry(**json.loads(line)) for _, line in _lines(path)]
