"""Exact-match scoring, structural novelty, and program length statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import formalisms
from .data import QuarantineEntry, first_of_each_id
from .errors import IrkitError

CORRECT = "correct"
WRONG = "wrong"
INVALID = "invalid"


@dataclass(slots=True)
class EvalReport:
    exact_match: float
    n_total: int
    n_correct: int
    n_invalid: int
    per_example: list[tuple[str, str]] = field(default_factory=list)


def comparison_key(formalism: str, text: str) -> str:
    """Scoring form of a program: conjunct-normalized for sparql, plain
    whitespace-normalized tokens otherwise."""
    return formalisms.get(formalism).key(text)


def exact_match(preds: Iterable[tuple[str, str]],
                golds: Iterable[tuple[str, str]],
                formalism: str,
                quarantined: list[QuarantineEntry]) -> EvalReport:
    """Score predictions against golds keyed by id.

    Predictions that are empty (flagged upstream) or that fail the
    formalism's normalization are counted as invalid and score zero.  Golds
    and predictions are each read under :func:`data.first_of_each_id`, so a
    repeated id counts once and each repeat goes to ``quarantined``; the
    two files must then cover exactly the same ids.
    """
    pred_map = dict(first_of_each_id(preds, "evaluate", quarantined))
    gold_map = dict(first_of_each_id(golds, "gold", quarantined))
    missing = [i for i in gold_map if i not in pred_map]
    extra = [i for i in pred_map if i not in gold_map]
    if missing or extra:
        raise IrkitError(
            "prediction/gold id mismatch: "
            f"{len(missing)} missing (first: {missing[:3]}), "
            f"{len(extra)} extra (first: {extra[:3]})")

    report = EvalReport(0.0, len(gold_map), 0, 0)
    for record_id, gold in gold_map.items():
        gold_key = comparison_key(formalism, gold)
        pred = pred_map[record_id]
        verdict = WRONG
        if not pred.strip():
            verdict = INVALID
        elif pred == gold:  # its key is gold_key, so it is not computed
            verdict = CORRECT
        else:
            try:
                if comparison_key(formalism, pred) == gold_key:
                    verdict = CORRECT
            except IrkitError:
                verdict = INVALID
        if verdict == CORRECT:
            report.n_correct += 1
        elif verdict == INVALID:
            report.n_invalid += 1
        report.per_example.append((record_id, verdict))
    if report.n_total:
        report.exact_match = 100.0 * report.n_correct / report.n_total
    return report


# ---------------------------------------------------------------------------
# Structural novelty
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StructureRateReport:
    new_structure_rate: float
    n_eval: int
    n_new: int
    n_unparseable_train: int
    n_unparseable_eval: int


def structure_key(formalism: str, text: str) -> str:
    """Anonymized structural form of a program or reversible IR."""
    return formalisms.get(formalism).structure(text)


def new_structure_rate(train_programs: Sequence[str],
                       eval_programs: Sequence[str],
                       formalism: str) -> StructureRateReport:
    """Percentage of eval programs whose structure never occurs in train.

    Unparseable inputs do not contribute signatures; they are tallied in the
    report (an unparseable eval program still counts in the denominator)."""
    train_keys = set()
    n_bad_train = 0
    for text in train_programs:
        try:
            train_keys.add(structure_key(formalism, text))
        except IrkitError:
            n_bad_train += 1
    n_new = 0
    n_bad_eval = 0
    for text in eval_programs:
        try:
            key = structure_key(formalism, text)
        except IrkitError:
            n_bad_eval += 1
            n_new += 1  # an unanalyzable program is certainly not seen
            continue
        if key not in train_keys:
            n_new += 1
    n_eval = len(eval_programs)
    rate = 100.0 * n_new / n_eval if n_eval else 0.0
    return StructureRateReport(rate, n_eval, n_new, n_bad_train, n_bad_eval)


# ---------------------------------------------------------------------------
# Program length
# ---------------------------------------------------------------------------


def whitespace_tokenizer(text: str) -> list[str]:
    return text.split()


class WordPieceTokenizer:
    """Greedy longest-match subword segmentation over a plain vocab file
    (one piece per line; continuation pieces start with ``##``)."""

    UNK = "[UNK]"

    def __init__(self, vocabulary: Sequence[str]):
        self.pieces = frozenset(vocabulary)
        self.max_len = max((len(p) for p in self.pieces), default=1)

    @classmethod
    def from_file(cls, path: str | Path) -> "WordPieceTokenizer":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([line.strip() for line in lines if line.strip()])

    def _word_pieces(self, word: str) -> list[str]:
        pieces: list[str] = []
        start = 0
        while start < len(word):
            prefix = "##" if start else ""
            end = min(len(word), start + self.max_len)
            while end > start:
                candidate = prefix + word[start:end]
                if candidate in self.pieces:
                    pieces.append(candidate)
                    break
                end -= 1
            else:
                return [self.UNK]
            start = end
        return pieces

    def __call__(self, text: str) -> list[str]:
        out: list[str] = []
        for word in text.split():
            out.extend(self._word_pieces(word))
        return out


def avg_length(programs: Sequence[str],
               tokenizer: Callable[[str], list[str]] | None = None) -> float:
    """Mean token count; refuses an empty input rather than reporting 0."""
    if not programs:
        raise IrkitError("cannot average over an empty program list")
    tokenize = tokenizer or whitespace_tokenizer
    return sum(len(tokenize(p)) for p in programs) / len(programs)
