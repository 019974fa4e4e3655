"""Batch evaluation over a gold-labeled question file, with the optional
corpus-size sweep."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import LexiconParseError, MalformedQuestion
from .pipeline import Engine
from .retrieval import build_index, read_corpus
from .text_core import read_rows


@dataclass(frozen=True)
class QuestionRecord:
    question: str
    gold: str
    predicted: str
    correct: bool


@dataclass(frozen=True)
class EvalReport:
    records: tuple[QuestionRecord, ...]
    corpus_size: int

    @property
    def correct(self) -> int:
        return sum(r.correct for r in self.records)

    @property
    def accuracy(self) -> float:
        return self.correct / len(self.records) if self.records else 0.0

    def to_json_lines(self) -> str:
        lines = [json.dumps({"question": r.question, "gold": r.gold,
                             "predicted": r.predicted, "correct": r.correct},
                            ensure_ascii=False, sort_keys=True)
                 for r in self.records]
        summary = {"corpus_size": self.corpus_size,
                   "total": len(self.records),
                   "correct": self.correct,
                   "accuracy": self.accuracy}
        lines.append(json.dumps(summary, ensure_ascii=False, sort_keys=True))
        return "\n".join(lines) + "\n"


def load_questions(path: Path | str) -> list[tuple[str, str]]:
    """Read a TSV of question<TAB>yes|no; # starts a comment."""
    path = Path(path)
    questions = []
    for lineno, row in read_rows(path):
        cols = row.split("\t")
        if len(cols) != 2:
            raise LexiconParseError("expected question<TAB>yes|no", path, lineno)
        gold = cols[1].strip().lower()
        if gold not in ("yes", "no"):
            raise LexiconParseError(f"gold label must be yes or no, got {cols[1]!r}",
                                    path, lineno)
        questions.append((cols[0].strip(), gold))
    return questions


def evaluate(engine: Engine, questions: list[tuple[str, str]]) -> EvalReport:
    """Answer every question; UNKNOWN and malformed questions count as
    incorrect."""
    records = []
    for question, gold in questions:
        try:
            predicted = engine.answer(question).verdict.answer.value
        except MalformedQuestion:
            predicted = "malformed"
        records.append(QuestionRecord(question=question, gold=gold,
                                      predicted=predicted,
                                      correct=predicted == gold))
    return EvalReport(records=tuple(records),
                      corpus_size=engine.index.n_documents)


def sweep(engine: Engine, questions: list[tuple[str, str]],
          sizes: list[int], all_questions: bool = False) -> list[EvalReport]:
    """Re-run the evaluation with the corpus truncated to its first
    ``size`` documents (file-name order) for each size; each size's index
    replaces the engine's.

    By default each size gets a cumulative prefix of the question file,
    mirroring the paired documents/questions protocol; all_questions
    evaluates the full set at every size.
    """
    if min(sizes, default=1) < 1:
        raise ValueError(f"sweep sizes must be at least 1, got {min(sizes)}")
    corpus = read_corpus(engine.config.corpus_dir)
    reports = []
    for i, size in enumerate(sizes):
        engine.set_index(build_index(corpus[:size], engine.lexicons,
                                     engine.stemmer))
        if all_questions:
            bucket = questions
        else:
            end = round(len(questions) * (i + 1) / len(sizes))
            bucket = questions[:end]
        reports.append(evaluate(engine, bucket))
    return reports
