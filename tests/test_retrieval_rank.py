"""How well retrieval ranks the paragraph that supports a verdict.

Each question is answered with every paragraph retrieved. The supporting
sentence's paragraph is then the reference, and its rank is its 1-based
place in that same retrieval. No human label is needed. The figures are
pinned so that a change of ranking shows before a verdict flips; two-word
questions rank worst, since their query weights are all zero.
"""

import dataclasses

import pytest

from halqa.config import Config
from halqa.errors import MalformedQuestion
from halqa.evaluation import load_questions
from halqa.pipeline import Engine

from conftest import CORPUS_DIR, QUESTIONS
from generate_questions import GENERATED


def generated(section):
    """The questions of one section of generated.tsv, which opens with a
    comment line naming it."""
    text = GENERATED.read_text(encoding="utf-8")
    block = next(b for b in text.split("\n# ") if b.startswith(f"{section}:"))
    return [row.split("\t")[0] for row in block.splitlines()[1:]]


@pytest.fixture(scope="module")
def engine():
    engine = Engine(Config(corpus_dir=CORPUS_DIR))
    engine.config = dataclasses.replace(
        engine.config, k_paras=engine.index.n_paragraphs)
    return engine


def supporting_ranks(engine, questions):
    """The rank of each verdict's supporting paragraph; a question with
    no verdict has none."""
    ranks = []
    for question in questions:
        try:
            result = engine.answer(question)
        except MalformedQuestion:
            continue
        if (c := result.verdict.supporting) is None:
            continue
        retrieved = [(p.doc_id, p.para_id) for p in result.retrieved]
        ranks.append(retrieved.index((c.sentence.doc_id,
                                      c.sentence.para_id)) + 1)
    return ranks


@pytest.mark.parametrize("questions, pinned", [
    ([q for q, _ in load_questions(QUESTIONS)], (43, 42, 43, 43, 0.988)),
    (generated("self-answer"), (31, 31, 31, 31, 1.0)),
    (generated("two-word"), (191, 10, 60, 99, 0.191)),
], ids=["gold", "self-answer", "two-word"])
def test_supporting_paragraph_rank(engine, questions, pinned):
    assert engine.index.n_paragraphs == 21
    ranks = supporting_ranks(engine, questions)
    # answered, rank 1, within 5, within 10, mean reciprocal rank
    assert (len(ranks), sum(r == 1 for r in ranks),
            sum(r <= 5 for r in ranks), sum(r <= 10 for r in ranks),
            round(sum(1 / r for r in ranks) / len(ranks), 3)) == pinned
