"""Write tests/fixtures/generated.tsv, questions generated from the fixture
corpus whose labels need no human, in the question<TAB>yes|no format:

- self-answer: each sentence of the corpus asked as ``هل <sentence> ؟``,
  labelled yes;
- two-word: each ordered pair of distinct non-stopword words of a
  sentence asked as ``هل <a> <b> ؟``, once, labelled with the verdict it
  gets when every paragraph is retrieved. A pair that does not parse, or
  that gets no verdict, is left out.

Answering the two-word questions with the default ``k`` shows a change of
ranking that the hand-labelled questions cannot. Run from the repository
root:

    PYTHONPATH=src python tests/generate_questions.py
"""

from __future__ import annotations

import dataclasses
from itertools import permutations
from pathlib import Path

from halqa.config import Config
from halqa.errors import MalformedQuestion
from halqa.pipeline import Engine
from halqa.retrieval import read_corpus
from halqa.text_core import normalize, split_paragraphs, split_sentences, words

FIXTURES = Path(__file__).parent / "fixtures"
GENERATED = FIXTURES / "generated.tsv"


def generated_tsv(corpus_dir: Path = FIXTURES / "corpus") -> str:
    """The file's text, generated from the corpus."""
    engine = Engine(Config(corpus_dir=corpus_dir))
    engine.config = dataclasses.replace(
        engine.config, k_paras=engine.index.n_paragraphs)
    sentences = [s for _, text in read_corpus(corpus_dir)
                 for paragraph in split_paragraphs(text)
                 for s in split_sentences(paragraph)]
    lines = ["# Generated by tests/generate_questions.py; do not edit.",
             "# self-answer: each corpus sentence, labelled yes"]
    lines += [f"هل {s} ؟\tyes" for s in sentences]
    lines.append("# two-word: labelled with the verdict when every "
                 "paragraph is retrieved")
    pairs = dict.fromkeys(
        f"هل {a} {b} ؟" for s in sentences
        for a, b in permutations(dict.fromkeys(
            w for w in words(normalize(s))
            if w not in engine.lexicons.stopwords), 2))
    for question in pairs:
        try:
            answer = engine.answer(question).verdict.answer.value
        except MalformedQuestion:
            continue
        if answer != "unknown":
            lines.append(f"{question}\t{answer}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GENERATED.write_text(generated_tsv(), encoding="utf-8")
