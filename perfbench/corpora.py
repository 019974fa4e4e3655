"""Deterministic benchmark corpora generated from ``tests/fixtures/``.

A workload is the fixture's 13 documents laid out as one or more copies,
plus the fixture's 46 gold questions in a seeded order:

- ``fixture``: the fixture itself, one copy under the original ids.
- ``replicated``: 1,000 copies under seeded ids; the vocabulary stays at
  the fixture's 85 roots.
- ``renamed``: 1,000 copies under seeded ids, each with the 13 person names
  replaced by generated names unique to that copy, so the vocabulary grows
  with the corpus. Each question is renamed like one seeded copy.

The same workload name and seed give byte-identical files.

Write a workload to a directory (``corpus/*.txt`` and ``questions.tsv``)::

    PYTHONPATH=src python3 -m perfbench.corpora --workload renamed --seed 1 \\
        --out perfbench/work/renamed-1
"""

from __future__ import annotations

import argparse
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from halqa.config import Config
from halqa.evaluation import load_questions
from halqa.morphology import LightStemmer, load_thesaurus
from halqa.text_core import Lexicons, normalize, tokenize

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

COPIES = 1000
# The 12 person names of the fixture corpus, and فاطمة, which only the
# questions use.
NAMES = ("محمد", "محمود", "سميرة", "خالد", "ليلى", "عمر", "سلمى", "يوسف",
         "زينب", "كريم", "نادية", "حسن", "فاطمة")
# Letters that start or end no affix of the light stemmer, so a word made
# of them stems to itself.
NAME_LETTERS = "دذرزسشصضطظعغقجحخم"
NAME_LENGTH = 5
_WORD = re.compile(r"\w+")


@dataclass(frozen=True)
class Copy:
    """One copy of the fixture documents: an id prefix and a name map."""

    prefix: str
    names: dict[str, str] = field(default_factory=dict)

    def doc_id(self, stem: str) -> str:
        return self.prefix + stem

    def rename(self, text: str) -> str:
        if not self.names:
            return text
        return _WORD.sub(lambda m: self.names.get(m.group(), m.group()), text)


@dataclass(frozen=True)
class Workload:
    name: str
    technique: str                          # paragraph | document
    from_snapshot: bool                     # answer from the loaded snapshot
    floor: int                              # gold-correct verdicts per round
    setup_reps: int                         # build/save/load repetitions
    documents: tuple[tuple[str, str], ...]  # fixture (stem, text)
    copies: tuple[Copy, ...]
    questions: tuple[tuple[str, str], ...]  # (question, gold), seeded order


WORKLOADS = ("fixture", "replicated", "renamed")
# technique, from_snapshot, floor, setup_reps. The floor is the gold-correct
# verdicts a round must reach (see the README). Five set-ups of the
# 13,000-document corpora keep a run under a minute on a slow machine.
_SHAPE = {
    "fixture": ("paragraph", False, 43, 51),
    "replicated": ("paragraph", False, 42, 5),
    "renamed": ("document", True, 43, 5),
}


def fixture_documents() -> tuple[tuple[str, str], ...]:
    files = sorted((FIXTURES / "corpus").glob("*.txt"))
    if not files:
        raise FileNotFoundError(f"no fixture documents in {FIXTURES / 'corpus'}")
    return tuple((f.stem, f.read_text(encoding="utf-8")) for f in files)


def plan(workload: str, seed: int) -> Workload:
    """The workload's documents, copies and questions for one seed."""
    technique, from_snapshot, floor, setup_reps = _SHAPE[workload]
    rng = random.Random(f"{workload}:{seed}")
    documents = fixture_documents()
    questions = load_questions(FIXTURES / "questions.tsv")
    if workload == "fixture":
        copies = (Copy(prefix=""),)
    else:
        prefixes = _unique(rng, COPIES, lambda: f"c{rng.getrandbits(24):06x}_")
        if workload == "renamed":
            names = iter(_generated_names(rng, COPIES * len(NAMES), documents,
                                          questions))
            copies = tuple(Copy(p, {n: next(names) for n in NAMES})
                           for p in prefixes)
            questions = [(copies[rng.randrange(COPIES)].rename(q), gold)
                         for q, gold in questions]
        else:
            copies = tuple(Copy(p) for p in prefixes)
    questions = list(questions)
    rng.shuffle(questions)
    return Workload(name=workload, technique=technique,
                    from_snapshot=from_snapshot, floor=floor,
                    setup_reps=setup_reps, documents=documents, copies=copies,
                    questions=tuple(questions))


def _unique(rng: random.Random, count: int, draw) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        value = draw()
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _generated_names(rng: random.Random, count: int, documents,
                     questions) -> list[str]:
    """Distinct names that stem to themselves and collide with no fixture
    word or root, lexicon entry or thesaurus word."""
    config = Config()
    lexicons = Lexicons.from_files(config.stopwords, config.negation,
                                   config.article_exceptions)
    stemmer = LightStemmer.from_file(config.stem_overrides)
    thesaurus = load_thesaurus(config.thesaurus)
    words = {t.surface for _, text in documents for t in tokenize(normalize(text))}
    words |= {t.surface for q, _ in questions for t in tokenize(normalize(q))}
    forbidden = (words | {stemmer.stem(w) for w in words}
                 | lexicons.stopwords | lexicons.negation_particles
                 | lexicons.article_exceptions
                 | set(stemmer.overrides) | set(stemmer.overrides.values())
                 | set(thesaurus.synonyms) | set(thesaurus.antonyms)
                 | {w for m in (thesaurus.synonyms, thesaurus.antonyms)
                    for ws in m.values() for w in ws})

    def draw() -> str:
        while True:
            name = "".join(rng.choice(NAME_LETTERS) for _ in range(NAME_LENGTH))
            if name not in forbidden and stemmer.stem(name) == name:
                return name

    return _unique(rng, count, draw)


def write(w: Workload, out: Path) -> None:
    """Write ``corpus/<doc_id>.txt`` and ``questions.tsv`` under ``out``,
    one document at a time."""
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for copy in w.copies:
        for stem, text in w.documents:
            (corpus / f"{copy.doc_id(stem)}.txt").write_text(
                copy.rename(text), encoding="utf-8")
    (out / "questions.tsv").write_text(
        "".join(f"{q}\t{gold}\n" for q, gold in w.questions), encoding="utf-8")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory to create; must not exist")
    args = parser.parse_args(argv)
    write(plan(args.workload, args.seed), args.out)


if __name__ == "__main__":
    main()
