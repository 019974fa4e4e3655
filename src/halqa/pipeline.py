"""End-to-end engine: load resources once, then answer questions against
an index built (or loaded) from a corpus directory."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .answer_selection import (Sentence, Verdict, prepare_sentences,
                               select_answer)
from .config import Config
from .morphology import LightStemmer, Thesaurus, load_thesaurus
from .question_analysis import (RepSet, StemmedThesaurus,
                                build_representations, parse_question,
                                retrieval_term_multiset)
from .retrieval import (Index, Paragraph, build_index_from_dir,
                        document_technique, load_index, paragraph_technique,
                        save_index)
from .text_core import Lexicons


@dataclass(frozen=True)
class AnswerResult:
    reps: RepSet
    retrieved: tuple[Paragraph, ...]  # each carrying its score
    verdict: Verdict


class Engine:
    """Question answering pipeline bound to one configuration."""

    def __init__(self, config: Config):
        self.config = config
        self.lexicons = Lexicons.from_files(config.stopwords, config.negation,
                                            config.article_exceptions)
        self.stemmer = LightStemmer.from_file(config.stem_overrides)
        thesaurus = load_thesaurus(config.thesaurus)  # checked even when off
        self.thesaurus = StemmedThesaurus.build(
            thesaurus if config.use_thesaurus else Thesaurus(), self.stemmer)
        self._index: Index | None = None

    @property
    def index(self) -> Index:
        if self._index is None:
            self._index = build_index_from_dir(self.config.corpus_dir,
                                               self.lexicons, self.stemmer)
        return self._index

    def set_index(self, index: Index) -> None:
        self._index = index

    def load_index(self, path: Path | str) -> None:
        self.set_index(load_index(path))

    def save_index(self, path: Path | str) -> None:
        save_index(self.index, path)

    def analyze(self, question: str) -> RepSet:
        return build_representations(
            parse_question(question, self.lexicons, self.stemmer),
            self.thesaurus, self.stemmer)

    def retrieve(self, reps: RepSet) -> list[Paragraph]:
        query = Counter(retrieval_term_multiset(reps, self.stemmer))
        cfg = self.config
        if cfg.technique == "document":
            return document_technique(self.index, query, k_docs=cfg.k_docs,
                                      k_paras=cfg.k_paras)
        return paragraph_technique(self.index, query, k=cfg.k_paras)

    def _sentences(self, paragraph: Paragraph) -> tuple[Sentence, ...]:
        """The paragraph's prepared sentences, prepared on first use and
        kept by the index."""
        key = (paragraph.doc_id, paragraph.para_id)
        found = self.index.sentences.get(key)
        if found is None:
            found = self.index.sentences[key] = prepare_sentences(
                paragraph, self.lexicons, self.stemmer)
        return found

    def answer(self, question: str) -> AnswerResult:
        reps = self.analyze(question)
        retrieved = self.retrieve(reps)
        verdict = select_answer(
            [self._sentences(p) for p in retrieved], reps,
            use_advanced_search=self.config.use_advanced_search)
        return AnswerResult(reps=reps, retrieved=tuple(retrieved),
                            verdict=verdict)
