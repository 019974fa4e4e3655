from collections import Counter
from typing import NamedTuple

import pytest

from halqa.config import Config
from halqa.morphology import LightStemmer, load_thesaurus
from halqa.pipeline import Engine
from halqa.question_analysis import (RepSet, StemmedThesaurus,
                                     build_representations, parse_question)
from halqa.retrieval import Index
from halqa.text_core import Lexicons, load_wordlist

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
QUESTIONS = FIXTURES / "questions.tsv"


def analyze(question, lexicons, stemmer, thesaurus) -> RepSet:
    """The representations of a question, as ``Engine.analyze`` makes
    them: parse, then expand with the thesaurus."""
    return build_representations(parse_question(question, lexicons, stemmer),
                                 StemmedThesaurus.build(thesaurus, stemmer),
                                 stemmer)


def index_of(paragraphs) -> Index:
    """The index of the given paragraphs, in the order given."""
    return Index(*zip(*((p.doc_id, p.para_id, p.text, p.terms)
                        for p in paragraphs)))


class ReferenceDocument(NamedTuple):
    doc_id: str
    positions: list[int]  # of its paragraphs in the index
    terms: Counter  # root -> frequency, summed over its paragraphs


def documents_of(idx: Index) -> list[ReferenceDocument]:
    """The index's documents, grouped from its paragraphs by doc_id, in
    index order: a reference that reads neither ``Index.document_starts``
    nor ``Index.document_terms``."""
    documents = {}
    for i, p in enumerate(idx.paragraphs):
        d = documents.setdefault(
            p.doc_id, ReferenceDocument(p.doc_id, [], Counter()))
        d.positions.append(i)
        d.terms.update(p.terms)
    return list(documents.values())


@pytest.fixture(scope="session")
def config():
    return Config(corpus_dir=CORPUS_DIR)


@pytest.fixture(scope="session")
def lexicons(config):
    return Lexicons.from_files(config.stopwords, config.negation,
                               config.article_exceptions)


@pytest.fixture(scope="session")
def stemmer(config):
    return LightStemmer.from_file(config.stem_overrides)


@pytest.fixture(scope="session")
def thesaurus(config):
    return load_thesaurus(config.thesaurus)


@pytest.fixture(scope="session")
def engine(config):
    return Engine(config)
