import pytest

from halqa.config import Config
from halqa.morphology import LightStemmer, load_thesaurus
from halqa.pipeline import Engine
from halqa.retrieval import Index
from halqa.text_core import Lexicons, load_wordlist

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
QUESTIONS = FIXTURES / "questions.tsv"


def index_of(paragraphs) -> Index:
    """The index of the given paragraphs, in the order given."""
    return Index(*zip(*((p.doc_id, p.para_id, p.text, p.terms)
                        for p in paragraphs)))


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
