"""Arabic yes/no question answering: question analysis with synonym and
antonym expansion, paragraph/document retrieval, and polarity-based
answer selection."""

from .answer_selection import Answer, Verdict, resolve_polarity
from .config import Config, load_config
from .morphology import LightStemmer, PosTag, Thesaurus, load_thesaurus
from .pipeline import AnswerResult, Engine
from .question_analysis import (LogicalRep, ParsedQuestion, Provenance,
                                RepSet, SentenceKind, StemmedThesaurus,
                                build_representations, parse_question)
from .retrieval import Index, build_index, document_technique, paragraph_technique
from .text_core import Lexicons, normalize

__all__ = [
    "Answer", "AnswerResult", "Config", "Engine", "Index", "Lexicons",
    "LightStemmer", "LogicalRep", "ParsedQuestion", "PosTag", "Provenance",
    "RepSet", "SentenceKind", "StemmedThesaurus", "Thesaurus",
    "Verdict",
    "build_index", "build_representations", "document_technique",
    "load_config", "load_thesaurus", "normalize", "paragraph_technique",
    "parse_question", "resolve_polarity",
]

__version__ = "0.1.0"
