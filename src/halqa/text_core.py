"""Arabic-aware text primitives: normalization, words, lexicons and
paragraph/sentence splitting.

Everything here is a pure function over immutable inputs; ``Lexicons`` is
frozen after load.
"""

from __future__ import annotations

import re
from codecs import BOM_UTF8
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import LexiconParseError

_TATWEEL = "ـ"

# Harakat/diacritics are treated like punctuation and never survive
# tokenization.
_DIACRITICS = "ً-ْٰ"
_PUNCT = r"?؟!.,،؛;:\"'«»()\[\]{}<>…‐-―\-_/\\*+=|~`^%$#@&"
# \s spelled out (str.isspace): with \s, sre cannot make the class one set.
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
           "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f"
           "\u205f\u3000")
_TOKEN = re.compile(f"[^{_SPACES}{_PUNCT}{_DIACRITICS}]+")

_SENTENCE_TERMINATORS = re.compile(r"[.؟!؛]")
_PARAGRAPH_BREAK = re.compile(r"\n[ \t\r]*\n+")

ARTICLE = "ال"
INTERROGATIVE = "هل"


def normalize(raw: str) -> str:
    """Collapse Alef variants (أ إ آ) to bare Alef and drop tatweel.

    Idempotent; every other character passes through unchanged.
    """
    return raw.replace("أ", "ا").replace("إ", "ا").replace("آ", "ا").replace(
        _TATWEEL, "")


@dataclass(frozen=True)
class Token:
    surface: str
    position: int

    def __repr__(self):  # keeps pytest diffs readable for Arabic data
        return f"{self.surface}@{self.position}"


def words(text: str) -> list[str]:
    """The words of normalized text, in order: maximal runs of characters
    that are not whitespace (``str.isspace``), punctuation or diacritics.
    Punctuation (including ؟ and ?) and diacritics are dropped."""
    return _TOKEN.findall(text)


def tokenize(text: str) -> list[Token]:
    """The words of normalized text as tokens with 0-based positions."""
    return [Token(s, i) for i, s in enumerate(words(text))]


@dataclass(frozen=True)
class Lexicons:
    """Stopwords, negation particles and the article-exception word list.

    All entries are Alef-normalized on load; the three sets must be
    pairwise disjoint.
    """

    stopwords: frozenset[str] = frozenset()
    negation_particles: frozenset[str] = frozenset()
    article_exceptions: frozenset[str] = frozenset()

    def __post_init__(self):
        overlap = (self.stopwords & self.negation_particles) | (
            self.stopwords & self.article_exceptions
        ) | (self.negation_particles & self.article_exceptions)
        if overlap:
            raise LexiconParseError(
                "lexicon sets must be disjoint, shared entries: "
                + ", ".join(sorted(overlap))
            )

    @classmethod
    def from_files(cls, stopwords: Path, negation: Path,
                   article_exceptions: Path) -> "Lexicons":
        return cls(
            stopwords=frozenset(load_wordlist(stopwords)),
            negation_particles=frozenset(load_wordlist(negation)),
            article_exceptions=frozenset(load_wordlist(article_exceptions)),
        )


def read_rows(path: Path | str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, row) for each row of a UTF-8 data file,
    which may begin with a byte order mark: a line with its # comment and
    surrounding whitespace removed, blank rows skipped. LexiconParseError
    names the file and line of a byte that is not UTF-8."""
    data = Path(path).read_bytes().removeprefix(BOM_UTF8)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        # The bad byte's line: one more than the line breaks before it.
        line = len((data[:exc.start].decode() + "x").splitlines())
        raise LexiconParseError(f"not UTF-8: {exc}", path, line) from None
    for lineno, line in enumerate(text.splitlines(), 1):
        if row := line.split("#", 1)[0].strip():
            yield lineno, row


def load_wordlist(path: Path | str) -> set[str]:
    """Read a one-word-per-line UTF-8 word list; # starts a comment."""
    words: set[str] = set()
    path = Path(path)
    for lineno, entry in read_rows(path):
        if len(entry.split()) != 1:
            raise LexiconParseError("expected one word per line", path, lineno)
        words.add(normalize(entry))
    return words


def remove_stopwords(tokens: Iterable[Token], lex: Lexicons) -> list[Token]:
    """Drop stopword tokens; surviving tokens keep their original positions."""
    return [t for t in tokens if t.surface not in lex.stopwords]


def strip_article(word: str, lex: Lexicons) -> str:
    """Remove a leading ال unless the word is a listed exception."""
    if word.startswith(ARTICLE) and word not in lex.article_exceptions:
        return word[len(ARTICLE):]
    return word


def split_paragraphs(document: str) -> list[str]:
    """Split raw text into paragraphs at blank lines; empty blocks vanish."""
    parts = _PARAGRAPH_BREAK.split(document)
    return [p.strip() for p in parts if p.strip()]


def split_sentences(paragraph: str) -> list[str]:
    """Split a paragraph at the terminators {. ؟ ! ؛}.

    Delimiter-free trailing text forms a final sentence.
    """
    parts = _SENTENCE_TERMINATORS.split(paragraph)
    return [s.strip() for s in parts if s.strip()]
