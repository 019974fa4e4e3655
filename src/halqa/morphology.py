"""Light stemming, noun/verb tagging and thesaurus lookup.

The stemmer is rule based (clitic/affix stripping with a minimum stem
length) behind a small interface, with a dictionary-override file for
words the rules get wrong. Tagging is heuristic with the same override
file as the first authority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyWord, LexiconParseError, ThesaurusConflict
from .text_core import ARTICLE, normalize, read_rows


class PosTag(enum.Enum):
    NOUN = "NOUN"
    VERB = "VERB"


# The article comes off first (it never carries meaning), then suffixes,
# then the remaining prefixes, so a stem-final ت (e.g. كسرت) survives
# prefix rules and الX always stems like X. Within each list, longest
# match wins.
_ARTICLE_PREFIX = ["ال"]
_SUFFIXES = ["ها", "ات", "ان", "ون", "ين", "ه", "ة", "ي", "ت"]
# ال plus single-letter clitics and the imperfect markers ي/ت.
_PREFIXES = ["ال", "و", "ف", "ب", "ك", "ل", "ي", "ت"]
_MIN_STEM = 3
# Each rule group as (strips a suffix, its affixes as (length, set) pairs,
# longest first), derived once from the lists above.
_RULES = tuple(
    (suffix, tuple((n, frozenset(a for a in group if len(a) == n))
                   for n in sorted({len(a) for a in group}, reverse=True)))
    for suffix, group in ((False, _ARTICLE_PREFIX), (True, _SUFFIXES),
                          (False, _PREFIXES)))

# Particles that govern a following verb (jussive/subjunctive markers).
_VERB_GOVERNORS = frozenset({"لم", "لن", "قد", "سوف"})


class LightStemmer:
    """Affix-stripping stemmer with a word→root override dictionary.

    Stripping runs to a fixed point, so the result is idempotent by
    construction; no stem is ever reduced below 3 characters.
    """

    def __init__(self, overrides: dict[str, str] | None = None,
                 tag_overrides: dict[str, PosTag] | None = None):
        self.overrides = dict(overrides or {})
        self.tag_overrides = dict(tag_overrides or {})

    @classmethod
    def from_file(cls, path: Path | str) -> "LightStemmer":
        """Load overrides from a TSV of word<TAB>root[<TAB>NOUN|VERB],
        each word on one row only."""
        roots: dict[str, str] = {}
        tags: dict[str, PosTag] = {}
        path = Path(path)
        for lineno, row in read_rows(path):
            cols = row.split("\t")
            if len(cols) not in (2, 3):
                raise LexiconParseError("expected 2 or 3 tab-separated columns",
                                        path, lineno)
            word, root = normalize(cols[0].strip()), normalize(cols[1].strip())
            if len(word.split()) != 1 or len(root.split()) != 1:
                raise LexiconParseError("word and root must each be one word",
                                        path, lineno)
            if word in roots:
                raise LexiconParseError(f"duplicate word {word!r}", path, lineno)
            roots[word] = root
            if len(cols) == 3:
                tag = cols[2].strip().upper()
                if tag not in PosTag.__members__:
                    raise LexiconParseError(f"unknown tag {cols[2]!r}", path, lineno)
                tags[word] = PosTag[tag]
        return cls(roots, tags)

    def stem(self, word: str) -> str:
        """Return the root form of a normalized, article-free word."""
        if not word:
            raise EmptyWord("cannot stem an empty word")
        if word in self.overrides:
            return self.overrides[word]
        stem = word
        while True:
            before = stem
            # Strip a group's affixes until none fits: for each length n,
            # longest first, look the word's last (or first) n letters up.
            for suffix, by_length in _RULES:
                while True:
                    for n, affixes in by_length:
                        if len(stem) - n >= _MIN_STEM and \
                                (stem[-n:] if suffix else stem[:n]) in affixes:
                            stem = stem[:-n] if suffix else stem[n:]
                            break
                    else:
                        break
            if stem == before:
                return stem

    def tag(self, word: str, preceding: str | None = None) -> PosTag:
        """Tag a word NOUN or VERB.

        Order of authority: override file, then the definite article
        (ال → NOUN), then a verb-governing preceding particle (لم/لن/…
        → VERB), then NOUN by default.
        """
        if word in self.tag_overrides:
            return self.tag_overrides[word]
        if word.startswith(ARTICLE):
            return PosTag.NOUN
        if preceding is not None and preceding in _VERB_GOVERNORS:
            return PosTag.VERB
        return PosTag.NOUN


@dataclass(frozen=True)
class Thesaurus:
    """Synonym and antonym maps, stored exactly as given (no symmetry or
    transitivity is assumed)."""

    synonyms: dict[str, frozenset[str]] = field(default_factory=dict)
    antonyms: dict[str, frozenset[str]] = field(default_factory=dict)


def load_thesaurus(path: Path | str) -> Thesaurus:
    """Parse a TSV thesaurus: word<TAB>syn|ant<TAB>space-separated targets.

    Entries are Alef-normalized on load and duplicate keys merge by set
    union. A key of more or less than one word, a target empty after
    normalizing and a word both synonym and antonym of a key are rejected.
    """
    synonyms: dict[str, set[str]] = {}
    antonyms: dict[str, set[str]] = {}
    path = Path(path)
    for lineno, row in read_rows(path):
        cols = row.split("\t")
        if len(cols) != 3:
            raise LexiconParseError("expected word<TAB>syn|ant<TAB>targets",
                                    path, lineno)
        word = normalize(cols[0].strip())
        relation = cols[1].strip().lower()
        targets = {normalize(t) for t in cols[2].split()}
        if len(word.split()) != 1:
            raise LexiconParseError("the key must be one word", path, lineno)
        if "" in targets:
            raise LexiconParseError("a target is empty after normalizing",
                                    path, lineno)
        if relation == "syn":
            synonyms.setdefault(word, set()).update(targets)
        elif relation == "ant":
            antonyms.setdefault(word, set()).update(targets)
        else:
            raise LexiconParseError(f"unknown relation {cols[1]!r}", path, lineno)
    for word in set(synonyms) & set(antonyms):
        clash = synonyms[word] & antonyms[word]
        if clash:
            raise ThesaurusConflict(
                f"{', '.join(sorted(clash))} listed as both synonym and "
                f"antonym of {word}"
            )
    return Thesaurus(
        synonyms={w: frozenset(s) for w, s in synonyms.items()},
        antonyms={w: frozenset(s) for w, s in antonyms.items()},
    )
