"""Parse هل-questions into nominal/verbal structure and expand them into
logical representations (base, synonym, antonym) with negation tracking.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass

from .errors import MalformedQuestion
from .morphology import LightStemmer, PosTag, Thesaurus
from .text_core import (INTERROGATIVE, Lexicons, normalize, strip_article,
                        words)


class SentenceKind(enum.Enum):
    NOMINAL = "N"
    VERBAL = "V"


class Provenance(enum.Enum):
    BASE = "base"
    SYNONYM = "synonym"
    ANTONYM = "antonym"


# Verbs whose root triggers the rewrite of a ب-word into the relation.
SPECIAL_VERB_ROOTS = frozenset({"وصف", "شهر", "ميز"})
_BA = "ب"


@dataclass(frozen=True)
class ParsedQuestion:
    kind: SentenceKind
    head: str                 # exact topic/subject, article-stripped
    relation: str             # comment (nominal) or verb (verbal)
    remaining: tuple[str, ...]
    negated: bool


@dataclass(frozen=True)
class LogicalRep:
    kind: SentenceKind
    negated: bool
    head: str
    relation_roots: frozenset[str]
    remaining_roots: tuple[str, ...]
    provenance: Provenance


@dataclass(frozen=True)
class RepSet:
    reps: tuple[LogicalRep, ...]  # BASE, then SYNONYM, then ANTONYM, if any
    source: ParsedQuestion


def parse_question(raw: str, lexicons: Lexicons,
                   stemmer: LightStemmer) -> ParsedQuestion:
    """Parse a هل-question; raise MalformedQuestion when it is not UTF-8,
    has no هل, no head or no relation, or when a content word is a bare
    article. A verbal question whose verb stems to وصف, شهر or ميز takes
    as relation the root of its first remaining ب-word without the ب, and
    every copy of that word leaves the remaining words."""
    try:
        raw.encode()
    except UnicodeEncodeError:  # a lone surrogate: an argument byte not UTF-8
        raise MalformedQuestion("question is not UTF-8") from None
    ws = words(normalize(raw))
    if not ws or ws[0] != INTERROGATIVE:
        raise MalformedQuestion("question must start with هل")
    content = [w for w in ws[1:] if w not in lexicons.stopwords]
    kept = [i for i, w in enumerate(content)
            if w not in lexicons.negation_particles]
    if not kept:
        raise MalformedQuestion("question has no content words")
    if any(not strip_article(content[i], lexicons) for i in kept):
        raise MalformedQuestion("question has a bare article (ال) as a word")

    def is_noun(i: int) -> bool:
        # The preceding word may be a particle, so لم يفتح tags يفتح a verb.
        return stemmer.tag(content[i],
                           content[i - 1] if i else None) is PosTag.NOUN

    first, *rest = kept
    nouns = [i for i in rest if is_noun(i)]
    if not is_noun(first):
        # The subject is the first noun after the verb.
        if not nouns:
            raise MalformedQuestion("verbal question has no subject noun")
        kind, head, relation = SentenceKind.VERBAL, nouns[0], first
    else:
        # The comment is the last noun without the definite article.
        kind, head = SentenceKind.NOMINAL, first
        relation = next((i for i in reversed(nouns)
                         if strip_article(content[i], lexicons) == content[i]),
                        None)
        if relation is None:
            raise MalformedQuestion(
                "nominal question has no article-free comment noun")
    relation_word = content[relation]
    remaining = tuple(strip_article(content[i], lexicons)
                      for i in rest if i not in (head, relation))
    if kind is SentenceKind.VERBAL \
            and stemmer.stem(relation_word) in SPECIAL_VERB_ROOTS:
        ba_word = next((w for w in remaining
                        if w.startswith(_BA) and len(w) > len(_BA)), None)
        if ba_word is not None:
            relation_word = stemmer.stem(ba_word[len(_BA):])
            remaining = tuple(w for w in remaining if w != ba_word)
    return ParsedQuestion(kind=kind,
                          head=strip_article(content[head], lexicons),
                          relation=relation_word, remaining=remaining,
                          negated=len(kept) < len(content))


@dataclass(frozen=True)
class StemmedThesaurus:
    """A thesaurus stemmed once for relation lookup. Each map is a pair:
    key -> target roots, and key root -> the target roots of every key
    with that root."""
    synonyms: tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]
    antonyms: tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]

    @classmethod
    def build(cls, thesaurus: Thesaurus,
              stemmer: LightStemmer) -> "StemmedThesaurus":
        def stemmed(thesaurus_map):
            by_key = {key: frozenset(map(stemmer.stem, targets))
                      for key, targets in thesaurus_map.items()}
            by_root = defaultdict(frozenset)
            for key, roots in by_key.items():
                by_root[stemmer.stem(key)] |= roots
            return by_key, dict(by_root)
        return cls(stemmed(thesaurus.synonyms), stemmed(thesaurus.antonyms))


def _relation_candidates(relation: str, root: str,
                         maps: tuple[dict, dict]) -> frozenset[str]:
    # Surface form first, then the root, then any key sharing the root
    # (the stemmer may clip a root differently from the thesaurus
    # author's citation form); first hit wins.
    by_key, by_root = maps
    return (by_key.get(relation) or by_key.get(root)
            or by_root.get(root, frozenset()))


def build_representations(q: ParsedQuestion, thesaurus: StemmedThesaurus,
                          stemmer: LightStemmer) -> RepSet:
    """Expand a parsed question into its logical representations.

    Always one BASE rep; a SYNONYM rep when the thesaurus knows synonyms
    for the relation word, and an ANTONYM rep (with flipped negation)
    when it knows antonyms.
    """
    remaining_roots = tuple(stemmer.stem(w) for w in q.remaining)

    def rep(roots: frozenset[str], negated: bool,
            provenance: Provenance) -> LogicalRep:
        return LogicalRep(kind=q.kind, negated=negated, head=q.head,
                          relation_roots=roots,
                          remaining_roots=remaining_roots,
                          provenance=provenance)

    root = stemmer.stem(q.relation)
    reps = [rep(frozenset({root}), q.negated, Provenance.BASE)]
    synonyms = _relation_candidates(q.relation, root, thesaurus.synonyms)
    if synonyms:
        reps.append(rep(synonyms, q.negated, Provenance.SYNONYM))
    antonyms = _relation_candidates(q.relation, root, thesaurus.antonyms)
    if antonyms:
        reps.append(rep(antonyms, not q.negated, Provenance.ANTONYM))
    return RepSet(reps=tuple(reps), source=q)


def retrieval_term_multiset(rs: RepSet, stemmer: LightStemmer) -> list[str]:
    """Pre-dedup query roots: head root, base relation roots, remaining
    roots. Synonym/antonym roots stay out of the retrieval query."""
    base = rs.reps[0]  # build_representations makes the BASE rep first
    return ([stemmer.stem(base.head)]
            + sorted(base.relation_roots)
            + list(base.remaining_roots))
