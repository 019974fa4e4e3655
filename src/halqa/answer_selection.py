"""Pick the best supporting sentence from the retrieved paragraphs and
resolve the yes/no verdict.

One match rule unifies a representation with a sentence: the sentence
holds the exact head (surface form, article-stripped comparison), at
least one relation root and all remaining roots. The preceding sentence
is optional context: when direct matching finds nothing, the lookback
(advanced search) lets it hold the head and supply remaining roots
instead. Candidates are ranked by span (last matched position minus
first); the tightest span wins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .morphology import LightStemmer
from .question_analysis import LogicalRep, RepSet
from .retrieval import Paragraph
from .text_core import Lexicons, normalize, split_sentences, strip_article, words


class Answer(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Sentence:
    """A sentence prepared for matching: its words, its stemmed content
    words (stopwords removed, positions re-indexed) and its polarity."""
    text: str
    doc_id: str
    para_id: int
    sentence_index: int
    surface: tuple[str, ...]          # all words, article-stripped
    content_surface: tuple[str, ...]  # stopwords removed, article-stripped
    content_roots: tuple[str, ...]    # stemmed, aligned with content_surface
    negated: bool                     # holds a negation particle


@dataclass(frozen=True)
class CandidateSentence:
    sentence: Sentence
    matched_rep: LogicalRep
    span_rank: int
    via_advanced_search: bool = False

    def describe(self) -> dict:
        """Where the sentence is, which representation it matched and how
        tightly, as a JSON record."""
        return {"doc_id": self.sentence.doc_id,
                "para_id": self.sentence.para_id,
                "sentence_index": self.sentence.sentence_index,
                "provenance": self.matched_rep.provenance.value,
                "span_rank": self.span_rank,
                "via_advanced_search": self.via_advanced_search}


@dataclass(frozen=True)
class Verdict:
    answer: Answer
    supporting: CandidateSentence | None
    trace: tuple[CandidateSentence, ...] = ()  # every candidate, ranked

    def to_record(self) -> dict:
        rec = {"answer": self.answer.value}
        if (c := self.supporting) is not None:
            rec.update(c.describe(), sentence=c.sentence.text,
                       rep_negated=c.matched_rep.negated,
                       answer_negated=c.sentence.negated)
        return rec


def prepare_sentences(paragraph: Paragraph, lexicons: Lexicons,
                      stemmer: LightStemmer) -> tuple[Sentence, ...]:
    """The paragraph's sentences, ready for matching. They depend only on
    its ids and text, the lexicons and the stemmer, so they may be kept."""
    sentences = []
    for i, text in enumerate(split_sentences(paragraph.text)):
        all_words = words(normalize(text))
        content = [w for w in all_words if w not in lexicons.stopwords]
        sentences.append(Sentence(
            text=text, doc_id=paragraph.doc_id, para_id=paragraph.para_id,
            sentence_index=i,
            surface=tuple(strip_article(w, lexicons) for w in all_words),
            content_surface=tuple(strip_article(w, lexicons) for w in content),
            content_roots=tuple(stemmer.stem(w) for w in content),
            negated=any(w in lexicons.negation_particles for w in all_words),
        ))
    return tuple(sentences)


def resolve_polarity(rep_negated: bool, answer_negated: bool) -> Answer:
    """YES when question and answer polarity agree, NO otherwise."""
    return Answer.YES if rep_negated == answer_negated else Answer.NO


def match_and_rank(sentence: Sentence, rep: LogicalRep,
                   previous: Sentence | None = None,
                   ) -> CandidateSentence | None:
    """Unify a representation with a sentence: the candidate, ranked by its
    span (last matched position minus first), or None.

    The sentence must hold a relation root and every remaining root; a
    root's first occurrence counts. Direct (no ``previous``): it holds the
    exact head, whose first content position, if any, joins the span.
    Lookback: the head is absent here but present in ``previous``, whose
    roots may supply remaining roots; the span covers this sentence only.
    Each early return is a stage that makes an answer ``unknown``: no head,
    no relation root, a remaining root missing; in lookback, all of them
    mean the lookback found nothing.
    """
    lookback = previous is not None
    if lookback:
        if rep.head in sentence.surface or rep.head not in previous.surface:
            return None  # no head before this sentence, or one in it
    elif rep.head not in sentence.surface:
        return None  # no head
    roots = sentence.content_roots
    positions = [roots.index(r) for r in rep.relation_roots if r in roots]
    if not positions:
        return None  # head found but no relation root
    context = previous.content_roots if lookback else ()
    for root in rep.remaining_roots:
        if root in roots:
            positions.append(roots.index(root))
        elif root not in context:
            return None  # a remaining root missing
    if rep.head in sentence.content_surface:  # never, in lookback
        positions.append(sentence.content_surface.index(rep.head))
    return CandidateSentence(sentence=sentence, matched_rep=rep,
                             span_rank=max(positions) - min(positions),
                             via_advanced_search=lookback)


def select_answer(prepared: list[tuple[Sentence, ...]], repset: RepSet,
                  use_advanced_search: bool = True) -> Verdict:
    """Choose the best supporting sentence across the retrieved paragraphs
    and resolve the verdict.

    prepared: each retrieved paragraph's ``prepare_sentences``, in
    retrieval order. Minimum span wins; ties break by retrieval order,
    then sentence index, then provenance BASE > SYNONYM > ANTONYM. That is
    the order candidates are found in (``build_representations`` makes the
    reps in it), so one stable sort by span ranks them.
    """
    def ranked(lookback: bool) -> tuple[CandidateSentence, ...]:
        found = []
        for sentences in prepared:
            pairs = (zip(sentences[1:], sentences) if lookback
                     else ((s, None) for s in sentences))
            for sentence, previous in pairs:
                for rep in repset.reps:
                    cand = match_and_rank(sentence, rep, previous)
                    if cand is not None:
                        found.append(cand)
        return tuple(sorted(found, key=lambda c: c.span_rank))

    candidates = ranked(lookback=False)
    if not candidates and use_advanced_search:
        candidates = ranked(lookback=True)
    if not candidates:
        return Verdict(answer=Answer.UNKNOWN, supporting=None)
    best = candidates[0]
    return Verdict(answer=resolve_polarity(best.matched_rep.negated,
                                           best.sentence.negated),
                   supporting=best, trace=candidates)
