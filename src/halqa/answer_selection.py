"""Pick the best supporting sentence from the retrieved paragraphs and
resolve the yes/no verdict.

A sentence supports a representation when it contains the exact head
(surface form, article-stripped comparison), at least one relation root
and all remaining roots. Candidates are ranked by span (last matched
position minus first); the tightest span wins. When direct matching finds
nothing, the advanced search accepts a sentence whose head appears in the
immediately preceding sentence instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .morphology import LightStemmer
from .question_analysis import LogicalRep, Provenance, RepSet
from .retrieval import Paragraph
from .text_core import (Lexicons, normalize, remove_stopwords, split_sentences,
                        strip_article, tokenize)


class Answer(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


_PROVENANCE_ORDER = {Provenance.BASE: 0, Provenance.SYNONYM: 1,
                     Provenance.ANTONYM: 2}


@dataclass(frozen=True)
class Sentence:
    """A sentence prepared for matching: its tokens, its stemmed content
    tokens (stopwords removed, positions re-indexed) and its polarity."""
    text: str
    doc_id: str
    para_id: int
    sentence_index: int
    surface: tuple[str, ...]          # all tokens, article-stripped
    content_surface: tuple[str, ...]  # stopwords removed, article-stripped
    content_roots: tuple[str, ...]    # stemmed, aligned with content_surface
    negated: bool                     # holds a negation particle


@dataclass(frozen=True)
class CandidateSentence:
    sentence: Sentence
    matched_rep: LogicalRep
    term_positions: dict[str, list[int]]
    span_rank: int
    via_advanced_search: bool = False

    @property
    def answer_negated(self) -> bool:
        return self.sentence.negated

    def describe(self) -> dict:
        """Where the sentence is, which representation it matched and how
        tightly: one entry of a verdict's trace."""
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
    trace: tuple[dict, ...] = ()

    def to_record(self) -> dict:
        rec = {"answer": self.answer.value}
        if (c := self.supporting) is not None:
            rec.update(c.describe(), sentence=c.sentence.text,
                       rep_negated=c.matched_rep.negated,
                       answer_negated=c.answer_negated)
        return rec


def prepare_sentences(paragraph: Paragraph, lexicons: Lexicons,
                      stemmer: LightStemmer) -> tuple[Sentence, ...]:
    """The paragraph's sentences, ready for matching. They depend only on
    its ids and text, the lexicons and the stemmer, so they may be kept."""
    sentences = []
    for i, text in enumerate(split_sentences(paragraph.text)):
        tokens = tokenize(normalize(text))
        content = remove_stopwords(tokens, lexicons)
        sentences.append(Sentence(
            text=text, doc_id=paragraph.doc_id, para_id=paragraph.para_id,
            sentence_index=i,
            surface=tuple(strip_article(t.surface, lexicons) for t in tokens),
            content_surface=tuple(strip_article(t.surface, lexicons)
                                  for t in content),
            content_roots=tuple(stemmer.stem(t.surface) for t in content),
            negated=any(t.surface in lexicons.negation_particles
                        for t in tokens),
        ))
    return tuple(sentences)


def contains_head(sentence: Sentence, rep: LogicalRep) -> bool:
    return rep.head in sentence.surface


def filter_candidates(sentences: tuple[Sentence, ...],
                      rep: LogicalRep) -> list[Sentence]:
    """Keep only sentences containing the exact head; order preserved."""
    return [s for s in sentences if contains_head(s, rep)]


def resolve_polarity(rep_negated: bool, answer_negated: bool) -> Answer:
    """YES when question and answer polarity agree, NO otherwise."""
    return Answer.YES if rep_negated == answer_negated else Answer.NO


def _match_terms(sentence: Sentence, rep: LogicalRep,
                 context_roots: frozenset[str] = frozenset(),
                 ) -> dict[str, list[int]] | None:
    """Positions of the rep's roots in the sentence's content tokens, or
    None if the match requirement fails.

    Requires at least one relation root; every remaining root must be
    present as well, either here or among context_roots (the preceding
    sentence, during advanced search). First occurrence of each term
    counts.
    """
    positions: dict[str, list[int]] = {}
    matched_relation = False
    for root in sorted(rep.relation_roots):
        if root in sentence.content_roots:
            positions[root] = [sentence.content_roots.index(root)]
            matched_relation = True
    if not matched_relation:
        return None
    for root in rep.remaining_roots:
        if root in sentence.content_roots:
            positions.setdefault(root, [sentence.content_roots.index(root)])
        elif root not in context_roots:
            return None
    return positions


def _head_position(sentence: Sentence, rep: LogicalRep) -> int | None:
    """First content-token position whose article-stripped surface equals
    the head, or None (e.g. when the head token is a stopword)."""
    return next((i for i, t in enumerate(sentence.content_surface)
                 if t == rep.head), None)


def match_and_rank(sentence: Sentence,
                   rep: LogicalRep) -> CandidateSentence | None:
    """Match a representation against a sentence and compute its span rank.

    The head position (when the head is in this sentence) joins the
    matched-term positions; span_rank = max(position) - min(position).
    """
    positions = _match_terms(sentence, rep)
    if positions is None:
        return None
    all_positions = [p for ps in positions.values() for p in ps]
    head_pos = _head_position(sentence, rep)
    if head_pos is not None:
        positions = dict(positions)
        positions.setdefault(rep.head, [head_pos])
        all_positions.append(head_pos)
    span = max(all_positions) - min(all_positions)
    return CandidateSentence(sentence=sentence, matched_rep=rep,
                             term_positions=positions, span_rank=span)


def advanced_search(sentences: tuple[Sentence, ...],
                    rep: LogicalRep) -> list[CandidateSentence]:
    """One-sentence-lookback matching for sentences missing the head.

    Sentence i (i >= 1) is accepted when it contains a relation root, the
    head is absent from it but occurs as an exact token in sentence i-1,
    and every remaining root appears in sentence i or i-1. The span
    covers sentence i's matched terms only.
    """
    found = []
    for i in range(1, len(sentences)):
        current, prev = sentences[i], sentences[i - 1]
        if contains_head(current, rep) or not contains_head(prev, rep):
            continue
        positions = _match_terms(current, rep,
                                 context_roots=frozenset(prev.content_roots))
        if positions is None:
            continue
        flat = [p for ps in positions.values() for p in ps]
        found.append(CandidateSentence(
            sentence=current, matched_rep=rep, term_positions=positions,
            span_rank=max(flat) - min(flat), via_advanced_search=True))
    return found


def select_answer(prepared: list[tuple[Sentence, ...]], repset: RepSet,
                  use_advanced_search: bool = True) -> Verdict:
    """Choose the best supporting sentence across the retrieved paragraphs
    and resolve the verdict.

    prepared: each retrieved paragraph's ``prepare_sentences``, in
    retrieval order. Minimum span wins; ties break by retrieval order,
    then sentence index, then provenance BASE > SYNONYM > ANTONYM.
    """
    candidates: list[tuple[tuple, CandidateSentence]] = []

    def consider(cand: CandidateSentence, para_order: int):
        key = (cand.span_rank, para_order, cand.sentence.sentence_index,
               _PROVENANCE_ORDER[cand.matched_rep.provenance])
        candidates.append((key, cand))

    for para_order, sentences in enumerate(prepared):
        for rep in repset.reps:
            for sentence in filter_candidates(sentences, rep):
                cand = match_and_rank(sentence, rep)
                if cand is not None:
                    consider(cand, para_order)

    if not candidates and use_advanced_search:
        for para_order, sentences in enumerate(prepared):
            for rep in repset.reps:
                for cand in advanced_search(sentences, rep):
                    consider(cand, para_order)

    ranked = [c for _, c in sorted(candidates, key=lambda kc: kc[0])]
    trace = tuple(c.describe() for c in ranked)
    if not ranked:
        return Verdict(answer=Answer.UNKNOWN, supporting=None, trace=trace)
    best = ranked[0]
    return Verdict(answer=resolve_polarity(best.matched_rep.negated,
                                           best.answer_negated),
                   supporting=best, trace=trace)
