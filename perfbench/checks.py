"""Correctness checks of a run. Each returns None when the check holds and
a one-line reason otherwise.

The checks compare outputs with the independent scorer in ``oracle`` and
with properties the method must have; none compares with a stored copy of
an earlier output.
"""

from __future__ import annotations

import re

from halqa.config import Config
from halqa.morphology import LightStemmer
from halqa.question_analysis import retrieval_term_multiset
from halqa.retrieval import Index
from halqa.text_core import (Lexicons, normalize, remove_stopwords,
                             strip_article, tokenize)

from .oracle import Oracle, Query, close

_TERMINATORS = re.compile(r"[.؟!؛]")


def _sentences(paragraph: str) -> list[str]:
    return [s.strip() for s in _TERMINATORS.split(paragraph) if s.strip()]


def check_answer(result, gold: str, oracle: Oracle, lexicons: Lexicons,
                 stemmer: LightStemmer) -> str | None:
    """The verdict is the gold label or unknown, and a supporting sentence
    lies in a retrieved paragraph, holds the head (or, found by lookback,
    follows a sentence that does) and a relation root, and its polarity
    gives the verdict."""
    verdict = result.verdict
    answer = verdict.answer.value
    if answer not in (gold, "unknown"):
        return f"verdict {answer}, gold {gold}"
    c = verdict.supporting
    if c is None:
        return None if answer == "unknown" else f"verdict {answer} without a supporting sentence"
    if answer == "unknown":
        return "unknown verdict with a supporting sentence"
    s, rep = c.sentence, c.matched_rep
    if (s.doc_id, s.para_id) not in {(r.doc_id, r.para_id) for r in result.retrieved}:
        return f"supporting sentence from {s.doc_id}/{s.para_id}, not retrieved"
    try:
        sentences = _sentences(oracle.text(s.doc_id, s.para_id))
    except KeyError:
        return f"supporting sentence from unknown paragraph {s.doc_id}/{s.para_id}"
    if c.via_advanced_search:
        if not 0 < s.sentence_index < len(sentences):
            return "lookback sentence has no preceding sentence"
        head_sentence = sentences[s.sentence_index - 1]
    else:
        head_sentence = s.text
    surfaces = {strip_article(t.surface, lexicons)
                for t in tokenize(normalize(head_sentence))}
    if rep.head not in surfaces:
        return f"supporting sentence without the head {rep.head}"
    tokens = tokenize(normalize(s.text))
    roots = {stemmer.stem(t.surface) for t in remove_stopwords(tokens, lexicons)}
    if not roots & rep.relation_roots:
        return "supporting sentence without a relation root"
    negated = any(t.surface in lexicons.negation_particles for t in tokens)
    if answer != ("yes" if negated == rep.negated else "no"):
        return (f"verdict {answer} disagrees with representation negation "
                f"{rep.negated} and sentence negation {negated}")
    if s.sentence_index >= len(sentences) or sentences[s.sentence_index] != s.text:
        return "supporting sentence is not the paragraph's sentence at its index"
    if rep not in result.reps.reps:
        return "supporting representation is not one of the question's"
    return None


def check_retrieval(result, oracle: Oracle, config: Config,
                    stemmer: LightStemmer) -> str | None:
    """Each retrieved paragraph scores what the independent scorer gives
    it, and the retrieved scores are the scorer's k highest; ties may come
    in any order."""
    q = Query.from_terms(retrieval_term_multiset(result.reps, stemmer))
    got = result.retrieved
    if config.technique == "document":
        top, score, kth_doc = oracle.document_technique(q, config.k_docs,
                                                        config.k_paras)
        for c in got:
            copy, d = oracle.doc_index[c.doc_id]
            s = oracle.document(copy, d, q)
            if s < kth_doc and not close(s, kth_doc):
                return f"{c.doc_id} scores {s}, below the top {config.k_docs}"
    else:
        top, score = oracle.paragraph_technique(q, config.k_paras)
    ids = [(c.doc_id, c.para_id) for c in got]
    if len(set(ids)) != len(ids):
        return "a paragraph retrieved twice"
    for c in got:
        try:
            expected = score(c.doc_id, c.para_id)
        except KeyError:
            return f"retrieved unknown paragraph {c.doc_id}/{c.para_id}"
        if not close(c.score, expected):
            return f"{c.doc_id}/{c.para_id} scored {c.score!r}, expected {expected!r}"
    scores = sorted((c.score for c in got), reverse=True)
    if len(scores) != len(top) or not all(map(close, scores, top)):
        return f"retrieved scores {scores} are not the top {len(top)}: {top}"
    return None


def check_index(index: Index, oracle: Oracle) -> str | None:
    """The built index holds the workload's paragraphs: ids, texts and term
    counts."""
    if (index.n_documents, index.n_paragraphs) != (oracle.n_documents,
                                                   oracle.n_paragraphs):
        return (f"index has {index.n_documents} documents and "
                f"{index.n_paragraphs} paragraphs, expected "
                f"{oracle.n_documents} and {oracle.n_paragraphs}")
    for p in index.paragraphs:
        try:
            copy, t = oracle.paragraph(p.doc_id, p.para_id)
        except KeyError:
            return f"unexpected paragraph {p.doc_id}/{p.para_id}"
        if p.text != oracle.w.copies[copy].rename(t.text):
            return f"text of {p.doc_id}/{p.para_id} differs"
        if p.terms != oracle.terms(copy, t.counts):
            return f"terms of {p.doc_id}/{p.para_id} differ"
    return None


def check_snapshot(built: Index, loaded: Index) -> str | None:
    """The loaded snapshot has the built index's paragraphs."""
    def key(p):
        return p.doc_id, p.para_id, p.text, dict(p.terms)

    if len(built.paragraphs) != len(loaded.paragraphs):
        return "snapshot paragraph count differs from the built index"
    for a, b in zip(built.paragraphs, loaded.paragraphs):
        if key(a) != key(b):
            return f"snapshot paragraph {b.doc_id}/{b.para_id} differs from the built index"
    return None
