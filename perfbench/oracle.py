"""Retrieval scores computed apart from ``halqa.retrieval``.

The scorer follows the paper's formulas, as ``oracle_stats`` in
``tests/test_retrieval.py`` does, but never calls ``build_index``: it
counts the roots of each fixture paragraph once, then derives the
statistics of a workload from those counts and its copy plan. A copy's
counts are the fixture's with each person name replaced by the copy's own
name, so the statistics of 13,000 documents come from 13 documents and the
number of copies. Every copy that holds none of a query's generated names
scores like every other such copy, so ranking takes one representative of
them plus the copies the query names.

Passage:  sum over shared terms of W_p * W_q, with
          W_p = (N/n) log2((tf+1)/pl) and W_q = (N/n) log2((qtf+1)/ql).
Document: sum over shared terms of W_dt * W_qt, with
          W_dt = (tf/max_tf) log2(N/n) and
          W_qt = (0.5 + 0.5 qtf/max_qf) log2(N/n).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from halqa.morphology import LightStemmer
from halqa.text_core import (Lexicons, normalize, remove_stopwords,
                             split_paragraphs, tokenize)

from .corpora import NAMES, Workload


@dataclass(frozen=True)
class Slot:
    """Placeholder for a person name that each copy replaces."""
    name: str


@dataclass(frozen=True)
class TemplateParagraph:
    doc: int          # index into the fixture documents
    para_id: int
    text: str
    counts: Counter   # root or Slot -> frequency
    pl: int


@dataclass(frozen=True)
class Query:
    qtf: Counter
    ql: int
    max_qf: int

    @classmethod
    def from_terms(cls, terms: list[str]) -> "Query":
        qtf = Counter(terms)
        return cls(qtf, len(terms), max(qtf.values()))


def close(a: float, b: float) -> bool:
    """Equal within 1e-9, relative to the magnitude when it exceeds 1."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class Oracle:
    def __init__(self, w: Workload, lexicons: Lexicons, stemmer: LightStemmer):
        self.w = w
        renames = any(c.names for c in w.copies)
        self.paragraphs: list[TemplateParagraph] = []
        self.doc_counts: list[Counter] = []
        for d, (_, text) in enumerate(w.documents):
            doc = Counter()
            for para_id, para in enumerate(split_paragraphs(text)):
                tokens = remove_stopwords(tokenize(normalize(para)), lexicons)
                counts = Counter(
                    Slot(t.surface) if renames and t.surface in NAMES
                    else stemmer.stem(t.surface) for t in tokens)
                if counts:
                    self.paragraphs.append(TemplateParagraph(
                        d, para_id, para, counts, sum(counts.values())))
                    doc.update(counts)
            self.doc_counts.append(doc)
        self.n = len(w.copies)
        self.n_documents = self.n * len(w.documents)
        self.n_paragraphs = self.n * len(self.paragraphs)
        # generated name -> (copy index, Slot)
        self.owner = {g: (c, Slot(n)) for c, copy in enumerate(w.copies)
                      for n, g in copy.names.items()}
        self.doc_index = {copy.doc_id(stem): (c, d)
                          for c, copy in enumerate(w.copies)
                          for d, (stem, _) in enumerate(w.documents)}
        self.by_id = {(p.doc, p.para_id): p for p in self.paragraphs}
        # Copy indices in doc_id order: every prefix has the same length.
        self.copy_order = sorted(range(self.n), key=lambda c: w.copies[c].prefix)
        self.df_p = Counter(k for p in self.paragraphs for k in p.counts)
        self.df_d = Counter(k for doc in self.doc_counts for k in doc)

    def _df(self, template_df: Counter, term: str) -> int:
        """Corpus-wide count of paragraphs or documents holding ``term``."""
        owned = self.owner.get(term)
        return template_df[owned[1]] if owned else self.n * template_df[term]

    def terms(self, copy: int, counts: Counter) -> Counter:
        """Template counts as they read in one copy."""
        names = self.w.copies[copy].names
        return Counter({names[k.name] if isinstance(k, Slot) else k: v
                        for k, v in counts.items()})

    def paragraph(self, doc_id: str, para_id: int) -> tuple[int, TemplateParagraph]:
        copy, doc = self.doc_index[doc_id]
        return copy, self.by_id[(doc, para_id)]

    def text(self, doc_id: str, para_id: int) -> str:
        copy, p = self.paragraph(doc_id, para_id)
        return self.w.copies[copy].rename(p.text)

    def _split(self, q: Query) -> tuple[list[int], list[int]]:
        """The copies holding one of the query's generated names, and the
        others in doc_id order; those others all score alike."""
        special = sorted({self.owner[t][0] for t in q.qtf if t in self.owner})
        return special, [c for c in self.copy_order if c not in special]

    def paragraph_technique(self, q: Query, k: int):
        """The k highest passage scores over the whole corpus, and a
        function giving the score of any paragraph."""
        special, rest = self._split(q)

        def score_in(copy: int, p: TemplateParagraph) -> float:
            return passage(self.terms(copy, p.counts), p.pl, q,
                           self.n_paragraphs,
                           lambda t: self._df(self.df_p, t))

        pool = [(score_in(c, p), 1) for p in self.paragraphs for c in special]
        if rest:
            pool += [(score_in(rest[0], p), len(rest)) for p in self.paragraphs]
        return _top(pool, k), lambda doc_id, para_id: score_in(
            *self.paragraph(doc_id, para_id))

    def document(self, copy: int, d: int, q: Query) -> float:
        terms = self.terms(copy, self.doc_counts[d])
        max_tf = max(terms.values())
        score = 0.0
        for term, qtf in q.qtf.items():
            tf = terms.get(term)
            if not tf:
                continue
            idf = math.log2(self.n_documents / self._df(self.df_d, term))
            score += (tf / max_tf) * idf * (0.5 + 0.5 * qtf / q.max_qf) * idf
        return score

    def document_technique(self, q: Query, k_docs: int, k_paras: int):
        """The k_paras highest passage scores over the paragraphs of the
        k_docs best documents, with N and n counted over those paragraphs;
        a function giving the score of any paragraph under those
        statistics; and the k_docs-th best document score.

        Documents that tie are retained in doc_id order, the rule
        ``document_technique`` documents, because the restricted
        statistics depend on which documents are kept.
        """
        special, rest = self._split(q)
        candidates = []  # (score, doc_id, copy, doc)
        for d, (stem, _) in enumerate(self.w.documents):
            for c in special:
                candidates.append((self.document(c, d, q),
                                   self.w.copies[c].doc_id(stem), c, d))
            if rest:
                s = self.document(rest[0], d, q)
                candidates += [(s, self.w.copies[c].doc_id(stem), c, d)
                               for c in rest[:k_docs]]
        candidates.sort(key=lambda t: (-t[0], t[1]))
        retained = candidates[:k_docs]
        paras = [(self.terms(c, p.counts), p) for _, _, c, d in retained
                 for p in self.paragraphs if p.doc == d]
        df = Counter(t for terms, _ in paras for t in terms)

        def score_of(terms: Counter, p: TemplateParagraph) -> float:
            return passage(terms, p.pl, q, len(paras), df.__getitem__)

        def score(doc_id: str, para_id: int) -> float:
            copy, p = self.paragraph(doc_id, para_id)
            return score_of(self.terms(copy, p.counts), p)

        pool = [(score_of(terms, p), 1) for terms, p in paras]
        return _top(pool, k_paras), score, retained[-1][0]


def passage(terms: Counter, pl: int, q: Query, n_total: int, df) -> float:
    score = 0.0
    for term, qtf in q.qtf.items():
        tf = terms.get(term)
        n = df(term) if tf else 0
        if not n:
            continue
        w_p = (n_total / n) * math.log2((tf + 1) / pl)
        w_q = (n_total / n) * math.log2((qtf + 1) / q.ql)
        score += w_p * w_q
    return score


def _top(pool: list[tuple[float, int]], k: int) -> list[float]:
    """The k highest scores of a pool of (score, multiplicity)."""
    out: list[float] = []
    for s, mult in sorted(pool, key=lambda t: -t[0]):
        out += [s] * min(mult, k - len(out))
        if len(out) == k:
            break
    return out
