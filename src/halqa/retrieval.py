"""Corpus indexing and the two paragraph-retrieval techniques.

Paragraph technique: score every paragraph corpus-wide with the passage
similarity formula and keep the top k. Document technique: score whole
documents first, keep the top documents, then rank their paragraphs with
the passage formula, with statistics restricted to the retained
documents.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .errors import EmptyCorpus
from .morphology import LightStemmer
from .text_core import Lexicons, normalize, remove_stopwords, split_paragraphs, tokenize

INDEX_FORMAT_VERSION = 2


@dataclass(frozen=True)
class Paragraph:
    doc_id: str
    para_id: int
    text: str
    terms: dict[str, int]  # root -> frequency
    pl: int = field(init=False)  # non-stop term count

    def __post_init__(self):
        object.__setattr__(self, "pl", sum(self.terms.values()))


@dataclass(frozen=True)
class Document:
    doc_id: str
    paragraphs: tuple[Paragraph, ...]
    terms: dict[str, int] = field(init=False)
    max_tf: int = field(init=False)

    def __post_init__(self):
        # Plain dict sums: Counter.update is slower, and loading a snapshot
        # runs this once per document.
        first, *rest = self.paragraphs
        terms = dict(first.terms)
        for p in rest:
            for term, tf in p.terms.items():
                terms[term] = terms.get(term, 0) + tf
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "max_tf", max(terms.values()))


@dataclass(frozen=True)
class Index:
    """Paragraphs in (doc_id, para_id) order. The documents, df_p (term ->
    paragraphs containing it) and df_d (term -> documents containing it)
    are derived from them."""
    paragraphs: tuple[Paragraph, ...]
    documents: tuple[Document, ...] = field(init=False, repr=False)
    df_p: dict[str, int] = field(init=False, repr=False)
    df_d: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        by_doc: dict[str, list[Paragraph]] = {}
        for p in self.paragraphs:
            by_doc.setdefault(p.doc_id, []).append(p)
        documents = tuple(Document(doc_id, tuple(paras))
                          for doc_id, paras in by_doc.items())
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "df_p", _frequencies(self.paragraphs))
        object.__setattr__(self, "df_d", _frequencies(documents))

    @property
    def n_paragraphs(self) -> int:
        return len(self.paragraphs)

    @property
    def n_documents(self) -> int:
        return len(self.documents)


def _frequencies(units) -> dict[str, int]:
    """Term -> number of units (paragraphs or documents) containing it."""
    return Counter(chain.from_iterable(unit.terms for unit in units))


@dataclass(frozen=True)
class Query:
    qtf: Counter       # term -> frequency within the query (pre-dedup)
    ql: int            # non-stop query length
    max_qf: int

    @classmethod
    def from_terms(cls, terms: list[str]) -> "Query":
        qtf = Counter(terms)
        return cls(qtf=qtf, ql=sum(qtf.values()),
                   max_qf=max(qtf.values(), default=0))


@dataclass(frozen=True)
class ScoredCandidate:
    paragraph: Paragraph
    score: float

    @property
    def doc_id(self) -> str:
        return self.paragraph.doc_id

    @property
    def para_id(self) -> int:
        return self.paragraph.para_id


def paragraph_terms(text: str, lexicons: Lexicons,
                    stemmer: LightStemmer) -> Counter:
    """Root-term multiset of a paragraph: normalize, tokenize, drop
    stopwords, stem."""
    tokens = remove_stopwords(tokenize(normalize(text)), lexicons)
    return Counter(stemmer.stem(t.surface) for t in tokens)


def build_index(corpus: list[tuple[str, str]], lexicons: Lexicons,
                stemmer: LightStemmer) -> Index:
    """Index a corpus of (doc_id, raw text) pairs.

    Paragraphs with no indexable terms are skipped; a document whose
    paragraphs are all empty is excluded entirely.
    """
    paragraphs = []
    for doc_id, text in sorted(corpus):
        for para_id, para_text in enumerate(split_paragraphs(text)):
            terms = paragraph_terms(para_text, lexicons, stemmer)
            if terms:
                paragraphs.append(Paragraph(doc_id=doc_id, para_id=para_id,
                                            text=para_text, terms=terms))
    if not paragraphs:
        raise EmptyCorpus("no document yielded an indexable paragraph")
    return Index(paragraphs=tuple(paragraphs))


def build_index_from_dir(corpus_dir: Path | str, lexicons: Lexicons,
                         stemmer: LightStemmer) -> Index:
    """Index every .txt file in a directory; the stem of the file name is
    the document id."""
    corpus_dir = Path(corpus_dir)
    files = sorted(corpus_dir.glob("*.txt"))
    if not files:
        raise EmptyCorpus(f"no .txt files in {corpus_dir}")
    corpus = [(f.stem, f.read_text(encoding="utf-8")) for f in files]
    return build_index(corpus, lexicons, stemmer)


def passage_similarity(p: Paragraph, q: Query, idx: Index) -> float:
    """Passage-query similarity: sum over shared terms of W_p * W_q with
    W_p = (N/n) log2((tf+1)/pl) and W_q = (N/n) log2((qtf+1)/ql).

    N and n are counted over the index's paragraphs; terms absent from
    the paragraph or from the index contribute 0.
    """
    n_total = idx.n_paragraphs
    score = 0.0
    for term, qtf in q.qtf.items():
        tf = p.terms.get(term)
        if not tf:
            continue
        n = idx.df_p.get(term)
        if not n:
            continue
        w_p = (n_total / n) * math.log2((tf + 1) / p.pl)
        w_q = (n_total / n) * math.log2((qtf + 1) / q.ql)
        score += w_p * w_q
    return score


def document_similarity(d: Document, q: Query, idx: Index) -> float:
    """Document-query similarity: sum over shared terms of W_dt * W_qt
    with W_dt = (tf/max_tf) log2(N/n) and
    W_qt = (0.5 + 0.5*qtf/max_qf) log2(N/n).

    The query-side normalizer is the query's own maximum term frequency.
    """
    score = 0.0
    for term, qtf in q.qtf.items():
        tf = d.terms.get(term)
        if not tf:
            continue
        n = idx.df_d.get(term)
        if not n:
            continue
        idf = math.log2(idx.n_documents / n)
        w_d = (tf / d.max_tf) * idf
        w_q = (0.5 + 0.5 * qtf / q.max_qf) * idf
        score += w_d * w_q
    return score


def _top_paragraphs(idx: Index, q: Query, k: int) -> list[ScoredCandidate]:
    scored = sorted(((passage_similarity(p, q, idx), p) for p in idx.paragraphs),
                    key=lambda sp: (-sp[0], sp[1].doc_id, sp[1].para_id))
    return [ScoredCandidate(paragraph=p, score=s) for s, p in scored[:k]]


def paragraph_technique(idx: Index, q: Query, k: int = 5) -> list[ScoredCandidate]:
    """Rank all paragraphs corpus-wide; return the top k.

    Ties break by (doc_id, para_id) ascending.
    """
    return _top_paragraphs(idx, q, k)


def document_technique(idx: Index, q: Query, k_docs: int = 5,
                       k_paras: int = 5) -> list[ScoredCandidate]:
    """Rank documents, keep the top k_docs, then rank their paragraphs.

    The passage formula's N and n are taken over the retained documents'
    paragraphs only. Document ties break by doc_id ascending.
    """
    ranked = sorted(idx.documents,
                    key=lambda d: (-document_similarity(d, q, idx), d.doc_id))
    retained = Index(paragraphs=tuple(p for d in ranked[:k_docs]
                                      for p in d.paragraphs))
    return _top_paragraphs(retained, q, k_paras)


def save_index(idx: Index, path: Path | str) -> None:
    """Persist the index's paragraphs as a JSON snapshot, replacing any
    existing file atomically. Everything else is derived on load."""
    path = Path(path)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "paragraphs": [
            {"doc_id": p.doc_id, "para_id": p.para_id, "text": p.text,
             "terms": p.terms}
            for p in idx.paragraphs
        ],
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_RECORD_KEYS = ("doc_id", "para_id", "text", "terms")
_RECORD_TYPES = (str, int, str, dict)


def _paragraph_from_record(record) -> Paragraph:
    if not isinstance(record, dict) or tuple(
            map(type, map(record.get, _RECORD_KEYS))) != _RECORD_TYPES:
        raise ValueError(f"malformed paragraph in index snapshot: {record!r:.80}")
    terms = record["terms"]
    if not terms or not (set(map(type, terms.values())) == {int}
                         and min(terms.values()) > 0):
        raise ValueError("paragraph terms in index snapshot must map words "
                         f"to positive counts: {record['doc_id']}#{record['para_id']}")
    return Paragraph(doc_id=record["doc_id"], para_id=record["para_id"],
                     text=record["text"], terms=terms)


def load_index(path: Path | str) -> Index:
    """Read a snapshot written by save_index. Raises ValueError for any
    other format version or a payload of the wrong shape."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("index snapshot is not a JSON object")
    version = payload.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version: {version} "
                         f"(expected {INDEX_FORMAT_VERSION}; rebuild the "
                         "snapshot with `halqa index`)")
    records = payload.get("paragraphs")
    if not isinstance(records, list) or not records:
        raise ValueError("index snapshot has no paragraphs")
    return Index(paragraphs=tuple(_paragraph_from_record(r) for r in records))
