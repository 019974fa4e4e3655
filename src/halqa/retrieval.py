"""Corpus indexing and the two paragraph-retrieval techniques.

The index maps each root to the paragraphs and to the documents that hold
it (its postings); a document is the span of its adjacent paragraphs, and
a query is the Counter of its roots. Retrieval scores term at a time: for
each query root, its query weight times each posting's precomputed weight
is added to that unit's score. Every other unit shares no root with the
query and scores 0, so the ranking is the one a scan of the whole corpus
would give.

Paragraph technique: rank the paragraphs corpus-wide with the passage
formula. Document technique: rank documents, keep the top ones, then rank
their paragraphs with statistics restricted to them.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import tempfile
from array import array
from codecs import BOM_UTF8
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, pairwise
from operator import lt, neg
from pathlib import Path

from .errors import EmptyCorpus
from .morphology import LightStemmer
from .text_core import Lexicons, normalize, split_paragraphs, words

INDEX_FORMAT_VERSION = 3

# snapshot list -> its values' exact type: the fields of Index, in order
_COLUMNS = {"doc_ids": str, "para_ids": int, "texts": str, "terms": dict}

# bytes asked of each os.read of a corpus file
_READ_CHUNK = 1 << 16

# root -> ascending positions of the paragraphs or documents holding it
Postings = dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class Paragraph:
    doc_id: str
    para_id: int
    text: str
    terms: dict[str, int]  # root -> frequency
    score: float = 0.0  # its similarity, once retrieval has returned it


@dataclass(frozen=True)
class Index:
    """The paragraphs as the snapshot's four lists, a paragraph's values at
    one position in each, in strictly ascending (doc_id, para_id) order:
    a unit's position is its rank among equal scores. A ``Paragraph`` is
    made only for a position that retrieval returns.

    A document is the span of its adjacent paragraphs, up to the next
    document's start; counting documents reads only the starts. Everything
    else is derived on first use: the documents' summed terms (on the first
    document-technique question), the postings of paragraphs and of
    documents (their lengths are the document frequencies), and one root
    at a time the weights of those postings.
    """
    doc_ids: tuple[str, ...]
    para_ids: tuple[int, ...]
    texts: tuple[str, ...]
    terms: tuple[dict[str, int], ...]  # root -> frequency

    def __post_init__(self):
        ds, ps = self.doc_ids, self.para_ids
        if not all(map(lt, zip(ds, ps), zip(ds[1:], ps[1:]))):
            i = next(i for i in range(1, len(ds))
                     if (ds[i - 1], ps[i - 1]) >= (ds[i], ps[i]))
            raise ValueError("index paragraphs are not in strictly "
                             "ascending (doc_id, para_id) order at "
                             f"{ds[i]}#{ps[i]}")

    def paragraph(self, i: int, score: float = 0.0) -> Paragraph:
        return Paragraph(self.doc_ids[i], self.para_ids[i], self.texts[i],
                         self.terms[i], score)

    @property
    def paragraphs(self) -> tuple[Paragraph, ...]:
        """Every paragraph, made anew on each read. For checks and tests:
        the question path makes only the paragraphs it returns."""
        return tuple(map(Paragraph, self.doc_ids, self.para_ids, self.texts,
                         self.terms))

    @cached_property
    def document_starts(self) -> tuple[int, ...]:
        """Each document's first position, then n_paragraphs: document d is
        range(starts[d], starts[d + 1])."""
        # Counter keeps first-seen order, and a document's ids are adjacent.
        return tuple(accumulate(Counter(self.doc_ids).values(), initial=0))

    @cached_property
    def document_terms(self) -> tuple[dict[str, int], ...]:
        summed = []
        for start, end in pairwise(self.document_starts):
            first, *rest = self.terms[start:end]
            terms = dict(first)  # plain dict sums: Counter's are slower
            for t in rest:
                for term, tf in t.items():
                    terms[term] = terms.get(term, 0) + tf
            summed.append(terms)
        return tuple(summed)

    @cached_property
    def paragraph_postings(self) -> Postings:
        return _postings(self.terms)

    @cached_property
    def document_postings(self) -> Postings:
        return _postings(self.document_terms)

    @cached_property
    def paragraph_weights(self) -> dict[str, array]:
        return {}

    @cached_property
    def document_weights(self) -> dict[str, array]:
        return {}

    @cached_property
    def sentences(self) -> dict[tuple[str, int], tuple]:
        """(doc_id, para_id) -> the paragraph's prepared sentences, stored
        by the engine the first time the paragraph is retrieved."""
        return {}

    @property
    def n_paragraphs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_documents(self) -> int:
        return len(self.document_starts) - 1


def _postings(terms) -> Postings:
    """The postings of a sequence of root -> frequency dicts, one a unit."""
    postings = defaultdict(list)
    for i, unit in enumerate(terms):
        for term in unit:
            postings[term].append(i)
    # Tuples, not lists: the garbage collector stops tracking a tuple of
    # ints, so a large vocabulary adds no work to its full collections.
    return dict(zip(postings, map(tuple, postings.values())))


def build_index(corpus: list[tuple[str, str]], lexicons: Lexicons,
                stemmer: LightStemmer) -> Index:
    """Index a corpus of (doc_id, raw text) pairs.

    A paragraph's terms are its root multiset: normalize, split into words,
    drop stopwords, stem. Each distinct word is stemmed once per build.
    Paragraphs with no indexable terms are skipped; a document whose
    paragraphs are all empty is excluded entirely.
    """
    # word -> root for this build; stopwords map to "", which is never counted
    roots = dict.fromkeys(lexicons.stopwords, "")
    columns = doc_ids, para_ids, texts, terms = [], [], [], []  # of Index
    for doc_id, text in sorted(corpus):
        for para_id, para_text in enumerate(split_paragraphs(text)):
            # A plain dict, as a loaded index holds: the collector always
            # tracks a Counter, a dict subclass, but never a dict of ints.
            counts = {}
            for word in words(normalize(para_text)):
                if (root := roots.get(word)) is None:
                    root = roots[word] = stemmer.stem(word)
                if root:
                    counts[root] = counts.get(root, 0) + 1
            if counts:
                doc_ids.append(doc_id)
                para_ids.append(para_id)
                texts.append(para_text)
                terms.append(counts)
    if not doc_ids:
        raise EmptyCorpus("no document yielded an indexable paragraph")
    return Index(*map(tuple, columns))


def read_corpus(corpus_dir: Path | str | None) -> list[tuple[str, str]]:
    """The (doc_id, text) pair of every entry of a directory whose name ends
    in .txt, in name order; the stem of the name is the document id.

    A file and its name are UTF-8, and the file may begin with a byte order
    mark; ValueError names a file or a name that is not. CRLF and lone CR
    line ends read as LF, as in text mode. OSError names the full path of
    an entry that cannot be read, such as a directory or a dangling link.
    """
    if corpus_dir is None:
        raise EmptyCorpus("no corpus directory configured")
    corpus_dir = Path(corpus_dir)
    # Names, not Path objects: a Path per file costs more than its reading.
    try:
        with os.scandir(corpus_dir) as entries:
            names = sorted(e.name for e in entries if e.name.endswith(".txt"))
    except OSError:  # not a readable directory: no files, as Path.glob finds
        names = []
    if not names:
        raise EmptyCorpus(f"no .txt files in {corpus_dir}")
    try:  # a name is a doc id, printed, so each must encode
        "".join(names).encode()
    except UnicodeEncodeError:  # a byte that is not UTF-8 reads as a surrogate
        bad = next(n for n in names if any("\ud800" <= c <= "\udfff" for c in n))
        raise ValueError(f"file name {os.fsencode(corpus_dir / bad)!r} is not "
                         "UTF-8") from None
    corpus = []
    dir_fd = os.open(corpus_dir, os.O_RDONLY)
    try:
        for name in names:
            try:
                # Not "utf-8-sig": its codec is Python code, and slower.
                text = _read(name, dir_fd).removeprefix(BOM_UTF8).decode()
            except OSError as exc:  # it names the bare name, or no file
                raise OSError(exc.errno, exc.strerror,
                              os.path.join(corpus_dir, name)) from None
            except UnicodeDecodeError as exc:
                raise ValueError(f"{os.path.join(corpus_dir, name)} is not "
                                 f"UTF-8: {exc}") from None
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            # Path(name).stem: ".txt" has no suffix, so it is its own stem.
            corpus.append((name[:-4] or name, text))
    finally:
        os.close(dir_fd)
    return corpus


def _read(name: str, dir_fd: int) -> bytes:
    """Every byte of the file ``name`` in the directory open as ``dir_fd``.
    A descriptor and ``os.read``, not a file object: for a small file the
    objects cost more than the reading."""
    fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
    try:
        chunks = [os.read(fd, _READ_CHUNK)]
        while chunks[-1]:
            chunks.append(os.read(fd, _READ_CHUNK))
    finally:
        os.close(fd)
    return b"".join(chunks)


def build_index_from_dir(corpus_dir: Path | str | None, lexicons: Lexicons,
                         stemmer: LightStemmer) -> Index:
    """Index every .txt file in a directory (see ``read_corpus``)."""
    return build_index(read_corpus(corpus_dir), lexicons, stemmer)


def _w_p(tf: int, length: int, n_total: int, n: int) -> float:
    """(N/n) log2((tf+1)/length): W_p from tf and pl, W_q from qtf and ql."""
    return (n_total / n) * math.log2((tf + 1) / length)


def _w_dt(tf: int, max_tf: int, n_total: int, n: int) -> float:
    """W_dt = (tf/max_tf) log2(N/n)."""
    return (tf / max_tf) * math.log2(n_total / n)


def _w_qt(qtf: int, max_qf: int, n_total: int, n: int) -> float:
    """W_qt = (0.5 + 0.5*qtf/max_qf) log2(N/n)."""
    return (0.5 + 0.5 * qtf / max_qf) * math.log2(n_total / n)


def _accumulate(terms, norm, postings: Postings, weights: dict[str, array],
                q: Counter, weight, query_weight,
                query_norm: int) -> dict[int, float]:
    """Position -> score of each unit holding a query root: the sum over
    its query roots, in the order of ``q`` (root -> frequency in the
    query), of W_unit * W_q, added term at a time. ``terms`` holds each
    unit's root -> frequency dict, and ``norm`` reduces its frequencies to
    the unit's length (``sum``: pl; ``max``: max_tf). Weights are kept in
    ``weights`` per root."""
    scores: dict[int, float] = {}
    get = scores.get
    for root, qtf in q.items():
        if positions := postings.get(root):
            n_total, n = len(terms), len(positions)
            if root not in weights:  # 8 bytes a weight, and no gc tracking
                weights[root] = array("d", [
                    weight((t := terms[i])[root], norm(t.values()), n_total, n)
                    for i in positions])
            w_q = query_weight(qtf, query_norm, n_total, n)
            for i, w in zip(positions, weights[root]):
                scores[i] = get(i, 0.0) + w * w_q
    return scores


def _top(scores: dict[int, float], n: int, k: int) -> list[tuple[int, float]]:
    """The k best (position, score) pairs among ``n`` units, ranked
    by score descending, then by position.

    ``scores`` holds the units in the postings of the query's roots; the
    rest score 0. Of the k best scored units (one pass), those above 0 come
    first, then zeros in position order until k is filled, then those below 0.
    """
    k = min(k, n)
    best = heapq.nsmallest(k, zip(map(neg, scores.values()), scores))
    top = [i for s, i in best if s < 0]
    zeros = (i for i in range(n) if scores.get(i, 0.0) == 0.0)
    top += islice(zeros, k - len(top))
    top += islice((i for s, i in best if s > 0), k - len(top))
    return [(i, scores.get(i, 0.0)) for i in top]


def paragraph_scores(idx: Index, q: Counter) -> dict[int, float]:
    """Position -> passage similarity of each paragraph holding a query
    root, with W_p = (N/n) log2((tf+1)/pl) and W_q = (N/n) log2((qtf+1)/ql)
    over the index's paragraphs.

    A root's term is negative when one of (tf+1)/pl and (qtf+1)/ql is
    above 1 and the other below 1: the paragraph "x" for the query
    "x y w", or a paragraph of three or more roots against a one-root
    query. A paragraph scoring below 0 ranks below those sharing no root
    with the query. That is the formula as printed, and it is kept.
    With every W_q negative (qtf+1 < ql, as for all the fixture's three-
    and four-root questions), a matched root raises a score only when
    pl > tf+1, the more the longer the paragraph and the less the more
    often the root repeats: length can outrank a repeated head.
    """
    return _accumulate(idx.terms, sum, idx.paragraph_postings,
                       idx.paragraph_weights, q, _w_p, _w_p, sum(q.values()))


def document_scores(idx: Index, q: Counter) -> dict[int, float]:
    """Position -> document similarity of each document holding a query
    root, with W_dt = (tf/max_tf) log2(N/n) and
    W_qt = (0.5 + 0.5*qtf/max_qf) log2(N/n), max_qf the query's own."""
    return _accumulate(idx.document_terms, max, idx.document_postings,
                       idx.document_weights, q, _w_dt, _w_qt,
                       max(q.values(), default=0))


def paragraph_technique(idx: Index, q: Counter, k: int) -> list[Paragraph]:
    """Rank the paragraphs corpus-wide; return the top k.

    Only the paragraphs holding a query root are scored, and the ranking
    is that of all paragraphs: the rest score 0, ties break by (doc_id,
    para_id) ascending, and zero scores rank above negative ones.
    """
    return [idx.paragraph(i, s)
            for i, s in _top(paragraph_scores(idx, q), idx.n_paragraphs, k)]


def document_technique(idx: Index, q: Counter, k_docs: int,
                       k_paras: int) -> list[Paragraph]:
    """Rank documents, keep the top k_docs, then rank their paragraphs.

    Documents are ranked through the postings as paragraphs are; document
    scores are never negative. The passage formula's N and n are taken
    over the retained documents' paragraphs only. Document ties break by
    doc_id ascending.
    """
    top = _top(document_scores(idx, q), idx.n_documents, k_docs)
    starts = idx.document_starts
    kept = [i for d, _ in sorted(top) for i in range(starts[d], starts[d + 1])]
    retained = Index(*(tuple(map(getattr(idx, name).__getitem__, kept))
                       for name in _COLUMNS))
    return paragraph_technique(retained, q, k_paras)


def save_index(idx: Index, path: Path | str) -> None:
    """Persist the index's four lists as a compact JSON snapshot, the bytes
    of ``json.dumps(payload, ensure_ascii=False, separators=(",", ":"))``.
    The file is replaced atomically and gets the mode the umask allows
    (0644 under umask 022). Everything else is derived from the lists.
    OSError names the snapshot path, not the temporary file."""
    payload = {"format_version": INDEX_FORMAT_VERSION,
               **{name: getattr(idx, name) for name in _COLUMNS}}
    try:
        fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, ensure_ascii=False,
                                    separators=(",", ":")))
            # mkstemp makes the file its owner's only; give it the mode a
            # plain open() would. The umask can only be read by setting it.
            os.umask(umask := os.umask(0o022))
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def load_index(path: Path | str) -> Index:
    """Read a snapshot written by save_index. Raises ValueError, naming the
    file and what is at fault, for a file that is not UTF-8 JSON or is
    nested too deeply to parse, any other format version, a payload of the
    wrong shape, a doc id or text that cannot be printed (a lone surrogate)
    or paragraphs out of order. Each list is checked as a whole, by exact
    type: a bool is not an int."""
    try:
        return _index_of(json.loads(Path(path).read_text(encoding="utf-8")))
    except RecursionError:
        raise ValueError(f"{path}: index snapshot is nested too deeply") from None
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise ValueError(f"{path}: {exc}") from None


def _index_of(payload) -> Index:
    """The index of a decoded snapshot; see ``load_index``."""
    if not isinstance(payload, dict):
        raise ValueError("index snapshot is not a JSON object")
    if (version := payload.get("format_version")) != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version: {version} "
                         f"(expected {INDEX_FORMAT_VERSION}; rebuild the "
                         "snapshot with `halqa index`)")
    columns = {name: payload.get(name) for name in _COLUMNS}
    shape = {k: len(c) if type(c) is list else None for k, c in columns.items()}
    if len({*shape.values()}) > 1 or not shape["doc_ids"]:
        raise ValueError(f"index snapshot needs equal non-empty lists: {shape}")

    def refusal(name, bad):  # run only once a whole-list check has failed
        i = next(i for i, v in enumerate(columns[name]) if bad(v))
        of = f" (doc_id {d!r})" if type(d := columns["doc_ids"][i]) is str else ""
        return ValueError(f"index snapshot {name}[{i}]{of} is malformed: "
                          f"{columns[name][i]!r:.80}")
    for name, kind in _COLUMNS.items():
        if {*map(type, columns[name])} != {kind}:
            raise refusal(name, lambda v: type(v) is not kind)
    for name in ("doc_ids", "texts"):  # printed, so each must encode
        try:
            "".join(columns[name]).encode()
        except UnicodeEncodeError:  # only a lone surrogate fails
            raise refusal(name, lambda v: any(
                "\ud800" <= c <= "\udfff" for c in v)) from None
    counts = [*chain.from_iterable(map(dict.values, terms := columns["terms"]))]
    if not all(terms) or {*map(type, counts)} != {int} or min(counts) < 1:
        raise refusal("terms", lambda t: not t or any(
            type(tf) is not int or tf < 1 for tf in t.values()))
    return Index(*map(tuple, columns.values()))
