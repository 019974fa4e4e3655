import gc
import json
import math
import os
import random
import re
import shutil
import stat
from collections import Counter
from dataclasses import fields
from itertools import pairwise
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from halqa import retrieval
from halqa.config import Config
from halqa.errors import EmptyCorpus
from halqa.evaluation import load_questions
from halqa.morphology import LightStemmer
from halqa.pipeline import Engine
from halqa.question_analysis import retrieval_term_multiset
from halqa.retrieval import (INDEX_FORMAT_VERSION, Index, Paragraph,
                             _READ_CHUNK, _w_dt, _w_p, _w_qt, build_index,
                             build_index_from_dir, document_scores,
                             document_technique, load_index,
                             paragraph_scores, paragraph_technique,
                             read_corpus, save_index)
from halqa.text_core import (normalize, remove_stopwords, split_paragraphs,
                             tokenize)

from conftest import CORPUS_DIR, QUESTIONS, documents_of, index_of

# Synthetic vocabulary of latin terms: they pass the tokenizer untouched,
# never collide with the stopword list, and are stemmer fixpoints, so
# the oracle below can recount everything straight from the raw text.
VOCAB = [f"t{i}" for i in range(30)]


def random_corpus(rng: random.Random) -> list[tuple[str, str]]:
    vocab = VOCAB[:rng.randint(1, len(VOCAB))]
    corpus = []
    for d in range(rng.randint(1, 10)):
        paras = []
        for _ in range(rng.randint(1, 5)):
            length = rng.randint(1, 12)
            paras.append(" ".join(rng.choices(vocab, k=length)))
        corpus.append((f"d{d:02d}", "\n\n".join(paras)))
    return corpus


def random_query(rng: random.Random) -> Counter:
    terms = rng.choices(VOCAB, k=rng.randint(1, 6))
    return Counter(terms)


def snapshot_payload(idx: Index) -> dict:
    """The payload a snapshot of ``idx`` holds, built without save_index:
    each document's id and paragraph count, then one value a paragraph."""
    ps, documents = idx.paragraphs, documents_of(idx)
    return {"format_version": INDEX_FORMAT_VERSION,
            "doc_ids": [d.doc_id for d in documents],
            "doc_sizes": [len(d.positions) for d in documents],
            "para_ids": [p.para_id for p in ps],
            "texts": [p.text for p in ps], "terms": [p.terms for p in ps]}


def oracle_stats(corpus):
    """Recount paragraph/document statistics directly from raw text."""
    para_counts, doc_counts = {}, {}
    for doc_id, text in corpus:
        doc_counts[doc_id] = Counter()
        for i, block in enumerate(text.split("\n\n")):
            words = block.split()
            if words:
                para_counts[(doc_id, i)] = Counter(words)
                doc_counts[doc_id].update(words)
    df_p = Counter()
    for counts in para_counts.values():
        df_p.update(set(counts))
    df_d = Counter()
    for counts in doc_counts.values():
        df_d.update(set(counts))
    return para_counts, doc_counts, df_p, df_d


def df(postings):
    """Root -> document frequency: the length of its postings."""
    return {root: len(units) for root, units in postings.items()}


def oracle_passage_score(counts, q, n_total, df):
    pl = sum(counts.values())
    score = 0.0
    ql = sum(q.values())
    for term in set(counts) & set(q):
        weight_p = (n_total / df[term]) * math.log2((counts[term] + 1) / pl)
        weight_q = (n_total / df[term]) * math.log2((q[term] + 1) / ql)
        score += weight_p * weight_q
    return score


def oracle_document_score(counts, q, n_docs, df):
    max_tf = max(counts.values())
    score = 0.0
    max_qf = max(q.values())
    for term in set(counts) & set(q):
        idf = math.log2(n_docs / df[term])
        score += ((counts[term] / max_tf) * idf
                  * (0.5 + 0.5 * q[term] / max_qf) * idf)
    return score


def _one_unit(terms, norm, q: Counter, query_norm, postings, n_total, weight,
              query_weight) -> float:
    """One unit's score: the sum over its query roots, in q's order, of
    W_unit * W_q. Retrieval adds the same products in the same order term
    at a time, so its scores must equal this one to the bit."""
    score = 0.0
    for term, qtf in q.items():
        tf, n = terms.get(term), len(postings.get(term, ()))
        if tf and n:
            score += (weight(tf, norm, n_total, n)
                      * query_weight(qtf, query_norm, n_total, n))
    return score


def passage_similarity(p: Paragraph, q: Counter, idx: Index) -> float:
    return _one_unit(p.terms, sum(p.terms.values()), q, sum(q.values()),
                     idx.paragraph_postings, idx.n_paragraphs, _w_p, _w_p)


def document_similarity(d, q: Counter, idx: Index) -> float:
    """The score of a document of ``documents_of(idx)``."""
    return _one_unit(d.terms, max(d.terms.values()), q, max(q.values()),
                     idx.document_postings, idx.n_documents, _w_dt, _w_qt)


def zero_tie(score: float, terms, q: Counter) -> int:
    """The tie rule among scores of exactly 0: the more distinct query
    roots a unit holds, the higher it ranks. Other scores do not use it."""
    return -len(terms.keys() & q.keys()) if score == 0 else 0


def full_scan_paragraphs(idx: Index, q: Counter, k: int):
    """Reference ranking: score every paragraph, sort by score descending,
    then by the zero-score tie rule, then (doc_id, para_id)."""
    scored = sorted(((passage_similarity(p, q, idx), p) for p in idx.paragraphs),
                    key=lambda sp: (-sp[0], zero_tie(sp[0], sp[1].terms, q),
                                    sp[1].doc_id, sp[1].para_id))
    return [((p.doc_id, p.para_id), s) for s, p in scored[:k]]


def full_scan_documents(idx: Index, q: Counter, k_docs: int, k_paras: int):
    """Reference document technique: score every document, rank them as
    paragraphs are (ties by doc_id), keep the top k_docs, rank their
    paragraphs by full scan over an index of them."""
    def key(d):
        score = document_similarity(d, q, idx)
        return -score, zero_tie(score, d.terms, q), d.doc_id

    ranked = sorted(documents_of(idx), key=key)
    kept = sorted(ranked[:k_docs], key=lambda d: d.doc_id)
    retained = index_of(idx.paragraph(i) for d in kept for i in d.positions)
    return full_scan_paragraphs(retained, q, k_paras)


# Few words, so that paragraphs share roots, tie and repeat; the query may
# also hold words no paragraph has. The stopword drops a paragraph that
# holds nothing else, and a document whose every paragraph is so.
_WORDS = [*VOCAB[:5], "في"]
_corpora = st.lists(
    st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6)
             .map(" ".join), min_size=1, max_size=4).map("\n\n".join),
    min_size=1, max_size=8,
).map(lambda docs: [(f"d{i:02d}", text) for i, text in enumerate(docs)])
_queries = st.lists(st.sampled_from(VOCAB[:7]), min_size=1, max_size=6)

# Arabic paragraphs that mix stopwords, punctuation, diacritics, tatweel
# and Alef variants, inside words and between them.
_PIECES = ["في", "من", "الى", "على", "هو", "لا", "ليس", "محمد", "الباب",
           "أحمد", "إلى", "آمن", "كـتـاب", "كَتَبَ", "مُحَمَّد", "ـ", "ً",
           "الطالب", "ولد", "جميل", "t1"]
_arabic_paragraphs = st.lists(
    st.tuples(st.one_of(st.sampled_from(_PIECES),
                        st.text(alphabet="ابتمحدلويةأإآـًٌٍَُِّْ ،.؟!؛:-",
                                max_size=8)),
              st.sampled_from([" ", "", "، ", ".", " ؟ ", "\n", "\n\n"])),
    max_size=30,
).map(lambda pairs: "".join(piece + sep for piece, sep in pairs))


def reference_terms(corpus, lexicons, stemmer):
    """(doc_id, para_id) -> a paragraph's terms, in first-seen order,
    through tokenize, remove_stopwords and stem, one word at a time."""
    terms = {}
    for doc_id, text in sorted(corpus):
        for para_id, para in enumerate(split_paragraphs(text)):
            content = remove_stopwords(tokenize(normalize(para)), lexicons)
            if content:
                terms[(doc_id, para_id)] = list(
                    Counter(stemmer.stem(t.surface) for t in content).items())
    return terms


def index_terms(idx):
    return {(p.doc_id, p.para_id): list(p.terms.items())
            for p in idx.paragraphs}


class TestIndexing:
    def test_counts(self, lexicons, stemmer):
        idx = build_index([("a", "t1 t2\n\nt1"), ("b", "t3")],
                          lexicons, stemmer)
        assert idx.n_documents == 2
        assert idx.n_paragraphs == 3
        assert df(idx.paragraph_postings) == {"t1": 2, "t2": 1, "t3": 1}
        assert df(idx.document_postings) == {"t1": 1, "t2": 1, "t3": 1}

    def test_stopword_only_paragraph_skipped(self, lexicons, stemmer):
        idx = build_index([("a", "في من\n\nt1")], lexicons, stemmer)
        assert idx.n_paragraphs == 1
        assert idx.paragraphs[0].terms == Counter({"t1": 1})

    def test_empty_corpus_rejected(self, lexicons, stemmer):
        with pytest.raises(EmptyCorpus):
            build_index([], lexicons, stemmer)
        with pytest.raises(EmptyCorpus):
            build_index([("a", "في من")], lexicons, stemmer)

    def test_order_invariant(self, lexicons, stemmer):
        corpus = random_corpus(random.Random(7))
        shuffled = corpus[::-1]
        assert build_index(corpus, lexicons, stemmer) == \
            build_index(shuffled, lexicons, stemmer)

    def test_terms_are_stemmed(self, lexicons, stemmer):
        idx = build_index([("a", "فتح محمود الباب")], lexicons, stemmer)
        assert idx.paragraphs[0].terms == Counter(
            {"فتح": 1, "محمود": 1, "باب": 1})

    def test_stems_each_distinct_word_once_per_build(self, lexicons, stemmer):
        calls = Counter()

        class CountingStemmer(LightStemmer):
            def stem(self, word):
                calls[word] += 1
                return super().stem(word)

        counting = CountingStemmer(stemmer.overrides, stemmer.tag_overrides)
        assert {"في", "من", "على"} <= lexicons.stopwords
        corpus = [("a", "t2 الباب في t1 باب t2\n\nفي من على\n\nt1 من فتح t2"),
                  ("b", "الباب في t3")]
        idx = build_index(corpus, lexicons, counting)
        assert idx == build_index(corpus, lexicons, stemmer)
        # No stopword is stemmed; الباب and باب share the root باب, and
        # the terms keep first-seen order.
        assert calls == dict.fromkeys(["t2", "الباب", "t1", "باب", "فتح",
                                       "t3"], 1)
        assert [(p.doc_id, p.para_id, list(p.terms.items()))
                for p in idx.paragraphs] == [
            ("a", 0, [("t2", 2), ("باب", 2), ("t1", 1)]),
            ("a", 2, [("t1", 1), ("فتح", 1), ("t2", 1)]),
            ("b", 0, [("باب", 1), ("t3", 1)])]
        build_index(corpus, lexicons, counting)  # the memo is per build
        assert set(calls.values()) == {2}

    def test_postings(self, lexicons, stemmer):
        idx = build_index([("a", "t1 t2\n\nt1"), ("b", "t3 t1")],
                          lexicons, stemmer)
        assert idx.paragraph_postings == {"t1": (0, 1, 2), "t2": (0,),
                                          "t3": (2,)}
        assert idx.document_postings == {"t1": (0, 1), "t2": (0,), "t3": (1,)}

    def test_build_from_dir(self, lexicons, stemmer):
        idx = build_index_from_dir(CORPUS_DIR, lexicons, stemmer)
        assert idx.n_documents == 13

    def test_build_from_empty_dir(self, tmp_path, lexicons, stemmer):
        with pytest.raises(EmptyCorpus):
            build_index_from_dir(tmp_path, lexicons, stemmer)

    def test_fixture_terms_equal_the_token_reference(self, lexicons, stemmer):
        corpus = read_corpus(CORPUS_DIR)
        assert index_terms(build_index(corpus, lexicons, stemmer)) == \
            reference_terms(corpus, lexicons, stemmer)

    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(_arabic_paragraphs, min_size=1, max_size=3))
    def test_terms_equal_the_token_reference(self, lexicons, stemmer, docs):
        corpus = [(f"d{i}", text) for i, text in enumerate(docs)]
        expected = reference_terms(corpus, lexicons, stemmer)
        if not expected:
            with pytest.raises(EmptyCorpus):
                build_index(corpus, lexicons, stemmer)
            return
        assert index_terms(build_index(corpus, lexicons, stemmer)) == expected


class TestReadCorpus:
    def test_line_ends_read_as_in_text_mode(self, tmp_path, lexicons,
                                            stemmer):
        (tmp_path / "crlf.txt").write_bytes(
            "محمد ولد جميل\r\n\r\nفتح محمود الباب\r\n".encode())
        (tmp_path / "cr.txt").write_bytes(
            "ليس عمر ولد طويل\r\rكتب الطالب\rالدرس\r".encode())
        in_text_mode = [(f.stem, f.read_text(encoding="utf-8"))
                        for f in sorted(tmp_path.glob("*.txt"))]
        assert read_corpus(tmp_path) == in_text_mode
        texts = [p.text for p in
                 build_index_from_dir(tmp_path, lexicons, stemmer).paragraphs]
        assert texts == ["ليس عمر ولد طويل", "كتب الطالب\nالدرس",
                         "محمد ولد جميل", "فتح محمود الباب"]

    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbf",
        b"\xef\xbb\xbf\xef\xbb\xbf" + "ب".encode(),
        b"a\xef\xbb\xbf" + "ب".encode(),
        "محمد\r\nولد\rجميل\r\r\n\n".encode(),
        "محمد\nولد\u2028جميل\x85\x0c\n".encode(),
    ], ids=["bom-only", "second-bom", "inner-bom", "cr", "no-cr"])
    def test_decodes_as_utf_8_sig_in_text_mode(self, tmp_path, data):
        # A leading BOM is dropped, a later one kept as U+FEFF; CRLF and
        # lone CR read as LF, and text without CR comes back as decoded.
        (tmp_path / "a.txt").write_bytes(data)
        decoded = data.decode("utf-8-sig")
        expected = decoded.replace("\r\n", "\n").replace("\r", "\n")
        assert read_corpus(tmp_path) == [("a", expected)]

    def test_invalid_byte_after_a_bom_is_named_as_utf_8_sig_names_it(
            self, tmp_path):
        data = b"\xef\xbb\xbfab\xffc"
        (path := tmp_path / "x.txt").write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as reference:
            data.decode("utf-8-sig")
        with pytest.raises(ValueError) as refusal:
            read_corpus(tmp_path)
        assert str(refusal.value) == f"{path} is not UTF-8: {reference.value}"
        assert str(refusal.value) == (
            f"{path} is not UTF-8: 'utf-8' codec can't decode byte 0xff in "
            "position 2: invalid start byte")

    def test_file_name_order(self, tmp_path):
        # "-" sorts before ".", so a-b.txt comes before a.txt; eval
        # --sweep takes its corpus prefixes in this order.
        for name in ("a.txt", "a-b.txt", "b.txt"):
            (tmp_path / name).write_text(name, encoding="utf-8")
        assert [doc_id for doc_id, _ in read_corpus(tmp_path)] == \
            ["a-b", "a", "b"]

    def test_every_name_ending_in_txt(self, tmp_path):
        # Dot files count, and the doc id is the name's stem: ".txt" has no
        # suffix, "..txt" has the stem ".".
        names = (".txt", "..txt", "a.txt", "b.txt.txt", "c.TXT", "d.txt~",
                 "e.text", "f")
        for name in names:
            (tmp_path / name).write_text(name, encoding="utf-8")
        corpus = read_corpus(tmp_path)
        assert corpus == [(".", "..txt"), (".txt", ".txt"), ("a", "a.txt"),
                          ("b.txt", "b.txt.txt")]
        assert [doc_id for doc_id, _ in corpus] == \
            [Path(text).stem for _, text in corpus]

    def test_directory_named_txt_is_read_as_a_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("محمد ولد جميل", encoding="utf-8")
        (tmp_path / "d.txt").mkdir()
        with pytest.raises(IsADirectoryError,
                           match=re.escape(str(tmp_path / "d.txt"))):
            read_corpus(tmp_path)

    def test_dangling_link_names_its_full_path(self, tmp_path):
        (tmp_path / "a.txt").write_text("محمد ولد جميل", encoding="utf-8")
        (tmp_path / "x.txt").symlink_to(tmp_path / "missing")
        with pytest.raises(FileNotFoundError,
                           match=re.escape(str(tmp_path / "x.txt"))):
            read_corpus(tmp_path)

    def test_file_longer_than_a_read_reads_whole(self, tmp_path):
        # About 300 KB with a BOM and CRLF line ends, and a two-byte letter
        # split by every read boundary.
        line = "محمد ولد جميل وكتب الطالب الدرس\r\n".encode()
        data = bytearray(b"\xef\xbb\xbf")
        while len(data) < 300_000:
            boundary = (len(data) // _READ_CHUNK + 1) * _READ_CHUNK
            if len(data) + len(line) < boundary - 1:
                data += line
            else:
                data += b" " * (boundary - 1 - len(data)) + "ب".encode()
        for boundary in range(_READ_CHUNK, len(data), _READ_CHUNK):
            assert data[boundary - 1:boundary + 1] == "ب".encode()
        assert len(data) > 4 * _READ_CHUNK
        path = tmp_path / "long.txt"
        path.write_bytes(data)
        (tmp_path / "empty.txt").write_bytes(b"")
        assert read_corpus(tmp_path) == [
            ("empty", ""), ("long", path.read_text(encoding="utf-8-sig"))]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_no_descriptor_is_left_open(self, tmp_path):
        def open_fds():
            return sorted(os.listdir("/proc/self/fd"))

        (tmp_path / "a.txt").write_text("محمد ولد جميل", encoding="utf-8")
        before = open_fds()
        assert read_corpus(tmp_path)
        assert open_fds() == before
        bad = tmp_path / "x.txt"
        bad.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match="is not UTF-8"):
            read_corpus(tmp_path)
        assert open_fds() == before
        bad.unlink()
        bad.mkdir()
        with pytest.raises(IsADirectoryError):
            read_corpus(tmp_path)
        assert open_fds() == before

    @pytest.mark.parametrize("plain_file", [False, True],
                             ids=["missing", "plain-file"])
    def test_no_directory_is_an_empty_corpus(self, tmp_path, plain_file):
        path = tmp_path / "corpus.txt"
        if plain_file:
            path.write_text("محمد ولد جميل", encoding="utf-8")
        with pytest.raises(EmptyCorpus, match="no .txt files in"):
            read_corpus(path)


class TestFormulaSpotChecks:
    def make_passage_index(self):
        # One matching paragraph with tf=3 over 10 terms, four paragraphs
        # total, the term in two of them.
        target = Paragraph(doc_id="a", para_id=0, text="",
                           terms=Counter({"x": 3, "y": 7}))
        filler = [
            Paragraph(doc_id="a", para_id=1, text="", terms=Counter({"x": 1})),
            Paragraph(doc_id="b", para_id=0, text="", terms=Counter({"y": 2})),
            Paragraph(doc_id="b", para_id=1, text="", terms=Counter({"z": 1})),
        ]
        idx = index_of((target, *filler))
        assert sum(target.terms.values()) == 10
        assert df(idx.paragraph_postings) == {"x": 2, "y": 2, "z": 1}
        return target, idx

    def test_passage_formula(self):
        target, idx = self.make_passage_index()
        q = Counter({"x": 1})
        # (4/2)*log2(4/10) * (4/2)*log2(2/1)
        assert passage_similarity(target, q, idx) == \
            pytest.approx(-5.2877124, abs=1e-4)

    def test_passage_formula_restricted_overrides(self):
        # An index over a subset of paragraphs supplies its own N and n.
        target, idx = self.make_passage_index()
        restricted = index_of((target, idx.paragraph(2)))
        q = Counter({"x": 1})
        got = passage_similarity(target, q, restricted)
        # (2/1)*log2(4/10) * (2/1)*log2(2/1)
        assert got == pytest.approx(4 * math.log2(0.4), abs=1e-9)

    def test_document_formula(self):
        idx = index_of(
            Paragraph(doc_id=d, para_id=0, text="", terms=Counter(terms))
            for d, terms in [("a", {"x": 3, "y": 1}), ("b", {"x": 1, "y": 1}),
                             ("c", {"y": 1}), ("d", {"y": 1})])
        doc = documents_of(idx)[0]
        assert (max(doc.terms.values()), df(idx.document_postings)) == \
            (3, {"x": 2, "y": 4})
        q = Counter({"x": 1})
        # (3/3)*log2(4/2) * (0.5+0.5)*log2(4/2)
        assert document_similarity(doc, q, idx) == pytest.approx(1.0, abs=1e-4)

    def test_disjoint_query_scores_zero(self):
        target, idx = self.make_passage_index()
        q = Counter(["missing"])
        assert passage_similarity(target, q, idx) == 0.0
        # ql and max_qf of the empty query are 0; it scores no unit
        assert paragraph_scores(idx, Counter()) == {}
        assert document_scores(idx, Counter()) == {}


class TestWeightedPostings:
    def test_fixture_scores_equal_the_one_unit_formulas(self, engine):
        idx = engine.index
        for question, _ in load_questions(QUESTIONS):
            q = Counter(retrieval_term_multiset(
                engine.analyze(question), engine.stemmer))
            scores = paragraph_scores(idx, q)
            assert scores
            for i, p in enumerate(idx.paragraphs):
                assert scores.get(i, 0.0) == passage_similarity(p, q, idx)
            scores = document_scores(idx, q)
            for i, d in enumerate(documents_of(idx)):
                assert scores.get(i, 0.0) == document_similarity(d, q, idx)
            for c in paragraph_technique(idx, q, k=idx.n_paragraphs):
                assert c.score == passage_similarity(c, q, idx)
            top = document_technique(idx, q, k_docs=3, k_paras=idx.n_paragraphs)
            kept = {c.doc_id for c in top}
            retained = index_of(
                p for p in idx.paragraphs if p.doc_id in kept)
            assert len(top) == retained.n_paragraphs
            for c in top:
                assert c.score == passage_similarity(c, q, retained)

    def test_weights_are_derived_once_per_root(self, lexicons, stemmer,
                                               monkeypatch):
        idx = build_index([("a", "x y\n\nx"), ("b", "x z"), ("c", "y w")],
                          lexicons, stemmer)
        roots = []
        weight = retrieval._w_p
        monkeypatch.setattr(retrieval, "_w_p",
                            lambda tf, length, n_total, n:
                            roots.append(n) or weight(tf, length, n_total, n))
        paragraph_technique(idx, Counter(["x"]), k=2)
        # three postings of x, then its query weight
        assert roots == [3, 3, 3, 3]
        x = idx.paragraph_weights["x"]
        assert set(idx.paragraph_weights) == {"x"}
        roots.clear()
        paragraph_technique(idx, Counter(["x", "y"]), k=2)
        # x's query weight, then y's two postings and its query weight:
        # x's postings keep the weights derived for the first query
        assert roots == [3, 2, 2, 2]
        assert idx.paragraph_weights["x"] is x
        assert list(x) == [weight(1, 2, 4, 3), weight(1, 1, 4, 3),
                           weight(1, 2, 4, 3)]

    def test_restricted_index_derives_its_own_weights(self):
        target = Paragraph(doc_id="a", para_id=0, text="",
                           terms=Counter({"x": 3, "y": 7}))
        paras = (target,
                 Paragraph(doc_id="a", para_id=1, text="", terms={"x": 1}),
                 Paragraph(doc_id="b", para_id=0, text="", terms={"y": 2}),
                 Paragraph(doc_id="c", para_id=0, text="", terms={"x": 2}))
        full = index_of(paras)
        restricted = index_of(paras[:3])
        for idx in (full, restricted):
            paragraph_scores(idx, Counter(["x"]))
            document_scores(idx, Counter(["x"]))
        # N/n: 4/3 over all four paragraphs, 3/2 over the first three
        assert full.paragraph_weights["x"][0] == \
            pytest.approx((4 / 3) * math.log2(4 / 10))
        assert restricted.paragraph_weights["x"][0] == \
            pytest.approx((3 / 2) * math.log2(4 / 10))
        # documents: N/n = 3/2 over all three, 2/1 over a and b
        assert full.document_weights["x"][0] == pytest.approx(
            (4 / 7) * math.log2(3 / 2))
        assert restricted.document_weights["x"][0] == pytest.approx(
            (4 / 7) * math.log2(2 / 1))


class TestFormulaOracle:
    def test_passage_scores_match_oracle(self, lexicons, stemmer):
        rng = random.Random(20240820)
        for _ in range(100):
            corpus = random_corpus(rng)
            idx = build_index(corpus, lexicons, stemmer)
            q = random_query(rng)
            para_counts, _, df_p, _ = oracle_stats(corpus)
            assert df_p == df(idx.paragraph_postings)
            for p in idx.paragraphs:
                expected = oracle_passage_score(
                    para_counts[(p.doc_id, p.para_id)], q,
                    len(para_counts), df_p)
                assert passage_similarity(p, q, idx) == \
                    pytest.approx(expected, abs=1e-9)

    def test_document_scores_match_oracle(self, lexicons, stemmer):
        rng = random.Random(20240821)
        for _ in range(100):
            corpus = random_corpus(rng)
            idx = build_index(corpus, lexicons, stemmer)
            q = random_query(rng)
            _, doc_counts, _, df_d = oracle_stats(corpus)
            for d in documents_of(idx):
                expected = oracle_document_score(
                    doc_counts[d.doc_id], q, len(doc_counts), df_d)
                assert document_similarity(d, q, idx) == \
                    pytest.approx(expected, abs=1e-9)


class TestTechniques:
    def test_paragraph_technique_top_k(self, lexicons, stemmer):
        rng = random.Random(3)
        corpus = random_corpus(rng)
        idx = build_index(corpus, lexicons, stemmer)
        q = random_query(rng)
        top = paragraph_technique(idx, q, k=5)
        assert len(top) == min(5, idx.n_paragraphs)
        scores = [c.score for c in top]
        assert scores == sorted(scores, reverse=True)
        # top-k really are the global maxima
        all_scores = sorted((passage_similarity(p, q, idx)
                             for p in idx.paragraphs), reverse=True)
        assert scores == pytest.approx(all_scores[:len(scores)])

    def test_paragraph_technique_tie_break(self, lexicons, stemmer):
        paras = tuple(Paragraph(doc_id=d, para_id=i, text="",
                                terms=Counter({"x": 1}))
                      for d, i in [("b", 1), ("a", 0), ("b", 0)])
        # An index holds its paragraphs in (doc_id, para_id) order only.
        with pytest.raises(ValueError):
            index_of(paras)
        idx = build_index([("b", "x\n\nx"), ("a", "x")], lexicons, stemmer)
        q = Counter(["x"])
        top = paragraph_technique(idx, q, k=3)
        assert [(c.doc_id, c.para_id) for c in top] == \
            [("a", 0), ("b", 0), ("b", 1)]
        assert len({c.score for c in top}) == 1

    def test_zero_scores_rank_by_shared_roots(self, lexicons, stemmer):
        # ql = 2, so W_q = log2(2/2) = 0 and every paragraph scores 0: the
        # more distinct query roots a paragraph holds, the higher it ranks,
        # and a paragraph holding none comes last, whatever its position.
        idx = build_index([("a", "t2"), ("b", "t0 t0"), ("c", "t0 t1 t2")],
                          lexicons, stemmer)
        top = paragraph_technique(idx, Counter(["t0", "t1"]), k=3)
        assert [(c.doc_id, c.score) for c in top] == \
            [("c", 0.0), ("b", 0.0), ("a", 0.0)]

    def test_distractors_do_not_push_out_a_two_root_answer(self, tmp_path):
        # Six documents sorting before the fixture's and sharing no root
        # with the question filled its top 5 when zero scores tied by
        # position alone, and the question answered unknown.
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        for i in range(1, 7):
            (corpus / f"a0{i}.txt").write_text("كتب الطالب الدرس.",
                                               encoding="utf-8")
        result = Engine(Config(corpus_dir=corpus)).answer("هل محمد جميل ؟")
        assert result.verdict.answer.value == "yes"
        assert result.retrieved[0].doc_id == "d01_muhammad"

    def test_negative_score_ranks_below_unmatched(self, lexicons, stemmer):
        # ql = 3 and tf + 1 > pl: W_p = 2 log2(2/1) > 0 and
        # W_q = 2 log2(2/3) < 0, so the only paragraph holding a query root
        # ranks below the one that holds none.
        idx = build_index([("a", "x"), ("b", "z z")], lexicons, stemmer)
        q = Counter(["x", "y", "w"])
        top = paragraph_technique(idx, q, k=2)
        assert [(c.doc_id, c.para_id) for c in top] == [("b", 0), ("a", 0)]
        assert top[0].score == 0.0
        assert top[1].score == pytest.approx(4 * math.log2(2 / 3))

    @settings(max_examples=300, deadline=None)
    @given(corpus=_corpora, terms=_queries, k=st.integers(1, 40),
           k_docs=st.integers(1, 10))
    # negative scores: tf + 1 > pl with ql = 3
    @example(corpus=[("a", "t0"), ("b", "t1 t1"), ("c", "t0 t2")],
             terms=["t0", "t3", "t4"], k=3, k_docs=3)
    # ql = 2: every score is 0, k above the matches
    @example(corpus=[("a", "t1\n\nt0 t2"), ("b", "t0")],
             terms=["t0", "t1"], k=10, k_docs=1)
    # tied positive scores across documents, fewer positives than k
    @example(corpus=[("a", "t0 t1"), ("b", "t2"), ("c", "t0 t1")],
             terms=["t0"], k=3, k_docs=2)
    # b holds only stopwords and is dropped; c loses a paragraph
    @example(corpus=[("a", "t0"), ("b", "في\n\nفي"), ("c", "في\n\nt0 t1")],
             terms=["t0"], k=3, k_docs=2)
    def test_techniques_match_full_scan(self, lexicons, stemmer, corpus,
                                        terms, k, k_docs):
        assume(any(w != "في" for _, text in corpus for w in text.split()))
        idx = build_index(corpus, lexicons, stemmer)
        documents = documents_of(idx)
        assert [[*range(start, end)] for start, end in
                pairwise(idx.document_starts)] == \
            [d.positions for d in documents]
        assert [[*t.items()] for t in idx.document_terms] == \
            [[*d.terms.items()] for d in documents]
        q = Counter(terms)
        got = [((c.doc_id, c.para_id), c.score)
               for c in paragraph_technique(idx, q, k)]
        assert got == full_scan_paragraphs(idx, q, k)
        got = [((c.doc_id, c.para_id), c.score)
               for c in document_technique(idx, q, k_docs, k)]
        assert got == full_scan_documents(idx, q, k_docs, k)

    def test_k_above_the_unit_count(self, lexicons, stemmer):
        rng = random.Random(5)
        idx = build_index(random_corpus(rng), lexicons, stemmer)
        q = random_query(rng)
        got = [((c.doc_id, c.para_id), c.score)
               for c in paragraph_technique(idx, q, k=2**63)]
        assert got == full_scan_paragraphs(idx, q, idx.n_paragraphs)
        got = [((c.doc_id, c.para_id), c.score)
               for c in document_technique(idx, q, 2**63, 2**63)]
        assert got == full_scan_documents(idx, q, idx.n_documents,
                                          idx.n_paragraphs)

    def test_document_technique_restricts_paragraphs(self, lexicons, stemmer):
        corpus = [("a", "x x x\n\nx y"), ("b", "x z"), ("c", "w w")]
        idx = build_index(corpus, lexicons, stemmer)
        q = Counter(["x", "y", "z"])
        top = document_technique(idx, q, k_docs=2, k_paras=10)
        assert {c.doc_id for c in top} <= {"a", "b"}
        assert len(top) == 3  # both docs' paragraphs, c excluded

    def test_document_technique_restricted_stats(self, lexicons, stemmer):
        # N and n come from the retained documents' paragraphs, which
        # differ here from the corpus-wide statistics.
        corpus = [("a", "x x x y\n\nx y"), ("b", "x z w"), ("c", "x q\n\nx r")]
        idx = build_index(corpus, lexicons, stemmer)
        q = Counter(["x", "y", "z"])
        top = document_technique(idx, q, k_docs=2, k_paras=10)
        para_counts, _, _, _ = oracle_stats(corpus)
        retained = {k: v for k, v in para_counts.items() if k[0] in {"a", "b"}}
        df = Counter(t for counts in retained.values() for t in counts)
        assert {(c.doc_id, c.para_id) for c in top} == set(retained)
        for c in top:
            assert c.score == pytest.approx(oracle_passage_score(
                retained[(c.doc_id, c.para_id)], q, len(retained), df),
                abs=1e-9)
        global_df = Counter(t for counts in para_counts.values() for t in counts)
        assert any(abs(c.score - oracle_passage_score(
            retained[(c.doc_id, c.para_id)], q, len(para_counts), global_df))
            > 1e-12 for c in top)

    def test_document_technique_can_discard_best_paragraph(self, lexicons,
                                                           stemmer):
        # The best paragraph lives in a document that loses the document
        # round: the two techniques then disagree on the winner.
        corpus = [
            ("a", "x y z f f f f f f f"),
            ("b", "x x x y y y z z\n\nx y z w"),
            ("c", "f g"),
        ]
        idx = build_index(corpus, lexicons, stemmer)
        q = Counter(["x", "y", "z"])
        best_direct = paragraph_technique(idx, q, k=1)[0]
        assert (best_direct.doc_id, best_direct.para_id) == ("a", 0)
        via_docs = document_technique(idx, q, k_docs=1, k_paras=1)[0]
        assert via_docs.doc_id == "b"

    def test_longer_paragraph_outranks_repeated_root(self, engine, tmp_path):
        # Every W_q of a three-root question is negative, so a matched root
        # raises a paragraph's score only when pl > tf + 1, the more so the
        # longer the paragraph. A paragraph of 15 roots naming محمد once
        # outranks d01_muhammad#1, which names him twice in 7 roots.
        question = "هل محمد ولد جميل ؟"
        assert ("d01_muhammad", 1) in [
            (c.doc_id, c.para_id) for c in engine.answer(question).retrieved]
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        for i in range(1, 6):
            (corpus / f"z0{i}.txt").write_text(
                "زار محمد المدينة القديمة مع اصدقائه في يوم مشمس وشاهد الاسواق"
                f" والحدائق والمتاحف والقلاع والجسور والانهار والجبال{i}.",
                encoding="utf-8")
        result = Engine(Config(corpus_dir=corpus)).answer(question)
        assert [(c.doc_id, c.para_id) for c in result.retrieved] == \
            [("d01_muhammad", 0), ("z01", 0), ("z02", 0), ("z03", 0),
             ("z04", 0)]
        assert [c.score for c in result.retrieved] == \
            pytest.approx([1261.568280, *[23.458883] * 4], abs=1e-6)
        assert result.verdict.answer.value == "yes"

    def test_candidates_are_index_paragraphs(self, lexicons, stemmer):
        idx = build_index([("a", "x\n\ny"), ("b", "x y")], lexicons, stemmer)
        q = Counter(["x", "y"])
        positions = {key: i for i, key in
                     enumerate(zip(idx.doc_ids, idx.para_ids))}
        for top in (paragraph_technique(idx, q, k=3),
                    document_technique(idx, q, k_docs=2, k_paras=3)):
            assert len(top) == 3
            for c in top:
                i = positions[c.doc_id, c.para_id]
                assert c == idx.paragraph(i, c.score)


class TestParagraphsOnDemand:
    def test_paragraphs_are_made_only_for_returned_positions(
            self, lexicons, stemmer, tmp_path, monkeypatch):
        made = []

        class CountingParagraph(Paragraph):
            def __init__(self, *args):
                made.append(args[:2])
                super().__init__(*args)

        path = tmp_path / "index.json"
        save_index(build_index_from_dir(CORPUS_DIR, lexicons, stemmer), path)
        monkeypatch.setattr(retrieval, "Paragraph", CountingParagraph)
        idx = load_index(path)
        assert made == []
        q = Counter(list(idx.terms[0]))
        top = paragraph_technique(idx, q, k=3)
        assert made == [(c.doc_id, c.para_id) for c in top]
        assert len(made) == 3
        made.clear()
        top = document_technique(idx, q, k_docs=5, k_paras=4)
        assert made == [(c.doc_id, c.para_id) for c in top]
        assert len(made) == 4

    def test_index_fields_are_the_snapshot_lists(self, lexicons, stemmer):
        idx = build_index([("a", "x y x\n\nz"), ("b", "y")], lexicons, stemmer)
        assert [f.name for f in fields(Index)] == \
            ["doc_ids", *retrieval._PARAGRAPH_LISTS]
        assert (idx.doc_ids, idx.para_ids, idx.texts, idx.terms) == \
            (("a", "a", "b"), (0, 1, 0), ("x y x", "z", "y"),
             ({"x": 2, "y": 1}, {"z": 1}, {"y": 1}))
        assert idx.paragraphs == tuple(map(idx.paragraph, range(3)))
        assert [d.positions for d in documents_of(idx)] == [[0, 1], [2]]
        assert idx.document_starts == (0, 2, 3)


class TestPersistence:
    def test_round_trip(self, lexicons, stemmer, tmp_path):
        idx = build_index(random_corpus(random.Random(11)), lexicons, stemmer)
        path = tmp_path / "index.json"
        save_index(idx, path)
        assert load_index(path) == idx

    def test_round_trip_fixture_corpus(self, lexicons, stemmer, tmp_path):
        idx = build_index_from_dir(CORPUS_DIR, lexicons, stemmer)
        path = tmp_path / "index.json"
        save_index(idx, path)
        assert load_index(path) == idx

    def test_built_terms_are_the_loaded_dicts(self, lexicons, stemmer,
                                              tmp_path):
        # Plain dicts of ints, which the garbage collector does not track,
        # in the same key order as a loaded snapshot's.
        built = build_index_from_dir(CORPUS_DIR, lexicons, stemmer)
        path = tmp_path / "index.json"
        save_index(built, path)
        loaded = load_index(path)
        for idx in (built, loaded):
            assert all(type(t) is dict for t in idx.terms)
            assert not any(map(gc.is_tracked, idx.terms))
        assert [list(t.items()) for t in built.terms] == \
            [list(t.items()) for t in loaded.terms]

    def test_atomic_overwrite(self, lexicons, stemmer, tmp_path):
        path = tmp_path / "index.json"
        first = build_index([("a", "x")], lexicons, stemmer)
        second = build_index([("b", "y z")], lexicons, stemmer)
        save_index(first, path)
        save_index(second, path)
        assert load_index(path) == second
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_snapshot_mode_follows_umask(self, lexicons, stemmer, tmp_path,
                                         umask, mode):
        path = tmp_path / "index.json"
        previous = os.umask(umask)
        try:
            save_index(build_index([("a", "x")], lexicons, stemmer), path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_version_check(self, lexicons, stemmer, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index([("a", "x")], lexicons, stemmer), path)
        tampered = path.read_text(encoding="utf-8").replace(
            f'"format_version":{INDEX_FORMAT_VERSION}', '"format_version":99')
        assert tampered != path.read_text(encoding="utf-8")
        path.write_text(tampered, encoding="utf-8")
        with pytest.raises(ValueError):
            load_index(path)

    def test_snapshot_holds_only_paragraphs(self, lexicons, stemmer, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index([("a", "x y x\n\nz"), ("b", "y")], lexicons,
                               stemmer), path)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "format_version": INDEX_FORMAT_VERSION,
            "doc_ids": ["a", "b"], "doc_sizes": [2, 1], "para_ids": [0, 1, 0],
            "texts": ["x y x", "z", "y"],
            "terms": [{"x": 2, "y": 1}, {"z": 1}, {"y": 1}]}

    def test_snapshot_bytes_equal_json_dumps(self, lexicons, stemmer,
                                             tmp_path):
        quoted = Paragraph(doc_id="a", para_id=0,
                           text='قال "نعم" \\ ثم\nمضى',
                           terms=Counter({"قال": 1, "نعم": 1, "مضى": 1}))
        for idx in (index_of((quoted,)),
                    build_index_from_dir(CORPUS_DIR, lexicons, stemmer)):
            path = tmp_path / "index.json"
            save_index(idx, path)
            assert path.read_bytes() == json.dumps(
                snapshot_payload(idx), ensure_ascii=False,
                separators=(",", ":")).encode("utf-8")
            assert load_index(path) == idx

    def test_snapshot_with_spaces_still_loads(self, lexicons, stemmer,
                                              tmp_path):
        # The same payload with json.dumps's default ", " and ": "
        # separators, as format 3 was once written: whitespace is not format.
        idx = build_index_from_dir(CORPUS_DIR, lexicons, stemmer)
        spaced, compact = tmp_path / "spaced.json", tmp_path / "index.json"
        spaced.write_text(json.dumps(snapshot_payload(idx), ensure_ascii=False),
                          encoding="utf-8")
        assert load_index(spaced) == idx
        save_index(idx, compact)
        assert compact.stat().st_size < spaced.stat().st_size
        assert json.loads(compact.read_text(encoding="utf-8")) == \
            json.loads(spaced.read_text(encoding="utf-8"))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_paragraphs_bytes_and_term_order(
            self, lexicons, stemmer, tmp_path_factory, seed):
        idx = build_index(random_corpus(random.Random(seed)), lexicons,
                          stemmer)
        path = tmp_path_factory.mktemp("snapshot") / "index.json"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded == idx
        assert path.read_bytes() == json.dumps(
            snapshot_payload(idx), ensure_ascii=False,
            separators=(",", ":")).encode("utf-8")
        assert [list(p.terms.items()) for p in loaded.paragraphs] == \
            [list(p.terms.items()) for p in idx.paragraphs]

    GOOD = {"format_version": INDEX_FORMAT_VERSION, "doc_ids": ["a"],
            "doc_sizes": [1], "para_ids": [0], "texts": ["x"],
            "terms": [{"x": 1}]}
    # a version-3 snapshot: one doc id per paragraph, and no doc_sizes
    VERSION_3 = {"format_version": 3, "doc_ids": ["a", "a"],
                 "para_ids": [0, 1], "texts": ["x", "y"],
                 "terms": [{"x": 1}, {"y": 1}]}
    # a version-2 snapshot: one record per paragraph
    VERSION_2 = {"format_version": 2, "paragraphs": [
        {"doc_id": "a", "para_id": 0, "text": "x", "terms": {"x": 1}}]}

    @pytest.mark.parametrize("payload", [
        [1, 2],
        "index",
        {"format_version": INDEX_FORMAT_VERSION},
        {**GOOD, "doc_ids": [], "doc_sizes": [], "para_ids": [], "texts": [],
         "terms": []},
        {**GOOD, "doc_ids": [], "doc_sizes": []},
        {k: v for k, v in GOOD.items() if k != "doc_sizes"},
        {**GOOD, "doc_sizes": 1},
        {**GOOD, "doc_sizes": [True]},
        {**GOOD, "doc_sizes": [0]},
        {**GOOD, "doc_sizes": [2]},
        {**GOOD, "terms": {"a": 1}},
        {**GOOD, "terms": [1]},
        {k: v for k, v in GOOD.items() if k != "terms"},
        {**GOOD, "para_ids": ["0"]},
        {**GOOD, "para_ids": [True]},
        {**GOOD, "doc_ids": [None]},
        {**GOOD, "terms": [["x"]]},
        {**GOOD, "terms": [{}]},
        {**GOOD, "terms": [{"x": "1"}]},
        {**GOOD, "terms": [{"x": 0}]},
        {**GOOD, "terms": [{"x": True}]},
        # paragraphs not in strictly ascending (doc_id, para_id) order
        {**GOOD, "doc_sizes": [2], "para_ids": [0, 0],
         "texts": ["x", "x"], "terms": [{"x": 1}, {"x": 1}]},
        {**GOOD, "doc_sizes": [2], "para_ids": [1, 0],
         "texts": ["x", "x"], "terms": [{"x": 1}, {"x": 1}]},
        {**GOOD, "doc_ids": ["a", "a"], "doc_sizes": [1, 1],
         "para_ids": [0, 1], "texts": ["x", "x"],
         "terms": [{"x": 1}, {"x": 1}]},
        {**GOOD, "doc_ids": ["b", "a"], "doc_sizes": [1, 1],
         "para_ids": [0, 0], "texts": ["x", "x"],
         "terms": [{"x": 1}, {"x": 1}]},
        # a version-1 snapshot, which stored the statistics as well
        {"format_version": 1,
         "paragraphs": [{**VERSION_2["paragraphs"][0], "pl": 1}],
         "documents": [{"doc_id": "a", "terms": {"x": 1}, "max_tf": 1}],
         "df_p": {"x": 1}, "df_d": {"x": 1}},
        {"format_version": 1, "paragraphs": []},
        VERSION_2,
        VERSION_3,
    ])
    def test_malformed_snapshot_rejected(self, payload, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as refused:
            load_index(path)
        # Only a snapshot of another version is refused for its version.
        other_version = isinstance(payload, dict) and \
            payload.get("format_version") != INDEX_FORMAT_VERSION
        assert ("format version" in str(refused.value)) is other_version

    TWO = {"format_version": INDEX_FORMAT_VERSION, "doc_ids": ["a", "b"],
           "doc_sizes": [1, 1], "para_ids": [0, 0], "texts": ["x", "y"],
           "terms": [{"x": 1}, {"y": 1}]}

    @pytest.mark.parametrize("change, message", [
        ({"para_ids": [0]}, "needs equal non-empty lists: {'para_ids': 1, "
                            "'texts': 2, 'terms': 2}"),
        ({"texts": None}, "needs equal non-empty lists: {'para_ids': 2, "
                          "'texts': None, 'terms': 2}"),
        ({"terms": {"x": 1, "y": 1}}, "'terms': None}"),
        ({"para_ids": [0, True]}, "para_ids[1] (doc_id 'b') is malformed: "
                                  "True"),
        ({"doc_ids": ["a", 7]}, "doc_ids[1] is malformed: 7"),
        ({"terms": [{"x": 1}, {"y": True}]},
         "terms[1] (doc_id 'b') is malformed: {'y': True}"),
        ({"terms": [{"x": 1}, {"y": 0}]},
         "terms[1] (doc_id 'b') is malformed: {'y': 0}"),
        ({"terms": [{}, {"y": 1}]}, "terms[0] (doc_id 'a') is malformed: {}"),
        ({"doc_sizes": None}, "needs equal non-empty lists: {'doc_ids': 2, "
                              "'doc_sizes': None}"),
        ({"doc_sizes": 2}, "{'doc_ids': 2, 'doc_sizes': None}"),
        ({"doc_sizes": [2]}, "{'doc_ids': 2, 'doc_sizes': 1}"),
        ({"doc_sizes": [1, True]}, "doc_sizes[1] (doc_id 'b') is malformed: "
                                   "True"),
        ({"doc_sizes": [2, 0]}, "doc_sizes[1] (doc_id 'b') is malformed: 0"),
        ({"doc_sizes": [1, 2]}, "doc_sizes sum to 3, not to the 2 "
                                "paragraphs"),
        ({"doc_ids": ["a", "a"]}, "doc_ids[1] is not above doc_ids[0]: 'a' "
                                  "after 'a'"),
        ({"doc_ids": ["b", "a"]}, "doc_ids[1] is not above doc_ids[0]: 'a' "
                                  "after 'b'"),
        ({"doc_ids": ["a"], "doc_sizes": [2]}, "not in strictly ascending "
                                               "(doc_id, para_id) order at a#0"),
        ({"format_version": 2}, "rebuild the snapshot with `halqa index`"),
        ({"format_version": 3, "doc_sizes": None},
         "rebuild the snapshot with `halqa index`"),
        ({"texts": ["x", "\ud800y"]}, "texts[1] (doc_id 'b') is malformed: "
                                      "'\\ud800y'"),
        ({"doc_ids": ["a", "b\udfff"]}, "doc_ids[1] (doc_id 'b\\udfff') is "
                                        "malformed: 'b\\udfff'"),
    ], ids=["unequal-lengths", "missing-field", "not-a-list", "bool-para-id",
            "int-doc-id", "bool-count", "zero-count", "empty-terms",
            "missing-doc-sizes", "doc-sizes-not-a-list", "doc-sizes-length",
            "bool-doc-size", "zero-doc-size", "doc-sizes-sum", "duplicate",
            "out-of-order", "paragraph-out-of-order", "version-2",
            "version-3", "surrogate-text", "surrogate-doc-id"])
    def test_refusal_names_the_fault(self, change, message, tmp_path):
        path = tmp_path / "index.json"
        payload = {k: v for k, v in {**self.TWO, **change}.items()
                   if v is not None}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as refused:
            load_index(path)
        assert str(refused.value).startswith(f"{path}: ")
        assert message in str(refused.value)

    def test_huge_doc_size_is_refused_before_expanding(self, tmp_path,
                                                       monkeypatch):
        # Repeating the doc id 10**9 times would take gigabytes; the sum
        # check refuses the size before any doc id is repeated.
        monkeypatch.setattr(retrieval, "repeat",
                            lambda *args: pytest.fail("doc ids expanded"))
        path = tmp_path / "index.json"
        path.write_text(json.dumps({**self.TWO, "doc_sizes": [1, 10**9]}),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="doc_sizes sum to 1000000001, "
                                             "not to the 2 paragraphs"):
            load_index(path)

    def test_paragraphs_of_a_document_share_its_doc_id(self, lexicons,
                                                        stemmer, tmp_path):
        built = build_index_from_dir(CORPUS_DIR, lexicons, stemmer)
        path = tmp_path / "index.json"
        save_index(built, path)
        loaded = load_index(path)
        assert loaded == built
        for idx in (built, loaded):
            for start, end in pairwise(idx.document_starts):
                first = idx.doc_ids[start]
                assert all(d is first for d in idx.doc_ids[start:end])
            assert len({*map(id, idx.doc_ids)}) == idx.n_documents < \
                idx.n_paragraphs

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "format 4 stores each paragraph's terms beside its text and loads "
        "them unchecked; ROADMAP item 6 refuses such a snapshot, item 15 "
        "derives the terms at load"))
    def test_terms_that_disagree_with_the_text_do_not_load(
            self, lexicons, stemmer, tmp_path):
        idx = build_index_from_dir(CORPUS_DIR, lexicons, stemmer)
        path = tmp_path / "index.json"
        save_index(idx, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        # Valid JSON, every type right: one root renamed, its count kept.
        terms = payload["terms"][0]
        terms["محمدب"] = terms.pop("محمد")
        path.write_text(json.dumps(payload, ensure_ascii=False),
                        encoding="utf-8")
        try:
            loaded = load_index(path)
        except ValueError:
            return
        assert loaded.terms == idx.terms
