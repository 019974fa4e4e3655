"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line. Run with ``pytest tests/test_acceptance.py -v``.
"""

import dataclasses
import json
import random
import time
from collections import Counter

import pytest
from click.testing import CliRunner

from halqa.answer_selection import (Answer, match_and_rank, prepare_sentences,
                                    resolve_polarity)
from halqa.cli import main as cli_main
from halqa.config import Config
from halqa.evaluation import evaluate, load_questions
from halqa.pipeline import Engine
from halqa.question_analysis import Provenance, SentenceKind, LogicalRep
from halqa.retrieval import (Paragraph, build_index, document_scores,
                             paragraph_scores)

from conftest import (CORPUS_DIR, QUESTIONS, analyze, documents_of,
                      index_of)
from test_retrieval import (oracle_document_score, oracle_passage_score,
                            oracle_stats, random_corpus, random_query)


def report(number: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_polarity_table():
    table = {
        (False, False): Answer.YES,  # affirmative question, affirmative answer
        (True, True): Answer.YES,    # both negated
        (False, True): Answer.NO,    # affirmative question, negated answer
        (True, False): Answer.NO,    # negated question, affirmative answer
    }
    ok = all(resolve_polarity(q, a) is expected
             for (q, a), expected in table.items())
    report(1, "polarity resolution table (exhaustive)", ok)


def test_criterion_2_representation_goldens(lexicons, stemmer, thesaurus):
    start = time.perf_counter()

    def reps(question):
        return {r.provenance: r
                for r in analyze(question, lexicons, stemmer, thesaurus).reps}

    ok = True

    got = reps("هل سميرة التي كسرت النافذة ؟")
    ok &= set(got) == {Provenance.BASE, Provenance.SYNONYM}
    ok &= all(r.kind is SentenceKind.NOMINAL and r.head == "سميرة"
              and r.remaining_roots == ("نافذ",) and not r.negated
              for r in got.values())
    ok &= got[Provenance.BASE].relation_roots == {"كسر"}
    ok &= got[Provenance.SYNONYM].relation_roots == {"حطم"}

    got = reps("هل محمد ولد جميل ؟")
    ok &= set(got) == {Provenance.BASE, Provenance.ANTONYM}
    ok &= all(r.kind is SentenceKind.NOMINAL and r.head == "محمد"
              and r.remaining_roots == ("ولد",) for r in got.values())
    ok &= got[Provenance.BASE].relation_roots == {"جميل"}
    ok &= not got[Provenance.BASE].negated
    ok &= got[Provenance.ANTONYM].relation_roots == {"قبيح"}
    ok &= got[Provenance.ANTONYM].negated

    got = reps("هل فتح محمود الباب ؟")
    ok &= set(got) == {Provenance.BASE, Provenance.ANTONYM}
    ok &= all(r.kind is SentenceKind.VERBAL and r.head == "محمود"
              and r.remaining_roots == ("باب",) for r in got.values())
    ok &= got[Provenance.BASE].relation_roots == {"فتح"}
    ok &= not got[Provenance.BASE].negated
    ok &= got[Provenance.ANTONYM].relation_roots == {"غلق"}
    ok &= got[Provenance.ANTONYM].negated

    got = reps("هل تكثر الأماكن السياحية في الأردن ؟")
    ok &= set(got) == {Provenance.BASE, Provenance.SYNONYM, Provenance.ANTONYM}
    ok &= all(r.kind is SentenceKind.VERBAL and r.head == "اماكن"
              and r.remaining_roots == ("سياح", "اردن")
              for r in got.values())
    ok &= got[Provenance.BASE].relation_roots == {"كثر"}
    ok &= got[Provenance.SYNONYM].relation_roots == {"زداد"}
    ok &= got[Provenance.ANTONYM].relation_roots == {"قلل"}
    ok &= got[Provenance.ANTONYM].negated
    ok &= not got[Provenance.SYNONYM].negated

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(2, f"four representation goldens ({elapsed:.3f}s)", ok)


def test_criterion_3_formula_oracles(lexicons, stemmer):
    start = time.perf_counter()
    rng = random.Random(20240824)
    ok = True
    for _ in range(100):
        corpus = random_corpus(rng)
        idx = build_index(corpus, lexicons, stemmer)
        q = random_query(rng)
        para_counts, doc_counts, df_p, df_d = oracle_stats(corpus)
        scores = paragraph_scores(idx, q)
        for i, p in enumerate(idx.paragraphs):
            expected = oracle_passage_score(
                para_counts[(p.doc_id, p.para_id)], q, len(para_counts), df_p)
            ok &= abs(scores.get(i, 0.0) - expected) <= 1e-9
        scores = document_scores(idx, q)
        for i, d in enumerate(documents_of(idx)):
            expected = oracle_document_score(
                doc_counts[d.doc_id], q, len(doc_counts), df_d)
            ok &= abs(scores.get(i, 0.0) - expected) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(3, f"similarity formulas vs brute-force oracle, 100 corpora "
              f"({elapsed:.2f}s)", ok)


def test_criterion_4_spot_checks():
    # Passage: 4 paragraphs, term in 2, tf=3 over 10 terms, 1-term query.
    def index(*paragraphs):
        return index_of(
            Paragraph(doc_id=d, para_id=i, text="", terms=Counter(terms))
            for d, i, terms in paragraphs)

    idx = index(("a", 0, {"x": 3, "y": 7}), ("a", 1, {"x": 1}),
                ("b", 0, {"y": 2}), ("b", 1, {"z": 1}))
    q = Counter({"x": 1})
    ok = abs(paragraph_scores(idx, q)[0] - (-5.2877)) <= 1e-4

    # Document: 4 documents, term in 2, tf=3 at the document maximum.
    idx = index(("a", 0, {"x": 3}), ("b", 0, {"x": 1}),
                ("c", 0, {"y": 1}), ("d", 0, {"y": 1}))
    ok &= abs(document_scores(idx, q)[0] - 1.0) <= 1e-4
    report(4, "hand-computed passage (-5.2877) and document (1.0) "
              "spot checks", ok)


def test_criterion_5_lookback_fixture(lexicons, stemmer):
    rep = LogicalRep(kind=SentenceKind.NOMINAL, negated=False, head="محمود",
                     relation_roots=frozenset({"حطم"}),
                     remaining_roots=("نافذ",), provenance=Provenance.BASE)
    paragraph = Paragraph(doc_id="d", para_id=0, terms=Counter(),
                          text="قذف محمود الكرة باتجاه النافذة. فتحطمت")
    sentences = prepare_sentences(paragraph, lexicons, stemmer)
    direct = [c for s in sentences
              if (c := match_and_rank(s, rep)) is not None]
    lookback = [c for s, prev in zip(sentences[1:], sentences)
                if (c := match_and_rank(s, rep, prev)) is not None]
    ok = (not direct and len(lookback) == 1
          and lookback[0].sentence.sentence_index == 1
          and lookback[0].via_advanced_search)
    report(5, "preceding-sentence lookback finds the candidate direct "
              "matching misses", ok)


def _accuracy(config: Config) -> float:
    return float(evaluate(Engine(config), load_questions(QUESTIONS)).accuracy)


def test_criterion_6_fixture_accuracy():
    start = time.perf_counter()
    acc = _accuracy(Config(corpus_dir=CORPUS_DIR, technique="paragraph",
                           use_thesaurus=True, use_advanced_search=True))
    elapsed = time.perf_counter() - start
    ok = acc >= 0.85 and elapsed < 30.0
    report(6, f"end-to-end fixture accuracy {acc:.1%} >= 85% "
              f"({elapsed:.2f}s)", ok)


def test_criterion_7_configuration_orderings():
    base = Config(corpus_dir=CORPUS_DIR, technique="paragraph")
    full = _accuracy(base)
    no_advanced = _accuracy(dataclasses.replace(
        base, use_advanced_search=False))
    bare = _accuracy(dataclasses.replace(
        base, use_advanced_search=False, use_thesaurus=False))
    doc_full = _accuracy(dataclasses.replace(base, technique="document"))
    ok = full >= no_advanced >= bare and full >= doc_full
    report(7, f"orderings hold: full {full:.1%} >= no-lookback "
              f"{no_advanced:.1%} >= bare {bare:.1%}; paragraph {full:.1%} "
              f">= document {doc_full:.1%}", ok)


def test_criterion_8_determinism():
    runner = CliRunner()
    outputs = []
    for _ in range(2):
        result = runner.invoke(cli_main, ["eval", "--corpus", str(CORPUS_DIR),
                                          "--json", str(QUESTIONS)])
        assert result.exit_code == 0, result.output
        outputs.append(result.output.encode("utf-8"))
    ok = outputs[0] == outputs[1]
    report(8, "evaluation JSON output byte-identical across runs", ok)
