import dataclasses
import sys
from collections import Counter

import pytest

from halqa import pipeline
from halqa.answer_selection import prepare_sentences
from halqa.evaluation import load_questions
from halqa.morphology import LightStemmer
from halqa.pipeline import Engine
from halqa.retrieval import Paragraph, build_index, load_index, save_index

from conftest import QUESTIONS


class TestSentenceMemo:
    QUESTION = "هل محمد ولد جميل ؟"

    @pytest.mark.parametrize("replace", ["set_index", "load_index"])
    def test_new_index_drops_prepared_sentences(self, config, tmp_path,
                                                replace):
        # Same (doc_id, para_id) in both indexes, different text.
        engine = Engine(config)
        engine.set_index(build_index([("a", "محمد ولد جميل")],
                                     engine.lexicons, engine.stemmer))
        assert engine.answer(self.QUESTION).verdict.answer.value == "yes"
        second = build_index([("a", "ليس محمد ولد جميل")],
                             engine.lexicons, engine.stemmer)
        if replace == "set_index":
            engine.set_index(second)
        else:
            save_index(second, tmp_path / "second.json")
            engine.load_index(tmp_path / "second.json")
        verdict = engine.answer(self.QUESTION).verdict
        assert verdict.answer.value == "no"
        assert verdict.supporting.sentence.text == "ليس محمد ولد جميل"

    def test_index_keeps_the_prepared_sentences(self, config):
        engine = Engine(config)
        assert engine.index.sentences == {}
        retrieved = engine.answer(self.QUESTION).retrieved
        assert engine.index.sentences == {
            (c.doc_id, c.para_id): prepare_sentences(
                c, engine.lexicons, engine.stemmer)
            for c in retrieved}
        engine.set_index(build_index([("a", "محمد ولد جميل")],
                                     engine.lexicons, engine.stemmer))
        assert engine.index.sentences == {}

    def test_warm_round_prepares_nothing(self, config, monkeypatch):
        stem_callers = Counter()
        prepared = []

        class CountingStemmer(LightStemmer):
            def stem(self, word):
                stem_callers[sys._getframe(1).f_globals["__name__"]] += 1
                return super().stem(word)

        original_prepare = pipeline.prepare_sentences

        def counting_prepare(paragraph, lexicons, stemmer):
            prepared.append((paragraph.doc_id, paragraph.para_id))
            return original_prepare(paragraph, lexicons, stemmer)

        monkeypatch.setattr(pipeline, "prepare_sentences", counting_prepare)
        engine = Engine(config)
        engine.stemmer = CountingStemmer(engine.stemmer.overrides,
                                         engine.stemmer.tag_overrides)
        questions = [q for q, _ in load_questions(QUESTIONS)]
        rounds, calls = [], []
        for _ in range(2):
            stem_callers.clear()
            prepared.clear()
            rounds.append([engine.answer(q).verdict for q in questions])
            calls.append((len(prepared), set(stem_callers)))
        assert calls[0][0] > 0 and "halqa.answer_selection" in calls[0][1]
        assert calls[1] == (0, {"halqa.question_analysis"})
        first, second = rounds
        assert [v.to_record() for v in second] == \
            [v.to_record() for v in first]
        assert [v.trace for v in second] == [v.trace for v in first]


@pytest.mark.parametrize("technique", ["paragraph", "document"])
def test_retrieved_are_the_index_paragraphs(config, technique):
    # Retrieval hands answer selection the index's own Paragraphs, each
    # carrying its score: no wrapper comes between.
    engine = Engine(dataclasses.replace(config, technique=technique))
    positions = {key: i for i, key in enumerate(
        zip(engine.index.doc_ids, engine.index.para_ids))}
    for question, _ in load_questions(QUESTIONS):
        retrieved = engine.answer(question).retrieved
        assert retrieved
        for c in retrieved:
            assert type(c) is Paragraph
            assert c == engine.index.paragraph(
                positions[c.doc_id, c.para_id], c.score)


def test_paragraph_technique_builds_no_document(config, tmp_path):
    # A document's terms are summed on the first document-technique
    # question: loading a snapshot and answering with the paragraph
    # technique never sums them.
    engine = Engine(config)
    save_index(engine.index, tmp_path / "index.json")
    engine.load_index(tmp_path / "index.json")
    for question, _ in load_questions(QUESTIONS):
        engine.answer(question)
    assert "document_terms" not in vars(engine.index)


def test_counting_documents_derives_only_their_starts(engine, tmp_path):
    save_index(engine.index, tmp_path / "index.json")
    idx = load_index(tmp_path / "index.json")
    assert idx.n_documents == 13
    derived = set(vars(idx)) - {f.name for f in dataclasses.fields(idx)}
    assert derived == {"document_starts"}
