from collections import Counter

import pytest

from halqa.answer_selection import (Answer, match_and_rank,
                                    prepare_sentences, resolve_polarity,
                                    select_answer)
from halqa.question_analysis import Provenance, SentenceKind, LogicalRep
from halqa.retrieval import Paragraph

from conftest import analyze


def para(text, doc_id="d", para_id=0):
    # Selection reads only the ids and the text; terms serve retrieval.
    return Paragraph(doc_id=doc_id, para_id=para_id, text=text,
                     terms=Counter())


def rep_of(head, relation_roots, remaining=(), negated=False,
           kind=SentenceKind.NOMINAL, provenance=Provenance.BASE):
    return LogicalRep(kind=kind, negated=negated, head=head,
                      relation_roots=frozenset(relation_roots),
                      remaining_roots=tuple(remaining),
                      provenance=provenance)


def select(paragraphs, repset, lexicons, stemmer, **options):
    prepared = [prepare_sentences(p, lexicons, stemmer) for p in paragraphs]
    return select_answer(prepared, repset, **options)


class TestPolarity:
    @pytest.mark.parametrize("rep_neg,ans_neg,expected", [
        (False, False, Answer.YES),
        (True, True, Answer.YES),
        (False, True, Answer.NO),
        (True, False, Answer.NO),
    ])
    def test_all_four_cases(self, rep_neg, ans_neg, expected):
        assert resolve_polarity(rep_neg, ans_neg) is expected


class TestSentencePreparation:
    def test_fields(self, lexicons, stemmer):
        sents = prepare_sentences(para("فتح محمود الباب. لم يغلق النافذة"),
                                  lexicons, stemmer)
        assert len(sents) == 2
        first = sents[0]
        assert not first.negated
        assert first.surface == ("فتح", "محمود", "باب")
        assert first.content_roots == ("فتح", "محمود", "باب")
        assert sents[1].sentence_index == 1
        assert sents[1].negated

    def test_head_filter(self, lexicons, stemmer):
        sents = prepare_sentences(para("محمد ولد جميل. الجو صاف. علي جميل"),
                                  lexicons, stemmer)
        rep = rep_of("محمد", {"جميل"})
        assert match_and_rank(sents[0], rep) is not None
        assert match_and_rank(sents[1], rep) is None
        assert match_and_rank(sents[2], rep) is None  # relation, no head

    def test_negation_detection(self, lexicons, stemmer):
        plain, negated = prepare_sentences(
            para("محمد ولد جميل. ليس محمد ولد جميل"), lexicons, stemmer)
        assert not plain.negated
        assert negated.negated


class TestMatchAndRank:
    def test_span_counts_head_and_terms(self, lexicons, stemmer):
        [s] = prepare_sentences(para("محمد ولد طويل جميل"), lexicons, stemmer)
        cand = match_and_rank(s, rep_of("محمد", {"جميل"}, ["ولد"]))
        assert cand is not None
        # positions: head 0, ولد 1, جميل 3
        assert cand.span_rank == 3

    def test_tight_sentence_has_smaller_span(self, lexicons, stemmer):
        [s] = prepare_sentences(para("محمد جميل"), lexicons, stemmer)
        cand = match_and_rank(s, rep_of("محمد", {"جميل"}))
        assert cand.span_rank == 1

    def test_missing_relation_root_fails(self, lexicons, stemmer):
        [s] = prepare_sentences(para("محمد ولد طويل"), lexicons, stemmer)
        assert match_and_rank(s, rep_of("محمد", {"جميل"}, ["ولد"])) is None

    def test_missing_remaining_root_fails(self, lexicons, stemmer):
        [s] = prepare_sentences(para("محمد جميل"), lexicons, stemmer)
        rep = rep_of("محمد", {"جميل"}, ["ولد"])
        assert match_and_rank(s, rep) is None

    def test_any_one_relation_root_suffices(self, lexicons, stemmer):
        [s] = prepare_sentences(para("سميرة حطمت النافذة"), lexicons, stemmer)
        cand = match_and_rank(s, rep_of("سميرة", {"كسر", "حطم"}, ["نافذ"]))
        assert cand is not None
        # positions: head 0, حطم 1, نافذ 2
        assert cand.span_rank == 2


class TestAdvancedSearch:
    # The head sits in the first sentence; the verb and object roots are
    # only reachable by looking one sentence back.
    PARAGRAPH = "قذف محمود الكرة باتجاه النافذة. فتحطمت"

    def rep(self):
        return rep_of("محمود", {"حطم"}, ["نافذ"], kind=SentenceKind.NOMINAL)

    def test_direct_matching_finds_nothing(self, lexicons, stemmer):
        sents = prepare_sentences(para(self.PARAGRAPH), lexicons, stemmer)
        for s in sents:
            assert match_and_rank(s, self.rep()) is None

    def test_lookback_accepts_second_sentence(self, lexicons, stemmer):
        sents = prepare_sentences(para(self.PARAGRAPH), lexicons, stemmer)
        found = [c for s, prev in zip(sents[1:], sents)
                 if (c := match_and_rank(s, self.rep(), prev)) is not None]
        assert len(found) == 1
        cand = found[0]
        assert cand.sentence.sentence_index == 1
        assert cand.via_advanced_search
        assert cand.span_rank == 0  # only فتحطمت matched in-sentence

    def test_requires_head_in_previous_sentence(self, lexicons, stemmer):
        sents = prepare_sentences(para("قذف احمد الكرة باتجاه النافذة. فتحطمت"),
                                  lexicons, stemmer)
        assert match_and_rank(sents[1], self.rep(), sents[0]) is None

    def test_requires_remaining_roots_somewhere(self, lexicons, stemmer):
        sents = prepare_sentences(para("قذف محمود الكرة. فتحطمت"),
                                  lexicons, stemmer)
        assert match_and_rank(sents[1], self.rep(), sents[0]) is None

    def test_skips_sentence_containing_head(self, lexicons, stemmer):
        sents = prepare_sentences(
            para("قذف محمود الكرة باتجاه النافذة. فحطم محمود النافذة"),
            lexicons, stemmer)
        assert match_and_rank(sents[1], self.rep(), sents[0]) is None


class TestSelectAnswer:
    def test_affirmative_yes(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        verdict = select([para("محمد ولد جميل")], rs,
                         lexicons, stemmer)
        assert verdict.answer is Answer.YES
        assert verdict.supporting.matched_rep.provenance is Provenance.BASE

    def test_antonym_no(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        verdict = select([para("محمد ولد قبيح")], rs,
                         lexicons, stemmer)
        assert verdict.answer is Answer.NO
        assert verdict.supporting.matched_rep.provenance is Provenance.ANTONYM

    def test_negated_sentence_no(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        verdict = select([para("ليس محمد ولد جميل")], rs,
                         lexicons, stemmer)
        assert verdict.answer is Answer.NO
        assert verdict.supporting.sentence.negated

    def test_antonym_of_negated_sentence_yes(self, lexicons, stemmer,
                                             thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        verdict = select([para("ليس محمد ولد قبيح")], rs,
                         lexicons, stemmer)
        assert verdict.answer is Answer.YES

    def test_unknown_without_candidates(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        verdict = select([para("الجو صاف اليوم")], rs,
                         lexicons, stemmer)
        assert verdict.answer is Answer.UNKNOWN
        assert verdict.supporting is None
        assert verdict.to_record() == {"answer": "unknown"}

    def test_minimum_span_wins(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد جميل ؟", lexicons, stemmer, thesaurus)
        text = "محمد ولد طويل جميل. محمد جميل"
        verdict = select([para(text)], rs, lexicons, stemmer)
        assert verdict.supporting.sentence.sentence_index == 1
        assert verdict.supporting.span_rank == 1

    def test_retrieval_order_breaks_span_ties(self, lexicons, stemmer,
                                              thesaurus):
        rs = analyze("هل محمد جميل ؟", lexicons, stemmer, thesaurus)
        paragraphs = [para("محمد جميل", "b"), para("محمد جميل", "a")]
        verdict = select(paragraphs, rs, lexicons, stemmer)
        assert verdict.supporting.sentence.doc_id == "b"

    def test_provenance_breaks_full_ties(self, lexicons, stemmer, thesaurus):
        # One sentence satisfying base and synonym with identical spans.
        rs = analyze("هل سميرة التي كسرت النافذة ؟",
                        lexicons, stemmer, thesaurus)
        verdict = select([para("سميرة كسرت وحطمت النافذة")],
                         rs, lexicons, stemmer)
        assert verdict.answer is Answer.YES
        assert verdict.supporting.matched_rep.provenance is Provenance.BASE
        assert len(verdict.trace) == 2

    def test_advanced_search_used_as_fallback(self, lexicons, stemmer,
                                              thesaurus):
        rs = analyze("هل محمود الذي حطم النافذة ؟",
                        lexicons, stemmer, thesaurus)
        verdict = select(
            [para("قذف محمود الكرة باتجاه النافذة. فتحطمت")],
            rs, lexicons, stemmer)
        assert verdict.answer is Answer.YES
        assert verdict.supporting.via_advanced_search

    def test_advanced_search_can_be_disabled(self, lexicons, stemmer,
                                             thesaurus):
        rs = analyze("هل محمود الذي حطم النافذة ؟",
                        lexicons, stemmer, thesaurus)
        verdict = select(
            [para("قذف محمود الكرة باتجاه النافذة. فتحطمت")],
            rs, lexicons, stemmer, use_advanced_search=False)
        assert verdict.answer is Answer.UNKNOWN

    def test_advanced_search_skipped_when_direct_hit_exists(self, lexicons,
                                                            stemmer,
                                                            thesaurus):
        rs = analyze("هل محمود الذي حطم النافذة ؟",
                        lexicons, stemmer, thesaurus)
        paragraphs = [
            para("قذف محمود الكرة باتجاه النافذة. فتحطمت"),
            para("حطم محمود النافذة", "e"),
        ]
        verdict = select(paragraphs, rs, lexicons, stemmer)
        assert not verdict.supporting.via_advanced_search
        assert verdict.supporting.sentence.doc_id == "e"
        assert all(not c.via_advanced_search for c in verdict.trace)

    def test_tighter_lookback_in_later_paragraph_wins(self, lexicons,
                                                      stemmer, thesaurus):
        rs = analyze("هل محمود الذي حطم النافذة ؟",
                        lexicons, stemmer, thesaurus)
        paragraphs = [
            para("قذف محمود الكرة باتجاه النافذة. فتحطمت الكرة النافذة", "a"),
            para("قذف محمود الكرة باتجاه النافذة. فتحطمت", "b"),
        ]
        verdict = select(paragraphs, rs, lexicons, stemmer)
        assert [(c.sentence.doc_id, c.span_rank, c.via_advanced_search)
                for c in verdict.trace] == [("b", 0, True), ("a", 2, True)]
        assert verdict.supporting.sentence.doc_id == "b"
        assert verdict.answer is Answer.YES

    def test_deterministic(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        paragraphs = [para("محمد ولد جميل. ليس محمد ولد جميل")]
        first = select(paragraphs, rs, lexicons, stemmer)
        second = select(paragraphs, rs, lexicons, stemmer)
        assert first.to_record() == second.to_record()
        assert first.trace == second.trace

    def test_trace_is_span_sorted(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد جميل ؟", lexicons, stemmer, thesaurus)
        verdict = select(
            [para("محمد ولد طويل جميل. محمد جميل")],
            rs, lexicons, stemmer)
        spans = [c.span_rank for c in verdict.trace]
        assert spans == sorted(spans)
