import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from halqa.errors import MalformedQuestion
from halqa.evaluation import load_questions
from halqa.morphology import PosTag, Thesaurus
from halqa.pipeline import Engine
from halqa.question_analysis import (ParsedQuestion, Provenance, SentenceKind,
                                     StemmedThesaurus, _relation_candidates,
                                     parse_question, retrieval_term_multiset)
from halqa.text_core import INTERROGATIVE, normalize, strip_article, words

from conftest import CORPUS_DIR, QUESTIONS, analyze


def by_provenance(repset):
    return {r.provenance: r for r in repset.reps}


class TestParsing:
    def test_nominal_with_adjective_comment(self, lexicons, stemmer):
        q = parse_question("هل محمد ولد جميل ؟", lexicons, stemmer)
        assert q.kind is SentenceKind.NOMINAL
        assert q.head == "محمد"
        assert q.relation == "جميل"
        assert q.remaining == ("ولد",)
        assert not q.negated

    def test_verbal(self, lexicons, stemmer):
        q = parse_question("هل فتح محمود الباب ؟", lexicons, stemmer)
        assert q.kind is SentenceKind.VERBAL
        assert q.head == "محمود"
        assert q.relation == "فتح"
        assert q.remaining == ("باب",)

    def test_relative_pronoun_vanishes(self, lexicons, stemmer):
        q = parse_question("هل سميرة التي كسرت النافذة ؟", lexicons, stemmer)
        assert q.kind is SentenceKind.NOMINAL
        assert q.head == "سميرة"
        assert q.relation == "كسرت"
        assert q.remaining == ("نافذة",)

    def test_negated_verbal(self, lexicons, stemmer):
        q = parse_question("هل لم يفتح محمود الباب ؟", lexicons, stemmer)
        assert q.kind is SentenceKind.VERBAL
        assert q.negated
        assert q.relation == "يفتح"

    def test_particle_among_content_words_negates(self, lexicons, stemmer):
        q = parse_question("هل محمد ليس ولد ما جميل ؟", lexicons, stemmer)
        assert q == dataclasses.replace(
            parse_question("هل محمد ولد جميل ؟", lexicons, stemmer),
            negated=True)

    def test_two_particles_negate_once(self, lexicons, stemmer):
        # The particle next to يفتح makes it a verb; both are dropped.
        q = parse_question("هل لا لم يفتح محمود الباب ؟", lexicons, stemmer)
        assert q == ParsedQuestion(kind=SentenceKind.VERBAL, head="محمود",
                                   relation="يفتح", remaining=("باب",),
                                   negated=True)

    @pytest.mark.parametrize("question, kind, remaining", [
        ("هل محمد ولد محمد جميل ؟", SentenceKind.NOMINAL, ("ولد", "محمد")),
        ("هل فتح محمود محمود الباب ؟", SentenceKind.VERBAL, ("محمود", "باب")),
    ])
    def test_repeated_head_word_keeps_its_other_copy(
            self, question, kind, remaining, lexicons, stemmer):
        q = parse_question(question, lexicons, stemmer)
        assert (q.kind, q.remaining) == (kind, remaining)

    MALFORMED = {
        # no interrogative particle
        "جميل الجو": "question must start with هل",
        # wrong particle
        "كيف حالك ؟": "question must start with هل",
        # stopwords only
        "هل في من ؟": "question has no content words",
        # negation particles only
        "هل لا لم ليس ؟": "question has no content words",
        # nominal without an article-free comment
        "هل الباب الكبير ؟":
            "nominal question has no article-free comment noun",
        # verbal without a subject noun
        "هل فتح ؟": "verbal question has no subject noun",
        # a bare article as a word
        "هل خالد ال بنت ؟": "question has a bare article (ال) as a word",
        # a lone surrogate: an argument byte that is not UTF-8
        "هل محمد\udcff جميل ؟": "question is not UTF-8",
    }

    @pytest.mark.parametrize("question", list(MALFORMED))
    def test_malformed(self, question, lexicons, stemmer):
        message = re.escape(self.MALFORMED[question])
        with pytest.raises(MalformedQuestion, match=f"^{message}$"):
            parse_question(question, lexicons, stemmer)

    def test_deterministic(self, lexicons, stemmer):
        a = parse_question("هل محمد ولد جميل ؟", lexicons, stemmer)
        b = parse_question("هل محمد ولد جميل ؟", lexicons, stemmer)
        assert a == b

    def test_head_is_article_stripped(self, lexicons, stemmer):
        q = parse_question("هل تكثر الاماكن السياحية في الاردن ؟",
                           lexicons, stemmer)
        assert q.head == "اماكن"
        assert not q.head.startswith("ال")


class TestSpecialVerbs:
    def test_description_verb_rewrites(self, lexicons, stemmer):
        q = parse_question("هل يوصف كريم بالشجاعة في الملعب ؟",
                           lexicons, stemmer)
        assert q.relation == stemmer.stem("الشجاعة")
        assert "بالشجاعة" not in q.remaining
        assert q.remaining == ("ملعب",)

    def test_every_copy_of_the_ba_word_leaves(self, lexicons, stemmer):
        q = parse_question("هل يتميز الملعب بالعشب بالعشب في عمان ؟",
                           lexicons, stemmer)
        assert (q.relation, q.remaining) == (stemmer.stem("عشب"), ("عمان",))

    @pytest.mark.parametrize("question", [
        "هل يوصف كريم بالشجاعة في الملعب ؟",
        "هل لا يوصف محمد بالكرم ؟",
        "هل يتميز الملعب بالعشب بالعشب في عمان ؟",
        "هل يشتهر عمر بالكرم و بالشجاعة بالكرم ؟",
    ])
    def test_rewrite_equals_the_reference(self, lexicons, stemmer, question):
        parsed = token_parse(question, lexicons, stemmer)
        rewritten = special_verb_rewrite(parsed, stemmer)
        assert rewritten != parsed
        assert parse_question(question, lexicons, stemmer) == rewritten

    def test_regular_verb_untouched(self, lexicons, stemmer):
        question = "هل فتح محمود الباب ؟"
        assert parse_question(question, lexicons, stemmer) == \
            token_parse(question, lexicons, stemmer)

    def test_trigger_without_ba_word_untouched(self, lexicons, stemmer):
        question = "هل يشتهر عمر في عمان ؟"
        assert parse_question(question, lexicons, stemmer) == \
            token_parse(question, lexicons, stemmer)


class TestPaperGoldens:
    """The four worked examples, checked structurally against the printed
    forms with the bundled thesaurus pairs."""

    def test_first_example(self, lexicons, stemmer, thesaurus):
        reps = by_provenance(analyze("هل سميرة التي كسرت النافذة ؟",
                                     lexicons, stemmer, thesaurus))
        assert set(reps) == {Provenance.BASE, Provenance.SYNONYM}
        base, syn = reps[Provenance.BASE], reps[Provenance.SYNONYM]
        for rep in (base, syn):
            assert rep.kind is SentenceKind.NOMINAL
            assert rep.head == "سميرة"
            assert rep.remaining_roots == (stemmer.stem("نافذة"),)
            assert not rep.negated
        assert base.relation_roots == {stemmer.stem("كسرت")}
        assert syn.relation_roots == {stemmer.stem("حطمت")}

    def test_second_example(self, lexicons, stemmer, thesaurus):
        reps = by_provenance(analyze("هل محمد ولد جميل ؟",
                                     lexicons, stemmer, thesaurus))
        assert set(reps) == {Provenance.BASE, Provenance.ANTONYM}
        base, ant = reps[Provenance.BASE], reps[Provenance.ANTONYM]
        assert base.head == ant.head == "محمد"
        assert base.relation_roots == {stemmer.stem("جميل")}
        assert not base.negated
        assert ant.relation_roots == {stemmer.stem("قبيح")}
        assert ant.negated
        assert base.remaining_roots == (stemmer.stem("ولد"),)

    def test_third_example(self, lexicons, stemmer, thesaurus):
        reps = by_provenance(analyze("هل فتح محمود الباب ؟",
                                     lexicons, stemmer, thesaurus))
        assert set(reps) == {Provenance.BASE, Provenance.ANTONYM}
        base, ant = reps[Provenance.BASE], reps[Provenance.ANTONYM]
        for rep in (base, ant):
            assert rep.kind is SentenceKind.VERBAL
            assert rep.head == "محمود"
            assert rep.remaining_roots == (stemmer.stem("باب"),)
        assert base.relation_roots == {stemmer.stem("فتح")}
        assert not base.negated
        assert ant.relation_roots == {stemmer.stem("اغلق")}
        assert ant.negated

    def test_fourth_example(self, lexicons, stemmer, thesaurus):
        reps = by_provenance(analyze("هل تكثر الأماكن السياحية في الأردن ؟",
                                     lexicons, stemmer, thesaurus))
        assert set(reps) == {Provenance.BASE, Provenance.SYNONYM,
                             Provenance.ANTONYM}
        for rep in reps.values():
            assert rep.kind is SentenceKind.VERBAL
            assert rep.head == "اماكن"
            assert rep.remaining_roots == (stemmer.stem("سياحية"),
                                           stemmer.stem("اردن"))
        assert reps[Provenance.BASE].relation_roots == {stemmer.stem("تكثر")}
        assert reps[Provenance.SYNONYM].relation_roots == {stemmer.stem("تزداد")}
        assert reps[Provenance.ANTONYM].relation_roots == {stemmer.stem("تقل")}
        assert reps[Provenance.ANTONYM].negated
        assert not reps[Provenance.SYNONYM].negated


class TestRepSetInvariants:
    # 2 kinds x 2 polarities, each expanding to base/synonym/antonym with
    # the bundled thesaurus: the full 12-form catalogue.
    QUESTIONS = [
        "هل تكثر الاماكن السياحية في الاردن ؟",      # V affirmative
        "هل لا تكثر الاماكن السياحية في الاردن ؟",   # ~V
        "هل سميرة التي كسرت النافذة ؟",              # N affirmative
        "هل ليس محمد ولد جميل ؟",                    # ~N
    ]

    @pytest.mark.parametrize("question", QUESTIONS)
    def test_polarity_algebra(self, question, lexicons, stemmer, thesaurus):
        rs = analyze(question, lexicons, stemmer, thesaurus)
        assert 1 <= len(rs.reps) <= 3
        assert sum(r.provenance is Provenance.BASE for r in rs.reps) == 1
        for rep in rs.reps:
            expected = rs.source.negated != (rep.provenance is Provenance.ANTONYM)
            assert rep.negated == expected
            assert rep.relation_roots

    def test_twelve_forms(self, lexicons, stemmer, thesaurus):
        affirmative = analyze(self.QUESTIONS[0], lexicons, stemmer, thesaurus)
        negated = analyze(self.QUESTIONS[1], lexicons, stemmer, thesaurus)
        assert len(affirmative.reps) == 3 and len(negated.reps) == 3
        flags = {(r.provenance, r.negated)
                 for r in affirmative.reps + negated.reps}
        assert flags == {
            (Provenance.BASE, False), (Provenance.SYNONYM, False),
            (Provenance.ANTONYM, True), (Provenance.BASE, True),
            (Provenance.SYNONYM, True), (Provenance.ANTONYM, False),
        }

    def test_reps_are_made_base_synonym_antonym(self, lexicons, stemmer,
                                                thesaurus):
        # Answer selection breaks its last ties by this order.
        rs = analyze("هل تكثر الأماكن السياحية في الأردن ؟",
                     lexicons, stemmer, thesaurus)
        assert [r.provenance for r in rs.reps] == [
            Provenance.BASE, Provenance.SYNONYM, Provenance.ANTONYM]

    def test_thesaurus_disabled(self, lexicons, stemmer):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, Thesaurus())
        assert [r.provenance for r in rs.reps] == [Provenance.BASE]

    def test_roots_are_stem_idempotent(self, lexicons, stemmer, thesaurus):
        for question in self.QUESTIONS:
            for rep in analyze(question, lexicons, stemmer, thesaurus).reps:
                for root in list(rep.relation_roots) + list(rep.remaining_roots):
                    assert stemmer.stem(root) == root


class TestRetrievalTerms:
    def test_second_example_terms(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل محمد ولد جميل ؟", lexicons, stemmer, thesaurus)
        assert retrieval_term_multiset(rs, stemmer) == [
            stemmer.stem("محمد"), stemmer.stem("جميل"), stemmer.stem("ولد")]

    def test_deduplicated(self, lexicons, stemmer, thesaurus):
        # A repeated root stays in the multiset; the query counts it once
        # with its frequency.
        rs = analyze("هل جميل ولد جميل ؟", lexicons, stemmer, thesaurus)
        assert Counter(retrieval_term_multiset(rs, stemmer)) == Counter(
            {stemmer.stem("جميل"): 2, stemmer.stem("ولد"): 1})

    def test_synonym_roots_excluded(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل سميرة التي كسرت النافذة ؟", lexicons, stemmer,
                     thesaurus)
        assert stemmer.stem("حطمت") not in retrieval_term_multiset(rs, stemmer)

    def test_empty_remaining(self, lexicons, stemmer, thesaurus):
        rs = analyze("هل نجح يوسف ؟", lexicons, stemmer, thesaurus)
        assert retrieval_term_multiset(rs, stemmer) == [
            stemmer.stem("يوسف"), stemmer.stem("نجح")]


def scanned_candidates(relation, stemmer, thesaurus_map):
    """Relation lookup by a scan of the raw map that stems every key:
    the surface form, then the root as a key, then every key sharing the
    root; first hit wins."""
    root = stemmer.stem(relation)
    hits = (thesaurus_map.get(relation) or thesaurus_map.get(root)
            or set().union(*(targets for key, targets in thesaurus_map.items()
                             if stemmer.stem(key) == root)))
    return frozenset(map(stemmer.stem, hits))


class TestRelationLookup:
    def test_matches_a_scan_of_the_raw_thesaurus(self, stemmer, thesaurus):
        shared = {"كسرت": frozenset({"حطمت"}), "الكسر": frozenset({"هشم"}),
                  "جميل": frozenset({"حسن"}), "جميلة": frozenset({"رائع"})}
        fixture = StemmedThesaurus.build(thesaurus, stemmer)
        merged = StemmedThesaurus.build(
            Thesaurus(synonyms=shared, antonyms={}), stemmer)
        # The root كسر is no key: both keys with that root merge.
        assert _relation_candidates("يكسر", "كسر", merged.synonyms) == \
            {"حطم", "هشم"}
        # The root جميل is a key, which wins over جميلة, a key sharing it.
        assert _relation_candidates("الجميل", "جميل", merged.synonyms) == \
            {"حسن"}
        cases = [(thesaurus.synonyms, fixture.synonyms),
                 (thesaurus.antonyms, fixture.antonyms),
                 (shared, merged.synonyms)]
        words = {"يكسر", "الجميل", *FIXTURE_WORDS}
        for raw, _ in cases:
            words |= set(raw).union(*raw.values())
        for raw, maps in cases:
            for word in words:
                assert _relation_candidates(word, stemmer.stem(word), maps) \
                    == scanned_candidates(word, stemmer, raw), word

    def test_analysis_stems_do_not_grow_with_the_thesaurus(
            self, config, tmp_path, monkeypatch):
        # 200 keys that no question's relation shares a root with.
        padded = tmp_path / "thesaurus.tsv"
        padded.write_text(
            config.thesaurus.read_text(encoding="utf-8")
            + "".join(f"w{i}\tsyn\tv{i}\n" for i in range(200)),
            encoding="utf-8")
        questions = [q for q, _ in load_questions(QUESTIONS)]
        per_thesaurus = []
        for path in (config.thesaurus, padded):
            engine = Engine(dataclasses.replace(config, thesaurus=path))
            calls = []
            stem = engine.stemmer.stem
            monkeypatch.setattr(engine.stemmer, "stem",
                                lambda word: calls.append(word) or stem(word))
            counts = []
            for question in questions:
                calls.clear()
                engine.analyze(question)
                counts.append(len(calls))
                # at most once for each word after هل, and once more for
                # the root of a ب-word that replaces a special verb
                assert len(calls) <= len(question.split()) - 1, question
            per_thesaurus.append(counts)
        assert per_thesaurus[0] == per_thesaurus[1]


FIXTURE_WORDS = sorted(
    {w for path in [*CORPUS_DIR.glob("*.txt"), QUESTIONS]
     for w in words(normalize(path.read_text(encoding="utf-8")))})
PARTICLES = ["ال", "ب", "و", "لا", "لم", "ليس", "هل"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(FIXTURE_WORDS),
                          st.sampled_from(PARTICLES)), max_size=6))
def test_any_question_is_answered_or_malformed(engine, words):
    try:
        engine.answer(" ".join(["هل", *words, "؟"]))
    except MalformedQuestion:
        pass


@dataclasses.dataclass(frozen=True)
class Token:
    surface: str
    position: int


def token_parse(raw, lexicons, tagger):
    """parse_question, up to its special-verb rewrite, as it was written
    over Token(surface, position)s, with a stopword pass and a negation
    pass that kept positions."""
    tokens = [Token(s, i) for i, s in enumerate(words(normalize(raw)))]
    if not tokens or tokens[0].surface != INTERROGATIVE:
        raise MalformedQuestion("question must start with هل")
    content = [t for t in tokens[1:] if t.surface not in lexicons.stopwords]
    negated, content_no_neg = False, []
    for t in content:
        if t.surface in lexicons.negation_particles:
            negated = True
        else:
            content_no_neg.append(t)
    if not content_no_neg:
        raise MalformedQuestion("question has no content words")
    if any(not strip_article(t.surface, lexicons) for t in content_no_neg):
        raise MalformedQuestion("question has a bare article (ال) as a word")
    preceding = {t.position: p.surface
                 for p, t in zip(content, content[1:])}

    def is_noun(t):
        return tagger.tag(t.surface, preceding.get(t.position)) is PosTag.NOUN

    first, *rest = content_no_neg
    nouns = [t for t in rest if is_noun(t)]
    if not is_noun(first):
        if not nouns:
            raise MalformedQuestion("verbal question has no subject noun")
        kind, head, relation = SentenceKind.VERBAL, nouns[0], first
    else:
        kind, head = SentenceKind.NOMINAL, first
        relation = next((t for t in reversed(nouns)
                         if strip_article(t.surface, lexicons) == t.surface),
                        None)
        if relation is None:
            raise MalformedQuestion(
                "nominal question has no article-free comment noun")
    return ParsedQuestion(
        kind=kind,
        head=strip_article(head.surface, lexicons),
        relation=relation.surface,
        remaining=tuple(strip_article(t.surface, lexicons)
                        for t in rest if t not in (head, relation)),
        negated=negated,
    )


def special_verb_rewrite(q, stemmer):
    """The special-verb rewrite as it was written over a finished parse:
    a وصف/شهر/ميز verb is replaced by the root of the first ب-word in
    remaining, and every copy of that word is dropped."""
    if q.kind is not SentenceKind.VERBAL:
        return q
    if stemmer.stem(q.relation) not in {"وصف", "شهر", "ميز"}:
        return q
    for word in q.remaining:
        if word.startswith("ب") and len(word) > 1:
            rest = tuple(w for w in q.remaining if w != word)
            return dataclasses.replace(
                q, relation=stemmer.stem(word[1:]), remaining=rest)
    return q


def rewritten_token_parse(raw, lexicons, stemmer):
    return special_verb_rewrite(token_parse(raw, lexicons, stemmer), stemmer)


def parse_or_message(parse, question, lexicons, stemmer):
    try:
        return parse(question, lexicons, stemmer)
    except MalformedQuestion as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parse_equals_the_token_parse(lexicons, stemmer, data):
    pool = sorted({*FIXTURE_WORDS, *lexicons.stopwords,
                   *lexicons.negation_particles, *lexicons.article_exceptions,
                   *stemmer.overrides, "ال", INTERROGATIVE})
    particles = [*sorted(lexicons.negation_particles), "قد", "سوف", "ال",
                 INTERROGATIVE]
    question = " ".join(data.draw(st.lists(
        st.one_of(st.sampled_from(pool), st.sampled_from(particles)),
        max_size=6)))
    if data.draw(st.booleans()):
        question = f"{INTERROGATIVE} {question} ؟"
    assert parse_or_message(parse_question, question, lexicons, stemmer) == \
        parse_or_message(rewritten_token_parse, question, lexicons, stemmer)
