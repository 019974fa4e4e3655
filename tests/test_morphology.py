import random

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from halqa.cli import main
from halqa.errors import EmptyWord, LexiconParseError, ThesaurusConflict
from halqa.morphology import (_ARTICLE_PREFIX, _MIN_STEM, _PREFIXES, _SUFFIXES,
                              LightStemmer, PosTag, Thesaurus, load_thesaurus)
from halqa.text_core import normalize, read_rows, words

from conftest import CORPUS_DIR, QUESTIONS

ARABIC_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"

# Hand-built word -> root table for the bare stripping rules (no
# overrides). A few show the light stemmer's known over-stripping of
# single-letter prefixes (فنانة, الفواكه, كبيرة), which also cuts the first
# letter off names (فرنسا, المانيا after its article) and the ك of كتاب
# after و and ال; they are asserted as-is so a rule change is a conscious
# decision.
RULE_TABLE = [
    ("كسرت", "كسر"), ("كسر", "كسر"), ("وبالباب", "باب"), ("الباب", "باب"),
    ("باب", "باب"), ("حطمت", "حطم"), ("تحطمت", "حطم"), ("فتحطمت", "حطم"),
    ("النافذة", "نافذ"), ("سميرة", "سمير"), ("محمود", "محمود"),
    ("محمد", "محمد"), ("جميل", "جميل"), ("قبيح", "قبيح"),
    ("المدرسة", "مدرس"), ("الامتحان", "امتح"), ("عمان", "عمان"),
    ("يفتح", "فتح"), ("يسافر", "سافر"), ("تزداد", "زداد"),
    ("الاماكن", "اماكن"), ("السياحية", "سياح"), ("الاردن", "اردن"),
    ("الطائرة", "طائر"), ("لوحات", "لوح"), ("كبيرة", "بير"),
    ("صغيرة", "صغير"), ("طويلة", "طويل"), ("قصيرة", "قصير"),
    ("مهندس", "مهندس"), ("مشهور", "مشهور"), ("المستشفى", "مستشفى"),
    ("معلمة", "معلم"), ("نشيطة", "نشيط"), ("موهوبة", "موهوب"),
    ("فنانة", "نان"), ("الزجاج", "زجاج"), ("بالشجاعة", "شجاع"),
    ("الجامعة", "جامع"), ("الرياضيات", "رياض"), ("السلة", "سلة"),
    ("كرة", "كرة"), ("ينجح", "نجح"), ("سريعة", "سريع"),
    ("البطولة", "طول"), ("حزين", "حزين"), ("غني", "غني"), ("ذكي", "ذكي"),
    ("قوي", "قوي"), ("الفواكه", "واك"), ("ليلى", "يلى"), ("ولد", "ولد"),
    ("فرنسا", "رنسا"), ("المانيا", "مانيا"), ("والكتاب", "تاب"),
]


def reference_stem(word, overrides=None):
    """The stemmer's rules as a scan of each affix list in order, restarted
    after every strip: the reference the set-lookup stemmer must match."""
    if word in (overrides or {}):
        return overrides[word]

    def strip(word, affixes, suffix):
        changed = True
        while changed:
            changed = False
            for affix in affixes:
                if len(word) - len(affix) < _MIN_STEM:
                    continue
                if suffix and word.endswith(affix):
                    word = word[:-len(affix)]
                    changed = True
                    break
                if not suffix and word.startswith(affix):
                    word = word[len(affix):]
                    changed = True
                    break
        return word

    while True:
        before = word
        word = strip(word, _ARTICLE_PREFIX, suffix=False)
        word = strip(word, _SUFFIXES, suffix=True)
        word = strip(word, _PREFIXES, suffix=False)
        if word == before:
            return word


@pytest.mark.parametrize("word,root", RULE_TABLE)
def test_rule_table(word, root):
    assert LightStemmer().stem(word) == root


def test_stem_empty_word():
    with pytest.raises(EmptyWord):
        LightStemmer().stem("")


def test_override_wins_over_rules():
    stemmer = LightStemmer(overrides={"اغلق": "غلق"})
    assert stemmer.stem("اغلق") == "غلق"


@pytest.mark.parametrize("affixes", [_SUFFIXES, _PREFIXES],
                         ids=["suffixes", "prefixes"])
def test_affix_lists_run_longest_first(affixes):
    # reference_stem takes the first affix that fits, so the longest match
    # wins only while each list is in non-increasing length order.
    lengths = [len(a) for a in affixes]
    assert lengths == sorted(lengths, reverse=True)


# Words of 1-12 pieces, each a letter or an affix, so that most words
# carry affixes (ة among them, which ARABIC_LETTERS lacks).
AFFIXED_WORDS = st.lists(
    st.sampled_from(sorted({*ARABIC_LETTERS, *_SUFFIXES, *_PREFIXES})),
    min_size=1, max_size=12).map("".join)


@given(st.text(alphabet=ARABIC_LETTERS, min_size=1, max_size=12) | AFFIXED_WORDS)
def test_stem_matches_reference(word):
    assert LightStemmer().stem(word) == reference_stem(word)


def test_stem_matches_reference_large_sample():
    rng = random.Random(20261020)
    stemmer = LightStemmer()
    for _ in range(20_000):
        word = "".join(rng.choices(ARABIC_LETTERS, k=rng.randint(1, 12)))
        assert stemmer.stem(word) == reference_stem(word), word


def test_stem_matches_reference_on_fixture_words(stemmer, thesaurus):
    vocabulary = set(stemmer.overrides)
    for path in sorted(CORPUS_DIR.glob("*.txt")):
        vocabulary.update(words(normalize(path.read_text(encoding="utf-8"))))
    for _, row in read_rows(QUESTIONS):
        vocabulary.update(words(normalize(row.split("\t")[0])))
    for table in (thesaurus.synonyms, thesaurus.antonyms):
        vocabulary.update(table)
        vocabulary.update(*table.values())
    assert len(vocabulary) > 100
    for word in vocabulary:
        assert stemmer.stem(word) == reference_stem(word, stemmer.overrides)
        assert LightStemmer().stem(word) == reference_stem(word), word


@pytest.mark.parametrize("word,root", RULE_TABLE)
def test_stem_idempotent_on_table(word, root):
    stemmer = LightStemmer()
    assert stemmer.stem(root) == root


@given(st.text(alphabet=ARABIC_LETTERS, min_size=1, max_size=10))
def test_stem_idempotent_random(word):
    stemmer = LightStemmer()
    once = stemmer.stem(word)
    assert stemmer.stem(once) == once


def test_stem_idempotent_large_sample():
    rng = random.Random(20240819)
    stemmer = LightStemmer()
    for _ in range(1000):
        word = "".join(rng.choices(ARABIC_LETTERS, k=rng.randint(1, 9)))
        once = stemmer.stem(word)
        assert stemmer.stem(once) == once


@given(st.text(alphabet=ARABIC_LETTERS, min_size=1, max_size=10))
def test_stem_respects_minimum_length(word):
    stem = LightStemmer().stem(word)
    assert len(stem) >= min(3, len(word))
    assert stem


def test_stem_idempotent_over_thesaurus_vocabulary(thesaurus, stemmer):
    vocabulary = set(thesaurus.synonyms) | set(thesaurus.antonyms)
    for targets in list(thesaurus.synonyms.values()) + list(thesaurus.antonyms.values()):
        vocabulary |= targets
    assert vocabulary
    for word in vocabulary:
        once = stemmer.stem(word)
        assert stemmer.stem(once) == once


class TestTagging:
    def test_article_means_noun(self):
        assert LightStemmer().tag("الباب") is PosTag.NOUN
        # NOUN is also the default: only a verb governor before the word
        # shows that the article outranks it.
        assert LightStemmer().tag("الباب", preceding="لم") is PosTag.NOUN

    def test_verb_governor(self):
        assert LightStemmer().tag("يفتح", preceding="لم") is PosTag.VERB

    def test_override(self):
        stemmer = LightStemmer(tag_overrides={"فتح": PosTag.VERB})
        assert stemmer.tag("فتح") is PosTag.VERB

    def test_default_noun(self):
        assert LightStemmer().tag("محمد") is PosTag.NOUN

    def test_deterministic(self):
        stemmer = LightStemmer()
        for word, prec in [("يفتح", "لم"), ("كتاب", None), ("الدار", "في")]:
            assert stemmer.tag(word, prec) is stemmer.tag(word, prec)


def test_override_file_parsing(tmp_path):
    path = tmp_path / "overrides.tsv"
    path.write_text("أغلق\tغلق\tVERB\nكتاب\tكتب\n", encoding="utf-8")
    stemmer = LightStemmer.from_file(path)
    # Alef-normalized key on load
    assert stemmer.stem("اغلق") == "غلق"
    assert stemmer.tag("اغلق") is PosTag.VERB
    assert stemmer.stem("كتاب") == "كتب"


@pytest.mark.parametrize("rows, line", [
    ("كلمة\n", 1),
    ("جميل\t\tNOUN\n", 1),
    ("كتاب\tكتب\nجميل\tـــ\n", 2),
    ("ـ\tكتب\n", 1),
    ("كلمة اخرى\tكلم\n", 1),
    ("كلمة\tكلم اخر\tNOUN\n", 1),
    ("كلمة\tكلم\tADJ\n", 1),
    ("كتاب\tكتب\nكتاب\tكتاب\n", 2),
], ids=["one-column", "empty-root", "root-empty-after-normalize",
        "word-empty-after-normalize", "space-in-word", "space-in-root",
        "unknown-tag", "word-given-twice"])
def test_override_file_rejects_bad_rows(tmp_path, rows, line):
    path = tmp_path / "overrides.tsv"
    path.write_text(rows, encoding="utf-8")
    with pytest.raises(LexiconParseError) as err:
        LightStemmer.from_file(path)
    assert (err.value.path, err.value.line) == (path, line)
    assert str(err.value).startswith(f"{path}:{line}: ")

    cfg = tmp_path / "halqa.conf"
    cfg.write_text(f"corpus_dir = {CORPUS_DIR}\nstem_overrides = {path}\n",
                   encoding="utf-8")
    result = CliRunner().invoke(main, ["ask", "--config", str(cfg),
                                       "هل محمد ولد جميل ؟"])
    assert result.exit_code == 2, result.output
    assert f"error: {path}:{line}: " in result.output
    assert isinstance(result.exception, SystemExit)


class TestThesaurus:
    def test_basic_lookup(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("جميل\tant\tقبيح\n", encoding="utf-8")
        t = load_thesaurus(path)
        assert t.antonyms.get("جميل") == {"قبيح"}
        assert t.synonyms.get("جميل") is None
        assert t.synonyms.get("غائب") is None

    def test_duplicate_keys_merge(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("كلمة\tsyn\tاولى\nكلمة\tsyn\tثانية ثالثة\n",
                        encoding="utf-8")
        t = load_thesaurus(path)
        assert t.synonyms.get("كلمة") == {"اولى", "ثانية", "ثالثة"}

    def test_normalized_on_load(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("فتح\tant\tأغلق\n", encoding="utf-8")
        assert load_thesaurus(path).antonyms.get("فتح") == {"اغلق"}

    def test_conflict_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("كلمة\tsyn\tاخرى\nكلمة\tant\tاخرى\n", encoding="utf-8")
        with pytest.raises(ThesaurusConflict):
            load_thesaurus(path)

    @pytest.mark.parametrize("row", [
        "خطأ هنا",
        "ـ\tsyn\tجميل",
        "جميل\tsyn\tـ",
        "كلمة اخرى\tsyn\tجميل",
    ], ids=["one-column", "key-empty-after-normalize",
            "target-empty-after-normalize", "space-in-key"])
    def test_parse_error_carries_line(self, tmp_path, row):
        path = tmp_path / "t.tsv"
        path.write_text(f"جميل\tant\tقبيح\n{row}\n", encoding="utf-8")
        with pytest.raises(LexiconParseError) as err:
            load_thesaurus(path)
        assert (err.value.path, err.value.line) == (path, 2)
        assert str(err.value).startswith(f"{path}:2: ")

        cfg = tmp_path / "halqa.conf"
        cfg.write_text(f"corpus_dir = {CORPUS_DIR}\nthesaurus = {path}\n",
                       encoding="utf-8")
        result = CliRunner().invoke(main, ["ask", "--config", str(cfg),
                                           "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2, result.output
        assert f"error: {path}:2: " in result.output
        assert isinstance(result.exception, SystemExit)

    def test_round_trip(self, thesaurus, tmp_path):
        path = tmp_path / "round.tsv"
        rows = [f"{w}\tsyn\t{' '.join(sorted(t))}"
                for w, t in sorted(thesaurus.synonyms.items())]
        rows += [f"{w}\tant\t{' '.join(sorted(t))}"
                 for w, t in sorted(thesaurus.antonyms.items())]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        again = load_thesaurus(path)
        assert again.synonyms == thesaurus.synonyms
        assert again.antonyms == thesaurus.antonyms
