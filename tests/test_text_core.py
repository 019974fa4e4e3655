import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from halqa.errors import LexiconParseError
from halqa.text_core import (_DIACRITICS, _PUNCT, _SPACES, Lexicons,
                             normalize, read_rows,
                             remove_stopwords, split_paragraphs,
                             split_sentences, strip_article, tokenize, words)

ARABIC = st.text(alphabet="اأإآبتثجحخدذرزسشصضطظعغفقكلمنهوية ؟.لم", max_size=40)

ISSPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# Every whitespace character, each listed punctuation mark and the dashes
# of _PUNCT's range, the harakat, tatweel, the Alef forms and letters.
WORD_CHAIN = st.text(alphabet=sorted(
    {*ISSPACE, *_PUNCT, *map(chr, range(0x2010, 0x2016)),
     *map(chr, range(0x064B, 0x0653)), "\u0670", "ـ",
     *"اأإآبتثجحخدذرزسشصضطظعغفقكلمنهويةى"}), max_size=60)


def regex_normalize(s):
    """normalize as a regex substitution, the definition it replaced."""
    return re.sub("[آأإ]", "ا", s).replace("ـ", "")


def regex_words(s):
    """words with \\s for whitespace, the definition it replaced."""
    return re.findall(rf"[^\s{_PUNCT}{_DIACRITICS}]+", s)


def test_spaces_are_the_characters_isspace_accepts():
    # Fails when a Unicode update changes str.isspace, and so \s, instead
    # of leaving words to drift from it.
    assert sorted(_SPACES) == ISSPACE


def test_word_chain_equals_the_regex_definitions_on_every_code_point():
    # Each code point on its own between spaces: a word, or no word.
    spaced = " ".join(map(chr, range(sys.maxunicode + 1)))
    assert normalize(spaced) == regex_normalize(spaced)
    assert words(spaced) == regex_words(spaced)


@given(WORD_CHAIN)
def test_word_chain_equals_the_regex_definitions(s):
    assert normalize(s) == regex_normalize(s)
    assert words(s) == regex_words(s)
    assert words(normalize(s)) == regex_words(regex_normalize(s))


@pytest.mark.parametrize("raw,expected", [
    ("أحمد", "احمد"),
    ("إلى الآن", "الى الان"),
    ("محمد", "محمد"),
])
def test_normalize_alef(raw, expected):
    assert normalize(raw) == expected


def test_normalize_strips_tatweel():
    assert normalize("كـتـاب") == "كتاب"


@given(st.text(max_size=60))
def test_normalize_idempotent(s):
    once = normalize(s)
    assert normalize(once) == once
    assert not set(once) & set("أإآ")


def test_tokenize_paper_question():
    tokens = tokenize("هل فتح محمود الباب ؟")
    assert [(t.surface, t.position) for t in tokens] == [
        ("هل", 0), ("فتح", 1), ("محمود", 2), ("الباب", 3)]


def test_tokenize_empty_and_punctuation():
    assert tokenize("") == []
    assert [t.surface for t in tokenize("كتاب.")] == ["كتاب"]


@given(ARABIC)
def test_tokens_never_contain_punctuation_or_whitespace(s):
    for t in tokenize(normalize(s)):
        assert t.surface
        assert not set(t.surface) & set("؟?. \t\n")


def test_remove_stopwords_keeps_positions():
    lex = Lexicons(stopwords=frozenset({"في"}))
    kept = remove_stopwords(tokenize("في الاردن"), lex)
    assert [(t.surface, t.position) for t in kept] == [("الاردن", 1)]
    assert remove_stopwords([], lex) == []


def test_remove_stopwords_identity_without_hits():
    lex = Lexicons(stopwords=frozenset({"في"}))
    tokens = tokenize("فتح محمود الباب")
    assert remove_stopwords(tokens, lex) == tokens


@pytest.mark.parametrize("word,exceptions,expected", [
    ("الباب", frozenset(), "باب"),
    ("الله", frozenset({"الله"}), "الله"),
    ("باب", frozenset(), "باب"),
])
def test_strip_article(word, exceptions, expected):
    lex = Lexicons(article_exceptions=exceptions)
    assert strip_article(word, lex) == expected


@pytest.mark.parametrize("doc,expected", [
    ("A\n\nB", ["A", "B"]),
    ("A\nB", ["A\nB"]),
    ("A\n\n\n\nB", ["A", "B"]),
])
def test_split_paragraphs(doc, expected):
    assert split_paragraphs(doc) == expected


@given(st.lists(st.text(alphabet="ابجد ", min_size=1).map(str.strip)
                .filter(bool), max_size=6))
def test_split_paragraphs_round_trip(paras):
    joined = "\n\n".join(paras)
    once = split_paragraphs(joined)
    assert split_paragraphs("\n\n".join(once)) == once


def test_split_sentences():
    assert len(split_sentences("فتح محمود الباب. اغلق النافذة")) == 2
    assert split_sentences("جملة واحدة") == ["جملة واحدة"]
    assert split_sentences("") == []


def test_split_sentences_arabic_terminators():
    assert len(split_sentences("ا؟ ب! ج؛ د.")) == 4


def test_lexicons_reject_overlap():
    with pytest.raises(LexiconParseError):
        Lexicons(stopwords=frozenset({"ما"}),
                 negation_particles=frozenset({"ما"}))


def test_wordlist_loading(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# comment\nأحمد\n\nفي # inline\n", encoding="utf-8")
    from halqa.text_core import load_wordlist
    assert load_wordlist(path) == {"احمد", "في"}


def text_mode_rows(path):
    """read_rows through a text-mode read, the definition it replaced."""
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8-sig").splitlines(), 1):
        if row := line.split("#", 1)[0].strip():
            yield lineno, row


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.sampled_from(
    ["\ufeff", "\r", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", " ",
     "\t", "#", "ا", "ب"]), max_size=30).map("".join))
def test_rows_are_those_of_a_text_mode_read(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("rows") / "rows.txt"
    path.write_bytes(text.encode())
    assert list(read_rows(path)) == list(text_mode_rows(path))


@pytest.mark.parametrize("before, line", [
    (b"", 1), (b"x", 1), (b"x\n", 2), (b"x\n\n# c\n", 4), (b"x\r\ny\r\n", 3),
    (b"x\ry", 2), ("x\u2028".encode(), 2), (b"\xef\xbb\xbfx\ny", 2)])
def test_undecodable_byte_is_named_with_its_line(tmp_path, before, line):
    path = tmp_path / "rows.txt"
    path.write_bytes(before + b"\xff\n")
    with pytest.raises(LexiconParseError) as refused:
        list(read_rows(path))
    assert refused.value.line == line
    assert str(refused.value).startswith(f"{path}:{line}: not UTF-8: ")
