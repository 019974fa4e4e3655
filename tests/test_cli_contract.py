"""Generated inputs for the command line. Whatever the question, corpus
file, snapshot, config file or question file, every command ends in exit 0,
1 or 2 and raises nothing but SystemExit; exit 1 is ask's malformed
question alone. Every file is written under a temporary directory."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from halqa.cli import main
from halqa.config import Config, default_data_path
from halqa.text_core import read_rows

from conftest import CORPUS_DIR

RUNNER = CliRunner()

# Words the pipeline reads: question particles, negations, verb governors,
# the article, prepositions, the special verbs and corpus words.
WORDS = ["هل", "ليس", "لم", "لن", "قد", "ال", "الذي", "التي", "في", "من",
         "ب", "بالشجاعة", "يوصف", "محمد", "ولد", "جميل", "عمر", "طويل",
         "فتح", "محمود", "الباب", "نادية", "كسرت", "الزجاج", "؟", "?", "."]
STOPWORDS = [w for _, w in read_rows(default_data_path("stopwords.txt"))]
# Lone surrogates (what Python makes of argument bytes that are not UTF-8),
# NUL, a byte order mark, a direction mark and whitespace.
ODD = ["\udcff", "\ud800", "\x00", "\ufeff", "\u200f", "\r", "\t", "\n"]

_piece = (st.sampled_from(WORDS + ODD)
          | st.text(st.characters(exclude_categories=()), max_size=4))
questions = st.tuples(st.sampled_from(["هل ", "", "أهل "]),
                      st.lists(_piece, max_size=8).map(" ".join),
                      st.sampled_from([" ؟", "?", ""])).map("".join)

_fragment = (st.sampled_from([w.encode() for w in WORDS + STOPWORDS[:20]]
                             + [b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf",
                                b" ", b"\n", b"\n\n", b"\r", b"!!", b"..."])
             | st.binary(max_size=8))
corpus_files = st.lists(_fragment, max_size=12).map(b"".join)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=10)
_SNAPSHOT_KEYS = ["format_version", "doc_ids", "para_ids", "texts", "terms"]


def check(args):
    """Run the CLI and assert the exit-code contract; return the result."""
    result = RUNNER.invoke(main, args)
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), \
        repr(result.exception)
    assert result.exit_code in (0, 1, 2), result.output
    if result.exit_code == 1:
        assert args[0] == "ask", result.output
        assert result.output.startswith("malformed question:"), result.output
    return result


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """The bytes of the fixture corpus's snapshot."""
    out = tmp_path_factory.mktemp("snapshot") / "index.json"
    assert check(["index", "--corpus", str(CORPUS_DIR),
                  "--out", str(out)]).exit_code == 0
    return out.read_bytes()


@settings(max_examples=150, deadline=None)
@given(question=questions,
       flags=st.lists(st.sampled_from([
           ["--verbose"], ["--json"], ["--technique", "document"],
           ["--thesaurus", "off"], ["--advanced", "off"], ["--k", "1"]]),
           max_size=3))
@example(question="هل محمد\udcff جميل ؟", flags=[])
@example(question="هل خالد ال بنت ؟", flags=[])
def test_ask_any_question(question, flags):
    check(["ask", "--corpus", str(CORPUS_DIR),
           *[f for flag in flags for f in flag], question])


@settings(max_examples=100, deadline=None)
@given(content=corpus_files, with_good=st.booleans(), question=questions)
@example(content=b"\xff\xfe", with_good=True, question="هل محمد جميل ؟")
@example(content="محمد\x00 جميل".encode(), with_good=False,
         question="هل محمد جميل ؟")
@example(content="؟!.، ...".encode(), with_good=False,
         question="هل محمد جميل ؟")
@example(content=" ".join(STOPWORDS).encode(), with_good=False,
         question="هل محمد جميل ؟")
@example(content="ال".encode(), with_good=False, question="هل ال جميل ؟")
def test_index_and_ask_any_corpus_file(content, with_good, question):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        (corpus / "x.txt").write_bytes(content)
        if with_good:
            (corpus / "d.txt").write_text("محمد ولد جميل.\n", encoding="utf-8")
        check(["index", "--corpus", str(corpus),
               "--out", str(Path(tmp) / "index.json")])
        check(["ask", "--corpus", str(corpus), question])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["mutated", "nested", "json"]))
def test_ask_any_snapshot(snapshot, data, kind):
    if kind == "mutated":
        content = bytearray(snapshot)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(content) - 1))
            content[at:at + 1] = data.draw(st.binary(max_size=2))
        content = bytes(content)
    elif kind == "nested":
        depth = data.draw(st.integers(1, 5000))
        opener = data.draw(st.sampled_from(["[", '{"a":', '{"terms":[']))
        content = (opener * depth).encode()
    else:  # any JSON value, or an object with the snapshot's keys
        value = data.draw(_json | st.dictionaries(
            st.sampled_from(_SNAPSHOT_KEYS), _json, max_size=5))
        content = json.dumps(value).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.json"
        path.write_bytes(content)
        check(["ask", "--index", str(path), "هل محمد ولد جميل ؟"])


_CONFIG_KEYS = [f.name for f in dataclasses.fields(Config)]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
           st.sampled_from(_CONFIG_KEYS) | st.text(max_size=6),
           st.sampled_from(["on", "off", "0", "3", "-1", "document",
                            "paragraph", "corpus", "missing", ".", "x.cfg"])
           | st.text(max_size=8)), max_size=5),
       raw=st.binary(max_size=6))
def test_ask_any_config_file(rows, raw):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        (corpus / "d.txt").write_text("محمد ولد جميل.\n", encoding="utf-8")
        cfg = Path(tmp) / "x.cfg"
        cfg.write_bytes("".join(f"{key} = {value}\n" for key, value in rows)
                        .encode(errors="surrogatepass") + raw)
        check(["ask", "--config", str(cfg), "هل محمد ولد جميل ؟"])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(questions, st.sampled_from(
           ["yes", "no", "YES", "maybe", "", "yes\tno"])), max_size=4),
       raw=st.binary(max_size=6),
       sweep=st.none() | st.sampled_from(["1", "1,2", "0", "a", ""])
       | st.text("0123456789,-", max_size=6),
       all_questions=st.booleans())
def test_eval_any_question_file(rows, raw, sweep, all_questions):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        (corpus / "d.txt").write_text("محمد ولد جميل.\n", encoding="utf-8")
        (corpus / "e.txt").write_text("ليس عمر طويلا.\n", encoding="utf-8")
        path = Path(tmp) / "q.tsv"
        path.write_bytes("".join(f"{q}\t{gold}\n" for q, gold in rows)
                         .encode(errors="surrogatepass") + raw)
        flags = [] if sweep is None else ["--sweep", sweep]
        if all_questions:
            flags.append("--sweep-all-questions")
        check(["eval", "--corpus", str(corpus), *flags, str(path)])
