import json
import os
import re

import pytest
from click.testing import CliRunner

from halqa import evaluation
from halqa.cli import main
from halqa.config import Config, load_config
from halqa.errors import LexiconParseError
from halqa.evaluation import load_questions, sweep
from halqa.pipeline import Engine
from halqa.retrieval import INDEX_FORMAT_VERSION

from conftest import CORPUS_DIR, FIXTURES, QUESTIONS
from generate_questions import GENERATED, generated_tsv


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def small_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text(
        "محمد ولد جميل\n\nليس عمر ولد طويل\n", encoding="utf-8")
    (corpus / "d2.txt").write_text("فتح محمود الباب الكبير\n", encoding="utf-8")
    return corpus


class TestIndexCommand:
    def test_summary_and_snapshot(self, runner, small_corpus, tmp_path):
        out = tmp_path / "snap.json"
        result = runner.invoke(main, ["index", "--corpus", str(small_corpus),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "documents: 2" in result.output
        assert "paragraphs: 3" in result.output
        assert "vocabulary: 10" in result.output
        assert out.is_file()
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["format_version"] == INDEX_FORMAT_VERSION

    def test_default_snapshot_location(self, runner, small_corpus):
        result = runner.invoke(main, ["index", "--corpus", str(small_corpus)])
        assert result.exit_code == 0
        assert (small_corpus / "index.json").is_file()

    def test_empty_corpus_exits_2(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["index", "--corpus", str(empty)])
        assert result.exit_code == 2
        assert "error:" in result.output

    @pytest.mark.parametrize("where", ["out", "corpus"])
    def test_snapshot_path_not_utf_8_exits_2(self, runner, small_corpus,
                                             tmp_path, where):
        # The summary prints the snapshot path, so it is refused before the
        # build: either the --out name or the corpus directory of the
        # default <corpus>/index.json.
        args = ["index", "--corpus", str(small_corpus)]
        if where == "out":
            out = tmp_path / os.fsdecode(b"o_\xff.json")
            args += ["--out", str(out)]
        else:
            corpus = tmp_path / os.fsdecode(b"c_\xff")
            try:
                small_corpus.rename(corpus)
            except (OSError, UnicodeError):
                pytest.skip("the filesystem refuses a name that is not UTF-8")
            args[2], out = str(corpus), corpus / "index.json"
        before = sorted(out.parent.iterdir())
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == (f"error: snapshot path {os.fsencode(out)!r} "
                                 "is not UTF-8\n")
        assert isinstance(result.exception, SystemExit)
        assert sorted(out.parent.iterdir()) == before

    @pytest.mark.parametrize("out", ["nodir/x.json", "outdir"])
    def test_unwritable_snapshot_path_is_named(self, runner, small_corpus,
                                               tmp_path, out):
        # The error names the --out path, not the temporary file written
        # beside it, and the temporary file is removed.
        (tmp_path / "outdir").mkdir()
        out = tmp_path / out
        result = runner.invoke(main, ["index", "--corpus", str(small_corpus),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: [Errno ")
        assert result.output.endswith(f": '{out}'\n")
        assert ".tmp" not in result.output
        assert not list(tmp_path.rglob("*.tmp"))

    def test_rebuild_overwrites(self, runner, small_corpus, tmp_path):
        out = tmp_path / "snap.json"
        for _ in range(2):
            assert runner.invoke(main, ["index", "--corpus", str(small_corpus),
                                        "--out", str(out)]).exit_code == 0
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["format_version"] == INDEX_FORMAT_VERSION


class TestAskCommand:
    def test_yes(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "yes"
        assert "supporting:" in result.output

    def test_no_via_negated_sentence(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "هل عمر ولد طويل ؟"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "no"

    def test_unknown(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "هل سميرة بنت ذكية ؟"])
        assert result.exit_code == 0
        assert result.output.strip() == "unknown"

    def test_malformed_exits_1(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "متى فتح محمود الباب ؟"])
        assert result.exit_code == 1
        assert "malformed" in result.output

    def test_missing_corpus_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["ask", "--corpus",
                                      str(tmp_path / "nowhere"),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2

    def test_json_output(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "--json", "هل محمد ولد جميل ؟"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["answer"] == "yes"
        assert record["provenance"] == "base"
        assert record["doc_id"] == "d1"

    def test_json_verbose_includes_trace(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "--json", "--verbose",
                                      "هل محمد ولد جميل ؟"])
        record = json.loads(result.output)
        assert record["trace"]
        assert record["retrieved"]

    @pytest.mark.parametrize("question, record", [
        # found by the lookback search through a synonym
        ("هل نادية التي كسرت الزجاج ؟", {
            "answer": "yes", "answer_negated": False, "doc_id": "d11_nadia",
            "para_id": 0, "provenance": "synonym", "rep_negated": False,
            "retrieved": [
                {"doc_id": "d11_nadia", "para_id": 0,
                 "score": 511.0879249190717},
                {"doc_id": "d03_samira", "para_id": 0,
                 "score": 408.8703399352574},
                {"doc_id": "d11_nadia", "para_id": 1,
                 "score": 37.72546927930686},
                {"doc_id": "d01_muhammad", "para_id": 0, "score": 0.0},
                {"doc_id": "d01_muhammad", "para_id": 1, "score": 0.0}],
            "sentence": "فتحطمت", "sentence_index": 1, "span_rank": 0,
            "trace": [{"doc_id": "d11_nadia", "para_id": 0,
                       "provenance": "synonym", "sentence_index": 1,
                       "span_rank": 0, "via_advanced_search": True}],
            "via_advanced_search": True}),
        # a negated answer sentence
        ("هل نجح محمد في الامتحان ؟", {
            "answer": "no", "answer_negated": True,
            "doc_id": "d01_muhammad", "para_id": 1, "provenance": "base",
            "rep_negated": False,
            "retrieved": [
                {"doc_id": "d01_muhammad", "para_id": 1,
                 "score": 661.6353872353939},
                {"doc_id": "d01_muhammad", "para_id": 0,
                 "score": 64.49211570450748},
                {"doc_id": "d08_yousef", "para_id": 1,
                 "score": 64.49211570450748},
                {"doc_id": "d02_mahmoud", "para_id": 0, "score": 0.0},
                {"doc_id": "d02_mahmoud", "para_id": 1, "score": 0.0}],
            "sentence": "لم ينجح محمد في الامتحان", "sentence_index": 1,
            "span_rank": 2,
            "trace": [{"doc_id": "d01_muhammad", "para_id": 1,
                       "provenance": "base", "sentence_index": 1,
                       "span_rank": 2, "via_advanced_search": False}],
            "via_advanced_search": False}),
    ])
    def test_json_verbose_record(self, runner, question, record):
        result = runner.invoke(main, ["ask", "--corpus", str(CORPUS_DIR),
                                      "--json", "--verbose", question])
        assert result.exit_code == 0, result.output
        assert result.output == json.dumps(record, ensure_ascii=False,
                                           sort_keys=True) + "\n"

    def test_verbose_text(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "--verbose", "هل محمد ولد جميل ؟"])
        assert "parsed: kind=N head=محمد" in result.output
        assert "rep[base]:" in result.output

    def test_verbose_text_record(self, runner):
        result = runner.invoke(main, ["ask", "--corpus", str(CORPUS_DIR),
                                      "--verbose", "هل نادية التي كسرت الزجاج ؟"])
        assert result.exit_code == 0, result.output
        assert result.output == (
            "yes\n"
            "supporting: فتحطمت [d11_nadia#0]\n"
            "parsed: kind=N head=نادية relation=كسرت remaining=['زجاج'] "
            "negated=False\n"
            "rep[base]: N(نادية, ['كسر'], ['زجاج'])\n"
            "rep[synonym]: N(نادية, ['حطم'], ['زجاج'])\n"
            "paragraph d11_nadia#0: score=511.087925\n"
            "paragraph d03_samira#0: score=408.870340\n"
            "paragraph d11_nadia#1: score=37.725469\n"
            "paragraph d01_muhammad#0: score=0.000000\n"
            "paragraph d01_muhammad#1: score=0.000000\n"
            "candidate d11_nadia#0s1 [synonym] span=0 (advanced)\n")

    def test_ask_from_snapshot(self, runner, small_corpus, tmp_path):
        snap = tmp_path / "snap.json"
        assert runner.invoke(main, ["index", "--corpus", str(small_corpus),
                                    "--out", str(snap)]).exit_code == 0
        result = runner.invoke(main, ["ask", "--index", str(snap),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "yes"

    @pytest.mark.parametrize("content", [
        "nope",
        "\udcff",  # written as the byte 0xff: not UTF-8
        "[1, 2]",
        '{"format_version": 1, "paragraphs": []}',
        # version 2 kept one record per paragraph
        '{"format_version": 2, "paragraphs": [{"doc_id": "d1"}]}',
        "{not json",
        '{"format_version": %d, "doc_ids": ["d1"]}' % INDEX_FORMAT_VERSION,
        # version 3 kept one doc id per paragraph; refused for its version,
        # whatever else it holds
        '{"format_version": 3, "doc_ids": ["d1"]}',
        json.dumps({"format_version": 3, "doc_ids": ["d1"], "para_ids": [0],
                    "texts": ["محمد ولد جميل"],
                    "terms": [{"محمد": 1, "ولد": 1, "جميل": 1}]}),
        json.dumps({"format_version": 3, "doc_ids": ["d1", "d1"],
                    "para_ids": [0, 1], "texts": ["محمد ولد جميل"] * 2,
                    "terms": [{"محمد": 1, "ولد": 1, "جميل": 1}] * 2}),
        json.dumps({"format_version": 3, "doc_ids": ["d2", "d1"],
                    "para_ids": [0, 0],
                    "texts": ["فتح محمود الباب", "محمد ولد جميل"],
                    "terms": [{"فتح": 1, "محمود": 1, "باب": 1},
                              {"محمد": 1, "ولد": 1, "جميل": 1}]}),
        # a paragraph given twice, and documents in reverse order
        json.dumps({"format_version": INDEX_FORMAT_VERSION,
                    "doc_ids": ["d1"], "doc_sizes": [2], "para_ids": [0, 0],
                    "texts": ["محمد ولد جميل"] * 2,
                    "terms": [{"محمد": 1, "ولد": 1, "جميل": 1}] * 2}),
        json.dumps({"format_version": INDEX_FORMAT_VERSION,
                    "doc_ids": ["d2", "d1"], "doc_sizes": [1, 1],
                    "para_ids": [0, 0],
                    "texts": ["فتح محمود الباب", "محمد ولد جميل"],
                    "terms": [{"فتح": 1, "محمود": 1, "باب": 1},
                              {"محمد": 1, "ولد": 1, "جميل": 1}]}),
        # document sizes that do not sum to the paragraph count
        json.dumps({"format_version": INDEX_FORMAT_VERSION,
                    "doc_ids": ["d1"], "doc_sizes": [2], "para_ids": [0],
                    "texts": ["محمد ولد جميل"],
                    "terms": [{"محمد": 1, "ولد": 1, "جميل": 1}]}),
        # a bool is not a para_id or a count
        json.dumps({"format_version": INDEX_FORMAT_VERSION,
                    "doc_ids": ["d1"], "doc_sizes": [1], "para_ids": [True],
                    "texts": ["محمد ولد جميل"],
                    "terms": [{"محمد": 1, "ولد": 1, "جميل": 1}]}),
        json.dumps({"format_version": INDEX_FORMAT_VERSION,
                    "doc_ids": ["d1"], "doc_sizes": [1], "para_ids": [0],
                    "texts": ["محمد ولد جميل"],
                    "terms": [{"محمد": 1, "ولد": True, "جميل": 1}]}),
        # a lone surrogate, which loads but cannot be printed
        json.dumps({"format_version": INDEX_FORMAT_VERSION,
                    "doc_ids": ["d1"], "doc_sizes": [1], "para_ids": [0],
                    "texts": ["\ud800 محمد جميل."],
                    "terms": [{"محمد": 1, "جميل": 1}]}),
    ])
    def test_bad_snapshot_exits_2(self, runner, content, tmp_path):
        snap = tmp_path / "snap.json"
        snap.write_bytes(content.encode(errors="surrogateescape"))
        result = runner.invoke(main, ["ask", "--index", str(snap),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {snap}: ")
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        # Only a snapshot of another version is refused for its version.
        version = re.match(r'{"format_version": (\d+)', content)
        assert ("format version" in result.output) is (
            version is not None and int(version[1]) != INDEX_FORMAT_VERSION)

    def test_deeply_nested_snapshot_exits_2(self, runner, tmp_path):
        # Too deep for the JSON parser's recursion limit.
        snap = tmp_path / "snap.json"
        snap.write_text("[" * 5000, encoding="utf-8")
        result = runner.invoke(main, ["ask", "--index", str(snap),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2, result.output
        assert "nested too deeply" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_k_above_the_paragraph_count(self, runner):
        result = runner.invoke(main, ["ask", "--corpus", str(CORPUS_DIR),
                                      "--k", str(2**63), "هل محمد جميل ؟"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("flag", ["--k", "--k-docs"])
    def test_k_below_1_names_the_flag(self, runner, small_corpus, flag):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      flag, "0", "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}': 0 is not in the range" \
            in result.output
        assert isinstance(result.exception, SystemExit)

    def test_bom_corpus_answers_like_its_copy_without(self, runner, tmp_path):
        outputs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            corpus = tmp_path / name
            corpus.mkdir()
            (corpus / "d.txt").write_bytes(bom + "محمد ولد جميل.\n".encode())
            result = runner.invoke(main, ["ask", "--corpus", str(corpus),
                                          "--json", "هل محمد جميل ؟"])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[1] == outputs[0]
        assert json.loads(outputs[0])["answer"] == "yes"

    @pytest.mark.parametrize("bad", ["directory", "dangling-link",
                                     "invalid-utf8"])
    def test_unreadable_corpus_entry_exits_2(self, runner, small_corpus, bad):
        path = small_corpus / "x.txt"
        if bad == "directory":
            path.mkdir()
        elif bad == "dangling-link":
            path.symlink_to(small_corpus / "missing")
        else:
            path.write_bytes(b"\xff\xfe\x00\xc3")
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert "error:" in result.output
        assert str(path) in result.output
        assert isinstance(result.exception, SystemExit)

    def test_undecodable_corpus_file_is_named(self, runner, small_corpus):
        (small_corpus / "x.txt").write_bytes(b"\xff\xfe")
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert f"error: {small_corpus / 'x.txt'} is not UTF-8" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("flags", [[], ["--verbose"],
                                       ["--json", "--verbose"]])
    def test_question_not_utf_8_exits_1(self, runner, flags):
        # A lone surrogate: what Python makes of an argument byte that is
        # not UTF-8.
        result = runner.invoke(main, ["ask", "--corpus", str(CORPUS_DIR),
                                      *flags, "هل محمد\udcff جميل ؟"])
        assert result.exit_code == 1
        assert result.output == "malformed question: question is not UTF-8\n"
        assert isinstance(result.exception, SystemExit)

    def test_question_not_utf_8_is_evaluated_as_malformed(self, engine):
        report = evaluation.evaluate(engine, [("هل محمد\udcff جميل ؟", "yes")])
        assert [r.predicted for r in report.records] == ["malformed"]

    @pytest.mark.parametrize("command", [["index"],
                                         ["ask", "هل محمد ولد جميل ؟"]])
    def test_corpus_file_name_not_utf_8_exits_2(self, runner, tmp_path,
                                                command):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d1.txt").write_text("محمد ولد جميل\n", encoding="utf-8")
        bad = corpus / os.fsdecode(b"d_\xff.txt")
        try:
            bad.write_text("محمد ولد جميل\n", encoding="utf-8")
        except (OSError, UnicodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        result = runner.invoke(main, [command[0], "--corpus", str(corpus),
                                      *command[1:]])
        assert result.exit_code == 2
        assert result.output == (f"error: file name {os.fsencode(bad)!r} "
                                 "is not UTF-8\n")
        assert isinstance(result.exception, SystemExit)

    def test_bare_article_exits_1(self, runner):
        result = runner.invoke(main, ["ask", "--corpus", str(CORPUS_DIR),
                                      "هل خالد ال بنت ؟"])
        assert result.exit_code == 1
        assert "malformed" in result.output

    def test_technique_flag(self, runner, small_corpus):
        result = runner.invoke(main, ["ask", "--corpus", str(small_corpus),
                                      "--technique", "document", "--k-docs", "1",
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "yes"


class TestEvalCommand:
    def make_questions(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("هل محمد ولد جميل ؟\tyes\n"
                        "هل عمر ولد طويل ؟\tyes\n",  # actually no: wrong gold
                        encoding="utf-8")
        return path

    def test_accuracy_table(self, runner, small_corpus, tmp_path):
        # The line shows correct/total as counted, not a reduced fraction.
        questions = self.make_questions(tmp_path)
        with questions.open("a", encoding="utf-8") as fh:
            fh.write("هل فتح محمود الباب ؟\tyes\n"
                     "هل محمد ولد جميل ؟\tno\n")
        result = runner.invoke(main, ["eval", "--corpus", str(small_corpus),
                                      str(questions)])
        assert result.exit_code == 0, result.output
        assert "accuracy: 2/4 (50.0%)" in result.output

    def test_json_lines(self, runner, small_corpus, tmp_path):
        questions = self.make_questions(tmp_path)
        result = runner.invoke(main, ["eval", "--corpus", str(small_corpus),
                                      "--json", str(questions)])
        lines = [json.loads(l) for l in result.output.splitlines()]
        assert lines[0]["predicted"] == "yes" and lines[0]["correct"]
        assert lines[1]["predicted"] == "no" and not lines[1]["correct"]
        assert lines[2] == {"accuracy": 0.5, "correct": 1, "corpus_size": 2,
                            "total": 2}

    def test_sweep(self, runner, small_corpus, tmp_path):
        questions = self.make_questions(tmp_path)
        result = runner.invoke(main, ["eval", "--corpus", str(small_corpus),
                                      "--sweep", "1,2", "--sweep-all-questions",
                                      str(questions)])
        assert result.exit_code == 0, result.output
        assert "corpus size: 1 documents, 2 questions" in result.output
        assert "corpus size: 2 documents, 2 questions" in result.output

    @pytest.mark.parametrize("sizes, bad", [("-1", "-1"), ("5,-3", "-3"),
                                            ("0", "0")])
    def test_sweep_size_below_1_exits_2(self, runner, sizes, bad):
        result = runner.invoke(main, ["eval", "--corpus", str(CORPUS_DIR),
                                      "--sweep", sizes, str(QUESTIONS)])
        assert result.exit_code == 2
        assert f"sweep sizes must be at least 1, got {bad}" in result.output
        assert "corpus size" not in result.output

    @pytest.mark.parametrize("sizes", ["5,,3", "a", ""])
    def test_sweep_size_not_an_integer_exits_2(self, runner, sizes):
        result = runner.invoke(main, ["eval", "--corpus", str(CORPUS_DIR),
                                      "--sweep", sizes, str(QUESTIONS)])
        assert result.exit_code == 2
        assert ("sweep sizes must be comma-separated integers, "
                f"got '{sizes}'") in result.output
        assert "corpus size" not in result.output

    @pytest.mark.parametrize("corpus", [None, "empty"])
    def test_sweep_without_documents_exits_2(self, runner, tmp_path, corpus):
        flags, message = [], "no corpus directory configured"
        if corpus:
            flags, message = (["--corpus", str(tmp_path)],
                              f"no .txt files in {tmp_path}")
        result = runner.invoke(main, ["eval", *flags, "--sweep", "5",
                                      str(QUESTIONS)])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_sweep_builds_one_engine(self, monkeypatch):
        # The caller's engine serves every size: sweep builds none.
        engine = Engine(Config(corpus_dir=CORPUS_DIR))
        inits = []
        monkeypatch.setattr(evaluation.Engine, "__init__",
                            lambda engine, config: inits.append(config))
        reports = sweep(engine, load_questions(QUESTIONS), [5, 10, 13])
        assert inits == []
        assert [r.corpus_size for r in reports] == [5, 10, 13]

    def test_bad_gold_label_exits_2(self, runner, small_corpus, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("هل محمد ولد جميل ؟\tmaybe\n", encoding="utf-8")
        result = runner.invoke(main, ["eval", "--corpus", str(small_corpus),
                                      str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("golden, flags", [
        ("default.jsonl", []),
        ("technique_document.jsonl", ["--technique", "document"]),
        ("advanced_off_thesaurus_off.jsonl",
         ["--advanced", "off", "--thesaurus", "off"]),
        ("sweep_5_10_13.jsonl", ["--sweep", "5,10,13"]),
        ("generated_default.jsonl", []),
        ("generated_document.jsonl", ["--technique", "document"]),
    ])
    def test_fixture_eval_matches_golden(self, runner, golden, flags):
        # A change that keeps behaviour leaves these bytes as they are.
        # The generated questions' goldens also show a change of ranking.
        questions = GENERATED if golden.startswith("generated_") else QUESTIONS
        result = runner.invoke(main, ["eval", "--corpus", str(CORPUS_DIR),
                                      "--json", *flags, str(questions)])
        assert result.exit_code == 0, result.output
        assert result.output.encode("utf-8") == \
            (FIXTURES / "eval" / golden).read_bytes()

    def test_generated_questions_match_the_fixture(self):
        # Regenerated from the corpus, the file is the one checked in.
        assert generated_tsv() == GENERATED.read_text(encoding="utf-8")

    def test_fixture_suite_runs(self, runner):
        result = runner.invoke(main, ["eval", "--corpus", str(CORPUS_DIR),
                                      "--json", str(QUESTIONS)])
        assert result.exit_code == 0
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["total"] == 46


class TestConfigFile:
    def test_load_and_override(self, runner, small_corpus, tmp_path):
        cfg = tmp_path / "halqa.conf"
        cfg.write_text(f"corpus_dir = {small_corpus}\n"
                       "technique = document\n"
                       "k_paras = 3\n"
                       "thesaurus = off  # flag-style booleans\n"
                       .replace("thesaurus", "use_thesaurus"),
                       encoding="utf-8")
        loaded = load_config(cfg)
        assert loaded.technique == "document"
        assert loaded.k_paras == 3
        assert not loaded.use_thesaurus
        assert loaded.corpus_dir == small_corpus

        # flags win over the file
        result = runner.invoke(main, ["ask", "--config", str(cfg),
                                      "--technique", "paragraph",
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "yes"

    def test_relative_paths_resolve_against_config(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        cfg = tmp_path / "halqa.conf"
        cfg.write_text("corpus_dir = corpus\n", encoding="utf-8")
        assert load_config(cfg).corpus_dir == (tmp_path / "corpus").resolve()
        cfg.write_text("corpus_dir = .\n", encoding="utf-8")
        assert load_config(cfg).corpus_dir == tmp_path.resolve()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "halqa.conf"
        cfg.write_text("mystery = 1\n", encoding="utf-8")
        with pytest.raises(LexiconParseError):
            load_config(cfg)

    @pytest.mark.parametrize("row, message", [
        ("k_paras = x", "bad k_paras: invalid literal for int()"),
        ("technique = docs", "bad technique: unknown technique: docs"),
        ("k_docs = 0", "bad k_docs: k_paras and k_docs must be >= 1"),
        # An empty path would name the config file's own directory.
        ("corpus_dir =", "bad corpus_dir: empty path"),
        ("stopwords =", "bad stopwords: empty path"),
    ])
    def test_bad_value_names_file_and_line(self, runner, tmp_path, row,
                                           message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n{row}\n", encoding="utf-8")
        result = runner.invoke(main, ["ask", "--config", str(cfg),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert f"error: {cfg}:2: {message}" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_duplicate_key_names_file_and_line(self, runner, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("k_paras = 3\nk_paras = 4\n", encoding="utf-8")
        result = runner.invoke(main, ["ask", "--config", str(cfg),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert f"error: {cfg}:2: duplicate config key 'k_paras'" \
            in result.output
        assert isinstance(result.exception, SystemExit)

    def test_bom_config_loads(self, runner, small_corpus, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + f"k_paras = 3\n"
                        f"corpus_dir = {small_corpus}\n".encode())
        assert load_config(cfg).k_paras == 3
        result = runner.invoke(main, ["ask", "--config", str(cfg),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "yes"

    # A byte that is not UTF-8 on the second line, after a byte order mark.
    NOT_UTF_8 = b"\xef\xbb\xbf# first line\n\xff\xfe\n"

    @pytest.mark.parametrize("key", ["stopwords", "negation",
                                     "article_exceptions", "stem_overrides",
                                     "thesaurus"])
    def test_data_file_not_utf_8_is_named(self, runner, small_corpus,
                                          tmp_path, key):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.NOT_UTF_8)
        cfg = tmp_path / "halqa.cfg"
        cfg.write_text(f"{key} = {bad}\ncorpus_dir = {small_corpus}\n",
                       encoding="utf-8")
        # With expansion off the thesaurus is still read, and so checked.
        runs = [[], ["--thesaurus", "off"]] if key == "thesaurus" else [[]]
        for flags in runs:
            result = runner.invoke(main, ["ask", "--config", str(cfg), *flags,
                                          "هل محمد ولد جميل ؟"])
            assert result.exit_code == 2
            assert result.output.startswith(f"error: {bad}:2: not UTF-8: ")
            assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("key", ["stopwords", "negation",
                                     "article_exceptions", "thesaurus",
                                     "stem_overrides"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_data_file_missing_or_a_directory_is_named(self, runner,
                                                       small_corpus, tmp_path,
                                                       key, kind):
        path = tmp_path / "data"
        if kind == "directory":
            path.mkdir()
        cfg = tmp_path / "halqa.cfg"
        cfg.write_text(f"{key} = {path}\ncorpus_dir = {small_corpus}\n",
                       encoding="utf-8")
        result = runner.invoke(main, ["ask", "--config", str(cfg),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert str(path) in result.output

    def test_config_not_utf_8_is_named(self, runner, tmp_path):
        cfg = tmp_path / "halqa.cfg"
        cfg.write_bytes(self.NOT_UTF_8)
        result = runner.invoke(main, ["ask", "--config", str(cfg),
                                      "هل محمد ولد جميل ؟"])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {cfg}:2: not UTF-8: ")
        assert isinstance(result.exception, SystemExit)

    def test_questions_not_utf_8_are_named(self, runner, small_corpus,
                                           tmp_path):
        questions = tmp_path / "q.tsv"
        questions.write_bytes(self.NOT_UTF_8)
        result = runner.invoke(main, ["eval", "--corpus", str(small_corpus),
                                      str(questions)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {questions}:2: not UTF-8: ")
        assert isinstance(result.exception, SystemExit)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            Config(technique="graph")
        with pytest.raises(ValueError):
            Config(k_paras=0)
