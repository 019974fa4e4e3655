"""Tests of the benchmark's generators and of its own correctness checks."""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from halqa.answer_selection import Answer
from halqa.config import Config
from halqa.morphology import LightStemmer
from halqa.pipeline import Engine
from halqa.text_core import Lexicons, normalize, strip_article, tokenize

from perfbench import bench, corpora

ROOT = corpora.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["replicated", "renamed"])
def test_generators_are_deterministic(tmp_path, workload):
    # Separate processes, so string hashing differs between the two.
    bench.generate(workload, 7, tmp_path / "a")
    bench.generate(workload, 7, tmp_path / "b")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert corpora.plan(workload, 8).questions != corpora.plan(workload, 7).questions


def test_generated_names_stem_to_themselves_and_are_new():
    config = Config()
    stemmer = LightStemmer.from_file(config.stem_overrides)
    lexicons = Lexicons.from_files(config.stopwords, config.negation,
                                   config.article_exceptions)
    w = corpora.plan("renamed", 3)
    names = [g for c in w.copies for g in c.names.values()]
    assert len(names) == corpora.COPIES * len(corpora.NAMES)
    assert len({stemmer.stem(n) for n in names}) == len(names)
    assert all(stemmer.stem(n) == n for n in names)
    fixture_words = {t.surface for _, text in corpora.fixture_documents()
                     for t in tokenize(normalize(text))}
    assert not set(names) & (fixture_words | lexicons.stopwords
                             | lexicons.negation_particles
                             | lexicons.article_exceptions)


def run_fixture(tmp_path, trace=False):
    return bench.run("fixture", 1, 0.05, trace, work=tmp_path)


def test_clean_run_passes(tmp_path):
    result = run_fixture(tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_QUESTIONS
    assert result["attempted"] % len(corpora.plan("fixture", 1).questions) == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = run_fixture(tmp_path, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "spans-fixture.tsv.gz").stat().st_size > 0
    # the wrappers are gone once the run ends
    assert Engine.answer.__module__ == "halqa.pipeline"
    assert not hasattr(Engine.answer, "__wrapped__")


def patch_answer(monkeypatch, change):
    answer = Engine.answer

    def changed(self, question):
        return change(answer(self, question))
    monkeypatch.setattr(Engine, "answer", changed)


def test_flipped_verdict_fails(monkeypatch, tmp_path):
    flip = {Answer.YES: Answer.NO, Answer.NO: Answer.YES}

    def change(res):
        if res.verdict.answer not in flip:
            return res
        verdict = dataclasses.replace(res.verdict,
                                      answer=flip[res.verdict.answer])
        return dataclasses.replace(res, verdict=verdict)
    patch_answer(monkeypatch, change)
    assert run_fixture(tmp_path)["failed"] > 0


def test_perturbed_retrieval_score_fails(monkeypatch, tmp_path, capsys):
    def change(res):
        first = dataclasses.replace(res.retrieved[0],
                                    score=res.retrieved[0].score + 1e-6)
        return dataclasses.replace(res, retrieved=(first,) + res.retrieved[1:])
    patch_answer(monkeypatch, change)
    assert run_fixture(tmp_path)["failed"] > 0
    assert "expected" in capsys.readouterr().err


def test_supporting_sentence_without_head_fails(monkeypatch, tmp_path, capsys):
    lexicons = Engine(Config()).lexicons

    def change(res):
        c = res.verdict.supporting
        if c is None or c.via_advanced_search:
            return res
        text = " ".join(w for w in c.sentence.text.split()
                        if strip_article(w, lexicons) != c.matched_rep.head)
        sentence = dataclasses.replace(c.sentence, text=text)
        verdict = dataclasses.replace(
            res.verdict, supporting=dataclasses.replace(c, sentence=sentence))
        return dataclasses.replace(res, verdict=verdict)
    patch_answer(monkeypatch, change)
    assert run_fixture(tmp_path)["failed"] > 0
    assert "without the head" in capsys.readouterr().err


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "fixture", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
