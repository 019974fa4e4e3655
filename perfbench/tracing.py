"""Spans and counts at the public functions of each ``halqa`` module.

``installed(tracer)`` wraps the functions in ``SPANS`` and ``COUNTED``
wherever a ``halqa`` module holds them, and restores the originals on
exit, so nothing under ``src/`` changes. A span records its name, start,
end, the span that caused it (the one open when it began) and the question
being answered. The three functions in ``COUNTED`` run once per word or
per paragraph scored, up to 21,000 times a question, so they record only
calls (and, for the stemmer, time and the distinct words seen while
building), charged to the outermost open span.

Spans stay in memory, in flat arrays, until ``write`` saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, function or Class.method, span name, size of the result)
SPANS = [
    ("halqa.pipeline", "Engine.__init__", "pipeline.engine_init", None),
    ("halqa.pipeline", "Engine.answer", "pipeline.answer", None),
    ("halqa.retrieval", "build_index_from_dir", "retrieval.build_index_from_dir", None),
    ("halqa.retrieval", "build_index", "retrieval.build_index", None),
    ("halqa.retrieval", "save_index", "retrieval.save_index", None),
    ("halqa.retrieval", "load_index", "retrieval.load_index", None),
    ("halqa.retrieval", "paragraph_technique", "retrieval.rank", len),
    ("halqa.retrieval", "document_technique", "retrieval.rank", len),
    ("halqa.retrieval", "paragraphs_by_id", "retrieval.paragraphs_by_id", None),
    ("halqa.text_core", "normalize", "text_core.normalize", None),
    ("halqa.text_core", "tokenize", "text_core.tokenize", None),
    ("halqa.text_core", "remove_stopwords", "text_core.remove_stopwords", None),
    ("halqa.text_core", "split_paragraphs", "text_core.split_paragraphs", None),
    ("halqa.question_analysis", "parse_question", "question_analysis.parse_question", None),
    ("halqa.question_analysis", "preprocess_special_verb",
     "question_analysis.preprocess_special_verb", None),
    ("halqa.question_analysis", "build_representations",
     "question_analysis.build_representations", lambda r: len(r.reps)),
    ("halqa.question_analysis", "retrieval_term_multiset",
     "question_analysis.retrieval_term_multiset", None),
    ("halqa.answer_selection", "select_answer", "answer_selection.select_answer",
     lambda v: len(v.trace)),
    ("halqa.answer_selection", "prepare_sentences",
     "answer_selection.prepare_sentences", len),
]
# (module, function or Class.method, count name, also timed)
COUNTED = [
    ("halqa.morphology", "LightStemmer.stem", "morphology.stem", True),
    ("halqa.retrieval", "passage_similarity", "retrieval.passage_similarity", False),
    ("halqa.retrieval", "document_similarity", "retrieval.document_similarity", False),
]
BUILD_ROOT = "retrieval.build_index_from_dir"
ANSWER_ROOT = "pipeline.answer"


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent = array("l"), array("l")
        self.question, self.size = array("l"), array("l")
        self.stack: list[int] = []
        self.current_question = -1
        self.active = True
        self.calls: Counter = Counter()                 # (count name, root) -> calls
        self.seconds: defaultdict = defaultdict(float)  # (count name, root) -> s
        self.distinct: defaultdict = defaultdict(set)   # build root -> words

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def span(self, name: str, fn, size=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.question.append(self.current_question)
            self.size.append(-1)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
            if size is not None:
                self.size[i] = size(result)
            return result
        return wrapper

    def counted(self, name: str, fn, timed: bool):
        build = self._id(BUILD_ROOT)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            root = self.stack[0] if self.stack else -1
            key = (name, root)
            self.calls[key] += 1
            if not timed:
                return fn(*args, **kwargs)
            if root >= 0 and self.name[root] == build:
                self.distinct[root].add(args[-1])
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += perf_counter() - t
        return wrapper

    def write(self, path: Path, header: str) -> None:
        """Save the spans as gzipped TSV, times in seconds from the start."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {header}\nspan\tname\tstart\tend\tparent\tquestion\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - self.t0:.9f}\t{self.end[i] - self.t0:.9f}\t"
                         f"{self.parent[i]}\t{self.question[i]}\n")

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, from the spans and counts recorded."""
        n = len(self.start)
        root = array("l", [0]) * n
        child = defaultdict(float)            # span -> time in child spans
        within = defaultdict(Counter)         # root -> span name -> seconds
        sizes = defaultdict(Counter)          # root -> span name -> size
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            d = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            within[root[i]][name] += d
            if p >= 0:
                child[p] += d
            if self.size[i] >= 0:
                sizes[root[i]][name] += self.size[i]

        def roots(name):
            nid = self._ids.get(name)
            return [i for i in range(n) if self.name[i] == nid and self.parent[i] < 0]

        builds, answers = roots(BUILD_ROOT), roots(ANSWER_ROOT)
        inits = [i for i in range(n)
                 if self.names[self.name[i]] == "pipeline.engine_init"]

        def dur(i):
            return self.end[i] - self.start[i]

        def each_build(f):
            return median([f(r) for r in builds])

        def each_answer(f):
            return [f(r) for r in answers]

        def calls(name, r):
            return self.calls[(name, r)]

        text_core = ("text_core.normalize", "text_core.tokenize",
                     "text_core.remove_stopwords", "text_core.split_paragraphs")
        passages = sum(calls("retrieval.passage_similarity", r) for r in answers)
        returned = sum(sizes[r]["retrieval.rank"] for r in answers)
        ms, s, count, ratio = "ms", "s", "count", "ratio"
        return {
            "pipeline.engine_init_ms": (median([dur(i) for i in inits]) * 1e3, ms),
            "pipeline.answer_self_ms.p50": (percentile(
                each_answer(lambda r: dur(r) - child[r]), 50) * 1e3, ms),
            "retrieval.read_corpus_s": (each_build(lambda r: dur(r) - child[r]), s),
            "retrieval.build_index_s": (each_build(
                lambda r: within[r]["retrieval.build_index"]), s),
            "text_core.build_ms": (each_build(
                lambda r: sum(within[r][t] for t in text_core)) * 1e3, ms),
            "morphology.stem_ms.build": (each_build(
                lambda r: self.seconds[("morphology.stem", r)]) * 1e3, ms),
            "morphology.stem_calls.build": (each_build(
                lambda r: calls("morphology.stem", r)), count),
            "morphology.stem_distinct.build": (each_build(
                lambda r: len(self.distinct[r])), count),
            "morphology.stem_calls_per_question": (mean(each_answer(
                lambda r: calls("morphology.stem", r))), count),
            "question_analysis.parse_ms.p50": (percentile(each_answer(
                lambda r: within[r]["question_analysis.parse_question"]
                + within[r]["question_analysis.preprocess_special_verb"]), 50) * 1e3, ms),
            "question_analysis.expand_ms.p50": (percentile(each_answer(
                lambda r: within[r]["question_analysis.build_representations"]), 50) * 1e3, ms),
            "question_analysis.reps_per_question": (mean(each_answer(
                lambda r: sizes[r]["question_analysis.build_representations"])), count),
            "retrieval.rank_ms.p50": (percentile(each_answer(
                lambda r: within[r]["retrieval.rank"]), 50) * 1e3, ms),
            "retrieval.rank_ms.p90": (percentile(each_answer(
                lambda r: within[r]["retrieval.rank"]), 90) * 1e3, ms),
            "retrieval.paragraphs_scored_per_question": (
                passages / max(len(answers), 1), count),
            "retrieval.scored_per_returned": (passages / max(returned, 1), ratio),
            "retrieval.documents_scored_per_question": (mean(each_answer(
                lambda r: calls("retrieval.document_similarity", r))), count),
            "retrieval.paragraphs_by_id_ms.p50": (percentile(each_answer(
                lambda r: within[r]["retrieval.paragraphs_by_id"]), 50) * 1e3, ms),
            "answer_selection.select_ms.p50": (percentile(each_answer(
                lambda r: within[r]["answer_selection.select_answer"]), 50) * 1e3, ms),
            "answer_selection.prepare_ms.p50": (percentile(each_answer(
                lambda r: within[r]["answer_selection.prepare_sentences"]), 50) * 1e3, ms),
            "answer_selection.sentences_per_question": (mean(each_answer(
                lambda r: sizes[r]["answer_selection.prepare_sentences"])), count),
            "answer_selection.candidates_per_question": (mean(each_answer(
                lambda r: sizes[r]["answer_selection.select_answer"])), count),
        }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles`` (inclusive) cuts it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions for the duration of the block. A function
    the program no longer has is skipped, and its metrics read 0."""
    undo = []

    def install(module: str, qualname: str, wrap) -> None:
        owner = importlib.import_module(module)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = wrap(original)
        targets = [(owner, attr)] if isinstance(owner, type) else [
            # every halqa module that imported the function
            (mod, key) for name, mod in list(sys.modules.items())
            if name == "halqa" or name.startswith("halqa.")
            for key, value in list(vars(mod).items()) if value is original]
        for target, key in targets:
            undo.append((target, key, original))
            setattr(target, key, wrapper)

    try:
        for module, qualname, name, size in SPANS:
            install(module, qualname,
                    lambda f, name=name, size=size: tracer.span(name, f, size))
        for module, qualname, name, timed in COUNTED:
            install(module, qualname,
                    lambda f, name=name, timed=timed: tracer.counted(name, f, timed))
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
