"""One benchmark run: generate a workload, drive ``halqa.pipeline.Engine``
as one closed-loop caller, check every output, print the metrics.

A run repeats three stages ``setup_reps`` times: build an engine over the
corpus on disk, save a snapshot and load it. Between the repetitions it
answers whole rounds of the workload's questions (each round asks all 46
once, in the seeded order) with the engine last built, so that the
question stage takes about ``--seconds`` in all, spread evenly over the
run, and holds at least ``MIN_QUESTIONS``. Spreading both over the run
lets the medians of the set-up times and latencies ride out short changes
in the machine's speed.

Only the engine calls sit inside the timers; the checks run between
rounds. With ``--trace 1`` the run also records spans (see ``tracing``)
and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from halqa import retrieval
from halqa.config import Config
from halqa.morphology import LightStemmer
from halqa.pipeline import Engine
from halqa.text_core import Lexicons

from . import corpora, tracing
from .checks import check_answer, check_index, check_retrieval, check_snapshot
from .oracle import Oracle
from .tracing import median, percentile

ROOT = corpora.ROOT
WORK = Path(__file__).resolve().parent / "work"
# p90 needs at least 10 samples above it.
MIN_QUESTIONS = 100
# Questions per round whose retrieval is checked against the oracle.
RETRIEVAL_SAMPLE = 5


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's corpus in a child process, so that its memory
    stays out of the measuring process's peak."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    subprocess.run([sys.executable, "-m", "perfbench.corpora",
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(out)], cwd=ROOT, env=env, check=True)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path = WORK) -> dict:
    """Generate, measure and check one run; return the result record."""
    w = corpora.plan(workload, seed)
    out = work / f"{workload}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        generate(workload, seed, out)
        tracer = tracing.Tracer() if trace else None
        result = measure(w, seed, out, seconds, tracer)
        if tracer is not None:
            tracer.write(work / f"spans-{workload}.tsv.gz",
                         f"workload={workload} seed={seed} seconds={seconds}")
        return result
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(w: corpora.Workload, seed: int, out: Path, seconds: float,
            tracer: tracing.Tracer | None) -> dict:
    config = Config(corpus_dir=out / "corpus", technique=w.technique)
    lexicons = Lexicons.from_files(config.stopwords, config.negation,
                                   config.article_exceptions)
    stemmer = LightStemmer.from_file(config.stem_overrides)
    oracle = Oracle(w, lexicons, stemmer)
    text_bytes = sum(f.stat().st_size for f in config.corpus_dir.glob("*.txt"))
    snapshot = out / "index.json"
    sample = random.Random(f"sample:{w.name}:{seed}")
    paused = tracer.paused if tracer is not None else nullcontext

    setup, save, load, latencies = [], [], [], []
    problems: list[str] = []    # run-level check failures
    failures: list[str] = []    # one line per failed question
    rounds: list[tuple[int, int]] = []  # (gold-correct, unknown) per round
    stage = 0.0
    attempted = 0
    with tracing.installed(tracer) if tracer is not None else nullcontext():
        for rep in range(w.setup_reps):
            engine = built = loaded = None
            gc.collect()
            t = perf_counter()
            engine = Engine(config)
            built = engine.index
            setup.append(perf_counter() - t)
            t = perf_counter()
            engine.save_index(snapshot)
            save.append(perf_counter() - t)
            t = perf_counter()
            loaded = retrieval.load_index(snapshot)
            load.append(perf_counter() - t)
            with paused():
                problems.append(check_snapshot(built, loaded))
                if rep == 0:
                    problems.append(check_index(built, oracle))
            if w.from_snapshot:
                engine.set_index(loaded)
            built = loaded = None
            gc.collect()

            share = seconds * (rep + 1) / w.setup_reps
            last = rep == w.setup_reps - 1
            while stage < share or (last and attempted < MIN_QUESTIONS):
                results = []
                t_round = perf_counter()
                for question, _ in w.questions:
                    if tracer is not None:
                        tracer.current_question = attempted + len(results)
                    t = perf_counter()
                    try:
                        res = engine.answer(question)
                    except Exception as exc:  # a failed operation, reported below
                        res = exc
                    latencies.append(perf_counter() - t)
                    results.append(res)
                stage += perf_counter() - t_round
                if tracer is not None:
                    tracer.current_question = -1
                with paused():
                    rounds.append(_check_round(
                        w, results, attempted, oracle, config, lexicons,
                        stemmer, sample, failures))
                attempted += len(results)
        snapshot_bytes = snapshot.stat().st_size

    problems = [p for p in problems if p]
    problems += [f"round {i}: {good} gold-correct verdicts, below the floor "
                 f"of {w.floor}" for i, (good, _) in enumerate(rounds)
                 if good < w.floor]
    failed = len(failures)
    for line in failures[:10] + problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    end_to_end = {
        "setup_s": (median(setup), "s"),
        "snapshot_save_s": (median(save), "s"),
        "snapshot_load_s": (median(load), "s"),
        "snapshot_bytes_per_text_byte": (snapshot_bytes / text_bytes, "ratio"),
        "latency_ms.p50": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_ms.p90": (percentile(latencies, 90) * 1e3, "ms"),
        "throughput_qps": (attempted / stage, "questions/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = tracer.per_layer() if tracer is not None else end_to_end
    good, unknown = rounds[0]
    print(f"workload {w.name}, seed {seed}: {len(w.copies) * len(w.documents)} "
          f"documents, {len(w.questions)} questions a round, {len(rounds)} "
          f"rounds, {w.setup_reps} set-ups; per round {good} gold-correct and "
          f"{unknown} unknown verdicts")
    if tracer is not None:
        print("end-to-end figures with tracing on:")
        _print_table(end_to_end)
    _print_table(metrics)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _check_round(w, results, first_op, oracle, config, lexicons, stemmer,
                 sample, failures) -> tuple[int, int]:
    """Check one round's answers; return its gold-correct and unknown
    counts. Failed questions are appended to ``failures``."""
    sampled = set(sample.sample(range(len(results)), RETRIEVAL_SAMPLE))
    good = unknown = 0
    for i, ((question, gold), res) in enumerate(zip(w.questions, results)):
        if isinstance(res, Exception):
            reason = f"raised {type(res).__name__}: {res}"
        else:
            reason = check_answer(res, gold, oracle, lexicons, stemmer)
            if reason is None and i in sampled:
                reason = check_retrieval(res, oracle, config, stemmer)
        if reason is not None:
            failures.append(f"question {first_op + i} ({question}): {reason}")
            continue
        answer = res.verdict.answer.value
        good += answer == gold
        unknown += answer == "unknown"
    return good, unknown


def _print_table(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpora.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the question stage")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
