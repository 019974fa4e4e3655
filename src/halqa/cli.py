"""Command-line interface: index, ask and eval subcommands.

Exit codes: 0 success, 1 malformed question, 2 I/O or parse error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import click

from .config import Config, load_config
from .errors import HalqaError, MalformedQuestion
from .evaluation import evaluate, load_questions, sweep
from .pipeline import Engine


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(Config)}


def _onoff(_ctx, _param, value):
    if value is None:
        return None
    return value == "on"


_onoff_choice = click.Choice(["on", "off"])
_positive = click.IntRange(min=1)


def common_options(fn):
    """Add the shared options; the command is called with the Engine they
    configure, and any error it raises exits 1 or 2 here."""

    @click.option("--advanced", "use_advanced_search", type=_onoff_choice,
                  callback=_onoff, default=None,
                  help="Preceding-sentence lookback search.")
    @click.option("--thesaurus", "use_thesaurus", type=_onoff_choice,
                  callback=_onoff, default=None,
                  help="Synonym/antonym query expansion.")
    @click.option("--k-docs", "k_docs", type=_positive, default=None,
                  help="Documents to retain in the document technique.")
    @click.option("--k", "k_paras", type=_positive, default=None,
                  help="Paragraphs to retrieve (default 5).")
    @click.option("--technique", type=click.Choice(["paragraph", "document"]),
                  default=None)
    @click.option("--corpus", "corpus_dir", type=click.Path(),
                  help="Directory of UTF-8 .txt documents.")
    @click.option("--config", "config_file", type=click.Path(exists=True),
                  help="Key = value config file; flags override it.")
    @functools.wraps(fn)
    def command(config_file, **options):
        # Every option named for a Config field leaves options; None is unset.
        given = {name: value for name in _CONFIG_FIELDS & options.keys()
                 if (value := options.pop(name)) is not None}
        try:
            config = load_config(config_file) if config_file else Config()
            fn(Engine(dataclasses.replace(config, **given)), **options)
        except MalformedQuestion as exc:
            click.echo(f"malformed question: {exc}", err=True)
            sys.exit(1)
        except (OSError, HalqaError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return command


@click.group()
def main():
    """Arabic yes/no question answering over plain-text corpora."""


@main.command("index")
@common_options
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Snapshot path (default: <corpus>/index.json).")
def cmd_index(engine, out_path):
    """Build the corpus index, persist it and print summary statistics."""
    # With no corpus directory the build fails before out is used.
    out = (Path(out_path) if out_path
           else Path(engine.config.corpus_dir or "") / "index.json")
    try:  # the summary prints it; a byte not UTF-8 reads as a surrogate
        str(out).encode()
    except UnicodeEncodeError:
        raise ValueError(f"snapshot path {os.fsencode(out)!r} is not "
                         "UTF-8") from None
    idx = engine.index
    engine.save_index(out)
    click.echo(f"documents: {idx.n_documents}")
    click.echo(f"paragraphs: {idx.n_paragraphs}")
    click.echo(f"vocabulary: {len(idx.paragraph_postings)}")
    click.echo(f"snapshot: {out}")


@main.command("ask")
@common_options
@click.option("--index", "index_path", type=click.Path(exists=True),
              default=None, help="Load a persisted index snapshot.")
@click.option("--verbose", is_flag=True, help="Print the full trace.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.argument("question")
def cmd_ask(engine, index_path, verbose, as_json, question):
    """Answer a single هل-question against the corpus."""
    if index_path:
        engine.load_index(index_path)
    result = engine.answer(question)

    if as_json:
        record = result.verdict.to_record()
        if verbose:
            record["trace"] = [c.describe() for c in result.verdict.trace]
            record["retrieved"] = [
                {"doc_id": c.doc_id, "para_id": c.para_id, "score": c.score}
                for c in result.retrieved
            ]
        click.echo(json.dumps(record, ensure_ascii=False, sort_keys=True))
        return

    click.echo(result.verdict.answer.value)
    supporting = result.verdict.supporting
    if supporting is not None:
        click.echo(f"supporting: {supporting.sentence.text} "
                   f"[{supporting.sentence.doc_id}#{supporting.sentence.para_id}]")
    if verbose:
        q = result.reps.source
        click.echo(f"parsed: kind={q.kind.value} head={q.head} "
                   f"relation={q.relation} remaining={list(q.remaining)} "
                   f"negated={q.negated}")
        for rep in result.reps.reps:
            click.echo(f"rep[{rep.provenance.value}]: "
                       f"{'~' if rep.negated else ''}{rep.kind.value}"
                       f"({rep.head}, {sorted(rep.relation_roots)}, "
                       f"{list(rep.remaining_roots)})")
        for c in result.retrieved:
            click.echo(f"paragraph {c.doc_id}#{c.para_id}: score={c.score:.6f}")
        for c in result.verdict.trace:
            s = c.sentence
            click.echo(f"candidate {s.doc_id}#{s.para_id}s{s.sentence_index} "
                       f"[{c.matched_rep.provenance.value}] span={c.span_rank}"
                       + (" (advanced)" if c.via_advanced_search else ""))


@main.command("eval")
@common_options
@click.option("--json", "as_json", is_flag=True, help="JSON lines output.")
@click.option("--sweep", "sweep_sizes", default=None,
              help="Comma-separated corpus sizes, e.g. 5,10,15,20.")
@click.option("--sweep-all-questions", is_flag=True,
              help="Evaluate every question at every sweep size.")
@click.argument("questions_file", type=click.Path(exists=True))
def cmd_eval(engine, as_json, sweep_sizes, sweep_all_questions,
             questions_file):
    """Evaluate a gold-labeled question file (question<TAB>yes|no)."""
    questions = load_questions(questions_file)
    if sweep_sizes is not None:
        try:
            sizes = [int(s) for s in sweep_sizes.split(",")]
        except ValueError:
            raise ValueError("sweep sizes must be comma-separated "
                             f"integers, got {sweep_sizes!r}") from None
        reports = sweep(engine, questions, sizes,
                        all_questions=sweep_all_questions)
    else:
        reports = [evaluate(engine, questions)]

    if as_json:
        for report in reports:
            click.echo(report.to_json_lines(), nl=False)
        return

    for report in reports:
        click.echo(f"corpus size: {report.corpus_size} documents, "
                   f"{len(report.records)} questions")
        width = max((len(r.question) for r in report.records), default=8)
        click.echo(f"{'question':<{width}}\tgold\tpredicted\tcorrect")
        for r in report.records:
            click.echo(f"{r.question:<{width}}\t{r.gold}\t{r.predicted}\t"
                       f"{'1' if r.correct else '0'}")
        click.echo(f"accuracy: {report.correct}/{len(report.records)} "
                   f"({report.accuracy * 100:.1f}%)")
        click.echo("")


if __name__ == "__main__":
    main()
