"""Command-line interface.

One binary with a subcommand per pipeline stage plus an end-to-end
``pipeline`` command.  Exit codes: 0 on success, 1 on validation or
configuration errors, 2 on transport errors.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from citescreen import corpus, pipeline, retrieve
from citescreen.corpus import Citation, ClinicalTopic
from citescreen.errors import (
    CitescreenError,
    FormatError,
    OutputError,
    StatusError,
    TransportError,
)
from citescreen.evaluate import confusion
from citescreen.extract import build_concept_set, extract_population, read
from citescreen.pipeline import Resources
from citescreen.rank import rank_citations
from citescreen.screen import screen_citation, screening_query
from citescreen.tree import parse_bracketed_tree

# Usage errors are validation errors, not transport errors.
click.UsageError.exit_code = 1


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (TransportError, StatusError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (CitescreenError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _resources(ctx) -> Resources:
    return pipeline.load_resources(ctx.obj["config"], ctx.obj["fixture_dir"])


def _emit(ctx, tsv_text: str, json_text: str):
    click.echo(json_text if ctx.obj["output"] == "json" else tsv_text, nl=False)
    if ctx.obj["output"] == "json" and not json_text.endswith("\n"):
        click.echo()


def _topic_path(directory: str, topic_id: str) -> str:
    """``directory/<topic_id>.tsv``; an id that is not a plain file name,
    one holding a slash or backslash or the id "", "." or "..", is an error."""
    path = os.path.join(directory, f"{topic_id}.tsv")
    if topic_id in ("", ".", "..") or "/" in topic_id or "\\" in topic_id:
        raise FormatError(f"topic id {topic_id!r} is not a plain file name: {path}")
    return path


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to the output file ``path``; a failure is an OutputError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _load_citations_jsonl(path: str) -> list[Citation]:
    citations = []
    for lineno, line in enumerate(corpus.read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            citations.append(Citation.from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise FormatError(
                f"{path} line {lineno}: bad citation record: {exc!r}"
            ) from exc
    return citations


@click.group()
@click.option("--config", type=click.Path(exists=True), default=None,
              help="JSON config with weights, paths and endpoint settings.")
@click.option("--fixture-dir", type=click.Path(), default=None,
              help="Directory of citation XML files to query hermetically.")
@click.option("--top-k", type=click.IntRange(min=1), default=None,
              help="Keep only the top K ranked citations.")
@click.option("--gold-k", type=click.IntRange(min=1), default=None,
              help="Also report P/R/F at this cutoff in eval and pipeline.")
@click.option("--output", type=click.Choice(["tsv", "json"]), default="tsv",
              help="Output format.")
@click.pass_context
def main(ctx, config, fixture_dir, top_k, gold_k, output):
    """Citation retrieval, screening and ranking for clinical questions."""
    ctx.obj = {
        "config": config,
        "fixture_dir": fixture_dir,
        "top_k": top_k,
        "gold_k": gold_k,
        "output": output,
    }


@main.command()
@click.argument("xml_files", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="Write citations as JSON lines here instead of stdout.")
@click.pass_context
@_handle_errors
def ingest(ctx, xml_files, out):
    """Parse citation XML files into one JSON record per line."""
    citations: list[Citation] = []
    for path in xml_files:
        citations.extend(corpus.load_citation_file(path))
    lines = "".join(c.to_json() + "\n" for c in citations)
    if out:
        _write_output(out, lines)
        click.echo(f"wrote {len(citations)} citations to {out}")
    else:
        click.echo(lines, nl=False)


@main.command()
@click.option("--text", default=None, help="Sentence or title to analyse.")
@click.option("--tree", "tree_text", default=None,
              help="Bracketed phrase tree; population patterns only.")
@click.pass_context
@_handle_errors
def extract(ctx, text, tree_text):
    """Extract population, intervention and disease concepts."""
    if (text is None) == (tree_text is None):
        raise click.UsageError("provide exactly one of --text or --tree")
    res = _resources(ctx)
    if tree_text is not None:
        tree = parse_bracketed_tree(tree_text)
        reading = read(" ".join(tree.tokens()), res.lexicon)
        rows = [("population", " ".join(reading.tokens[start:end]))
                for start, end in extract_population(tree, reading)]
    else:
        concepts = build_concept_set(text, res.lexicon, res.drugs, res.synonyms)
        rows = [
            (category, value)
            for category in ("population", "intervention", "disease")
            for value in getattr(concepts, category)
        ]
    tsv = "category\tconcept\n" + "".join(f"{c}\t{v}\n" for c, v in rows)
    payload = json.dumps(
        [{"category": c, "concept": v} for c, v in rows], indent=2
    )
    _emit(ctx, tsv, payload)


@main.command()
@click.option("--title", required=True, help="Clinical question title.")
@click.option("--topic-id", default="topic", help="Identifier for messages.")
@click.pass_context
@_handle_errors
def query(ctx, title, topic_id):
    """Build and print the Boolean retrieval query for a question."""
    res = _resources(ctx)
    topic = ClinicalTopic(topic_id, title)
    concepts = pipeline.topic_concepts(topic, res)
    query_string = retrieve.build_query(
        topic, concepts, res.hyponyms, res.journal_whitelist, res.min_year,
    )
    click.echo(query_string)


@main.command()
@click.argument("query_string")
@click.option("--out", type=click.Path(), default=None,
              help="Write matching citations as JSON lines here.")
@click.pass_context
@_handle_errors
def fetch(ctx, query_string, out):
    """Run a Boolean query against the endpoint or fixture corpus."""
    res = _resources(ctx)
    citations = res.fetch(query_string)
    if out:
        _write_output(out, "".join(c.to_json() + "\n" for c in citations))
    pmids = [c.pmid for c in citations]
    tsv = "pmid\n" + "".join(f"{p}\n" for p in pmids)
    _emit(ctx, tsv, json.dumps({"source": "fixture" if res.fixture_dir else "live",
                                "pmids": pmids}, indent=2))


@main.command()
@click.option("--title", required=True, help="Clinical question title.")
@click.argument("citations_jsonl", type=click.Path(exists=True))
@click.pass_context
@_handle_errors
def screen(ctx, title, citations_jsonl):
    """Apply the four screening constraints; one JSON decision per line."""
    res = _resources(ctx)
    query_concepts = pipeline.topic_concepts(ClinicalTopic("topic", title), res)
    query = screening_query(query_concepts, res.drugs, res.qualifier_whitelist)
    for citation in _load_citations_jsonl(citations_jsonl):
        click.echo(screen_citation(query, citation, res.concepts(citation)).to_json())


@main.command()
@click.option("--title", required=True, help="Clinical question title.")
@click.argument("citations_jsonl", type=click.Path(exists=True))
@click.pass_context
@_handle_errors
def rank(ctx, title, citations_jsonl):
    """Rank screened citations by weighted concept-vector similarity."""
    res = _resources(ctx)
    query_concepts = pipeline.topic_concepts(ClinicalTopic("topic", title), res)
    per_citation = {
        citation.pmid: res.concepts(citation).whole
        for citation in _load_citations_jsonl(citations_jsonl)
    }
    ranked = rank_citations(
        sorted(per_citation), query_concepts, per_citation, res.weights
    )
    ranked = ranked[:ctx.obj["top_k"]]
    _emit(ctx, pipeline.ranked_tsv(ranked), pipeline.ranked_json(ranked))


def _read_ranked_pmids(path: str) -> list[int]:
    pmids = []
    header, *lines = corpus.read_text(path).split("\n")
    if not header.startswith("rank\t"):
        raise FormatError(f"{path}: expected a ranked TSV header")
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        pmid = (line.split("\t") + [""])[1].strip()
        if not pmid.isdecimal():  # the gold table's rule
            raise FormatError(
                f"{path} line {lineno}: expected rank<TAB>pmid, got {line.rstrip()!r}")
        pmids.append(int(pmid))
    return pmids


def _score(ctx, topics: list[ClinicalTopic], ranked_pmids) -> None:
    """Print P/R/F of ``ranked_pmids(topic)`` against each topic's gold set."""
    per_topic = {}
    gold_k_counts = {}
    for topic in topics:
        pmids = ranked_pmids(topic)
        per_topic[topic.topic_id] = confusion(pmids, set(topic.gold_pmids))
        if ctx.obj["gold_k"]:
            gold_k_counts[topic.topic_id] = confusion(
                pmids[:ctx.obj["gold_k"]], set(topic.gold_pmids)
            )
    report = pipeline.metric_report(per_topic, gold_k_counts or None)
    _emit(ctx, _report_tsv(report), json.dumps(report, indent=2))


def _report_tsv(report: dict) -> str:
    rows = [*report["topics"].items(),
            *((key, entry) for key, entry in report.items() if key.startswith("overall_"))]
    lines = ["topic\tprecision\trecall\tf_score"]
    for name, entry in rows:
        lines.append(
            f"{name}\t{entry['precision']}\t{entry['recall']}\t{entry['f_score']}"
        )
    return "\n".join(lines) + "\n"


@main.command("eval")
@click.argument("gold_tsv", type=click.Path(exists=True))
@click.argument("ranked_dir", type=click.Path(exists=True))
@click.pass_context
@_handle_errors
def eval_cmd(ctx, gold_tsv, ranked_dir):
    """Score per-topic ranked lists (<topic_id>.tsv) against a gold table."""
    topics = corpus.load_gold_standard(gold_tsv)
    paths = {t.topic_id: _topic_path(ranked_dir, t.topic_id) for t in topics}

    def ranked_pmids(topic: ClinicalTopic) -> list[int]:
        path = paths[topic.topic_id]
        pmids = _read_ranked_pmids(path) if os.path.exists(path) else []
        return pmids[:ctx.obj["top_k"]]

    _score(ctx, topics, ranked_pmids)


@main.command("pipeline")
@click.argument("gold_tsv", type=click.Path(exists=True))
@click.option("--out-dir", type=click.Path(), default=None,
              help="Write per-topic ranked TSVs here.")
@click.pass_context
@_handle_errors
def pipeline_cmd(ctx, gold_tsv, out_dir):
    """Run query, fetch, screen and rank for every topic, then score.

    With --out-dir each topic's ranking is written there as
    <topic_id>.tsv, so every topic id must be a plain file name: an id
    holding a slash or backslash, or an empty, "." or ".." id, is an error
    before any topic runs.
    """
    res = _resources(ctx)
    topics = corpus.load_gold_standard(gold_tsv)
    out_paths = {t.topic_id: _topic_path(out_dir, t.topic_id)
                 for t in topics} if out_dir else {}

    def ranked_pmids(topic: ClinicalTopic) -> list[int]:
        ranked = pipeline.run_topic(topic, res).ranked[:ctx.obj["top_k"]]
        if out_dir:
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise OutputError(f"cannot make --out-dir {out_dir}: {exc}") from exc
            _write_output(out_paths[topic.topic_id], pipeline.ranked_tsv(ranked))
        return [r.pmid for r in ranked]

    _score(ctx, topics, ranked_pmids)


if __name__ == "__main__":
    main()
