"""Command-line interface.

One binary with a subcommand per pipeline stage plus an end-to-end
``pipeline`` command.  Exit codes: 0 on success, 1 on usage, validation
or configuration errors, 2 on transport errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from citescreen import corpus, pipeline, retrieve
from citescreen.corpus import Citation, ClinicalTopic
from citescreen.errors import CitescreenError, FormatError, OutputError, TransportError
from citescreen.evaluate import confusion
from citescreen.extract import build_concept_set, extract_population, read
from citescreen.rank import rank_citations
from citescreen.screen import screen_citation, screening_query
from citescreen.tree import parse_bracketed_tree


def _emit(args, tsv_text: str, json_text: str):
    sys.stdout.write(json_text + "\n" if args.output == "json" else tsv_text)


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


def ingest(args) -> None:
    """Parse citation XML files into one JSON record per line."""
    citations: list[Citation] = []
    for path in args.xml_files:
        citations.extend(corpus.load_citation_file(path))
    lines = "".join(c.to_json() + "\n" for c in citations)
    if args.out:
        _write_output(args.out, lines)
        print(f"wrote {len(citations)} citations to {args.out}")
    else:
        sys.stdout.write(lines)


def extract(args) -> None:
    """Extract population, intervention and disease concepts."""
    res = pipeline.load_resources(args.config, args.fixture_dir)
    if args.tree_text is not None:
        tree = parse_bracketed_tree(args.tree_text)
        reading = read(" ".join(tree.tokens()), res.lexicon)
        rows = [("population", " ".join(reading.tokens[start:end]))
                for start, end in extract_population(tree, reading)]
    else:
        concepts = build_concept_set(args.text, res.lexicon, res.drugs, res.synonyms)
        rows = [
            (category, value)
            for category in ("population", "intervention", "disease")
            for value in getattr(concepts, category)
        ]
    tsv = "category\tconcept\n" + "".join(f"{c}\t{v}\n" for c, v in rows)
    payload = json.dumps(
        [{"category": c, "concept": v} for c, v in rows], indent=2
    )
    _emit(args, tsv, payload)


def query(args) -> None:
    """Build and print the Boolean retrieval query for a question."""
    res = pipeline.load_resources(args.config, args.fixture_dir)
    topic = ClinicalTopic(args.topic_id, args.title)
    concepts = pipeline.topic_concepts(topic, res)
    query_string = retrieve.build_query(
        topic, concepts, res.hyponyms, res.journal_whitelist, res.min_year,
    )
    print(query_string)


def fetch(args) -> None:
    """Run a Boolean query against the endpoint or fixture corpus."""
    res = pipeline.load_resources(args.config, args.fixture_dir)
    citations = res.fetch(args.query_string)
    if args.out:
        _write_output(args.out, "".join(c.to_json() + "\n" for c in citations))
    pmids = [c.pmid for c in citations]
    tsv = "pmid\n" + "".join(f"{p}\n" for p in pmids)
    _emit(args, tsv, json.dumps({"source": "fixture" if res.fixture_dir else "live",
                                 "pmids": pmids}, indent=2))


def screen(args) -> None:
    """Apply the four screening constraints; one JSON decision per line."""
    res = pipeline.load_resources(args.config, args.fixture_dir)
    query_concepts = pipeline.topic_concepts(ClinicalTopic("topic", args.title), res)
    query = screening_query(query_concepts, res.drugs, res.qualifier_whitelist)
    for citation in _load_citations_jsonl(args.citations_jsonl):
        print(screen_citation(query, citation, res.concepts(citation)).to_json())


def rank(args) -> None:
    """Rank screened citations by weighted concept-vector similarity."""
    res = pipeline.load_resources(args.config, args.fixture_dir)
    query_concepts = pipeline.topic_concepts(ClinicalTopic("topic", args.title), res)
    per_citation = {
        citation.pmid: res.concepts(citation).whole
        for citation in _load_citations_jsonl(args.citations_jsonl)
    }
    ranked = rank_citations(
        sorted(per_citation), query_concepts, per_citation, res.weights
    )
    ranked = ranked[:args.top_k]
    _emit(args, pipeline.ranked_tsv(ranked), pipeline.ranked_json(ranked))


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


def _score(args, topics: list[ClinicalTopic], ranked_pmids) -> None:
    """Print P/R/F of ``ranked_pmids(topic)`` against each topic's gold set."""
    per_topic = {}
    gold_k_counts = {}
    for topic in topics:
        pmids = ranked_pmids(topic)
        per_topic[topic.topic_id] = confusion(pmids, set(topic.gold_pmids))
        if args.gold_k:
            gold_k_counts[topic.topic_id] = confusion(
                pmids[:args.gold_k], set(topic.gold_pmids)
            )
    report = pipeline.metric_report(per_topic, gold_k_counts or None)
    _emit(args, _report_tsv(report), json.dumps(report, indent=2))


def _report_tsv(report: dict) -> str:
    rows = [*report["topics"].items(),
            *((key, entry) for key, entry in report.items() if key.startswith("overall_"))]
    lines = ["topic\tprecision\trecall\tf_score"]
    for name, entry in rows:
        lines.append(
            f"{name}\t{entry['precision']}\t{entry['recall']}\t{entry['f_score']}"
        )
    return "\n".join(lines) + "\n"


def eval_cmd(args) -> None:
    """Score per-topic ranked lists (<topic_id>.tsv) against a gold table."""
    topics = corpus.load_gold_standard(args.gold_tsv)
    if not os.path.isdir(args.ranked_dir):
        raise FormatError(f"RANKED_DIR {args.ranked_dir!r} is not a directory")
    paths = {t.topic_id: _topic_path(args.ranked_dir, t.topic_id) for t in topics}

    def ranked_pmids(topic: ClinicalTopic) -> list[int]:
        path = paths[topic.topic_id]
        pmids = _read_ranked_pmids(path) if os.path.exists(path) else []
        return pmids[:args.top_k]

    _score(args, topics, ranked_pmids)


def pipeline_cmd(args) -> None:
    """Run query, fetch, screen and rank for every topic, then score.

    With --out-dir each topic's ranking is written there as
    <topic_id>.tsv, so every topic id must be a plain file name: an id
    holding a slash or backslash, or an empty, "." or ".." id, is an error
    before any topic runs.
    """
    res = pipeline.load_resources(args.config, args.fixture_dir)
    topics = corpus.load_gold_standard(args.gold_tsv)
    out_paths = {t.topic_id: _topic_path(args.out_dir, t.topic_id)
                 for t in topics} if args.out_dir else {}

    def ranked_pmids(topic: ClinicalTopic) -> list[int]:
        ranked = pipeline.run_topic(topic, res).ranked[:args.top_k]
        if args.out_dir:
            try:
                os.makedirs(args.out_dir, exist_ok=True)
            except OSError as exc:
                raise OutputError(f"cannot make --out-dir {args.out_dir}: {exc}") from exc
            _write_output(out_paths[topic.topic_id], pipeline.ranked_tsv(ranked))
        return [r.pmid for r in ranked]

    _score(args, topics, ranked_pmids)


#: Each command's name and the function that runs it.
COMMANDS = {
    "ingest": ingest, "extract": extract, "query": query, "fetch": fetch,
    "screen": screen, "rank": rank, "eval": eval_cmd, "pipeline": pipeline_cmd,
}


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option and whose usage errors
    exit 1: exit 2 is a transport error's."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cutoff(value: str) -> int:
    """A ``--top-k`` or ``--gold-k`` value: an integer x>=1."""
    try:
        k = int(value)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer x>=1")
    return k


def _parser(prog_name: str | None) -> _Parser:
    parser = _Parser(prog=prog_name, description="Citation retrieval, screening "
                     "and ranking for clinical questions.")
    parser.add_argument("--config",
                        help="JSON config with weights, paths and endpoint settings.")
    parser.add_argument("--fixture-dir",
                        help="Directory of citation XML files to query hermetically.")
    parser.add_argument("--top-k", type=_cutoff, metavar="K",
                        help="Keep only the top K ranked citations.")
    parser.add_argument("--gold-k", type=_cutoff, metavar="K",
                        help="Also report P/R/F at this cutoff in eval and pipeline.")
    parser.add_argument("--output", choices=("tsv", "json"), default="tsv",
                        help="Output format.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub = {name: commands.add_parser(name, help=fn.__doc__.split("\n")[0],
                                     description=fn.__doc__)
           for name, fn in COMMANDS.items()}

    sub["ingest"].add_argument("xml_files", nargs="+", metavar="XML_FILE")
    sub["ingest"].add_argument(
        "--out", help="Write citations as JSON lines here instead of stdout.")
    source = sub["extract"].add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="Sentence or title to analyse.")
    source.add_argument("--tree", dest="tree_text",
                        help="Bracketed phrase tree; population patterns only.")
    for name in ("query", "screen", "rank"):
        sub[name].add_argument("--title", required=True, help="Clinical question title.")
    sub["query"].add_argument("--topic-id", default="topic",
                              help="Identifier for messages.")
    sub["fetch"].add_argument("query_string", metavar="QUERY")
    sub["fetch"].add_argument("--out", help="Write matching citations as JSON lines here.")
    for name in ("screen", "rank"):
        sub[name].add_argument("citations_jsonl", metavar="CITATIONS_JSONL")
    for name in ("eval", "pipeline"):
        sub[name].add_argument("gold_tsv", metavar="GOLD_TSV")
    sub["eval"].add_argument("ranked_dir", metavar="RANKED_DIR")
    sub["pipeline"].add_argument("--out-dir", help="Write per-topic ranked TSVs here.")
    return parser


def main(args=None, prog_name=None):
    """Run the command line ``args`` (``sys.argv[1:]`` when None) and exit
    with its code: it always ends in ``SystemExit``, never returns."""
    parsed = _parser(prog_name).parse_args(args)
    try:
        COMMANDS[parsed.command](parsed)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except (CitescreenError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2 if isinstance(exc, TransportError) else 1)
    except BrokenPipeError:
        # the flush at exit writes what is still buffered to nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("Aborted!", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
