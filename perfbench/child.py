"""Run one ``citescreen`` command in this process and record its timings.

    python3 perfbench/child.py --stats FILE [--trace FILE] [--http]
        [--capture-rank FILE] -- <citescreen arguments>

The command runs through ``citescreen.cli.main``, the function the
``citescreen`` console script calls.  A wrapper around
``pipeline.run_topic`` records when each topic starts and ends and what
it fetched; the first start marks the end of set-up.  ``--trace`` adds
the span wrappers of ``spans.py``; ``--capture-rank`` keeps the inputs
and outputs of every ``rank_citations`` call for the ranking oracle.
Everything is written when the process exits, so the timed part stays
free of benchmark I/O.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CATEGORIES = ("population", "intervention", "disease")


def _parse(argv: list[str]) -> tuple[dict, list[str]]:
    split = argv.index("--")
    opts: dict = {"http": False}
    it = iter(argv[:split])
    for flag in it:
        if flag == "--http":
            opts["http"] = True
        elif flag in ("--stats", "--trace", "--capture-rank"):
            opts[flag[2:]] = next(it)
        else:
            raise SystemExit(f"child.py: unknown option {flag}")
    return opts, argv[split + 1:]


def _bags(concepts) -> dict[str, list[str]]:
    return {c: list(getattr(concepts, c)) for c in CATEGORIES}


def main(argv: list[str]) -> None:
    opts, cli_args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from citescreen import cli
    import spans

    stats: dict = {"topics": []}
    rank_calls: list[dict] = []
    tracer = None
    if "trace" in opts:
        tracer = spans.Tracer()
        tracer.install(http=opts["http"])

    def topic_hook(run_topic):
        def timed(topic, *args, **kwargs):
            if tracer is not None:
                tracer.topic = topic.topic_id
            start = time.monotonic()
            if "first_topic" not in stats:
                stats["first_topic"] = start
            run = run_topic(topic, *args, **kwargs)
            end = time.monotonic()
            if tracer is not None:
                tracer.topic = None
            stats["topics"].append([topic.topic_id, start, end, list(run.fetched_pmids)])
            return run
        return timed

    if not spans.replace_everywhere("citescreen.pipeline", "run_topic", topic_hook):
        raise SystemExit("child.py: citescreen.pipeline.run_topic not found")

    if "capture-rank" in opts:
        def rank_hook(rank_citations):
            def captured(*args, **kwargs):
                result = rank_citations(*args, **kwargs)
                values = [*args, *kwargs.values()]
                query = next(v for v in values if hasattr(v, "intervention"))
                docs = next(v for v in values if isinstance(v, dict))
                rank_calls.append({
                    "query": _bags(query),
                    "docs": {str(r.pmid): _bags(docs[r.pmid]) for r in result},
                    "results": [[r.pmid, r.pop_sim, r.int_sim, r.dis_sim, r.vsm_score]
                                for r in result],
                })
                return result
            return captured
        spans.replace_everywhere("citescreen.rank", "rank_citations", rank_hook)

    try:
        cli.main(args=cli_args, prog_name="citescreen")
    finally:
        stats["end"] = time.monotonic()
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(opts["stats"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(stats))
        if tracer is not None:
            tracer.dump(opts["trace"])
        if "capture-rank" in opts:
            with open(opts["capture-rank"], "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"rank_calls": rank_calls}))


if __name__ == "__main__":
    main(sys.argv[1:])
