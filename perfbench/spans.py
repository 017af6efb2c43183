"""In-memory span tracing around the program's public functions.

The benchmark installs these wrappers from its own files, in the child
process that runs one ``citescreen`` command; nothing under ``src/``
changes.  A span records name, start, end, span id, parent span id and
the topic being run.  Counters are recorded at the same call boundaries.
Spans stay in memory and are written out once, when the process ends.

Small helpers that every layer calls (``normalize_token``,
``stem_and_filter``, ``stem``) are deliberately not wrapped: their time
counts as self time of the layer that called them.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

#: (span name, module, attribute).  The layer is the part of the name
#: before the first dot.  ``evaluate_query`` recurses; only the
#: outermost call is a span.
SPAN_HOOKS = (
    ("corpus.parse_citation_xml", "citescreen.corpus", "parse_citation_xml"),
    ("corpus.load_gold_standard", "citescreen.corpus", "load_gold_standard"),
    ("preprocess.segment_sentences", "citescreen.preprocess", "segment_sentences"),
    ("preprocess.expand_abbreviations", "citescreen.preprocess", "expand_abbreviations"),
    ("retrieve.build_query", "citescreen.retrieve", "build_query"),
    ("retrieve.parse_query", "citescreen.retrieve", "parse_query"),
    ("retrieve.evaluate_query", "citescreen.retrieve", "evaluate_query"),
    ("retrieve.fetch_citations", "citescreen.retrieve", "fetch_citations"),
    ("retrieve.load_fixture_corpus", "citescreen.retrieve", "load_fixture_corpus"),
    ("tree.parse_phrase_tree", "citescreen.tree", "parse_phrase_tree"),
    ("extract.extract_population", "citescreen.extract", "extract_population"),
    ("extract.extract_concepts", "citescreen.extract", "extract_concepts"),
    ("extract.normalize_drug_components", "citescreen.extract", "normalize_drug_components"),
    ("extract.build_concept_set", "citescreen.extract", "build_concept_set"),
    ("extract.citation_concepts", "citescreen.pipeline", "citation_concepts"),
    ("extract.topic_concepts", "citescreen.pipeline", "topic_concepts"),
    ("screen.screen_citation", "citescreen.screen", "screen_citation"),
    ("rank.rank_citations", "citescreen.rank", "rank_citations"),
    ("evaluate.confusion", "citescreen.evaluate", "confusion"),
    ("evaluate.prf", "citescreen.evaluate", "prf"),
    ("evaluate.macro_average", "citescreen.evaluate", "macro_average"),
    ("evaluate.metric_report", "citescreen.pipeline", "metric_report"),
    ("pipeline.run_topic", "citescreen.pipeline", "run_topic"),
)
#: Only counted, not timed: called inside ``evaluate_query`` per term.
COUNT_HOOKS = (
    ("retrieve.infer_publication_type", "citescreen.retrieve", "infer_publication_type"),
)
#: Installed only when the run talks to an HTTP endpoint.
HTTP_HOOKS = (
    ("retrieve.http", "requests", "get"),
    ("retrieve.http", "requests", "post"),
    ("retrieve.ratelimit_wait", "time", "sleep"),
)
OUTERMOST_ONLY = {"retrieve.evaluate_query"}


def replace_everywhere(module_name: str, attr: str, make_wrapper) -> bool:
    """Swap ``module.attr`` for a wrapper in every module that holds it.

    Functions imported by name (``from x import f``) live on in the
    importing module, so each ``citescreen`` module is patched too.
    Returns False when the name does not exist.
    """
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return False
    original = getattr(module, attr, None)
    if original is None or not callable(original):
        return False
    wrapper = make_wrapper(original)
    setattr(module, attr, wrapper)
    for name, mod in list(sys.modules.items()):
        if mod is module or not name.startswith("citescreen"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, id, parent, topic, extra]
        self.stack: list[int] = []
        self.topic: str | None = None
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.unmeasured: list[str] = []
        self.note_errors: Counter = Counter()
        self._active: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, note=None):
        outermost = name in OUTERMOST_ONLY
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if outermost and tracer._active[name]:
                    return fn(*args, **kwargs)
                span_id = len(tracer.spans)
                record = [name, time.monotonic(), None, span_id,
                          tracer.stack[-1] if tracer.stack else None, tracer.topic, None]
                tracer.spans.append(record)
                tracer.stack.append(span_id)
                tracer._active[name] += 1
                ok = False
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                finally:
                    tracer._active[name] -= 1
                    tracer.stack.pop()
                    record[2] = time.monotonic()
                    if note is not None:
                        try:
                            record[6] = note(tracer, args, kwargs, result if ok else None, ok)
                        except (AttributeError, TypeError, ValueError, IndexError):
                            tracer.note_errors[name] += 1
                return result
            return wrapper
        return make

    def _count(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counters[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self, http: bool = False) -> None:
        for name, module, attr in SPAN_HOOKS:
            if not replace_everywhere(module, attr, self._wrap(name, NOTES.get(name))):
                self.unmeasured.append(f"{module}.{attr}")
        for name, module, attr in COUNT_HOOKS:
            if not replace_everywhere(module, attr, self._count(name)):
                self.unmeasured.append(f"{module}.{attr}")
        if http:
            for name, module, attr in HTTP_HOOKS:
                if not replace_everywhere(module, attr, self._wrap(name, NOTES.get(name))):
                    self.unmeasured.append(f"{module}.{attr}")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "spans": self.spans,
                "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "unmeasured": self.unmeasured,
                "note_errors": dict(self.note_errors),
            }))


# -- counters recorded at span boundaries ----------------------------------

def _note_parse(tr, args, kwargs, result, ok):
    if ok:
        tr.counters["corpus.records_parsed"] += len(result)
        tr.distinct["corpus.pmids"].update(c.pmid for c in result)


def _note_segment(tr, args, kwargs, result, ok):
    if ok:
        tr.counters["preprocess.sentences"] += len(result)


def _note_eval(tr, args, kwargs, result, ok):
    tr.counters["retrieve.citations_evaluated"] += 1
    tr.counters["retrieve.citations_matched"] += bool(result)


def _note_citation(tr, args, kwargs, result, ok):
    citation = args[0] if args else kwargs["citation"]
    tr.distinct["extract.pmids"].add(citation.pmid)


def _note_screen(tr, args, kwargs, result, ok):
    if ok:
        constraint = result.matched_constraint
        tr.counters[f"screen.accepted_c{constraint}" if constraint else "screen.rejected"] += 1


def _note_rank(tr, args, kwargs, result, ok):
    pmids = args[0] if args else kwargs["accepted_pmids"]
    tr.counters["rank.candidates"] += len(pmids)
    return len(pmids)


def _note_http(tr, args, kwargs, result, ok):
    if not ok or result.status_code != 200:
        tr.counters["retrieve.http_errors"] += 1
    if ok:
        tr.counters["retrieve.bytes_received"] += len(result.content)


NOTES = {
    "corpus.parse_citation_xml": _note_parse,
    "preprocess.segment_sentences": _note_segment,
    "retrieve.evaluate_query": _note_eval,
    "extract.citation_concepts": _note_citation,
    "screen.screen_citation": _note_screen,
    "rank.rank_citations": _note_rank,
    "retrieve.http": _note_http,
}


# ---------------------------------------------------------------------------
# Analysis, in the benchmark process
# ---------------------------------------------------------------------------

LAYERS = ("corpus", "preprocess", "retrieve", "tree", "extract", "screen", "rank",
          "evaluate", "pipeline")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, span_id, parent, topic, extra in spans:
        if parent is not None and end is not None:
            covered[parent] += end - start
    return [(s[2] - s[1]) - covered[i] if s[2] is not None else 0.0
            for i, s in enumerate(spans)]


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 if undefined."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 1 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def summarize(trace: dict, run_s: float, setup_s: float, topic_total_s: float,
              setup_end: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and each layer's share of ``run_s`` (in %).

    ``setup_end`` is the monotonic time the first topic began; spans
    that end before it are set-up work and count in the setup share.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    self_by: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    rank_points = []
    for span, own in zip(spans, selfs):
        name = span[0]
        self_by[name] += own
        calls[name] += 1
        if span[2] is not None and span[2] > setup_end:
            layer_self[name.split(".")[0]] += own
        if name == "rank.rank_citations" and span[6] is not None:
            rank_points.append((span[6], span[2] - span[1]))
    c = Counter(trace["counters"])
    distinct = trace["distinct"]

    def ratio(a, b):
        return a / b if b else 0.0

    screened = calls["screen.screen_citation"]
    accepted = sum(c[f"screen.accepted_c{k}"] for k in range(1, 5))
    evaluated = c["retrieve.citations_evaluated"]
    m = {
        "corpus.parse_s": self_by["corpus.parse_citation_xml"],
        "corpus.records_parsed": c["corpus.records_parsed"],
        "corpus.parses_per_record": ratio(c["corpus.records_parsed"],
                                          distinct.get("corpus.pmids", 0)),
        "preprocess.segment_s": self_by["preprocess.segment_sentences"],
        "preprocess.segment_calls": calls["preprocess.segment_sentences"],
        "preprocess.expand_s": self_by["preprocess.expand_abbreviations"],
        "preprocess.sentences": c["preprocess.sentences"],
        "retrieve.query_build_s": self_by["retrieve.build_query"],
        "retrieve.query_eval_s": self_by["retrieve.evaluate_query"],
        "retrieve.citations_evaluated": evaluated,
        "retrieve.match_ratio": ratio(c["retrieve.citations_matched"], evaluated),
        "retrieve.pubtype_calls_per_citation": ratio(
            c["retrieve.infer_publication_type"], evaluated),
        "retrieve.http_requests": calls["retrieve.http"],
        "retrieve.http_errors": c["retrieve.http_errors"],
        "retrieve.http_s": self_by["retrieve.http"],
        "retrieve.ratelimit_wait_s": self_by["retrieve.ratelimit_wait"],
        "retrieve.bytes_received": c["retrieve.bytes_received"],
        "tree.parse_s": self_by["tree.parse_phrase_tree"],
        "tree.parse_calls": calls["tree.parse_phrase_tree"],
        "extract.population_s": self_by["extract.extract_population"],
        "extract.dictionary_s": self_by["extract.extract_concepts"],
        "extract.drug_norm_s": self_by["extract.normalize_drug_components"],
        "extract.concept_set_calls": calls["extract.build_concept_set"],
        "extract.citations_extracted": calls["extract.citation_concepts"],
        "extract.repeat_ratio": ratio(calls["extract.citation_concepts"],
                                      distinct.get("extract.pmids", 0)),
        "screen.s": self_by["screen.screen_citation"],
        "screen.calls": screened,
        **{f"screen.accepted_c{k}": c[f"screen.accepted_c{k}"] for k in range(1, 5)},
        "screen.rejected": c["screen.rejected"],
        "screen.accept_ratio": ratio(accepted, screened),
        "rank.s": self_by["rank.rank_citations"],
        "rank.candidates": c["rank.candidates"],
        "rank.growth_exp": growth_exponent(rank_points),
        "evaluate.s": sum(v for k, v in self_by.items() if k.startswith("evaluate.")),
        "pipeline.self_s": self_by["pipeline.run_topic"],
        "pipeline.topics": calls["pipeline.run_topic"],
        "cli.self_s": run_s - setup_s - topic_total_s,
        "trace.unmeasured_hooks": len(trace["unmeasured"]),
    }
    shares = {"setup": 100 * setup_s / run_s}
    for layer in LAYERS:
        shares[layer] = 100 * layer_self[layer] / run_s
    shares["cli"] = 100 - sum(shares.values())
    return m, shares
