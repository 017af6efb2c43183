"""End-to-end orchestration: resources, per-topic runs, and reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from citescreen import corpus, preprocess
from citescreen.corpus import (
    Citation,
    ClinicalTopic,
    ConceptLexicon,
    DrugDictionary,
    HyponymTable,
)
from citescreen.errors import ConfigError, FormatError
from citescreen.extract import ConceptSet, build_concept_set
from citescreen.evaluate import ConfusionCounts, aggregate_topics, macro_average, prf
from citescreen.rank import RankedResult, WeightConfig, rank_citations
from citescreen.retrieve import (
    EndpointConfig,
    FixtureCorpus,
    _RateLimiter,
    build_query,
    fetch_citations,
)
from citescreen.screen import (
    QUALIFIER_WHITELIST,
    CitationConcepts,
    ScreeningDecision,
    concept_keys,
    detect_conclusion,
    major_mesh_keys,
    screen_citation,
    screening_query,
)


#: Each resource file: its ``Resources`` field, its config ``paths`` key,
#: its loader and its bundled file name.
RESOURCE_FILES = (
    ("lexicon", "lexicon", corpus.load_lexicon, "lexicon.tsv"),
    ("drugs", "drug_hierarchy", corpus.load_drug_dictionary, "drug_hierarchy.txt"),
    ("hyponyms", "hyponyms", corpus.load_hyponym_table, "hyponyms.tsv"),
    ("synonyms", "synonyms", corpus.load_synonym_table, "synonyms.tsv"),
    ("journal_whitelist", "journals", corpus.load_journal_whitelist, "journals.txt"),
)


@dataclass
class Resources:
    """Dictionaries, weights and fetch settings shared by all stages.

    One ``Resources`` serves one run.  It fetches from the corpus of
    ``fixture_dir``, parsed at the first fetch, or else from the live
    ``endpoint``.  It extracts each citation's concepts and screening keys
    once, so every topic of the run reuses them; corpus files changed on
    disk during the run are not read again.  It stems each population word
    once, through one word -> stem table.  One rate limiter spaces every
    live request of the run.
    """

    lexicon: ConceptLexicon
    drugs: DrugDictionary
    hyponyms: HyponymTable
    synonyms: dict[str, str]
    journal_whitelist: list[str]
    weights: WeightConfig = WeightConfig()
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    fixture_dir: str | None = None
    min_year: int = 1974
    qualifier_whitelist: frozenset[str] = QUALIFIER_WHITELIST
    _corpus: FixtureCorpus | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _concepts: dict[int, tuple[Citation, CitationConcepts]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _limiter: _RateLimiter = field(
        default_factory=_RateLimiter, init=False, repr=False, compare=False
    )
    _stems: dict[str, str | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def fetch(self, query: str) -> list[Citation]:
        """``fetch_citations``; a fixture corpus is parsed at the first fetch."""
        if self.fixture_dir and self._corpus is None:
            self._corpus = FixtureCorpus(self.fixture_dir)
        return fetch_citations(query, self.endpoint, self._corpus, self._limiter)

    def concepts(self, citation: Citation) -> CitationConcepts:
        """``citation_concepts`` of the record, extracted once per run.

        A different record under a PMID already seen is extracted anew.
        """
        seen = self._concepts.get(citation.pmid)
        if seen is None or (seen[0] is not citation and seen[0] != citation):
            seen = (citation, citation_concepts(citation, self))
            self._concepts[citation.pmid] = seen
        return seen[1]

    @classmethod
    def bundled(cls, **overrides) -> "Resources":
        """The bundled resource files, except where ``overrides`` names a field."""
        return cls(**{name: load(corpus.bundled_path(filename))
                      for name, _, load, filename in RESOURCE_FILES
                      if name not in overrides}, **overrides)


_CONFIG_KEYS = ("paths", "weights", "endpoint", "fixture_dir", "min_year",
                "qualifier_whitelist")


def _check_keys(table: dict, known, prefix: str = "") -> None:
    for key in table:
        if key not in known:
            raise ConfigError(f"unknown key {prefix + key!r}")


def load_resources(config: str | None, fixture_dir: str | None) -> Resources:
    """The run's ``Resources``: bundled, with the JSON ``config`` file's settings.

    ``fixture_dir`` (``--fixture-dir``) wins over the config's
    ``fixture_dir``.  A config that cannot be read or is not UTF-8 JSON, a
    value of the wrong type, an unknown key at the top level or in
    ``paths``, ``weights`` or ``endpoint``, a ``paths`` file that cannot
    be read or breaks its format, and a lexicon file without entries are
    a ``ConfigError`` naming the config file.
    """
    settings = {}
    if config:
        try:
            raw = json.loads(corpus.read_text(config))
        except FormatError as exc:  # it starts with the file's name
            raise ConfigError(f"cannot read config {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {config}: {exc}") from exc
        try:
            settings = _config_settings(raw)
        except ConfigError as exc:
            raise ConfigError(f"config {config}: {exc}") from exc
    if fixture_dir:
        settings["fixture_dir"] = fixture_dir
    return Resources.bundled(**settings)


def _config_settings(raw) -> dict:
    """The ``Resources`` fields a parsed config sets, by field name."""
    if not isinstance(raw, dict):
        raise ConfigError("the top level must be a JSON object")
    _check_keys(raw, _CONFIG_KEYS)
    paths = raw.get("paths", {})
    if not isinstance(paths, dict):
        raise ConfigError("paths must be a JSON object")
    _check_keys(paths, [key for _, key, _, _ in RESOURCE_FILES], "paths.")
    settings = {}
    for name, key, load, _ in RESOURCE_FILES:
        if key not in paths:
            continue
        if not isinstance(paths[key], str):
            raise ConfigError(f"paths.{key} must be a file name, not {paths[key]!r}")
        try:
            settings[name] = load(paths[key])
        except FormatError as exc:  # it starts with the file's name
            raise ConfigError(f"paths.{key} file {exc}") from exc
        if name == "lexicon" and not settings[name].entries:
            raise ConfigError(f"paths.lexicon file {paths[key]} has no entries")
    if "weights" in raw:
        w = raw["weights"]
        if isinstance(w, dict):
            _check_keys(w, ("w1", "w2", "w3"), "weights.")
        try:
            settings["weights"] = WeightConfig(w["w1"], w["w2"], w["w3"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"weights need numeric w1, w2 and w3: {exc}") from exc
    endpoint = raw.get("endpoint", {})
    if not isinstance(endpoint, dict):
        raise ConfigError("endpoint must be a JSON object")
    _check_keys(endpoint, [f.name for f in fields(EndpointConfig)], "endpoint.")
    settings["endpoint"] = EndpointConfig(**endpoint)
    if "fixture_dir" in raw:
        if not isinstance(raw["fixture_dir"], (str, type(None))):
            raise ConfigError(f"fixture_dir must be a directory name, "
                              f"not {raw['fixture_dir']!r}")
        settings["fixture_dir"] = raw["fixture_dir"]
    if "min_year" in raw:
        if type(raw["min_year"]) is not int:
            raise ConfigError(f"min_year must be an integer, not {raw['min_year']!r}")
        if raw["min_year"] < 1900:
            raise ConfigError(f"min_year must be >= 1900, not {raw['min_year']}")
        settings["min_year"] = raw["min_year"]
    if "qualifier_whitelist" in raw:
        qualifiers = raw["qualifier_whitelist"]
        if not (isinstance(qualifiers, list)
                and all(isinstance(q, str) for q in qualifiers)):
            raise ConfigError(f"qualifier_whitelist must be a list of strings, "
                              f"not {qualifiers!r}")
        settings["qualifier_whitelist"] = frozenset(qualifiers)
    return settings


def citation_concepts(citation: Citation, res: Resources) -> CitationConcepts:
    sentences, _ = preprocess.expand_abbreviations(list(citation.abstract))
    title, *units = [build_concept_set(text, res.lexicon, res.drugs, res.synonyms,
                                       res._stems)
                     for text in (citation.title, *sentences)]
    return CitationConcepts(
        whole=ConceptSet.merged([title, *units]),
        title=concept_keys(title, res.drugs),
        sentences=tuple(concept_keys(u, res.drugs) for u in units),
        mesh=major_mesh_keys(citation, res.drugs),
        conclusion=tuple(detect_conclusion(citation)),
    )


def topic_concepts(topic: ClinicalTopic, res: Resources) -> ConceptSet:
    return build_concept_set(topic.title, res.lexicon, res.drugs, res.synonyms,
                             res._stems)


@dataclass
class TopicRun:
    topic: ClinicalTopic
    query_concepts: ConceptSet
    query_string: str
    fetched_pmids: list[int]
    decisions: list[ScreeningDecision]
    ranked: list[RankedResult]


def run_topic(topic: ClinicalTopic, res: Resources) -> TopicRun:
    """The full per-topic pipeline: query, fetch, screen, rank."""
    query_concepts = topic_concepts(topic, res)
    query_string = build_query(
        topic, query_concepts, res.hyponyms, res.journal_whitelist, res.min_year,
    )
    fetched = res.fetch(query_string)

    query = screening_query(query_concepts, res.drugs, res.qualifier_whitelist)
    decisions: list[ScreeningDecision] = []
    per_citation: dict[int, ConceptSet] = {}
    for citation in fetched:
        concepts = res.concepts(citation)
        decision = screen_citation(query, citation, concepts)
        decisions.append(decision)
        if decision.accepted:
            per_citation[citation.pmid] = concepts.whole

    ranked = rank_citations(
        sorted(per_citation), query_concepts, per_citation, res.weights
    )
    return TopicRun(
        topic=topic,
        query_concepts=query_concepts,
        query_string=query_string,
        fetched_pmids=[c.pmid for c in fetched],
        decisions=decisions,
        ranked=ranked,
    )


def ranked_tsv(ranked: list[RankedResult]) -> str:
    lines = ["rank\tpmid\tpop_sim\tint_sim\tdis_sim\tvsm_score"]
    for i, r in enumerate(ranked, start=1):
        lines.append(
            f"{i}\t{r.pmid}\t{r.pop_sim:.6f}\t{r.int_sim:.6f}"
            f"\t{r.dis_sim:.6f}\t{r.vsm_score:.6f}"
        )
    return "\n".join(lines) + "\n"


def ranked_json(ranked: list[RankedResult]) -> str:
    return json.dumps(
        [
            {
                "rank": i,
                "pmid": r.pmid,
                "pop_sim": round(r.pop_sim, 6),
                "int_sim": round(r.int_sim, 6),
                "dis_sim": round(r.dis_sim, 6),
                "vsm_score": round(r.vsm_score, 6),
            }
            for i, r in enumerate(ranked, start=1)
        ],
        indent=2,
    )


def _percent(scores: tuple[float, float, float]) -> dict:
    """Precision, recall and F as percentages rounded to one decimal."""
    p, r, f = scores
    return {
        "precision": round(100 * p, 1),
        "recall": round(100 * r, 1),
        "f_score": round(100 * f, 1),
    }


def metric_report(
    per_topic: dict[str, ConfusionCounts],
    gold_k: dict[str, ConfusionCounts] | None = None,
) -> dict:
    topics = {}
    for topic_id, counts in sorted(per_topic.items()):
        entry = {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn,
                 **_percent(prf(counts))}
        if gold_k and topic_id in gold_k:
            entry["gold_k"] = _percent(prf(gold_k[topic_id]))
        topics[topic_id] = entry
    report = {
        "topics": topics,
        "overall_micro": _percent(aggregate_topics(list(per_topic.values()))),
        "overall_macro": _percent(macro_average(list(per_topic.values()))),
    }
    if gold_k:
        gold_k_micro = aggregate_topics(list(gold_k.values()))
        report["overall_gold_k_micro"] = _percent(gold_k_micro)
    return report
