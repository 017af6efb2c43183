"""The per-run state on Resources.

One ``Resources`` parses the fixture corpus at its first fetch and
extracts each citation's concepts once, however many topics fetch it;
one rate limiter spaces its live requests.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
import requests

from citescreen import pipeline, retrieve, screen
from citescreen.corpus import Citation, ClinicalTopic, load_gold_standard
from citescreen.extract import population_terms
from citescreen.pipeline import Resources, load_resources, run_topic

T1 = ClinicalTopic("T1", "Diuretics for heart failure in elderly patients")
LOOP = ClinicalTopic("L", "Loop diuretics in heart failure")


@pytest.fixture
def fresh_resources(fixture_corpus_dir):
    def make() -> Resources:
        return load_resources(None, str(fixture_corpus_dir))
    return make


@pytest.fixture
def calls(monkeypatch):
    """The first argument of every citation_concepts / load_fixture_corpus call."""
    seen = {"citation_concepts": [], "load_fixture_corpus": []}

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name].append(args[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    record(pipeline, "citation_concepts")
    record(retrieve, "load_fixture_corpus")
    return seen


def test_shared_citations_are_extracted_once(fresh_resources, calls):
    res = fresh_resources()
    first, second = run_topic(T1, res), run_topic(LOOP, res)
    shared = set(first.fetched_pmids) & set(second.fetched_pmids)
    assert shared
    pmids = [c.pmid for c in calls["citation_concepts"]]
    assert Counter(pmids) == Counter(
        set(first.fetched_pmids) | set(second.fetched_pmids)
    )


def test_screening_keys_are_derived_once_per_run(fresh_resources, calls,
                                                 monkeypatch):
    """One ``population_terms`` per topic and per unit of each citation."""
    stemmed = []

    def counted(bag):
        stemmed.append(list(bag))
        return population_terms(bag)
    monkeypatch.setattr(screen, "population_terms", counted)
    res = fresh_resources()
    first, second = run_topic(T1, res), run_topic(LOOP, res)
    assert set(first.fetched_pmids) & set(second.fetched_pmids)
    fetched = calls["citation_concepts"]
    assert len({c.pmid for c in fetched}) == len(fetched)
    units = sum(1 + len(c.abstract) for c in fetched)  # the title and each sentence
    assert len(stemmed) == 2 + units
    run_topic(T1, res)  # a topic over kept citations derives only its query
    assert len(stemmed) == 3 + units


def test_corpus_is_parsed_once_per_resources(fresh_resources, gold_path, calls):
    topics = load_gold_standard(str(gold_path))
    res = fresh_resources()
    assert calls["load_fixture_corpus"] == []  # nothing is read before a fetch
    for topic in topics:
        run_topic(topic, res)
    assert len(calls["load_fixture_corpus"]) == 1
    run_topic(topics[0], fresh_resources())
    assert len(calls["load_fixture_corpus"]) == 2


def test_other_record_under_same_pmid_is_extracted_again(fresh_resources,
                                                         calls):
    res = fresh_resources()
    heart = Citation(pmid=7, title="Furosemide in elderly patients with heart failure")
    stroke = Citation(pmid=7, title="Warfarin in children after stroke")
    heart_concepts = res.concepts(heart)
    stroke_concepts = res.concepts(stroke)
    assert heart_concepts != stroke_concepts
    assert stroke_concepts == pipeline.citation_concepts(stroke, res)
    # an equal record is the same record, even as another object
    res.concepts(Citation(pmid=7, title=stroke.title))
    assert calls["citation_concepts"] == [heart, stroke, stroke]


def test_shared_resources_give_the_same_runs(fresh_resources, gold_path):
    topics = [*load_gold_standard(str(gold_path)), LOOP, T1]
    shared = fresh_resources()
    assert [run_topic(t, shared) for t in topics] == \
        [run_topic(t, fresh_resources()) for t in topics]


def test_one_rate_limiter_spaces_requests_across_fetches(monkeypatch):
    """Back-to-back live fetches of one run keep the rate interval."""
    clock = [1000.0]
    sent = []

    def sleep(seconds):
        clock[0] += seconds

    def fake_get(url, params=None, timeout=None):
        sent.append(clock[0])
        return SimpleNamespace(status_code=200, headers={},
                               text="<eSearchResult><Count>0</Count></eSearchResult>")

    monkeypatch.setattr(retrieve.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(retrieve.time, "sleep", sleep)
    monkeypatch.setattr(requests, "get", fake_get)
    res = Resources.bundled(endpoint=retrieve.EndpointConfig(
        endpoint_base_url="https://api.example/entrez", rate_limit_ms=100))
    res.fetch('"heart failure"[MeSH]')
    res.fetch('"hypertension"[MeSH]')
    assert len(sent) == 2
    assert sent[1] - sent[0] >= 0.1
