"""The per-run state on Resources.

One ``Resources`` parses the fixture corpus at its first fetch and
extracts each citation's concepts once, however many topics fetch it;
one rate limiter spaces its live requests.
"""

import re
from collections import Counter

import pytest

from citescreen import pipeline, preprocess, retrieve
from citescreen.corpus import Citation, ClinicalTopic, load_gold_standard
from citescreen.extract import extract_population, read
from citescreen.pipeline import Resources, load_resources, run_topic
from citescreen.screen import detect_conclusion
from citescreen.stemming import stem
from citescreen.tree import parse_phrase_tree

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


def _population_words(text: str, res: Resources) -> Counter:
    """Each distinct non-stopword word of ``text``'s population phrases, once."""
    tokens = text.split()
    spans = extract_population(parse_phrase_tree(text), read(text, res.lexicon))
    phrases = [preprocess.normalize_token(" ".join(tokens[start:end]))
               for start, end in spans]
    return Counter({w for phrase in phrases for w in phrase.split()
                    if w.lower() not in preprocess.STOPWORDS})


@pytest.fixture
def stemmed(monkeypatch):
    """Every word ``stem`` is called on."""
    words = []

    def counted(word):
        words.append(word)
        return stem(word)
    monkeypatch.setattr(preprocess, "stem", counted)
    return words


def test_screening_keys_are_derived_once_per_run(fresh_resources, calls, stemmed):
    """Screening and ranking read stems made once per run: one ``stem``
    call per distinct population word of the run, whichever citations'
    units and topics' titles hold it."""
    res = fresh_resources()
    first, second = run_topic(T1, res), run_topic(LOOP, res)
    assert set(first.fetched_pmids) & set(second.fetched_pmids)
    assert first.ranked and second.ranked
    fetched = calls["citation_concepts"]
    assert len({c.pmid for c in fetched}) == len(fetched)
    expected = _population_words(T1.title, res) | _population_words(LOOP.title, res)
    for c in fetched:
        sentences, _ = preprocess.expand_abbreviations(list(c.abstract))
        for unit in (c.title, *sentences):
            expected |= _population_words(unit, res)
    assert Counter(stemmed) == expected
    # a topic over kept citations and words already stemmed stems nothing,
    # and ranking stems nothing
    del stemmed[:]
    assert run_topic(T1, res).ranked == first.ranked
    assert stemmed == []


def _query_terms(query: str) -> list[tuple[str, str]]:
    """(value, lower-cased field) of each term token of a query string."""
    return [(value or year, (field or "year").lower()) for value, field, year in
            re.findall(r'"([^"]*)"\[(\w+)\]|(\d+):\[Year\]', query)]


def test_reuse_topic_derives_only_what_is_new(fresh_resources, monkeypatch):
    """A topic parses and normalizes only query tokens the run has not
    parsed, and finds the conclusion only of citations the run has not
    fetched; a repeated topic does neither."""
    res = fresh_resources()
    first = run_topic(T1, res)
    terms, conclusions = [], []
    made_term = retrieve._Term.__post_init__

    def counted_term(term):
        terms.append((term.value, term.fieldname))
        made_term(term)
    monkeypatch.setattr(retrieve._Term, "__post_init__", counted_term)
    monkeypatch.setattr(pipeline, "detect_conclusion",
                        lambda c: conclusions.append(c.pmid) or detect_conclusion(c))
    second = run_topic(LOOP, res)
    seen = set(_query_terms(first.query_string))
    assert seen & set(_query_terms(second.query_string))
    assert terms == list(dict.fromkeys(
        t for t in _query_terms(second.query_string) if t not in seen))
    new = set(second.fetched_pmids) - set(first.fetched_pmids)
    assert sorted(conclusions) == sorted(new)
    del terms[:], conclusions[:]
    assert run_topic(T1, res) == first
    assert (terms, conclusions) == ([], [])


def test_long_run_on_sentence_stems_each_word_once(resources, stemmed):
    """Nested phrases of a run-on sentence repeat their words; each distinct
    word is still stemmed once, not once per phrase holding it."""
    sentence = " ".join(
        ["patients with heart failure and the elderly who received furosemide"] * 200)
    assert len(sentence.split()) == 2000
    concepts = pipeline.citation_concepts(
        Citation(pmid=1, title="", abstract=[sentence]), resources)
    assert len(concepts.whole.population) > 200
    assert len(stemmed) == len(set(stemmed))
    assert len(stemmed) <= len(set(sentence.split()))


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
        return 200, {}, b"<eSearchResult><Count>0</Count></eSearchResult>"

    monkeypatch.setattr(retrieve.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(retrieve.time, "sleep", sleep)
    monkeypatch.setattr(retrieve, "_http_get", fake_get)
    res = Resources.bundled(endpoint=retrieve.EndpointConfig(
        endpoint_base_url="https://api.example/entrez", rate_limit_ms=100))
    res.fetch('"heart failure"[MeSH]')
    res.fetch('"hypertension"[MeSH]')
    assert len(sent) == 2
    assert sent[1] - sent[0] >= 0.1
