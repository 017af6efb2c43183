import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen import preprocess
from citescreen.corpus import (
    Citation,
    MeshTerm,
)
from citescreen.extract import ConceptSet, population_terms
from citescreen.pipeline import Resources
from citescreen.screen import (
    QUALIFIER_WHITELIST,
    CitationConcepts,
    ScreeningDecision,
    _covers,
    concept_keys,
    detect_conclusion,
    major_mesh_keys,
    match_mesh,
    screen_citation,
    screening_query,
)

from test_extract import bundled_drug_names

BUNDLED = Resources.bundled()
DRUGS = BUNDLED.drugs


@pytest.fixture(scope="module")
def drugs():
    return DRUGS


def _query(concepts, whitelist=QUALIFIER_WHITELIST):
    return screening_query(concepts, DRUGS, whitelist)


QUERY = ConceptSet(
    population=["elderly patients"],
    intervention=["diuretics"],
    disease=["heart failure"],
)

FULL = ConceptSet(
    population=["elderly patients"],
    intervention=["diuretics"],
    disease=["heart failure"],
)
POP_DIS = ConceptSet(population=["elderly patients"], disease=["heart failure"])
INT_ONLY = ConceptSet(intervention=["furosemide", "loop diuretics",
                                    "diuretics", "cardiovascular agents"])
INT_DIS = ConceptSet(intervention=["diuretics"], disease=["heart failure"])
EMPTY = ConceptSet()


def _citation(pmid, n_sentences, mesh=(), labels=None, title="A title"):
    abstract = tuple(f"Sentence number {i}." for i in range(n_sentences))
    return Citation(
        pmid=pmid, title=title, abstract=abstract,
        abstract_is_structured=labels is not None,
        section_labels=labels, mesh_terms=tuple(mesh),
    )


def _concepts(citation, title, sentences):
    """What ``pipeline.citation_concepts`` keeps for ``citation`` with these
    concept sets."""
    return CitationConcepts(
        whole=ConceptSet.merged([title, *sentences]),
        title=concept_keys(title, DRUGS),
        sentences=tuple(concept_keys(s, DRUGS) for s in sentences),
        mesh=major_mesh_keys(citation, DRUGS),
        conclusion=tuple(detect_conclusion(citation)),
    )


# One hand-assigned case per constraint plus rejections.  Each row is
# (pmid, citation, concepts, expected_constraint_or_None).
def _fixture():
    rows = []

    def row(pmid, citation, title, sentences, expected):
        rows.append((pmid, citation, _concepts(citation, title, sentences), expected))

    # 1: matching MeSH descriptor, whitelisted qualifier, major topic
    row(1, _citation(1, 2, mesh=[MeshTerm("Heart Failure", "therapy", True)]),
        EMPTY, [EMPTY, EMPTY], 1)
    # 2: MeSH match through the drug hierarchy (furosemide is a diuretic)
    row(2, _citation(2, 2, mesh=[MeshTerm("Furosemide", "therapeutic use", True)]),
        EMPTY, [EMPTY, EMPTY], 1)
    # 3: full coverage in the title; qualifier outside the whitelist
    row(3, _citation(3, 2, mesh=[MeshTerm("Heart Failure", "metabolism", True)]),
        FULL, [EMPTY, EMPTY], 2)
    # 4: title coverage via hierarchy expansion of a specific drug
    row(4, _citation(4, 2),
        ConceptSet(population=["elderly patients"],
                   intervention=["furosemide"],
                   disease=["heart failure"]),
        [EMPTY, EMPTY], 2)
    # 5: structured abstract, coverage inside the labelled conclusion
    row(5, _citation(5, 3, labels={0: "BACKGROUND", 1: "METHODS",
                                   2: "CONCLUSIONS"}),
        INT_DIS, [EMPTY, EMPTY, FULL], 3)
    # 6: unstructured, no cues; merged last two sentences cover
    row(6, _citation(6, 4), INT_DIS, [EMPTY, EMPTY, POP_DIS, INT_ONLY], 3)
    # 7: single mid-abstract sentence covers everything
    row(7, _citation(7, 3), INT_DIS, [FULL, EMPTY, EMPTY], 4)
    # 8: coverage split across an adjacent sentence pair
    row(8, _citation(8, 4), INT_DIS, [POP_DIS, INT_ONLY, EMPTY, EMPTY], 4)
    # 9: no population mention anywhere
    row(9, _citation(9, 3), INT_DIS, [INT_DIS, INT_DIS, INT_DIS], None)
    # 10: disease never matches exactly (narrower form only)
    narrower = ConceptSet(population=["elderly patients"],
                          intervention=["diuretics"],
                          disease=["congestive heart failure"])
    row(10, _citation(10, 3), narrower, [narrower, narrower, narrower], None)
    # 11: intervention from an unrelated branch of the hierarchy
    unrelated = ConceptSet(population=["elderly patients"],
                           intervention=["warfarin"],
                           disease=["heart failure"])
    row(11, _citation(11, 3, mesh=[MeshTerm("Warfarin", "therapeutic use", True)]),
        unrelated, [unrelated, EMPTY, EMPTY], None)
    # 12: no abstract, bare title, MeSH not marked as major topic
    row(12, Citation(pmid=12, title="A note",
                     mesh_terms=(MeshTerm("Heart Failure", "therapy", False),)),
        EMPTY, [], None)
    return rows


class TestScreeningFixture:
    @pytest.mark.parametrize("pmid,citation,concepts,expected",
                             _fixture(), ids=[str(r[0]) for r in _fixture()])
    def test_lowest_constraint(self, drugs, pmid, citation, concepts, expected):
        decision = screen_citation(_query(QUERY), citation, concepts)
        assert decision.matched_constraint == expected
        assert decision.accepted == (expected is not None)

    @pytest.mark.parametrize("pmid,citation,concepts,expected",
                             [r for r in _fixture() if r[3] is not None],
                             ids=[str(r[0]) for r in _fixture()
                                  if r[3] is not None])
    def test_short_circuit(self, drugs, pmid, citation, concepts, expected):
        """Independently re-check that every lower constraint fails."""
        if expected > 1:
            assert match_mesh(_query(QUERY), concepts) is None
        if expected > 2:
            assert not _covers(_query(QUERY).keys, [concepts.title])
        if expected > 3:
            conclusion = detect_conclusion(citation)
            units = [concepts.sentences[i] for i in conclusion]
            assert not _covers(_query(QUERY).keys, units)

    def test_emptier_queries_never_lose_acceptance(self, drugs):
        # Coverage-based constraints only ask about non-empty query bags,
        # so removing a bag can never flip an accepted citation.  (The
        # MeSH constraint is different: it matches against a specific
        # bag, so it is excluded here.)
        for pmid, citation, concepts, expected in _fixture():
            if expected is None or expected < 2:
                continue
            for category in ("population", "intervention", "disease"):
                relaxed = ConceptSet(
                    population=list(QUERY.population),
                    intervention=list(QUERY.intervention),
                    disease=list(QUERY.disease),
                )
                getattr(relaxed, category).clear()
                decision = screen_citation(_query(relaxed), citation, concepts)
                assert decision.accepted, (pmid, category)


class TestConclusionDetection:
    def test_structured_labels(self):
        c = _citation(1, 3, labels={0: "BACKGROUND", 1: "Conclusions and Relevance",
                                    2: "FUNDING"})
        assert detect_conclusion(c) == [1]

    def test_cue_phrases(self):
        c = Citation(pmid=1, title="t", abstract=(
            "We ran a trial.", "In conclusion, it worked.", "Funding was public.",
        ))
        assert detect_conclusion(c) == [1]

    def test_last_two_fallback(self):
        c = _citation(1, 5)
        assert detect_conclusion(c) == [3, 4]

    def test_single_sentence_abstract(self):
        c = _citation(1, 1)
        assert detect_conclusion(c) == [0]

    def test_no_abstract(self):
        assert detect_conclusion(Citation(pmid=1, title="t")) == []


class TestDecisionInvariants:
    def test_accepted_mirrors_constraint(self):
        with pytest.raises(ValueError):
            ScreeningDecision(1, True, None)
        with pytest.raises(ValueError):
            ScreeningDecision(1, False, 2)

    def test_qualifier_whitelist_size(self):
        assert len(QUALIFIER_WHITELIST) == 22
        assert "drug therapy" in QUALIFIER_WHITELIST
        assert "metabolism" not in QUALIFIER_WHITELIST

    def test_population_match_is_stem_based(self, drugs):
        query = ConceptSet(population=["elderly patients"])
        unit = ConceptSet(population=["an elderly cohort of patients"])
        assert _covers(_query(query).keys, [concept_keys(unit, drugs)])

    def test_custom_qualifier_whitelist(self, drugs):
        citation = _citation(1, 1,
                             mesh=[MeshTerm("Heart Failure", "history", True)])
        concepts = _concepts(citation, EMPTY, [EMPTY])
        assert match_mesh(_query(QUERY), concepts) is None
        assert match_mesh(_query(QUERY, frozenset({"history"})),
                          concepts) is not None


class TestQueryBags:
    def test_stopword_only_bag_never_covers(self):
        # An empty query bag imposes nothing; a non-empty bag whose phrases
        # stem to no key can never be covered, so it rejects.
        assert population_terms(["those who"]) == []
        citation = Citation(pmid=1, title="Those elderly patients with heart failure")
        concepts = _concepts(citation, ConceptSet(population=["those elderly patients"],
                                                  disease=["heart failure"]), [])
        stopwords_only = ConceptSet(population=["those who"], disease=["heart failure"])
        decision = screen_citation(_query(stopwords_only), citation, concepts)
        assert not decision.accepted
        decision = screen_citation(_query(ConceptSet(disease=["heart failure"])),
                                   citation, concepts)
        assert decision.matched_constraint == 2


# --------------------------------------------------------------------------
# Differential check against the merge-then-derive screening path, which
# merged the concept sets of a conclusion or window and then stemmed and
# expanded the merged set on every call.
# --------------------------------------------------------------------------

def _ref_expand(terms, drugs):
    expanded = set()
    for t in terms:
        expanded.add(t)
        expanded.update(preprocess.normalize_token(n) for n in drugs.hierarchy(t))
    return expanded


def _ref_covers(query, unit, drugs):
    if query.population and not (set(population_terms(query.population))
                                 & set(population_terms(unit.population))):
        return False
    if query.intervention and not (_ref_expand(query.intervention, drugs)
                                   & _ref_expand(unit.intervention, drugs)):
        return False
    if query.disease and not set(query.disease) & set(unit.disease):
        return False
    return True


def _ref_match_mesh(query, citation, drugs, qualifier_whitelist):
    query_terms = _ref_expand(list(query.disease) + list(query.intervention), drugs)
    whitelist = {q.lower() for q in qualifier_whitelist}
    for term in citation.mesh_terms:
        if not term.is_major_topic or term.qualifier is None:
            continue
        if term.qualifier.strip().lower() not in whitelist:
            continue
        descriptor = preprocess.normalize_token(term.descriptor)
        if _ref_expand([descriptor], drugs) & query_terms:
            return f"{descriptor}/{term.qualifier.strip().lower()}"
    return None


def _ref_merge(sentence_sets, indices):
    return ConceptSet.merged(
        sentence_sets[i] for i in indices if 0 <= i < len(sentence_sets)
    )


def _ref_screen(query, citation, title, sentences, drugs, qualifier_whitelist):
    evidence = _ref_match_mesh(query, citation, drugs, qualifier_whitelist)
    if evidence is not None:
        return ScreeningDecision(citation.pmid, True, 1, evidence)
    if _ref_covers(query, title, drugs):
        return ScreeningDecision(citation.pmid, True, 2, citation.title)
    conclusion = detect_conclusion(citation)
    if conclusion and _ref_covers(query, _ref_merge(sentences, conclusion), drugs):
        excerpt = " ".join(citation.abstract[i] for i in conclusion)
        return ScreeningDecision(citation.pmid, True, 3, excerpt)
    for i in range(len(sentences)):
        for window in ([i], [i, i + 1]):
            if window[-1] < len(sentences) and _ref_covers(
                query, _ref_merge(sentences, window), drugs
            ):
                excerpt = " ".join(citation.abstract[j] for j in window)
                return ScreeningDecision(citation.pmid, True, 4, excerpt)
    return ScreeningDecision(citation.pmid, False, None, "")


_LEXICON = BUNDLED.lexicon


def _surfaces(*groups):
    return sorted({surface for surface, group in _LEXICON.entries if group in groups})


def _vocabulary(common, everything):
    """Mostly a few shared terms, so that bags overlap; sometimes any term."""
    return st.one_of(st.sampled_from(common), st.sampled_from(everything))


_POPULATION_WORDS = _vocabulary(
    ["elderly", "patients", "older", "adults", "cohort", "those", "who", "with"],
    _surfaces("population") + ["the", "of", "those", "who", "aged"],
)
_POPULATION = st.lists(_POPULATION_WORDS, min_size=1, max_size=4).map(" ".join)
_DRUG_NAMES = sorted(bundled_drug_names())
_INTERVENTION = _vocabulary(
    ["diuretics", "furosemide", "loop diuretics", "warfarin", "placebo"],
    [preprocess.normalize_token(n) for n in _DRUG_NAMES]
    + _surfaces("procedure", "device") + ["unknownium"],
)
_DISEASE = _vocabulary(
    ["heart failure", "congestive heart failure", "stroke"],
    _surfaces("disorder"),
)
_CONCEPT_SETS = st.builds(
    ConceptSet,
    population=st.lists(_POPULATION, max_size=3),
    intervention=st.lists(_INTERVENTION, max_size=3),
    disease=st.lists(_DISEASE, max_size=3),
)
_QUALIFIERS = st.one_of(
    st.none(),
    st.sampled_from(sorted(QUALIFIER_WHITELIST) + ["metabolism", "history"]).flatmap(
        lambda q: st.sampled_from([q, q.upper(), f" {q.title()} "])
    ),
)
_MESH = st.builds(
    MeshTerm,
    descriptor=_vocabulary(["Heart Failure", "Furosemide", "Diuretics"],
                           ["Stroke", "Hypertension", *_DRUG_NAMES]),
    qualifier=_QUALIFIERS,
    is_major_topic=st.booleans(),
)
_LABELS = ["BACKGROUND", "METHODS", "RESULTS", "CONCLUSIONS", "Conclusion:",
           "Interpretation"]


@st.composite
def _screening_cases(draw):
    n = draw(st.integers(0, 6))
    abstract = tuple(
        draw(st.sampled_from([f"Sentence {i}.", f"In conclusion, finding {i}."]))
        for i in range(n)
    )
    structured = n > 0 and draw(st.booleans())
    labels = (
        draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(_LABELS),
                             min_size=1))
        if structured else None
    )
    citation = Citation(
        pmid=draw(st.integers(1, 10**6)), title="A title", abstract=abstract,
        abstract_is_structured=structured, section_labels=labels,
        mesh_terms=tuple(draw(st.lists(_MESH, max_size=3))),
    )
    whitelist = draw(st.sampled_from(
        [QUALIFIER_WHITELIST, frozenset({"History", "THERAPY"})]
    ))
    title = draw(_CONCEPT_SETS)
    sentences = [draw(_CONCEPT_SETS) for _ in range(n)]
    return draw(_CONCEPT_SETS), citation, title, sentences, whitelist


@settings(max_examples=300, deadline=None)
@given(_screening_cases())
def test_screening_matches_merge_then_derive_reference(case):
    query, citation, title, sentences, whitelist = case
    decision = screen_citation(
        _query(query, whitelist), citation, _concepts(citation, title, sentences)
    )
    assert decision == _ref_screen(query, citation, title, sentences, DRUGS,
                                   whitelist)


@settings(max_examples=100, deadline=None)
@given(_CONCEPT_SETS, _CONCEPT_SETS)
def test_keys_of_a_merged_set_are_the_union_of_keys(a, b):
    merged = concept_keys(ConceptSet.merged([a, b]), DRUGS)
    assert merged == tuple(
        x | y for x, y in zip(concept_keys(a, DRUGS), concept_keys(b, DRUGS))
    )
