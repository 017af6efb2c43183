import pytest

from citescreen.corpus import Citation, MeshTerm, default_drug_dictionary
from citescreen.extract import ConceptSet
from citescreen.screen import (
    QUALIFIER_WHITELIST,
    CitationConcepts,
    ScreeningDecision,
    _covers,
    _query_keys,
    _merge,
    detect_conclusion,
    match_mesh,
    screen_citation,
)


@pytest.fixture(scope="module")
def drugs():
    return default_drug_dictionary()


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


def _concepts(title, sentences):
    return CitationConcepts(title=title, sentences=list(sentences))


# One hand-assigned case per constraint plus rejections.  Each row is
# (pmid, citation, concepts, expected_constraint_or_None).
def _fixture():
    rows = []
    # 1: matching MeSH descriptor, whitelisted qualifier, major topic
    rows.append((
        1,
        _citation(1, 2, mesh=[MeshTerm("Heart Failure", "therapy", True)]),
        _concepts(EMPTY, [EMPTY, EMPTY]),
        1,
    ))
    # 2: MeSH match through the drug hierarchy (furosemide is a diuretic)
    rows.append((
        2,
        _citation(2, 2, mesh=[MeshTerm("Furosemide", "therapeutic use", True)]),
        _concepts(EMPTY, [EMPTY, EMPTY]),
        1,
    ))
    # 3: full coverage in the title; qualifier outside the whitelist
    rows.append((
        3,
        _citation(3, 2, mesh=[MeshTerm("Heart Failure", "metabolism", True)]),
        _concepts(FULL, [EMPTY, EMPTY]),
        2,
    ))
    # 4: title coverage via hierarchy expansion of a specific drug
    rows.append((
        4,
        _citation(4, 2),
        _concepts(
            ConceptSet(population=["elderly patients"],
                       intervention=["furosemide"],
                       disease=["heart failure"]),
            [EMPTY, EMPTY],
        ),
        2,
    ))
    # 5: structured abstract, coverage inside the labelled conclusion
    rows.append((
        5,
        _citation(5, 3, labels={0: "BACKGROUND", 1: "METHODS",
                                2: "CONCLUSIONS"}),
        _concepts(INT_DIS, [EMPTY, EMPTY, FULL]),
        3,
    ))
    # 6: unstructured, no cues; merged last two sentences cover
    rows.append((
        6,
        _citation(6, 4),
        _concepts(INT_DIS, [EMPTY, EMPTY, POP_DIS, INT_ONLY]),
        3,
    ))
    # 7: single mid-abstract sentence covers everything
    rows.append((
        7,
        _citation(7, 3),
        _concepts(INT_DIS, [FULL, EMPTY, EMPTY]),
        4,
    ))
    # 8: coverage split across an adjacent sentence pair
    rows.append((
        8,
        _citation(8, 4),
        _concepts(INT_DIS, [POP_DIS, INT_ONLY, EMPTY, EMPTY]),
        4,
    ))
    # 9: no population mention anywhere
    rows.append((
        9,
        _citation(9, 3),
        _concepts(INT_DIS, [INT_DIS, INT_DIS, INT_DIS]),
        None,
    ))
    # 10: disease never matches exactly (narrower form only)
    narrower = ConceptSet(population=["elderly patients"],
                          intervention=["diuretics"],
                          disease=["congestive heart failure"])
    rows.append((
        10,
        _citation(10, 3),
        _concepts(narrower, [narrower, narrower, narrower]),
        None,
    ))
    # 11: intervention from an unrelated branch of the hierarchy
    unrelated = ConceptSet(population=["elderly patients"],
                           intervention=["warfarin"],
                           disease=["heart failure"])
    rows.append((
        11,
        _citation(11, 3, mesh=[MeshTerm("Warfarin", "therapeutic use", True)]),
        _concepts(unrelated, [unrelated, EMPTY, EMPTY]),
        None,
    ))
    # 12: no abstract, bare title, MeSH not marked as major topic
    rows.append((
        12,
        Citation(pmid=12, title="A note",
                 mesh_terms=(MeshTerm("Heart Failure", "therapy", False),)),
        _concepts(EMPTY, []),
        None,
    ))
    return rows


class TestScreeningFixture:
    @pytest.mark.parametrize("pmid,citation,concepts,expected",
                             _fixture(), ids=[str(r[0]) for r in _fixture()])
    def test_lowest_constraint(self, drugs, pmid, citation, concepts, expected):
        decision = screen_citation(QUERY, citation, concepts, drugs)
        assert decision.matched_constraint == expected
        assert decision.accepted == (expected is not None)

    @pytest.mark.parametrize("pmid,citation,concepts,expected",
                             [r for r in _fixture() if r[3] is not None],
                             ids=[str(r[0]) for r in _fixture()
                                  if r[3] is not None])
    def test_short_circuit(self, drugs, pmid, citation, concepts, expected):
        """Independently re-check that every lower constraint fails."""
        if expected > 1:
            assert match_mesh(QUERY, citation, drugs) is None
        if expected > 2:
            assert not _covers(_query_keys(QUERY, drugs), concepts.title, drugs)
        if expected > 3:
            conclusion = detect_conclusion(citation)
            merged = _merge(concepts.sentences, conclusion)
            assert not _covers(_query_keys(QUERY, drugs), merged, drugs)

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
                relaxed.bag(category).clear()
                decision = screen_citation(relaxed, citation, concepts, drugs)
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
        assert _covers(_query_keys(query, drugs), unit, drugs)

    def test_custom_qualifier_whitelist(self, drugs):
        citation = _citation(1, 1,
                             mesh=[MeshTerm("Heart Failure", "history", True)])
        assert match_mesh(QUERY, citation, drugs) is None
        assert match_mesh(QUERY, citation, drugs,
                          frozenset({"history"})) is not None
