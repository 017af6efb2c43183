"""The four-constraint concept-based screening algorithm.

A citation is accepted when, in order: (1) a query-matching MeSH term
carries a clinically significant qualifier marked as the main topic;
(2) the title covers the query's concept categories; (3) the conclusion
sentences cover them; (4) coverage holds within one sentence or an
adjacent pair.  The lowest satisfied constraint is recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from citescreen import preprocess
from citescreen.corpus import Citation, DrugDictionary
from citescreen.extract import ConceptSet, population_terms

#: The 22 clinically significant qualifier names (compared case-insensitively).
QUALIFIER_WHITELIST = frozenset({
    "therapy",
    "diagnosis",
    "diagnostic use",
    "drug therapy",
    "mortality",
    "surgery",
    "ultrasonography",
    "prevention and control",
    "rehabilitation",
    "complications",
    "congenital",
    "epidemiology",
    "ethnology",
    "etiology",
    "therapeutic use",
    "pharmacology",
    "adverse effects",
    "contraindications",
    "administration and dosage",
    "agonists",
    "antagonists and inhibitors",
    "analogs and derivatives",
})

_CONCLUSION_LABELS = frozenset({
    "conclusions",
    "conclusion",
    "authors' conclusions",
    "reviewers' conclusions",
    "conclusions and relevance",
    "interpretation",
})

_CONCLUSION_CUES = ("in conclusion", "we conclude that")


@dataclass(frozen=True)
class ScreeningDecision:
    pmid: int
    accepted: bool
    matched_constraint: int | None = None
    evidence: str = ""

    def __post_init__(self):
        if self.accepted != (self.matched_constraint is not None):
            raise ValueError("accepted must mirror matched_constraint presence")

    def to_json(self) -> str:
        return json.dumps({
            "pmid": self.pmid,
            "accepted": self.accepted,
            "constraint": self.matched_constraint,
            "evidence": self.evidence,
        }, sort_keys=True)


@dataclass
class CitationConcepts:
    """Per-citation concept sets: title plus one set per abstract sentence."""

    title: ConceptSet = field(default_factory=ConceptSet)
    sentences: list[ConceptSet] = field(default_factory=list)


def _expand_drug_terms(terms, drugs: DrugDictionary | None) -> set[str]:
    expanded = set()
    for t in terms:
        expanded.add(t)
        if drugs is not None:
            expanded.update(
                preprocess.normalize_token(n) for n in drugs.hierarchy(t)
            )
    return expanded


def _query_keys(query: ConceptSet, drugs: DrugDictionary | None):
    """The query's side of ``_covers``, one set per bag; None for an empty bag."""
    return (
        set(population_terms(query.population)) if query.population else None,
        _expand_drug_terms(query.intervention, drugs) if query.intervention else None,
        set(query.disease) if query.disease else None,
    )


def _covers(keys, unit: ConceptSet, drugs: DrugDictionary | None) -> bool:
    """Each non-empty query bag shares >= 1 concept with the unit's bag.

    ``keys`` come from ``_query_keys``.  Population uses stemmed-token
    overlap; intervention is drug-hierarchy-aware; disease is exact
    normalized match.
    """
    population, intervention, disease = keys
    if population is not None:
        if not population & set(population_terms(unit.population)):
            return False
    if intervention is not None:
        if not intervention & _expand_drug_terms(unit.intervention, drugs):
            return False
    if disease is not None:
        if not disease & set(unit.disease):
            return False
    return True


def match_mesh(
    query_concepts: ConceptSet,
    citation: Citation,
    drugs: DrugDictionary | None = None,
    qualifier_whitelist: frozenset[str] = QUALIFIER_WHITELIST,
) -> str | None:
    """Constraint 1 evidence, or None.

    Succeeds when a MeSH descriptor matching a query disease or
    intervention concept (any drug-hierarchy level counts) carries a
    whitelisted qualifier marked as the main topic.
    """
    query_terms = _expand_drug_terms(
        list(query_concepts.disease) + list(query_concepts.intervention), drugs
    )
    whitelist = {q.lower() for q in qualifier_whitelist}
    for term in citation.mesh_terms:
        if not term.is_major_topic or term.qualifier is None:
            continue
        if term.qualifier.strip().lower() not in whitelist:
            continue
        descriptor_terms = _expand_drug_terms(
            [preprocess.normalize_token(term.descriptor)], drugs
        )
        if descriptor_terms & query_terms:
            return f"{preprocess.normalize_token(term.descriptor)}/{term.qualifier.strip().lower()}"
    return None


def detect_conclusion(citation: Citation) -> list[int]:
    """Sentence indices of the conclusion section.

    Structured abstracts use subheading labels; unstructured ones use
    cue phrases; failing both, the last two sentences are used.
    """
    if not citation.abstract:
        return []
    if citation.abstract_is_structured and citation.section_labels:
        indices = [
            i for i, label in sorted(citation.section_labels.items())
            if label.strip().lower().rstrip(":") in _CONCLUSION_LABELS
        ]
        if indices:
            return indices
    cued = [
        i for i, sentence in enumerate(citation.abstract)
        if any(cue in sentence.lower() for cue in _CONCLUSION_CUES)
    ]
    if cued:
        return cued
    n = len(citation.abstract)
    return list(range(max(0, n - 2), n))


def screen_citation(
    query_concepts: ConceptSet,
    citation: Citation,
    citation_concepts: CitationConcepts,
    drugs: DrugDictionary | None = None,
    qualifier_whitelist: frozenset[str] = QUALIFIER_WHITELIST,
) -> ScreeningDecision:
    """Evaluate the four constraints in order; lowest satisfied wins."""
    evidence = match_mesh(query_concepts, citation, drugs, qualifier_whitelist)
    if evidence is not None:
        return ScreeningDecision(citation.pmid, True, 1, evidence)

    keys = _query_keys(query_concepts, drugs)
    if _covers(keys, citation_concepts.title, drugs):
        return ScreeningDecision(citation.pmid, True, 2, citation.title)

    conclusion = detect_conclusion(citation)
    if conclusion:
        merged = _merge(citation_concepts.sentences, conclusion)
        if _covers(keys, merged, drugs):
            excerpt = " ".join(citation.abstract[i] for i in conclusion)
            return ScreeningDecision(citation.pmid, True, 3, excerpt)

    sentences = citation_concepts.sentences
    for i in range(len(sentences)):
        for window in ([i], [i, i + 1]):
            if window[-1] < len(sentences) and _covers(
                keys, _merge(sentences, window), drugs
            ):
                excerpt = " ".join(citation.abstract[j] for j in window)
                return ScreeningDecision(citation.pmid, True, 4, excerpt)

    return ScreeningDecision(citation.pmid, False, None, "")


def _merge(sentence_sets: list[ConceptSet], indices: list[int]) -> ConceptSet:
    return ConceptSet.merged(
        sentence_sets[i] for i in indices if 0 <= i < len(sentence_sets)
    )
