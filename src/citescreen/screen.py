"""The four-constraint concept-based screening algorithm.

A citation is accepted when, in order: (1) a query-matching MeSH term
carries a clinically significant qualifier marked as the main topic;
(2) the title covers the query's concept categories; (3) the conclusion
sentences cover them; (4) coverage holds within one sentence or an
adjacent pair.  The lowest satisfied constraint is recorded.

Screening intersects precomputed keys: a citation's title and sentence
keys, its constraint-1 MeSH keys and its conclusion sentences are derived
once per run, the query's keys once per topic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from citescreen import preprocess
from citescreen.corpus import Citation, DrugDictionary
from citescreen.extract import ConceptSet

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


Keys = tuple[frozenset[str], frozenset[str], frozenset[str]]  # one set per bag


def _expand_drug_terms(terms, drugs: DrugDictionary) -> frozenset[str]:
    """Normalized ``terms`` plus their drug-hierarchy ancestors."""
    return frozenset(terms).union(*map(drugs.hierarchy, terms))


def concept_keys(concepts: ConceptSet, drugs: DrugDictionary) -> Keys:
    """Stemmed population tokens, interventions with their drug-hierarchy
    ancestors, and exact diseases.

    Each key comes from one term alone, so the keys of a merged set are
    the per-bag union of its parts' keys.
    """
    return (
        frozenset(concepts.population_stems),
        _expand_drug_terms(concepts.intervention, drugs),
        frozenset(concepts.disease),
    )


#: A major-topic MeSH term with a qualifier: its normalized descriptor,
#: its qualifier stripped and lower-cased, and the descriptor with its
#: drug-hierarchy ancestors.
MeshKeys = tuple[str, str, frozenset[str]]


def major_mesh_keys(citation: Citation, drugs: DrugDictionary) -> tuple[MeshKeys, ...]:
    """The ``MeshKeys`` of each major-topic MeSH term with a qualifier, in order."""
    keys = []
    for term in citation.mesh_terms:
        if term.is_major_topic and term.qualifier is not None:
            descriptor = preprocess.normalize_token(term.descriptor)
            keys.append((descriptor, term.qualifier.strip().lower(),
                         _expand_drug_terms([descriptor], drugs)))
    return tuple(keys)


@dataclass(frozen=True)
class CitationConcepts:
    """One citation's concepts, extracted once per run.

    ``whole`` is the whole-citation concept set that ranking reads;
    ``title`` and ``sentences`` are the keys of the title and of each
    abstract sentence, ``mesh`` the ``major_mesh_keys`` and ``conclusion``
    the ``detect_conclusion`` indices that screening reads.
    """

    whole: ConceptSet
    title: Keys
    sentences: tuple[Keys, ...]
    mesh: tuple[MeshKeys, ...]
    conclusion: tuple[int, ...]


@dataclass(frozen=True)
class ScreeningQuery:
    """The query's side of screening, derived once per topic.

    ``keys`` is None for an empty query bag, which imposes nothing; a bag
    whose phrases stem to no key never covers.
    """

    keys: tuple[frozenset[str] | None, ...]
    mesh_terms: frozenset[str]
    qualifier_whitelist: frozenset[str]


def screening_query(query_concepts: ConceptSet, drugs: DrugDictionary,
                    qualifier_whitelist: frozenset[str]) -> ScreeningQuery:
    q = query_concepts
    keys = concept_keys(q, drugs)
    return ScreeningQuery(
        keys=tuple(k if bag else None for k, bag in zip(
            keys, (q.population, q.intervention, q.disease))),
        mesh_terms=keys[1] | _expand_drug_terms(q.disease, drugs),
        qualifier_whitelist=frozenset(w.lower() for w in qualifier_whitelist),
    )


def _covers(query_keys, units: list[Keys]) -> bool:
    """Each non-empty query bag shares >= 1 key with one of the units."""
    return all(
        q is None or any(not q.isdisjoint(unit[c]) for unit in units)
        for c, q in enumerate(query_keys)
    )


def match_mesh(query: ScreeningQuery, concepts: CitationConcepts) -> str | None:
    """Constraint 1 evidence, or None.

    Succeeds when a MeSH descriptor matching a query disease or
    intervention concept (any drug-hierarchy level counts) carries a
    whitelisted qualifier marked as the main topic.
    """
    for descriptor, qualifier, keys in concepts.mesh:
        if (qualifier in query.qualifier_whitelist
                and not keys.isdisjoint(query.mesh_terms)):
            return f"{descriptor}/{qualifier}"
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
    query: ScreeningQuery,
    citation: Citation,
    citation_concepts: CitationConcepts,
) -> ScreeningDecision:
    """Evaluate the four constraints in order; lowest satisfied wins."""
    evidence = match_mesh(query, citation_concepts)
    if evidence is not None:
        return ScreeningDecision(citation.pmid, True, 1, evidence)

    if _covers(query.keys, [citation_concepts.title]):
        return ScreeningDecision(citation.pmid, True, 2, citation.title)

    sentences = citation_concepts.sentences
    conclusion = citation_concepts.conclusion
    if conclusion and _covers(
        query.keys, [sentences[i] for i in conclusion if 0 <= i < len(sentences)]
    ):
        excerpt = " ".join(citation.abstract[i] for i in conclusion)
        return ScreeningDecision(citation.pmid, True, 3, excerpt)

    for i in range(len(sentences)):
        for window in ([i], [i, i + 1]):
            if window[-1] < len(sentences) and _covers(
                query.keys, [sentences[j] for j in window]
            ):
                excerpt = " ".join(citation.abstract[j] for j in window)
                return ScreeningDecision(citation.pmid, True, 4, excerpt)

    return ScreeningDecision(citation.pmid, False, None, "")
