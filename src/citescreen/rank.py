"""Concept-based vector-space ranking.

Each query and citation is represented as three vectors (population,
intervention-or-comparison, disease) weighted by tf-idf over the
screened candidate set; per-category cosine similarities combine into a
weighted score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from citescreen.errors import ConfigError
from citescreen.extract import ConceptSet, population_terms

CATEGORIES = ("population", "intervention", "disease")


@dataclass(frozen=True)
class WeightConfig:
    w1: float = 0.3  # population
    w2: float = 0.4  # intervention or comparison
    w3: float = 0.3  # disease

    def __post_init__(self):
        if min(self.w1, self.w2, self.w3) < 0:
            raise ConfigError("weights must be non-negative")
        if abs(self.w1 + self.w2 + self.w3 - 1.0) > 1e-9:
            raise ConfigError("weights must sum to 1")


@dataclass
class ConceptVector:
    weights: dict[str, float] = field(default_factory=dict)

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights.values()))


@dataclass(frozen=True)
class RankedResult:
    pmid: int
    pop_sim: float
    int_sim: float
    dis_sim: float
    vsm_score: float


def _category_bag(concepts: ConceptSet, category: str) -> list[str]:
    bag = concepts.bag(category)
    return population_terms(bag) if category == "population" else list(bag)


def tfidf_vector(
    concept_bag: list[str], doc_freq: Counter, n: int, log_base: float = 10.0,
) -> ConceptVector:
    """Raw-count tf times log(n / df); zero-weight entries are dropped.

    ``doc_freq`` holds, per term, how many of the ``n`` documents contain it.
    """
    weights: dict[str, float] = {}
    for term, tf in Counter(concept_bag).items():
        df = doc_freq[term]
        if df == 0:
            continue  # absent from the corpus: no weight by construction
        w = tf * (math.log(n / df) / math.log(log_base))
        if w > 0:
            weights[term] = w
    return ConceptVector(weights)


def cosine(a: ConceptVector, b: ConceptVector) -> float:
    if not a.weights or not b.weights:
        return 0.0
    dot = sum(w * b.weights.get(t, 0.0) for t, w in a.weights.items())
    denom = a.norm() * b.norm()
    return dot / denom if denom else 0.0


class VectorSpace:
    """Per-category document frequencies over a screened candidate set."""

    def __init__(self, citation_concepts: dict[int, ConceptSet],
                 log_base: float = 10.0):
        self.log_base = log_base
        self.pmids = sorted(citation_concepts)
        self._doc_freq: dict[str, Counter] = {c: Counter() for c in CATEGORIES}
        self._bags_by_pmid: dict[int, dict[str, list[str]]] = {}
        for pmid in self.pmids:
            concepts = citation_concepts[pmid]
            per = {c: _category_bag(concepts, c) for c in CATEGORIES}
            self._bags_by_pmid[pmid] = per
            for c in CATEGORIES:
                self._doc_freq[c].update(set(per[c]))

    def vector(self, bag: list[str], category: str) -> ConceptVector:
        return tfidf_vector(
            bag, self._doc_freq[category], len(self.pmids), self.log_base
        )

    def citation_vectors(self, pmid: int) -> dict[str, ConceptVector]:
        per = self._bags_by_pmid[pmid]
        return {c: self.vector(per[c], c) for c in CATEGORIES}

    def query_vectors(self, query: ConceptSet) -> dict[str, ConceptVector]:
        return {c: self.vector(_category_bag(query, c), c) for c in CATEGORIES}


def vsm_score(
    query_vectors: dict[str, ConceptVector],
    citation_vectors: dict[str, ConceptVector],
    pmid: int,
    weights: WeightConfig = WeightConfig(),
) -> RankedResult:
    pop = cosine(query_vectors["population"], citation_vectors["population"])
    inter = cosine(query_vectors["intervention"], citation_vectors["intervention"])
    dis = cosine(query_vectors["disease"], citation_vectors["disease"])
    score = pop * weights.w1 + inter * weights.w2 + dis * weights.w3
    return RankedResult(pmid, pop, inter, dis, score)


def rank_citations(
    accepted_pmids: list[int],
    query: ConceptSet,
    citation_concepts: dict[int, ConceptSet],
    weights: WeightConfig = WeightConfig(),
    log_base: float = 10.0,
) -> list[RankedResult]:
    """Descending score; ties broken by ascending PMID."""
    space = VectorSpace(
        {p: citation_concepts[p] for p in accepted_pmids}, log_base
    )
    qv = space.query_vectors(query)
    results = [
        vsm_score(qv, space.citation_vectors(pmid), pmid, weights)
        for pmid in space.pmids
    ]
    return sorted(results, key=lambda r: (-r.vsm_score, r.pmid))
