"""Concept-based vector-space ranking.

Each query and citation is represented as three vectors (population,
intervention-or-comparison, disease) weighted by tf-idf over the
screened candidate set; per-category cosine similarities combine into a
weighted score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from citescreen.errors import ConfigError
from citescreen.extract import ConceptSet

CATEGORIES = ("population", "intervention", "disease")


@dataclass(frozen=True)
class WeightConfig:
    w1: float = 0.3  # population
    w2: float = 0.4  # intervention or comparison
    w3: float = 0.3  # disease

    def __post_init__(self):
        for name in ("w1", "w2", "w3"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 <= value <= 1:
                raise ConfigError(f"weight {name} must be a number from 0 to 1, "
                                  f"not {value!r}")
        if abs(self.w1 + self.w2 + self.w3 - 1.0) > 1e-9:
            raise ConfigError("weights must sum to 1")


@dataclass(frozen=True)
class RankedResult:
    pmid: int
    pop_sim: float
    int_sim: float
    dis_sim: float
    vsm_score: float


def _category_bag(concepts: ConceptSet, category: str) -> list[str]:
    """Population is compared by its stems, made with the concept set."""
    if category == "population":
        return concepts.population_stems
    return concepts.bag(category)


def _cosines(query_bag: list[str], doc_bags: list[list[str]]) -> list[float]:
    """Cosine of the query's tf-idf vector with each document's.

    tf is the raw count and idf is log10(n / df) over the ``doc_bags``;
    terms of zero weight, and terms no document holds, are dropped.
    """
    n = len(doc_bags)
    doc_freq = Counter(t for bag in doc_bags for t in set(bag))

    def vector(bag: list[str]) -> tuple[dict[str, float], float]:
        weights = {}
        for term, tf in Counter(bag).items():
            df = doc_freq[term]
            if df:
                w = tf * (math.log(n / df) / math.log(10.0))
                if w > 0:
                    weights[term] = w
        return weights, math.sqrt(sum(w * w for w in weights.values()))

    q, q_norm = vector(query_bag)
    sims = []
    for bag in doc_bags:
        d, d_norm = vector(bag)
        if q and d:
            dot = sum(w * d.get(t, 0.0) for t, w in q.items())
            sims.append(dot / (q_norm * d_norm))
        else:
            sims.append(0.0)
    return sims


def rank_citations(
    accepted_pmids: list[int],
    query: ConceptSet,
    citation_concepts: dict[int, ConceptSet],
    weights: WeightConfig = WeightConfig(),
) -> list[RankedResult]:
    """Descending score; ties broken by ascending PMID.

    A PMID listed more than once is ranked once.
    """
    pmids = sorted(set(accepted_pmids))
    pop, inter, dis = (
        _cosines(_category_bag(query, c),
                 [_category_bag(citation_concepts[p], c) for p in pmids])
        for c in CATEGORIES
    )
    results = [
        RankedResult(p, ps, i, d, ps * weights.w1 + i * weights.w2 + d * weights.w3)
        for p, ps, i, d in zip(pmids, pop, inter, dis)
    ]
    return sorted(results, key=lambda r: (-r.vsm_score, r.pmid))
