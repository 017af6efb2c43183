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


def _cosines(query_tf: Counter, doc_tfs: list[Counter]) -> list[float]:
    """Cosine of the query's tf-idf vector with each document's.

    tf is the raw count, given per document, and idf is log10(n / df)
    over the documents, computed once per term; terms of zero weight, and
    terms no document holds, are dropped.
    """
    n = len(doc_tfs)
    doc_freq = Counter(t for tf in doc_tfs for t in tf)
    idf = {t: math.log(n / df) / math.log(10.0) for t, df in doc_freq.items()}

    def vector(counts: Counter) -> tuple[dict[str, float], float]:
        weights = {}
        for term, tf in counts.items():
            if term in idf:
                w = tf * idf[term]
                if w > 0:
                    weights[term] = w
        return weights, math.sqrt(sum(w * w for w in weights.values()))

    q, q_norm = vector(query_tf)
    sims = []
    for counts in doc_tfs:
        d, d_norm = vector(counts)
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
        _cosines(query_tf, [citation_concepts[p].term_counts[c] for p in pmids])
        for c, query_tf in enumerate(query.term_counts)
    )
    results = [
        RankedResult(p, ps, i, d, ps * weights.w1 + i * weights.w2 + d * weights.w3)
        for p, ps, i, d in zip(pmids, pop, inter, dis)
    ]
    return sorted(results, key=lambda r: (-r.vsm_score, r.pmid))
