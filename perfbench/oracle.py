"""Dense tf-idf reference for checking the program's rankings.

An independent re-implementation of the ranking in PAPER.md: per
category, tf is the raw count, idf is log10(N/df) over the ranked
candidate set, similarity is the cosine of the dense vectors, and the
score is the weighted sum with weights 0.3 / 0.4 / 0.3.  Population
phrases are split into tokens, stopword-filtered and stemmed with the
program's stemmer, as the criterion-5 reference in the tests does.
"""

from __future__ import annotations

import numpy as np

CATEGORIES = ("population", "intervention", "disease")
WEIGHTS = (0.3, 0.4, 0.3)
TOLERANCE = 1e-9


def _terms(bag: list[str], category: str, stem_and_filter) -> list[str]:
    if category != "population":
        return list(bag)
    return stem_and_filter([t for phrase in bag for t in phrase.split()])


def dense_scores(query: dict, docs: dict[str, dict], stem_and_filter) -> dict[int, float]:
    pmids = sorted(docs, key=int)
    n = len(pmids)
    scores = {int(p): 0.0 for p in pmids}
    for category, weight in zip(CATEGORIES, WEIGHTS):
        bags = [_terms(docs[p][category], category, stem_and_filter) for p in pmids]
        qbag = _terms(query[category], category, stem_and_filter)
        vocab = sorted({t for b in bags for t in b} | set(qbag))
        index = {t: i for i, t in enumerate(vocab)}
        tf = np.zeros((n + 1, len(vocab)))
        for row, bag in enumerate([*bags, qbag]):
            for t in bag:
                tf[row, index[t]] += 1
        df = (tf[:n] > 0).sum(axis=0)
        idf = np.zeros(len(vocab))
        present = df > 0
        idf[present] = np.log10(n / df[present])
        vectors = tf * idf
        norms = np.linalg.norm(vectors, axis=1)
        q, qn = vectors[n], norms[n]
        for row, p in enumerate(pmids):
            if qn > 0 and norms[row] > 0:
                scores[int(p)] += weight * float(vectors[row] @ q / (norms[row] * qn))
    return scores


def check_ranking(call: dict, stem_and_filter) -> list[str]:
    """Problems found in one captured ``rank_citations`` call; [] if none."""
    problems = []
    expected = dense_scores(call["query"], call["docs"], stem_and_filter)
    results = call["results"]
    if sorted(r[0] for r in results) != sorted(expected):
        return ["ranked PMIDs differ from the candidates"]
    for pmid, _, _, _, score in results:
        if abs(score - expected[pmid]) > TOLERANCE:
            problems.append(f"pmid {pmid}: score {score!r} != dense {expected[pmid]!r}")
    for (a, *ra), (b, *rb) in zip(results, results[1:]):
        if expected[a] < expected[b] - TOLERANCE or (ra[-1] == rb[-1] and a > b):
            problems.append(f"order: {a} ranked above {b}")
    return problems
