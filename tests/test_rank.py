import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen.errors import ConfigError
from citescreen.extract import ConceptSet, population_terms
from citescreen.rank import (
    CATEGORIES,
    ConceptVector,
    WeightConfig,
    cosine,
    rank_citations,
    tfidf_vector,
)

TOL = 1e-9


class TestWeightConfig:
    def test_defaults(self):
        w = WeightConfig()
        assert (w.w1, w.w2, w.w3) == (0.3, 0.4, 0.3)
        assert abs(w.w1 + w.w2 + w.w3 - 1.0) <= TOL

    @pytest.mark.parametrize("bad", [
        (0.5, 0.5, 0.5),
        (0.3, 0.4, 0.2),
        (-0.1, 0.6, 0.5),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            WeightConfig(*bad)


def _vector(bag, doc_bags):
    """tf-idf vector of ``bag`` over the documents ``doc_bags``."""
    doc_freq = Counter(t for doc in doc_bags for t in set(doc))
    return tfidf_vector(bag, doc_freq, len(doc_bags))


class TestIdf:
    def test_log10_value(self):
        bags = [["a"], ["a", "b"], ["c"], ["c"]]
        weights = _vector(["a", "b", "c"], bags).weights
        assert weights["a"] == pytest.approx(math.log10(2.0), abs=TOL)
        assert weights["b"] == pytest.approx(math.log10(4.0), abs=TOL)
        assert weights["c"] == pytest.approx(math.log10(2.0), abs=TOL)

    def test_everywhere_is_zero(self):
        bags = [["a"], ["a"], ["a"]]
        assert _vector(["a"], bags).weights == {}


class TestTfidfVector:
    def test_raw_counts(self):
        bags = [["a", "a", "b"], ["b"]]
        vec = _vector(["a", "a", "b"], bags)
        assert vec.weights["a"] == pytest.approx(2 * math.log10(2), abs=TOL)
        # b occurs in both documents, so its idf (and weight) is zero
        assert "b" not in vec.weights

    def test_unseen_terms_dropped(self):
        vec = _vector(["novel"], [["a"], ["b"]])
        assert vec.weights == {}


class TestCosine:
    def test_identical(self):
        a = ConceptVector({"x": 2.0, "y": 1.0})
        assert cosine(a, a) == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_and_empty(self):
        a = ConceptVector({"x": 1.0})
        b = ConceptVector({"y": 1.0})
        assert cosine(a, b) == 0.0
        assert cosine(a, ConceptVector({})) == 0.0


class TestPopulationTerms:
    def test_stem_and_filter(self):
        assert population_terms(["the elderly patients"]) == [
            "elderli", "patient",
        ]

    def test_empty(self):
        assert population_terms([]) == []


VOCAB = [f"t{i}" for i in range(15)]


def _random_concepts(rng):
    def bag():
        return [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
    return ConceptSet(population=bag(), intervention=bag(), disease=bag())


def _oracle(pmids, query, concepts, weights, log_base):
    """Dense numpy reimplementation of the weighted tf-idf ranking."""
    def prep(cs, cat):
        bag = cs.bag(cat)
        return population_terms(bag) if cat == "population" else list(bag)

    scores = {p: 0.0 for p in pmids}
    sims = {p: {} for p in pmids}
    n = len(pmids)
    for cat, w in zip(CATEGORIES, (weights.w1, weights.w2, weights.w3)):
        docs = {p: prep(concepts[p], cat) for p in pmids}
        qbag = prep(query, cat)
        vocab = sorted({t for b in docs.values() for t in b} | set(qbag))
        index = {t: i for i, t in enumerate(vocab)}
        df = np.zeros(len(vocab))
        for b in docs.values():
            for t in set(b):
                df[index[t]] += 1

        def vec(bag):
            v = np.zeros(len(vocab))
            for t in bag:
                v[index[t]] += 1
            out = np.zeros(len(vocab))
            mask = df > 0
            out[mask] = v[mask] * (np.log(n / df[mask]) / np.log(log_base))
            out[out <= 0] = 0.0
            return out

        qv = vec(qbag)
        qn = np.linalg.norm(qv)
        for p in pmids:
            dv = vec(docs[p])
            dn = np.linalg.norm(dv)
            sim = float(qv @ dv / (qn * dn)) if qn > 0 and dn > 0 else 0.0
            sims[p][cat] = sim
            scores[p] += w * sim
    order = sorted(pmids, key=lambda p: (-scores[p], p))
    return order, scores, sims


_BAGS = st.lists(st.sampled_from(VOCAB), max_size=6)
_CONCEPT_SETS = st.builds(
    ConceptSet, population=_BAGS, intervention=_BAGS, disease=_BAGS
)


@settings(deadline=None)
@given(
    st.dictionaries(st.integers(1, 10_000), _CONCEPT_SETS, min_size=1,
                    max_size=8),
    _CONCEPT_SETS,
    st.randoms(use_true_random=False),
)
def test_ranking_ignores_input_order(concepts, query, rnd):
    in_order = rank_citations(sorted(concepts), query, dict(sorted(concepts.items())))
    pmids = list(concepts)
    rnd.shuffle(pmids)
    items = list(concepts.items())
    rnd.shuffle(items)
    assert rank_citations(pmids, query, dict(items)) == in_order


class TestRankingOracle:
    def test_matches_dense_reference(self):
        rng = random.Random(20240817)
        weights = WeightConfig()
        for trial in range(50):
            pmids = sorted(rng.sample(range(1, 100), rng.randint(2, 10)))
            concepts = {p: _random_concepts(rng) for p in pmids}
            query = _random_concepts(rng)
            results = rank_citations(pmids, query, concepts, weights)
            order, scores, sims = _oracle(pmids, query, concepts, weights, 10.0)
            assert [r.pmid for r in results] == order, trial
            for r in results:
                assert r.vsm_score == pytest.approx(scores[r.pmid], abs=TOL)
                assert r.pop_sim == pytest.approx(
                    sims[r.pmid]["population"], abs=TOL)
                assert r.int_sim == pytest.approx(
                    sims[r.pmid]["intervention"], abs=TOL)
                assert r.dis_sim == pytest.approx(
                    sims[r.pmid]["disease"], abs=TOL)

    def test_log_base_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            pmids = sorted(rng.sample(range(1, 50), 6))
            concepts = {p: _random_concepts(rng) for p in pmids}
            query = _random_concepts(rng)
            base10 = rank_citations(pmids, query, concepts, log_base=10.0)
            base2 = rank_citations(pmids, query, concepts, log_base=2.0)
            assert [r.pmid for r in base10] == [r.pmid for r in base2]

    def test_similarity_bounds(self):
        rng = random.Random(99)
        for _ in range(20):
            pmids = sorted(rng.sample(range(1, 50), 5))
            concepts = {p: _random_concepts(rng) for p in pmids}
            for r in rank_citations(pmids, _random_concepts(rng), concepts):
                for sim in (r.pop_sim, r.int_sim, r.dis_sim, r.vsm_score):
                    assert -TOL <= sim <= 1.0 + TOL

    def test_tie_break_ascending_pmid(self):
        cs = ConceptSet(disease=["heart failure"])
        concepts = {9: cs, 3: cs, 7: cs}
        results = rank_citations([9, 3, 7], cs, concepts)
        assert [r.pmid for r in results] == [3, 7, 9]
        assert len({r.vsm_score for r in results}) == 1
