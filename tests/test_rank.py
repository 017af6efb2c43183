import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen.errors import ConfigError
from citescreen.extract import ConceptSet, population_terms
from citescreen.rank import RankedResult, WeightConfig, rank_citations

TOL = 1e-9
#: The order of ``ConceptSet.term_counts`` and of a result's similarities.
CATEGORIES = ("population", "intervention", "disease")


class TestWeightConfig:
    def test_defaults(self):
        w = WeightConfig()
        assert (w.w1, w.w2, w.w3) == (0.3, 0.4, 0.3)
        assert abs(w.w1 + w.w2 + w.w3 - 1.0) <= TOL

    @pytest.mark.parametrize("bad", [
        (0.5, 0.5, 0.5),
        (0.3, 0.4, 0.2),
        (-0.1, 0.6, 0.5),
        (True, 0, 0),
        (float("nan"), 0.5, 0.5),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            WeightConfig(*bad)


def _disease_sims(query_bag, doc_bags):
    """dis_sim per PMID when only the disease bags are filled."""
    concepts = {p: ConceptSet(disease=bag) for p, bag in doc_bags.items()}
    results = rank_citations(list(concepts), ConceptSet(disease=query_bag),
                             concepts)
    for r in results:
        assert (r.pop_sim, r.int_sim) == (0.0, 0.0)
        assert r.vsm_score == pytest.approx(0.3 * r.dis_sim, abs=TOL)
    return {r.pmid: r.dis_sim for r in results}


# Small rankings worked out by hand: idf = log10(n / df), raw-count tf.

class TestIdf:
    def test_log10_value(self):
        # n = 4; "a" is in 3 documents, "b" in 1.  Document 3 is
        # (log10(4/3), log10(4)) and the query is (0, log10(4)).
        sims = _disease_sims(["b"], {1: ["a"], 2: ["a"], 3: ["a", "b"], 4: ["c"]})
        expected = math.log10(4) / math.hypot(math.log10(4 / 3), math.log10(4))
        assert sims[3] == pytest.approx(expected, abs=TOL)
        assert sims[1] == sims[2] == sims[4] == 0.0

    def test_everywhere_is_zero(self):
        assert _disease_sims(["a"], {1: ["a"], 2: ["a", "b"]}) == {1: 0.0, 2: 0.0}


class TestTfidfVector:
    def test_raw_counts(self):
        # "a" twice, "b" once, both idf log10(3): cosine of (2, 1) and (1, 1).
        sims = _disease_sims(["a", "b"], {1: ["a", "a", "b"], 2: ["c"], 3: ["c"]})
        assert sims[1] == pytest.approx(3 / math.sqrt(10), abs=TOL)

    def test_unseen_terms_dropped(self):
        # "novel" has df = 0: it neither matches nor dilutes the query norm.
        sims = _disease_sims(["novel", "a"], {1: ["a"], 2: ["b"]})
        assert sims[1] == pytest.approx(1.0, abs=TOL)
        assert sims[2] == 0.0
        assert _disease_sims(["novel"], {1: ["a"], 2: ["b"]}) == {1: 0.0, 2: 0.0}


class TestCosine:
    def test_identical(self):
        sims = _disease_sims(["x", "x", "y"], {1: ["x", "x", "y"], 2: ["z"]})
        assert sims[1] == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_and_empty(self):
        sims = _disease_sims(["x"], {1: ["x"], 2: ["z"], 3: []})
        assert sims[2] == 0.0
        assert sims[3] == 0.0
        assert _disease_sims([], {1: ["x"], 2: ["z"]}) == {1: 0.0, 2: 0.0}


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
        bag = getattr(cs, cat)
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
    # A PMID listed more than once is ranked once, over the same candidates.
    pmids = list(concepts)
    pmids += rnd.sample(pmids, rnd.randint(1, len(pmids)))
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


# --------------------------------------------------------------------------
# Differential check against the ranking that rebuilt every bag's counts
# and every term's idf for each vector: each set now makes its counts
# once, and each topic its idf once per term, with the same float
# expressions, so every score must be the same float.
# --------------------------------------------------------------------------

def _ref_category_bag(concepts, category):
    if category == "population":
        return concepts.population_stems
    return getattr(concepts, category)


def _ref_cosines(query_bag, doc_bags):
    n = len(doc_bags)
    doc_freq = Counter(t for bag in doc_bags for t in set(bag))

    def vector(bag):
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


def _ref_rank(accepted_pmids, query, concepts, weights):
    pmids = sorted(set(accepted_pmids))
    pop, inter, dis = (
        _ref_cosines(_ref_category_bag(query, c),
                     [_ref_category_bag(concepts[p], c) for p in pmids])
        for c in CATEGORIES
    )
    results = [
        RankedResult(p, ps, i, d, ps * weights.w1 + i * weights.w2 + d * weights.w3)
        for p, ps, i, d in zip(pmids, pop, inter, dis)
    ]
    return sorted(results, key=lambda r: (-r.vsm_score, r.pmid))


#: Phrases with repeated words and stopwords, so that stems and counts repeat.
_PHRASES = st.lists(st.sampled_from(["elderly", "patients", "the", "with", "older",
                                     "adults", "patient", "aged"]),
                    min_size=1, max_size=4).map(" ".join)
_WORDY_SETS = st.builds(
    ConceptSet,
    population=st.lists(_PHRASES, max_size=4),
    intervention=st.lists(st.sampled_from(VOCAB[:5]), max_size=6),
    disease=st.lists(st.sampled_from(VOCAB[:5]), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, 50), _WORDY_SETS, min_size=1, max_size=10),
       st.lists(_WORDY_SETS, min_size=1, max_size=3),
       st.sampled_from([WeightConfig(), WeightConfig(0.5, 0.5, 0.0),
                        WeightConfig(0.2, 0.2, 0.6)]),
       st.randoms(use_true_random=False))
def test_every_score_equals_the_per_call_counts(concepts, queries, weights, rnd):
    """Several topics over the same sets, each over a drawn subset of the
    candidates: the counts a set made for one topic serve the next."""
    for query in queries:
        pmids = rnd.sample(sorted(concepts), rnd.randint(1, len(concepts)))
        assert rank_citations(pmids, query, concepts, weights) == \
            _ref_rank(pmids, query, concepts, weights)
