import json
import random

import pytest

from citescreen.evaluate import (
    ConfusionCounts,
    aggregate_topics,
    confusion,
    macro_average,
    prf,
)

from run_cli import run_cli


def _eval_at(tmp_path, gold, ranked, k):
    """Each topic's report entry from ``eval --gold-k k``, for gold sets
    ``gold`` and rankings ``ranked``, each a topic id -> PMIDs mapping; a
    topic with no ranking has no ranked file."""
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text("".join(f"{topic_id}\ttitle\t{','.join(map(str, pmids))}\n"
                                 for topic_id, pmids in gold.items()))
    ranked_dir = tmp_path / "ranked"
    ranked_dir.mkdir(exist_ok=True)
    for topic_id, pmids in ranked.items():
        (ranked_dir / f"{topic_id}.tsv").write_text(
            "rank\tpmid\n" + "".join(f"{i}\t{p}\n" for i, p in enumerate(pmids, 1)))
    result = run_cli(["--output", "json", "--gold-k", str(k),
                      "eval", str(gold_path), str(ranked_dir)])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)["topics"]


def _top_k(tmp_path, pmids, gold, k):
    """(precision, recall) in percent over the top ``k`` of ``pmids``."""
    entry = _eval_at(tmp_path, {"T": gold}, {"T": pmids}, k)["T"]["gold_k"]
    return entry["precision"], entry["recall"]


class TestPrf:
    def test_basic(self):
        p, r, f = prf(ConfusionCounts(tp=4, fp=1, fn=1))
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(0.8)
        assert f == pytest.approx(0.8)

    def test_zero_over_zero(self):
        assert prf(ConfusionCounts()) == (0.0, 0.0, 0.0)
        assert prf(ConfusionCounts(fp=3)) == (0.0, 0.0, 0.0)
        assert prf(ConfusionCounts(fn=3)) == (0.0, 0.0, 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestConfusion:
    def test_counts(self):
        c = confusion([1, 2, 3], {2, 3, 4, 5})
        assert (c.tp, c.fp, c.fn) == (2, 1, 2)

    def test_duplicates_collapse(self):
        c = confusion([1, 1, 2], {1})
        assert (c.tp, c.fp, c.fn) == (1, 1, 0)


class TestPrecisionAtK:
    """P/R at a cutoff K, as ``eval --gold-k`` reports them."""

    def test_truncation(self, tmp_path):
        assert _top_k(tmp_path, [1, 2, 3, 4], {1, 4}, 2) == (50.0, 50.0)
        # k past the end behaves like the whole list
        assert _top_k(tmp_path, [1, 2, 3, 4], {1, 4}, 10) == (50.0, 100.0)

    def test_k_below_one_rejected(self, tmp_path):
        (tmp_path / "gold.tsv").write_text("T\ttitle\t1\n")
        result = run_cli(["--gold-k", "0", "eval",
                          str(tmp_path / "gold.tsv"), str(tmp_path)])
        assert result.exit_code == 1
        assert "x>=1" in result.output


class TestPrCurve:
    """P/R over the top k of a ranking for a series of cutoffs k, one
    ``eval --gold-k`` per cutoff."""

    def test_derived_example(self, tmp_path):
        # 10 ranked items, 5 relevant; relevant at ranks 1, 2, 6, 9, 10
        ranked = [11, 12, 13, 14, 15, 16, 17, 18, 19, 20]
        gold = {11, 12, 16, 19, 20}
        assert _top_k(tmp_path, ranked, gold, 2) == (100.0, 40.0)
        assert _top_k(tmp_path, ranked, gold, 6) == (50.0, 60.0)
        assert _top_k(tmp_path, ranked, gold, 10) == (50.0, 100.0)

    def test_full_cutoff_matches_prf(self, tmp_path):
        entry = _eval_at(tmp_path, {"T": {2, 5, 9}}, {"T": [1, 2, 3, 4, 5]}, 5)["T"]
        assert entry["gold_k"] == {name: entry[name]
                                   for name in ("precision", "recall", "f_score")}

    def test_empty_ranking(self, tmp_path):
        entry = _eval_at(tmp_path, {"T": {1, 2}}, {}, 1)["T"]
        assert entry["gold_k"] == {"precision": 0.0, "recall": 0.0, "f_score": 0.0}

    def test_recall_monotone_in_cutoff(self, tmp_path):
        rng = random.Random(20240817)
        gold, ranked = {}, {}
        for topic in range(30):
            n = rng.randint(1, 30)
            pmids = list(range(n))
            rng.shuffle(pmids)
            ranked[f"T{topic}"] = pmids
            gold[f"T{topic}"] = set(rng.sample(range(n), rng.randint(0, n)))
        recalls = {topic_id: [] for topic_id in gold}
        for k in range(1, 31):
            for topic_id, entry in _eval_at(tmp_path, gold, ranked, k).items():
                recalls[topic_id].append(entry["gold_k"]["recall"])
        for topic_id, series in recalls.items():
            assert series == sorted(series), topic_id


class TestAggregation:
    COUNTS = [
        ConfusionCounts(tp=4, fp=1, fn=1),
        ConfusionCounts(tp=2, fp=6, fn=2),
    ]

    def test_micro(self):
        p, r, f = aggregate_topics(self.COUNTS)
        assert p == pytest.approx(6 / 13)
        assert r == pytest.approx(6 / 9)
        assert f == pytest.approx(2 * (6 / 13) * (6 / 9) / (6 / 13 + 6 / 9))

    def test_macro(self):
        p, r, f = macro_average(self.COUNTS)
        assert p == pytest.approx((0.8 + 0.25) / 2)
        assert r == pytest.approx((0.8 + 0.5) / 2)

    def test_permutation_invariance(self):
        forward = aggregate_topics(self.COUNTS)
        backward = aggregate_topics(list(reversed(self.COUNTS)))
        assert forward == backward
        assert macro_average(self.COUNTS) == macro_average(
            list(reversed(self.COUNTS)))

    def test_empty(self):
        assert aggregate_topics([]) == (0.0, 0.0, 0.0)
        assert macro_average([]) == (0.0, 0.0, 0.0)
