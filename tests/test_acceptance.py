"""Acceptance criteria for the full retrieval, screening and ranking stack.

Each criterion is marked with ``acceptance(n, description)``; the
terminal summary prints one pass/fail line per criterion.  Tolerances
are pinned next to each check.  Criterion 1 checks reported evaluation
metrics for internal arithmetic consistency; the rows whose printed
F-score cannot be recomputed from the printed precision and recall are
strict expected failures with the analysis recorded in
notes/decisions.md.
"""

import json
import random
import time

import pytest

from citescreen import preprocess
from citescreen.extract import extract_population, normalize_drug_components, read
from citescreen.pipeline import Resources
from citescreen.rank import WeightConfig, rank_citations
from citescreen.screen import QUALIFIER_WHITELIST, screen_citation, screening_query
from citescreen.tree import parse_bracketed_tree

from population_cases import CASES
from run_cli import run_cli
from test_extract import _keys, bundled_drug_names
from test_rank import _oracle, _random_concepts
from test_screen import QUERY as SCREEN_QUERY, _fixture as screening_fixture

# --------------------------------------------------------------------------
# Criterion 1: reported metric tables are arithmetically self-consistent
# --------------------------------------------------------------------------

# Reported (precision, recall, F) percentages: five retrieval stages for
# two clinical questions, then sixteen additional questions at the final
# stage.  Rows whose F cannot be recomputed from the printed P and R at
# +/-0.05pp are flagged; every one of them is still consistent with some
# unrounded P and R that print the same way (checked further down).
METRIC_ROWS = [
    ("q1-stage-a", 0.1, 21.4, 0.2, True),
    ("q1-stage-b", 0.6, 18.0, 1.3, False),
    ("q1-stage-c", 0.2, 78.9, 0.3, False),
    ("q1-stage-d", 26.8, 62.3, 37.5, True),
    ("q1-stage-e", 29.1, 70.4, 41.2, True),
    ("q2-stage-a", 0.1, 21.5, 0.3, False),
    ("q2-stage-b", 1.2, 20.1, 2.2, False),
    ("q2-stage-c", 0.2, 85.1, 0.4, True),
    ("q2-stage-d", 28.0, 66.7, 39.5, False),
    ("q2-stage-e", 29.3, 76.8, 42.4, True),
    ("extra-01", 62.4, 86.3, 72.4, True),
    ("extra-02", 93.8, 80.4, 86.5, False),
    ("extra-03", 64.8, 84.3, 73.3, True),
    ("extra-04", 47.0, 82.9, 60.0, True),
    ("extra-05", 20.5, 66.7, 31.3, False),
    ("extra-06", 35.7, 78.2, 49.0, True),
    ("extra-07", 15.8, 73.4, 26.0, True),
    ("extra-08", 58.3, 86.7, 69.7, True),
    ("extra-09", 82.1, 92.0, 86.8, True),
    ("extra-10", 25.2, 87.9, 39.2, True),
    ("extra-11", 46.7, 73.7, 57.1, False),
    ("extra-12", 60.6, 89.6, 72.3, True),
    ("extra-13", 68.0, 82.9, 74.7, True),
    ("extra-14", 25.6, 85.2, 39.3, False),
    ("extra-15", 75.8, 69.4, 72.5, True),
    ("extra-16", 71.4, 47.6, 57.1, True),
]

F_TOL_PP = 0.05  # half of the one-decimal printing precision


def _f_score(p, r):
    return 2 * p * r / (p + r) if p + r else 0.0


def _c1_params():
    params = []
    for row in METRIC_ROWS:
        name, p, r, f, consistent = row
        marks = () if consistent else pytest.mark.xfail(
            reason="printed F reflects unrounded P/R, not the printed ones",
            strict=True,
        )
        params.append(pytest.param(p, r, f, id=name, marks=marks))
    return params


@pytest.mark.acceptance(1, "reported metric rows recompute from printed P/R "
                           "at +/-0.05pp")
@pytest.mark.parametrize("p,r,f", _c1_params())
def test_c1_f_recomputes_from_printed_precision_recall(p, r, f):
    assert _f_score(p, r) == pytest.approx(f, abs=F_TOL_PP)


@pytest.mark.acceptance(1, "reported metric rows recompute from printed P/R "
                           "at +/-0.05pp")
@pytest.mark.parametrize(
    "p,r,f", [(row[1], row[2], row[3]) for row in METRIC_ROWS],
    ids=[row[0] for row in METRIC_ROWS],
)
def test_c1_every_row_interval_consistent(p, r, f):
    """Some unrounded (P, R) printing as (p, r) yields an F printing as f.

    F is monotone in both arguments, so the reachable F values for the
    rounding interval are [F(p-0.05, r-0.05), F(p+0.05, r+0.05)]; the
    row is explainable whenever that interval meets [f-0.05, f+0.05].
    """
    half = 0.05
    f_lo = _f_score(max(p - half, 0.0), max(r - half, 0.0))
    f_hi = _f_score(p + half, r + half)
    assert f_lo <= f + half and f_hi >= f - half


@pytest.mark.acceptance(1, "reported metric rows recompute from printed P/R "
                           "at +/-0.05pp")
def test_c1_known_split():
    inconsistent = [row[0] for row in METRIC_ROWS if not row[4]]
    assert len(METRIC_ROWS) == 26
    assert len(inconsistent) == 9


# --------------------------------------------------------------------------
# Criterion 2: abbreviation expansion
# --------------------------------------------------------------------------

@pytest.mark.acceptance(2, "abbreviation window formula, verbatim expansions "
                           "and idempotence")
class TestC2Abbreviations:
    @pytest.mark.parametrize("n,expected", [
        (2, 4), (3, 6), (4, 8), (5, 10), (6, 11),
        (7, 12), (8, 13), (9, 14), (10, 15),
    ])
    def test_window_formula(self, n, expected):
        assert preprocess.max_window("A" * n) == expected

    def test_short_declaration_verbatim(self):
        out, entries = preprocess.expand_abbreviations([
            "Patients with atrial fibrillation (AFib) were enrolled.",
            "AFib recurred in ten cases.",
        ])
        assert out == [
            "Patients with atrial fibrillation were enrolled.",
            "atrial fibrillation recurred in ten cases.",
        ]
        assert [(e.short_form, e.long_form) for e in entries] == [
            ("AFib", "atrial fibrillation"),
        ]

    def test_long_declaration_verbatim(self):
        out, entries = preprocess.expand_abbreviations([
            "Aldosterone blockade reduced hospitalization for heart failure"
            " in patients with systolic left ventricular dysfunction (SLVD)"
            " due to chronic heart failure and in patients with SLVD post"
            " acute myocardial infarction.",
        ])
        assert entries[0].long_form == "systolic left ventricular dysfunction"
        assert out == [
            "Aldosterone blockade reduced hospitalization for heart failure"
            " in patients with systolic left ventricular dysfunction"
            " due to chronic heart failure and in patients with systolic"
            " left ventricular dysfunction post acute myocardial infarction.",
        ]

    def test_idempotent_within_time_budget(self):
        rng = random.Random(20240817)
        declarations = [
            ("atrial fibrillation", "AF"),
            ("heart failure", "HF"),
            ("left ventricular ejection fraction", "LVEF"),
            ("chronic kidney disease", "CKD"),
        ]
        start = time.monotonic()
        for _ in range(1000):
            long, short = rng.choice(declarations)
            parts = [f"Patients with {long} ({short}) were enrolled.",
                     f"Later {short} persisted."]
            once, _ = preprocess.expand_abbreviations(parts)
            twice, again = preprocess.expand_abbreviations(once)
            assert twice == once
            assert again == []
        assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------
# Criterion 3: population extraction patterns
# --------------------------------------------------------------------------

@pytest.mark.acceptance(3, "seven structural population patterns on gold "
                           "phrase trees")
def test_c3_population_patterns_within_time_budget():
    lexicon = Resources.bundled().lexicon
    start = time.monotonic()
    for pattern, tree_text, expected in CASES:
        tree = parse_bracketed_tree(tree_text)
        tokens = tree.tokens()
        spans = extract_population(tree, read(" ".join(tokens), lexicon))
        assert expected in [" ".join(tokens[a:b]) for a, b in spans], pattern
    assert len(CASES) == 7
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# Criterion 4: drug normalization cascade and class hierarchy
# --------------------------------------------------------------------------

@pytest.mark.acceptance(4, "drug mention normalization rules and class "
                           "hierarchy chains")
def test_c4_drug_normalization():
    bundled = Resources.bundled()
    drugs, synonyms = bundled.drugs, bundled.synonyms
    rows = [
        ("aldosterone antagonists", "Aldosterone antagonists"),
        ("Angiotensin receptor blockers", "Angiotensin II receptor blockers"),
        ("Isosorbide dinitrate/Hydralazine", "Isosorbide dinitrate, Hydralazine"),
        ("Angiotensin converting enzyme (ACE) inhibitors",
         "Angiotensin converting enzyme inhibitors"),
        ("Beta blockers", "Beta adrenergic blockers"),
        ("Diuretic", "Diuretics"),
    ]
    for original, modified in rows:
        assert normalize_drug_components(original, drugs, synonyms) == _keys(modified)
    for name in bundled_drug_names():
        key = preprocess.normalize_token(name)
        assert normalize_drug_components(key, drugs, synonyms) == [key]
    assert drugs.hierarchy("furosemide") == _keys(
        "Furosemide, Loop diuretics, Diuretics, Cardiovascular agents")
    assert drugs.hierarchy("bumetanide") == _keys(
        "Bumetanide, Loop diuretics, Diuretics, Cardiovascular agents")
    assert drugs.hierarchy("diuretics") == _keys("Diuretics, Cardiovascular agents")


# --------------------------------------------------------------------------
# Criterion 5: ranking agrees with an independent dense implementation
# --------------------------------------------------------------------------

@pytest.mark.acceptance(5, "ranking matches a dense tf-idf reference at 1e-9")
def test_c5_ranking_oracle_within_time_budget():
    rng = random.Random(20240817)
    weights = WeightConfig()
    start = time.monotonic()
    for trial in range(50):
        pmids = sorted(rng.sample(range(1, 100), rng.randint(2, 10)))
        concepts = {p: _random_concepts(rng) for p in pmids}
        query = _random_concepts(rng)
        results = rank_citations(pmids, query, concepts, weights)
        order, scores, _ = _oracle(pmids, query, concepts, weights, 10.0)
        assert [r.pmid for r in results] == order, trial
        for r in results:
            assert r.vsm_score == pytest.approx(scores[r.pmid], abs=1e-9)
            for sim in (r.pop_sim, r.int_sim, r.dis_sim):
                assert -1e-9 <= sim <= 1.0 + 1e-9
    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# Criterion 6: four-constraint screening on a hand-labelled fixture
# --------------------------------------------------------------------------

@pytest.mark.acceptance(6, "screening assigns the hand-labelled lowest "
                           "constraint on a 12-citation fixture")
def test_c6_screening_fixture():
    drugs = Resources.bundled().drugs
    rows = screening_fixture()
    assert len(rows) == 12
    for pmid, citation, concepts, expected in rows:
        query = screening_query(SCREEN_QUERY, drugs, QUALIFIER_WHITELIST)
        decision = screen_citation(query, citation, concepts)
        assert decision.matched_constraint == expected, pmid
        assert decision.accepted == (expected is not None), pmid


# --------------------------------------------------------------------------
# Criterion 7: hermetic end-to-end pipeline reproduces frozen outputs
# --------------------------------------------------------------------------

@pytest.mark.acceptance(7, "hermetic pipeline is byte-identical to frozen "
                           "rankings and metric report across two runs")
def test_c7_pipeline_reproducibility(fixture_corpus_dir, gold_path,
                                     expected_dir, tmp_path):
    expected_report = json.loads((expected_dir / "report.json").read_text())
    start = time.monotonic()
    for run in ("one", "two"):
        out_dir = tmp_path / run
        result = run_cli([
            "--fixture-dir", str(fixture_corpus_dir), "--output", "json",
            "--gold-k", "5",
            "pipeline", str(gold_path), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == expected_report
        for topic_id in ("T1", "T2", "T3"):
            produced = (out_dir / f"{topic_id}.tsv").read_bytes()
            frozen = (expected_dir / f"{topic_id}.tsv").read_bytes()
            assert produced == frozen, topic_id
    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# Criterion 8: ranking-cutoff metric invariants on every fixture topic
# --------------------------------------------------------------------------

def _ranking_lengths(expected_dir):
    """Each fixture topic's number of ranked citations in its frozen TSV."""
    return {topic_id: len((expected_dir / f"{topic_id}.tsv").read_text().splitlines()) - 1
            for topic_id in ("T1", "T2", "T3")}


@pytest.mark.acceptance(8, "recall never decreases with cutoff depth and the "
                           "full cutoff matches plain P/R/F")
def test_c8_cutoff_invariants(gold_path, expected_dir):
    """``eval --gold-k k`` over the frozen rankings, for every k up to the
    longest ranking: no topic's top-k recall falls as k grows, and at k =
    the ranking's length the top-k entry is the plain one."""
    lengths = _ranking_lengths(expected_dir)
    recalls = {topic_id: [] for topic_id in lengths}
    for k in range(1, max(lengths.values()) + 1):
        result = run_cli(["--output", "json", "--gold-k", str(k),
                          "eval", str(gold_path), str(expected_dir)])
        assert result.exit_code == 0, result.output
        for topic_id, entry in json.loads(result.output)["topics"].items():
            recalls[topic_id].append(entry["gold_k"]["recall"])
            if k == lengths[topic_id]:
                assert entry["gold_k"] == {
                    name: entry[name] for name in ("precision", "recall", "f_score")
                }, topic_id
    for topic_id, series in recalls.items():
        assert series == sorted(series), topic_id
