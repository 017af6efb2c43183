"""Tests of the benchmark itself: inputs, stub, tracer and metric set.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def vocab():
    return gen.load_vocab()


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, vocab, tmp_path):
    for attempt in ("a", "b"):
        gen.write_inputs(gen.generate(name, 7, vocab), str(tmp_path / attempt))
    first, second = _files(str(tmp_path / "a")), _files(str(tmp_path / "b"))
    assert first and first == second


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_other_seed_gives_other_content(name, vocab):
    one, two = gen.generate(name, 7, vocab), gen.generate(name, 8, vocab)
    titles_one = {r.title for r in one.records}
    shared = titles_one & {r.title for r in two.records}
    assert len(shared) < 0.05 * len(titles_one)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_no_two_citations_share_title_and_abstract(name, vocab):
    wl = gen.generate(name, 3, vocab)
    keys = [(r.title, r.abstract_text()) for r in wl.records]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", ["topics_shared", "abstracts_long", "topic_wide"])
def test_decoys_fail_exactly_one_conjunct(name, vocab):
    wl = gen.generate(name, 3, vocab)
    journals = {gen.norm(j) for j in vocab.journals}
    fetched = {p for pmids in wl.planted.values() for p in pmids}
    decoys = [r for r in wl.records if r.plan == "decoy"]
    assert decoys and all(wl.planted.values())
    for r in decoys:
        assert r.pmid not in fetched
        failing = [not (gen.norm(r.journal) in journals), r.year < gen.MIN_YEAR,
                   not gen._has_pub_type(r)]
        assert sum(failing) == 1, r.pmid


def test_workload_properties(vocab):
    shared = gen.generate("topics_shared", 3, vocab)
    assert shared.properties["shared_fetch_share"] > 0.5
    long = gen.generate("abstracts_long", 3, vocab)
    assert long.properties["sentences_per_abstract"] >= 18
    assert long.properties["c4_reach_share"] > 0.5
    wide = gen.generate("topic_wide", 3, vocab)
    sizes = sorted(len(p) for p in wide.planted.values())
    assert sizes[1] == 2 * sizes[0] and sizes[2] == 4 * sizes[0]


# ---------------------------------------------------------------------------
# E-utilities stub
# ---------------------------------------------------------------------------

@pytest.fixture
def stub(vocab, tmp_path):
    wl = gen.live_paged(5, vocab)
    paths = gen.write_inputs(wl, str(tmp_path))
    server = run.Stub(paths["stub"], str(tmp_path))
    try:
        yield server, wl
    finally:
        server.stop()
    assert server.proc.poll() is not None


def _ids(text: str) -> list[int]:
    return [int(e.text) for e in ET.fromstring(text).iter("Id")]


def _pmids(text: str) -> list[int]:
    return [int(e.findtext("PMID")) for e in ET.fromstring(text).iter("MedlineCitation")]


def test_stub_serves_get_post_paging_and_history(stub):
    requests = pytest.importorskip("requests")
    server, wl = stub
    topic = wl.topics[0]
    term = f'("{topic.disease}"[MeSH]) AND 1974:[Year]'
    planted = wl.planted[topic.topic_id]
    search = f"{server.url}/esearch.fcgi"
    fetch = f"{server.url}/efetch.fcgi"

    page = requests.get(search, params={"db": "pubmed", "term": term,
                                        "retstart": 20, "retmax": 10}, timeout=10)
    root = ET.fromstring(page.text)
    assert page.status_code == 200 and root.findtext("Count") == str(len(planted))
    assert _ids(page.text) == planted[20:30]
    posted = requests.post(search, data={"db": "pubmed", "term": term,
                                         "retstart": 20, "retmax": 10}, timeout=10)
    assert posted.text == page.text

    history = ET.fromstring(requests.get(search, params={
        "term": term, "usehistory": "y", "retmax": 0}, timeout=10).text)
    webenv, key = history.findtext("WebEnv"), history.findtext("QueryKey")
    assert webenv and key
    by_history = requests.post(fetch, data={"WebEnv": webenv, "query_key": key,
                                            "retstart": 5, "retmax": 7}, timeout=10)
    assert _pmids(by_history.text) == planted[5:12]

    ids = ",".join(map(str, planted[:4]))
    assert _pmids(requests.get(fetch, params={"id": ids}, timeout=10).text) == planted[:4]
    assert _pmids(requests.post(fetch, data={"id": ids}, timeout=10).text) == planted[:4]

    none = requests.get(search, params={"term": '"no such disease"[MeSH]'}, timeout=10)
    assert ET.fromstring(none.text).findtext("Count") == "0"
    assert requests.get(f"{server.url}/nothing", timeout=10).status_code == 404
    assert server.requests() == 8


# ---------------------------------------------------------------------------
# Tracer and metrics
# ---------------------------------------------------------------------------

def test_tracer_reports_missing_names_instead_of_crashing():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import spans\n"
        "spans.SPAN_HOOKS += (('rank.gone', 'citescreen.rank', 'no_such_function'),\n"
        "                     ('nowhere.x', 'citescreen.no_such_module', 'f'))\n"
        "t = spans.Tracer(); t.install()\n"
        "from citescreen.rank import rank_citations\n"
        "print(sorted(t.unmeasured))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, os.path.join(ROOT, "src"), HERE],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "['citescreen.no_such_module.f', 'citescreen.rank.no_such_function']")


def test_self_time_and_growth_exponent():
    # outer [0, 10] holds children [1, 4] and [5, 6]; grandchild [2, 3]
    trace = [["a.outer", 0, 10, 0, None, "T", None], ["b.child", 1, 4, 1, 0, "T", None],
             ["c.grand", 2, 3, 2, 1, "T", None], ["b.child", 5, 6, 3, 0, "T", None]]
    assert spans.self_times(trace) == [6, 2, 1, 1]
    points = [(n, 3e-6 * n * n) for n in (100, 200, 400)]
    assert spans.growth_exponent(points) == pytest.approx(2.0)


def _fake_invocation(traced: bool) -> run.Invocation:
    inv = run.Invocation("unused", 0, 2.0, 100.0)
    inv.stats = {"first_topic": 100.2, "maxrss_kb": 40960,
                 "topics": [[f"T{i}", 100.2 + i * 0.1, 100.25 + i * 0.1, [1, 2, 3]]
                            for i in range(15)]}
    if traced:
        inv.trace = {"spans": [["pipeline.run_topic", 100.2, 100.25, 0, None, "T0", None],
                               ["rank.rank_citations", 100.21, 100.24, 1, 0, "T0", 3]],
                     "counters": {}, "distinct": {}, "unmeasured": [], "note_errors": {}}
    return inv


def test_every_benchmark_metric_is_emitted_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    report = {"overall_micro": {"f_score": 50.0},
              "overall_gold_k_micro": {"precision": 40.0}}
    values, _ = run.end_to_end([_fake_invocation(False)] * 3, report)
    emitted = {k: unit for k, unit in run.END_TO_END if k in values}
    assert emitted == {m["name"]: m["unit"] for m in bench["end_to_end"]}

    layer, _, _ = run.per_layer([_fake_invocation(False)], [_fake_invocation(True)])
    emitted = {k: run.layer_unit(k) for k in layer}
    assert emitted == {m["name"]: m["unit"] for m in bench["per_layer"]}


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_oracle_flags_a_wrong_score():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from citescreen.preprocess import stem_and_filter

    call = {
        "query": {"population": ["elderly patients"], "intervention": ["digoxin"],
                  "disease": ["heart failure"]},
        "docs": {"1": {"population": ["elderly patients"], "intervention": ["digoxin"],
                       "disease": ["heart failure"]},
                 "2": {"population": ["women"], "intervention": ["warfarin"],
                       "disease": ["stroke"]}},
    }
    scores = oracle.dense_scores(call["query"], call["docs"], stem_and_filter)
    call["results"] = [[1, 0, 0, 0, scores[1]], [2, 0, 0, 0, scores[2]]]
    assert oracle.check_ranking(call, stem_and_filter) == []
    call["results"][0][4] += 1e-6
    assert oracle.check_ranking(call, stem_and_filter)
    call["results"].reverse()
    assert any("order" in p for p in oracle.check_ranking(call, stem_and_filter))


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    start = time.monotonic()
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "topic_wide",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
    assert time.monotonic() - start < 60
