import ast
import codecs
import http.client
import json
import math
import os
import re
import shutil
import socket
import string
import time
import urllib.parse
import urllib.request
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import citescreen
from citescreen import corpus, pipeline, retrieve
from citescreen.cli import main
from citescreen.pipeline import RESOURCE_FILES, Resources, citation_concepts
from citescreen.retrieve import (
    MAX_QUERY_DEPTH,
    QueryFields,
    evaluate_query,
    load_fixture_corpus,
    parse_query,
)
from citescreen.tree import parse_bracketed_tree

from population_cases import reference_population


@pytest.fixture
def runner():
    return CliRunner()


T1_TITLE = "Diuretics for heart failure in elderly patients"

#: A config with one misspelled key, by the name the error must give it.
UNKNOWN_KEYS = {
    "min_yaer": {"min_yaer": 1492},
    "paths.lexicn": {"paths": {"lexicn": "x"}},
    "weights.w4": {"weights": {"w1": 0.3, "w2": 0.4, "w3": 0.3, "w4": 0}},
    "endpoint.fixture_dir": {"endpoint": {"fixture_dir": "tests/fixtures/corpus"}},
}


def _invoke(runner, args, **kw):
    result = runner.invoke(main, args, **kw)
    if result.exit_code != 0 and result.exception is not None:
        if not isinstance(result.exception, SystemExit):
            raise result.exception
    return result


class TestIngest:
    def test_stdout_jsonl(self, runner, fixture_corpus_dir):
        xml = str(fixture_corpus_dir / "heart_failure.xml")
        result = _invoke(runner, ["ingest", xml])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        assert [r["pmid"] for r in records] == list(range(1101, 1111))

    def test_out_file(self, runner, fixture_corpus_dir, tmp_path):
        xml = str(fixture_corpus_dir / "stroke.xml")
        out = tmp_path / "stroke.jsonl"
        result = _invoke(runner, ["ingest", xml, "--out", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 10

    def test_jsonl_matches_frozen_records(self, runner, fixture_corpus_dir,
                                          expected_dir, tmp_path):
        """``ingest`` and ``fetch --out`` write the pinned JSON lines, byte for
        byte: the files are given in PMID order, the order fetch keeps, and
        the year floor matches every fixture record."""
        frozen = (expected_dir / "ingest.jsonl").read_text()
        xmls = [str(fixture_corpus_dir / f"{name}.xml")
                for name in ("heart_failure", "atrial_fibrillation", "stroke")]
        assert _invoke(runner, ["ingest", *xmls]).output == frozen
        out = tmp_path / "fetched.jsonl"
        result = _invoke(runner, ["--fixture-dir", str(fixture_corpus_dir),
                                  "fetch", "1000:[Year]", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == frozen

    def test_malformed_xml_is_validation_error(self, runner, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<MedlineCitationSet><oops>")
        result = _invoke(runner, ["ingest", str(bad)])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_malformed_file_is_named(self, runner, fixture_corpus_dir, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<MedlineCitationSet><MedlineCitation><PMID>7</PMID>")
        result = _invoke(runner, ["ingest", str(fixture_corpus_dir / "stroke.xml"),
                                  str(bad)])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {bad}: malformed XML: ")

    def test_file_decodes_by_its_xml_declaration(self, runner, tmp_path):
        """As a live reply does: ingest and a fixture fetch read the same
        ISO-8859-1 bytes alike."""
        (tmp_path / "latin.xml").write_bytes(
            '<?xml version="1.0" encoding="ISO-8859-1"?>\n<MedlineCitationSet>'
            '<MedlineCitation><PMID>7</PMID><Article><ArticleTitle>Sjögren '
            'syndrome and café-au-lait spots</ArticleTitle></Article>'
            '</MedlineCitation></MedlineCitationSet>'.encode("iso-8859-1"))
        ingested = _invoke(runner, ["ingest", str(tmp_path / "latin.xml")])
        assert ingested.exit_code == 0, ingested.output
        assert json.loads(ingested.output)["title"] == (
            "Sjögren syndrome and café-au-lait spots")
        fetched = _invoke(runner, ["--fixture-dir", str(tmp_path), "fetch",
                                   '"Sjögren syndrome"[MeSH]'])
        assert (fetched.exit_code, fetched.output) == (0, "pmid\n7\n")

    def test_non_numeric_year_is_validation_error(self, runner, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<MedlineCitation><PMID>7</PMID><Article><Journal>"
                       "<JournalIssue><PubDate><Year>abc</Year></PubDate>"
                       "</JournalIssue></Journal></Article></MedlineCitation>")
        result = _invoke(runner, ["ingest", str(bad)])
        assert result.exit_code == 1
        assert "error:" in result.output and "'abc'" in result.output


class TestExtract:
    def test_text_mode(self, runner):
        result = _invoke(runner, [
            "extract", "--text",
            "Furosemide improved survival in elderly patients with heart failure.",
        ])
        assert result.exit_code == 0
        assert result.output.startswith("category\tconcept\n")
        assert "disease\theart failure" in result.output
        assert "intervention\tfurosemide" in result.output

    def test_tree_mode(self, runner):
        result = _invoke(runner, [
            "extract", "--tree",
            "(S (NP elderly (NN patients)) (VP improved))",
        ])
        assert result.exit_code == 0
        assert "population\telderly patients" in result.output

    def test_json_output(self, runner):
        result = _invoke(runner, [
            "--output", "json", "extract", "--text", "heart failure",
        ])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert {"category": "disease", "concept": "heart failure"} in rows

    def test_requires_exactly_one_input(self, runner):
        assert _invoke(runner, ["extract"]).exit_code == 1
        assert _invoke(
            runner, ["extract", "--text", "x", "--tree", "(S x)"]
        ).exit_code == 1

    def test_bad_tree_is_validation_error(self, runner):
        result = _invoke(runner, ["extract", "--tree", "(S (NP"])
        assert result.exit_code == 1

    def test_deeply_nested_tree(self, runner):
        tree = "(NP " * 3000 + "elderly (NN patients)" + ")" * 3000
        result = _invoke(runner, ["extract", "--tree", tree])
        assert result.exit_code == 0, result.output
        assert result.output == "category\tconcept\npopulation\telderly patients\n"


class TestQuery:
    def test_boolean_string(self, runner):
        result = _invoke(runner, ["query", "--title", T1_TITLE])
        assert result.exit_code == 0
        assert '"heart failure"[MeSH]' in result.output
        assert '"congestive heart failure"[MeSH]' in result.output
        assert "1974:[Year]" in result.output

    def test_min_year_before_1900_is_validation_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_year": 1492}))
        result = _invoke(runner, ["--config", str(config), "query", "--title", T1_TITLE])
        assert result.exit_code == 1
        assert "min_year must be >= 1900" in result.output
        assert f"config {config}" in result.output

    def test_wordless_resource_entries_make_no_terms(self, runner, tmp_path):
        (tmp_path / "hyponyms.tsv").write_text(
            "heart failure\t---, congestive heart failure\n")
        (tmp_path / "journals.txt").write_text("Circulation\n--\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {
            "hyponyms": str(tmp_path / "hyponyms.tsv"),
            "journals": str(tmp_path / "journals.txt")}}))
        result = _invoke(runner, ["--config", str(config), "query", "--title", T1_TITLE])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(
            '("heart failure"[MeSH] OR "congestive heart failure"[MeSH]) AND '
            '("diuretics"[MeSH] OR "cardiovascular agents"[MeSH]) AND '
            '("Circulation"[Journal]) AND 1974:[Year] AND (')


class TestFetch:
    def test_fixture_pmids(self, runner, fixture_corpus_dir):
        query = _invoke(runner, ["query", "--title", T1_TITLE]).output.strip()
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir), "fetch", query,
        ])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "pmid"
        assert lines[1:] == [str(p) for p in range(1101, 1108)]

    def test_json_names_the_source(self, runner, fixture_corpus_dir, tmp_path,
                                   monkeypatch):
        query = '"heart failure"[MeSH]'
        fixture = _invoke(runner, ["--output", "json", "--fixture-dir",
                                   str(fixture_corpus_dir), "fetch", query])
        assert json.loads(fixture.output)["source"] == "fixture"
        monkeypatch.setattr(retrieve, "_http_get", lambda *a, **k: (
            200, {}, b"<eSearchResult><Count>0</Count></eSearchResult>"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": {
            "endpoint_base_url": "https://api.example/entrez", "rate_limit_ms": 0}}))
        live = _invoke(runner, ["--output", "json", "--config", str(config),
                                "fetch", query])
        assert json.loads(live.output) == {"source": "live", "pmids": []}

    def test_unreachable_endpoint_is_transport_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "endpoint": {
                "endpoint_base_url": "http://127.0.0.1:9/entrez",
                "max_retries": 0,
                "rate_limit_ms": 0,
            },
        }))
        result = _invoke(runner, [
            "--config", str(config), "fetch", '"heart failure"[MeSH]',
        ])
        assert result.exit_code == 2

    def test_repeated_429_is_transport_error(self, runner, tmp_path, monkeypatch):
        attempts = []

        def fake_get(url, params=None, timeout=None):
            attempts.append(url)
            return 429, {"Retry-After": "1"}, b"rate limited"

        monkeypatch.setattr(retrieve, "_http_get", fake_get)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": {
            "endpoint_base_url": "https://api.example/entrez",
            "max_retries": 2, "rate_limit_ms": 0,
        }}))
        result = _invoke(runner, [
            "--config", str(config), "fetch", '"heart failure"[MeSH]',
        ])
        assert result.exit_code == 2
        assert "HTTP 429" in result.output
        assert len(attempts) == 3

    def test_retry_after_past_the_timeout_is_status_error(self, runner, tmp_path,
                                                          monkeypatch):
        """A wait no sleep can take, or one of days, is not sat through."""
        attempts = []
        monkeypatch.setattr(retrieve, "_http_get", lambda *a, **k: (
            attempts.append(a) or (429, {"Retry-After": "99999999999999999999"},
                                   b"rate limited")))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": {
            "endpoint_base_url": "https://api.example/entrez", "rate_limit_ms": 0}}))
        result = _invoke(runner, [
            "--config", str(config), "fetch", '"heart failure"[MeSH]',
        ])
        assert result.exit_code == 2
        assert "HTTP 429" in result.output and "Traceback" not in result.output
        assert len(attempts) == 1

    @pytest.mark.parametrize("key,value,accepted", [
        ("timeout_s", 86_400, True),
        ("timeout_s", math.nextafter(86_400, math.inf), False),
        ("timeout_s", 1e10, False),
        ("rate_limit_ms", 86_400_000, True),
        ("rate_limit_ms", 86_400_001, False),
        ("rate_limit_ms", 10 ** 13, False),
    ], ids=["timeout-one-day", "timeout-past-a-day", "timeout-past-time_t",
            "rate-one-day", "rate-past-a-day", "rate-past-time_t"])
    def test_endpoint_waits_are_at_most_a_day(self, runner, tmp_path, monkeypatch,
                                              key, value, accepted):
        """Up to one day, the refused connection ends the run (exit 2) with
        no wait before the first request; past it, the config is an error
        (exit 1), where near 1e10 s ``socket.settimeout`` and
        ``time.sleep`` would overflow."""
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": {
            "endpoint_base_url": f"http://127.0.0.1:{port}/entrez",
            "max_retries": 0, key: value}}))
        result = _invoke(runner, [
            "--config", str(config), "fetch", '"heart failure"[MeSH]',
        ])
        if accepted:
            assert result.exit_code == 2
            assert "error: request failed after retries" in result.output
            assert slept == []
        else:
            assert result.exit_code == 1
            assert result.output.startswith(
                f"error: config {config}: endpoint {key} must be")
            assert "(one day)" in result.output

    def test_malformed_query_is_validation_error(self, runner,
                                                 fixture_corpus_dir):
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir), "fetch", "((broken",
        ])
        assert result.exit_code == 1

    def test_unknown_field_is_validation_error_whatever_the_corpus_holds(
            self, runner, fixture_corpus_dir):
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir), "fetch",
            '"no such disease"[MeSH] AND "x"[Foo]',
        ])
        assert result.exit_code == 1
        assert "unknown field 'Foo'" in result.output

    @pytest.mark.parametrize("term", ['""[MeSH]', '"--"[MeSH]', '" "[Journal]',
                                      '"()"[PubType]'])
    def test_wordless_term_is_validation_error(self, runner, fixture_corpus_dir,
                                               term):
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir), "fetch",
            f'"heart failure"[MeSH] OR {term}',
        ])
        assert result.exit_code == 1
        assert "error:" in result.output and "has no words" in result.output

    @pytest.mark.parametrize("depth", [MAX_QUERY_DEPTH, MAX_QUERY_DEPTH + 1, 3000])
    def test_query_nesting_limit(self, runner, fixture_corpus_dir, depth):
        # two expression nodes per level, the deepest shape a level can take
        term = '"atrial fibrillation"[MeSH]'
        query = term
        for _ in range(depth):
            query = f'({query} AND {term} OR "no such disease"[MeSH])'
        args = ["--fixture-dir", str(fixture_corpus_dir), "fetch"]
        result = _invoke(runner, [*args, query])
        assert "Traceback" not in result.output
        if depth <= MAX_QUERY_DEPTH:
            assert result.exit_code == 0, result.output
            assert result.output == _invoke(runner, [*args, term]).output
        else:
            assert result.exit_code == 1
            assert "error:" in result.output
            assert f"deeper than {MAX_QUERY_DEPTH} levels" in result.output

    def test_malformed_fixture_file_is_named(self, runner, fixture_corpus_dir,
                                             tmp_path):
        (tmp_path / "stroke.xml").write_bytes(
            (fixture_corpus_dir / "stroke.xml").read_bytes())
        (tmp_path / "b.xml").write_text("<MedlineCitationSet><MedlineCitation>")
        result = _invoke(runner, [
            "--fixture-dir", str(tmp_path), "fetch", '"stroke"[MeSH]',
        ])
        assert result.exit_code == 1
        assert "error:" in result.output and "b.xml" in result.output

    def test_records_without_a_pmid_of_their_own_are_skipped(self, runner,
                                                             tmp_path):
        def record(pmid_xml):
            return (f"<MedlineCitation>{pmid_xml}<Article><ArticleTitle>Heart "
                    f"failure</ArticleTitle></Article></MedlineCitation>")
        (tmp_path / "a.xml").write_text(
            "<MedlineCitationSet>" + record("<PMID>0</PMID>")
            + record("<PMID>000</PMID>") + record("<PMID>12</PMID>")
            + record("<CommentsCorrections><PMID>999</PMID></CommentsCorrections>")
            + "</MedlineCitationSet>")
        fetched = _invoke(runner, ["--fixture-dir", str(tmp_path), "fetch",
                                   '"heart failure"[MeSH]'])
        assert (fetched.exit_code, fetched.output) == (0, "pmid\n12\n")
        ingested = _invoke(runner, ["ingest", str(tmp_path / "a.xml")])
        assert ingested.exit_code == 0, ingested.output
        assert [json.loads(line)["pmid"] for line in
                ingested.output.splitlines()] == [12]


@pytest.fixture
def hf_jsonl(runner, fixture_corpus_dir, tmp_path):
    xml = str(fixture_corpus_dir / "heart_failure.xml")
    out = tmp_path / "hf.jsonl"
    assert _invoke(
        runner, ["ingest", xml, "--out", str(out)]
    ).exit_code == 0
    return out


class TestScreen:
    def test_decisions(self, runner, hf_jsonl):
        result = _invoke(runner, [
            "screen", "--title", T1_TITLE, str(hf_jsonl),
        ])
        assert result.exit_code == 0
        decisions = [json.loads(line) for line in result.output.splitlines()]
        by_pmid = {d["pmid"]: d for d in decisions}
        for pmid in (1101, 1102, 1103, 1104, 1105):
            assert by_pmid[pmid]["accepted"]
        assert not by_pmid[1106]["accepted"]
        assert not by_pmid[1107]["accepted"]


@pytest.mark.parametrize("command", ["screen", "rank"])
@pytest.mark.parametrize("field", ["pmid", "title"])
def test_record_missing_field_is_validation_error(runner, hf_jsonl, tmp_path,
                                                  command, field):
    first, second = hf_jsonl.read_text().splitlines()[:2]
    broken = json.loads(second)
    del broken[field]
    path = tmp_path / "broken.jsonl"
    path.write_text(first + "\n" + json.dumps(broken) + "\n")
    result = _invoke(runner, [command, "--title", T1_TITLE, str(path)])
    assert result.exit_code == 1
    assert "error:" in result.output and "line 2" in result.output


@pytest.mark.parametrize("command", ["screen", "rank"])
@pytest.mark.parametrize("field, value", [
    ("title", 5),
    ("pmid", True),
    ("year", True),
    ("journal", ["Lancet"]),
    ("abstract", "One sentence."),
    ("publication_types", [1]),
    ("abstract_is_structured", "no"),
    ("section_labels", {"0": 5}),
    ("mesh_terms", [{"descriptor": "Heart Failure", "qualifier": 7,
                     "is_major_topic": True}]),
    ("mesh_terms", [{"descriptor": "Heart Failure", "qualifier": None,
                     "is_major_topic": "no"}]),
    ("mesh_terms", [{"descriptor": 5, "qualifier": None,
                     "is_major_topic": True}]),
    ("mesh", 5),
    ("pmid", 1.5),
    ("pmid", "1101"),
    ("year", 1e400),    # JSON reads 1e400 as infinity
])
def test_record_wrong_field_type_is_validation_error(runner, hf_jsonl, tmp_path,
                                                     command, field, value):
    first, second = hf_jsonl.read_text().splitlines()[:2]
    broken = json.loads(second)
    broken[field] = value
    path = tmp_path / "broken.jsonl"
    path.write_text(first + "\n" + json.dumps(broken) + "\n")
    result = _invoke(runner, [command, "--title", T1_TITLE, str(path)])
    assert result.exit_code == 1
    assert "error:" in result.output and "line 2" in result.output
    assert field in result.output


@pytest.mark.parametrize("command", ["screen", "rank"])
@pytest.mark.parametrize("record", ["[]", "null", "5"])
def test_record_not_an_object_is_validation_error(runner, hf_jsonl, tmp_path,
                                                  command, record):
    first = hf_jsonl.read_text().splitlines()[0]
    path = tmp_path / "broken.jsonl"
    path.write_text(first + "\n" + record + "\n")
    result = _invoke(runner, [command, "--title", T1_TITLE, str(path)])
    assert result.exit_code == 1
    assert "error:" in result.output and "line 2" in result.output


@pytest.mark.parametrize("command", ["screen", "rank"])
def test_deeply_nested_record_is_named(runner, hf_jsonl, tmp_path, command):
    """A line nested deeper than the JSON decoder recurses is a bad record."""
    first = hf_jsonl.read_text().splitlines()[0]
    path = tmp_path / "deep.jsonl"
    path.write_text(first + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    result = _invoke(runner, [command, "--title", T1_TITLE, str(path)])
    assert result.exit_code == 1
    assert f"error: {path} line 2: bad citation record" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["screen", "rank"])
def test_repeated_record_is_extracted_once(runner, hf_jsonl, tmp_path, monkeypatch,
                                           command):
    extracted = []

    def counted(citation, res):
        extracted.append(citation.pmid)
        return citation_concepts(citation, res)

    monkeypatch.setattr(pipeline, "citation_concepts", counted)
    lines = hf_jsonl.read_text().splitlines()
    path = tmp_path / "repeated.jsonl"
    path.write_text("\n".join([*lines, lines[0]]) + "\n")
    result = _invoke(runner, [command, "--title", T1_TITLE, str(path)])
    assert result.exit_code == 0
    assert sorted(extracted) == list(range(1101, 1111))


class TestRank:
    def test_matches_frozen_expectation(self, runner, hf_jsonl, expected_dir):
        result = _invoke(runner, ["rank", "--title", T1_TITLE, str(hf_jsonl)])
        assert result.exit_code == 0
        assert result.output.startswith(
            "rank\tpmid\tpop_sim\tint_sim\tdis_sim\tvsm_score\n"
        )

    def test_top_k(self, runner, hf_jsonl):
        result = _invoke(runner, [
            "--top-k", "3", "rank", "--title", T1_TITLE, str(hf_jsonl),
        ])
        assert len(result.output.splitlines()) == 4  # header + 3 rows


#: Each stage command's arguments, by the suffix of its frozen output
#: under ``expected/stages/``.
STAGE_COMMANDS = {
    "query.txt": ["query", "--title", "{title}"],
    "extract.tsv": ["extract", "--text", "{title}"],
    "fetch.tsv": ["--fixture-dir", "{corpus}", "fetch", "{query}"],
    "screen.jsonl": ["screen", "--title", "{title}", "{jsonl}"],
    "rank.tsv": ["rank", "--title", "{title}", "{jsonl}"],
}


@pytest.mark.parametrize("stage", STAGE_COMMANDS)
@pytest.mark.parametrize("topic_id", ["T1", "T2", "T3"])
def test_stage_output_matches_frozen_file(runner, fixture_corpus_dir, gold_path,
                                          expected_dir, topic_id, stage):
    """Each stage command prints its frozen file byte for byte, for each
    gold topic: ``fetch`` runs the frozen query, and ``screen`` and
    ``rank`` read every frozen fixture record."""
    titles = {t.topic_id: t.title for t in corpus.load_gold_standard(str(gold_path))}
    stages = expected_dir / "stages"
    query = (stages / f"{topic_id}.query.txt").read_text(encoding="utf-8").rstrip("\n")
    args = [arg.format(title=titles[topic_id], query=query, corpus=fixture_corpus_dir,
                       jsonl=expected_dir / "ingest.jsonl")
            for arg in STAGE_COMMANDS[stage]]
    result = _invoke(runner, args)
    assert result.exit_code == 0
    assert result.output == (stages / f"{topic_id}.{stage}").read_text(encoding="utf-8")


@pytest.mark.parametrize("flag", ["--top-k", "--gold-k"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cutoff_below_one_is_usage_error(runner, hf_jsonl, flag, value):
    result = _invoke(runner, [
        flag, value, "rank", "--title", T1_TITLE, str(hf_jsonl),
    ])
    assert result.exit_code == 1
    assert "x>=1" in result.output


class TestPipelineAndEval:
    def test_end_to_end_report(self, runner, fixture_corpus_dir, gold_path,
                               tmp_path, expected_dir):
        out_dir = tmp_path / "ranked"
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir), "--output", "json",
            "--gold-k", "5",
            "pipeline", str(gold_path), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        expected = json.loads((expected_dir / "report.json").read_text())
        assert report == expected
        for topic_id in ("T1", "T2", "T3"):
            produced = (out_dir / f"{topic_id}.tsv").read_text()
            frozen = (expected_dir / f"{topic_id}.tsv").read_text()
            assert produced == frozen

    def test_eval_on_frozen_rankings(self, runner, gold_path, expected_dir):
        result = _invoke(runner, [
            "--output", "json", "eval", str(gold_path), str(expected_dir),
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        for entry in report["topics"].values():
            assert entry["f_score"] == 80.0

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    def test_gold_file_with_a_byte_order_mark(self, runner, fixture_corpus_dir,
                                              gold_path, expected_dir, tmp_path,
                                              command):
        """A leading UTF-8 byte-order mark is not part of the first topic id:
        the report, and the files ``--out-dir`` gets, are the plain file's."""
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(codecs.BOM_UTF8 + gold_path.read_bytes())
        out_dir = tmp_path / "ranked"
        args = {"eval": ["eval", str(gold), str(expected_dir)],
                "pipeline": ["pipeline", str(gold), "--out-dir", str(out_dir)]}[command]
        result = _invoke(runner, ["--fixture-dir", str(fixture_corpus_dir),
                                  "--output", "json", "--gold-k", "5", *args])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == json.loads(
            (expected_dir / "report.json").read_text())
        if command == "pipeline":
            assert sorted(p.name for p in out_dir.iterdir()) == [
                "T1.tsv", "T2.tsv", "T3.tsv"]

    @pytest.mark.parametrize("topic_id", ["../outside", "a/b", "a\\b", "/abs",
                                          ".", "..", ""])
    def test_eval_topic_id_that_is_not_a_file_name_is_named(
            self, runner, gold_path, expected_dir, tmp_path, topic_id):
        """An id that is not one plain file name could score a ranked file
        outside the ranked directory, such as ``outside.tsv`` beside it."""
        if topic_id == "/abs":
            topic_id = str(tmp_path / "abs")
        gold = tmp_path / "gold.tsv"
        gold.write_text(gold_path.read_text().replace("T1\t", f"{topic_id}\t", 1))
        (tmp_path / "ranked").mkdir()
        for name in ("outside", "abs"):
            (tmp_path / f"{name}.tsv").write_text((expected_dir / "T1.tsv").read_text())
        result = _invoke(runner, ["eval", str(gold), str(tmp_path / "ranked")])
        assert result.exit_code == 1
        assert "error:" in result.output and repr(topic_id) in result.output
        assert "Traceback" not in result.output

    def test_gold_k_section(self, runner, gold_path, expected_dir):
        result = _invoke(runner, [
            "--gold-k", "5", "--output", "json",
            "eval", str(gold_path), str(expected_dir),
        ])
        report = json.loads(result.output)
        assert "overall_gold_k_micro" in report

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    def test_gold_k_row_in_tsv(self, runner, fixture_corpus_dir, gold_path,
                               expected_dir, command):
        """``--gold-k`` adds one overall row to the TSV report, holding the
        JSON report's ``overall_gold_k_micro``; the other rows are unchanged."""
        args = {"eval": ["eval", str(gold_path), str(expected_dir)],
                "pipeline": ["pipeline", str(gold_path)]}[command]
        base = ["--fixture-dir", str(fixture_corpus_dir)]
        plain = _invoke(runner, [*base, *args])
        with_k = _invoke(runner, [*base, "--gold-k", "2", *args])
        report = json.loads(
            _invoke(runner, [*base, "--gold-k", "2", "--output", "json", *args]).output)
        assert plain.exit_code == with_k.exit_code == 0
        entry = report["overall_gold_k_micro"]
        assert with_k.output == plain.output + (
            f"overall_gold_k_micro\t{entry['precision']}\t{entry['recall']}"
            f"\t{entry['f_score']}\n")

    @pytest.mark.parametrize("case", ["out-dir-is-a-file", "topic-id-with-slash"])
    def test_unwritable_out_dir_is_named(self, runner, fixture_corpus_dir,
                                         gold_path, tmp_path, case):
        out_dir, gold = tmp_path / "ranked", tmp_path / "gold.tsv"
        if case == "out-dir-is-a-file":
            out_dir.write_text("")
            gold.write_text(gold_path.read_text())
            unwritable = out_dir
        else:
            gold.write_text(gold_path.read_text().replace("T1\t", "x/y\t", 1))
            unwritable = out_dir / "x" / "y.tsv"
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir),
            "pipeline", str(gold), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 1
        assert "error:" in result.output and str(unwritable) in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("topic_id", ["../escaped", "a/b", "a\\b", "/abs",
                                          ".", "..", ""])
    def test_topic_id_that_is_not_a_file_name_is_named(
            self, runner, fixture_corpus_dir, gold_path, tmp_path, topic_id):
        """An id that is not one plain file name could put its ranking
        outside --out-dir; it is an error before any topic runs."""
        if topic_id == "/abs":
            topic_id = str(tmp_path / "abs")
        gold = tmp_path / "gold.tsv"
        gold.write_text(gold_path.read_text().replace("T2\t", f"{topic_id}\t", 1))
        out_dir = tmp_path / "out"
        result = _invoke(runner, [
            "--fixture-dir", str(fixture_corpus_dir),
            "pipeline", str(gold), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 1
        assert "error:" in result.output and repr(topic_id) in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["gold.tsv"]

    @pytest.mark.parametrize("command", ["fetch", "ingest"])
    def test_unwritable_out_file_is_named(self, runner, fixture_corpus_dir,
                                          tmp_path, command):
        args = {
            "fetch": ["--fixture-dir", str(fixture_corpus_dir),
                      "fetch", '"heart failure"[MeSH]'],
            "ingest": ["ingest", str(fixture_corpus_dir / "stroke.xml")],
        }[command]
        result = _invoke(runner, [*args, "--out", str(tmp_path)])  # a directory
        assert result.exit_code == 1
        assert "error:" in result.output and str(tmp_path) in result.output
        assert "Traceback" not in result.output

    def test_bad_config_is_validation_error(self, runner, gold_path, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        result = _invoke(runner, [
            "--config", str(config), "pipeline", str(gold_path),
        ])
        assert result.exit_code == 1

    @pytest.mark.parametrize("settings", [
        {"endpoint": {"bogus": 1}},
        {"weights": {"w1": 0.5}},
    ])
    def test_bad_config_value_is_validation_error(self, runner, gold_path,
                                                  tmp_path, settings):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        result = _invoke(runner, [
            "--config", str(config), "pipeline", str(gold_path),
        ])
        assert result.exit_code == 1
        assert "error:" in result.output

    @pytest.mark.parametrize("settings", [
        {"paths": {"lexicon": "nope.tsv"}},
        [1, 2],
        {"qualifier_whitelist": [1]},
        {"min_year": None},
        {"fixture_dir": 5},
        {"endpoint": {"page_size": 0}},
        {"endpoint": {"rate_limit_ms": "fast"}},
        {"weights": {"w1": True, "w2": 0, "w3": 0}},
        {"weights": {"w1": 10 ** 400, "w2": 0, "w3": 0}},
        {"weights": {"w1": float("nan"), "w2": 0, "w3": 0}},
        *UNKNOWN_KEYS.values(),
    ], ids=["missing-resource-file", "not-an-object", "non-string-qualifier",
            "null-min-year", "integer-fixture-dir", "zero-page-size",
            "string-rate-limit", "boolean-weight", "huge-weight", "nan-weight",
            *UNKNOWN_KEYS])
    def test_unusable_config_is_validation_error(self, runner, tmp_path,
                                                 settings):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = _invoke(runner, [
                "--config", str(config), "query", "--title", "heart failure",
            ])
        assert result.exit_code == 1
        assert "error:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("content", [
        b"\xff{}",
        json.dumps({"weights": [1]}).encode(),
        json.dumps({"weights": {"w1": 0.5}}).encode(),
        json.dumps({"weights": {"w1": True, "w2": 0, "w3": 0}}).encode(),
        json.dumps({"endpoint": {"page_size": 0}}).encode(),
    ], ids=["not-utf8", "weights-list", "weights-missing", "boolean-weight",
            "zero-page-size"])
    def test_config_error_names_the_config(self, runner, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", "heart failure",
        ])
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert f"config {config}" in result.output
        assert "Traceback" not in result.output

    def test_deeply_nested_config_is_named(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", "heart failure",
        ])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: cannot read config {config}: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("content", ["", "heart failure\tD1\tno-such-group\n"],
                             ids=["empty", "all-rejected"])
    def test_lexicon_without_entries_is_named(self, runner, tmp_path, content):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(content)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"lexicon": str(lexicon)}}))
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", "heart failure",
        ])
        assert result.exit_code == 1
        assert result.output == (f"error: config {config}: paths.lexicon file "
                                 f"{lexicon} has no entries\n")

    @pytest.mark.parametrize("key,edit", [
        ("journals", lambda text: text + 'The "Heart" Journal\n'),
        ("hyponyms", lambda text: text.replace(
            "systolic heart failure", 'systolic heart failure, cardiac"pump failure')),
    ], ids=["journals", "hyponyms"])
    def test_quoted_resource_entry_is_skipped(self, runner, fixture_corpus_dir,
                                              gold_path, expected_dir, tmp_path,
                                              key, edit):
        """The query syntax has no escape for a double quote, so an entry
        holding one is left out of every query and the report is unchanged."""
        filename = {"journals": "journals.txt", "hyponyms": "hyponyms.tsv"}[key]
        bundled = Path(corpus.bundled_path(filename)).read_text(encoding="utf-8")
        resource = tmp_path / filename
        resource.write_text(edit(bundled), encoding="utf-8")
        assert resource.read_text(encoding="utf-8") != bundled
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {key: str(resource)}}))
        result = _invoke(runner, [
            "--config", str(config), "--fixture-dir", str(fixture_corpus_dir),
            "--output", "json", "--gold-k", "5", "pipeline", str(gold_path),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == json.loads(
            (expected_dir / "report.json").read_text())

    def test_quoted_lexicon_surface_is_skipped(self, runner, tmp_path, caplog):
        """A lexicon surface whose normal form holds a double quote is left
        out with a warning, so the query it would break is not built."""
        bundled = Path(corpus.bundled_path("lexicon.tsv")).read_text(encoding="utf-8")
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(bundled + 'rock"n"roll syndrome\tX1\tdisorder\n',
                           encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"lexicon": str(lexicon)}}))
        title = ["--title", 'rock"n"roll syndrome treated with furosemide']
        result = _invoke(runner, ["--config", str(config), "query", *title])
        assert result.exit_code == 0, result.output
        assert result.output == _invoke(runner, ["query", *title]).output
        parse_query(result.output.strip())
        assert "holds a double quote" in caplog.text

    @pytest.mark.parametrize("key", UNKNOWN_KEYS)
    def test_unknown_config_key_is_named(self, runner, tmp_path, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(UNKNOWN_KEYS[key]))
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", "heart failure",
        ])
        assert result.exit_code == 1
        assert f"unknown key '{key}'" in result.output

    def test_fixture_dir_precedence(self, runner, fixture_corpus_dir, tmp_path):
        """--fixture-dir wins over the config's fixture_dir."""
        query, corpus = '"heart failure"[MeSH]', str(fixture_corpus_dir)
        plain = _invoke(runner, ["--fixture-dir", corpus, "fetch", query])
        assert len(plain.output.splitlines()) > 1
        for settings, option in (
            ({"fixture_dir": str(tmp_path / "nowhere")}, ["--fixture-dir", corpus]),
            ({"fixture_dir": corpus}, []),
        ):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(settings))
            result = _invoke(runner, ["--config", str(config), *option,
                                      "fetch", query])
            assert result.exit_code == 0, result.output
            assert result.output == plain.output

    def test_min_year_past_9999_runs(self, runner, fixture_corpus_dir,
                                     gold_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_year": 10000}))
        result = _invoke(runner, [
            "--config", str(config), "--fixture-dir", str(fixture_corpus_dir),
            "pipeline", str(gold_path),
        ])
        assert result.exit_code == 0, result.output

    def test_readme_example_config_is_accepted(self, runner, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = re.search(r"Example config:\n\n```json\n(.*?)```", readme, re.S)
        config = tmp_path / "config.json"
        config.write_text(example.group(1))
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", T1_TITLE,
        ])
        assert result.exit_code == 0, result.output

    def test_integer_path_is_validation_error(self, runner, tmp_path):
        """An integer ``paths`` entry is no file descriptor to read and close."""
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("patients\tPOP-001\tpopulation\n")
        config = tmp_path / "config.json"
        fd = os.open(lexicon, os.O_RDONLY)
        try:
            config.write_text(json.dumps({"paths": {"lexicon": fd}}))
            result = _invoke(runner, [
                "--config", str(config), "query", "--title", "heart failure",
            ])
            os.fstat(fd)  # still open
        finally:
            try:
                os.close(fd)
            except OSError:
                pass
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_binary_resource_file_is_named(self, runner, tmp_path):
        binary = tmp_path / "bin.tsv"
        binary.write_bytes(b"\x80\x81\xfe\xff")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"drug_hierarchy": str(binary)}}))
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", "heart failure",
        ])
        assert result.exit_code == 1
        assert "error:" in result.output
        assert "paths.drug_hierarchy" in result.output
        assert result.output.count(str(binary)) == 1

    @pytest.mark.parametrize("key", [key for _, key, _, _ in RESOURCE_FILES])
    def test_path_holding_a_nul_byte_is_named(self, runner, tmp_path, key):
        """``open`` rejects such a path with a ValueError, not an OSError;
        it is a read failure all the same, naming the path, key and config."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {key: "a\u0000b"}}))
        result = _invoke(runner, ["--config", str(config), "query", "--title", "x"])
        assert result.exit_code == 1
        assert result.output == (f"error: config {config}: paths.{key} file "
                                 f"'a\\x00b': embedded null byte\n")

    @pytest.mark.parametrize("key,content,message", [
        ("drug_hierarchy", "Diuretics\nDiuretics\n", "duplicate name 'Diuretics'"),
        ("hyponyms", "heart failure\tcardiac failure, heart failure\n",
         "its own hyponym"),
        ("drug_hierarchy", 'Diuretics\n\tRock"n"roll diuretics\n',
         """line 2: name 'Rock"n"roll diuretics' holds a double quote"""),
    ], ids=["drug_hierarchy", "hyponyms", "drug_hierarchy-quote"])
    def test_malformed_resource_file_is_named(self, runner, tmp_path, key,
                                              content, message):
        resource = tmp_path / "resource.txt"
        resource.write_text(content)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {key: str(resource)}}))
        result = _invoke(runner, [
            "--config", str(config), "query", "--title", "heart failure",
        ])
        assert result.exit_code == 1
        assert "error:" in result.output and message in result.output
        assert f"paths.{key}" in result.output
        assert result.output.count(str(resource)) == 1

    def test_long_sentence_record_leaves_report_unchanged(
            self, runner, fixture_corpus_dir, gold_path, expected_dir, tmp_path):
        """A record whose abstract holds a 1,500-word sentence is fetched, chunked
        and screened out without changing any topic's result."""
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(fixture_corpus_dir, corpus_dir)
        sentence = "Proarrhythmia occurred in most " + " ".join(
            ["of the patients"] * 500) + "."
        record = (fixture_corpus_dir / "atrial_fibrillation.xml").read_text()
        record = record[record.index("<MedlineCitation>\n  <PMID>2206"):]
        record = record[:record.index("</MedlineCitation>")]
        record = record.replace("<PMID>2206", "<PMID>2299").replace(
            "Careful electrocardiographic monitoring is advised.", sentence)
        (corpus_dir / "long_sentence.xml").write_text(
            f"<MedlineCitationSet>{record}</MedlineCitation></MedlineCitationSet>")
        args = ["--fixture-dir", str(corpus_dir)]
        t2_title = gold_path.read_text().splitlines()[1].split("\t")[1]
        t2_query = _invoke(runner, ["query", "--title", t2_title]).output.strip()
        fetched = _invoke(runner, [*args, "fetch", t2_query]).output.split()
        assert "2299" in fetched

        out_dir = tmp_path / "ranked"
        result = _invoke(runner, [
            *args, "--output", "json", "--gold-k", "5",
            "pipeline", str(gold_path), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == json.loads(
            (expected_dir / "report.json").read_text())
        for topic_id in ("T1", "T2", "T3"):
            assert (out_dir / f"{topic_id}.tsv").read_text() == (
                expected_dir / f"{topic_id}.tsv").read_text()

    @pytest.mark.parametrize("kind", ["gold-pipeline", "gold-eval", "ranked-eval",
                                      "jsonl-screen", "jsonl-rank", "xml-ingest"])
    def test_input_file_not_utf8_is_named(self, runner, fixture_corpus_dir,
                                          gold_path, tmp_path, kind):
        binary = tmp_path / "T1.tsv"
        binary.write_bytes(b"rank\tpmid\n\xff\xfe\x80\n")
        args = {
            "gold-pipeline": ["--fixture-dir", str(fixture_corpus_dir),
                              "pipeline", str(binary)],
            "gold-eval": ["eval", str(binary), str(tmp_path)],
            "ranked-eval": ["eval", str(gold_path), str(tmp_path)],
            "jsonl-screen": ["screen", "--title", T1_TITLE, str(binary)],
            "jsonl-rank": ["rank", "--title", T1_TITLE, str(binary)],
            "xml-ingest": ["ingest", str(binary)],
        }[kind]
        result = _invoke(runner, args)
        assert result.exit_code == 1
        assert "error:" in result.output and result.output.count(str(binary)) == 1

    @pytest.mark.parametrize("kind", ["gold-pipeline", "gold-eval", "ranked-eval",
                                      "jsonl-screen", "jsonl-rank", "xml-ingest",
                                      "xml-fixture", "config", "paths"])
    def test_input_that_is_a_directory_is_named(self, runner, fixture_corpus_dir,
                                                gold_path, tmp_path, kind):
        """The error names the file once, and a ``paths`` file's key too."""
        directory = tmp_path / ("T1.xml" if kind == "xml-fixture" else "T1.tsv")
        directory.mkdir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"journals": str(directory)}}))
        args = {
            "gold-pipeline": ["--fixture-dir", str(fixture_corpus_dir),
                              "pipeline", str(directory)],
            "gold-eval": ["eval", str(directory), str(tmp_path)],
            "ranked-eval": ["eval", str(gold_path), str(tmp_path)],
            "jsonl-screen": ["screen", "--title", T1_TITLE, str(directory)],
            "jsonl-rank": ["rank", "--title", T1_TITLE, str(directory)],
            "xml-ingest": ["ingest", str(directory)],
            "xml-fixture": ["--fixture-dir", str(tmp_path), "fetch", '"stroke"[MeSH]'],
            "config": ["--config", str(directory), "query", "--title", T1_TITLE],
            "paths": ["--config", str(config), "query", "--title", T1_TITLE],
        }[kind]
        result = _invoke(runner, args)
        assert result.exit_code == 1
        assert "error:" in result.output and result.output.count(str(directory)) == 1
        assert "Traceback" not in result.output
        if kind == "paths":
            assert "paths.journals" in result.output

    def test_ranked_row_without_tab_is_validation_error(self, runner, gold_path,
                                                        tmp_path):
        ranked = tmp_path / "ranked"
        ranked.mkdir()
        (ranked / "T1.tsv").write_text("rank\tpmid\nbroken\n")
        result = _invoke(runner, ["eval", str(gold_path), str(ranked)])
        assert result.exit_code == 1
        assert "T1.tsv line 2" in result.output

    @pytest.mark.parametrize("pmid", ["1_101", "-7", "+1102"])
    def test_ranked_pmid_that_is_not_decimal_is_named(self, runner, gold_path,
                                                      tmp_path, pmid):
        """A ranked PMID is read by the gold table's rule, blanks stripped and
        decimal digits only, so ``1_101`` is not scored as gold PMID 1101."""
        ranked = tmp_path / "ranked"
        ranked.mkdir()
        (ranked / "T1.tsv").write_text(f"rank\tpmid\n1\t 1102 \n2\t{pmid}\n")
        result = _invoke(runner, ["eval", str(gold_path), str(ranked)])
        assert result.exit_code == 1
        assert result.output == (f"error: {ranked / 'T1.tsv'} line 3: expected "
                                 f"rank<TAB>pmid, got '2\\t{pmid}'\n")

    def test_ranked_pmid_between_blanks_is_read(self, runner, gold_path, tmp_path):
        outputs = []
        for pmid in ("1102", " 1102 "):
            ranked = tmp_path / f"ranked{len(outputs)}"
            ranked.mkdir()
            (ranked / "T1.tsv").write_text(f"rank\tpmid\n1\t{pmid}\n")
            result = _invoke(runner, ["--output", "json", "eval", str(gold_path),
                                      str(ranked)])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[1] == outputs[0]
        assert json.loads(outputs[0])["topics"]["T1"]["precision"] == 100.0

    @pytest.mark.parametrize("kind", [
        "config", *(f"paths.{key}" for _, key, _, _ in RESOURCE_FILES),
        "gold-pipeline", "gold-eval", "ranked-eval", "jsonl-screen", "jsonl-rank",
        "xml-ingest", "xml-fixture"])
    def test_byte_order_mark_and_crlf_read_as_the_plain_file(
            self, runner, fixture_corpus_dir, gold_path, expected_dir, tmp_path,
            kind):
        """Each input file, copied with a leading UTF-8 byte-order mark and
        CRLF line ends, gives the plain copy's stdout and ``--out-dir`` files."""
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(
            {"min_year": 1980, "weights": {"w1": 0.5, "w2": 0.3, "w3": 0.2}},
            indent=2))
        key = kind.removeprefix("paths.")
        resource = {key: Path(corpus.bundled_path(name))
                    for _, key, _, name in RESOURCE_FILES}.get(key)
        sources = {
            "config": [settings], "gold-pipeline": [gold_path], "gold-eval": [gold_path],
            "ranked-eval": [expected_dir / f"{t}.tsv" for t in ("T1", "T2", "T3")],
            "jsonl-screen": [expected_dir / "ingest.jsonl"],
            "jsonl-rank": [expected_dir / "ingest.jsonl"],
            "xml-ingest": sorted(fixture_corpus_dir.glob("*.xml")),
            "xml-fixture": sorted(fixture_corpus_dir.glob("*.xml")),
        }.get(kind, [resource])

        def run(d):
            report = ["--output", "json", "--gold-k", "5"]
            pipeline_run = [*report, "pipeline", str(d / "gold.tsv"),
                            "--out-dir", str(d / "out")]
            return {
                "config": ["--config", str(d / "settings.json"), "--fixture-dir",
                           str(fixture_corpus_dir), *pipeline_run],
                "gold-pipeline": ["--fixture-dir", str(fixture_corpus_dir),
                                  *pipeline_run],
                "gold-eval": [*report, "eval", str(d / "gold.tsv"), str(expected_dir)],
                "ranked-eval": [*report, "eval", str(gold_path), str(d)],
                "jsonl-screen": ["screen", "--title", T1_TITLE, str(d / "ingest.jsonl")],
                "jsonl-rank": ["--output", "json", "rank", "--title", T1_TITLE,
                               str(d / "ingest.jsonl")],
                "xml-ingest": ["ingest", *(str(d / p.name) for p in sources)],
                "xml-fixture": ["--fixture-dir", str(d), *report, "pipeline",
                                str(gold_path), "--out-dir", str(d / "out")],
            }.get(kind, ["--config", str(d / "paths.json"), "--fixture-dir",
                         str(fixture_corpus_dir), *pipeline_run])

        seen = {}
        for side in ("plain", "marked"):
            d = tmp_path / side
            d.mkdir()
            shutil.copy(gold_path, d / "gold.tsv")
            (d / "paths.json").write_text(json.dumps(
                {"paths": {key: str(d / resource.name)}} if resource else {}))
            for source in sources:
                data = source.read_bytes()
                if side == "marked":
                    data = codecs.BOM_UTF8 + data.replace(b"\n", b"\r\n")
                (d / source.name).write_bytes(data)
            result = _invoke(runner, run(d))
            assert result.exit_code == 0, result.output
            out = d / "out"
            seen[side] = (result.output, {p.name: p.read_bytes() for p in out.iterdir()}
                          if out.exists() else None)
        assert seen["plain"][0]
        assert seen["marked"] == seen["plain"]

    def test_comment_line_in_journals_file_is_skipped(self, runner, tmp_path):
        """Blank and ``#`` lines are skipped in every resource file, the
        journals file too, so no ``"# comment"[Journal]`` term is built."""
        bundled = Path(corpus.bundled_path("journals.txt")).read_text(encoding="utf-8")
        queries = []
        for text in (bundled, "# comment\n" + bundled):
            journals = tmp_path / "journals.txt"
            journals.write_text(text, encoding="utf-8")
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"paths": {"journals": str(journals)}}))
            result = _invoke(runner, ["--config", str(config),
                                      "query", "--title", T1_TITLE])
            assert result.exit_code == 0, result.output
            queries.append(result.output)
        assert queries[1] == queries[0]
        assert "comment" not in queries[1]


# --------------------------------------------------------------------------
# The config surface, fuzzed: whatever JSON object a config holds, a run
# ends with exit 0, or with exit 1 and an error line, never a traceback.
# --------------------------------------------------------------------------

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2 ** 63, 10 ** 400, -10 ** 400])
    | st.floats() | st.text(max_size=8)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _keys(known):
    """Mostly one of the ``known`` keys, now and then an unknown one."""
    return st.sampled_from([*known, *known, *known, None]).flatmap(
        lambda key: st.text(max_size=6) if key is None else st.just(key))


def _section(known):
    """A JSON object over ``known`` keys and unknown ones, or any JSON value."""
    return st.dictionaries(_keys(known), _JSON, max_size=4) | _JSON


_PATH_KEYS = [key for _, key, _, _ in RESOURCE_FILES]
_PATH_FILES = ("empty", "binary", "directory", "valid")
#: (top level, weights and endpoint sections, paths as key -> kind of file)
_CONFIGS = st.tuples(
    st.dictionaries(
        _keys(["paths", "weights", "endpoint", "fixture_dir", "min_year",
               "qualifier_whitelist"]),
        _JSON, max_size=4),
    st.fixed_dictionaries({}, optional={
        "weights": _section(["w1", "w2", "w3"]),
        "endpoint": _section(["endpoint_base_url", "rate_limit_ms", "max_retries",
                              "page_size", "api_key", "timeout_s"]),
    }),
    st.none() | st.dictionaries(_keys(_PATH_KEYS), st.sampled_from(_PATH_FILES),
                                max_size=3),
)


@pytest.fixture(scope="module")
def path_files(tmp_path_factory):
    """Per ``paths`` key, the file name of each kind of resource file."""
    root = tmp_path_factory.mktemp("paths")
    (root / "empty").write_bytes(b"")
    (root / "binary").write_bytes(bytes(range(256)) * 4)
    (root / "directory").mkdir()
    names = {}
    for _, key, _, filename in RESOURCE_FILES:
        valid = root / f"valid-{filename}"
        valid.write_bytes(Path(corpus.bundled_path(filename)).read_bytes())
        names[key] = {kind: str(root / kind) for kind in _PATH_FILES[:3]}
        names[key]["valid"] = str(valid)
    return root, names


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(parts=_CONFIGS)
@example(parts=({}, {}, {"lexicon": "empty"}))
def test_any_config_exits_cleanly(path_files, parts):
    root, names = path_files
    top, sections, paths = parts
    config = {**top, **sections}
    if paths is not None:
        config["paths"] = {key: names.get(key, names["lexicon"])[kind]
                           for key, kind in paths.items()}
    path = root / "config.json"
    path.write_text(json.dumps(config))
    result = _invoke(CliRunner(), [
        "--config", str(path), "query", "--title", "heart failure",
    ])
    assert result.exit_code in (0, 1), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        assert "error:" in result.output and f"config {path}" in result.output


# --------------------------------------------------------------------------
# Endpoint URLs, fuzzed: a live fetch either sends a request that urllib
# can put on the wire, or ends with exit 1 and a malformed-URL error
# before any request.  The transport is replaced, so nothing connects.
# --------------------------------------------------------------------------

_URL_PIECES = st.sampled_from([
    "http://", "https://", "ftp://", "HTTP://", "127.0.0.1", "[::1]", "[::1",
    "eutils", ".", ":80", ":", ":99999", ":x", "@", "u:p@", "/", "/entrez",
    " ", "\t", "\x00", "\x7f", "é", "β", "?", "#", "%20",
])
_ENDPOINT_URLS = (st.lists(_URL_PIECES, max_size=6).map("".join)
                  | st.text(max_size=12).map("http://".__add__))


def _sendable(url, params, timeout):
    """A transport that builds the request urllib would send, short of
    connecting, and answers with no hits."""
    request = urllib.request.Request(f"{url}?{urllib.parse.urlencode(params)}")
    assert request.host
    http.client.HTTPConnection(request.host).putrequest("GET", request.selector)
    return 200, {}, b"<eSearchResult><Count>0</Count></eSearchResult>"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(url=_ENDPOINT_URLS)
@example(url="http://eutils host/entrez")
@example(url="http:///entrez")
@example(url="http://127.0.0.1:80x/entrez")
@example(url="http://%20/entrez")
def test_any_endpoint_url_exits_cleanly(tmp_path_factory, url):
    sent = []
    config = tmp_path_factory.getbasetemp() / "endpoint-url.json"
    config.write_text(json.dumps({"endpoint": {"endpoint_base_url": url,
                                               "rate_limit_ms": 0}}))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieve, "_http_get",
                   lambda *args: sent.append(args) or _sendable(*args))
        result = _invoke(CliRunner(), [
            "--config", str(config), "fetch", '"heart failure"[MeSH]'])
    assert "Traceback" not in result.output
    if sent:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 1, result.output
        assert "malformed endpoint URL" in result.output


# --------------------------------------------------------------------------
# The JSONL surface, fuzzed: whatever a citation record's fields hold,
# screen and rank end with exit 0, or with exit 1 and an error line.
# --------------------------------------------------------------------------

_CITATION_FIELDS = ["pmid", "title", "abstract", "abstract_is_structured",
                    "section_labels", "mesh_terms", "publication_types",
                    "journal", "year"]
#: Any JSON value, and more often the numbers JSON can spell but a field
#: that takes an integer cannot: 1e400 reads as infinity.
_FIELD_VALUES = st.sampled_from([1e400, -1e400, 1.5, 1e300, 2.0 ** 70, "1101"]) | _JSON


@pytest.fixture(scope="module")
def jsonl_dir(fixture_corpus_dir, tmp_path_factory):
    """A scratch directory and the heart-failure fixture's records as dicts."""
    xml = (fixture_corpus_dir / "heart_failure.xml").read_text()
    return (tmp_path_factory.mktemp("jsonl"),
            [json.loads(c.to_json()) for c in corpus.parse_citation_xml(xml)])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["screen", "rank"]), index=st.integers(0, 9),
       field=_keys(_CITATION_FIELDS), value=_FIELD_VALUES,
       dropped=st.sets(st.sampled_from(_CITATION_FIELDS), max_size=2))
@example(command="rank", index=1, field="year", value=1e400, dropped=set())
def test_any_jsonl_record_exits_cleanly(jsonl_dir, command, index, field, value,
                                        dropped):
    root, records = jsonl_dir
    record = {k: v for k, v in records[index].items() if k not in dropped}
    record[field] = value
    path = root / "citations.jsonl"
    path.write_text(json.dumps(records[0]) + "\n" + json.dumps(record) + "\n")
    result = _invoke(CliRunner(), [command, "--title", T1_TITLE, str(path)])
    assert result.exit_code in (0, 1), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        assert "error:" in result.output


# --------------------------------------------------------------------------
# The query-string surface, fuzzed: whatever the query, a fixture fetch
# ends with exit 0 and the PMIDs that evaluating every record gives, or
# with exit 1 and an error line.
# --------------------------------------------------------------------------

_QUERY_TERMS = [
    '"heart failure"[MeSH]', '"atrial fibrillation"[mesh]', '"stroke"[MeSH]',
    '"Circulation"[Journal]', '"randomized controlled trial"[PubType]',
    '2010:[Year]', '"2012"[YEAR]',
    '""[MeSH]', '"--"[Journal]', '".,;"[PubType]',   # empty and punctuation-only
    '"x"[Foo]', '"heart failure"[Title]',             # unknown fields
    '"abc"[Year]', '"20l0"[Year]', '""[Year]',        # non-numeric years
]
_QUERY_JUNK = ["bogus", "and", "&&", "[MeSH]", '"', ":[Year]", "(-)", "#", "2010"]
#: Whole queries: a term, or two to three of them joined by AND or OR in
#: parentheses, each nesting wrapped in up to past ``MAX_QUERY_DEPTH``
#: levels of parentheses.
_NESTED_QUERIES = st.recursive(
    st.sampled_from(_QUERY_TERMS),
    lambda children: st.tuples(
        st.sampled_from([" AND ", " OR "]), st.lists(children, min_size=2, max_size=3),
        st.sampled_from([1, 1, 1, 2, MAX_QUERY_DEPTH // 2, MAX_QUERY_DEPTH + 1]),
    ).map(lambda t: "(" * t[2] + t[0].join(t[1]) + ")" * t[2]),
    max_leaves=6,
)
#: Token soup: terms, operators, parentheses that need not balance and junk.
_TOKEN_SOUP = st.lists(st.sampled_from(
    [*_QUERY_TERMS, *["AND", "OR", "(", ")"] * 3, *_QUERY_JUNK]), max_size=10,
).map(" ".join)


@pytest.fixture(scope="module")
def fixture_fields(fixture_corpus_dir):
    """Every fixture record's PMID and ``QueryFields``."""
    return [(c.pmid, QueryFields.of(c))
            for c in load_fixture_corpus(str(fixture_corpus_dir))]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=_NESTED_QUERIES | _TOKEN_SOUP)
@example(query="(" * (MAX_QUERY_DEPTH + 1) + '"stroke"[MeSH]' + ")" * MAX_QUERY_DEPTH)
@example(query="(" * 3000 + '"stroke"[MeSH]' + ")" * 3000)
def test_any_query_string_exits_cleanly(fixture_corpus_dir, fixture_fields, query):
    result = _invoke(CliRunner(), [
        "--fixture-dir", str(fixture_corpus_dir), "fetch", "--", query,
    ])
    assert result.exit_code in (0, 1), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        assert "error:" in result.output
        return
    tree = parse_query(query)
    expected = sorted(pmid for pmid, fields in fixture_fields
                      if evaluate_query(tree, fields))
    assert result.output.splitlines() == ["pmid", *map(str, expected)]


# --------------------------------------------------------------------------
# The XML surface, fuzzed: whatever MEDLINE XML a file holds, ingest, a
# fixture fetch and the pipeline over it end with exit 0, or with exit 1
# and an error line.  Records draw zero, nested, missing and non-numeric
# PMIDs, empty and non-numeric years, empty titles, and titles and
# sentences whose population phrase holds a long run of "y"; documents
# are truncated or given bytes that are not UTF-8.
# --------------------------------------------------------------------------

#: At least 1,200 "y"s: the recursive consonant test of the stemmer
#: stopped at Python's recursion limit on such a word.  Hypothesis runs a
#: test with that limit raised by up to 2,000 frames, so the runs drawn
#: go well past it.
_LONG_Y = st.integers(1_200, 5_000).map(lambda n: "y" * n)
_PMIDS = st.sampled_from(["<PMID>{}</PMID>", "<PMID>{}</PMID>", "<PMID>0</PMID>",
                          "<PMID>000</PMID>",
                          "", "<PMID>12a</PMID>", "<PMID>²</PMID>",
                          "<PMID></PMID>",
                          "<CommentsCorrections><PMID>{}</PMID></CommentsCorrections>"])
_POPULATION_TEXTS = st.sampled_from([
    "", "Furosemide in elderly patients with heart failure",
    "Furosemide in elderly patients {} with heart failure",
    "Diuretics for heart failure in {} elderly patients",
])


@st.composite
def _xml_records(draw):
    pmid = draw(_PMIDS).format(draw(st.integers(1101, 1104)))
    year = draw(st.sampled_from(["2005", "2005", "", "abc", None]))
    pub_date = "" if year is None else f"<PubDate><Year>{year}</Year></PubDate>"
    title, sentence = (draw(_POPULATION_TEXTS).format(draw(_LONG_Y))
                       for _ in range(2))
    return (f"<MedlineCitation>{pmid}<Article><Journal><Title>Circulation</Title>"
            f"<JournalIssue>{pub_date}</JournalIssue></Journal>"
            f"<ArticleTitle>{title}</ArticleTitle><Abstract><AbstractText>"
            f"{sentence}.</AbstractText></Abstract><PublicationTypeList>"
            f"<PublicationType>Randomized Controlled Trial</PublicationType>"
            f"</PublicationTypeList></Article><MeshHeadingList><MeshHeading>"
            f"<DescriptorName>Diuretics</DescriptorName></MeshHeading>"
            f"</MeshHeadingList></MedlineCitation>")


@st.composite
def _xml_documents(draw):
    """A MEDLINE document's bytes: whole, truncated, or with a byte that is
    not UTF-8 put in."""
    records = draw(st.lists(_xml_records(), min_size=1, max_size=3))
    data = ("<MedlineCitationSet>" + "".join(records)
            + "</MedlineCitationSet>").encode()
    cut = draw(st.integers(0, len(data)))
    mutation = draw(st.sampled_from(["none", "none", "truncate", "not-utf8"]))
    if mutation == "truncate":
        return data[:cut]
    if mutation == "not-utf8":
        return data[:cut] + b"\xff" + data[cut:]
    return data


@pytest.fixture(scope="module")
def xml_dir(tmp_path_factory):
    """A fixture directory for one generated file, and a one-topic gold table."""
    root = tmp_path_factory.mktemp("xml")
    (root / "corpus").mkdir()
    (root / "gold.tsv").write_text(f"T1\t{T1_TITLE}\t1101,1102\n")
    return root


_YS = "y" * 5_000


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=_xml_documents())
@example(document=(
    "<MedlineCitationSet><MedlineCitation><PMID>1101</PMID><Article><Journal>"
    "<Title>Circulation</Title><JournalIssue><PubDate><Year>2005</Year></PubDate>"
    f"</JournalIssue></Journal><ArticleTitle>Furosemide in elderly patients {_YS} "
    "with heart failure</ArticleTitle></Article><MeshHeadingList><MeshHeading>"
    "<DescriptorName>Diuretics</DescriptorName></MeshHeading></MeshHeadingList>"
    "<PublicationType>Cohort</PublicationType></MedlineCitation>"
    "</MedlineCitationSet>").encode())
def test_any_xml_exits_cleanly(xml_dir, document):
    for result in _run_on_xml(xml_dir, document):
        assert result.exit_code in (0, 1, 2), result.output
        assert "Traceback" not in result.output
        if result.exit_code != 0:
            assert "error:" in result.output


def _run_on_xml(xml_dir, document):
    """``ingest``, a fixture ``fetch`` and ``pipeline`` over ``document``."""
    path = xml_dir / "corpus" / "records.xml"
    path.write_bytes(document)
    corpus_dir = str(xml_dir / "corpus")
    return [_invoke(CliRunner(), args) for args in (
        ["ingest", str(path)],
        ["--fixture-dir", corpus_dir, "fetch", '"heart failure"[MeSH]'],
        ["--fixture-dir", corpus_dir, "pipeline", str(xml_dir / "gold.tsv")])]


def test_two_hundred_abbreviations_run(xml_dir):
    """A T1 record whose abstract declares 200 abbreviations in 200 sentences
    and uses each in one of 200 more; its timings are in CHANGES.md."""
    declared = []
    for k in range(200):
        short = "X" + string.ascii_uppercase[k // 26] + string.ascii_uppercase[k % 26]
        long_form = " ".join(f"{c.lower()}ion" for c in short)
        declared.append((short, f"Patients received {long_form} ({short})."))
    abstract = " ".join([*(d for _, d in declared),
                         *(f"The {short} dose was stable." for short, _ in declared)])
    document = (
        "<MedlineCitation><PMID>1101</PMID><Article><Journal><Title>Circulation"
        "</Title><JournalIssue><PubDate><Year>2005</Year></PubDate></JournalIssue>"
        f"</Journal><ArticleTitle>{T1_TITLE}</ArticleTitle><Abstract><AbstractText>"
        f"{abstract}</AbstractText></Abstract><PublicationTypeList><PublicationType>"
        "Randomized Controlled Trial</PublicationType></PublicationTypeList>"
        "</Article><MeshHeadingList><MeshHeading><DescriptorName>Diuretics"
        "</DescriptorName></MeshHeading></MeshHeadingList></MedlineCitation>")
    ingested, fetched, piped = _run_on_xml(xml_dir, document.encode())
    for result in (ingested, fetched, piped):
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
    assert len(json.loads(ingested.output)["abstract"]) == 400
    assert fetched.output == "pmid\n1101\n"


# --------------------------------------------------------------------------
# Resource entries in the query: whatever a journals or hyponyms file
# holds, the query that ``query`` prints parses.
# --------------------------------------------------------------------------

_ENTRIES = st.text(alphabet='ab "-.()[]', max_size=12)


@pytest.fixture(scope="module")
def entry_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("entries")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(journals=st.lists(_ENTRIES, max_size=4), hyponyms=st.lists(_ENTRIES, max_size=4))
@example(journals=['The "Heart" Journal'], hyponyms=['cardiac"pump failure'])
def test_printed_query_parses(entry_dir, journals, hyponyms):
    (entry_dir / "journals.txt").write_text("\n".join(journals), encoding="utf-8")
    (entry_dir / "hyponyms.tsv").write_text(
        "heart failure\t" + ",".join(hyponyms) + "\n", encoding="utf-8")
    config = entry_dir / "config.json"
    config.write_text(json.dumps({"paths": {
        "journals": str(entry_dir / "journals.txt"),
        "hyponyms": str(entry_dir / "hyponyms.tsv"),
    }}))
    result = _invoke(CliRunner(), [
        "--config", str(config), "query", "--title", T1_TITLE,
    ])
    assert result.exit_code == 0, result.output
    parse_query(result.output.strip())


# --------------------------------------------------------------------------
# The bracketed-tree surface, fuzzed: whatever tree ``extract --tree`` is
# given, it ends with exit 0 and the phrases of the seven-pattern
# reference, or with exit 1 and an error line.  Trees draw unbalanced
# parentheses, unknown labels, empty and multi-word leaves, thousands of
# nesting levels and long sentences.
# --------------------------------------------------------------------------

_TREE_WORDS = ["elderly", "patients", "Patients", "heart", "failure", "older",
               "adults", "women", "with", "who", "the", "in", "-", ","]
_TREE_LABELS = ["S", "NP", "NP", "NP", "VP", "VP", "PP", "SBAR"]
#: Ways to break a tree, each put in at a drawn position.
_TREE_FAULTS = ["(", ")", "(XP ", "(np ", "(TOK )", "(NN heart failure)",
                "(TOK (NP x))"]


@st.composite
def _tree_nodes(draw, depth=0):
    kinds = ["word", "leaf", "phrase", "phrase"] if depth < 4 else ["word", "leaf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "word":
        return draw(st.sampled_from(_TREE_WORDS))
    if kind == "leaf":
        label = draw(st.sampled_from(["TOK", "NN"]))
        return f"({label} {draw(st.sampled_from(_TREE_WORDS))})"
    children = draw(st.lists(_tree_nodes(depth + 1), max_size=4))
    return f"({draw(st.sampled_from(_TREE_LABELS))} {' '.join(children)})"


@st.composite
def _bracketed_trees(draw):
    """A tree under thousands of NP or VP levels now and then, with a long
    run of bare words now and then, cut short or broken now and then."""
    words = draw(st.lists(st.sampled_from(_TREE_WORDS), max_size=12))
    sentence = " ".join(words * draw(st.sampled_from([1, 1, 1, 100])))
    tree = f"(S {sentence} {' '.join(draw(st.lists(_tree_nodes(), max_size=4)))})"
    depth = draw(st.sampled_from([0, 0, 0, 3_000, 4_000]))
    label = draw(st.sampled_from(["NP", "VP"]))
    tree = f"({label} " * depth + tree + ")" * depth
    fault = draw(st.sampled_from(["", "", "", "", "cut", *_TREE_FAULTS]))
    at = draw(st.integers(0, len(tree)))
    return tree[:at] if fault == "cut" else tree[:at] + fault + tree[at:]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree_text=_bracketed_trees())
@example(tree_text="(NP " * 3_000 + "elderly (NN patients)" + ")" * 3_000)
@example(tree_text="(VP " * 4_000 + "(S elderly patients with women)" + ")" * 4_000)
@example(tree_text="(VP " * 3_000 + "(NP elderly patients) with women" + ")" * 3_000)
@example(tree_text="(S (NP elderly (NN heart failure)) (VP (TOK ) with (NP adults)))")
@example(tree_text="(S (XP elderly patients))")
def test_any_tree_exits_cleanly(tree_text):
    result = _invoke(CliRunner(), ["extract", "--tree", tree_text])
    assert result.exit_code in (0, 1), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        assert "error:" in result.output
        return
    tree = parse_bracketed_tree(tree_text)
    tokens = tree.tokens()
    spans = reference_population(tree, " ".join(tokens), Resources.bundled().lexicon)
    assert result.output.splitlines() == [
        "category\tconcept",
        *(f"population\t{' '.join(tokens[start:end])}" for start, end in spans)]


# --------------------------------------------------------------------------
# The gold-TSV and ranked-TSV surfaces, fuzzed: whatever a gold table
# holds, ``pipeline`` on the fixture corpus ends with exit 0 and writes
# only under --out-dir, or with exit 1 or 2 and an error line; whatever a
# ranked TSV holds, ``eval`` does the same.  Files draw wrong column
# counts, blank ids and titles, repeated ids, PMIDs that are not decimal,
# path-like ids, CRLF line ends, a byte-order mark and bytes that are not
# UTF-8.
# --------------------------------------------------------------------------

_GOLD_IDS = ["T1", "T2", "T1", "", " ", "../escaped", "a/b", "a\\b", ".", "..",
             "{abs}", "T\u00e9", "T1 "]
_GOLD_TITLES = ["Diuretics for heart failure in elderly patients",
                "Anticoagulation in older adults with stroke", "", " ", "the of",
                "Beta blockers"]
_GOLD_PMIDS = ["1101,1102", "", "1101,,1103", "²", "12a", "-5", "1101 ,x", "0",
               "99999999999999999999", "١٢", "3301\t3302"]


def _clean_exit(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert "Traceback" not in result.output
    if result.exit_code != 0:
        assert "error:" in result.output


@st.composite
def _gold_rows(draw):
    """A row whose every column is well-formed half the time, so that runs
    also write files."""
    cols = [draw(st.sampled_from(["T1", "T2", "T3"]) | st.sampled_from(_GOLD_IDS)),
            draw(st.sampled_from(_GOLD_TITLES[:2]) | st.sampled_from(_GOLD_TITLES)),
            draw(st.sampled_from(_GOLD_PMIDS[:1]) | st.sampled_from(_GOLD_PMIDS)),
            "extra"]
    return "\t".join(cols[:draw(st.sampled_from([1, 2, 3, 3, 3, 3, 4]))])


@st.composite
def _tsv_bytes(draw, rows):
    """``rows`` joined by LF or CRLF, with a BOM or a bad byte now and then."""
    text = draw(st.sampled_from(["\n", "\r\n"])).join(draw(rows))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=_tsv_bytes(st.lists(_gold_rows(), max_size=3)))
@example(data=b"../escaped\tDiuretics for heart failure in elderly patients\t1101\n")
def test_any_gold_tsv_exits_cleanly(fixture_corpus_dir, tmp_path_factory, data):
    base = tmp_path_factory.mktemp("gold")
    gold, out_dir = base / "gold.tsv", base / "out"
    gold.write_bytes(data.replace(b"{abs}", str(base / "abs").encode()))
    result = _invoke(CliRunner(), ["--fixture-dir", str(fixture_corpus_dir),
                                   "pipeline", str(gold), "--out-dir", str(out_dir)])
    _clean_exit(result)
    if result.exit_code == 0:
        written = [p for p in base.rglob("*") if p.is_file() and p != gold]
        assert all(out_dir in p.parents for p in written), written


_RANKED_ROWS = ["1\t1101\t0.5\t0\t0\t0.5", "2\t1102", "3\t²", "4\t12a", "5",
                "6\t-7", "7\t", "\t\t", "8\t99999999999999999999", "9\t1_101",
                " ", "x\t1103\tjunk"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=_tsv_bytes(st.tuples(
    st.sampled_from(["rank\tpmid\tpop_sim\tint_sim\tdis_sim\tvsm_score", "rank\tpmid",
                     "pmid", ""]),
    st.lists(st.sampled_from(_RANKED_ROWS), max_size=5)).map(lambda t: [t[0], *t[1]])),
    topic=st.sampled_from(["T1", "T2"]),
    gold_id=st.sampled_from(["T2", "../outside", *_GOLD_IDS]), as_dir=st.booleans())
@example(data=b"rank\tpmid\n1\t2201\n", topic="T1", gold_id="../outside",
         as_dir=False)
@example(data=b"", topic="T1", gold_id="T2", as_dir=True)
def test_any_ranked_tsv_exits_cleanly(gold_path, tmp_path_factory, data, topic,
                                      gold_id, as_dir):
    """Gold ids include path-like ones, and ``outside.tsv`` lies beside the
    ranked directory; a topic's ranked file may be a directory."""
    base = tmp_path_factory.mktemp("ranked")
    ranked, gold = base / "ranked", base / "gold.tsv"
    ranked.mkdir()
    gold_id = gold_id.replace("{abs}", str(base / "abs"))
    gold.write_text(gold_path.read_text().replace("T2\t", f"{gold_id}\t", 1))
    (base / "outside.tsv").write_bytes(data)
    if as_dir:
        (ranked / f"{topic}.tsv").mkdir()
    else:
        (ranked / f"{topic}.tsv").write_bytes(data)
    result = _invoke(CliRunner(), ["--output", "json", "eval", str(gold), str(ranked)])
    _clean_exit(result)
    stripped = gold_id.strip()
    if (as_dir and topic in ("T1", stripped) or stripped in ("", ".", "..")
            or "/" in stripped or "\\" in stripped):
        assert result.exit_code == 1, result.output


# --------------------------------------------------------------------------
# Recursion: the only functions that lie on a call cycle walk a parsed
# query tree, whose depth ``parse_query`` bounds by ``MAX_QUERY_DEPTH``.
# --------------------------------------------------------------------------

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(node):
    """The nodes of ``node`` that lie outside any function or class it defines."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (*_DEFS, ast.ClassDef)):
            yield from _own_nodes(child)


def _call_graph(path):
    """Each function of the file ``path`` by its qualified name
    (``module.function``, ``module.Class.method``, ``module.function.inner``),
    mapped to the functions of the file it calls: a bare name as the
    enclosing functions and the module define it, a method through
    ``self`` or ``cls``."""
    graph = {}

    def scan(node, qualname, visible, methods):
        own = list(_own_nodes(node))
        local = {d.name: f"{qualname}.{d.name}" for d in own if isinstance(d, _DEFS)}
        if isinstance(node, ast.ClassDef):
            methods = local
        else:
            visible = {**visible, **local}
        if isinstance(node, _DEFS):
            graph[qualname] = set()
            for call in own:
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Name) and func.id in visible:
                    graph[qualname].add(visible[func.id])
                elif (isinstance(func, ast.Attribute) and func.attr in methods
                      and isinstance(func.value, ast.Name)
                      and func.value.id in ("self", "cls")):
                    graph[qualname].add(methods[func.attr])
        for child in own:
            if isinstance(child, (*_DEFS, ast.ClassDef)):
                scan(child, f"{qualname}.{child.name}", visible, methods)

    scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, {}, {})
    return graph


def _functions_on_call_cycles(path):
    """The qualified names of the functions of the file ``path`` that can
    reach themselves through ``_call_graph``'s calls."""
    graph = _call_graph(path)

    def reaches_itself(start):
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
        return False

    return set(filter(reaches_itself, graph))


def test_only_query_tree_walks_recurse():
    package = Path(citescreen.__file__).parent
    recursive = set().union(*map(_functions_on_call_cycles, package.glob("*.py")))
    assert recursive == {"retrieve.evaluate_query", "retrieve.FixtureCorpus._matching"}


# --------------------------------------------------------------------------
# Dead API: every function, class and method the package defines has a
# caller inside the package, so none is kept alive only by tests.
# --------------------------------------------------------------------------

def _is_click_command(node):
    """Whether ``node`` is registered with click by a ``@x.command(...)``
    or ``@x.group(...)`` decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _definitions(tree, module):
    """``(qualified name, name, is method, node)`` of each module-level
    function and class of ``tree`` and of each non-dunder method of those
    classes; click commands are left out."""
    for node in tree.body:
        if isinstance(node, (*_DEFS, ast.ClassDef)) and not _is_click_command(node):
            yield f"{module}.{node.name}", node.name, False, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, _DEFS) and not (
                        method.name.startswith("__") and method.name.endswith("__")):
                    yield f"{module}.{node.name}.{method.name}", method.name, True, method


def _references(tree):
    """``(name, is attribute, node)`` of each name read, attribute read and
    name imported in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, False, node


def _unreferenced_definitions(package):
    """The qualified names of the definitions that ``_definitions`` yields
    for the modules of ``package`` and that no code of the package outside
    the definition itself refers to.  A method counts as referred to only
    by an attribute of its name, since only an attribute reaches it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    refs = {}   # name -> (is attribute, node) of each reference
    for tree in trees.values():
        for name, is_attr, node in _references(tree):
            refs.setdefault(name, []).append((is_attr, node))
    unreferenced = []
    for module, tree in trees.items():
        for qualname, name, is_method, node in _definitions(tree, module):
            inside = {id(n) for n in ast.walk(node)}
            if not any((is_attr or not is_method) and id(ref) not in inside
                       for is_attr, ref in refs.get(name, ())):
                unreferenced.append(qualname)
    return unreferenced


def test_every_definition_has_a_caller_in_the_package():
    assert _unreferenced_definitions(Path(citescreen.__file__).parent) == []


# --------------------------------------------------------------------------
# Imports and input files: every imported name is read by its module, so no
# import keeps a dead definition looking alive, and input files are opened
# in one place, ``corpus.read_input``, which decides how they are read.
# --------------------------------------------------------------------------

def _unused_imports(tree, module):
    """``module.name`` of each name ``tree`` imports, other than from
    ``__future__``, that no code of ``tree`` reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{module}.{name}")
    return unused


def _reading_opens(tree, module):
    """``module.function``, or ``module`` outside any function, of each
    ``open`` call in ``tree`` whose mode is not a constant that writes,
    appends or creates."""
    opens = []
    for scope in (tree, *(n for n in ast.walk(tree)
                          if isinstance(n, (*_DEFS, ast.ClassDef)))):
        for call in _own_nodes(scope):
            if not (isinstance(call, ast.Call) and "open" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None))):
                continue
            modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            if not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax")
                       for m in modes):
                opens.append(module if scope is tree else f"{module}.{scope.name}")
    return opens


def test_imports_are_read_and_input_is_opened_in_one_place():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(citescreen.__file__).parent.glob("*.py"))}
    assert [name for module, tree in trees.items()
            for name in _unused_imports(tree, module)] == []
    assert [name for module, tree in trees.items()
            for name in _reading_opens(tree, module)] == ["corpus.read_input"]
