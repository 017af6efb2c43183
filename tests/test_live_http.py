"""The live transport over a real local socket, and the HTTP modules a
run imports.

``perfbench/stub.py``'s ``Eutils`` serves E-utilities behind
``http.server`` on a free local port.  Replies scripted per route go out
ahead of the stub's own, to inject a rate limit, server and client
errors, and bodies under other content types and encodings, gzipped
or not.
"""

import gzip
import json
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import HTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest
from click.testing import CliRunner

from citescreen import retrieve
from citescreen.cli import main
from citescreen.errors import StatusError, TransportError
from citescreen.pipeline import Resources
from citescreen.retrieve import EndpointConfig

SRC = Path(__file__).resolve().parents[1] / "src"
HEART_FAILURE = [400011, 400005, 400017, 400003, 400013]
TITLE = "Sjögren syndrome and café-au-lait β-blockers"
SJOGREN = 400099


def _record(pmid, title):
    return (f"<MedlineCitation><PMID>{pmid}</PMID><Article>"
            f"<ArticleTitle>{title}</ArticleTitle></Article></MedlineCitation>")


class _Server:
    """The stub on a local port; ``script[route]`` holds (status, headers,
    body bytes) replies served, in order, before the stub answers.
    ``sent`` keeps each request's route and query parameters."""

    def __init__(self, eutils, handler):
        script = self.script = {}
        accepted = self.accept_encodings = []
        sent = self.sent = []

        class Scripted(handler):
            def do_GET(self):
                accepted.append(self.headers.get("Accept-Encoding"))
                url = urlsplit(self.path)
                route = url.path.rsplit("/", 1)[-1]
                sent.append((route, dict(parse_qsl(url.query))))
                replies = script.get(route)
                if not replies:
                    return super().do_GET()
                status, headers, body = replies.pop(0)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.eutils = eutils
        self.httpd = HTTPServer(("127.0.0.1", 0), Scripted)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}/entrez"


@contextmanager
def _serving(stub, data):
    """A ``_Server`` of the stub over ``data``, running while in the block."""
    eutils = stub.Eutils(data)
    srv = _Server(eutils, stub.make_handler(eutils))
    thread = threading.Thread(target=srv.httpd.serve_forever)
    thread.start()
    try:
        yield srv
    finally:
        srv.httpd.shutdown()
        srv.httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def server(stub):
    with _serving(stub, {
        "topics": {"P01": {"key": "heart failure", "pmids": HEART_FAILURE},
                   "P02": {"key": "sjogren syndrome", "pmids": [SJOGREN]}},
        "records": {**{str(p): _record(p, f"Record {p}") for p in HEART_FAILURE},
                    str(SJOGREN): _record(SJOGREN, TITLE)},
    }) as srv:
        yield srv


def _fetch(url, query='"heart failure"[MeSH]', **endpoint):
    config = EndpointConfig(endpoint_base_url=url, rate_limit_ms=0, timeout_s=10,
                            **endpoint)
    return Resources.bundled(endpoint=config).fetch(query)


def test_paged_search_and_fetch(server):
    result = _fetch(server.url, page_size=2)
    assert [c.pmid for c in result] == HEART_FAILURE
    assert server.eutils.requests == {"esearch.fcgi": 1, "efetch.fcgi": 3}


def test_default_page_size_fetches_1201_records_in_three_pages(stub):
    """One esearch, then efetch pages of 500 records at retstart 0, 500
    and 1000."""
    planted = list(range(500001, 501202))
    with _serving(stub, {
        "topics": {"P01": {"key": "heart failure", "pmids": planted}},
        "records": {str(p): _record(p, f"Record {p}") for p in planted},
    }) as srv:
        assert [c.pmid for c in _fetch(srv.url)] == planted
    assert srv.eutils.requests == {"esearch.fcgi": 1, "efetch.fcgi": 3}
    assert [(route, params.get("retstart"), params.get("retmax"))
            for route, params in srv.sent] == [
        ("esearch.fcgi", None, "0"), ("efetch.fcgi", "0", "500"),
        ("efetch.fcgi", "500", "500"), ("efetch.fcgi", "1000", "500")]


def test_429_waits_retry_after(server, monkeypatch):
    slept = []
    monkeypatch.setattr(retrieve.time, "sleep", slept.append)
    server.script["esearch.fcgi"] = [(429, {"Retry-After": "2"}, b"slow down")]
    assert [c.pmid for c in _fetch(server.url)] == HEART_FAILURE
    assert slept == [2]


def test_server_error_retried(server):
    server.script["efetch.fcgi"] = [(503, {}, b"unavailable")]
    assert [c.pmid for c in _fetch(server.url)] == HEART_FAILURE
    assert server.script["efetch.fcgi"] == []
    assert server.eutils.requests == {"esearch.fcgi": 1, "efetch.fcgi": 1}


def test_client_error_raises_status(server):
    server.script["esearch.fcgi"] = [(404, {"Content-Type": "text/plain"},
                                      b"no such route \xff")]
    with pytest.raises(StatusError) as err:
        _fetch(server.url)
    assert err.value.status_code == 404
    assert err.value.body_excerpt == "no such route \ufffd"
    assert server.eutils.requests == {}


@pytest.mark.parametrize("content_type,encoding", [
    ("text/xml", None),
    ("text/xml; charset=UTF-8", "UTF-8"),
    ("application/xml", "UTF-8"),
    ("text/xml", "ISO-8859-1"),
], ids=["stub-text-xml", "charset-utf-8", "application-xml", "declared-latin-1"])
def test_body_decodes_by_its_xml_declaration(server, content_type, encoding):
    """The stub's own reply is UTF-8 served as ``text/xml`` with no
    charset; the Content-Type never decides how a body decodes."""
    if encoding is not None:
        title = TITLE if encoding == "UTF-8" else TITLE.replace("β", "&#946;")
        server.script["efetch.fcgi"] = [(200, {"Content-Type": content_type}, (
            f'<?xml version="1.0" encoding="{encoding}" ?>\n<PubmedArticleSet>'
            f"<PubmedArticle>{_record(SJOGREN, title)}</PubmedArticle>"
            f"</PubmedArticleSet>\n").encode(encoding))]
    [citation] = _fetch(server.url, '"Sjogren syndrome"[MeSH]')
    assert citation.title == TITLE


def _efetch_reply(title=TITLE):
    return (f"<PubmedArticleSet><PubmedArticle>{_record(SJOGREN, title)}"
            f"</PubmedArticle></PubmedArticleSet>").encode()


def test_gzip_reply_is_inflated(server):
    server.script["efetch.fcgi"] = [
        (200, {"Content-Encoding": "gzip"}, gzip.compress(_efetch_reply()))]
    [citation] = _fetch(server.url, '"Sjogren syndrome"[MeSH]')
    assert citation.title == TITLE
    assert server.script["efetch.fcgi"] == []
    assert server.accept_encodings == ["gzip", "gzip"]


_GZIPPED = gzip.compress(_efetch_reply("A corrupt reply"))


@pytest.mark.parametrize("body", [
    _GZIPPED[:-12],
    _GZIPPED[:20] + bytes(b ^ 0xFF for b in _GZIPPED[20:30]) + _GZIPPED[30:],
    _GZIPPED[:-8] + b"\0" * 8,
    b"not gzip at all",
], ids=["truncated", "corrupt-deflate", "bad-crc", "not-gzip"])
def test_corrupt_gzip_is_retried(server, body):
    """A gzip stream that does not inflate is a transport failure, retried."""
    server.script["efetch.fcgi"] = [(200, {"Content-Encoding": "gzip"}, body)]
    [citation] = _fetch(server.url, '"Sjogren syndrome"[MeSH]')
    assert citation.title == TITLE
    assert server.script["efetch.fcgi"] == []
    assert server.eutils.requests == {"esearch.fcgi": 1, "efetch.fcgi": 1}


def test_corrupt_gzip_exhausts_to_transport_error(server):
    server.script["esearch.fcgi"] = [
        (200, {"Content-Encoding": "gzip"}, b"not gzip")] * 2
    with pytest.raises(TransportError, match="corrupt gzip body"):
        _fetch(server.url, max_retries=1)
    assert server.eutils.requests == {}


def _config(tmp_path, url):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"endpoint": {
        "endpoint_base_url": url, "rate_limit_ms": 0, "max_retries": 1,
        "timeout_s": 10}}))
    return str(path)


def test_refused_port_exits_2(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    result = CliRunner().invoke(main, [
        "--config", _config(tmp_path, f"http://127.0.0.1:{port}/entrez"),
        "fetch", '"heart failure"[MeSH]'])
    assert result.exit_code == 2
    assert "error: request failed after retries" in result.output


# A run in a fresh interpreter, which reports on stderr, after the CLI
# exits, the HTTP modules it imported.
_REPORT_IMPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from citescreen.cli import main
try:
    main(sys.argv[2:], prog_name="citescreen")
finally:
    print(json.dumps(sorted(m for m in ("urllib.request", "http.client", "requests",
                                        "gzip") if m in sys.modules)), file=sys.stderr)
"""


def _imports(*args):
    out = subprocess.run([sys.executable, "-c", _REPORT_IMPORTS, str(SRC), *args],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stderr.splitlines()[-1])


def test_fixture_run_imports_no_http_module(fixture_corpus_dir, gold_path, tmp_path):
    _, imported = _imports("--fixture-dir", str(fixture_corpus_dir), "--gold-k", "5",
                           "pipeline", str(gold_path), "--out-dir", str(tmp_path))
    assert imported == []


def test_live_run_never_imports_requests(server, tmp_path):
    """Nor ``gzip``, while no reply is compressed."""
    stdout, imported = _imports("--config", _config(tmp_path, server.url),
                                "fetch", '"heart failure"[MeSH]')
    assert stdout.split() == ["pmid", *map(str, HEART_FAILURE)]
    assert imported == ["http.client", "urllib.request"]
