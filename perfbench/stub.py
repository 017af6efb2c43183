"""A local, single-threaded E-utilities stub for the ``live_paged`` workload.

    python3 perfbench/stub.py --data stub.json --port-file FILE

Serves ``esearch.fcgi`` and ``efetch.fcgi`` over GET and POST, with
``retstart``/``retmax`` paging and ``usehistory=y`` (``WebEnv`` and
``query_key``), following https://www.ncbi.nlm.nih.gov/books/NBK25499/.
Responses are looked up, not computed: a search returns the PMIDs planted
for the topic whose disease appears among the query's MeSH terms, and a
fetch concatenates pre-rendered citation records.  No errors are
injected.  ``GET /stats`` returns the number of requests served and is
not itself counted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit

_MESH = re.compile(r'"([^"]*)"\[MeSH\]')
DEFAULT_RETMAX = 20


def _norm(text: str) -> str:
    return " ".join(text.lower().replace("-", " ").split())


class Eutils:
    """The lookup tables behind the stub, independent of HTTP."""

    def __init__(self, data: dict):
        self.topics = data["topics"]            # topic id -> {"key", "pmids"}
        self.records = data["records"]          # pmid -> pre-rendered XML
        self.history: dict[str, list[int]] = {}
        self.requests: dict[str, int] = {}

    def _ids_for(self, term: str) -> list[int]:
        terms = {_norm(t) for t in _MESH.findall(term)}
        for topic_id in sorted(self.topics):
            if self.topics[topic_id]["key"] in terms:
                return self.topics[topic_id]["pmids"]
        return []

    def esearch(self, params: dict[str, str]) -> str:
        ids = self._ids_for(params.get("term", ""))
        start = int(params.get("retstart", 0))
        retmax = int(params.get("retmax", DEFAULT_RETMAX))
        page = ids[start:start + retmax]
        history = ""
        if params.get("usehistory") == "y":
            webenv = f"MCID_{len(self.history) + 1}"
            self.history[webenv] = ids
            history = f"<QueryKey>1</QueryKey><WebEnv>{webenv}</WebEnv>"
        id_list = "".join(f"<Id>{p}</Id>" for p in page)
        return (f'<?xml version="1.0" encoding="UTF-8" ?>\n<eSearchResult>'
                f"<Count>{len(ids)}</Count><RetMax>{len(page)}</RetMax>"
                f"<RetStart>{start}</RetStart>{history}<IdList>{id_list}</IdList>"
                f"</eSearchResult>\n")

    def efetch(self, params: dict[str, str]) -> str:
        if params.get("id"):
            ids = [p.strip() for p in params["id"].split(",") if p.strip()]
        else:
            stored = self.history.get(params.get("WebEnv", ""), [])
            if params.get("query_key", "1") != "1":
                stored = []
            start = int(params.get("retstart", 0))
            retmax = int(params.get("retmax", len(stored)))
            ids = [str(p) for p in stored[start:start + retmax]]
        body = "".join(f"<PubmedArticle>{self.records[p]}</PubmedArticle>\n"
                       for p in ids if p in self.records)
        return (f'<?xml version="1.0" encoding="UTF-8" ?>\n<PubmedArticleSet>\n'
                f"{body}</PubmedArticleSet>\n")

    def handle(self, route: str, params: dict[str, str]) -> tuple[int, str, str]:
        if route == "stats":
            return 200, "application/json", json.dumps(
                {"requests": sum(self.requests.values()), "by_route": self.requests})
        self.requests[route] = self.requests.get(route, 0) + 1
        if route == "esearch.fcgi":
            return 200, "text/xml", self.esearch(params)
        if route == "efetch.fcgi":
            return 200, "text/xml", self.efetch(params)
        return 404, "text/plain", f"unknown endpoint {route}\n"


def _flatten(query: str) -> dict[str, str]:
    return {k: v[-1] for k, v in parse_qs(query, keep_blank_values=True).items()}


def make_handler(eutils: Eutils):
    class Handler(BaseHTTPRequestHandler):
        def _reply(self, params: dict[str, str]):
            route = urlsplit(self.path).path.rstrip("/").rsplit("/", 1)[-1]
            status, ctype, body = eutils.handle(route, params)
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._reply(_flatten(urlsplit(self.path).query))

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            params = _flatten(urlsplit(self.path).query)
            params.update(_flatten(self.rfile.read(length).decode("utf-8")))
            self._reply(params)

        def log_message(self, format, *args):
            pass

    return Handler


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args(argv)
    with open(args.data, encoding="utf-8") as fh:
        eutils = Eutils(json.load(fh))
    server = HTTPServer(("127.0.0.1", 0), make_handler(eutils))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    tmp = args.port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1:])
