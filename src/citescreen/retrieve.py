"""Boolean query construction and citation fetching.

A query has one form: the Boolean string ``build_query`` returns, over
MeSH-tagged concept terms, journal names, a publication-year floor and
the allowed publication types.  Fetching sends that string to an
E-Utilities-compatible HTTP endpoint, or evaluates it hermetically over
a local XML fixture directory: ``parse_query`` turns it into a tree,
rejecting unknown fields, ``evaluate_query`` decides which citations'
kept ``QueryFields`` match each term, and the tree's ANDs and ORs
intersect and unite those sets.
"""

from __future__ import annotations

import glob
import logging
import math
import os
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from citescreen import preprocess
from citescreen.corpus import (
    Citation,
    ClinicalTopic,
    HyponymTable,
    load_citation_file,
    parse_citation_xml,
)
from citescreen.errors import (
    ConfigError,
    FormatError,
    QueryBuildError,
    QueryParseError,
    StatusError,
    TransportError,
)
from citescreen.extract import ConceptSet

if TYPE_CHECKING:
    from email.message import Message

log = logging.getLogger(__name__)

#: The eleven publication-type categories retained by the query.
PUBLICATION_TYPES = (
    "systematic review",
    "randomized controlled trial",
    "multiple time series",
    "nonrandomized trial",
    "cohort",
    "case-control",
    "time series",
    "cross-sectional",
    "case studies",
    "practice guideline",
    "editorial",
)
#: The key of each publication type, its normalized form, in the same order.
_PUBLICATION_TYPE_KEYS = tuple(map(preprocess.normalize_token, PUBLICATION_TYPES))
#: The phrase scan's phrase -> key: each key, and "case study" for "case
#: studies", longest phrase first, so that "multiple time series" is taken,
#: and consumed, before the "time series" inside it, the only phrase that
#: lies inside another.
_KEY_OF_PHRASE = dict(sorted(
    [*((key, key) for key in _PUBLICATION_TYPE_KEYS), ("case study", "case studies")],
    key=lambda item: -len(item[0])))


def _dedupe(terms) -> list[str]:
    """The distinct non-empty normal forms of ``terms``, in order."""
    return list(dict.fromkeys(n for n in map(preprocess.normalize_token, terms) if n))


def build_query(
    topic: ClinicalTopic,
    concepts: ConceptSet,
    hyponyms: HyponymTable,
    journal_whitelist: list[str],
    min_year: int,
) -> str:
    """The Boolean query string for a topic, from its extracted concepts.

    Disease terms are ORed with their hyponyms; an empty intervention or
    journal list drops that conjunct.  A query with neither diseases nor
    interventions would be unbounded and is an error, as is a year floor
    before 1900.
    """
    diseases = _dedupe(concepts.disease)
    interventions = _dedupe(concepts.intervention)
    if not diseases and not interventions:
        raise QueryBuildError(
            f"topic {topic.topic_id!r}: no disease or intervention concepts"
        )
    if min_year < 1900:
        raise QueryBuildError("min_year must be >= 1900")
    disease_terms = list(dict.fromkeys(
        [*diseases, *(h for d in diseases for h in hyponyms.hyponyms(d))]))

    def group(terms, tag):
        return "(" + " OR ".join(f'"{t}"[{tag}]' for t in terms) + ")"

    conjuncts = []
    if disease_terms:
        conjuncts.append(group(disease_terms, "MeSH"))
    if interventions:
        conjuncts.append(group(interventions, "MeSH"))
    if journal_whitelist:
        conjuncts.append(group(journal_whitelist, "Journal"))
    conjuncts.append(f"{min_year}:[Year]")
    conjuncts.append(group(PUBLICATION_TYPES, "PubType"))
    return " AND ".join(conjuncts)


# ---------------------------------------------------------------------------
# Boolean query parsing and fixture evaluation
# ---------------------------------------------------------------------------

#: One query token (group 1): an operator or parenthesis (2), a quoted
#: value and its field (3, 4), or a year floor (5).
_TOKEN_RE = re.compile(
    r'\s*(([()]|AND\b|OR\b)|"([^"]*)"\[(\w+)\]|(\d+):\[Year\])'
)
_FIELDS = ("mesh", "journal", "year", "pubtype")
#: Deepest parenthesis nesting ``parse_query`` accepts.  ``build_query``
#: emits one level; the bound keeps the tree walks of ``evaluate_query``
#: and ``FixtureCorpus._matching`` far below Python's recursion limit.
MAX_QUERY_DEPTH = 100


@dataclass(frozen=True)
class _Term:
    value: str
    fieldname: str  # lower-cased, one of _FIELDS
    norm: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", preprocess.normalize_token(self.value))


@dataclass
class _Bool:
    op: str
    operands: list


def _parse_term(token: re.Match) -> _Term:
    """The term a quoted or year ``_TOKEN_RE`` match spells; an error for a
    field or value no term may have."""
    _, _, value, tag, year = token.groups()
    if year is not None:
        return _Term(year, "year")
    fieldname = tag.lower()
    if fieldname not in _FIELDS:
        raise QueryParseError(f"unknown field {tag!r}")
    if fieldname == "year":
        try:
            int(value)
        except ValueError:
            raise QueryParseError(f"year {value!r} is not a number") from None
    term = _Term(value, fieldname)
    if not term.norm:
        raise QueryParseError(f"{tag} value {value!r} has no words")
    return term


def _group_node(group: list[list]) -> _Term | _Bool:
    """The tree of a closed group, a list of OR operands that are each a
    list of AND operands; an operator with one operand is that operand."""
    ors = [ands[0] if len(ands) == 1 else _Bool("AND", ands) for ands in group]
    return ors[0] if len(ors) == 1 else _Bool("OR", ors)


def parse_query(query: str, _terms: dict[str, _Term] | None = None) -> _Term | _Bool:
    """Parse a Boolean query string into an expression tree.

    Field names match case-insensitively; one other than MeSH, Journal,
    Year or PubType, a Year value that is not a number, any other value
    that normalizes to no word, or parentheses nested deeper than
    ``MAX_QUERY_DEPTH`` are an error.  AND binds tighter than OR.
    ``_terms`` maps each token already parsed to its term: a token found
    there is not parsed again, and each token that parses is added.  A
    token's term does not depend on the query around it, so the table
    may serve every query of a run.
    """
    terms = {} if _terms is None else _terms
    tokens = []
    pos = 0
    while pos < len(query):
        m = _TOKEN_RE.match(query, pos)
        if m is None:
            if query[pos:].strip():
                raise QueryParseError(f"unparseable query near: {query[pos:pos+40]!r}")
            break
        tokens.append(m)
        pos = m.end()
    if not tokens:
        raise QueryParseError("empty query")

    # The open groups, outermost first, and whether an operand comes next.
    stack: list[list[list]] = [[[]]]
    want_operand = True
    for m in tokens:
        tok, op = m[1], m[2]
        if want_operand:
            if tok == "(":
                if len(stack) > MAX_QUERY_DEPTH:
                    raise QueryParseError(
                        f"parentheses nested deeper than {MAX_QUERY_DEPTH} levels"
                    )
                stack.append([[]])
                continue
            if op:
                raise QueryParseError(f"unexpected token {tok!r}")
            term = terms.get(tok)
            if term is None:
                term = terms[tok] = _parse_term(m)
            stack[-1][-1].append(term)
            want_operand = False
        elif tok == "AND":
            want_operand = True
        elif tok == "OR":
            stack[-1].append([])
            want_operand = True
        elif tok == ")" and len(stack) > 1:
            node = _group_node(stack.pop())
            stack[-1][-1].append(node)
        else:
            raise QueryParseError("missing closing parenthesis" if len(stack) > 1
                                  else "trailing tokens in query")
    if want_operand:
        raise QueryParseError("unexpected end of query")
    if len(stack) > 1:
        raise QueryParseError("missing closing parenthesis")
    return _group_node(stack[0])


@dataclass(frozen=True)
class QueryFields:
    """The normalized fields of one citation that query terms compare against."""

    mesh: frozenset[str]
    title: str              # normalized, with a space at each end
    journal: str
    year: int
    pub_types: frozenset[str]

    @classmethod
    def of(cls, citation: Citation) -> "QueryFields":
        return cls(
            mesh=frozenset(
                preprocess.normalize_token(m.descriptor) for m in citation.mesh_terms
            ),
            title=f" {preprocess.normalize_token(citation.title)} ",
            journal=preprocess.normalize_token(citation.journal),
            year=citation.year,
            pub_types=frozenset(infer_publication_type(citation)),
        )


def _eval_term(term: _Term, fields: QueryFields) -> bool:
    if term.fieldname == "mesh":
        return term.norm in fields.mesh or f" {term.norm} " in fields.title
    if term.fieldname == "journal":
        return fields.journal == term.norm
    if term.fieldname == "year":
        return fields.year >= int(term.value)
    return term.norm in fields.pub_types


def evaluate_query(node: _Term | _Bool, fields: QueryFields) -> bool:
    """Whether a citation with these ``QueryFields`` satisfies the query tree."""
    if isinstance(node, _Term):
        return _eval_term(node, fields)
    if node.op == "AND":
        return all(evaluate_query(o, fields) for o in node.operands)
    return any(evaluate_query(o, fields) for o in node.operands)


def infer_publication_type(citation: Citation) -> list[str]:
    """Publication-type keys, inferred tier by tier.

    Tier 1 is the publication-type index, tier 2 the MeSH descriptors,
    tier 3 a phrase scan over title then abstract.  An empty result
    marks the citation excludable (likely non-clinical or not
    peer-reviewed).
    """
    def from_labels(labels):
        found = []
        for label in labels:
            key = preprocess.normalize_token(label)
            if key in _PUBLICATION_TYPE_KEYS and key not in found:
                found.append(key)
        return found

    hits = from_labels(citation.publication_types)
    if hits:
        return hits
    hits = from_labels(m.descriptor for m in citation.mesh_terms)
    if hits:
        return hits
    for text in (citation.title, " ".join(citation.abstract)):
        norm_text = f" {preprocess.normalize_token(text)} "
        found = []
        for phrase, key in _KEY_OF_PHRASE.items():
            if f" {phrase} " in norm_text and key not in found:
                found.append(key)
                # consume the span so shorter phrases cannot re-match it
                norm_text = norm_text.replace(f" {phrase} ", " * ")
        if found:
            return found
    return []


# ---------------------------------------------------------------------------
# Fetching
# ---------------------------------------------------------------------------

#: The longest request timeout and rate interval an endpoint may set: one
#: day, far past any useful value and well inside what ``time.sleep`` and
#: ``socket.settimeout`` accept.
MAX_WAIT_S = 86_400


@dataclass
class EndpointConfig:
    endpoint_base_url: str | None = None
    rate_limit_ms: int = 350
    max_retries: int = 3
    page_size: int = 500  # records per efetch; E-utilities serves up to 10,000
    api_key: str | None = None
    timeout_s: float = 30.0

    def __post_init__(self):
        for name in ("endpoint_base_url", "api_key"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"endpoint {name} must be a string, not {value!r}")
        for name, least in (("rate_limit_ms", 0), ("max_retries", 0), ("page_size", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"endpoint {name} must be an integer >= {least}, "
                                  f"not {value!r}")
        if self.rate_limit_ms > MAX_WAIT_S * 1000:
            raise ConfigError(f"endpoint rate_limit_ms must be at most "
                              f"{MAX_WAIT_S * 1000} (one day), not {self.rate_limit_ms!r}")
        if type(self.timeout_s) not in (int, float) or not 0 < self.timeout_s <= MAX_WAIT_S:
            raise ConfigError(f"endpoint timeout_s must be a positive number of at "
                              f"most {MAX_WAIT_S} (one day), not {self.timeout_s!r}")


class _RateLimiter:
    """Spaces the starts of successive requests at least the interval given
    to ``wait`` apart, across every query that shares the limiter."""

    def __init__(self):
        self._last = -math.inf  # the first request never waits

    def wait(self, interval_ms: int):
        interval = interval_ms / 1000.0
        now = time.monotonic()
        delta = now - self._last
        if delta < interval:
            time.sleep(interval - delta)
        self._last = time.monotonic()


def _retry_after_s(headers, rate_limit_ms: int, attempt: int) -> float:
    """Seconds to wait before retrying a 429 response: its integer
    ``Retry-After``, else the rate interval doubled ``attempt`` times;
    infinite past the float range, for either."""
    value = headers.get("Retry-After", "").strip()
    if value.isdecimal():
        return float(value)
    try:
        return math.ldexp(rate_limit_ms / 1000.0, attempt)
    except OverflowError:
        return math.inf


def _http_get(url: str, params: dict, timeout: float) -> tuple[int, Message, bytes]:
    """GET ``url`` with ``params`` as its query string: status, headers, body.

    Every status is returned, not raised.  A gzip reply is asked for and
    its body inflated.  Connection failures and timeouts raise
    ``OSError``; a garbled reply, a corrupt gzip stream among them,
    raises ``http.client.HTTPException``.
    """
    import urllib.error
    import urllib.parse
    import urllib.request

    request = urllib.request.Request(f"{url}?{urllib.parse.urlencode(params)}",
                                     headers={"Accept-Encoding": "gzip"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, headers, body = resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        # an OSError too, so it is read here before any caller sees it
        with err:
            status, headers, body = err.code, err.headers, err.read()
    if headers.get("Content-Encoding", "").strip().lower() == "gzip":
        import gzip
        import http.client
        import zlib

        try:
            body = gzip.decompress(body)
        except (OSError, EOFError, zlib.error) as exc:
            raise http.client.HTTPException(f"corrupt gzip body: {exc}") from exc
    return status, headers, body


def _request_with_retries(url: str, params: dict, config: EndpointConfig,
                          limiter: _RateLimiter) -> bytes:
    """GET ``url`` and return the body; connection failures, 429 and 5xx
    are retried.

    A 429 also waits for its ``Retry-After`` seconds, or for the rate
    interval doubled at each retry; a wait longer than the request
    timeout ends the retries with that 429's ``StatusError``.
    """
    import http.client

    last_exc: Exception | None = None
    for attempt in range(config.max_retries + 1):
        limiter.wait(config.rate_limit_ms)
        try:
            status, headers, body = _http_get(url, params, config.timeout_s)
        except (OSError, http.client.HTTPException) as exc:
            last_exc = exc
            log.warning("request failed (attempt %d): %s", attempt + 1, exc)
            continue
        if status == 200:
            return body
        last_exc = StatusError(status, body.decode("utf-8", "replace"))
        if status != 429 and status < 500:
            raise last_exc
        log.warning("HTTP %d (attempt %d)", status, attempt + 1)
        if status == 429 and attempt < config.max_retries:
            wait_s = _retry_after_s(headers, config.rate_limit_ms, attempt)
            if wait_s > config.timeout_s:
                raise last_exc
            time.sleep(wait_s)
    if isinstance(last_exc, StatusError):
        raise last_exc
    raise TransportError(f"request failed after retries: {last_exc}")


def _endpoint_base(url: str | None) -> str:
    """``url`` without trailing slashes, once urllib can send a request to it.

    That takes printable ASCII, an http or https scheme, a host with no
    percent escape (urllib unquotes the host), no user info, a port in
    range if any, and no query or fragment, since each request appends
    its own query string.
    """
    import urllib.parse

    base = (url or "").rstrip("/")
    try:
        parts = urllib.parse.urlsplit(base)
        parts.port  # raises ValueError unless a number in range
    except ValueError:
        parts = None
    if (parts is None or not re.fullmatch(r"https?://[!-~]+", base)
            or re.search("[?#]", base) or not parts.hostname
            or "%" in parts.netloc or parts.username is not None):
        raise ConfigError(f"malformed endpoint URL: {url!r}")
    return base


def _fetch_live(query: str, config: EndpointConfig,
                limiter: _RateLimiter) -> list[Citation]:
    """One history-server esearch, then efetch pages of ``page_size``.

    Records keep the order the server returns them in; a PMID keeps its
    first position and its last record.  A page with no record, such as
    the error a server sends for an expired ``WebEnv``, is a transport
    error rather than a silently shorter result.
    """
    base = _endpoint_base(config.endpoint_base_url)
    common = {"db": "pubmed"}
    if config.api_key:
        common["api_key"] = config.api_key

    body = _request_with_retries(
        f"{base}/esearch.fcgi",
        {**common, "term": query, "usehistory": "y", "retmax": 0},
        config, limiter,
    )
    try:
        root = ET.fromstring(body)
        count = int(root.findtext("Count", ""))
        if count < 0:
            raise ValueError(f"negative Count {count}")
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise TransportError(f"malformed search response: {exc}") from exc
    if count == 0:
        return []
    webenv = (root.findtext("WebEnv") or "").strip()
    query_key = (root.findtext("QueryKey") or "").strip()
    if not webenv or not query_key:
        raise TransportError("search response has no WebEnv or QueryKey")

    by_pmid: dict[int, Citation] = {}
    for start in range(0, count, config.page_size):
        body = _request_with_retries(
            f"{base}/efetch.fcgi",
            {**common, "WebEnv": webenv, "query_key": query_key,
             "retstart": start, "retmax": config.page_size, "retmode": "xml"},
            config, limiter,
        )
        try:
            page = parse_citation_xml(body)
        except FormatError as exc:
            raise TransportError(f"malformed fetch response: {exc}") from exc
        if not page:
            raise TransportError(
                f"efetch returned no record at retstart {start} of {count} hits"
            )
        for citation in page:
            by_pmid[citation.pmid] = citation
    return list(by_pmid.values())


def load_fixture_corpus(fixture_dir: str) -> list[Citation]:
    if not os.path.isdir(fixture_dir):
        raise ConfigError(f"fixture directory not found: {fixture_dir!r}")
    citations: list[Citation] = []
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.xml"))):
        citations.extend(load_citation_file(path))
    return citations


class FixtureCorpus:
    """A fixture directory's citations, each with its ``QueryFields``, and
    postings from each key a query term tests to the records holding it.

    All are computed once, here.  Records are kept in PMID order, stably,
    so records that share a PMID keep their file order.  The corpus also
    keeps each query token's parsed term and each term's set of matching
    records, so the terms that queries share (journals, publication
    types, a year floor, common diseases) are parsed and decided once.
    A search intersects its terms' sets for AND and unites them for OR.
    """

    def __init__(self, fixture_dir: str):
        self.records = sorted(
            ((c, QueryFields.of(c)) for c in load_fixture_corpus(fixture_dir)),
            key=lambda record: record[0].pmid,
        )
        postings: dict[tuple[str, str], set[int]] = {}
        for i, (_, fields) in enumerate(self.records):
            keys = [("mesh", m) for m in fields.mesh]
            keys += [("title", w) for w in fields.title.split()]
            keys += [("pubtype", t) for t in fields.pub_types]
            keys.append(("journal", fields.journal))
            for key in keys:
                postings.setdefault(key, set()).add(i)
        self._postings = {key: frozenset(ids) for key, ids in postings.items()}
        self._terms: dict[str, _Term] = {}  # query token -> its term
        self._matches: dict[_Term, frozenset[int]] = {}  # term -> its records

    def _posting(self, fieldname: str, key: str) -> frozenset[int]:
        return self._postings.get((fieldname, key), frozenset())

    def _matching(self, node: _Term | _Bool) -> frozenset[int]:
        """Indices of the records ``node`` matches.

        A term's set is decided once per run: ``evaluate_query`` tests
        its candidates, which for a MeSH term are its descriptor's records
        and those whose title holds all its words, for a year every
        record, and for any other term its posting.
        """
        if isinstance(node, _Bool):
            parts = [self._matching(o) for o in node.operands]
            if node.op == "AND":
                return frozenset.intersection(*parts)
            return frozenset.union(*parts)
        matches = self._matches.get(node)
        if matches is None:
            if node.fieldname == "mesh":
                candidates = self._posting("mesh", node.norm) | frozenset.intersection(
                    *(self._posting("title", w) for w in node.norm.split()))
            elif node.fieldname == "year":
                candidates = range(len(self.records))
            else:
                candidates = self._posting(node.fieldname, node.norm)
            matches = self._matches[node] = frozenset(
                i for i in candidates if evaluate_query(node, self.records[i][1]))
        return matches

    def search(self, query: str) -> list[Citation]:
        tree = parse_query(query, self._terms)
        return [self.records[i][0] for i in sorted(self._matching(tree))]


def fetch_citations(query: str, config: EndpointConfig,
                    corpus: FixtureCorpus | None,
                    limiter: _RateLimiter) -> list[Citation]:
    """Run the query against ``corpus``, or live when ``corpus`` is None.

    ``corpus`` is the run's ``FixtureCorpus`` of its fixture directory;
    ``limiter`` is the run's ``_RateLimiter``, which spaces live requests
    across queries.
    """
    if corpus is not None:
        return corpus.search(query)
    return _fetch_live(query, config, limiter)
