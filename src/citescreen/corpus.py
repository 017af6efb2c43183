"""Data model for citations, topics, and dictionary resources.

Loaders accept the documented file formats (a MEDLINE XML subset,
TSV lexicons, a tab-indented drug hierarchy) and produce immutable
objects that are safe to share across pipeline workers.
"""

from __future__ import annotations

import json
import logging
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass, fields
from importlib import resources

from citescreen import preprocess
from citescreen.errors import FormatError

log = logging.getLogger(__name__)

SEMANTIC_GROUPS = frozenset(
    {"disorder", "chemical", "procedure", "device", "population"}
)


@dataclass(frozen=True)
class MeshTerm:
    descriptor: str
    qualifier: str | None = None
    is_major_topic: bool = False

    def __post_init__(self):
        if not self.descriptor:
            raise ValueError("MeSH descriptor must be non-empty")


def _is_mesh_term(m) -> bool:
    """A string descriptor, a string or null qualifier and a boolean major flag."""
    return (
        isinstance(m, dict)
        and set(m) <= {"descriptor", "qualifier", "is_major_topic"}
        and isinstance(m.get("descriptor"), str)
        and isinstance(m.get("qualifier"), (str, type(None)))
        and isinstance(m.get("is_major_topic", False), bool)
    )


@dataclass(frozen=True)
class Citation:
    """One MEDLINE record; the abstract is stored as segmented sentences."""

    pmid: int
    title: str
    abstract: tuple[str, ...] = ()
    abstract_is_structured: bool = False
    section_labels: dict[int, str] | None = None
    mesh_terms: tuple[MeshTerm, ...] = ()
    publication_types: tuple[str, ...] = ()
    journal: str = ""
    year: int = 0

    def __post_init__(self):
        if self.pmid <= 0:
            raise ValueError("pmid must be a positive integer")
        if self.section_labels:
            bad = [i for i in self.section_labels if not 0 <= i < len(self.abstract)]
            if bad:
                raise ValueError(f"section label index out of range: {bad}")

    @classmethod
    def from_dict(cls, d: dict) -> "Citation":
        """Inverse of ``json.loads(c.to_json())``; an unknown, missing or
        wrong-typed field raises TypeError."""
        if not isinstance(d, dict):
            raise TypeError(f"a citation record must be an object, not {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise TypeError(f"unknown field {unknown[0]!r}")
        for key in ("title", "journal"):
            if not isinstance(d.get(key, ""), str):
                raise TypeError(f"{key} must be a string, not {d[key]!r}")
        for key in ("abstract", "publication_types"):
            value = d.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise TypeError(f"{key} must be a list of strings, not {value!r}")
        for key in ("pmid", "year"):
            if key in d and type(d[key]) is not int:
                raise TypeError(f"{key} must be an integer, not {d[key]!r}")
        if not isinstance(d.get("abstract_is_structured", False), bool):
            raise TypeError(
                f"abstract_is_structured must be a boolean, "
                f"not {d['abstract_is_structured']!r}"
            )
        labels = d.get("section_labels")
        if labels is not None and not (
            isinstance(labels, dict) and all(isinstance(v, str) for v in labels.values())
        ):
            raise TypeError(f"section_labels must be null or an object of strings, "
                            f"not {labels!r}")
        mesh = d.get("mesh_terms", [])
        if not isinstance(mesh, list) or not all(map(_is_mesh_term, mesh)):
            raise TypeError(f"mesh_terms must be a list of MeSH term objects, not {mesh!r}")
        if labels is not None:
            labels = {int(k): v for k, v in labels.items()}
        return cls(**{**d, "abstract": tuple(d.get("abstract", ())),
                      "section_labels": labels,
                      "mesh_terms": tuple(MeshTerm(**m) for m in mesh),
                      "publication_types": tuple(d.get("publication_types", ()))})

    def to_json(self) -> str:
        """One JSON object, keys sorted; section label keys become strings
        first, so that they sort as strings ("10" before "2")."""
        d = asdict(self)
        if self.section_labels is not None:
            d["section_labels"] = {str(k): v for k, v in self.section_labels.items()}
        return json.dumps(d, sort_keys=True)


@dataclass(frozen=True)
class ClinicalTopic:
    topic_id: str
    title: str
    gold_pmids: frozenset[int] = frozenset()


class ConceptLexicon:
    """Surface-form lookup table over the five semantic groups.

    ``entries`` are its ``(surface, group)`` pairs, each surface a
    normalized form.
    """

    def __init__(self, entries: list[tuple[str, str]]):
        self.entries = list(entries)
        self._trie: dict = {}  # word -> child node; None -> groups ending here
        for surface, group in self.entries:
            node = self._trie
            for word in surface.split():
                node = node.setdefault(word, {})
            node[None] = (*node.get(None, ()), group)

    def matches(self, words) -> tuple:
        """For each start, every ``(end, groups)`` that ``words[start:end]`` spells,
        ``groups`` holding the group of each entry spelled, in entry order.

        The pairs of one start come shortest first, so the last is the
        longest match there.
        """
        hits = []
        for start in range(len(words)):
            node = self._trie
            found = []
            i = start
            while i < len(words) and words[i] in node:
                node = node[words[i]]
                i += 1
                if None in node:
                    found.append((i, node[None]))
            hits.append(tuple(found))
        return tuple(hits)


#: The Arabic numerals one to five, each with its Roman form: the
#: numerals drug names may vary in (rule 2 of the mapping cascade).
_ROMAN = {"1": "i", "2": "ii", "3": "iii", "4": "iv", "5": "v"}
_NUMERALS = frozenset(_ROMAN) | frozenset(_ROMAN.values())


def _strip_numerals(key: str) -> str:
    return " ".join(w for w in key.split() if w not in _NUMERALS)


class DrugDictionary:
    """Three-level hierarchy of drug classes with drugs under leaf classes.

    Level 1 is the broadest class, level 3 the most specific class, and
    drugs hang off level-3 classes.  Every name, taken and returned, is a
    normalized name (a key).
    """

    def __init__(self, parents: dict[str, str | None]):
        self._parents = parents   # key -> parent key, in file order
        self._by_stripped: dict[str, str] = {}  # numeral-free key -> first key
        for key in parents:
            self._by_stripped.setdefault(_strip_numerals(key), key)

    def __contains__(self, key: str) -> bool:
        return key in self._parents

    def numeral_variant(self, key: str) -> str | None:
        """Rule 2: ``key`` with its Arabic numerals one to five made Roman,
        if that is a key; else the first key, in file order, that equals
        ``key`` once those numerals, Arabic or Roman, are dropped from both;
        None if neither."""
        roman = " ".join(_ROMAN.get(w, w) for w in key.split())
        if roman in self._parents:
            return roman
        return self._by_stripped.get(_strip_numerals(key))

    def hierarchy(self, key: str) -> list[str]:
        """``key`` plus its class ancestors' keys, leaf-to-root; [] if unknown."""
        if key not in self._parents:
            return []
        chain = [key]
        while self._parents[key] is not None:
            key = self._parents[key]
            chain.append(key)
        return chain


class HyponymTable:
    """Disease term -> narrower or sibling disease terms."""

    def __init__(self, table: dict[str, list[str]]):
        self._table = {
            preprocess.normalize_token(k): [preprocess.normalize_token(v) for v in vs]
            for k, vs in table.items()
        }
        for term, hyps in self._table.items():
            if term in hyps:
                raise FormatError(f"term lists itself as its own hyponym: {term}")

    def hyponyms(self, key: str) -> list[str]:
        """The hyponyms of the normalized term ``key``."""
        return list(self._table.get(key, []))


# ---------------------------------------------------------------------------
# Parsers and loaders
# ---------------------------------------------------------------------------

def _text(el: ET.Element | None) -> str:
    return "".join(el.itertext()).strip() if el is not None else ""


def parse_citation_xml(xml_document: str | bytes) -> list[Citation]:
    """Parse the MEDLINE citation subset into Citation objects.

    A record's PMID is its own direct ``<PMID>`` child, never one nested
    deeper (such as a ``CommentsCorrections`` reference).  Records whose
    PMID is missing, non-numeric or zero are rejected with a warning; the
    remaining records are still returned.  Malformed XML or a non-numeric
    Year raises FormatError; a missing or empty Year reads as 0.  Bytes
    decode by the document's XML declaration, as UTF-8 without one, and a
    declared encoding the parser cannot read raises FormatError too.
    """
    try:
        root = ET.fromstring(xml_document)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise FormatError(f"malformed XML: {exc}") from exc

    records = [root] if root.tag == "MedlineCitation" else root.iter("MedlineCitation")

    citations: list[Citation] = []
    for idx, rec in enumerate(records):
        pmid_text = _text(rec.find("PMID"))
        if not pmid_text.isdecimal() or int(pmid_text) == 0:
            log.warning("record %d rejected: missing or non-numeric PMID", idx)
            continue

        title = _text(rec.find(".//ArticleTitle"))

        sentences: list[str] = []
        section_labels: dict[int, str] = {}
        structured = False
        abstract_el = rec.find(".//Abstract")
        if abstract_el is not None:
            for block in abstract_el.findall("AbstractText"):
                label = block.get("Label")
                block_sents = preprocess.segment_sentences(_text(block))
                if label:
                    structured = True
                    for k in range(len(block_sents)):
                        section_labels[len(sentences) + k] = label
                sentences.extend(block_sents)

        mesh: list[MeshTerm] = []
        for heading in rec.findall(".//MeshHeading"):
            desc_el = heading.find("DescriptorName")
            descriptor = _text(desc_el)
            if not descriptor:
                continue
            qualifiers = heading.findall("QualifierName")
            if qualifiers:
                for q in qualifiers:
                    mesh.append(
                        MeshTerm(descriptor, _text(q), q.get("MajorTopicYN") == "Y")
                    )
            else:
                major = desc_el.get("MajorTopicYN") == "Y" if desc_el is not None else False
                mesh.append(MeshTerm(descriptor, None, major))

        pub_types = tuple(
            _text(pt) for pt in rec.findall(".//PublicationType") if _text(pt)
        )
        journal = _text(rec.find(".//Journal/Title"))
        year_text = _text(rec.find(".//PubDate/Year"))
        if year_text and not year_text.isdecimal():
            raise FormatError(f"record {pmid_text}: non-numeric Year {year_text!r}")
        year = int(year_text or 0)

        citations.append(
            Citation(
                pmid=int(pmid_text),
                title=title,
                abstract=tuple(sentences),
                abstract_is_structured=structured,
                section_labels=section_labels if structured else None,
                mesh_terms=tuple(mesh),
                publication_types=pub_types,
                journal=journal,
                year=year,
            )
        )
    return citations


def read_input(path: str) -> bytes:
    """The bytes of the file ``path``; a failed read is a FormatError led by ``path``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # a path holding a NUL byte, shown escaped
        raise FormatError(f"{path!r}: {exc}") from exc


def read_text(path: str) -> str:
    """The UTF-8 text of the input file ``path``, less a leading byte-order
    mark, with each ``\\r\\n`` or ``\\r`` made ``\\n``."""
    try:
        text = read_input(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_citation_file(path: str) -> list[Citation]:
    """The citations of the XML file ``path``, decoded by its declaration."""
    document = read_input(path)
    try:
        return parse_citation_xml(document)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_rows(path: str, n_cols: int):
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line.split("\t", n_cols - 1)


def load_lexicon(path: str) -> ConceptLexicon:
    """Load a surface \\t id \\t group TSV lexicon; the id is not used.

    A row whose (surface, group) an earlier row already holds loads once.
    """
    pairs: dict[tuple[str, str], None] = {}
    for lineno, cols in _read_rows(path, 3):
        if len(cols) != 3:
            log.warning("lexicon line %d rejected: expected 3 columns", lineno)
            continue
        surface, _, group = (c.strip() for c in cols)
        group = group.lower()
        if group not in SEMANTIC_GROUPS:
            log.warning("lexicon line %d rejected: unknown group %r", lineno, group)
            continue
        norm = preprocess.normalize_token(surface)
        if not norm:
            log.warning("lexicon line %d rejected: empty surface form", lineno)
            continue
        if '"' in norm:  # a query term cannot hold one
            log.warning("lexicon line %d rejected: %r holds a double quote",
                        lineno, surface)
            continue
        if (norm, group) in pairs:
            log.warning("lexicon line %d: duplicate (%s, %s) skipped",
                        lineno, norm, group)
        pairs[norm, group] = None
    return ConceptLexicon(list(pairs))


def load_drug_dictionary(path: str) -> DrugDictionary:
    """Load the tab-indented class/class/class/drug hierarchy.

    Indent 0-2 are the three class levels; indent 3 holds drugs.  Any
    deeper indentation, a skipped level, or a name whose normal form
    holds a double quote, which no query term can, is a load error
    naming the offending line.
    """
    parents: dict[str, str | None] = {}
    stack: list[str] = []  # normalized names of open ancestors

    for lineno, (raw,) in _read_rows(path, 1):
        indent = len(raw) - len(raw.lstrip("\t"))
        name = raw.strip()
        if indent > 3:
            raise FormatError(
                f"{path} line {lineno}: indentation depth {indent + 1} exceeds "
                f"the three class levels plus drugs"
            )
        if indent > len(stack):
            raise FormatError(f"{path} line {lineno}: skipped a hierarchy level")
        norm = preprocess.normalize_token(name)
        if not norm:
            raise FormatError(f"{path} line {lineno}: empty node name")
        if '"' in norm:
            raise FormatError(
                f"{path} line {lineno}: name {name!r} holds a double quote")
        if norm in parents:
            raise FormatError(f"{path} line {lineno}: duplicate name {name!r}")
        parents[norm] = stack[indent - 1] if indent > 0 else None
        del stack[indent:]
        stack.append(norm)
    return DrugDictionary(parents)


def load_gold_standard(path: str) -> list[ClinicalTopic]:
    """Load topic_id \\t title \\t comma-separated-PMIDs rows.

    A row that repeats an earlier row's topic id is rejected, so the
    first row of a topic id wins.  A file that cannot be read, such as a
    directory, or is not UTF-8 is a FormatError naming it.
    """
    topics: dict[str, ClinicalTopic] = {}
    for lineno, cols in _read_rows(path, 3):
        if len(cols) < 2:
            log.warning("gold line %d rejected: expected >= 2 columns", lineno)
            continue
        topic_id, title = cols[0].strip(), cols[1].strip()
        if topic_id in topics:
            log.warning("gold line %d rejected: repeated topic id %r", lineno, topic_id)
            continue
        pmid_field = cols[2].strip() if len(cols) > 2 else ""
        pmids: set[int] = set()
        bad = False
        for piece in filter(None, (p.strip() for p in pmid_field.split(","))):
            if not piece.isdecimal():
                log.warning("gold line %d rejected: non-numeric PMID %r",
                            lineno, piece)
                bad = True
                break
            pmids.add(int(piece))
        if bad:
            continue
        topics[topic_id] = ClinicalTopic(topic_id, title, frozenset(pmids))
    return list(topics.values())


def _is_query_term(name: str, what: str, lineno: int) -> bool:
    """Whether ``name`` can be a query term; warn if it is not blank but cannot.

    A term needs a word and may not hold a double quote: the query
    syntax quotes each term and has no escape for one.
    """
    name = name.strip()
    if '"' in name:
        reason = "it holds a double quote"
    elif preprocess.normalize_token(name):
        return True
    elif name:
        reason = "it has no words"
    else:
        return False
    log.warning("%s line %d: %r skipped: %s", what, lineno, name, reason)
    return False


def load_hyponym_table(path: str) -> HyponymTable:
    """Load disease \\t comma-separated-hyponyms rows."""
    table: dict[str, list[str]] = {}
    for lineno, cols in _read_rows(path, 2):
        if len(cols) != 2:
            log.warning("hyponym line %d rejected: expected 2 columns", lineno)
            continue
        table[cols[0].strip()] = [h.strip() for h in cols[1].split(",")
                                  if _is_query_term(h, "hyponym", lineno)]
    try:
        return HyponymTable(table)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_synonym_table(path: str) -> dict[str, str]:
    """Load variant \\t canonical rows (equivalent drug-class names), both
    normalized."""
    table: dict[str, str] = {}
    for lineno, cols in _read_rows(path, 2):
        if len(cols) != 2:
            log.warning("synonym line %d rejected: expected 2 columns", lineno)
            continue
        table[preprocess.normalize_token(cols[0])] = preprocess.normalize_token(cols[1])
    return table


def load_journal_whitelist(path: str) -> list[str]:
    """Load one journal title per line; blank and ``#`` lines are skipped,
    and so, with a warning, are titles with no words or with a double quote."""
    return [line.strip() for lineno, (line,) in _read_rows(path, 1)
            if _is_query_term(line, "journal", lineno)]


def bundled_path(name: str) -> str:
    """The path of the bundled data file ``name``."""
    return str(resources.files("citescreen.data").joinpath(name))
