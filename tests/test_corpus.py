import codecs
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen import corpus
from citescreen.corpus import Citation, MeshTerm, parse_citation_xml
from citescreen.errors import FormatError
from citescreen.pipeline import RESOURCE_FILES, Resources
from citescreen.preprocess import normalize_token

BUNDLED = Resources.bundled()

SIMPLE_XML = """
<MedlineCitationSet>
  <MedlineCitation>
    <PMID>123</PMID>
    <Article>
      <Journal><Title>Circulation</Title>
        <JournalIssue><PubDate><Year>2011</Year></PubDate></JournalIssue>
      </Journal>
      <ArticleTitle>A title</ArticleTitle>
      <Abstract>
        <AbstractText>First sentence. Second sentence.</AbstractText>
      </Abstract>
      <PublicationTypeList>
        <PublicationType>Randomized Controlled Trial</PublicationType>
      </PublicationTypeList>
    </Article>
    <MeshHeadingList>
      <MeshHeading>
        <DescriptorName MajorTopicYN="Y">Heart Failure</DescriptorName>
        <QualifierName MajorTopicYN="Y">drug therapy</QualifierName>
      </MeshHeading>
      <MeshHeading><DescriptorName>Diuretics</DescriptorName></MeshHeading>
    </MeshHeadingList>
  </MedlineCitation>
</MedlineCitationSet>
"""

STRUCTURED_XML = """
<MedlineCitation>
  <PMID>5</PMID>
  <Article>
    <ArticleTitle>T</ArticleTitle>
    <Abstract>
      <AbstractText Label="BACKGROUND">One. Two.</AbstractText>
      <AbstractText Label="CONCLUSIONS">Three.</AbstractText>
    </Abstract>
  </Article>
</MedlineCitation>
"""


class TestCitationXml:
    def test_fields(self):
        (c,) = parse_citation_xml(SIMPLE_XML)
        assert c.pmid == 123
        assert c.title == "A title"
        assert c.abstract == ("First sentence.", "Second sentence.")
        assert not c.abstract_is_structured
        assert c.journal == "Circulation"
        assert c.year == 2011
        assert c.publication_types == ("Randomized Controlled Trial",)

    def test_mesh_terms(self):
        (c,) = parse_citation_xml(SIMPLE_XML)
        assert c.mesh_terms[0] == MeshTerm("Heart Failure", "drug therapy", True)
        assert c.mesh_terms[1] == MeshTerm("Diuretics", None, False)

    def test_structured_labels_per_sentence(self):
        (c,) = parse_citation_xml(STRUCTURED_XML)
        assert c.abstract_is_structured
        assert c.section_labels == {0: "BACKGROUND", 1: "BACKGROUND",
                                    2: "CONCLUSIONS"}

    def test_missing_pmid_skipped_with_warning(self, caplog):
        xml = "<MedlineCitationSet><MedlineCitation><PMID></PMID>" \
              "</MedlineCitation></MedlineCitationSet>"
        with caplog.at_level("WARNING"):
            assert parse_citation_xml(xml) == []
        assert "rejected" in caplog.text

    def test_non_decimal_digit_pmid_skipped_with_warning(self, caplog):
        # "²".isdigit() holds, but int("²") raises
        xml = "<MedlineCitationSet><MedlineCitation><PMID>\u00b2</PMID>" \
              "</MedlineCitation><MedlineCitation><PMID>7</PMID>" \
              "</MedlineCitation></MedlineCitationSet>"
        with caplog.at_level("WARNING"):
            assert [c.pmid for c in parse_citation_xml(xml)] == [7]
        assert "record 0 rejected: missing or non-numeric PMID" in caplog.text

    @pytest.mark.parametrize("pmid", ["0", "000"])
    def test_zero_pmid_skipped_with_warning(self, caplog, pmid):
        xml = f"<MedlineCitationSet><MedlineCitation><PMID>{pmid}</PMID>" \
              "</MedlineCitation><MedlineCitation><PMID>7</PMID>" \
              "</MedlineCitation></MedlineCitationSet>"
        with caplog.at_level("WARNING"):
            assert [c.pmid for c in parse_citation_xml(xml)] == [7]
        assert "record 0 rejected: missing or non-numeric PMID" in caplog.text

    def test_nested_pmid_is_not_the_records(self, caplog):
        """A PMID below the record's own, such as the commented article's in
        ``CommentsCorrections``, never stands in for a missing one."""
        xml = ("<MedlineCitationSet><MedlineCitation><Article><ArticleTitle>Reply"
               "</ArticleTitle></Article><CommentsCorrectionsList>"
               "<CommentsCorrections RefType=\"CommentOn\"><PMID>999</PMID>"
               "</CommentsCorrections></CommentsCorrectionsList></MedlineCitation>"
               "<MedlineCitation><PMID>5</PMID><CommentsCorrectionsList>"
               "<CommentsCorrections><PMID>999</PMID></CommentsCorrections>"
               "</CommentsCorrectionsList></MedlineCitation></MedlineCitationSet>")
        with caplog.at_level("WARNING"):
            assert [c.pmid for c in parse_citation_xml(xml)] == [5]
        assert "record 0 rejected: missing or non-numeric PMID" in caplog.text

    def test_malformed_xml(self):
        with pytest.raises(FormatError):
            parse_citation_xml("<MedlineCitation><PMID>1")

    @pytest.mark.parametrize("year, expected", [
        ("2011", 2011), ("", 0), (None, 0), ("abc", None), ("20x1", None),
    ])
    def test_year(self, year, expected):
        pub_date = "" if year is None else f"<PubDate><Year>{year}</Year></PubDate>"
        xml = (f"<MedlineCitation><PMID>9</PMID><Article><Journal><JournalIssue>"
               f"{pub_date}</JournalIssue></Journal></Article></MedlineCitation>")
        if expected is None:
            with pytest.raises(FormatError, match=f"9.*{year!r}"):
                parse_citation_xml(xml)
        else:
            assert parse_citation_xml(xml)[0].year == expected

    def test_json_roundtrip(self):
        (c,) = parse_citation_xml(SIMPLE_XML)
        assert Citation.from_dict(json.loads(c.to_json())) == c

    def test_structured_json_roundtrip(self):
        (c,) = parse_citation_xml(STRUCTURED_XML)
        assert Citation.from_dict(json.loads(c.to_json())) == c


def _reference_to_dict(c: Citation) -> dict:
    """The JSON form of a citation, each field written out by hand."""
    return {
        "pmid": c.pmid,
        "title": c.title,
        "abstract": list(c.abstract),
        "abstract_is_structured": c.abstract_is_structured,
        "section_labels": ({str(k): v for k, v in c.section_labels.items()}
                           if c.section_labels is not None else None),
        "mesh_terms": [{"descriptor": m.descriptor, "qualifier": m.qualifier,
                        "is_major_topic": m.is_major_topic} for m in c.mesh_terms],
        "publication_types": list(c.publication_types),
        "journal": c.journal,
        "year": c.year,
    }


def _reference_from_dict(d) -> Citation:
    """``Citation.from_dict`` with each field and default written out by hand."""
    if not isinstance(d, dict):
        raise TypeError(f"a citation record must be an object, not {d!r}")
    unknown = sorted(set(d) - set(_reference_to_dict(Citation(1, ""))))
    if unknown:
        raise TypeError(f"unknown field {unknown[0]!r}")
    for key in ("title", "journal"):
        if not isinstance(d.get(key, ""), str):
            raise TypeError(key)
    for key in ("abstract", "publication_types"):
        value = d.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise TypeError(key)
    for key in ("pmid", "year"):
        if key in d and type(d[key]) is not int:
            raise TypeError(key)
    if not isinstance(d.get("abstract_is_structured", False), bool):
        raise TypeError("abstract_is_structured")
    labels = d.get("section_labels")
    if labels is not None and not (
        isinstance(labels, dict) and all(isinstance(v, str) for v in labels.values())
    ):
        raise TypeError("section_labels")
    mesh = d.get("mesh_terms", [])
    if not isinstance(mesh, list) or not all(map(corpus._is_mesh_term, mesh)):
        raise TypeError("mesh_terms")
    return Citation(
        pmid=d["pmid"],
        title=d["title"],
        abstract=tuple(d.get("abstract", ())),
        abstract_is_structured=d.get("abstract_is_structured", False),
        section_labels=({int(k): v for k, v in labels.items()}
                        if labels is not None else None),
        mesh_terms=tuple(
            MeshTerm(m["descriptor"], m.get("qualifier"), m.get("is_major_topic", False))
            for m in mesh
        ),
        publication_types=tuple(d.get("publication_types", ())),
        journal=d.get("journal", ""),
        year=d.get("year", 0),
    )


_TEXT = st.text(max_size=8)


@st.composite
def _citations(draw):
    """Citations with up to 14 sentences, often all of them labelled, and
    ``None`` or empty labels, ``None`` qualifiers and empty fields."""
    abstract = draw(st.lists(_TEXT, max_size=14))
    labels = draw(st.sampled_from(["none", "empty", "all", "some"]))
    if labels == "none":
        section_labels = None
    elif labels == "empty":
        section_labels = {}
    else:
        chosen = range(len(abstract)) if labels == "all" else draw(
            st.sets(st.integers(0, len(abstract) - 1)) if abstract else st.just(()))
        section_labels = {i: draw(_TEXT) for i in chosen}
    mesh = draw(st.lists(st.builds(MeshTerm, st.text(min_size=1, max_size=8),
                                   st.none() | _TEXT, st.booleans()), max_size=3))
    return Citation(
        pmid=draw(st.integers(1, 2 ** 40)), title=draw(_TEXT), abstract=tuple(abstract),
        abstract_is_structured=draw(st.booleans()), section_labels=section_labels,
        mesh_terms=tuple(mesh),
        publication_types=tuple(draw(st.lists(_TEXT, max_size=3))),
        journal=draw(_TEXT), year=draw(st.integers(0, 3000)))


#: Values a field of a record may not take, or that a citation rejects.
_BAD_VALUES = {
    "pmid": [0, -3, True, 1.5, "7", None],
    "title": [5, None, ["x"]],
    "abstract": ["x", [1], None, {}],
    "abstract_is_structured": [1, "no", None],
    "section_labels": [[], {"x": "A"}, {"0": 5}, {"99": "A"}, {"-1": "A"}, "A"],
    "mesh_terms": ["x", [5], [{"descriptor": 5}], [{"descriptor": ""}],
                   [{"descriptor": "a", "qualifier": 7}], [{"qualifier": "q"}],
                   [{"descriptor": "a", "extra": 1}],
                   [{"descriptor": "a", "is_major_topic": 1}]],
    "publication_types": ["x", [None], None],
    "journal": [None, 5],
    "year": [True, "2010", 1.5, None],
    "unknown": [1],
}


class TestCitationJson:
    """``to_json`` and ``from_dict`` against hand-written copies of each field."""

    @settings(max_examples=200, deadline=None)
    @given(citation=_citations())
    def test_to_json_matches_hand_written_form(self, citation):
        text = citation.to_json()
        assert text == json.dumps(_reference_to_dict(citation), sort_keys=True)
        record = json.loads(text)
        assert Citation.from_dict(record) == _reference_from_dict(record) == citation

    def test_ten_or_more_labels_sort_as_strings(self):
        citation = Citation(1, "t", tuple(f"s{i}." for i in range(12)), True,
                            {i: "L" for i in range(12)})
        text = citation.to_json()
        assert text == json.dumps(_reference_to_dict(citation), sort_keys=True)
        assert '"1": "L", "10": "L", "11": "L", "2": "L"' in text

    @settings(max_examples=300, deadline=None)
    @given(citation=_citations(), data=st.data(),
           dropped=st.sets(st.sampled_from(sorted(_BAD_VALUES)), max_size=3))
    def test_from_dict_accepts_and_rejects_as_hand_written(self, citation, data,
                                                            dropped):
        """Records with optional keys left out, or with one bad value."""
        record = {k: v for k, v in json.loads(citation.to_json()).items()
                  if k not in dropped}
        if data.draw(st.booleans()):
            field = data.draw(st.sampled_from(sorted(_BAD_VALUES)))
            record[field] = data.draw(st.sampled_from(_BAD_VALUES[field]))
        try:
            expected = _reference_from_dict(record)
        except (KeyError, TypeError, ValueError):
            with pytest.raises((TypeError, ValueError)):
                Citation.from_dict(record)
        else:
            assert Citation.from_dict(record) == expected


class TestCitationValidation:
    def test_pmid_must_be_positive(self):
        with pytest.raises(ValueError):
            Citation(pmid=0, title="x")

    def test_label_index_in_range(self):
        with pytest.raises(ValueError):
            Citation(pmid=1, title="x", abstract=("a.",),
                     abstract_is_structured=True, section_labels={3: "C"})

    def test_empty_descriptor_rejected(self):
        with pytest.raises(ValueError):
            MeshTerm("")


class TestLexicon:
    def test_lookup_normalizes(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("Heart-Failure\tC1\tdisorder\n")
        lex = corpus.load_lexicon(str(p))
        words = normalize_token("HEART failure,").split()
        assert lex.matches(words)[0] == ((2, ("disorder",)),)

    def test_duplicate_row_loads_once(self, tmp_path, caplog):
        """A row repeating an earlier row's surface and group, whatever its
        id, loads once, with a warning; the same surface in another group
        is another entry."""
        p = tmp_path / "lex.tsv"
        p.write_text("aspirin\tC1\tchemical\nAspirin\tC2\tchemical\n"
                     "aspirin\tC3\tdisorder\n")
        with caplog.at_level("WARNING"):
            lex = corpus.load_lexicon(str(p))
        assert lex.entries == [("aspirin", "chemical"), ("aspirin", "disorder")]
        assert lex.matches(["aspirin"]) == (((1, ("chemical", "disorder")),),)
        assert "line 2: duplicate (aspirin, chemical)" in caplog.text

    def test_unknown_group_skipped(self, tmp_path, caplog):
        p = tmp_path / "lex.tsv"
        p.write_text("thing\tC1\tgadget\n")
        with caplog.at_level("WARNING"):
            assert corpus.load_lexicon(str(p)).entries == []

    def test_bundled_lexicon_has_all_groups(self):
        lex = BUNDLED.lexicon
        groups = {group for _, group in lex.entries}
        assert groups == {"population", "disorder", "chemical",
                          "procedure", "device"}


class TestDrugDictionary:
    def test_bundled_chain(self):
        """The chain holds normalized names, the only form the dictionary holds."""
        drugs = BUNDLED.drugs
        chain = drugs.hierarchy("furosemide")
        assert chain == [
            "furosemide", "loop diuretics", "diuretics", "cardiovascular agents",
        ]
        assert all(key in drugs for key in chain)
        assert "Furosemide" not in drugs

    def test_levels(self):
        drugs = BUNDLED.drugs
        # hierarchy() walks leaf-to-root, so its length is the name's level
        assert len(drugs.hierarchy("cardiovascular agents")) == 1
        assert len(drugs.hierarchy("diuretics")) == 2
        assert len(drugs.hierarchy("loop diuretics")) == 3
        assert len(drugs.hierarchy("furosemide")) == 4

    def test_too_deep_indent(self, tmp_path):
        p = tmp_path / "drugs.txt"
        p.write_text("A\n\tB\n\t\tC\n\t\t\tD\n\t\t\t\tE\n")
        with pytest.raises(FormatError, match="line 5"):
            corpus.load_drug_dictionary(str(p))

    def test_skipped_level(self, tmp_path):
        p = tmp_path / "drugs.txt"
        p.write_text("A\n\t\tC\n")
        with pytest.raises(FormatError, match="line 2"):
            corpus.load_drug_dictionary(str(p))

    def test_unknown_name(self):
        drugs = BUNDLED.drugs
        assert drugs.hierarchy("placebo") == []

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15),
                                    st.integers(0, 200)), max_size=14))
    def test_every_name_loads_at_its_level_or_the_file_is_rejected(
            self, tmp_path_factory, lines):
        """A name at indent i is at level i + 1, so a drug (indent 3) sits
        under exactly three classes.  Each line goes at most one level
        deeper than the last, except that a fault of 0 adds one more (a
        skipped level or indent 4); names repeat now and then."""
        indents, indent = [], -1
        for depth, fault, _ in lines:
            indent = min(depth, indent + 1) + (fault == 0)
            indents.append(indent)
        names = [f"node{k}" for _, _, k in lines]
        p = tmp_path_factory.getbasetemp() / "drugs.txt"
        p.write_text("".join("\t" * i + f"{name}\n"
                             for i, name in zip(indents, names)))
        try:
            drugs = corpus.load_drug_dictionary(str(p))
        except FormatError:
            return
        for i, name in zip(indents, names):
            assert len(drugs.hierarchy(name)) == i + 1


class TestOtherLoaders:
    def test_hyponyms(self):
        table = BUNDLED.hyponyms
        assert "congestive heart failure" in table.hyponyms("heart failure")

    def test_wordless_hyponym_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "hyponyms.tsv"
        p.write_text("heart failure\t---, congestive heart failure,, ()\n")
        with caplog.at_level("WARNING"):
            table = corpus.load_hyponym_table(str(p))
        assert table.hyponyms("heart failure") == ["congestive heart failure"]
        assert "hyponym line 1: '---' skipped: it has no words" in caplog.text
        assert "hyponym line 1: '()' skipped" in caplog.text
        assert "''" not in caplog.text   # blank entries are skipped silently

    def test_quoted_hyponym_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "hyponyms.tsv"
        p.write_text('heart failure\tcardiac"pump failure, congestive heart failure\n'
                     'stroke\t"brain attack"\n')
        with caplog.at_level("WARNING"):
            table = corpus.load_hyponym_table(str(p))
        assert table.hyponyms("heart failure") == ["congestive heart failure"]
        assert table.hyponyms("stroke") == []
        assert ("hyponym line 1: 'cardiac\"pump failure' skipped: it holds a double "
                "quote") in caplog.text
        assert "hyponym line 2: '\"brain attack\"' skipped" in caplog.text

    def test_self_hyponym_rejected(self):
        from citescreen.corpus import HyponymTable
        with pytest.raises(FormatError):
            HyponymTable({"stroke": ["stroke"]})

    def test_gold_standard(self, gold_path):
        topics = corpus.load_gold_standard(gold_path)
        assert [t.topic_id for t in topics] == ["T1", "T2", "T3"]
        assert topics[0].gold_pmids == frozenset({1101, 1102, 1103, 1105, 1107})

    def test_gold_rejects_bad_pmid(self, tmp_path, caplog):
        p = tmp_path / "gold.tsv"
        p.write_text("T1\ttitle\t12,abc\nT2\tother\t7\nT3\tthird\t1101,\u00b2\n",
                     encoding="utf-8")
        with caplog.at_level("WARNING"):
            topics = corpus.load_gold_standard(str(p))
        assert [t.topic_id for t in topics] == ["T2"]
        assert "gold line 3 rejected: non-numeric PMID '\u00b2'" in caplog.text

    def test_gold_repeated_topic_id_keeps_first_row(self, tmp_path, caplog):
        p = tmp_path / "gold.tsv"
        p.write_text("T1\tfirst\t1,2\nT2\tother\t7\nT1\tsecond\t3\n")
        with caplog.at_level("WARNING"):
            topics = corpus.load_gold_standard(str(p))
        assert [(t.topic_id, t.title) for t in topics] == [("T1", "first"),
                                                          ("T2", "other")]
        assert topics[0].gold_pmids == frozenset({1, 2})
        assert "gold line 3 rejected: repeated topic id 'T1'" in caplog.text

    def test_synonyms(self):
        syn = BUNDLED.synonyms
        assert syn["beta blockers"] == "beta adrenergic blockers"

    def test_journal_whitelist(self):
        journals = BUNDLED.journal_whitelist
        assert "Circulation" in journals
        assert len(journals) == 16

    def test_wordless_journal_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "journals.txt"
        p.write_text("Circulation\n\n  ...  \nThe Lancet\n")
        with caplog.at_level("WARNING"):
            assert corpus.load_journal_whitelist(str(p)) == ["Circulation",
                                                             "The Lancet"]
        assert "journal line 3: '...' skipped: it has no words" in caplog.text
        assert "line 2" not in caplog.text

    def test_quoted_journal_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "journals.txt"
        p.write_text('Circulation\nThe "Heart" Journal\n')
        with caplog.at_level("WARNING"):
            assert corpus.load_journal_whitelist(str(p)) == ["Circulation"]
        assert ("journal line 2: 'The \"Heart\" Journal' skipped: it holds a double "
                "quote") in caplog.text


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark loads as it does
    without one: the mark is not part of its first row."""

    @pytest.mark.parametrize("loader,file_name",
                             [(loader, name) for _, _, loader, name in RESOURCE_FILES],
                             ids=[name for _, _, _, name in RESOURCE_FILES])
    def test_resource_file(self, tmp_path, loader, file_name):
        bundled = corpus.bundled_path(file_name)
        marked = tmp_path / file_name
        marked.write_bytes(codecs.BOM_UTF8 + Path(bundled).read_bytes())

        def state(loaded):
            return loaded if isinstance(loaded, (dict, list)) else vars(loaded)
        assert state(loader(str(marked))) == state(loader(bundled))

    def test_gold_standard(self, tmp_path, gold_path):
        marked = tmp_path / "gold.tsv"
        marked.write_bytes(codecs.BOM_UTF8 + Path(gold_path).read_bytes())
        assert corpus.load_gold_standard(str(marked)) == corpus.load_gold_standard(
            str(gold_path))
