from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen import corpus, extract, preprocess
from citescreen.extract import (
    ConceptSet,
    build_concept_set,
    extract_concepts,
    extract_population,
    normalize_drug_components,
    population_terms,
    read,
)
from citescreen.pipeline import Resources
from citescreen.stemming import stem
from citescreen.tree import parse_bracketed_tree, parse_phrase_tree

from population_cases import CASES, reference_population

BUNDLED = Resources.bundled()


def bundled_drug_names():
    """The display names of the bundled drug hierarchy, in file order, read
    from the file itself rather than through ``DrugDictionary``."""
    text = Path(corpus.bundled_path("drug_hierarchy.txt")).read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def _keys(display):
    """The keys of a comma-separated list of display names."""
    return [preprocess.normalize_token(name) for name in display.split(", ")]


def _phrases(tree, lexicon):
    """``tree``'s population phrases: its tokens joined over each returned span."""
    tokens = tree.tokens()
    return [" ".join(tokens[start:end])
            for start, end in extract_population(tree, read(" ".join(tokens), lexicon))]


@pytest.fixture(scope="module")
def lexicon():
    return BUNDLED.lexicon


@pytest.fixture(scope="module")
def drugs():
    return BUNDLED.drugs


@pytest.fixture(scope="module")
def synonyms():
    return BUNDLED.synonyms


class TestPopulationPatterns:
    @pytest.mark.parametrize("pattern,tree_text,expected",
                             CASES, ids=[f"pattern{c[0]}" for c in CASES])
    def test_gold_trees(self, lexicon, pattern, tree_text, expected):
        assert expected in _phrases(parse_bracketed_tree(tree_text), lexicon)

    def test_no_population_no_mentions(self, lexicon):
        tree = parse_bracketed_tree("(S (NP the (NN dose)) was increased)")
        assert extract_population(tree, read(" ".join(tree.tokens()), lexicon)) == []

    def test_leading_patterns_require_initial_term(self, lexicon):
        # the population term sits past the first two tokens, so the
        # noun-phrase-with-noun pattern must not fire; the bare-NP one may
        tree = parse_bracketed_tree("(S (NP the very elderly (NN patients)))")
        assert _phrases(tree, lexicon) == ["the very elderly patients"]

    def test_duplicate_span_single_mention(self, lexicon):
        # the same NP matches several patterns but is emitted once
        tree = parse_bracketed_tree(
            "(S (NP (TOK patients) (VP hospitalized (PP with (NN pneumonia)))))"
        )
        spans = extract_population(tree, read(" ".join(tree.tokens()), lexicon))
        assert len(spans) == len(set(spans))


_LEXICONS = {
    "bundled": BUNDLED.lexicon,
    # "elderly" and "elderly patients" start together and "elderly
    # patients" is listed twice, so terms overlap and repeat.  The chunker
    # ends a noun phrase before "hospitalized", so that term straddles a
    # phrase boundary.  The longest match starting at "elderly" can be a
    # disorder that covers population terms.
    "overlapping": corpus.ConceptLexicon([
        ("patients hospitalized", "population"),
        ("patients", "population"),
        ("elderly patients", "population"),
        ("heart failure", "disorder"),
        ("elderly", "population"),
        ("heart failure patients", "population"),
        ("elderly patients", "population"),
        ("older adults", "population"),
        ("elderly patients with heart failure", "disorder"),
    ]),
}
_CONNECTIVES = ["with", "who", "in", "and", "or", "the", "of", "that", "were",
                "treated", "received", "due to", "aged", "had", "than", "among"]
_PUNCT = ["", "", "", ",", ".", ";", "(", ")", "/"]
_BREAKS = ["(", ")", ",", "-", "/", ";"]  # tokens that normalize to nothing


@st.composite
def _population_sentences(draw, lexicon):
    surfaces = sorted({surface for surface, _ in lexicon.entries})
    pieces = draw(st.lists(
        st.sampled_from(surfaces) | st.sampled_from(_CONNECTIVES)
        | st.sampled_from(_BREAKS),
        min_size=1, max_size=14,
    ))
    out = []
    for piece in pieces:
        case = draw(st.sampled_from([str, str.upper, str.title]))
        piece = case(piece)
        if " " in piece and draw(st.booleans()):
            piece = piece.replace(" ", "-", draw(st.integers(1, 3)))
        punct = draw(st.sampled_from(_PUNCT))
        out.append(f"{punct}{piece}" if punct == "(" else f"{piece}{punct}")
    return " ".join(out)


_PHRASE_LABELS = ["S", "NP", "VP", "PP", "SBAR"]


@st.composite
def _bracketed_children(draw, words, depth):
    """Bracketed text of 0-4 sibling nodes: phrases, TOK/NN leaves, bare words."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["word", "TOK", "NN"] + (["phrase"] * 3 if depth < 5 else [])
        ))
        if kind == "phrase":
            label = draw(st.sampled_from(_PHRASE_LABELS))
            out.append(f"({label} {draw(_bracketed_children(words, depth + 1))})")
            continue
        case = draw(st.sampled_from([str, str.upper, str.title]))
        word = case(draw(st.sampled_from(words)))
        out.append(word if kind == "word" else f"({kind} {word})")
    return " ".join(out)


@st.composite
def _bracketed_trees(draw, lexicon):
    words = sorted(
        {w for surface, _ in lexicon.entries for w in surface.split()}
        | {w for c in _CONNECTIVES for w in c.split()}
        | {b for b in _BREAKS if b not in "()"}
    )
    label = draw(st.sampled_from(_PHRASE_LABELS))
    return f"({label} {draw(_bracketed_children(words, 0))})"


class TestPopulationOracle:
    """One pass per sentence picks what the seven patterns picked."""

    @pytest.mark.parametrize("name", sorted(_LEXICONS))
    def test_chunked_tree_matches_oracle(self, name):
        lexicon = _LEXICONS[name]

        @settings(max_examples=200)
        @given(_population_sentences(lexicon))
        def check(sentence):
            tree = parse_phrase_tree(sentence)
            assert extract_population(tree, read(sentence, lexicon)) == \
                reference_population(tree, sentence, lexicon)

        check()

    @pytest.mark.parametrize("name", sorted(_LEXICONS))
    def test_bracketed_tree_matches_oracle(self, name):
        # Hand-shaped trees reach what the chunker never builds: unary
        # chains of same-span nodes, VPs without an NP, deep PP/SBAR nesting.
        lexicon = _LEXICONS[name]

        @settings(max_examples=300)
        @given(_bracketed_trees(lexicon))
        def check(tree_text):
            tree = parse_bracketed_tree(tree_text)
            sentence = " ".join(tree.tokens())
            assert extract_population(tree, read(sentence, lexicon)) == \
                reference_population(tree, sentence, lexicon)

        check()

    @pytest.mark.parametrize("sentence", [
        "elderly patients with heart failure",
        "heart-failure-patients and elderly-patients",
        "the very elderly patients who were older adults",
        "patients-patients in stroke patients",
        "elderly patients hospitalized with heart failure",
    ])
    def test_overlapping_terms_and_duplicate_surfaces(self, sentence):
        lexicon = _LEXICONS["overlapping"]
        tree = parse_phrase_tree(sentence)
        assert extract_population(tree, read(sentence, lexicon)) == \
            reference_population(tree, sentence, lexicon)


class TestDictionaryMatching:
    def test_longest_match_wins(self, lexicon):
        forms = [normal for _, normal in extract_concepts(
            read("Congestive heart failure admissions rose.", lexicon)
        )]
        assert "congestive heart failure" in forms
        assert "heart failure" not in forms

    def test_group_and_normal_form(self, lexicon):
        assert extract_concepts(read("Furosemide was given.", lexicon)) == [
            ("chemical", "furosemide")]

    def test_match_across_punctuation(self, lexicon):
        concepts = extract_concepts(read("heart-failure outcomes", lexicon))
        assert concepts[0] == ("disorder", "heart failure")

    def test_fresh_lexicon_matches_its_own_entries(self):
        # Each lexicon is freed on return, so the next one built often
        # reuses its id(); no state may outlive the lexicon it came from.
        def groups(group):
            lexicon = corpus.ConceptLexicon([("zyloxin", group)])
            return [g for g, _ in extract_concepts(read("zyloxin given.", lexicon))]

        for group in ["disorder", "chemical"] * 1000:
            assert groups(group) == [group]


# ---------------------------------------------------------------------------
# One trie walk: ConceptLexicon.matches against the two walks it replaced
# ---------------------------------------------------------------------------

def _population_matches(lexicon, words):
    """(start, end) of every population term, ``words[start:end]`` spelling it."""
    hits = []
    for start in range(len(words)):
        node = lexicon._trie
        i = start
        while i < len(words) and words[i] in node:
            node = node[words[i]]
            i += 1
            if "population" in node.get(None, ()):
                hits.append((start, i))
    return hits


def _longest_match(lexicon, words, start):
    """Groups of the longest match starting at ``words[start]``, with its word length."""
    node = lexicon._trie
    best = None
    i = start
    while i < len(words) and words[i] in node:
        node = node[words[i]]
        i += 1
        if None in node:
            best = (i - start, node[None])
    return best


def _reference_concepts(sentence, lexicon):
    """(group, normal form) pairs by one ``_longest_match`` walk per uncovered start.

    The walk resumes after each match, so no two matches overlap.
    """
    words = [w for tok in sentence.split()
             for w in preprocess.normalize_token(tok).split()]
    concepts = []
    i = 0
    while i < len(words):
        match = _longest_match(lexicon, words, i)
        if match is None:
            i += 1
            continue
        length, groups = match
        concepts += [(group, " ".join(words[i:i + length])) for group in groups]
        i += length
    return concepts


_WORDS = ["aa", "bb", "cc", "dd"]
_SURFACES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)


@st.composite
def _lexicons_and_texts(draw):
    """A lexicon over four words, so that entries share prefixes, nest,
    overlap and repeat across groups, and a text spelled from the same words."""
    entries = draw(st.lists(st.tuples(
        _SURFACES, st.sampled_from(sorted(corpus.SEMANTIC_GROUPS)),
    ), max_size=10))
    tokens = draw(st.lists(
        st.sampled_from([*_WORDS, "AA", "aa-bb", "bb/cc-dd", "(cc", "dd,", "-", "of"]),
        max_size=12,
    ))
    return corpus.ConceptLexicon(entries), " ".join(tokens)


class TestOneTrieWalk:
    @settings(max_examples=400)
    @given(_lexicons_and_texts())
    def test_matches_equal_the_two_walks(self, lexicon_and_text):
        lexicon, text = lexicon_and_text
        reading = read(text, lexicon)
        assert [
            (start, end)
            for start, found in enumerate(reading.hits)
            for end, groups in found
            if "population" in groups
        ] == _population_matches(lexicon, list(reading.words))
        assert extract_concepts(reading) == _reference_concepts(text, lexicon)


class TestDrugNormalization:
    @pytest.mark.parametrize("original,modified", [
        ("aldosterone antagonists", "Aldosterone antagonists"),
        ("Angiotensin receptor blockers", "Angiotensin II receptor blockers"),
        ("Isosorbide dinitrate/Hydralazine", "Isosorbide dinitrate, Hydralazine"),
        ("Angiotensin converting enzyme (ACE) inhibitors",
         "Angiotensin converting enzyme inhibitors"),
        ("Beta blockers", "Beta adrenergic blockers"),
        ("Diuretic", "Diuretics"),
    ])
    def test_mapping_rules(self, drugs, synonyms, original, modified):
        assert normalize_drug_components(original, drugs, synonyms) == _keys(modified)

    def test_idempotent_on_dictionary_names(self, drugs, synonyms):
        for name in bundled_drug_names():
            key = preprocess.normalize_token(name)
            assert normalize_drug_components(name, drugs, synonyms) == [key]
            assert normalize_drug_components(key, drugs, synonyms) == [key]

    def test_single_mentions_idempotent(self, drugs, synonyms):
        for original in ("aldosterone antagonists", "Beta blockers",
                         "Diuretic", "furosemide"):
            once = normalize_drug_components(original, drugs, synonyms)
            assert normalize_drug_components(once[0], drugs, synonyms) == once

    def test_unknown_mention_unchanged(self, drugs, synonyms):
        """An unresolved mention comes back as its own normal form."""
        assert normalize_drug_components("placebo", drugs, synonyms) == ["placebo"]
        assert normalize_drug_components("Placebo (oral)", drugs,
                                         synonyms) == ["placebo oral"]

    def test_multi_component_partial_resolution(self, drugs, synonyms):
        parts = normalize_drug_components(
            "beta blockers/Unknownium", drugs, synonyms
        )
        assert parts == ["beta adrenergic blockers", "unknownium"]


_NAME_WORDS = ["angiotensin", "receptor", "blockers", "beta", "aspirin",
               "i", "ii", "iii", "iv", "v", "vi", "1", "2", "3", "4", "5", "6", "10"]
_NUMERAL_WORDS = ["i", "ii", "iii", "iv", "v", "1", "2", "3", "4", "5"]


@st.composite
def _drug_names(draw):
    """A drug name of words that are often numerals, now and then only numerals."""
    words = draw(st.lists(st.sampled_from(draw(st.sampled_from(
        [_NAME_WORDS, _NUMERAL_WORDS]))), min_size=1, max_size=4))
    return draw(st.sampled_from([str, str.upper, str.title]))(" ".join(words))


def _scanned_numeral_variant(key, keys):
    """Rule 2 as a scan over every dictionary key in file order: ``key``
    with Arabic numerals made Roman, else the first key equal to it once
    both drop their numerals."""
    roman = " ".join({"1": "i", "2": "ii", "3": "iii", "4": "iv", "5": "v"}.get(w, w)
                     for w in key.split())
    if roman in keys:
        return roman

    def strip(norm):
        return " ".join(w for w in norm.split() if w not in _NUMERAL_WORDS)
    for candidate in keys:
        if strip(candidate) == strip(key):
            return candidate
    return None


def _distinct_keys(names):
    """The keys of ``names`` in file order, each once."""
    return list(dict.fromkeys(map(preprocess.normalize_token, names)))


class TestDrugNameWithoutNumerals:
    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(_drug_names(), max_size=8), mentions=st.lists(_drug_names(),
                                                                       max_size=5))
    def test_index_equals_the_scan(self, names, mentions):
        keys = _distinct_keys(names)
        drugs = corpus.DrugDictionary(dict.fromkeys(keys))
        for mention in [*mentions, *names]:
            key = preprocess.normalize_token(mention)
            assert drugs.numeral_variant(key) == _scanned_numeral_variant(key, keys)

    def test_first_name_in_file_order_wins(self):
        drugs = corpus.DrugDictionary(dict.fromkeys(
            _distinct_keys(["Blocker II", "Blocker 3", "II", "Aspirin"])))
        assert drugs.numeral_variant("blocker iv") == "blocker ii"
        assert drugs.numeral_variant("5") == "ii"
        assert drugs.numeral_variant("aspirin 2") == "aspirin"
        assert drugs.numeral_variant("heparin") is None

    def test_roman_key_before_the_first_in_file_order(self):
        drugs = corpus.DrugDictionary(dict.fromkeys(["blocker ii", "blocker iii"]))
        assert drugs.numeral_variant("blocker 3") == "blocker iii"
        assert drugs.numeral_variant("blocker iv") == "blocker ii"

    def test_rule_2b_in_the_cascade(self, drugs, synonyms):
        assert normalize_drug_components(
            "Angiotensin III receptor blockers", drugs, synonyms
        ) == ["angiotensin ii receptor blockers"]


class TestDrugHierarchy:
    def test_chain_for_drug(self, drugs):
        assert drugs.hierarchy("furosemide") == _keys(
            "Furosemide, Loop diuretics, Diuretics, Cardiovascular agents")
        assert drugs.hierarchy("bumetanide") == _keys(
            "Bumetanide, Loop diuretics, Diuretics, Cardiovascular agents")

    def test_chain_for_class(self, drugs):
        assert drugs.hierarchy("diuretics") == _keys("Diuretics, Cardiovascular agents")

    def test_unknown_empty(self, drugs):
        assert drugs.hierarchy("placebo") == []


class TestConceptSet:
    def test_buckets(self, lexicon, drugs, synonyms):
        cs = build_concept_set(
            "Furosemide reduced mortality in elderly patients with heart"
            " failure after catheter ablation.",
            lexicon, drugs, synonyms,
        )
        assert "heart failure" in cs.disease
        assert "furosemide" in cs.intervention
        assert "loop diuretics" in cs.intervention      # hierarchy expansion
        assert "cardiovascular agents" in cs.intervention
        assert "catheter ablation" in cs.intervention   # procedures pool in
        assert any("elderly patients" in p for p in cs.population)

    def test_empty_text(self, lexicon, drugs, synonyms):
        assert build_concept_set("", lexicon, drugs, synonyms) == ConceptSet()

    def test_synonym_class_expansion(self, lexicon, drugs, synonyms):
        cs = build_concept_set(
            "Beta blockers lower heart rate.", lexicon, drugs, synonyms
        )
        assert "beta adrenergic blockers" in cs.intervention

    @given(st.lists(st.builds(
        ConceptSet,
        population=st.lists(st.sampled_from("abc")),
        intervention=st.lists(st.sampled_from("abc")),
        disease=st.lists(st.sampled_from("abc")),
    ), max_size=5))
    def test_merged_concatenates_each_bag(self, sets):
        merged = ConceptSet.merged(sets)
        for category in ("population", "intervention", "disease"):
            assert getattr(merged, category) == [
                term for cs in sets for term in getattr(cs, category)
            ]

    def test_bare_phrases_derive_their_stems(self):
        cs = ConceptSet(population=["the elderly patients", "older adults"])
        assert cs.population_stems == population_terms(cs.population) == [
            "elderli", "patient", "older", "adult"]
        assert ConceptSet().population_stems == []


def _always_parsed_concept_set(text, lexicon, drugs, synonyms):
    """``build_concept_set`` with every unit chunked, whatever its terms, and
    the stems derived from the phrases by ``population_terms``."""
    reading = read(text, lexicon)
    tokens = text.split()
    population = [preprocess.normalize_token(" ".join(tokens[start:end]))
                  for start, end in extract_population(parse_phrase_tree(text), reading)]
    intervention, disease = [], []
    for group, normal in extract_concepts(reading):
        if group == "disorder":
            disease.append(normal)
        elif group == "chemical":
            for name in normalize_drug_components(normal, drugs, synonyms):
                key = preprocess.normalize_token(name)
                intervention.extend(drugs.hierarchy(key) or [key])
        elif group in ("procedure", "device"):
            intervention.append(normal)
    return ConceptSet(population, intervention, disease)


class TestConceptSetOfGeneratedText:
    """Sentences drawn from lexicon surfaces and filler, with and without a
    population term."""

    @pytest.mark.parametrize("name", sorted(_LEXICONS))
    def test_same_set_as_always_parsing(self, name, drugs, synonyms):
        lexicon = _LEXICONS[name]

        @settings(max_examples=300)
        @given(_population_sentences(lexicon))
        def check(sentence):
            assert build_concept_set(sentence, lexicon, drugs, synonyms) == \
                _always_parsed_concept_set(sentence, lexicon, drugs, synonyms)

        check()

    def test_no_population_term_no_parse(self, lexicon, drugs, synonyms,
                                         monkeypatch):
        parsed = []
        monkeypatch.setattr(extract, "parse_phrase_tree",
                            lambda text: parsed.append(text) or parse_phrase_tree(text))
        build_concept_set("Furosemide lowered mortality in heart failure.",
                          lexicon, drugs, synonyms)
        assert parsed == []
        build_concept_set("Furosemide in elderly patients.", lexicon, drugs, synonyms)
        assert parsed == ["Furosemide in elderly patients."]

    @settings(max_examples=200)
    @given(st.lists(_population_sentences(BUNDLED.lexicon), max_size=4))
    def test_stems_are_population_terms_of_the_phrases(self, sentences):
        """Built and merged sets hold the stem of each non-stopword word
        of their phrases, word by word."""
        sets = [build_concept_set(s, BUNDLED.lexicon, BUNDLED.drugs, BUNDLED.synonyms)
                for s in sentences]
        for cs in [*sets, ConceptSet.merged(sets)]:
            assert cs.population_stems == [
                stem(w) for phrase in cs.population for w in phrase.split()
                if w.lower() not in preprocess.STOPWORDS]
