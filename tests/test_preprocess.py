import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citescreen import preprocess
from citescreen.preprocess import (
    expand_abbreviations,
    max_window,
    normalize_token,
    segment_sentences,
    stem_and_filter,
)
from citescreen.stemming import stem


def _segment_by_prefix_scan(text: str) -> list[str]:
    """The earlier ``segment_sentences``: it found each boundary's last
    token by searching the whole text before it, so it took time
    quadratic in the number of sentences."""
    if not text or not text.strip():
        return []
    cut_points = []
    for m in re.finditer(r"([.?!])(\s+)(?=[A-Z0-9])", text):
        last_token = re.search(r"\S+$", text[: m.end(1)])
        token = last_token.group(0).lower() if last_token else ""
        if token in preprocess._PROTECTED or re.fullmatch(r"[a-z]\.", token):
            continue
        cut_points.append((m.end(1), m.end(2)))
    sentences = []
    start = 0
    for end, nxt in cut_points:
        sentences.append(text[start:end].strip())
        start = nxt
    sentences.append(text[start:].strip())
    return [s for s in sentences if s]


#: Protected tokens in three cases, initials, decimals, sentence ends,
#: bare punctuation and sentence starts, for the differential property.
_SEGMENT_TOKENS = [
    *(t for p in sorted(preprocess._PROTECTED) for t in (p, p.upper(), p.title())),
    "J.", "j.", "A.", "2.5", "0.05.", "done.", "Yes!", "why?", "end.)",
    ".", "?!", "...", "Patients", "Furosemide", "120", "mg", "e.g.Furosemide",
]
_SEGMENT_SPACES = ["", " ", "  ", "\n", "\t", " \n "]


class TestSegmentation:
    def test_basic_split(self):
        out = segment_sentences("First sentence here. Second one follows.")
        assert out == ["First sentence here.", "Second one follows."]

    def test_question_and_exclamation(self):
        out = segment_sentences("Does it work? Yes! It does.")
        assert out == ["Does it work?", "Yes!", "It does."]

    def test_protected_tokens(self):
        text = "Group A vs. Placebo showed benefit. Dr. Smith agreed."
        out = segment_sentences(text)
        assert out == ["Group A vs. Placebo showed benefit.", "Dr. Smith agreed."]

    def test_eg_not_split(self):
        text = "Common drugs, e.g. Furosemide, were allowed. Dosing varied."
        assert len(segment_sentences(text)) == 2

    def test_decimals_not_split(self):
        out = segment_sentences("The dose was 2.5 mg daily. Titration followed.")
        assert out[0] == "The dose was 2.5 mg daily."

    def test_digit_starts_sentence(self):
        out = segment_sentences("We enrolled many. 120 completed follow-up.")
        assert out == ["We enrolled many.", "120 completed follow-up."]

    def test_empty_text(self):
        assert segment_sentences("") == []
        assert segment_sentences("   ") == []

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_SEGMENT_TOKENS),
                              st.sampled_from(_SEGMENT_SPACES)), max_size=30))
    def test_same_cuts_as_the_prefix_scan(self, pieces):
        text = "".join(token + space for token, space in pieces)
        assert segment_sentences(text) == _segment_by_prefix_scan(text)


class TestMaxWindow:
    @pytest.mark.parametrize("n,expected", [
        (2, 4), (3, 6), (4, 8), (5, 10), (6, 11),
        (7, 12), (8, 13), (9, 14), (10, 15),
    ])
    def test_formula(self, n, expected):
        assert max_window("X" * n) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_window("")


_DECLARATIONS = [
    ("atrial fibrillation", "AF"),
    ("heart failure", "HF"),
    ("left ventricular ejection fraction", "LVEF"),
    ("chronic kidney disease", "CKD"),
    ("The C\\d ratio", "CD"),
]
_NON_ABBREVIATIONS = ["(Xy)", "(ab)", "(HFpEF)", "(n = 12)", "(p<0.05)", "(Ab)"]
_FILLER = ["patients", "were enrolled", "and", "with", "the", "outcomes improved",
           "in", "after", "fell"]


@st.composite
def _abbreviation_sentences(draw):
    """Sentences of declarations, bare long and short forms, parenthesised
    non-abbreviations and filler."""
    pieces = st.one_of(
        st.sampled_from([f"{long} ({short})" for long, short in _DECLARATIONS]),
        st.sampled_from([long for long, _ in _DECLARATIONS]),
        st.sampled_from([short for _, short in _DECLARATIONS]),
        st.sampled_from(_NON_ABBREVIATIONS),
        st.sampled_from(_FILLER),
    )
    sentences = draw(st.lists(st.lists(pieces, min_size=1, max_size=8),
                              min_size=1, max_size=4))
    return [" ".join(words) + draw(st.sampled_from([".", ";", ""]))
            for words in sentences]


def _expand_abbreviations_eagerly(sentences):
    """The earlier ``expand_abbreviations``: at each declaration it
    rewrote every later sentence at once, so it took time proportional to
    declarations x sentences."""
    def replace(text, short, long):
        return re.sub(r"(?<![\w])%s(?![\w])" % re.escape(short), lambda _: long, text)

    out = list(sentences)
    entries = []
    i = 0
    while i < len(out):
        sentence = out[i]
        pos = 0
        while True:
            m = preprocess._PAREN_CANDIDATE.search(sentence, pos)
            if m is None:
                break
            abbr = m.group(1)
            if not any(c.isupper() for c in abbr):
                pos = m.end()
                continue
            long_form = preprocess._find_long_form(abbr, sentence[: m.start()])
            if long_form is None:
                pos = m.end()
                continue
            entries.append(preprocess.AbbreviationEntry(abbr, long_form))
            head = sentence[: m.start()].rstrip()
            tail = replace(sentence[m.end():], abbr, long_form)
            sentence = (head + tail) if tail.startswith((".", ",", ";", ":", ")")) \
                else (head + " " + tail.lstrip() if tail.strip() else head)
            pos = len(head)
            for j in range(i + 1, len(out)):
                out[j] = replace(out[j], abbr, long_form)
        out[i] = sentence
        i += 1
    return out, entries


#: Short forms inside one another (HF, HF-REF, X-HF) and a long form
#: holding another short form (HF clinic): a single alternation pattern
#: over all declarations would expand these differently from one
#: substitution per declaration in the order they were accepted.
_OVERLAPPING = [
    ("heart failure", "HF"),
    ("heart failure-reduced ejection fraction", "HF-REF"),
    ("x-linked heart failure", "X-HF"),
    ("HF clinic", "HC"),
    ("HC unit", "HU"),
]


@st.composite
def _overlapping_sentences(draw):
    """Sentences declaring and using short forms that overlap."""
    pieces = st.one_of(
        st.sampled_from([f"{long} ({short})" for long, short in _OVERLAPPING]),
        st.sampled_from([short for _, short in _OVERLAPPING]),
        st.sampled_from(["HF-REF-HF", "X-HF-REF", "(HF)", "HFs", "the", "in"]),
    )
    sentences = draw(st.lists(st.lists(pieces, min_size=1, max_size=6),
                              min_size=1, max_size=5))
    return [" ".join(words) + draw(st.sampled_from([".", ",", ""]))
            for words in sentences]


def _stress_sentences(declarations):
    """``declarations`` sentences that each declare a new short form, each
    followed by one that uses it and the short form declared half as far
    in."""
    def short(k):
        return "Z" + "".join(chr(65 + k // 26 ** p % 26) for p in range(3))

    def long(k):
        return " ".join(f"{c.lower()}ord" for c in short(k))

    sentences = []
    for k in range(declarations):
        sentences.append(f"Patients with {long(k)} ({short(k)}) were enrolled.")
        sentences.append(f"Both {short(k)} and {short(k // 2)} recurred.")
    return sentences


class TestAbbreviationExpansion:
    def test_afib_declaration(self):
        sentences = [
            "Patients with atrial fibrillation (AFib) were enrolled.",
            "AFib recurred in ten cases.",
        ]
        out, entries = expand_abbreviations(sentences)
        assert out == [
            "Patients with atrial fibrillation were enrolled.",
            "atrial fibrillation recurred in ten cases.",
        ]
        assert len(entries) == 1
        assert entries[0].short_form == "AFib"
        assert entries[0].long_form == "atrial fibrillation"

    def test_slvd_declaration(self):
        sentences = [
            "Aldosterone blockade reduced hospitalization for heart failure"
            " in patients with systolic left ventricular dysfunction (SLVD)"
            " due to chronic heart failure and in patients with SLVD post"
            " acute myocardial infarction.",
        ]
        out, entries = expand_abbreviations(sentences)
        assert entries[0].short_form == "SLVD"
        assert entries[0].long_form == "systolic left ventricular dysfunction"
        assert out == [
            "Aldosterone blockade reduced hospitalization for heart failure"
            " in patients with systolic left ventricular dysfunction"
            " due to chronic heart failure and in patients with systolic"
            " left ventricular dysfunction post acute myocardial infarction.",
        ]

    def test_first_char_must_match(self):
        out, entries = expand_abbreviations(
            ["The ejection fraction (BNP) was measured."]
        )
        assert entries == []
        assert out == ["The ejection fraction (BNP) was measured."]

    def test_replacement_is_case_sensitive(self):
        out, _ = expand_abbreviations([
            "Heart failure (HF) admissions rose.",
            "The hf subtype label stayed lower-case.",
        ])
        assert out[1] == "The hf subtype label stayed lower-case."

    def test_no_partial_word_replacement(self):
        out, _ = expand_abbreviations([
            "Heart failure (HF) admissions rose.",
            "Shift workers and HFpEF cohorts differ; HF does not.",
        ])
        assert "HFpEF" in out[1]
        assert "heart failure does not" in out[1].lower()

    def test_backslash_in_long_form_is_literal(self):
        out, entries = expand_abbreviations(
            ["The C\\d ratio (CD) was high.", "CD fell."]
        )
        assert entries[0].long_form == "C\\d ratio"
        assert out == ["The C\\d ratio was high.", "C\\d ratio fell."]

    def test_idempotent_on_randomized_sentences(self):
        rng = random.Random(20240817)
        nouns = ["patients", "therapy", "outcomes", "dosing", "admissions",
                 "heart failure", "atrial fibrillation", "renal function"]
        verbs = ["improved", "declined", "was measured", "persisted"]
        declarations = [
            ("atrial fibrillation", "AF"),
            ("heart failure", "HF"),
            ("left ventricular ejection fraction", "LVEF"),
            ("chronic kidney disease", "CKD"),
        ]
        for _ in range(1000):
            parts = []
            for _ in range(rng.randint(1, 4)):
                noun = rng.choice(nouns)
                if rng.random() < 0.4:
                    long, short = rng.choice(declarations)
                    parts.append(f"Records of {long} ({short}) and {noun}"
                                 f" {rng.choice(verbs)}.")
                    if rng.random() < 0.5:
                        parts.append(f"Later {short} {rng.choice(verbs)}.")
                else:
                    parts.append(f"The {noun} {rng.choice(verbs)}.")
            once, _ = expand_abbreviations(parts)
            twice, again = expand_abbreviations(once)
            assert twice == once
            assert again == []

    @settings(max_examples=300, deadline=None)
    @given(_abbreviation_sentences())
    @example(["HF (HFpEF) (HFpEF) (HFpEF)."])
    def test_second_pass_changes_and_declares_nothing(self, sentences):
        once, _ = expand_abbreviations(sentences)
        twice, again = expand_abbreviations(once)
        assert twice == once
        assert again == []

    @settings(max_examples=500, deadline=None)
    @given(_abbreviation_sentences() | _overlapping_sentences())
    @example(["heart failure (HF) and HF-REF.",
              "heart failure-reduced ejection fraction (HF-REF) in X-HF.",
              "HF-REF, X-HF and HF."])
    @example(["HF clinic (HC) staff.", "heart failure (HF) and HC.", "HC unit (HU).",
              "HU, HC and HF."])
    def test_matches_the_eager_expansion(self, sentences):
        expected = _expand_abbreviations_eagerly(sentences)
        assert expand_abbreviations(sentences) == expected

    def test_matches_the_eager_expansion_on_many_declarations(self):
        sentences = _stress_sentences(150)
        out, entries = expand_abbreviations(sentences)
        assert (out, entries) == _expand_abbreviations_eagerly(sentences)
        assert len(entries) == 150
        assert out[3] == "Both zord bord aord aord and zord aord aord aord recurred."

    def test_substitutes_only_where_the_short_form_occurs(self, monkeypatch):
        """With 800 declarations over 1,600 sentences, ``re.sub`` runs once
        per sentence and earlier declaration whose short form the sentence
        holds, not once per declaration for every later sentence."""
        sentences = _stress_sentences(800)
        subs = []
        real_sub = re.sub
        monkeypatch.setattr(preprocess.re, "sub",
                            lambda *a, **k: subs.append(a[0]) or real_sub(*a, **k))
        out, entries = expand_abbreviations(sentences)
        monkeypatch.undo()
        assert len(entries) == 800
        holding = sum(e.short_form in sentence
                      for i, sentence in enumerate(sentences)
                      for e in entries[: (i + 1) // 2])
        assert len(subs) == holding == 2 * 800 - 1


class TestNormalization:
    def test_lowercase_and_punctuation(self):
        assert normalize_token("Heart-Failure,") == "heart failure"
        assert normalize_token("ACE/ARB") == "ace arb"
        assert normalize_token("(beta-blockers)") == "beta blockers"

    def test_whitespace_collapse(self):
        assert normalize_token("  two   words ") == "two words"

    @settings(max_examples=1000)
    @given(st.text())
    def test_idempotent(self, text):
        """Names are normalized once, where they enter the program."""
        once = normalize_token(text)
        assert normalize_token(once) == once

    def test_stem_and_filter_drops_stopwords(self):
        out = stem_and_filter(["patients", "with", "heart", "failure"])
        assert out == ["patient", "heart", "failur"]

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(
        ["patients", "Patients", "PATIENTS", "elderly", "Elderly", "", "the",
         "The", "WITH", "who", "heart", "failure", "adults", "y" * 30])
        | st.text("abcdeiosy", max_size=8), max_size=12))
    def test_stem_and_filter_is_the_per_token_map(self, tokens):
        """Each token maps on its own: empty and stopword tokens to nothing,
        any other to its stem, however often it repeats."""
        expected = [stem(t) for t in tokens
                    if t and t.lower() not in preprocess.STOPWORDS]
        assert stem_and_filter(tokens) == expected


def test_default_stopwords_loaded():
    assert {"the", "of", "with", "who"} <= preprocess.STOPWORDS
