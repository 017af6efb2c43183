import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen import stemming
from citescreen.stemming import _STEP2, _STEP3, _STEP4, stem

# Canonical suffix-stripping reference vectors, frozen.
VECTORS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "digitizer": "digit",
    "conformabli": "conform",
    "radicalli": "radic",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    # clinical vocabulary used throughout the pipeline
    "patients": "patient",
    "failure": "failur",
    "elderly": "elderli",
    "mortality": "mortal",
    "hospitalization": "hospit",
    "anticoagulation": "anticoagul",
}


@pytest.mark.parametrize("word,expected", sorted(VECTORS.items()))
def test_reference_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_unchanged():
    for w in ("a", "is", "be", "on", "oil"):
        assert stem(w) == w


def test_output_is_lowercase_ascii():
    for w in VECTORS:
        out = stem(w)
        assert out == out.lower()
        assert out.isascii()


def test_stable_on_clinical_stems():
    # stemming its own output must not oscillate for pipeline-critical terms
    for w in ("patients", "failure", "elderly", "diuretics", "blockers"):
        once = stem(w)
        assert stem(once) == once


def test_long_run_of_y_stems():
    # the recursive consonant test stopped at Python's recursion limit
    assert stem("y" * 20_000) == "y" * 19_999 + "i"


# --------------------------------------------------------------------------
# The earlier helpers, which decided a "y" by asking the same question of
# the letter before it, recursively: the reference for the one-pass
# vowel pattern.
# --------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word, i):
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem):
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem):
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word):
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word):
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


#: Words rich in "y" and vowels, long enough for runs of "y" but well
#: below the depth at which the recursive helpers stopped.
_Y_WORDS = st.text("aeiouyybcstlwxyy", max_size=60) | st.builds(
    lambda head, ys, tail: head + "y" * ys + tail,
    st.text("aeiouybcst", max_size=4), st.integers(0, 200),
    st.text("aeiouybcst", max_size=4),
)


@settings(max_examples=1000)
@given(_Y_WORDS)
def test_vowel_pattern_helpers_match_recursive_ones(word):
    for name, reference in (("_measure", _measure), ("_has_vowel", _has_vowel),
                            ("_ends_double_consonant", _ends_double_consonant),
                            ("_ends_cvc", _ends_cvc)):
        assert getattr(stemming, name)(word) == reference(word), name


# --------------------------------------------------------------------------
# Differential check against the earlier ``stem``, which ran steps 2 and 3
# as two loops over a ``_replace`` helper and read the recursive helpers.
# --------------------------------------------------------------------------

def _reference_replace(word, suffix, repl, min_measure):
    if not word.endswith(suffix):
        return None
    stem_part = word[: len(word) - len(suffix)]
    if _measure(stem_part) > min_measure:
        return stem_part + repl
    return word


def _reference_stem(word):
    word = word.lower()
    if len(word) <= 2:
        return word
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        cleaned = None
        if word.endswith("ed") and _has_vowel(word[:-2]):
            cleaned = word[:-2]
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            cleaned = word[:-3]
        if cleaned is not None:
            word = cleaned
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            word = _reference_replace(word, suffix, repl, 0) or word
            break
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            word = _reference_replace(word, suffix, repl, 0) or word
            break
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if _measure(stem_part) > 1:
                if suffix == "ion" and stem_part and stem_part[-1] not in "st":
                    break
                word = stem_part
            break
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]
    return word


_SUFFIXES = sorted({
    "s", "es", "sses", "ies", "eed", "ed", "ing", "y",
    *(suffix for step in (_STEP2, _STEP3) for pair in step for suffix in pair),
    *_STEP4,
} - {""})
_WORDS = st.builds(
    lambda head, tail: head + "".join(tail),
    st.text("abcdefghijklmnopqrstuvwxyz", max_size=7),
    st.lists(st.sampled_from(_SUFFIXES), max_size=3),
)


@settings(max_examples=2000)
@given(_WORDS | _Y_WORDS)
def test_matches_reference_on_suffixed_words(word):
    assert stem(word) == _reference_stem(word)
