"""Porter suffix-stripping stemmer.

Implements the original 1980 algorithm (steps 1a through 5b) over
lower-case ASCII words.  Words of length <= 2 are returned unchanged,
as in the reference description.
"""

_VOWELS = "aeiou"


def _pattern(word: str) -> str:
    """``word`` as "c" for each consonant and "v" for each vowel, in one pass.

    A "y" is a vowel after a consonant, and a consonant at the start of
    the word or after a vowel.
    """
    kinds = []
    consonant = False   # so that a leading "y" reads as a consonant
    for ch in word:
        consonant = ch not in _VOWELS and (ch != "y" or not consonant)
        kinds.append("c" if consonant else "v")
    return "".join(kinds)


def _measure(stem: str) -> int:
    """Count VC sequences in ``stem`` (the m of the algorithm)."""
    return _pattern(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _pattern(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant, last consonant not w, x or y
    return _pattern(word).endswith("cvc") and word[-1] not in "wxy"


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def stem(word: str) -> str:
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # Step 1b
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

    # Step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2 and 3
    for step in (_STEP2, _STEP3):
        for suffix, repl in step:
            if word.endswith(suffix):
                stem_part = word[: len(word) - len(suffix)]
                if _measure(stem_part) > 0:
                    word = stem_part + repl
                break

    # Step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if _measure(stem_part) > 1:
                if suffix == "ion" and stem_part and stem_part[-1] not in "st":
                    break
                word = stem_part
            break

    # Step 5a
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part

    # Step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word
