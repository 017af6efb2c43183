"""Sentence segmentation, abbreviation expansion, and lexical normalization.

These are pure functions shared by every downstream stage.  Abstracts are
segmented once, abbreviations are expanded in place, and all dictionary
lookups operate on tokens canonicalized by :func:`normalize_token`.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from importlib import resources

from citescreen.stemming import stem

# Tokens that end with a period but never terminate a sentence.
_PROTECTED = {
    "vs.", "e.g.", "i.e.", "dr.", "mr.", "mrs.", "ms.", "prof.", "st.",
    "fig.", "figs.", "no.", "al.", "etc.", "approx.", "ca.", "cf.",
}

# A whole token ending in ``.?!``, then whitespace and a capital or digit.
_BOUNDARY = re.compile(r"(?<!\S)(\S*[.?!])(\s+)(?=[A-Z0-9])")
_PAREN_CANDIDATE = re.compile(r"\(\s*([^()\s]{2,10})\s*\)")


@dataclass
class AbbreviationEntry:
    """A short form and the long form recovered from the preceding words."""

    short_form: str
    long_form: str


def segment_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences.

    Boundaries are ``.?!`` followed by whitespace and an upper-case letter
    or digit; protected tokens (``vs.``, ``e.g.``, titles, single
    initials) never split.  Decimal numbers are safe because the digit
    follows the period with no whitespace.
    """
    if not text or not text.strip():
        return []
    cut_points = []
    for m in _BOUNDARY.finditer(text):
        token = m.group(1).lower()
        if token in _PROTECTED:
            continue
        # single initial like "J." mid-name
        if re.fullmatch(r"[a-z]\.", token):
            continue
        cut_points.append((m.end(1), m.end(2)))
    sentences = []
    start = 0
    for end, nxt in cut_points:
        sentences.append(text[start:end].strip())
        start = nxt
    sentences.append(text[start:].strip())
    return [s for s in sentences if s]


def max_window(abbr: str) -> int:
    """Word window searched before an abbreviation for its long form."""
    if not abbr:
        raise ValueError("abbreviation must be non-empty")
    n = len(abbr)
    return min(n + 5, n * 2)


def _chars_in_order(abbr: str, long_form: str) -> bool:
    pos = 0
    lf = long_form.lower()
    for ch in abbr.lower():
        pos = lf.find(ch, pos)
        if pos < 0:
            return False
        pos += 1
    return True


def _valid_long_form(abbr: str, long_form: str) -> bool:
    # A long form holding a parenthesis would take in an earlier
    # declaration, which a second pass would then resolve again.
    if not long_form or "(" in long_form or ")" in long_form:
        return False
    if long_form[0].lower() != abbr[0].lower():
        return False
    return _chars_in_order(abbr, long_form)


def _find_long_form(abbr: str, preceding: str) -> str | None:
    """Shortest suffix of the word window that satisfies both constraints."""
    words = preceding.split()
    window = words[-max_window(abbr):]
    for k in range(1, len(window) + 1):
        candidate = " ".join(window[-k:])
        if _valid_long_form(abbr, candidate):
            return candidate
    return None


def _replace_standalone(text: str, short: str, long: str) -> str:
    # The pattern matches ``short`` literally, so text without it is kept.
    if short not in text:
        return text
    # A function replacement keeps backslashes in ``long`` literal.
    return re.sub(r"(?<![\w])%s(?![\w])" % re.escape(short), lambda _: long, text)


def expand_abbreviations(
    sentences: list[str],
) -> tuple[list[str], list[AbbreviationEntry]]:
    """Resolve parenthesized abbreviation declarations and inline them.

    A candidate is a single parenthesized token of 2-10 characters with
    at least one upper-case letter.  On success the declaration is
    removed and every later standalone occurrence of the short form
    (word-boundary, case-sensitive) is replaced with the long form.
    Candidates with no valid long form are left untouched.  Each sentence
    takes the declarations accepted before it, in order, before it is
    scanned for its own.
    """
    out: list[str] = []
    entries: list[AbbreviationEntry] = []
    for sentence in sentences:
        for entry in entries:
            sentence = _replace_standalone(sentence, entry.short_form, entry.long_form)
        pos = 0
        while m := _PAREN_CANDIDATE.search(sentence, pos):
            abbr = m.group(1)
            pos = m.end()
            long_form = (_find_long_form(abbr, sentence[: m.start()])
                         if any(c.isupper() for c in abbr) else None)
            if long_form is None:
                continue
            entries.append(AbbreviationEntry(abbr, long_form))
            head = sentence[: m.start()].rstrip()
            tail = _replace_standalone(sentence[m.end():], abbr, long_form)
            sentence = (head + tail) if tail.startswith((".", ",", ";", ":", ")")) \
                else (head + " " + tail.lstrip() if tail.strip() else head)
            pos = len(head)
        out.append(sentence)
    return out, entries


_STRIP_CHARS = string.punctuation + string.whitespace


def normalize_token(token: str) -> str:
    """Canonical form: lower-case, punctuation-stripped, single spaces."""
    text = token.lower().replace("-", " ").replace("/", " ")
    parts = [p.strip(_STRIP_CHARS) for p in text.split()]
    return " ".join(p for p in parts if p)


#: The bundled stop list, lower-cased.
STOPWORDS = frozenset(
    resources.files("citescreen.data").joinpath("stopwords.txt")
    .read_text(encoding="utf-8").lower().split()
)


def stem_and_filter(tokens: list[str],
                    stems: dict[str, str | None] | None = None) -> list[str]:
    """Drop stopwords and suffix-strip the remaining tokens, each distinct
    token once: the map is token by token.

    ``stems`` is a token -> stem table, None for a token dropped, that the
    call reads and extends; a caller that keeps it stems each token once
    across calls.
    """
    if stems is None:
        stems = {}
    for t in tokens:
        if t not in stems:
            stems[t] = stem(t) if t and t.lower() not in STOPWORDS else None
    return [stems[t] for t in tokens if stems[t] is not None]
