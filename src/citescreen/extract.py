"""Concept extraction.

``read`` reads a text unit once for both extractors.
``extract_population`` returns the token spans of the noun phrases, and
the verb phrases dominating a noun phrase, whose span holds a population
term: what the paper's seven structural patterns select together.
``extract_concepts`` returns a (group, normal form) pair for each group
of each longest dictionary match.  ``build_concept_set`` fills the
population, intervention-or-comparison and disease bags from both,
mapping drug mentions onto the class hierarchy with a cascade of
normalization rules.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from citescreen import preprocess
from citescreen.corpus import ConceptLexicon, DrugDictionary
from citescreen.tree import PhraseTree, parse_phrase_tree


@dataclass(frozen=True)
class ConceptSet:
    """Three bags of normalized concepts (interventions and comparisons pooled).

    ``population_stems`` is ``population_terms(population)``, the form
    screening and ranking compare, derived when the set is made unless the
    maker passes it in: ``merged`` passes its parts' stems, and
    ``build_concept_set`` stems through the run's table.
    """

    population: list[str] = field(default_factory=list)
    intervention: list[str] = field(default_factory=list)
    disease: list[str] = field(default_factory=list)
    population_stems: list[str] | None = None

    def __post_init__(self):
        if self.population_stems is None:
            object.__setattr__(self, "population_stems",
                               population_terms(self.population))

    @cached_property
    def term_counts(self) -> tuple[Counter, Counter, Counter]:
        """Raw counts of the population stems, the interventions and the
        diseases, in first-occurrence order: ranking's tf, made on first use."""
        return (Counter(self.population_stems), Counter(self.intervention),
                Counter(self.disease))

    @classmethod
    def merged(cls, sets: Iterable[ConceptSet]) -> ConceptSet:
        """One set holding every bag's concepts in order, duplicates kept.

        The stems are the parts' stems in order: ``population_terms``
        maps phrase by phrase and word by word.
        """
        sets = list(sets)

        def joined(name: str) -> list[str]:
            return [term for cs in sets for term in getattr(cs, name)]
        return cls(joined("population"), joined("intervention"), joined("disease"),
                   population_stems=joined("population_stems"))


def population_terms(bag: list[str],
                     stems: dict[str, str | None] | None = None) -> list[str]:
    """Stemmed, stopword-filtered tokens of the population phrases;
    ``stems`` is the word -> stem table ``stem_and_filter`` reads and extends."""
    tokens: list[str] = []
    for phrase in bag:
        tokens.extend(phrase.split())
    return preprocess.stem_and_filter(tokens, stems)


@dataclass(frozen=True)
class Reading:
    """One text unit, read once: what both extractors work from."""

    tokens: tuple[str, ...]
    words: tuple[str, ...]          # normalized words of the tokens
    hits: tuple                     # ConceptLexicon.matches(words)
    population_spans: tuple         # (first token, last token) of each population term


def read(text: str, lexicon: ConceptLexicon) -> Reading:
    """Tokens of ``text``, their normalized words and the lexicon hits."""
    tokens = tuple(text.split())
    words: list[str] = []
    sources: list[int] = []
    for i, tok in enumerate(tokens):
        for w in preprocess.normalize_token(tok).split():
            words.append(w)
            sources.append(i)
    hits = lexicon.matches(words)
    population_spans = tuple(
        (sources[start], sources[end - 1])
        for start, found in enumerate(hits)
        for end, groups in found
        if "population" in groups
    )
    return Reading(tokens, tuple(words), hits, population_spans)


# ---------------------------------------------------------------------------
# Population patterns
# ---------------------------------------------------------------------------

def extract_population(tree: PhraseTree, reading: Reading) -> list[tuple[int, int]]:
    """Token spans of the phrases holding a population term, sorted and distinct.

    The paper's seven structural patterns accept exactly the NPs and the
    VPs dominating an NP whose span contains a population term: patterns
    1-4 accept only NPs that pattern 5 (any NP) also accepts, under a
    stricter term position, and pattern 7 only VPs that pattern 6 (a VP
    dominating an NP) also accepts.  Every pattern yields the same
    phrase for a span, so the span is the whole result.
    """
    terms = reading.population_spans
    spans: set[tuple[int, int]] = set()
    above_np: set[int] = set()   # ids of the nodes that dominate an NP
    # The pre-order walked backwards reaches every child before its parent,
    # so one pass decides "dominates an NP" for each node from its children.
    for node in reversed(list(tree.iter_nodes())):
        for child in node.children:
            if child.label == "NP" or id(child) in above_np:
                above_np.add(id(node))
                break
        if (
            (node.label == "NP" or (node.label == "VP" and id(node) in above_np))
            and node.span not in spans
            and any(node.span[0] <= first and last < node.span[1]
                    for first, last in terms)
        ):
            spans.add(node.span)
    return sorted(spans)


# ---------------------------------------------------------------------------
# Dictionary matching (multi-pattern, longest match first)
# ---------------------------------------------------------------------------

def extract_concepts(reading: Reading) -> list[tuple[str, str]]:
    """(group, normal form) of each group of each longest dictionary match."""
    concepts: list[tuple[str, str]] = []
    covered = 0   # words before this index belong to an earlier match
    for start, found in enumerate(reading.hits):
        if start < covered or not found:
            continue
        covered, groups = found[-1]
        normal = " ".join(reading.words[start:covered])
        concepts.extend((group, normal) for group in groups)
    return concepts


# ---------------------------------------------------------------------------
# Drug normalization
# ---------------------------------------------------------------------------

def _normalize_single(
    mention: str, drugs: DrugDictionary, synonyms: dict[str, str]
) -> str | None:
    """Rules 1, 2, 4, 5 and 6 of the mapping cascade: the dictionary key
    they map ``mention`` to; None if no rule hits."""
    norm = preprocess.normalize_token(mention)
    if not norm:
        return None
    # Rule 1: case normalization (dictionary keys are normalized names).
    if norm in drugs:
        return norm
    # Rule 2: Arabic/Roman numeral variants.
    hit = drugs.numeral_variant(norm)
    if hit:
        return hit
    # Rule 4: removal of contents inside parenthesis.
    without_parens = re.sub(r"\([^)]*\)", " ", mention)
    norm2 = (norm if without_parens == mention
             else preprocess.normalize_token(without_parens))
    if norm2 in drugs:
        return norm2
    # Rule 5: equivalent class names.
    canonical = synonyms.get(norm)
    if canonical is None:
        canonical = synonyms.get(norm2)
    if canonical in drugs:
        return canonical
    # Rule 6: singular to plural for class names.
    for suffix in ("s", "es"):
        if norm + suffix in drugs:
            return norm + suffix
    return None


def normalize_drug_components(
    mention: str,
    drugs: DrugDictionary,
    synonyms: dict[str, str],
) -> list[str]:
    """Dictionary keys for a (possibly multi-drug) mention.

    A part, or the whole mention, that no rule maps to a key comes back
    as its own normal form.
    """
    single = _normalize_single(mention, drugs, synonyms)
    if single is not None:
        return [single]
    # Rule 3: interventions separated by slash, hyphen etc.
    parts = [p.strip() for p in re.split(r"[/;]|\s-\s|-", mention) if p.strip()]
    if len(parts) > 1:
        resolved = [_normalize_single(p, drugs, synonyms) for p in parts]
        if any(r is not None for r in resolved):
            return [r if r is not None else preprocess.normalize_token(p)
                    for r, p in zip(resolved, parts)]
    return [preprocess.normalize_token(mention)]


# ---------------------------------------------------------------------------
# Concept-set construction
# ---------------------------------------------------------------------------

def build_concept_set(
    text: str,
    lexicon: ConceptLexicon,
    drugs: DrugDictionary,
    synonyms: dict[str, str],
    stems: dict[str, str | None] | None = None,
) -> ConceptSet:
    """Population, intervention-or-comparison and disease bags for one text unit.

    Chemicals are drug-normalized and expanded with their class
    hierarchy; procedures and devices pool into the intervention bag.
    Population words are stemmed through ``stems``, the run's word -> stem
    table, when one is given.
    """
    reading = read(text, lexicon)
    # Only a unit holding a population term can have a population phrase.
    spans = (extract_population(parse_phrase_tree(text), reading)
             if reading.population_spans else [])
    population = [preprocess.normalize_token(" ".join(reading.tokens[start:end]))
                  for start, end in spans]
    intervention: list[str] = []
    disease: list[str] = []
    for group, normal in extract_concepts(reading):
        if group == "disorder":
            disease.append(normal)
        elif group == "chemical":
            for key in normalize_drug_components(normal, drugs, synonyms):
                intervention.extend(drugs.hierarchy(key) or [key])
        elif group in ("procedure", "device"):
            intervention.append(normal)
    return ConceptSet(population, intervention, disease,
                      population_stems=population_terms(population, stems))
