import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescreen.errors import FormatError
from citescreen.tree import (
    LABELS,
    PhraseTree,
    _tag,
    parse_bracketed_tree,
    parse_phrase_tree,
)

#: Malformed bracketed text -> the message it must give.
_MALFORMED_TREES = {
    "": "empty tree",
    "(NP unbalanced": "unbalanced parentheses",
    "(XX strange label)": "unknown label 'XX'",
    "(NN two tokens)": "leaf NN must hold exactly one token",
    "(TOK)": "leaf TOK must hold exactly one token",
    "(NP a) trailing": "trailing content after tree",
    "NP a": "expected '(' at token 0",
    ")": "expected '(' at token 0",
    "(": "missing node label",
    "()": "missing node label",
    "(NP a (": "missing node label",
    "(NP (XX a": "unknown label 'XX'",
    "(TOK (NN a))": "leaf TOK must hold exactly one token",
    "(NN a (NP b))": "leaf NN must hold exactly one token",
    "(S (NP a) (NP b)) (NP c)": "trailing content after tree",
}


class TestBracketedNotation:
    def test_simple_np(self):
        tree = parse_bracketed_tree("(NP elderly heart failure patients)")
        assert tree.label == "NP"
        assert tree.tokens() == ["elderly", "heart", "failure", "patients"]
        assert tree.span == (0, 4)

    def test_nested_spans(self):
        tree = parse_bracketed_tree(
            "(S (NP (TOK patients) (SBAR who cannot tolerate ACE inhibitors)) .)"
        )
        np = tree.children[0]
        assert np.label == "NP"
        assert np.span == (0, 6)
        sbar = np.children[1]
        assert sbar.span == (1, 6)
        assert tree.tokens()[-1] == "."

    def test_token_order_preserved_around_children(self):
        tree = parse_bracketed_tree("(NP alpha (PP beta gamma) delta)")
        assert tree.tokens() == ["alpha", "beta", "gamma", "delta"]

    def test_text_roundtrip(self):
        tree = parse_bracketed_tree("(S (NP a b) (VP c (PP d e)))")
        assert " ".join(tree.tokens()) == "a b c d e"

    @pytest.mark.parametrize("bad", list(_MALFORMED_TREES))
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormatError) as new:
            parse_bracketed_tree(bad)
        with pytest.raises(FormatError) as old:
            _reference_bracketed(bad)
        assert str(new.value) == str(old.value) == _MALFORMED_TREES[bad]


def _dominates(node: PhraseTree, label: str) -> bool:
    """Whether a strict descendant of ``node`` carries ``label``."""
    return any(n.label == label for c in node.children for n in c.iter_nodes())


def _check_tree(root: PhraseTree, n_tokens: int):
    """Structural invariants: contiguous half-open spans covering children."""
    for node in root.iter_nodes():
        start, end = node.span
        assert 0 <= start < end <= n_tokens
        if node.is_leaf:
            assert end == start + 1
            assert not node.children
            continue
        assert [c.span[0] for c in node.children] == [
            start, *(c.span[1] for c in node.children[:-1])
        ]
        assert node.children[-1].span[1] == end


def _bracketed(node: PhraseTree) -> str:
    """``node`` in bracketed notation."""
    inside = node.token if node.is_leaf else " ".join(map(_bracketed, node.children))
    return f"({node.label} {inside})"


class TestChunker:
    def test_root_is_sentence(self):
        tree = parse_phrase_tree("Patients with heart failure improved.")
        assert tree.label == "S"

    def test_leaves_match_whitespace_tokens(self):
        sentence = "ACE inhibitors decrease mortality in patients with heart failure."
        tree = parse_phrase_tree(sentence)
        assert tree.tokens() == sentence.split()
        _check_tree(tree, len(sentence.split()))

    def test_relative_clause_yields_sbar(self):
        tree = parse_phrase_tree("patients who cannot tolerate ACE inhibitors")
        assert _dominates(tree, "SBAR")

    def test_preposition_yields_pp(self):
        tree = parse_phrase_tree("mortality in patients with heart failure")
        assert _dominates(tree, "PP")

    def test_terminates_on_random_token_soup(self):
        # guards the chunker's progress guarantee on degenerate input
        rng = random.Random(99)
        vocab = ["or", "and", "who", "in", "with", "the", "patients", "was",
                 "treated", "of", "that", ",", "failure", "which", "to"]
        for _ in range(300):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            sentence = " ".join(words)
            tree = parse_phrase_tree(sentence)
            assert tree.tokens() == sentence.split()
            _check_tree(tree, len(words))
            # the same shape written out and read back as a bracketed tree
            bracketed = parse_bracketed_tree(_bracketed(tree))
            _check_tree(bracketed, len(words))
            assert bracketed == tree

    def test_empty_sentence(self):
        tree = parse_phrase_tree("")
        assert tree.tokens() == []


# ---------------------------------------------------------------------------
# Reference: the recursive chunker and bracketed parser that the loops in
# ``citescreen.tree`` replace.  Both recurse once per nested phrase, so they
# serve only on inputs well below Python's recursion limit.
# ---------------------------------------------------------------------------

def _reference_spans(node: PhraseTree, start: int) -> int:
    if node.is_leaf:
        node.span = (start, start + 1)
        return start + 1
    pos = start
    for c in node.children:
        pos = _reference_spans(c, pos)
    node.span = (start, pos)
    return pos


def _reference_bracketed(text: str) -> PhraseTree:
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise FormatError("empty tree")
    pos = 0

    def parse_node() -> PhraseTree:
        nonlocal pos
        if toks[pos] != "(":
            raise FormatError(f"expected '(' at token {pos}")
        pos += 1
        if pos >= len(toks) or toks[pos] in "()":
            raise FormatError("missing node label")
        label = toks[pos]
        if label not in LABELS:
            raise FormatError(f"unknown label {label!r}")
        pos += 1
        children: list[PhraseTree] = []
        words: list[str] = []
        while pos < len(toks) and toks[pos] != ")":
            if toks[pos] == "(":
                children.append(parse_node())
            elif label in ("TOK", "NN"):
                words.append(toks[pos])
                pos += 1
            else:
                children.append(PhraseTree("TOK", token=toks[pos]))
                pos += 1
        if pos >= len(toks):
            raise FormatError("unbalanced parentheses")
        pos += 1
        if label in ("TOK", "NN"):
            if children or len(words) != 1:
                raise FormatError(f"leaf {label} must hold exactly one token")
            return PhraseTree(label, token=words[0])
        return PhraseTree(label, children)

    root = parse_node()
    if pos != len(toks):
        raise FormatError("trailing content after tree")
    _reference_spans(root, 0)
    return root


class _ReferenceChunker:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.tags = [_tag(t) for t in tokens]
        self.pos = 0

    def peek(self) -> str | None:
        return self.tags[self.pos] if self.pos < len(self.tokens) else None

    def take(self, label: str) -> PhraseTree:
        leaf = PhraseTree(label, token=self.tokens[self.pos])
        self.pos += 1
        return leaf

    def parse_np_base(self) -> PhraseTree:
        children = []
        while self.peek() in ("DET", "NOM", "CONJ"):
            if self.peek() == "CONJ":
                nxt = self.tags[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
                if nxt not in ("DET", "NOM"):
                    break
                children.append(self.take("TOK"))
            elif self.peek() == "NOM":
                children.append(self.take("NN"))
            else:
                children.append(self.take("TOK"))
        if not children:
            children.append(self.take("TOK"))
        return PhraseTree("NP", children)

    def parse_np(self) -> PhraseTree:
        base = self.parse_np_base()
        attachments = []
        while self.peek() in ("PREP", "REL"):
            attachments.append(
                self.parse_pp() if self.peek() == "PREP" else self.parse_sbar()
            )
        if attachments:
            return PhraseTree("NP", [base, *attachments])
        return base

    def parse_pp(self) -> PhraseTree:
        children = [self.take("TOK")]
        while self.peek() == "PREP":
            children.append(self.take("TOK"))
        if self.peek() in ("DET", "NOM", "CONJ"):
            children.append(self.parse_np())
        if self.peek() == "REL":
            children.append(self.parse_sbar())
        return PhraseTree("PP", children)

    def parse_sbar(self) -> PhraseTree:
        children = [self.take("TOK")]
        if self.peek() == "V":
            children.append(self.parse_vp())
        elif self.peek() in ("DET", "NOM", "CONJ"):
            children.append(self.parse_np())
        return PhraseTree("SBAR", children)

    def parse_vp(self) -> PhraseTree:
        children = []
        while self.peek() == "V":
            children.append(self.take("TOK"))
        while self.peek() in ("DET", "NOM", "CONJ", "PREP"):
            if self.peek() == "PREP":
                children.append(self.parse_pp())
            else:
                children.append(self.parse_np())
        return PhraseTree("VP", children)

    def parse(self) -> PhraseTree:
        chunks = []
        while self.peek() is not None:
            tag = self.peek()
            if tag == "PREP":
                chunks.append(self.parse_pp())
            elif tag == "REL":
                chunks.append(self.parse_sbar())
            elif tag == "V":
                chunks.append(self.parse_vp())
            elif tag in ("DET", "NOM", "CONJ"):
                chunks.append(self.parse_np())
            else:
                chunks.append(self.take("TOK"))
        root = PhraseTree("S", chunks)
        _reference_spans(root, 0)
        return root


#: Words of every class ``_tag`` tells apart, by the tag it gives them.
_WORDS_BY_TAG = {
    "DET": ["the", "a", "These", "their", "no"],
    "NOM": ["patients", "heart", "failure", "elderly", "AF", "(AF)", "adults,"],
    "CONJ": ["and", "or", "but", "nor", "and,"],
    "PREP": ["in", "of", "with", "due", "to", "vs.", "(with"],
    "REL": ["who", "which", "that", "whose"],
    "V": ["is", "was", "cannot", "tolerate", "given", "treated", "receiving",
          "hospitalized"],
    "BREAK": [",", ".", "(", ")", ";", "...", "\"'"],
}
_WORDS = [w for words in _WORDS_BY_TAG.values() for w in words] + ["due to"]


def test_vocabulary_covers_every_tag():
    for tag, words in _WORDS_BY_TAG.items():
        assert {_tag(w) for w in words} == {tag}


_SENTENCES = st.lists(st.sampled_from(_WORDS), max_size=60).map(" ".join)


class TestMatchesRecursiveReference:
    @settings(max_examples=500, deadline=None)
    @given(_SENTENCES)
    def test_chunker(self, sentence):
        assert parse_phrase_tree(sentence) == _ReferenceChunker(sentence.split()).parse()

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.sampled_from(["a", "b", "(TOK c)", "(NN d)"]),
        lambda kids: st.builds(
            lambda label, children: f"({label} {' '.join(children)})",
            st.sampled_from(["S", "NP", "VP", "PP", "SBAR"]),
            st.lists(kids, max_size=4),
        ),
        max_leaves=30,
    ).filter(lambda text: text.startswith("(")))
    def test_bracketed_round_trip(self, text):
        tree = parse_bracketed_tree(text)
        assert tree == _reference_bracketed(text)
        assert parse_bracketed_tree(_bracketed(tree)) == tree


class TestLongInput:
    """Inputs far past Python's recursion limit; their timings are in CHANGES.md."""

    def test_twenty_thousand_word_sentence_chunks(self):
        words = ("of the patients " * 6667).split()
        tree = parse_phrase_tree(" ".join(words))
        assert tree.tokens() == words
        _check_tree(tree, len(words))
        # every "of" opens a PP nested inside the previous one
        assert sum(node.label == "PP" for node in tree.iter_nodes()) == 6667

    def test_deeply_nested_bracketed_tree(self):
        tree = parse_bracketed_tree("(NP " * 3000 + "patients" + ")" * 3000)
        assert tree.tokens() == ["patients"]
        assert sum(1 for _ in tree.iter_nodes()) == 3001
        assert _dominates(tree, "NP")
