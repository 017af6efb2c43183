import random

import pytest

from citescreen.errors import FormatError
from citescreen.tree import (
    PhraseTree,
    parse_bracketed_tree,
    parse_phrase_tree,
)


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

    def test_dominates(self):
        tree = parse_bracketed_tree("(NP (TOK patients) (VP hospitalized))")
        assert tree.dominates("VP")
        assert not tree.dominates("SBAR")
        # a node does not dominate itself
        assert not tree.children[1].dominates("VP")

    def test_text_roundtrip(self):
        tree = parse_bracketed_tree("(S (NP a b) (VP c (PP d e)))")
        assert " ".join(tree.tokens()) == "a b c d e"

    @pytest.mark.parametrize("bad", [
        "",
        "(NP unbalanced",
        "(XX strange label)",
        "(NN two tokens)",
        "(TOK)",
        "(NP a) trailing",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_bracketed_tree(bad)


def _check_tree(node: PhraseTree, n_tokens: int):
    """Structural invariants: contiguous half-open spans covering children."""
    start, end = node.span
    assert 0 <= start < end <= n_tokens
    if node.is_leaf:
        assert end == start + 1
        assert not node.children
        return
    pos = start
    for child in node.children:
        assert child.span[0] == pos
        _check_tree(child, n_tokens)
        pos = child.span[1]
    assert pos == end


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
        assert tree.dominates("SBAR")

    def test_preposition_yields_pp(self):
        tree = parse_phrase_tree("mortality in patients with heart failure")
        assert tree.dominates("PP")

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
