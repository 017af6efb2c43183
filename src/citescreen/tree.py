"""Constituency phrase trees: bracketed notation and a heuristic chunker.

The chunker is a deterministic cascade producing the five phrase labels
(NP, VP, PP, SBAR plus the S root); it replaces a full statistical
parser.  Population patterns depend only on NP/VP/PP/SBAR structure, so
hand-built bracketed trees can be injected wherever parse quality
matters (tests, the CLI debug path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from citescreen.errors import FormatError

LABELS = frozenset({"NP", "VP", "PP", "SBAR", "NN", "S", "TOK"})


@dataclass
class PhraseTree:
    label: str
    children: list["PhraseTree"] = field(default_factory=list)
    span: tuple[int, int] = (0, 0)   # half-open token range
    token: str | None = None         # leaves only

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def leaves(self) -> list["PhraseTree"]:
        if self.is_leaf:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def tokens(self) -> list[str]:
        return [leaf.token for leaf in self.leaves()]

    def iter_nodes(self):
        yield self
        for c in self.children:
            yield from c.iter_nodes()

    def dominates(self, label: str) -> bool:
        return any(n.label == label for c in self.children for n in c.iter_nodes())


def _assign_spans(node: PhraseTree, start: int) -> int:
    if node.is_leaf:
        node.span = (start, start + 1)
        return start + 1
    pos = start
    for c in node.children:
        pos = _assign_spans(c, pos)
    node.span = (start, pos)
    return pos


def _leaf(label: str, token: str) -> PhraseTree:
    return PhraseTree(label, token=token)


# ---------------------------------------------------------------------------
# Bracketed notation
# ---------------------------------------------------------------------------

def _tokenize_sexpr(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_bracketed_tree(text: str) -> PhraseTree:
    """Parse ``(NP (TOK patients))`` style notation.

    Bare words inside a phrase become TOK leaves, so gold trees can be
    written compactly as ``(NP elderly heart failure patients)``.
    """
    toks = _tokenize_sexpr(text)
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
                # bare words become TOK leaves, in source order
                children.append(_leaf("TOK", toks[pos]))
                pos += 1
        if pos >= len(toks):
            raise FormatError("unbalanced parentheses")
        pos += 1  # consume ')'
        if label in ("TOK", "NN"):
            if children or len(words) != 1:
                raise FormatError(f"leaf {label} must hold exactly one token")
            return _leaf(label, words[0])
        return PhraseTree(label, children)

    root = parse_node()
    if pos != len(toks):
        raise FormatError("trailing content after tree")
    _assign_spans(root, 0)
    return root


# ---------------------------------------------------------------------------
# Heuristic chunker
# ---------------------------------------------------------------------------

_DETS = {
    "the", "a", "an", "this", "these", "those", "each", "every", "all",
    "both", "some", "any", "no", "their", "its", "his", "her", "our",
    "your", "my",
}
_RELS = {"who", "whom", "whose", "which", "that"}
_PREPS = {
    "in", "on", "at", "of", "for", "with", "without", "from", "by", "to",
    "into", "onto", "over", "under", "between", "among", "during", "after",
    "before", "within", "due", "per", "via", "versus", "vs", "vs.",
    "despite", "regardless",
}
_AUX = {
    "is", "are", "was", "were", "be", "been", "being", "am", "has", "have",
    "had", "having", "do", "does", "did", "can", "cannot", "could", "may",
    "might", "must", "shall", "should", "will", "would", "not",
}
_VERBS = {
    "include", "includes", "make", "makes", "show", "shows", "shown",
    "decrease", "decreases", "increase", "increases", "improve", "improves",
    "reduce", "reduces", "tolerate", "tolerates", "remain", "remains",
    "provide", "provides", "suggest", "suggests", "given", "taken", "seen",
    "made", "found", "done", "known",
}
_CONJ = {"and", "or", "but", "nor"}


def _tag(token: str) -> str:
    core = token.strip(".,;:!?()[]\"'").lower()
    if not core:
        return "BREAK"
    if core in _RELS:
        return "REL"
    if core in _PREPS:
        return "PREP"
    if core in _DETS:
        return "DET"
    if core in _AUX or core in _VERBS:
        return "V"
    if core in _CONJ:
        return "CONJ"
    if core.endswith(("ed", "ing")) and len(core) > 4:
        return "V"
    return "NOM"


class _Chunker:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.tags = [_tag(t) for t in tokens]
        self.pos = 0

    def peek(self) -> str | None:
        return self.tags[self.pos] if self.pos < len(self.tokens) else None

    def take(self, label: str) -> PhraseTree:
        leaf = _leaf(label, self.tokens[self.pos])
        self.pos += 1
        return leaf

    def parse_np_base(self) -> PhraseTree:
        children = []
        while self.peek() in ("DET", "NOM", "CONJ"):
            if self.peek() == "CONJ":
                # conjunction glues coordinated nominals; stop if nothing follows
                nxt = self.tags[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
                if nxt not in ("DET", "NOM"):
                    break
                children.append(self.take("TOK"))
            elif self.peek() == "NOM":
                children.append(self.take("NN"))
            else:
                children.append(self.take("TOK"))
        if not children:  # guarantee progress on stray conjunctions
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
        while self.peek() == "PREP":  # e.g. "due to"
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
        return PhraseTree("S", chunks)


def parse_phrase_tree(sentence: str) -> PhraseTree:
    """Chunk a sentence into an NP/VP/PP/SBAR tree under an S root."""
    tokens = sentence.split()
    if not tokens:
        return PhraseTree("S", [], span=(0, 0))
    root = _Chunker(tokens).parse()
    _assign_spans(root, 0)
    return root
