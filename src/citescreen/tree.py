"""Constituency phrase trees: bracketed notation and a heuristic chunker.

The chunker is a deterministic, table-driven pass producing the five
phrase labels (NP, VP, PP, SBAR plus the S root); it replaces a full
statistical parser.  Population patterns depend only on NP/VP/PP/SBAR
structure, so hand-built bracketed trees can be injected wherever parse
quality matters (tests, the CLI debug path).  Both parsers and the tree
walks loop over explicit stacks, so input depth is bounded by memory,
not by Python's recursion limit.
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

    def tokens(self) -> list[str]:
        return [node.token for node in self.iter_nodes() if node.is_leaf]

    def iter_nodes(self):
        """Every node of the tree in pre-order, this one first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += node.children[::-1]


def _leaf(label: str, token: str, index: int) -> PhraseTree:
    return PhraseTree(label, span=(index, index + 1), token=token)


# ---------------------------------------------------------------------------
# Bracketed notation
# ---------------------------------------------------------------------------

def parse_bracketed_tree(text: str) -> PhraseTree:
    """Parse ``(NP (TOK patients))`` style notation.

    Bare words inside a phrase become TOK leaves, so gold trees can be
    written compactly as ``(NP elderly heart failure patients)``.
    """
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise FormatError("empty tree")
    if toks[0] != "(":
        raise FormatError("expected '(' at token 0")
    # open nodes: label, first leaf index, children (words, in a TOK or NN)
    stack: list[tuple[str, int, list]] = []
    n_leaves = 0
    root = None
    wants_label = False
    for tok in toks:
        if root is not None:
            raise FormatError("trailing content after tree")
        if wants_label:
            if tok in ("(", ")"):
                raise FormatError("missing node label")
            if tok not in LABELS:
                raise FormatError(f"unknown label {tok!r}")
            stack.append((tok, n_leaves, []))
            wants_label = False
        elif tok == "(":
            wants_label = True
        elif tok == ")":
            label, start, children = stack.pop()
            if label in ("TOK", "NN"):
                if len(children) != 1 or not isinstance(children[0], str):
                    raise FormatError(f"leaf {label} must hold exactly one token")
                node = _leaf(label, children[0], n_leaves)
                n_leaves += 1
            else:
                node = PhraseTree(label, children, (start, n_leaves))
            if stack:
                stack[-1][2].append(node)
            else:
                root = node
        elif stack[-1][0] in ("TOK", "NN"):
            stack[-1][2].append(tok)
        else:
            # bare words become TOK leaves, in source order
            stack[-1][2].append(_leaf("TOK", tok, n_leaves))
            n_leaves += 1
    if wants_label:
        raise FormatError("missing node label")
    if root is None:
        raise FormatError("unbalanced parentheses")
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


_NP_STARTS = dict.fromkeys(("DET", "NOM", "CONJ"), "NP")

#: For each open phrase, the phrase (or S's bare TOK leaf) that the next
#: token's tag starts inside it; a tag not listed closes the phrase.
_STARTS = {
    "S": {"PREP": "PP", "REL": "SBAR", "V": "VP", **_NP_STARTS, "BREAK": "TOK"},
    "NP": {"PREP": "PP", "REL": "SBAR"},
    "VP": {"PREP": "PP", **_NP_STARTS},
    "PP": {"REL": "SBAR", **_NP_STARTS},
    "SBAR": {"V": "VP", **_NP_STARTS},
}
#: Phrases that close after their first sub-phrase.
_ONE_PHRASE = ("PP", "SBAR")
#: Tags of the words a phrase takes before its sub-phrases; the first
#: word is always taken.
_HEAD_TAGS = {"NP": ("DET", "NOM", "CONJ"), "PP": ("PREP",), "VP": ("V",), "SBAR": ()}


def parse_phrase_tree(sentence: str) -> PhraseTree:
    """Chunk a sentence into an NP/VP/PP/SBAR tree under an S root."""
    tokens = sentence.split()
    tags = [_tag(t) for t in tokens]
    n = len(tokens)
    stack: list[tuple[str, int, list]] = [("S", 0, [])]  # label, start, children
    pos = 0
    while True:
        label, start, children = stack[-1]
        opens = _STARTS[label].get(tags[pos]) if pos < n else None
        if opens is None or (label in _ONE_PHRASE and not children[-1].is_leaf):
            stack.pop()
            node = PhraseTree(label, children, (start, pos))
            if not stack:
                return node
            stack[-1][2].append(node)
            continue
        if opens == "TOK":
            children.append(_leaf("TOK", tokens[pos], pos))
            pos += 1
            continue
        end = pos
        while end < n and tags[end] in _HEAD_TAGS[opens]:
            # a conjunction glues coordinated nominals; stop if nothing follows
            nxt = tags[end + 1] if end + 1 < n else None
            if tags[end] == "CONJ" and nxt not in ("DET", "NOM"):
                break
            end += 1
        end = max(end, pos + 1)  # progress on a stray conjunction
        head = [_leaf("NN" if tags[i] == "NOM" else "TOK", tokens[i], i)
                for i in range(pos, end)]
        if opens == "NP" and end < n and tags[end] in _STARTS["NP"]:
            # an NP with attachments holds its base NP as the first child
            head = [PhraseTree("NP", head, (pos, end))]
        stack.append((opens, pos, head))
        pos = end
