"""Gold constituency trees for the seven population patterns, and a
reference implementation of the patterns.

Each case pairs a hand-built bracketed tree with the phrase the pattern
must extract.  The trees cover every sentence token, so leaf order
matches ``sentence.split()``.  Case 5 is written post-preprocessing:
the parenthesized abbreviation declaration is already deleted and later
SLVD occurrences replaced by the expanded form, exactly as the
preprocessor leaves the sentence before parsing.
"""

from citescreen import preprocess

CASES = [
    (
        1,
        """(S So far, nebivolol is the only beta-blocker to have been shown
            effective in (NP elderly heart failure (NN patients)) ,
            regardless of their left ventricular ejection fraction.)""",
        "elderly heart failure patients",
    ),
    (
        2,
        """(S These findings provide further support for the idea that
            spironolactone may be useful in
            (NP (TOK patients) (VP hospitalized with HF and reduced LVEF)) .)""",
        "patients hospitalized with HF and reduced LVEF",
    ),
    (
        3,
        """(S An improved adverse-effect profile also makes angiotensin II
            receptor blockers appropriate in
            (NP (TOK patients) (SBAR who cannot tolerate ACE inhibitors)) .)""",
        "patients who cannot tolerate ACE inhibitors",
    ),
    (
        4,
        """(S ACE inhibitors decrease mortality in
            (NP (TOK patients)
                (PP with heart failure resulting from left ventricular
                    systolic dysfunction)) .)""",
        "patients with heart failure resulting from left ventricular"
        " systolic dysfunction",
    ),
    (
        5,
        """(S Aldosterone blockade has been shown to be effective in reducing
            (NP total mortality as well as hospitalization for heart failure in
                (NP (TOK patients)
                    (PP with systolic left ventricular dysfunction due to
                        chronic heart failure))
                and in
                (NP (TOK patients)
                    (PP with systolic left ventricular dysfunction post acute
                        myocardial infarction))) .)""",
        "total mortality as well as hospitalization for heart failure in"
        " patients with systolic left ventricular dysfunction due to chronic"
        " heart failure and in patients with systolic left ventricular"
        " dysfunction post acute myocardial infarction",
    ),
    (
        6,
        """(S HF pharmacotherapies that
            (VP have been associated with mortality benefits in
                (NP elderly patients with left ventricular systolic
                    dysfunction))
            include ACE inhibitors or ARBs; beta-blockers; aldosterone
            antagonists; and, in
            (NP (TOK patients)
                (SBAR who cannot tolerate ACE inhibitors or ARBs or who are
                      black,))
            a combination of hydralazine and nitrates .)""",
        "have been associated with mortality benefits in elderly patients"
        " with left ventricular systolic dysfunction",
    ),
    (
        7,
        """(S (NP Isosorbide dinitrate and hydralazine hydrochloride) should be
            (VP (TOK tried)
                (PP (TOK in)
                    (NP (TOK patients)
                        (SBAR who cannot tolerate ACE inhibitors)
                        (TOK or)
                        (SBAR who have refractory symptoms)))) .)""",
        "tried in patients who cannot tolerate ACE inhibitors or who have"
        " refractory symptoms",
    ),
]


def _labels_below(tree):
    """Per node id, the labels of every node strictly below the node."""
    below = {}
    for node in reversed(list(tree.iter_nodes())):   # each node after its subtree
        below[id(node)] = {label for c in node.children
                           for label in (c.label, *below[id(c)])}
    return below


def _pattern_matches(node, pattern, below):
    """The paper's seven structural patterns for population phrases."""
    def dominates(n, label):
        return label in below[id(n)]

    if pattern == 1:
        return node.label == "NP" and dominates(node, "NN")
    if pattern == 2:
        return node.label == "NP" and dominates(node, "VP")
    if pattern == 3:
        return node.label == "NP" and dominates(node, "SBAR")
    if pattern == 4:
        return node.label == "NP" and dominates(node, "PP")
    if pattern == 5:
        return node.label == "NP"
    if pattern == 6:
        return node.label == "VP" and dominates(node, "NP")
    if pattern == 7:
        if node.label != "VP":
            return False
        has_pp_sbar = any(
            n.label == "PP" and dominates(n, "SBAR") for n in node.children
        )
        return has_pp_sbar and dominates(node, "NP")
    raise ValueError(pattern)


def _term_positions(phrase_tokens, lexicon):
    """Brute-force scan: the start token of every population term occurrence."""
    words, sources = [], []
    for i, tok in enumerate(phrase_tokens):
        for w in preprocess.normalize_token(tok).split():
            words.append(w)
            sources.append(i)
    surfaces = {surface for surface, group in lexicon.entries if group == "population"}
    hits = []
    for surface in surfaces:
        parts = surface.split()
        for j in range(len(words) - len(parts) + 1):
            if words[j:j + len(parts)] == parts:
                hits.append(sources[j])
    return hits


def reference_population(tree, sentence, lexicon):
    """Population phrase spans by the seven patterns in order, sorted.

    Patterns 1-4 need a population term within the phrase's first two
    tokens, patterns 5-7 one anywhere; a span is listed once.  Each
    span's tokens are scanned for terms once.
    """
    tokens = sentence.split()
    below = _labels_below(tree)
    positions = {}
    spans = set()
    for pattern in range(1, 8):
        for node in tree.iter_nodes():
            if node.span in spans or not _pattern_matches(node, pattern, below):
                continue
            if node.span not in positions:
                positions[node.span] = _term_positions(
                    tokens[node.span[0]:node.span[1]], lexicon)
            hits = positions[node.span]
            if pattern <= 4:
                hits = [h for h in hits if h <= 1]
            if hits:
                spans.add(node.span)
    return sorted(spans)
